"""Benchmark of presmat: one workload per process, single-threaded.

    python3 perfbench/run.py --workload uniform_sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
A run sets the workload up (imports presmat afresh and builds the inputs)
at its start and again before later passes, about SETUP_SAMPLES times in
all; the first set-up is timed from the start of this script. Between
set-ups it runs whole passes over the workload's operations, each pass in a
seeded order, until ``--seconds`` have elapsed, give or take half a pass,
and at least MIN_PASSES passes are done. Then it checks the answers with
the independent checkers in ``checks.py``.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics. With ``--trace 1`` untraced and traced passes alternate, and the
last line holds the per-layer metrics of one traced pass. A copy of that
line, with per-operation timings and, for traced runs, every traced
function's totals, goes to ``perfbench/out/``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 10
MIN_PASSES = 3

# Per-layer metrics of a traced run, by function or layer.
TRACED_CALLS = (
    "ring.mul", "ring.exact_div", "ring.gcd", "ring.parse",
    "matrices.det", "matrices.minor", "matrices.rank", "matrices.cofactor_matrix",
    "groebner.syzygies", "groebner.module_minimal_generators", "groebner.height",
    "presentation.gamma", "presentation.check_presentation", "cli.main",
)
TRACED_SECONDS = (
    "ring.exact_div", "ring.gcd", "ring.parse",
    "matrices.det", "matrices.rank", "matrices.cofactor_matrix",
    "groebner.minimal_generators", "groebner.syzygies",
    "groebner.module_minimal_generators", "groebner.minimalize", "groebner.height",
    "presentation.gamma", "presentation.check_presentation",
    "construct.homogeneous_matrix",
)
TRACED_SELF = ("ring", "matrices", "groebner", "presentation", "construct", "betti", "cli")


def import_presmat():
    """Import presmat from this checkout's src/, dropping any earlier import."""
    if not os.path.isfile(os.path.join(SRC, "presmat", "__init__.py")):
        raise SystemExit("perfbench: no presmat package under %s" % SRC)
    for name in [m for m in sys.modules if m == "presmat" or m.startswith("presmat.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    importlib.invalidate_caches()
    pm = importlib.import_module("presmat")
    importlib.import_module("presmat.cli")
    if not os.path.abspath(pm.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported presmat from %s" % pm.__file__)
    return pm


class SetUp:
    """Import presmat afresh and build the workload's inputs, timing each."""

    def __init__(self, name, seed, workdir):
        self.make = lambda pm: WORKLOADS[name](pm, seed, workdir, ROOT)
        self.times = []
        self.done = _STARTED

    def __call__(self):
        if self.times:
            # free the earlier import's cyclic garbage, untimed, so that it
            # does not linger into the next passes and their peak RSS
            gc.collect()
        start = self.done if not self.times else time.perf_counter()
        workload = self.make(import_presmat())
        self.done = time.perf_counter()
        self.times.append(self.done - start)
        return workload

    def due(self, seconds):
        """Whether another set-up keeps the samples spread over the run."""
        return time.perf_counter() - self.done >= seconds / SETUP_SAMPLES


def run_pass(workload, order, record, call=None):
    """One pass over every operation; returns its wall time and failures."""
    failed = 0
    started = time.perf_counter()
    for i in order:
        t0 = time.perf_counter()
        try:
            raw = workload.run(i) if call is None else call(workload.run, i)
        except Exception as exc:  # counted and reported, never fatal
            print("perfbench: %s raised %r" % (workload.label(i), exc), file=sys.stderr)
            failed += 1
            continue
        record(i, time.perf_counter() - t0, raw)
    return time.perf_counter() - started, failed


class Results:
    """Per-operation timings and the answers of the latest pass."""

    def __init__(self, workload):
        self.workload = workload
        self.times = [[] for _ in range(workload.size)]
        self.prints = [set() for _ in range(workload.size)]
        self.raw = [None] * workload.size

    def record(self, i, seconds, raw):
        self.times[i].append(seconds)
        self.prints[i].add(self.workload.fingerprint(raw))
        self.raw[i] = raw

    def check(self, rng):
        """Failures of the independent checks; answers must agree across passes."""
        bad = []
        for i, raw in enumerate(self.raw):
            if raw is None:
                continue
            label = self.workload.label(i)
            if len(self.prints[i]) != 1:
                bad.append("%s: answers differ between passes" % label)
            answer = self.workload.answer(i, raw)
            bad += ["%s: %s" % (label, msg) for msg in self.workload.check(i, answer, rng)]
        return bad


def timed_run(setup, seconds, rng):
    workload = setup()
    results = Results(workload)
    attempted = failed = passes = 0
    wall = 0.0
    # another pass only if, at the mean pass time, it ends by half a pass
    # past --seconds, so a run measures --seconds give or take half a pass
    while passes < MIN_PASSES or wall + wall / passes / 2 <= seconds:
        if passes and setup.due(seconds):
            workload = setup()
        order = rng.sample(range(workload.size), workload.size)
        elapsed, bad = run_pass(workload, order, results.record)
        wall += elapsed
        attempted += workload.size
        failed += bad
        passes += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    medians = [statistics.median(t) for t in results.times if t]
    metrics = {
        "instances_per_s": ((attempted - failed) / wall, "1/s"),
        "latency_geomean_ms": (1000.0 * math.exp(
            sum(math.log(m) for m in medians) / len(medians)), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup.times), "s"),
    }
    return results, attempted, failed, metrics, {"passes": passes, "wall_s": wall,
                                                  "setup_s": setup.times}


def traced_run(setup, seconds, rng):
    """Untraced and traced passes in turn; per-layer figures of one pass."""
    workload = setup()
    results = Results(workload)
    tracer = tracing.Tracer()
    attempted = failed = 0
    per_pass, walls, untraced = [], [], []
    spent = 0.0
    while not walls or spent + spent / len(walls) / 2 <= seconds:
        if walls and setup.due(seconds):
            workload = setup()
        order = rng.sample(range(workload.size), workload.size)
        elapsed, bad = run_pass(workload, order, results.record)
        untraced.append(elapsed)
        failed += bad
        tracer.install()
        try:
            before = tracer.snapshot()
            elapsed, bad = run_pass(workload, order, results.record, tracer.span)
            after = tracer.snapshot()
        finally:
            tracer.uninstall()
        per_pass.append(tuple({k: v - b.get(k, 0) for k, v in a.items()}
                              for a, b in zip(after, before)))
        walls.append(elapsed)
        spent = sum(walls) + sum(untraced)
        attempted += 2 * workload.size
        failed += bad
    calls = per_pass[0][0]
    if any(p[0] != calls for p in per_pass):
        print("perfbench: call counts differ between traced passes", file=sys.stderr)
    passes = len(per_pass)
    seconds_per_pass = {k: sum(p[1][k] for p in per_pass) / passes for k in per_pass[0][1]}
    self_per_pass = {k: sum(p[2][k] for p in per_pass) / passes for k in per_pass[0][2]}
    metrics = {}
    for name in TRACED_CALLS:
        metrics[name + ".calls"] = (calls.get(name, 0), "count")
    for name in TRACED_SECONDS:
        metrics[name + ".s"] = (seconds_per_pass.get(name, 0.0), "s")
    for layer in TRACED_SELF:
        metrics[layer + ".self_s"] = (self_per_pass[layer], "s")
    metrics["trace.overhead_s"] = (statistics.median(walls) - statistics.median(untraced), "s")
    detail = {"traced_passes": passes, "untraced_pass_s": untraced,
              "traced_pass_s": walls, "calls": calls,
              "seconds": seconds_per_pass, "self_s": self_per_pass}
    return results, attempted, failed, metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = os.path.join(OUT, "docs-%d" % os.getpid())
    try:
        setup = SetUp(args.workload, args.seed, workdir)
        rng = random.Random("%s:%d:order" % (args.workload, args.seed))
        run = traced_run if args.trace else timed_run
        results, attempted, failed, metrics, detail = run(setup, args.seconds, rng)
        problems = results.check(random.Random("%s:%d:check" % (args.workload, args.seed)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in problems:
        print("perfbench: check failed: %s" % msg, file=sys.stderr)
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(dict(line, workload=args.workload, seed=args.seed, detail=detail,
                       timings_ms={results.workload.label(i): [1000 * t for t in ts]
                                   for i, ts in enumerate(results.times)}),
                  fh, indent=1, sort_keys=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

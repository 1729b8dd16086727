"""Self-test of the benchmark's checkers: each must pass a true answer from
presmat and reject the same answer once it is corrupted.

    python3 perfbench/selftest.py

Corruptions: one Betti shift off by one, one map entry perturbed by one
coefficient, a resolution cut short, and one flipped verdict or exit code.
Exits 0 when every checker accepts every true answer and rejects every
corrupted one.
"""

import copy
import os
import random
import shutil
import sys

import run
from workloads import WORKLOADS


def shift_off_by_one(answer):
    maps, shifts = copy.deepcopy(answer)
    shifts[1] = (shifts[1][0] + 1,) + tuple(shifts[1][1:])
    return maps, shifts


def perturb_entry(answer, k):
    """Add one to a coefficient of the first nonzero entry of map k."""
    maps, shifts = copy.deepcopy(answer)
    entry = next(p for row in maps[k] for p in row if p)
    mono = next(iter(entry))
    entry[mono] += 1
    if not entry[mono]:
        del entry[mono]
    return maps, shifts


def drop_last_module(answer):
    maps, shifts = copy.deepcopy(answer)
    return maps[:-1], shifts[:-1]


def flip_verdict(answer):
    code, report = copy.deepcopy(answer)
    report["verdict"] = "not_presentation" if report["verdict"] == "presentation" \
        else "presentation"
    return code, report


def flip_exit(answer):
    code, report = copy.deepcopy(answer)
    return (2 if code == 0 else 0), report


def perturb_gamma(answer):
    code, report = copy.deepcopy(answer)
    report["result"]["gamma"][0] += " + x*y*z*t"
    return code, report


def bump_betti(answer):
    code, report = copy.deepcopy(answer)
    report["result"]["betti"]["b"][0] += 1
    return code, report


CASES = (
    # (workload, operation labels, corruptions)
    ("uniform_sweep", ("n3_a1_b2", "n5_a4_b6", "n7_a6_b8"), (
        ("shift off by one", shift_off_by_one),
        ("presentation matrix entry perturbed", lambda a: perturb_entry(a, 1)),
        ("gamma entry perturbed", lambda a: perturb_entry(a, 0)),
    )),
    ("ideal_resolution", ("v3_d222_0", "v4_d223_0", "cyclic-cubics"), (
        ("shift off by one", shift_off_by_one),
        ("first map entry perturbed", lambda a: perturb_entry(a, 0)),
        ("second map entry perturbed", lambda a: perturb_entry(a, 1)),
        ("last module dropped", drop_last_module),
    )),
    ("cli_documents", ("check-square0",), (
        ("verdict flipped", flip_verdict),
        ("exit code flipped", flip_exit),
        ("gamma entry perturbed", perturb_gamma),
    )),
    ("cli_documents", ("resolve-koszul0", "verify-cyclic-cubics"), (
        ("betti twist off by one", bump_betti),
        ("exit code flipped", flip_exit),
    )),
)


def main():
    pm = run.import_presmat()
    rng = random.Random("selftest")
    workdir = os.path.join(run.OUT, "selftest-docs")
    failures = 0
    made = {}
    try:
        for name, labels, corruptions in CASES:
            if name not in made:
                made[name] = WORKLOADS[name](pm, 0, workdir, run.ROOT)
            workload = made[name]
            index = {workload.label(i): i for i in range(workload.size)}
            for label in labels:
                i = index[label]
                answer = workload.answer(i, workload.run(i))
                clean = workload.check(i, answer, rng)
                ok = not clean
                print("%-17s %-22s true answer accepted: %s"
                      % (name, label, "yes" if ok else "NO %s" % clean))
                failures += not ok
                for what, corrupt in corruptions:
                    rejected = bool(workload.check(i, corrupt(answer), rng))
                    print("%-17s %-22s %s rejected: %s"
                          % (name, label, what, "yes" if rejected else "NO"))
                    failures += not rejected
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest: %s" % ("ok" if not failures else "%d FAILURES" % failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

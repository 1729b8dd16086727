"""Command-line front end: JSON documents in, one JSON report out.

Every invocation prints a single report object with the fields
{command, input_digest, verdict, result, witness, timings} and exits with
0  decided positive / successful computation
1  input error, precondition violation, or exhausted budget
2  decided negative (not a presentation, NotEssential, failed verification)
3  undecided (Unknown classification)

The input is read once: the input file (a pipe such as /dev/stdin works),
the example's fixture, or the --homogeneous N A B triple. input_digest is
the sha256 of exactly the bytes that ran.

Budgets: --budget-seconds beats the PRESMAT_BUDGET_SECONDS environment
variable, which beats the library default of 60 seconds. Each internal
Groebner step gets the budget, the syzygy runs of gamma included, except
in minimal free resolutions, whose steps get the seconds that remain of
it. The budget must be positive and finite.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import sys
import time
from importlib import resources

from .betti import (
    ESSENTIAL,
    NOT_ESSENTIAL,
    UNKNOWN,
    BettiSequence,
    classify,
    classify_gaeta_reduce,
    classify_homogeneous,
    lift,
)
from .construct import (
    HilbertBurchData,
    base_bidiagonal,
    hilbert_burch_ideal,
    homogeneous_matrix,
    homogeneous_plan,
    lift_matrix,
    nogaeta_extend,
    prop_bet,
    star_product,
)
from .groebner import (
    Budget,
    BudgetExceeded,
    IdealBasis,
    height,
    minimal_free_resolution,
)
from .matrices import PolyMatrix
from .presentation import (
    build_resolution,
    check_presentation,
    decompose,
    gamma,
    zeta,
)
from .ring import ParseError, RingContext, parse

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2
EXIT_UNKNOWN = 3

BUDGET_ENV = "PRESMAT_BUDGET_SECONDS"

PAPER_EXAMPLES = ("square-4", "cyclic-cubics", "cyclic-quartics",
                  "gaeta-remark", "closing-remark")


class CliError(Exception):
    """Bad input or violated precondition; maps to exit status 1."""


# -- input decoding ------------------------------------------------------------


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc)) from exc


def _decode(payload: bytes, where: str) -> dict:
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise CliError("%s: invalid JSON at line %d: %s"
                       % (where, exc.lineno, exc.msg)) from exc
    if not isinstance(doc, dict):
        raise CliError("%s: top-level value must be an object" % where)
    return doc


def _ring_from(doc: dict) -> RingContext:
    spec = doc.get("ring")
    if not isinstance(spec, dict) or "vars" not in spec:
        raise CliError('document needs "ring": {"vars": [...]}')
    names = spec["vars"]
    if (not isinstance(names, list) or not names
            or not all(isinstance(v, str) for v in names)):
        raise CliError('"ring.vars" must be a non-empty list of names')
    order = spec.get("order", "grevlex")
    if isinstance(order, list):  # ["elim", k] from JSON
        order = tuple(order)
    try:
        return RingContext(tuple(names), order=order)
    except ValueError as exc:
        raise CliError("bad ring: %s" % exc) from exc


def _poly(text, ring: RingContext, where: str):
    if not isinstance(text, str):
        raise CliError("%s: polynomial must be a string, got %r" % (where, text))
    try:
        return parse(text, ring)
    except ParseError as exc:
        raise CliError("%s: %s" % (where, exc)) from exc


def _matrix_from(doc: dict) -> PolyMatrix:
    ring = _ring_from(doc)
    rows = doc.get("matrix")
    if not isinstance(rows, list) or not rows:
        raise CliError('document needs "matrix": [[...], ...]')
    widths = {len(r) for r in rows if isinstance(r, list)}
    if len(widths) != 1 or not all(isinstance(r, list) for r in rows):
        raise CliError('"matrix" rows must be equal-length lists')
    entries = [[_poly(cell, ring, "matrix[%d][%d]" % (i, j))
                for j, cell in enumerate(row)]
               for i, row in enumerate(rows)]
    return PolyMatrix(ring, entries)


def _ideal_from(doc: dict) -> IdealBasis:
    ring = _ring_from(doc)
    gens = doc.get("ideal")
    if not isinstance(gens, list) or not gens:
        raise CliError('document needs "ideal": ["...", ...]')
    polys = [_poly(g, ring, "ideal[%d]" % i) for i, g in enumerate(gens)]
    return IdealBasis(polys, ring=ring)


def _integer(value, field: str) -> int:
    """value if it is a JSON integer; an absent field arrives as None. int()
    would truncate a float, read true as 1 and parse a string."""
    if type(value) is not int:
        raise CliError('"%s" must be an integer, got %s' % (field, json.dumps(value)))
    return value


def _integers(values, field: str) -> list:
    if not isinstance(values, list):
        raise CliError('"%s" must be a list of integers' % field)
    return [_integer(v, "%s[%d]" % (field, i)) for i, v in enumerate(values)]


def _sequence_from(doc: dict, key: str = "sequence") -> BettiSequence:
    spec = doc.get(key)
    if not isinstance(spec, dict):
        raise CliError('document needs "%s": {"a": [...], "b": [...], "s": n}' % key)
    try:
        return BettiSequence(_integers(spec.get("a"), key + ".a"),
                             _integers(spec.get("b"), key + ".b"),
                             _integer(spec.get("s"), key + ".s"))
    except ValueError as exc:
        raise CliError("bad %s: %s" % (key, exc)) from exc


def _budget_from(args) -> Budget | None:
    seconds = args.budget_seconds
    if seconds is None:
        raw = os.environ.get(BUDGET_ENV)
        if raw is not None:
            try:
                seconds = float(raw)
            except ValueError as exc:
                raise CliError("%s must be a number, got %r"
                               % (BUDGET_ENV, raw)) from exc
    if seconds is None:
        return None
    if not 0 < seconds < math.inf:  # also rejects nan
        raise CliError("budget must be a positive, finite number of seconds")
    return Budget(seconds=seconds)


# -- output encoding -----------------------------------------------------------


def _texts(vec):
    return [str(p) for p in vec]


def _matrix_texts(M: PolyMatrix):
    return [[str(M.entry(i, j)) for j in range(M.cols)] for i in range(M.rows)]


def _sequence_dict(seq: BettiSequence) -> dict:
    return {"a": list(seq.a), "b": list(seq.b), "s": seq.s}


def _verdict_payload(verdict) -> tuple[str, dict | None]:
    witness = verdict.witness if isinstance(verdict.witness, dict) else None
    return verdict.status, witness


def _status_exit(status: str) -> int:
    if status == ESSENTIAL:
        return EXIT_OK
    if status == NOT_ESSENTIAL:
        return EXIT_NEGATIVE
    if status == UNKNOWN:
        return EXIT_UNKNOWN
    return EXIT_OK


def _height_text(h):
    """A height for JSON: the unit ideal's infinite height as "inf"."""
    return "inf" if h == float("inf") else h


def _resolution_payload(res) -> dict:
    payload = {
        "shifts": [list(s) for s in res.shifts],
        "minimal": res.minimal,
    }
    try:
        a, b, s = res.betti()
    except ValueError:
        payload["betti"] = None
    else:
        payload["betti"] = {"a": list(a), "b": list(b), "s": s}
    return payload


# -- command handlers ------------------------------------------------------------
# each takes (args, doc, budget, timings), doc being the decoded input, and
# returns (verdict, result, witness, exit_code)


def _cmd_gamma(args, doc, budget, timings):
    M = _matrix_from(doc)
    vec = gamma(M, budget=budget)
    result = {
        "gamma": _texts(vec),
        "column_subset": list(vec.column_subset),
        "normalization": vec.normalization_note,
    }
    return "ok", result, None, EXIT_OK


def _check_payload(report) -> dict:
    return {
        "is_presentation": report.is_presentation,
        "is_minimal": report.is_minimal,
        "failure_reason": report.failure_reason,
        "gamma": _texts(report.gamma) if report.gamma is not None else None,
        "gamma_transpose": (_texts(report.gamma_transpose)
                            if report.gamma_transpose is not None else None),
        "cofactor_unit": (str(report.cofactor_unit)
                          if report.cofactor_unit is not None else None),
        "height_of_row_ideal": _height_text(report.height_J),
    }


def _not_presentation(report):
    return "not_presentation", _check_payload(report), \
        {"failure_reason": report.failure_reason}, EXIT_NEGATIVE


def _cmd_check(args, doc, budget, timings):
    M = _matrix_from(doc)
    if args.transpose:
        M = M.transpose()
    report = check_presentation(M, budget=budget)
    if not report.is_presentation:
        return _not_presentation(report)
    return "presentation", _check_payload(report), None, EXIT_OK


def _cmd_resolve(args, doc, budget, timings):
    if "matrix" in doc:
        M = _matrix_from(doc)
        report = check_presentation(M, budget=budget)
        if not report.is_presentation:
            return _not_presentation(report)
        res = build_resolution(M, budget=budget)  # reads the report kept on M
    elif "ideal" in doc:
        res = minimal_free_resolution(_ideal_from(doc), budget=budget)
    else:
        _ring_from(doc)  # a bad ring is reported before the missing fields
        raise CliError('document needs either "matrix" or "ideal"')
    return "resolved", _resolution_payload(res), None, EXIT_OK


def _cmd_zeta(args, doc, budget, timings):
    M = _matrix_from(doc)
    report = check_presentation(M, budget=budget)
    if not report.is_presentation:
        return _not_presentation(report)
    z = zeta(M, budget=budget)
    result = {
        "zeta": z.zeta,
        "generators_of_ideal": z.nu_I,
        "generators_of_row_ideal": z.nu_J,
        "rho": _texts(z.normalized_rho),
    }
    return "ok", result, None, EXIT_OK


def _cmd_decompose(args, doc, budget, timings):
    B = _matrix_from(doc)
    report = decompose(B, budget=budget)
    result = {
        "ideal": _texts(report.ideal.generators),
        "minor_ideal": _texts(report.y_ideal.generators),
        "row_ideal": _texts(report.z_ideal.generators),
        "regular": report.regular,
        "intersection_verified": report.intersection_verified,
    }
    if not report.regular:
        return "not_regular", result, None, EXIT_NEGATIVE
    if report.intersection_verified is False:
        return "intersection_mismatch", result, None, EXIT_NEGATIVE
    return "decomposed", result, None, EXIT_OK


def _cmd_betti_classify(args, doc, budget, timings):
    if (args.input is None) == (args.homogeneous is None):
        raise CliError("betti-classify takes one input: a file or --homogeneous N A B")
    if args.homogeneous is not None:
        n, a, b = args.homogeneous
        verdict = classify_homogeneous(n, a, b)
        status, witness = _verdict_payload(verdict)
        result = {"status": status, "n": n, "a": a, "b": b}
        return status, result, witness, _status_exit(status)
    seq = _sequence_from(doc)
    verdict = classify(seq)
    status, witness = _verdict_payload(verdict)
    result = {"status": status, "sequence": _sequence_dict(seq)}
    return status, result, witness, _status_exit(status)


def _cmd_betti_reduce(args, doc, budget, timings):
    seq = _sequence_from(doc)
    residue, total, verdict = classify_gaeta_reduce(seq)
    status, witness = _verdict_payload(verdict)
    result = {
        "status": status,
        "sequence": _sequence_dict(seq),
        "residue": _sequence_dict(residue) if residue is not None else None,
        "total_reduced": total,
    }
    return status, result, witness, _status_exit(status)


def _cmd_betti_lift(args, doc, budget, timings):
    seq = _sequence_from(doc)
    exponents = _integers(doc.get("exponents"), "exponents")
    lifted = lift(seq, exponents)
    result = {
        "sequence": _sequence_dict(seq),
        "exponents": list(exponents),
        "lifted": _sequence_dict(lifted),
    }
    return "lifted", result, None, EXIT_OK


def _construct_homogeneous(doc, budget):
    n, a, b = (_integer(doc.get(k), k) for k in ("n", "a", "b"))
    verdict = classify_homogeneous(n, a, b)
    status, witness = _verdict_payload(verdict)
    if status != ESSENTIAL:
        result = {"status": status, "n": n, "a": a, "b": b, "matrix": None}
        return status, result, witness, _status_exit(status)
    plan = homogeneous_plan(n, a, b)
    M = homogeneous_matrix(n, a, b, budget=budget)
    result = {
        "status": status,
        "n": n, "a": a, "b": b,
        "plan": [list(step) for step in plan],
        "ring": list(M.ring.variables),
        "matrix": _matrix_texts(M),
    }
    return "constructed", result, witness, EXIT_OK


def _construct_product(doc, budget):
    ring = _ring_from(doc)
    triple = doc.get("regular_triple")
    cofactors = doc.get("cofactors", ["1", "1", "1"])
    if not isinstance(triple, list) or len(triple) != 3:
        raise CliError('product construction needs "regular_triple": [h1, h2, h3]')
    if not isinstance(cofactors, list) or len(cofactors) != 3:
        raise CliError('"cofactors" must list exactly three polynomials')
    h = [_poly(t, ring, "regular_triple[%d]" % i) for i, t in enumerate(triple)]
    g = [_poly(t, ring, "cofactors[%d]" % i) for i, t in enumerate(cofactors)]
    M, I, predicted = prop_bet(h, g, budget=budget)
    report = check_presentation(M, budget=budget)
    result = {
        "ring": list(ring.variables),
        "matrix": _matrix_texts(M),
        "ideal": _texts(I.generators),
        "predicted": _sequence_dict(predicted),
        "is_presentation": report.is_presentation,
    }
    if not report.is_presentation:
        return "not_presentation", result, \
            {"failure_reason": report.failure_reason}, EXIT_NEGATIVE
    return "constructed", result, None, EXIT_OK


def _construct_lift(doc, budget):
    M = _matrix_from(doc)
    exponents = _integers(doc.get("exponents"), "exponents")
    fresh = doc.get("fresh_vars")
    if not isinstance(fresh, list):
        raise CliError('lift construction needs "fresh_vars"')
    lifted = lift_matrix(M, exponents, fresh, budget=budget)
    result = {
        "ring": list(lifted.ring.variables),
        "matrix": _matrix_texts(lifted),
        "gamma": _texts(check_presentation(lifted, budget=budget).gamma),
    }
    return "constructed", result, None, EXIT_OK


def _construct_star(doc, budget):
    n, left_t, right_t = (_integer(doc.get(k), k) for k in ("size", "left_t", "right_t"))
    left = base_bidiagonal(n, left_t, ["x%d" % (i + 1) for i in range(n)])
    right = base_bidiagonal(n, right_t, ["y%d" % (i + 1) for i in range(n)])
    product = star_product(left, right, budget=budget)
    M = product.matrix()
    result = {
        "ring": list(M.ring.variables),
        "matrix": _matrix_texts(M),
        "diag": _texts(product.diag),
        "superdiag": _texts(product.superdiag),
    }
    return "constructed", result, None, EXIT_OK


def _construct_hilbert_burch(doc, budget):
    B = _matrix_from(doc)
    data = HilbertBurchData(B, budget=budget)
    I, M = hilbert_burch_ideal(data, budget=budget)
    z = zeta(M, budget=budget)
    result = {
        "ring": list(B.ring.variables),
        "ideal": _texts(I.generators),
        "matrix": _matrix_texts(M),
        "zeta": z.zeta,
    }
    return "constructed", result, None, EXIT_OK


def _construct_block_extension(doc, budget):
    inner_matrix = _matrix_from(doc)
    inner_seq = _sequence_from(doc, key="inner")
    outer_seq = _sequence_from(doc, key="outer")
    t = _integer(doc.get("t"), "t")
    M = nogaeta_extend((inner_matrix, inner_seq), outer_seq, t, budget=budget)
    result = {
        "ring": list(M.ring.variables),
        "matrix": _matrix_texts(M),
        "outer": _sequence_dict(outer_seq),
    }
    return "constructed", result, None, EXIT_OK


_CONSTRUCT_KINDS = {
    "homogeneous": _construct_homogeneous,
    "product": _construct_product,
    "lift": _construct_lift,
    "star": _construct_star,
    "hilbert-burch": _construct_hilbert_burch,
    "block-extension": _construct_block_extension,
}


def _cmd_construct(args, doc, budget, timings):
    kind = doc.get("construct")
    handler = _CONSTRUCT_KINDS.get(kind) if isinstance(kind, str) else None
    if handler is None:
        raise CliError('"construct" must be one of: %s'
                       % ", ".join(sorted(_CONSTRUCT_KINDS)))
    return handler(doc, budget)


# -- paper scenarios ---------------------------------------------------------------


def _fixture_bytes(name: str, fixtures_dir: str | None) -> bytes:
    """The fixture document of the named example, packaged or loaded."""
    if fixtures_dir is not None:
        return _read(os.path.join(fixtures_dir, name + ".json"))
    ref = resources.files("presmat").joinpath("fixtures/%s.json" % name)
    if not ref.is_file():
        raise CliError("unknown example %r; available: %s"
                       % (name, ", ".join(PAPER_EXAMPLES)))
    return ref.read_bytes()


def _expected(doc, *keys) -> dict:
    """The fixture's "expect" object, which must hold keys."""
    expect = doc.get("expect")
    if not isinstance(expect, dict) or not all(k in expect for k in keys):
        raise CliError('fixture needs "expect": {%s}'
                       % ", ".join('"%s": ...' % k for k in keys))
    return expect


def _scenario_matrix_check(doc, budget, timings):
    M = _matrix_from(doc)
    expect = _expected(doc, "gamma", "check", "transpose_check")
    report = check_presentation(M, budget=budget)
    vec = report.gamma
    transposed = check_presentation(M.transpose(), budget=budget)
    checks = {
        "gamma": _texts(vec) == expect["gamma"],
        "check": report.is_presentation is expect["check"],
        "transpose_check": transposed.is_presentation is expect["transpose_check"],
    }
    result = {
        "checks": checks,
        "gamma": _texts(vec),
        "failure_reason_of_transpose": transposed.failure_reason,
        "height_of_transposed_row_ideal": _height_text(transposed.height_J),
    }
    return checks, result


def _scenario_ideal_resolution(doc, budget, timings):
    I = _ideal_from(doc)
    expect = _expected(doc, "betti")["betti"]
    res = minimal_free_resolution(I, budget=budget)
    a, b, s = res.betti()
    got = {"a": list(a), "b": list(b), "s": s}
    checks = {"betti": got == expect}
    return checks, {"checks": checks, "betti": got}


def _scenario_sequence_classification(doc, budget, timings):
    seq = _sequence_from(doc)
    expect = _expected(doc, "verdict")["verdict"]
    verdict = classify(seq)
    status, witness = _verdict_payload(verdict)
    checks = {"verdict": status == expect}
    result = {"checks": checks, "status": status, "witness": witness}
    return checks, result


def _scenario_height_then_resolution(doc, budget, timings):
    I = _ideal_from(doc)
    expect = _expected(doc, "height", "betti")
    budgets = doc.get("budgets", {})
    required = Budget(seconds=float(budgets.get("required_seconds", 300)))
    stretch = Budget(seconds=float(budgets.get("stretch_seconds", 1800)))
    if budget is not None:
        required = stretch = budget

    started = time.monotonic()
    h = height(I, budget=required)
    timings["height_seconds"] = round(time.monotonic() - started, 3)
    checks = {"height": h == expect["height"]}
    result = {"checks": checks, "height": h}

    started = time.monotonic()
    try:
        res = minimal_free_resolution(I, budget=stretch)
    except BudgetExceeded as exc:
        result["stretch"] = {"outcome": "budget_exceeded", "detail": str(exc)}
    else:
        a, b, s = res.betti()
        got = {"a": list(a), "b": list(b), "s": s}
        checks["betti"] = got == expect["betti"]
        result["stretch"] = {"outcome": "completed", "betti": got}
    timings["resolution_seconds"] = round(time.monotonic() - started, 3)
    return checks, result


_SCENARIOS = {
    "matrix-check": _scenario_matrix_check,
    "ideal-resolution": _scenario_ideal_resolution,
    "sequence-classification": _scenario_sequence_classification,
    "height-then-resolution": _scenario_height_then_resolution,
}


def _cmd_verify_paper_example(args, doc, budget, timings):
    scenario = doc.get("scenario")
    runner = _SCENARIOS.get(scenario) if isinstance(scenario, str) else None
    if runner is None:
        raise CliError("fixture %r has no runnable scenario" % args.name)
    checks, result = runner(doc, budget, timings)
    result["example"] = args.name
    if all(checks.values()):
        return "confirmed", result, None, EXIT_OK
    failed = sorted(k for k, ok in checks.items() if not ok)
    return "contradicted", result, {"failed_checks": failed}, EXIT_NEGATIVE


# -- dispatch ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it
    unchanged, so every call to main can share it."""
    top = argparse.ArgumentParser(
        prog="presmat",
        description="presentation matrices, graded resolutions, and Betti "
                    "sequence classification")
    top.add_argument("--budget-seconds", type=float, default=None,
                     help="seconds for each internal Groebner step, or for "
                          "a whole minimal resolution (overrides %s)"
                          % BUDGET_ENV)
    top.add_argument("--format", choices=("json", "text"), default="json",
                     help="report format (default json)")
    sub = top.add_subparsers(dest="command", required=True)

    def with_input(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="JSON input document")
        return p

    with_input("gamma", "row annihilator of a matrix")
    check = with_input("check", "presentation-matrix test")
    check.add_argument("--transpose", action="store_true",
                       help="test the transposed matrix instead")
    with_input("resolve", "minimal graded resolution of a matrix or ideal")
    with_input("zeta", "generator-count gap of a presentation matrix")
    with_input("decompose", "minor-ideal splitting of an (n+1) x n matrix")

    classify_p = sub.add_parser("betti-classify",
                                help="essentiality verdict for a sequence")
    classify_p.add_argument("input", nargs="?", default=None,
                            help="JSON document with a sequence")
    classify_p.add_argument("--homogeneous", nargs=3, type=int, default=None,
                            metavar=("N", "A", "B"),
                            help="classify the uniform sequence (A^N; B^N)")

    with_input("betti-reduce", "iterated reduction of a sequence")
    with_input("betti-lift", "arithmetic lift of a sequence")
    with_input("construct", "build a matrix with prescribed data")

    verify = sub.add_parser("verify-paper-example",
                            help="replay a named example end to end")
    verify.add_argument("name", choices=PAPER_EXAMPLES)
    verify.add_argument("--fixtures-dir", default=None,
                        help="load fixtures from a directory instead of "
                             "the packaged ones")
    return top


_HANDLERS = {
    "gamma": _cmd_gamma,
    "check": _cmd_check,
    "resolve": _cmd_resolve,
    "zeta": _cmd_zeta,
    "decompose": _cmd_decompose,
    "betti-classify": _cmd_betti_classify,
    "betti-reduce": _cmd_betti_reduce,
    "betti-lift": _cmd_betti_lift,
    "construct": _cmd_construct,
    "verify-paper-example": _cmd_verify_paper_example,
}


def _payload(args) -> tuple[bytes, str | None]:
    """The command's input bytes, read once, and the name a JSON error quotes
    for them; None when they are not a JSON document."""
    if args.command == "verify-paper-example":
        return _fixture_bytes(args.name, args.fixtures_dir), args.name
    if getattr(args, "homogeneous", None) is not None:
        return b"homogeneous:%d:%d:%d" % tuple(args.homogeneous), None
    if args.input is None:  # betti-classify with neither input
        return b"", None
    return _read(args.input), args.input


def _emit(report: dict, fmt: str) -> None:
    # strict JSON (RFC 8259): no NaN or Infinity
    dumps = functools.partial(json.dumps, sort_keys=True, allow_nan=False)
    if fmt == "json":
        print(dumps(report, indent=2), flush=True)
        return
    print("command: %s" % report["command"])
    print("verdict: %s" % report["verdict"])
    for key in sorted(report["result"]):
        print("  %s: %s" % (key, dumps(report["result"][key])))
    if report["witness"]:
        print("witness: %s" % dumps(report["witness"]))
    print("seconds: %s" % report["timings"]["total_seconds"], flush=True)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; that slot
        return EXIT_ERROR if exc.code else EXIT_OK  # means "decided negative" here
    started = time.monotonic()
    timings: dict[str, float] = {}
    verdict, result, witness, code = "error", {}, None, EXIT_ERROR
    digest = None
    try:
        payload, where = _payload(args)
        digest = "sha256:" + hashlib.sha256(payload).hexdigest()
        budget = _budget_from(args)
        doc = None if where is None else _decode(payload, where)
        verdict, result, witness, code = \
            _HANDLERS[args.command](args, doc, budget, timings)
    except (CliError, ValueError) as exc:
        # ValueError covers the library's input errors, ParseError and
        # UnitIdealError included
        result = {"error": str(exc)}
    except BudgetExceeded as exc:
        result = {"error": str(exc), "budget_exceeded": True}
    timings["total_seconds"] = round(time.monotonic() - started, 3)
    report = {
        "command": args.command,
        "input_digest": digest,
        "verdict": verdict,
        "result": result,
        "witness": witness,
        "timings": timings,
    }
    try:
        _emit(report, args.format)
    except BrokenPipeError:  # the reader has gone, as after `| head -1`: what
        # is left goes to devnull, or the flush at exit fails once more; a
        # stdout without a file descriptor is left as it is
        with contextlib.suppress(AttributeError, OSError), open(os.devnull, "wb") as sink:
            os.dup2(sink.fileno(), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())

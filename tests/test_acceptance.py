"""Acceptance checks, one test per numbered criterion.

Each test prints a single "criterion N: PASS/FAIL" line before asserting,
so the verdict table survives a failure (run with -s to see it on success
too). Wall-clock limits are part of the criteria and are asserted next to
the mathematical content.
"""

import importlib.util
import json
import time
from importlib import resources
from itertools import combinations_with_replacement
from pathlib import Path

from presmat import (
    BettiSequence,
    Budget,
    IdealBasis,
    PolyMatrix,
    RingContext,
    build_resolution,
    check_presentation,
    classify,
    classify_n3,
    gamma,
    height,
    hilbert_from_betti,
    hilbert_function,
    homogeneous_matrix,
    minimal_free_resolution,
    parse,
    prop_bet,
)
from presmat.betti import ESSENTIAL, NOT_ESSENTIAL
from presmat.presentation import FAIL_HEIGHT

XYZT = RingContext(("x", "y", "z", "t"))
SIX = RingContext(("x", "y", "z", "u", "v", "w"))
CYC = RingContext(("x", "y", "z", "t", "u", "v"))

CYCLIC_CUBICS = ("x*y*z", "y*z*t", "z*t*u", "t*u*v", "u*v*x", "v*x*y")
CYCLIC_QUARTICS = ("x*y*z*t", "y*z*t*u", "z*t*u*v",
                   "t*u*v*x", "u*v*x*y", "v*x*y*z")


def _report(num: int, failures, note: str = ""):
    status = "PASS" if not failures else "FAIL"
    suffix = " [%s]" % note if note else ""
    print("criterion %d: %s%s" % (num, status, suffix))
    assert not failures, "; ".join(failures[:8])


def square4():
    return PolyMatrix.from_text(XYZT, [
        ["y", "-x", "0", "0"],
        ["0", "z", "-y", "0"],
        ["0", "0", "t", "-z"],
        ["-t", "0", "0", "x"],
    ])


def test_criterion_1_curve_section_example():
    start = time.perf_counter()
    failures = []
    M = square4()
    g = [str(p) for p in gamma(M)]
    if g != ["z*t", "x*t", "x*y", "y*z"]:
        failures.append("annihilator came out as %s" % g)
    rep = check_presentation(M)
    if not rep.is_presentation:
        failures.append("direct check failed: %s" % rep.failure_reason)
    rep_t = check_presentation(M.transpose())
    if rep_t.is_presentation:
        failures.append("transpose check unexpectedly passed")
    elif rep_t.failure_reason != FAIL_HEIGHT:
        failures.append("transpose failed as %s, not on height"
                        % rep_t.failure_reason)
    elif rep_t.height_J != 2:
        failures.append("transpose row ideal height %s, expected 2"
                        % rep_t.height_J)
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append("took %.2fs, limit 1s" % elapsed)
    _report(1, failures, "%.2fs" % elapsed)


def test_criterion_2_cyclic_monomial_resolutions():
    failures = []
    notes = []
    for label, gens, want in (
            ("cubics", CYCLIC_CUBICS, ((3,) * 6, (4,) * 6, 6)),
            ("quartics", CYCLIC_QUARTICS, ((4,) * 6, (5,) * 6, 6))):
        I = IdealBasis([parse(s, CYC) for s in gens], ring=CYC)
        start = time.perf_counter()
        res = minimal_free_resolution(I, max_length=3)
        elapsed = time.perf_counter() - start
        notes.append("%s %.2fs" % (label, elapsed))
        got = res.betti()
        if got != want:
            failures.append("%s resolved to %r" % (label, got))
        if elapsed >= 10.0:
            failures.append("%s took %.1fs, limit 10s each" % (label, elapsed))
    _report(2, failures, ", ".join(notes))


def test_criterion_3_scaled_koszul_closed_loop():
    start = time.perf_counter()
    failures = []
    # one slot per ambient pair: degree of the regular form, degree of the
    # scaling form; multiset dedup because permuting slots permutes rows
    pairs = [(d, a) for d in (1, 2, 3) for a in (0, 1, 2)]
    combos = list(combinations_with_replacement(pairs, 3))
    if len(combos) != 165:
        failures.append("expected 165 deduplicated cases, got %d" % len(combos))
    xyz = [parse(v, SIX) for v in ("x", "y", "z")]
    uvw = [parse(v, SIX) for v in ("u", "v", "w")]
    for combo in combos:
        h = [xyz[i] ** combo[i][0] for i in range(3)]
        g = [uvw[i] ** combo[i][1] for i in range(3)]
        M, _ideal, predicted = prop_bet(h, g)
        verdict = classify_n3(predicted)
        if verdict != ESSENTIAL:
            failures.append("%r predicted %r but classified %s"
                            % (combo, predicted, verdict.status))
            continue
        got = build_resolution(M).betti()
        if got != predicted.as_tuple():
            failures.append("%r resolved to %r, predicted %r"
                            % (combo, got, predicted))
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append("took %.0fs, limit 300s" % elapsed)
    _report(3, failures, "165 cases, %.1fs" % elapsed)


def test_criterion_4_even_uniform_rejection():
    start = time.perf_counter()
    failures = []
    verdict = classify(BettiSequence((3,) * 4, (5,) * 4, 8))
    if verdict.status != NOT_ESSENTIAL:
        failures.append("classified %s" % verdict.status)
    elif "strict" not in str(verdict.witness.get("violated", "")):
        failures.append("witness does not cite the strict even bound: %r"
                        % verdict.witness)
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append("took %.2fs, limit 1s" % elapsed)
    _report(4, failures, "%.3fs" % elapsed)


def test_criterion_5_quintic_height_and_betti():
    # the closing remark, checked as the CLI checks it: height and Betti
    # numbers under the default budget, a BudgetExceeded failing the test
    doc = json.loads(resources.files("presmat")
                     .joinpath("fixtures/closing-remark.json").read_text())
    ring = RingContext(tuple(doc["ring"]["vars"]))
    I = IdealBasis([parse(s, ring) for s in doc["ideal"]], ring=ring)
    failures = []
    start = time.perf_counter()
    h = height(I, budget=Budget())
    if h != doc["expect"]["height"]:
        failures.append("height came out as %d" % h)
    want = (tuple(doc["expect"]["betti"]["a"]),
            tuple(sorted(doc["expect"]["betti"]["b"], reverse=True)),
            doc["expect"]["betti"]["s"])
    got = minimal_free_resolution(I, max_length=3, budget=Budget()).betti()
    if got != want:
        failures.append("resolved to %r" % (got,))
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append("took %.0fs, limit 60s" % elapsed)
    _report(5, failures, "%.2fs" % elapsed)


def _uniform_construction_cases():
    cases = []
    for n in (3, 5, 7):
        for gap in (1, 2):
            for a in range((n - 1) * gap // 2, (n - 1) * gap):
                cases.append((n, a, a + gap))
    for n in (4, 6):
        for gap in (1, 2):
            for a in range(n * gap // 2, (n - 1) * gap):
                cases.append((n, a, a + gap))
    return cases


def test_criterion_6_uniform_construction_sweep():
    start = time.perf_counter()
    failures = []
    cases = _uniform_construction_cases()
    if len(cases) != 27:
        failures.append("case sweep has %d instances, expected 27" % len(cases))
    for n, a, b in cases:
        try:
            M = homogeneous_matrix(n, a, b)
        except ValueError as exc:
            failures.append("(%d,%d,%d) not built: %s" % (n, a, b, exc))
            continue
        got = build_resolution(M).betti()
        want = ((a,) * n, (b,) * n, n * (b - a))
        if got != want:
            failures.append("(%d,%d,%d) resolved to %r" % (n, a, b, got))
    elapsed = time.perf_counter() - start
    if elapsed >= 600.0:
        failures.append("took %.0fs, limit 600s" % elapsed)
    _report(6, failures, "%d instances, %.1fs" % (len(cases), elapsed))


PROPERTY_SUITES = (
    ("test_presentation.py", (
        "test_property_gamma_subset_independence",
        "test_property_gamma_annihilates",
        "test_property_cofactor_factorization",
        "test_property_pfaffian_agreement",
        "test_property_zero_component_matches_column_rank",
        "test_property_resolutions_verify",
    )),
    ("test_construct.py", (
        "test_property_star_determinant_and_gamma_product",
        "test_property_lift_gamma_identity",
    )),
)


def _load_suite(filename: str):
    path = Path(__file__).with_name(filename)
    spec = importlib.util.spec_from_file_location(
        "accept_rerun_" + filename[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_criterion_7_property_suites():
    start = time.perf_counter()
    failures = []
    ran = 0
    for filename, names in PROPERTY_SUITES:
        module = _load_suite(filename)
        for name in names:
            try:
                getattr(module, name)()
            except Exception as exc:  # noqa: BLE001 - collect, report, assert
                failures.append("%s: %s" % (name, exc))
            ran += 1
    if ran != 8:
        failures.append("only %d suites ran" % ran)
    elapsed = time.perf_counter() - start
    _report(7, failures, "%d suites rerun, %.1fs" % (ran, elapsed))


def test_criterion_8_hilbert_values():
    start = time.perf_counter()
    failures = []
    # the closed form for the uniform value two below the socle degree holds
    # exactly on na <= (n-1)b; outside that regime the truncated binomial
    # convention provably breaks it, so the boundary is asserted sharp
    inside = 0
    for n in range(3, 9):
        for a in range(1, 9):
            for b in range(a + 1, 9):
                seq = BettiSequence((a,) * n, (b,) * n, n * (b - a))
                got = hilbert_from_betti(seq, n * (b - a) - 2, 3)
                closed = n * (b - a) * (a * (n + 1) - b * (n - 1)) // 2
                in_regime = n * a <= (n - 1) * b
                if (got == closed) != in_regime:
                    failures.append("(%d,%d,%d): value %d, closed form %d"
                                    % (n, a, b, got, closed))
                inside += in_regime
    if inside != 151:
        failures.append("regime holds at %d of 168 points, expected 151"
                        % inside)
    for label, gens, (a, b) in (("cubics", CYCLIC_CUBICS, (3, 4)),
                                ("quartics", CYCLIC_QUARTICS, (4, 5))):
        I = IdealBasis([parse(s, CYC) for s in gens], ring=CYC)
        seq = BettiSequence((a,) * 6, (b,) * 6, 6)
        for d in range(0, 7):
            lib = hilbert_from_betti(seq, d, 6)
            grb = hilbert_function(I, d)
            if lib != grb:
                failures.append("%s at degree %d: twist data gives %d, "
                                "basis count gives %d" % (label, d, lib, grb))
    elapsed = time.perf_counter() - start
    _report(8, failures,
            "168 grid points (151 in regime) + degrees 0..6, %.1fs" % elapsed)

"""Betti sequence calculus tests: classification, reduction, lifting, Hilbert."""

import random
from math import comb

import pytest

from presmat import (
    ESSENTIAL,
    MINIMAL,
    NOT_ESSENTIAL,
    NOT_MINIMAL,
    UNKNOWN,
    BettiSequence,
    IdealBasis,
    PolyMatrix,
    RingContext,
    build_resolution,
    classify,
    classify_gaeta_reduce,
    classify_homogeneous,
    classify_n3,
    hilbert_from_betti,
    hilbert_function,
    is_gaeta,
    is_minimal_sequence,
    lift,
    parse,
    recover_from_degree_matrix,
)
from presmat.betti import _run_reduction


def seq(a, b, s):
    return BettiSequence(a, b, s)


# -- sequence plumbing -----------------------------------------------------------


def test_sequence_sorts_and_validates():
    t = seq([5, 3, 4], [6, 8, 7], 9)
    assert t.a == (3, 4, 5)
    assert t.b == (8, 7, 6)
    assert t.c() == (1, 2, 3)
    assert t.is_consistent()
    with pytest.raises(ValueError):
        seq([1, 1], [2, 2], 2)
    with pytest.raises(ValueError):
        seq([1, 1, 1], [2, 2], 3)


def test_sequence_equality_and_hash():
    assert seq([1, 2, 3], [5, 4, 3], 6) == seq([3, 2, 1], [3, 4, 5], 6)
    assert len({seq([1, 1, 1], [2, 2, 2], 3),
                seq([1, 1, 1], [2, 2, 2], 3)}) == 1


# -- three generators ------------------------------------------------------------


def test_n3_koszul_like_sequence_is_essential():
    v = classify_n3(seq([1, 1, 1], [2, 2, 2], 3))
    assert v.status == ESSENTIAL
    assert v.witness["c"] == [1, 1, 1]
    assert v.witness["t"] == [0, 0, 0]


def test_n3_mixed_degrees_essential_with_witness():
    v = classify_n3(seq([3, 4, 5], [8, 7, 6], 9))
    assert v.status == ESSENTIAL
    assert v.witness["c"] == [1, 2, 3]
    assert v.witness["t"] == [1, 1, 1]


def test_n3_unit_entry_in_last_map_rejected():
    # s = b_1 means a degree-zero component: positivity screen
    v = classify_n3(seq([2, 2, 2], [3, 3, 3], 3))
    assert v.status == NOT_ESSENTIAL
    assert v.witness["rule"] == "positivity"


def test_n3_inconsistent_shift_rejected():
    # s = 4 passes the degree screens (3 < 4 <= 6) but is not sum(b) - sum(a)
    v = classify_n3(seq([2, 2, 2], [3, 3, 3], 4))
    assert v.status == NOT_ESSENTIAL
    assert v.witness["violated"] == "s = sum(b) - sum(a)"


def test_n3_degree_bound_rejected():
    v = classify_n3(seq([1, 2, 6], [7, 6, 5], 9))
    assert v.status == NOT_ESSENTIAL
    assert v.witness["violated"] == "a_j + b_j <= sum(a)"


def test_n3_requires_three_generators():
    with pytest.raises(ValueError):
        classify_n3(seq([1, 1, 1, 1], [2, 2, 2, 2], 4))


def test_n3_witness_parameters_rebuild_the_sequence():
    # c and t regenerate the Betti numbers through the diagonal-product
    # construction formulas
    rng = random.Random(3)
    hits = 0
    while hits < 50:
        a = sorted(rng.randint(1, 7) for _ in range(3))
        b = sorted((rng.randint(2, 9) for _ in range(3)), reverse=True)
        t = seq(a, b, sum(b) - sum(a))
        v = classify_n3(t)
        if v.status != ESSENTIAL:
            continue
        hits += 1
        c, tt = v.witness["c"], v.witness["t"]
        assert all(x >= 1 for x in c)
        assert all(x >= 0 for x in tt)
        T, C = sum(tt), sum(c)
        rebuilt_a = sorted(T + c[j] - tt[j] for j in range(3))
        rebuilt_b = sorted((T + C - c[j] for j in range(3)), reverse=True)
        assert (tuple(rebuilt_a), tuple(rebuilt_b), T + C) == (t.a, t.b, t.s)


# -- homogeneous -----------------------------------------------------------------


def test_homogeneous_odd_cases():
    assert classify_homogeneous(5, 3, 4).status == ESSENTIAL
    assert classify_homogeneous(3, 1, 2).status == ESSENTIAL
    # upper bound violated: (n-1)b > (n+1)a
    assert classify_homogeneous(3, 1, 3).status == NOT_ESSENTIAL
    # lower bound violated: na >= (n-1)b
    assert classify_homogeneous(3, 3, 4).status == NOT_ESSENTIAL


def test_homogeneous_even_strictness():
    v = classify_homogeneous(4, 3, 5)
    assert v.status == NOT_ESSENTIAL
    assert "strict" in v.witness["violated"]


def test_homogeneous_even_sufficiency_and_gap():
    # inside the constructive range
    assert classify_homogeneous(4, 2, 3).status == ESSENTIAL
    assert classify_homogeneous(6, 3, 4).status == ESSENTIAL
    # strict necessity holds, sufficiency fails: stays open
    v = classify_homogeneous(4, 5, 8)
    assert v.status == UNKNOWN
    assert "known_exception" in v.witness


def test_homogeneous_rejects_bad_degrees():
    with pytest.raises(ValueError):
        classify_homogeneous(4, 3, 3)
    with pytest.raises(ValueError):
        classify_homogeneous(2, 1, 2)


# -- reduction -------------------------------------------------------------------


def test_reduce_single_step():
    residue, d, v = classify_gaeta_reduce(seq([2, 2, 2, 3], [4, 3, 3, 3], 4))
    assert d == 1
    assert residue == seq([1, 1, 1], [2, 2, 2], 3)
    assert v.status == ESSENTIAL


def test_reduce_requires_four_generators():
    with pytest.raises(ValueError):
        classify_gaeta_reduce(seq([1, 1, 1], [2, 2, 2], 3))


def test_reduce_strategies_agree_on_corpus():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.choice([4, 5, 6])
        a = sorted(rng.randint(1, 6) for _ in range(n))
        b = sorted((rng.randint(2, 9) for _ in range(n)), reverse=True)
        t = seq(a, b, sum(b) - sum(a))
        _r1, _d1, v1 = _run_reduction(t, pick_largest=True)
        _r2, _d2, v2 = _run_reduction(t, pick_largest=False)
        assert v1.status == v2.status


def test_gaeta_predicate():
    assert is_gaeta(seq([1, 1, 1, 1], [2, 2, 2, 2], 4))
    # a_4 = 3 >= b_2 = 3 breaks the chain of inequalities
    assert not is_gaeta(seq([2, 2, 2, 3], [4, 3, 3, 3], 4))
    assert not is_gaeta(seq([1, 1, 1, 1], [2, 2, 2, 2], 9))


def test_classify_dispatches_homogeneous():
    v = classify(seq([3, 3, 3, 3], [5, 5, 5, 5], 8))
    assert v.status == NOT_ESSENTIAL
    assert v.witness["rule"] == "homogeneous"


def test_classify_dispatches_reduction():
    assert classify(seq([2, 2, 2, 3], [4, 3, 3, 3], 4)).status == ESSENTIAL


def test_classify_names_an_inconsistent_shift():
    v = classify(seq([2, 2, 2, 2], [3, 3, 3, 3], 5))
    assert v.status == NOT_ESSENTIAL
    assert v.witness == {"rule": "consistency", "violated": "s = sum(b) - sum(a)",
                         "s": 5, "expected": 4}


def test_classify_decides_a_homogeneous_residue():
    # one reduction leaves (2,2,2,2; 3,3,3,3; 4), which the homogeneous
    # rule decides
    t = seq([3, 3, 3, 3, 4], [5, 4, 4, 4, 4], 5)
    residue, total, verdict = classify_gaeta_reduce(t)
    assert (residue, total) == (seq([2, 2, 2, 2], [3, 3, 3, 3], 4), 1)
    v = classify(t)
    assert v.status == ESSENTIAL == verdict.status
    assert v.witness == {"rule": "homogeneous", "n": 4, "a": 2, "b": 3, "s": 4,
                         "s_minus_b": 1}


def test_classify_gaeta_residue_without_rule_stays_open():
    # consistent, positive, no reduction spot, inhomogeneous, n > 3
    t = seq([1, 2, 2, 2], [3, 3, 3, 3], 5)
    assert is_gaeta(t)
    v = classify(t)
    assert v.status == UNKNOWN
    assert v.witness["rule"] == "gaeta-residue"


# -- verdict coherence -----------------------------------------------------------


def test_no_contradictory_verdicts_small_grid():
    # the dispatcher and the direct n=3 rule must agree wherever both apply;
    # homogeneous inputs must agree between classify and classify_homogeneous
    for a in range(1, 7):
        for b in range(a + 1, 8):
            for n in (3, 4, 5):
                t = seq([a] * n, [b] * n, n * (b - a))
                via_classify = classify(t)
                direct = (classify_n3(t) if n == 3
                          else classify_homogeneous(n, a, b))
                if n == 3 and direct.status != via_classify.status:
                    # both routes decide; they may disagree only by one
                    # deciding and the other not, never in opposite calls
                    decided = {via_classify.status, direct.status}
                    assert UNKNOWN in decided
                else:
                    assert via_classify.status == direct.status


def test_n3_agrees_with_homogeneous_rule():
    # for n = 3 the dedicated inequality test and the odd-n homogeneous
    # window define the same set
    for a in range(1, 9):
        for b in range(a + 1, 10):
            t = seq([a] * 3, [b] * 3, 3 * (b - a))
            assert classify_n3(t).status == classify_homogeneous(3, a, b).status


# -- hilbert ---------------------------------------------------------------------


def test_hilbert_zero_ideal_shape():
    assert hilbert_from_betti(None, 4, 3) == comb(6, 2)
    assert hilbert_from_betti(None, 0, 6) == 1


def test_hilbert_examples():
    assert hilbert_from_betti(seq([3] * 4, [5] * 4, 8), 6, 3) == 0
    assert hilbert_from_betti(seq([5] * 4, [8] * 4, 12), 10, 3) == 6


def test_hilbert_closed_form_inside_regime():
    # the closed form matches the alternating sum exactly when the twist s
    # clears the relation degrees (na <= (n-1)b); outside, the truncation
    # convention makes the sum smaller, and that boundary is sharp
    for n in range(3, 9):
        for a in range(1, 9):
            for b in range(a + 1, 9):
                s = n * (b - a)
                got = hilbert_from_betti(seq([a] * n, [b] * n, s), s - 2, 3)
                want = n * (b - a) * (a * (n + 1) - b * (n - 1)) // 2
                assert (got == want) == (n * a <= (n - 1) * b), (n, a, b)


def test_hilbert_matches_groebner_for_monomial_presentation():
    ring = RingContext(("x", "y", "z", "u", "v", "w"))
    z = ring.zero()
    h = [parse(t, ring) for t in ("x", "y", "z")]
    g = [parse(t, ring) for t in ("u", "v", "w")]
    M = PolyMatrix.diagonal(ring, g) @ PolyMatrix(ring, [
        [z, h[2], -h[1]], [-h[2], z, h[0]], [h[1], -h[0], z]])
    res = build_resolution(M)
    a, b, s = res.betti()
    t = seq(a, b, s)
    I = IdealBasis([parse(x, ring) for x in ("x*v*w", "y*u*w", "z*u*v")])
    for d in range(s + 1):
        assert hilbert_from_betti(t, d, 6) == hilbert_function(I, d)


# -- lift ------------------------------------------------------------------------


def test_lift_examples():
    assert lift(seq([3, 4, 5], [8, 7, 6], 9), [1, 0, 0]) == seq(
        [3, 5, 6], [9, 8, 7], 10)
    assert lift(seq([1, 1, 1], [2, 2, 2], 3), [1, 1, 1]) == seq(
        [3, 3, 3], [5, 5, 5], 6)
    t = seq([3, 4, 5], [8, 7, 6], 9)
    assert lift(t, [0, 0, 0]) == t


def test_lift_validates_input():
    with pytest.raises(ValueError):
        lift(seq([1, 1, 1], [2, 2, 2], 3), [1, 1])
    with pytest.raises(ValueError):
        lift(seq([1, 1, 1], [2, 2, 2], 3), [1, -1, 1])


def test_lift_preserves_consistency_and_essentiality_window():
    rng = random.Random(8)
    for _ in range(200):
        a = sorted(rng.randint(1, 5) for _ in range(3))
        b = sorted((rng.randint(2, 8) for _ in range(3)), reverse=True)
        t = seq(a, b, sum(b) - sum(a))
        u = [rng.randint(0, 3) for _ in range(3)]
        lifted = lift(t, u)
        assert lifted.is_consistent() == t.is_consistent()
        if classify_n3(t).status == ESSENTIAL:
            assert classify_n3(lifted).status == ESSENTIAL


# -- degree matrix recovery --------------------------------------------------------


def test_recover_from_all_ones_matrix():
    D = [[1] * 6 for _ in range(6)]
    assert recover_from_degree_matrix(D, 0, 2) == seq([3] * 6, [4] * 6, 6)
    assert recover_from_degree_matrix(D, 3, 1) == seq([4] * 6, [5] * 6, 6)


def test_recover_round_trip_from_entry_degrees():
    # degree matrix of a known sequence: d_ij = b_j - a_i; any row plus its
    # own c_r reproduces (a; b; s)
    t = seq([3, 4, 5], [8, 7, 6], 9)
    D = [[bj - ai for bj in t.b] for ai in t.a]
    for r in range(3):
        c_r = t.s - t.b[r]
        got = recover_from_degree_matrix(D, r, c_r)
        assert got == t


def test_recover_validates_shape():
    with pytest.raises(ValueError):
        recover_from_degree_matrix([[1, 1], [1, 1, 1]], 0, 1)
    with pytest.raises(ValueError):
        recover_from_degree_matrix([[1]] , 1, 1)


# -- minimality -------------------------------------------------------------------


def test_minimal_koszul_sequence():
    v = is_minimal_sequence(seq([1, 1, 1], [2, 2, 2], 3))
    assert v.status == MINIMAL


def test_not_minimal_with_essential_candidate():
    v = is_minimal_sequence(seq([3, 3, 3], [5, 5, 5], 6))
    assert v.status == NOT_MINIMAL
    assert v.witness["essential_candidate"] == [[2, 2, 3], [4, 4, 4], 5]


def test_minimal_verdicts_consistent_with_classification():
    # a NotMinimal verdict always names a candidate that classifies Essential
    rng = random.Random(9)
    for _ in range(100):
        a = sorted(rng.randint(1, 5) for _ in range(3))
        b = sorted((rng.randint(2, 7) for _ in range(3)), reverse=True)
        t = seq(a, b, sum(b) - sum(a))
        v = is_minimal_sequence(t)
        if v.status == NOT_MINIMAL:
            ca, cb, cs = v.witness["essential_candidate"]
            assert classify(seq(ca, cb, cs)).status == ESSENTIAL

"""Constructive realizations: matrices and ideals with prescribed Betti data."""

import random

import pytest

from conftest import cofactor_matrix
from presmat import (
    BettiSequence,
    Budget,
    BudgetExceeded,
    IdealBasis,
    PolyMatrix,
    RingContext,
    build_resolution,
    check_presentation,
    decompose,
    gamma,
    ideal_equal,
    lift,
    parse,
    zeta,
)
from presmat.betti import ESSENTIAL, classify_homogeneous
from presmat.construct import (
    BidiagonalMatrix,
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
from presmat.matrices import det
from presmat.presentation import FAIL_UNIT
from presmat.ring import embed
from test_acceptance import _uniform_construction_cases

XYZ = RingContext(("x", "y", "z"))
SIX = RingContext(("x", "y", "z", "u", "v", "w"))


def koszul(ring, h1, h2, h3):
    z = ring.zero()
    return PolyMatrix(ring, [
        [z, h3, -h2],
        [-h3, z, h1],
        [h2, -h1, z],
    ])


def texts(vec):
    return tuple(str(p) for p in vec)


# -- three-generator products ------------------------------------------------------


def test_prop_bet_unit_cofactors_collapse_to_koszul():
    h = [parse(s, XYZ) for s in ("x", "y", "z")]
    one = XYZ.one()
    M, I, predicted = prop_bet(h, [one, one, one])
    assert predicted == BettiSequence([1, 1, 1], [2, 2, 2], 3)
    assert sorted(texts(I.generators)) == ["x", "y", "z"]
    K = koszul(XYZ, *h)
    assert all((M.entry(i, j) - K.entry(i, j)).is_zero()
               for i in range(3) for j in range(3))


def test_prop_bet_disjoint_linear_factors():
    h = [parse(s, SIX) for s in ("x", "y", "z")]
    g = [parse(s, SIX) for s in ("u", "v", "w")]
    M, I, predicted = prop_bet(h, g)
    assert predicted == BettiSequence([3, 3, 3], [5, 5, 5], 6)
    assert sorted(texts(I.generators)) == ["x*v*w", "y*u*w", "z*u*v"]
    res = build_resolution(M)
    assert res.betti() == (predicted.a, predicted.b, predicted.s)


def test_prop_bet_mixed_degrees():
    h = [parse(s, SIX) for s in ("x", "y^2", "z^3")]
    g = [parse(s, SIX) for s in ("u", "v", "w")]
    M, I, predicted = prop_bet(h, g)
    assert predicted == BettiSequence([3, 4, 5], [8, 7, 6], 9)
    assert build_resolution(M).betti() == ((3, 4, 5), (8, 7, 6), 9)


def test_prop_bet_rejects_dependent_triple():
    h = [parse(s, XYZ) for s in ("x", "y", "x*y")]
    with pytest.raises(ValueError):
        prop_bet(h, [XYZ.one()] * 3)


def test_prop_bet_shared_factor_is_not_a_presentation():
    # nothing in the construction forbids a common factor in the cofactor
    # triple, but the resulting matrix fails the unit test downstream
    h = [parse(s, SIX) for s in ("x", "y", "z")]
    u = parse("u", SIX)
    M, I, predicted = prop_bet(h, [u, u, u])
    report = check_presentation(M)
    assert not report.is_presentation
    assert report.failure_reason == FAIL_UNIT


# -- minors of bordered matrices ----------------------------------------------------


def test_hilbert_burch_three_by_three_matches_product_form():
    h = [parse(s, SIX) for s in ("x", "y", "z")]
    g = [parse(s, SIX) for s in ("u", "v", "w")]
    _, I_product, _ = prop_bet(h, g)
    B = PolyMatrix.from_text(SIX, [
        ["u", "0", "0"],
        ["0", "v", "0"],
        ["0", "0", "w"],
        ["x", "y", "z"],
    ])
    I, M = hilbert_burch_ideal(HilbertBurchData(B))
    assert ideal_equal(I, I_product)
    assert zeta(M).zeta == 0


R10 = RingContext(("x", "y", "z", "u", "v", "w", "p", "q", "r", "s"))


def extra_column_matrix():
    # each bordering column needs entries in distinct variables: a repeated
    # variable would divide every minor through the last row and drop the
    # height of the minor ideal below two
    return PolyMatrix.from_text(R10, [
        ["u", "0", "0", "p"],
        ["0", "v", "0", "q"],
        ["0", "0", "w", "r"],
        ["0", "0", "0", "s"],
        ["x", "y", "z", "0"],
    ])


def test_hilbert_burch_extra_column_gap_one():
    I, M = hilbert_burch_ideal(HilbertBurchData(extra_column_matrix()))
    report = zeta(M)
    assert report.zeta == 1
    expected = IdealBasis([parse(s, R10) for s in (
        "x*v*w*s", "y*u*w*s", "z*u*v*s",
        "x*v*w*p + y*u*w*q + z*u*v*r")])
    assert ideal_equal(I, expected)


def test_hilbert_burch_two_extra_columns_gap_two():
    B = PolyMatrix.from_text(R10, [
        ["u", "0", "0", "p", "0"],
        ["0", "v", "0", "0", "q"],
        ["0", "0", "w", "0", "0"],
        ["0", "0", "0", "r", "0"],
        ["0", "0", "0", "0", "s"],
        ["x", "y", "z", "0", "0"],
    ])
    I, M = hilbert_burch_ideal(HilbertBurchData(B))
    assert zeta(M).zeta == 2
    assert len(I.generators) == 5


def test_hilbert_burch_round_trip_decomposition():
    B = extra_column_matrix()
    split = decompose(B)
    assert split.regular
    assert split.intersection_verified


def test_hilbert_burch_input_validation():
    with pytest.raises(ValueError):
        HilbertBurchData(PolyMatrix.from_text(XYZ, [
            ["x", "0", "0"], ["0", "y", "0"], ["0", "0", "x"],
            ["x", "y", "x*y"]]))  # dependent triple
    with pytest.raises(ValueError):
        HilbertBurchData(PolyMatrix.from_text(SIX, [
            ["1", "0", "0"], ["0", "v", "0"], ["0", "0", "w"],
            ["x", "y", "z"]]))  # unit entry
    with pytest.raises(ValueError):
        HilbertBurchData(PolyMatrix.from_text(SIX, [
            ["u", "0", "0"], ["0", "v", "0"], ["0", "0", "w"],
            ["x", "y", "0"]]))  # short last row
    with pytest.raises(ValueError):
        HilbertBurchData(PolyMatrix.from_text(SIX, [
            ["u", "0", "0"], ["u", "0", "0"], ["u", "0", "0"],
            ["x", "y", "z"]]))  # rank-deficient


# -- row lifts ----------------------------------------------------------------------


def test_lift_koszul_by_one_each():
    K = koszul(XYZ, *(parse(s, XYZ) for s in ("x", "y", "z")))
    L = lift_matrix(K, [1, 1, 1], ["u1", "u2", "u3"])
    assert build_resolution(L).betti() == ((3, 3, 3), (5, 5, 5), 6)
    assert sorted(texts(gamma(L))) == ["x*u2*u3", "y*u1*u3", "z*u1*u2"]
    # agrees with the pure-arithmetic lift on the sequence side
    lifted = lift(BettiSequence([1, 1, 1], [2, 2, 2], 3), [1, 1, 1])
    assert lifted == BettiSequence([3, 3, 3], [5, 5, 5], 6)


def test_lift_zero_exponents_only_extends_ring():
    K = koszul(XYZ, *(parse(s, XYZ) for s in ("x", "y", "z")))
    L = lift_matrix(K, [0, 0, 0], ["u1", "u2", "u3"])
    assert L.ring.variables == ("x", "y", "z", "u1", "u2", "u3")
    assert all(texts(L.row(i)) == texts(K.row(i)) for i in range(3))


def test_lift_preserves_presentation_property():
    XYZT = RingContext(("x", "y", "z", "t"))
    M = PolyMatrix.from_text(XYZT, [
        ["y", "-x", "0", "0"],
        ["0", "z", "-y", "0"],
        ["0", "0", "t", "-z"],
        ["-t", "0", "0", "x"],
    ])
    L = lift_matrix(M, [1, 0, 0, 0], ["w1", "w2", "w3", "w4"])
    assert check_presentation(L).is_presentation


def test_lift_rejects_collisions_and_bad_input():
    K = koszul(XYZ, *(parse(s, XYZ) for s in ("x", "y", "z")))
    with pytest.raises(ValueError):
        lift_matrix(K, [1, 1, 1], ["x", "a", "b"])
    with pytest.raises(ValueError):
        lift_matrix(K, [1, -1, 1], ["u1", "u2", "u3"])
    not_pres = PolyMatrix.from_text(XYZ, [["x", "0", "0"],
                                          ["0", "y", "0"],
                                          ["0", "0", "z"]])
    with pytest.raises(ValueError):
        lift_matrix(not_pres, [1, 1, 1], ["u1", "u2", "u3"])


def test_twist_data_takes_integers_only():
    # int() would truncate 1.5 and 3.9, read True as 1 and parse "1"
    with pytest.raises(ValueError, match="^a: 1.5 is not an integer"):
        BettiSequence([1.5, True, "1"], [2, 2, 2], 3.9)
    with pytest.raises(ValueError, match="^s: 3.9 is not an integer"):
        BettiSequence([1, 1, 1], [2, 2, 2], 3.9)
    with pytest.raises(ValueError, match="^u: 0.7 is not an integer"):
        lift(BettiSequence([1, 1, 1], [2, 2, 2], 3), [0.7, True, "2"])
    with pytest.raises(ValueError, match="^u: True is not an integer"):
        lift(BettiSequence([1, 1, 1], [2, 2, 2], 3), [0, True, 2])
    K = koszul(XYZ, *(parse(s, XYZ) for s in ("x", "y", "z")))
    with pytest.raises(ValueError, match="^u: 0.9 is not an integer"):
        lift_matrix(K, [0.9, True, "1"], ["u1", "u2", "u3"])


# -- cyclic monomial families --------------------------------------------------------


def test_base_family_reproduces_cyclic_cubics():
    base = base_bidiagonal(6, 2, ["x", "y", "z", "t", "u", "v"])
    ring = base.ring
    generated = IdealBasis(list(gamma(base.matrix())), ring=ring)
    cubics = IdealBasis([parse(s, ring) for s in (
        "x*y*z", "y*z*t", "z*t*u", "t*u*v", "u*v*x", "v*x*y")])
    assert ideal_equal(generated, cubics)
    assert build_resolution(base.matrix()).betti() == ((3,) * 6, (4,) * 6, 6)


def test_base_family_reproduces_cyclic_quartics():
    base = base_bidiagonal(6, 1, ["x", "y", "z", "t", "u", "v"])
    ring = base.ring
    generated = IdealBasis(list(gamma(base.matrix())), ring=ring)
    quartics = IdealBasis([parse(s, ring) for s in (
        "x*y*z*t", "y*z*t*u", "z*t*u*v", "t*u*v*x", "u*v*x*y", "v*x*y*z")])
    assert ideal_equal(generated, quartics)
    assert build_resolution(base.matrix()).betti() == ((4,) * 6, (5,) * 6, 6)


def test_base_family_bounds():
    with pytest.raises(ValueError):
        base_bidiagonal(6, 3)  # annihilator row ideal would have height 2
    with pytest.raises(ValueError):
        base_bidiagonal(6, 0)
    assert det(base_bidiagonal(7, 3).matrix()).is_zero()


# -- star products ------------------------------------------------------------------


def test_star_product_five_by_five():
    m = base_bidiagonal(5, 1, ["x1", "x2", "x3", "x4", "x5"])
    n = base_bidiagonal(5, 2, ["y1", "y2", "y3", "y4", "y5"])
    product = star_product(m, n)
    assert det(product.matrix()).is_zero()
    assert build_resolution(product.matrix()).betti() == \
        ((5,) * 5, (7,) * 5, 10)


def test_star_cofactor_identity_size_five():
    # cofactors multiply entrywise; the raw minors pick up (-1)^(i+j)
    m = base_bidiagonal(5, 2, ["x1", "x2", "x3", "x4", "x5"])
    n = base_bidiagonal(5, 1, ["y1", "y2", "y3", "y4", "y5"])
    product = star_product(m, n)
    ring = product.ring
    cof_p = cofactor_matrix(product.matrix())
    cof_m = cofactor_matrix(m.matrix())
    cof_n = cofactor_matrix(n.matrix())
    for i in range(5):
        for j in range(5):
            lhs = cof_p.entry(i, j)
            rhs = embed(cof_m.entry(i, j), ring) * embed(cof_n.entry(i, j), ring)
            assert (lhs - rhs).is_zero()


def test_star_rejects_bad_pairs():
    m = base_bidiagonal(5, 1, ["x1", "x2", "x3", "x4", "x5"])
    with pytest.raises(ValueError):
        star_product(m, base_bidiagonal(5, 2, ["x1", "x2", "x3", "x4", "x5"]))
    with pytest.raises(ValueError):
        star_product(m, base_bidiagonal(6, 2, ["y%d" % i for i in range(1, 7)]))


# -- uniform-degree targets ----------------------------------------------------------


def test_homogeneous_plans():
    assert homogeneous_plan(5, 3, 4) == [("base", 1)]
    assert homogeneous_plan(5, 5, 7) == [("base", 2), ("star", 1)]
    assert homogeneous_plan(5, 7, 9) == [("base", 1), ("lift",)]
    assert homogeneous_plan(6, 8, 10) == [("base", 2), ("lift",)]
    assert homogeneous_plan(4, 4, 6) == [("base", 1), ("star", 1)]


def test_homogeneous_matrix_anchors():
    for (n, a, b) in [(5, 3, 4), (4, 2, 3), (5, 5, 7), (6, 8, 10)]:
        M = homogeneous_matrix(n, a, b)
        assert build_resolution(M).betti() == ((a,) * n, (b,) * n, n * (b - a))


def test_homogeneous_matrix_rejects_out_of_range():
    # odd-size uniform target outside the characterized window
    with pytest.raises(ValueError, match="NotEssential"):
        homogeneous_matrix(5, 3, 5)
    # even-size target in the open gap stays undecided, hence unbuildable here
    with pytest.raises(ValueError, match="Unknown"):
        homogeneous_matrix(4, 5, 8)
    with pytest.raises(ValueError):
        homogeneous_matrix(3, 2, 2)


_LEVEL_LETTERS = ("x", "y", "z", "u", "v", "w", "p", "q")


def chain_homogeneous_matrix(n, a, b, budget=None):
    """homogeneous_matrix built step by step along its plan, the oracle of
    the closed form: a base family, star products, then lifts, each step
    checking the matrices it takes and the one it returns."""
    steps = homogeneous_plan(n, a, b)
    def fresh(letter_index):
        letter = _LEVEL_LETTERS[letter_index % len(_LEVEL_LETTERS)]
        suffix = letter_index // len(_LEVEL_LETTERS)
        stem = letter if not suffix else "%s%d" % (letter, suffix)
        return ["%s%d" % (stem, i + 1) for i in range(n)]

    current = None
    for level, step in enumerate(steps):  # each step takes fresh variables
        if step[0] == "base":
            current = base_bidiagonal(n, step[1], fresh(level))
        elif step[0] == "star":
            extra = base_bidiagonal(n, step[1], fresh(level))
            current = star_product(extra, current, budget=budget)
        else:
            mat = current.matrix() if isinstance(current, BidiagonalMatrix) else current
            current = lift_matrix(mat, [1] * n, fresh(level), budget=budget)
    return current.matrix() if isinstance(current, BidiagonalMatrix) else current


def essential_box():
    """Every Essential (n, a, b) with 3 <= n <= 7, 1 <= b - a <= 4, a < 4n."""
    return [(n, a, a + gap) for n in range(3, 8) for gap in range(1, 5)
            for a in range(1, 4 * n)
            if classify_homogeneous(n, a, a + gap).status == ESSENTIAL]


def test_closed_form_matches_the_chain():
    cases = essential_box()
    assert len(cases) == 90
    assert len(homogeneous_plan(3, 9, 18)) == 9  # past the eight letters
    for case in cases + [(3, 9, 18)]:
        want, got = chain_homogeneous_matrix(*case), homogeneous_matrix(*case)
        assert got.ring.variables == want.ring.variables, case
        assert [texts(row) for row in got.entries] == \
            [texts(row) for row in want.entries], case
        assert got.entries == want.entries, case
    assert "x11" in homogeneous_matrix(3, 9, 18).ring.variables


def test_closed_form_resolves_as_the_chain_on_the_sweep():
    for n, a, b in _uniform_construction_cases():
        M = homogeneous_matrix(n, a, b)
        assert check_presentation(M).shifts == ((a,) * n, (b,) * n)
        got = build_resolution(M)
        want = build_resolution(chain_homogeneous_matrix(n, a, b))
        assert got.shifts == want.shifts, (n, a, b)
        assert [m.entries for m in got.maps] == [m.entries for m in want.maps]
        assert [[texts(row) for row in m.entries] for m in got.maps] == \
            [[texts(row) for row in m.entries] for m in want.maps]


def test_homogeneous_matrix_budget_reaches_its_check():
    with pytest.raises(BudgetExceeded):
        homogeneous_matrix(5, 4, 6, budget=Budget(max_monomials=0))


# -- block extensions ----------------------------------------------------------------


def test_block_extension_worked_example():
    K = koszul(XYZ, *(parse(s, XYZ) for s in ("x", "y", "z")))
    inner = BettiSequence([1, 1, 1], [2, 2, 2], 3)
    outer = BettiSequence([2, 2, 2, 3], [4, 3, 3, 3], 4)
    M = nogaeta_extend((K, inner), outer, 4)
    assert M.ring.variables == ("x", "y", "z", "y3", "z4")
    assert [texts(M.row(i)) for i in range(4)] == [
        ("0", "0", "z", "-y"),
        ("0", "-z", "0", "x"),
        ("y3^2", "y", "-x", "0"),
        ("z4", "0", "0", "0"),
    ]
    assert texts(gamma(M.transpose())) == ("0", "x", "y", "z")
    assert build_resolution(M).betti() == (outer.a, outer.b, outer.s)


def test_block_extension_rejects_bad_shapes():
    K = koszul(XYZ, *(parse(s, XYZ) for s in ("x", "y", "z")))
    inner = BettiSequence([1, 1, 1], [2, 2, 2], 3)
    # strict inequality between facing entries fails at the extension corner
    with pytest.raises(ValueError):
        nogaeta_extend((K, inner), BettiSequence([2, 2, 2, 4], [4, 4, 3, 3], 4), 4)
    # reduction of the outer shape does not match the supplied inner sequence
    with pytest.raises(ValueError):
        nogaeta_extend((K, inner), BettiSequence([3, 3, 3, 4], [5, 4, 4, 4], 5), 4)


# -- randomized properties ------------------------------------------------------------


def random_base(rng, n, prefix):
    w = (n - 1) // 2 if n % 2 else (n - 2) // 2
    return base_bidiagonal(n, rng.randint(1, w),
                           ["%s%d" % (prefix, i + 1) for i in range(n)])


def test_property_star_determinant_and_gamma_product():
    # Two hundred products: the determinant always vanishes and the row
    # annihilator of the transpose is the entrywise product of the factors'.
    rng = random.Random(21)
    cases = 0
    while cases < 200:
        n = rng.choice([3, 3, 4, 4, 5, 5, 6])
        left = random_base(rng, n, "x")
        right = random_base(rng, n, "y")
        if rng.random() < 0.25 and n <= 5:
            # chain a third factor to vary the entry degrees
            right = star_product(right, random_base(rng, n, "z"))
        product = star_product(left, right)
        P = product.matrix()
        assert det(P).is_zero()
        hs = gamma(left.matrix().transpose())
        ks = gamma(right.matrix().transpose())
        ring = P.ring
        got = gamma(P.transpose())
        for i in range(n):
            expected = embed(hs[i], ring) * embed(ks[i], ring)
            assert (got[i] - expected).is_zero()
        cases += 1


def test_property_lift_gamma_identity():
    # Two hundred lifts of scaled Koszul matrices: every generator picks up
    # exactly the complementary monomial factors.
    rng = random.Random(22)
    names = ("u", "v", "w")
    for case in range(200):
        h = [parse(s, SIX) for s in
             ("x^%d" % rng.randint(1, 2), "y^%d" % rng.randint(1, 2),
              "z^%d" % rng.randint(1, 2))]
        g = [parse("%s^%d" % (names[i], rng.randint(0, 2)), SIX)
             for i in range(3)]
        M, _, _ = prop_bet(h, g)
        u = [rng.randint(0, 2) for _ in range(3)]
        fresh = ["a1", "a2", "a3"]
        before = gamma(M)
        L = lift_matrix(M, u, fresh)
        ring = L.ring
        ys = [ring.variable(v) for v in fresh]
        after = gamma(L)
        for i in range(3):
            factor = ring.one()
            for j in range(3):
                if j != i:
                    factor = factor * ys[j] ** u[j]
            assert (after[i] - embed(before[i], ring) * factor).is_zero()


def test_property_homogeneous_closed_loop():
    # every constructible uniform target in a small window really resolves
    # to its prescribed shifts
    built = 0
    for n in (3, 4, 5, 6):
        for gap in (1, 2):
            for a in range(1, 2 * n):
                b = a + gap
                try:
                    plan = homogeneous_plan(n, a, b)
                except ValueError:
                    continue
                M = homogeneous_matrix(n, a, b)
                assert build_resolution(M).betti() == \
                    ((a,) * n, (b,) * n, n * gap), (n, a, b, plan)
                built += 1
    assert built >= 10


def test_property_product_construction_closed_loop():
    rng = random.Random(23)
    for case in range(12):
        d = [rng.randint(1, 2) for _ in range(3)]
        e = [rng.randint(0, 2) for _ in range(3)]
        h = [parse(v + "^%d" % d[i], SIX)
             for i, v in enumerate(("x", "y", "z"))]
        g = [parse(v + "^%d" % e[i], SIX) if e[i] else SIX.one()
             for i, v in enumerate(("u", "v", "w"))]
        M, I, predicted = prop_bet(h, g)
        assert build_resolution(M).betti() == \
            (predicted.a, predicted.b, predicted.s)


def test_property_hilbert_burch_family_round_trip():
    # monomial bordered family with randomized exponents: the generator gap
    # stays maximal and the intersection identity holds
    rng = random.Random(24)
    for case in range(10):
        ex = [rng.randint(1, 2) for _ in range(7)]
        B = PolyMatrix.from_text(R10, [
            ["u^%d" % ex[0], "0", "0", "p^%d" % ex[3]],
            ["0", "v^%d" % ex[1], "0", "q^%d" % ex[4]],
            ["0", "0", "w^%d" % ex[2], "r^%d" % ex[5]],
            ["0", "0", "0", "s^%d" % ex[6]],
            ["x", "y", "z", "0"],
        ])
        I, M = hilbert_burch_ideal(HilbertBurchData(B))
        assert zeta(M).zeta == 1
        split = decompose(B)
        assert split.regular and split.intersection_verified

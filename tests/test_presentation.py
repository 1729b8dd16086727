"""Presentation-matrix tests: annihilator vectors, checks, resolutions, zeta."""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import cofactor_matrix, oracle_det, random_form, random_poly
from exactness_oracle import verify_exactness
from presmat import (
    BettiSequence,
    Budget,
    BudgetExceeded,
    GradedResolution,
    IdealBasis,
    ModuleBasis,
    PolyMatrix,
    RingContext,
    build_resolution,
    check_presentation,
    decompose,
    gamma,
    gcd,
    height,
    homogeneous_matrix,
    ideal_equal,
    minimal_free_resolution,
    minimal_generators,
    module_member,
    nogaeta_extend,
    parse,
    pfaffians,
    rank,
    syzygies,
    zeta,
)
from presmat import groebner, matrices, presentation
from presmat.groebner import _EXP_LIMIT as EXP_LIMIT
from presmat.groebner import _Encoding as Encoding
from presmat.groebner import _syzygy_vectors, _terms_to_polys
from presmat.matrices import left_kernel
from presmat.presentation import FAIL_HEIGHT, FAIL_RANK, FAIL_UNIT
from presmat.ring import exact_div

XYZ = RingContext(("x", "y", "z"))
XYZT = RingContext(("x", "y", "z", "t"))
SIX = RingContext(("x", "y", "z", "u", "v", "w"))


def square4():
    # curve-section presentation matrix used throughout; its annihilator rows
    # generate a height-2 monomial ideal
    return PolyMatrix.from_text(XYZT, [
        ["y", "-x", "0", "0"],
        ["0", "z", "-y", "0"],
        ["0", "0", "t", "-z"],
        ["-t", "0", "0", "x"],
    ])


def koszul(ring, h1, h2, h3):
    z = ring.zero()
    return PolyMatrix(ring, [
        [z, h3, -h2],
        [-h3, z, h1],
        [h2, -h1, z],
    ])


def texts(vec):
    return [str(p) for p in vec]


# -- gamma ---------------------------------------------------------------------


def test_gamma_square4():
    g = gamma(square4())
    assert texts(g) == ["z*t", "x*t", "x*y", "y*z"]
    assert g.column_subset == (0, 1, 2)


def test_gamma_square4_transpose():
    h = gamma(square4().transpose())
    assert texts(h) == ["x", "y", "z", "t"]


def test_gamma_koszul_both_sides():
    M = koszul(XYZ, *(XYZ.variable(v) for v in "xyz"))
    assert texts(gamma(M)) == ["x", "y", "z"]
    assert texts(gamma(M.transpose())) == ["x", "y", "z"]


def test_gamma_rejects_wrong_rank():
    with pytest.raises(ValueError):
        gamma(PolyMatrix.identity(XYZ, 3))
    with pytest.raises(ValueError):
        gamma(PolyMatrix(XYZ, [[XYZ.zero()] * 3] * 3))


def test_gamma_rejects_one_row_matrices():
    # a zero row has rank rows - 1 = 0, but no annihilator of interest
    for row in (["0", "0"], ["0"]):
        with pytest.raises(ValueError, match="at least two rows"):
            gamma(PolyMatrix.from_text(XYZ, [row]))
    for row in (["x", "y"], ["1"]):
        with pytest.raises(ValueError, match="rank exactly rows - 1"):
            gamma(PolyMatrix.from_text(XYZ, [row]))


def test_gamma_strips_common_factor():
    # scaling the whole matrix leaves the normalized annihilator unchanged
    M = square4()
    f = parse("x + y", XYZT)
    scaled = M.map_entries(lambda p: f * p)
    assert texts(gamma(scaled)) == texts(gamma(M))


def test_gamma_annihilates_rectangular():
    # 3 x 2 column block of first syzygies of (y^2, x*y, x^2)
    M = PolyMatrix.from_text(XYZ, [["x", "0"], ["-y", "x"], ["0", "-y"]])
    g = gamma(M)
    assert texts(g) == ["y^2", "x*y", "x^2"]
    for j in range(M.cols):
        total = XYZ.zero()
        for i in range(M.rows):
            total = total + g[i] * M.entry(i, j)
        assert total.is_zero()


# -- check_presentation ----------------------------------------------------------


def test_check_square4():
    rep = check_presentation(square4())
    assert rep.is_presentation
    assert rep.failure_reason is None
    assert rep.is_minimal
    assert rep.cofactor_unit.is_constant()
    assert rep.height_J == 4
    assert texts(rep.gamma) == ["z*t", "x*t", "x*y", "y*z"]
    assert texts(rep.gamma_transpose) == ["x", "y", "z", "t"]


def test_check_square4_transpose_fails_on_height():
    rep = check_presentation(square4().transpose())
    assert not rep.is_presentation
    assert rep.failure_reason == FAIL_HEIGHT
    assert rep.height_J == 2


def test_check_non_graded_with_sextic_annihilator():
    # the gcds that normalize gamma(M^T) run on sextics in x, y, z with 11
    # and 18 terms, whose gcd is z
    M = PolyMatrix.from_text(XYZ, [
        ["-3/2*x*y", "0", "0", "y*z - 3/2*z^2 + 1"],
        ["2*z^2", "3/2*x*y", "y", "3*x*y + 3"],
        ["-3*x^3*y - 9/4*x*y + 3*y*z - 2*z^2 - 3*z", "-9*x*z^2 - 3/2*x*y - 9*z^2",
         "-3*y*z - 9/2*z^2 - y + 9/2*z",
         "2*x^2*y*z - 3*x^2*z^2 + 3*y*z^2 + 2*x^2 - 3*x*y + 3/2*y*z - 9/4*z^2"
         " - 9*z - 3/2"],
        ["-y + 1", "3*x*z + 3*z", "y + 3/2*z - 3/2", "-y*z + 3"],
    ])
    rep = check_presentation(M)
    assert rep.failure_reason == FAIL_HEIGHT
    assert rep.height_J == 2
    assert str(rep.cofactor_unit) == "-3"
    assert texts(rep.gamma) == ["x^2 + 3/4", "-1/2", "-1/2", "-3/2*z"]


def test_check_koszul():
    M = koszul(XYZ, *(XYZ.variable(v) for v in "xyz"))
    rep = check_presentation(M)
    assert rep.is_presentation and rep.is_minimal
    assert rep.height_J == 3
    assert str(rep.cofactor_unit) == "1"


def test_check_scaled_koszul_columns():
    # diagonal scaling by forms in disjoint variables keeps the factorization
    # with unit 1 and multiplies the generators crosswise
    h = [parse(s, SIX) for s in ("x", "y", "z")]
    g = [parse(s, SIX) for s in ("u", "v", "w")]
    M = PolyMatrix.diagonal(SIX, g) @ koszul(SIX, *h)
    rep = check_presentation(M)
    assert rep.is_presentation and rep.is_minimal
    assert texts(rep.gamma) == ["x*v*w", "y*u*w", "z*u*v"]
    assert texts(rep.gamma_transpose) == ["x", "y", "z"]
    assert str(rep.cofactor_unit) == "1"
    assert rep.height_J == 3


def test_check_full_rank_fails():
    rep = check_presentation(PolyMatrix.identity(XYZ, 3))
    assert not rep.is_presentation
    assert rep.failure_reason == FAIL_RANK


def test_check_shared_diagonal_factor_fails_on_unit():
    # all three column scalings equal: the cofactor factorization exists but
    # its unit is x^4, so the matrix presents nothing
    x2 = parse("x^2", XYZ)
    M = PolyMatrix.diagonal(XYZ, [x2, x2, x2]) @ koszul(
        XYZ, *(XYZ.variable(v) for v in "xyz"))
    rep, _C = assert_cofactors_factor(M)
    assert not rep.is_presentation
    assert rep.failure_reason == FAIL_UNIT
    assert str(rep.cofactor_unit) == "x^4"


def test_check_extended_column_passes_but_not_minimal():
    # appending the sum of the two syzygy columns keeps a valid presentation
    # of (y^2, x*y, x^2) but the transposed annihilator picks up units
    M = PolyMatrix.from_text(XYZ, [
        ["x", "0", "x"],
        ["-y", "x", "x - y"],
        ["0", "-y", "-y"],
    ])
    rep = check_presentation(M)
    assert rep.is_presentation
    assert not rep.is_minimal
    assert rep.height_J == float("inf")
    assert texts(rep.gamma) == ["y^2", "x*y", "x^2"]
    assert sorted(texts(rep.gamma_transpose)) == ["-1", "1", "1"]


def test_check_reports_row_ideal_that_is_the_unit_ideal():
    # the entries of h generate the unit ideal although none of them is a
    # unit; the height test counts that as infinite height, never raises
    M = PolyMatrix.from_text(XYZ, [
        ["0", "-3", "1/2*z - 1"],
        ["3*y", "0", "-2*y - 3"],
        ["-9*y*z", "-9/2", "6*y*z + 39/4*z - 3/2"],
    ])
    rep = check_presentation(M)
    assert not any(p.is_unit() for p in rep.gamma_transpose)
    assert rep.height_J == float("inf")
    assert rep.is_presentation
    assert rep.failure_reason is None


def test_check_rejects_nonsquare_and_tiny():
    with pytest.raises(ValueError):
        check_presentation(PolyMatrix.from_text(XYZ, [["x", "y"]]))
    with pytest.raises(ValueError):
        check_presentation(PolyMatrix.from_text(XYZ, [["x"]]))


def column_module(M: PolyMatrix) -> ModuleBasis:
    cols = [tuple(M.entry(i, j) for i in range(M.rows)) for j in range(M.cols)]
    return ModuleBasis(M.rows, cols, ring=M.ring)


def check_presentation_rect(M: PolyMatrix, budget: Budget | None = None) -> bool:
    """Every syzygy on gamma(M) must lie in the column module of M."""
    g = gamma(M, budget=budget)  # raises unless rank is rows - 1
    S = syzygies(IdealBasis(list(g.components), ring=M.ring), budget=budget)
    columns = column_module(M)
    return all(module_member(v, columns, budget=budget) for v in S.generators)


def test_check_rect_syzygy_block():
    M = PolyMatrix.from_text(XYZ, [["x", "0"], ["-y", "x"], ["0", "-y"]])
    assert check_presentation_rect(M)


def test_check_rect_fails_when_columns_miss_syzygies():
    # second syzygy column scaled by x: the unscaled syzygy is no longer in
    # the column module, so the columns do not present the annihilator
    M = PolyMatrix.from_text(XYZ, [["x", "0"], ["-y", "x^2"], ["0", "-x*y"]])
    assert not check_presentation_rect(M)
    with pytest.raises(ValueError):
        check_presentation_rect(PolyMatrix.from_text(XYZ, [["x"], ["-y"], ["0"]]))


# -- resolutions -----------------------------------------------------------------


def test_build_resolution_square4():
    res = build_resolution(square4())
    assert res.shifts == ((2, 2, 2, 2), (3, 3, 3, 3), (4,))
    assert res.minimal
    assert res.validate()
    rep = verify_exactness(res)
    assert rep.exact


def test_build_resolution_koszul():
    M = koszul(XYZ, *(XYZ.variable(v) for v in "xyz"))
    res = build_resolution(M)
    assert res.shifts == ((1, 1, 1), (2, 2, 2), (3,))
    assert verify_exactness(res).exact


def mixed_degree_koszul():
    # h = (x, y^2, z^3) regular, column scalings (u, v, w)
    h = [parse(s, SIX) for s in ("x", "y^2", "z^3")]
    g = [parse(s, SIX) for s in ("u", "v", "w")]
    return PolyMatrix.diagonal(SIX, g) @ koszul(SIX, *h)


def test_build_resolution_mixed_degrees():
    # the shift data lands on (3,4,5), (8,7,6), 9
    res = build_resolution(mixed_degree_koszul())
    assert res.shifts == ((3, 4, 5), (8, 7, 6), (9,))
    assert res.minimal
    assert verify_exactness(res).exact
    assert res.betti() == ((3, 4, 5), (8, 7, 6), 9)


def test_build_resolution_matches_groebner_resolution():
    res = build_resolution(square4())
    direct = minimal_free_resolution(IdealBasis(list(gamma(square4()))))
    assert sorted(direct.shifts[0]) == sorted(res.shifts[0])
    assert sorted(direct.shifts[1]) == sorted(res.shifts[1])
    assert direct.shifts[2] == res.shifts[2]


def test_build_resolution_matches_groebner_resolution_on_the_sweep(sweep_matrices):
    # two routes to the Betti numbers of the paper's 27 uniform cases: the
    # presentation matrix, and iterated syzygies of its annihilator ideal
    # resolved as far as the ring allows
    for M in sweep_matrices:
        direct = minimal_free_resolution(IdealBasis(list(gamma(M))),
                                         max_length=M.ring.nvars)
        assert build_resolution(M).shifts == direct.shifts


def test_build_resolution_rejects_non_presentation():
    with pytest.raises(ValueError) as err:
        build_resolution(square4().transpose())
    assert FAIL_HEIGHT in str(err.value)


def test_verify_exactness_needs_a_complex():
    res = build_resolution(square4())
    broken = type(res)(res.ring, (res.maps[0], res.maps[0], res.maps[2]),
                       res.shifts, res.minimal)
    with pytest.raises(ValueError):
        verify_exactness(broken)


def test_verify_exactness_counts_unit_minor_ideal_as_infinite_height():
    # Koszul complex on (y, y + 1, z): the entries of the last map generate
    # the unit ideal, and none of them is a unit
    f = [parse(s, XYZ) for s in ("y", "y + 1", "z")]
    d1 = PolyMatrix(XYZ, [f])
    d2 = koszul(XYZ, *f)
    d3 = PolyMatrix(XYZ, [[p] for p in f])
    res = GradedResolution(XYZ, [d1, d2, d3], [(1, 1, 1), (2, 2, 2), (3,)],
                           minimal=False)
    report = verify_exactness(res)
    assert report.exact, report
    assert report.stages[-1][2] == "height inf needs >= 3"


# -- zeta ------------------------------------------------------------------------


def test_zeta_square4():
    rep = zeta(square4())
    assert (rep.nu_I, rep.nu_J, rep.zeta) == (4, 4, 0)
    assert texts(rep.normalized_rho) == ["x", "y", "z", "t"]


def test_zeta_koszul():
    rep = zeta(koszul(XYZ, *(XYZ.variable(v) for v in "xyz")))
    assert (rep.nu_I, rep.nu_J, rep.zeta) == (3, 3, 0)


def test_zeta_with_zero_component():
    # hand-built 4x4 whose transposed annihilator is (0, x, y, z): one zero
    # survives, zeta = 1; left annihilator has degrees (2,2,2,3)
    ring = RingContext(("x", "y", "z", "p", "q"))
    M = PolyMatrix.from_text(ring, [
        ["0", "0", "z", "-y"],
        ["0", "-z", "0", "x"],
        ["p^2", "y", "-x", "0"],
        ["q", "0", "0", "0"],
    ])
    pre = check_presentation(M)
    assert pre.is_presentation and pre.is_minimal
    assert texts(pre.gamma_transpose) == ["0", "x", "y", "z"]
    rep = zeta(M)
    assert (rep.nu_I, rep.nu_J, rep.zeta) == (4, 3, 1)
    assert texts(rep.normalized_rho) == ["x", "y", "z", "0"]
    # transformed matrix must still kill the reordered annihilator
    T = rep.transformed_matrix
    for i in range(4):
        total = ring.zero()
        for j in range(4):
            total = total + T.entry(i, j) * rep.normalized_rho[j]
        assert total.is_zero()


# 4x4 minimal presentations whose transposed annihilator is (x, y, z, q),
# q in (x, y, z): each row is a combination of two syzygy generators of
# (x, y, z, q) with coefficients +-1 or +-2, times 1 or a variable. Each is
# listed with the transformed matrix of its zeta report.
DEPENDENT_ANNIHILATORS = {
    "x*y + z^2": (
        [["0", "-2*x*y + y*z", "-y^2 - 2*y*z", "2*y"],
         ["x*y", "-3*x^2", "-2*x*z", "2*x"],
         ["y + z", "-x", "-x", "0"],
         ["-y", "x - 2*z", "2*y", "0"]],
        [["0", "y*z", "-y^2", "2*y"],
         ["x*y", "-x^2", "0", "2*x"],
         ["y + z", "-x", "-x", "0"],
         ["-y", "x - 2*z", "2*y", "0"]]),
    "y*z": (
        [["0", "z^2", "y*z", "-2*z"],
         ["0", "y*z", "0", "-y"],
         ["-2*x*y", "2*x^2", "2*x*y", "-2*x"],
         ["-2*y - 2*z", "2*x", "2*x", "0"]],
        [["0", "z^2", "-y*z", "-2*z"],
         ["0", "y*z", "-y^2", "-y"],
         ["-2*x*y", "2*x^2", "0", "-2*x"],
         ["-2*y - 2*z", "2*x", "2*x", "0"]]),
    "x^2 + y*z": (
        [["x*y", "-y*z", "2*y^2", "-y"],
         ["-2*y - z", "2*x", "x", "0"],
         ["-z", "2*z", "x - 2*y", "0"],
         ["-2*x^2", "-x*z", "-x*y", "2*x"]],
        [["0", "-y*z", "y^2", "-y"],
         ["-2*y - z", "2*x", "x", "0"],
         ["-z", "2*z", "x - 2*y", "0"],
         ["0", "-x*z", "x*y", "2*x"]]),
}


@pytest.mark.parametrize("q", sorted(DEPENDENT_ANNIHILATORS))
def test_zeta_sweeps_a_component_in_the_ideal_of_the_others(q):
    # q lies in (x, y, z), so membership cofactors clear it: the mirrored
    # column operations keep the matrix killing the reordered rho
    rows, transformed = DEPENDENT_ANNIHILATORS[q]
    M = PolyMatrix.from_text(XYZ, rows)
    pre = check_presentation(M)
    assert pre.is_presentation and pre.is_minimal
    assert texts(pre.gamma_transpose) == ["x", "y", "z", q]
    rep = zeta(M)
    J = IdealBasis([p for p in pre.gamma_transpose.components if not p.is_zero()])
    assert (rep.nu_I, rep.nu_J, rep.zeta) == (4, 3, 1)
    assert rep.nu_J == len(minimal_generators(J).generators)
    assert texts(rep.normalized_rho) == ["x", "y", "z", "0"]
    T = rep.transformed_matrix
    assert [[str(p) for p in row] for row in T.entries] == transformed
    assert (T @ PolyMatrix(XYZ, [[p] for p in rep.normalized_rho])).is_zero()


def test_zeta_dependent_component_is_swept():
    # rescale so the annihilator comes out as (x, y, z) after a sweep of the
    # dependent fourth column; start from a matrix whose transposed
    # annihilator has a component inside the ideal of the others
    ring = RingContext(("x", "y", "z"))
    h = [ring.variable(v) for v in "xyz"]
    K = koszul(ring, *h)
    # extend Koszul to 4x4 with last column a combination forcing
    # gamma(M^T) = (x, y, z, x + y) style dependence
    M = PolyMatrix.from_text(ring, [
        ["0", "z", "-y", "z"],
        ["-z", "0", "x", "0"],
        ["y", "-x", "0", "-x"],
        ["0", "0", "0", "0"],
    ])
    # fourth column = col1 + col3, fourth row zero: not a presentation
    # (rank still 2), so zeta refuses it
    assert rank(M) == 2
    with pytest.raises(ValueError):
        zeta(M)
    assert rank(K) == 2


def test_zeta_rejects_non_minimal():
    M = PolyMatrix.from_text(XYZ, [
        ["x", "0", "x"],
        ["-y", "x", "x - y"],
        ["0", "-y", "-y"],
    ])
    with pytest.raises(ValueError):
        zeta(M)


def test_zeta_report_is_kept_on_the_matrix():
    M = square4()
    with pytest.raises(BudgetExceeded):
        zeta(M, budget=Budget(max_monomials=0))
    assert M._cache == {}  # a run that raises keeps nothing
    first = zeta(M)
    assert zeta(M, budget=Budget(max_monomials=0)) is first
    assert zeta(PolyMatrix(M.ring, M.entries)) is not first


# -- decompose -------------------------------------------------------------------


def test_decompose_diagonal_over_regular_row():
    B = PolyMatrix.from_text(SIX, [
        ["u", "0", "0"],
        ["0", "v", "0"],
        ["0", "0", "w"],
        ["x", "y", "z"],
    ])
    rep = decompose(B)
    assert rep.regular
    assert rep.intersection_verified
    assert texts(rep.ideal.generators) == ["x*v*w", "y*u*w", "z*u*v"]
    assert sorted(texts(rep.z_ideal.generators)) == ["x", "y", "z"]
    assert "-u*v*w" in texts(rep.y_ideal.generators)


def test_decompose_regularity_failure():
    # top block determinant u*v*x lies in (x, y, z): not regular, no
    # intersection claim
    B = PolyMatrix.from_text(SIX, [
        ["u", "0", "0"],
        ["0", "v", "0"],
        ["0", "0", "x"],
        ["x", "y", "z"],
    ])
    rep = decompose(B)
    assert not rep.regular
    assert rep.intersection_verified is None


def test_decompose_zero_top_determinant():
    # alternating odd top block has det 0, so regularity cannot hold; the
    # signed minors still come out as q*(x, y, z) with q = x^2+y^2+z^2
    B = PolyMatrix.from_text(XYZ, [
        ["0", "z", "-y"],
        ["-z", "0", "x"],
        ["y", "-x", "0"],
        ["x", "y", "z"],
    ])
    rep = decompose(B)
    assert not rep.regular
    q = parse("x^2 + y^2 + z^2", XYZ)
    want = [parse("x", XYZ) * q, parse("y", XYZ) * q, parse("z", XYZ) * q]
    assert [str(p) for p in rep.ideal.generators] == [str(p) for p in want]


def test_decompose_shape_errors():
    with pytest.raises(ValueError):
        decompose(PolyMatrix.identity(XYZ, 3))
    B = PolyMatrix.from_text(XYZ, [["x", "0"], ["x", "0"], ["x", "0"]])
    with pytest.raises(ValueError):
        decompose(B)


def test_decompose_minors_match_determinants():
    # decompose reads the signed maximal minors off the left kernel of B.
    # They must equal one determinant per deleted row, and decompose
    # must refuse B exactly when they all vanish (rank below n).
    rng = random.Random(131)
    deficient = 0
    for trial in range(18):
        n = 2 + trial % 2
        if trial % 3 == 0:
            B = rank_deficient(rng, XYZ, n, n + 1).transpose()
        else:
            B = PolyMatrix(XYZ, [[random_poly(rng, XYZ, max_terms=2, max_deg=2)
                                  for _ in range(n)] for _ in range(n + 1)])
        want = []
        for i in range(n + 1):
            m = oracle_det([list(B.entries[r]) for r in range(n + 1) if r != i])
            want.append(m if i % 2 == 0 else -m)
        if all(p.is_zero() for p in want):
            deficient += 1
            with pytest.raises(ValueError, match="full column rank"):
                decompose(B)
            continue
        rep = decompose(B)
        assert list(rep.y_ideal.generators) == want
        assert list(rep.ideal.generators) == want[:n]
    assert deficient >= 6


# -- randomized properties -------------------------------------------------------


def rank_deficient(rng, ring, n, m):
    """Random n x m matrix of rank exactly n-1 (last row depends on others)."""
    while True:
        rows = [[random_poly(rng, ring, max_terms=2, max_deg=2)
                 for _ in range(m)] for _ in range(n - 1)]
        coeffs = [random_poly(rng, ring, max_terms=1, max_deg=1)
                  for _ in range(n - 1)]
        last = []
        for j in range(m):
            total = ring.zero()
            for c, row in zip(coeffs, rows):
                total = total + c * row[j]
            last.append(total)
        M = PolyMatrix(ring, rows + [last])
        if rank(M) == n - 1:
            return M


def test_property_gamma_subset_independence():
    rng = random.Random(11)
    cases = 0
    while cases < 200:
        n = rng.choice([2, 3])
        m = rng.choice([2, 3, 4])
        if m < n:
            continue
        M = rank_deficient(rng, XYZ, n, m)
        g = gamma(M)
        found = 0
        for subset in combinations(range(m), n - 1):
            sub = M.submatrix(list(range(n)), list(subset))
            if rank(sub) != n - 1:
                continue
            found += 1
            minors = []
            for i in range(n):
                rows = [r for r in range(n) if r != i]
                mi = sub.submatrix(rows, list(range(n - 1)))
                from presmat import det
                d = det(mi)
                minors.append(d if i % 2 == 0 else -d)
            common = None
            for p in minors:
                common = p if common is None else gcd(common, p)
            normalized = []
            for p in minors:
                normalized.append(exact_div(p, common))
            scale = next(p for p in normalized if not p.is_zero()).lead_coeff()
            normalized = [p * (1 / scale) for p in normalized]
            assert [str(p) for p in normalized] == texts(g)
        assert found >= 1
        cases += 1


def test_property_gamma_annihilates():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.choice([2, 3])
        m = rng.choice([n, n + 1])
        M = rank_deficient(rng, XYZ, n, m)
        g = gamma(M)
        for j in range(m):
            total = XYZ.zero()
            for i in range(n):
                total = total + g[i] * M.entry(i, j)
            assert total.is_zero()


def test_property_cofactor_factorization():
    # every singular-by-one square matrix factors its cofactor matrix as
    # u * (g_i h_j); recomputed from scratch, not through check_presentation
    rng = random.Random(13)
    for _ in range(200):
        n = rng.choice([2, 3])
        M = rank_deficient(rng, XYZ, n, n)
        g = gamma(M)
        h = gamma(M.transpose())
        C = cofactor_matrix(M)
        u = None
        for i in range(n):
            for j in range(n):
                p = g[i] * h[j]
                if not p.is_zero():
                    u = exact_div(C.entry(i, j), p)
                    break
            if u is not None:
                break
        assert u is not None
        for i in range(n):
            for j in range(n):
                assert C.entry(i, j) == u * g[i] * h[j]


def test_property_pfaffian_agreement():
    # alternating odd rank n-1: the normalized signed pfaffian vector equals
    # gamma on both sides
    rng = random.Random(14)
    cases = 0
    while cases < 200:
        n = 3 if cases % 5 else 5
        upper = {}
        for i in range(n):
            for j in range(i + 1, n):
                upper[(i, j)] = random_form(rng, XYZ, rng.choice([1, 2]))
        entries = [[XYZ.zero() for _ in range(n)] for _ in range(n)]
        for (i, j), p in upper.items():
            entries[i][j] = p
            entries[j][i] = -p
        M = PolyMatrix(XYZ, entries)
        if rank(M) != n - 1:
            continue
        cases += 1
        p_vec = list(pfaffians(M))
        common = None
        for p in p_vec:
            common = p if common is None else gcd(common, p)
        normalized = [exact_div(p, common) for p in p_vec]
        scale = next(p for p in normalized if not p.is_zero()).lead_coeff()
        normalized = [p * (1 / scale) for p in normalized]
        want = [str(p) for p in normalized]
        assert texts(gamma(M)) == want
        assert texts(gamma(M.transpose())) == want


def planted_zero_column(rng):
    """Square rank-2 matrix with two proportional columns.

    The kernel relation only involves the proportional pair, so the slot of
    gamma(M^T) at the remaining column must vanish. Returns that index too.
    """
    while True:
        base = [random_form(rng, XYZ, rng.choice([1, 2]), max_terms=2)
                for _ in range(3)]
        scale = random_form(rng, XYZ, rng.choice([0, 1, 2]), max_terms=1)
        free = [random_poly(rng, XYZ, max_terms=2, max_deg=2) for _ in range(3)]
        cols = [free, base, [scale * p for p in base]]
        order = list(range(3))
        rng.shuffle(order)
        entries = [[cols[order[j]][i] for j in range(3)] for i in range(3)]
        M = PolyMatrix(XYZ, entries)
        if rank(M) == 2:
            return M, order.index(0)


def test_property_zero_component_matches_column_rank():
    # a transposed-annihilator component vanishes exactly when the remaining
    # columns are already dependent among themselves
    rng = random.Random(16)
    catalog = [square4(), koszul(XYZ, *(XYZ.variable(v) for v in "xyz"))]
    ring = RingContext(("x", "y", "z", "p", "q"))
    catalog.append(PolyMatrix.from_text(ring, [
        ["0", "0", "z", "-y"],
        ["0", "-z", "0", "x"],
        ["p^2", "y", "-x", "0"],
        ["q", "0", "0", "0"],
    ]))
    h6 = [parse(s, SIX) for s in ("x", "y", "z")]
    g6 = [parse(s, SIX) for s in ("u", "v", "w")]
    catalog.append(PolyMatrix.diagonal(SIX, g6) @ koszul(SIX, *h6))
    for case in range(200):
        planted = None
        if case < len(catalog):
            M = catalog[case]
        elif case % 2:
            M = rank_deficient(rng, XYZ, 3, 3)
        else:
            M, planted = planted_zero_column(rng)
        n = M.rows
        h = gamma(M.transpose())
        if planted is not None:
            assert h[planted].is_zero()
        for j in range(n):
            keep = [c for c in range(n) if c != j]
            dropped = M.submatrix(list(range(n)), keep)
            if h[j].is_zero():
                assert rank(dropped) < n - 1
            else:
                assert rank(dropped) == n - 1


def sparse_dependency(rng, n):
    """Graded n x n matrix of rank n-1: n-1 columns of linear forms and one
    constant combination of some of them, maybe transposed.

    Columns outside the combination leave zero columns in the cofactor
    matrix, so the annihilators' column subsets vary.
    """
    while True:
        cols = [[random_form(rng, XYZ, 1, max_terms=2) for _ in range(n)]
                for _ in range(n - 1)]
        coeffs = [rng.choice([0, 0, 1, -1, 2]) for _ in range(n - 1)]
        if not any(coeffs):
            continue
        dep = [sum((c * col[i] for c, col in zip(coeffs, cols)), XYZ.zero())
               for i in range(n)]
        cols.insert(rng.randrange(n), dep)
        M = PolyMatrix(XYZ, [[cols[j][i] for j in range(n)] for i in range(n)])
        if rng.random() < 0.5:
            M = M.transpose()
        if rank(M) == n - 1:
            return M


def elimination_gamma(M):
    """The annihilator of M by the elimination route, the cross-route
    oracle: the pivot columns and signed maximal minors of one elimination
    of [M | I], with the gcd of the minors divided out and the first
    nonzero component made monic. Returns (components, column_subset)."""
    chosen, raw = left_kernel(M)
    assert raw is not None, "the oracle needs rank exactly rows - 1"
    common = M.ring.zero()
    for p in raw:
        common = gcd(common, p)
    components = [exact_div(p, common) if not p.is_zero() else p for p in raw]
    scale = next(p for p in components if not p.is_zero()).lead_coeff()
    return tuple(p * (1 / scale) for p in components), tuple(chosen)


def assert_report_matches_gamma(M):
    # the report and gamma read g and h by the same syzygy call but derive
    # their column subsets apart; the elimination route checks both
    rep = check_presentation(M)
    assert rep.failure_reason != FAIL_RANK
    for got, side in ((rep.gamma, M), (rep.gamma_transpose, M.transpose())):
        want = elimination_gamma(side)
        for vec in (got, gamma(side)):
            assert (vec.components, vec.column_subset) == want


def test_report_annihilators_match_gamma():
    # the syzygy route of the report and of gamma against the elimination
    # route; the derivations must agree exactly
    rng = random.Random(17)
    subsets = set()
    for _ in range(60):
        M = sparse_dependency(rng, rng.randint(2, 5))
        assert_report_matches_gamma(M)
        subsets.add(gamma(M).column_subset)
    assert any(s != tuple(range(len(s))) for s in subsets)


def test_gamma_ranks_its_candidate_columns_on_numbers(monkeypatch):
    # the rank at the point comes from one elimination of the evaluated
    # numbers per candidate column; the polynomial rank never runs
    ranked = []
    monkeypatch.setattr(matrices, "rank", ranked.append)
    assert not hasattr(presentation, "rank")  # so a call would reach the spy
    rng = random.Random(17)
    for _ in range(30):
        M = sparse_dependency(rng, rng.randint(2, 5))
        g = gamma(M)
        assert (g.components, g.column_subset) == elimination_gamma(M)
    assert ranked == []


def test_report_annihilators_match_gamma_on_sweep(sweep_matrices):
    for M in sweep_matrices:
        assert_report_matches_gamma(M)


def test_rank_test_rejects_full_and_low_rank():
    rng = random.Random(18)
    for _ in range(30):
        n = rng.randint(2, 5)
        full = PolyMatrix(XYZ, [[random_form(rng, XYZ, 1, max_terms=2)
                                 for _ in range(n)] for _ in range(n)])
        # rank <= n-2: n-2 columns of linear forms times constants
        low = PolyMatrix(XYZ, [[XYZ.zero()] * n] * n)
        if n > 2:
            low = PolyMatrix(XYZ, [[random_form(rng, XYZ, 1, max_terms=2)
                                    for _ in range(n - 2)] for _ in range(n)]) \
                @ PolyMatrix(XYZ, [[XYZ.constant(rng.randint(-2, 2))
                                    for _ in range(n)] for _ in range(n - 2)])
        assert rank(low) <= n - 2
        for M in (full, low):
            if M is full and rank(M) != n:
                continue
            rep = check_presentation(M)
            assert not rep.is_presentation
            assert rep.failure_reason == FAIL_RANK
            assert rep.gamma is None


def graded_product(rng, ring, n):
    """n x n product of n x (n-1) and (n-1) x n matrices of linear forms:
    graded, of rank at most n-1, with a unit that is seldom constant."""
    A = PolyMatrix(ring, [[random_form(rng, ring, 1, max_terms=2)
                           for _ in range(n - 1)] for _ in range(n)])
    B = PolyMatrix(ring, [[random_form(rng, ring, 1, max_terms=2)
                           for _ in range(n)] for _ in range(n - 1)])
    return A @ B


def scaled_koszul(rng, ring, graded):
    """diag(g) * K(h) for random forms, shifted off the grading by a
    constant on h when graded is False."""
    h = [random_form(rng, ring, rng.randint(1, 2), max_terms=2) for _ in range(3)]
    if not graded:
        h = [p + 1 for p in h]
    g = [random_form(rng, ring, rng.randint(0, 1), max_terms=1) for _ in range(3)]
    return PolyMatrix.diagonal(ring, g) @ koszul(ring, *h)


def family_matrices():
    """120 seeded matrices: graded products, sparse rank-deficient squares
    and scaled Koszul matrices, half of these off the grading."""
    rng = random.Random(19)
    matrices = [graded_product(rng, XYZT, 3) for _ in range(40)]
    matrices += [rank_deficient(rng, XYZ, n, n) for n in [2, 3, 3, 4] * 10]
    matrices += [scaled_koszul(rng, XYZ, k % 2 == 0) for k in range(40)]
    return matrices


def test_report_annihilators_match_gamma_across_families():
    # the report and gamma read g and h from the Groebner engine's
    # syzygies, the oracle from a fraction-free elimination and a vector gcd
    matrices = family_matrices()
    verdicts = set()
    for M in matrices:
        if rank(M) != M.rows - 1:
            continue
        assert_report_matches_gamma(M)
        verdicts.add(check_presentation(M).failure_reason)
    assert len(matrices) == 120
    assert verdicts == {None, FAIL_UNIT, FAIL_HEIGHT}


def substituted(M, rng):
    """M after the change of coordinates that sends each variable x to x
    plus up to three multiples, by +-1 or +-2, of other variables."""
    ring = M.ring
    names = ring.variables
    images = []
    for v in names:
        image = ring.variable(v)
        others = [w for w in names if w != v]
        for w in rng.sample(others, min(len(others), rng.randint(0, 3))):
            image = image + rng.choice([1, -1, 2, -2]) * ring.variable(w)
        images.append(image)

    def substitute(p):
        total = ring.zero()
        for m, c in p.terms.items():
            term = ring.constant(c)
            for image, e in zip(images, m):
                term = term * image ** e
            total = total + term
        return total

    return M.map_entries(substitute)


def test_report_annihilators_match_gamma_on_substituted_sweep(sweep_matrices):
    # on the quadratic and cubic 5 x 5 and 6 x 6 cases the elimination route
    # takes 1 to 20 s each, so those are left to the byte-for-byte checks
    # recorded with the change
    rng = random.Random(1)
    compared = 0
    for M in sweep_matrices:
        S = substituted(M, rng)
        linear = all(p.degree() <= 1 for row in M.entries for p in row)
        if M.rows <= 4 or (M.rows <= 6 and linear):
            assert_report_matches_gamma(S)
            assert check_presentation(S).is_presentation
            compared += 1
    assert compared == 10


def substituted_sweep_matrix(case):
    """The substituted sweep matrix of one (n, a, b) case, drawn as
    test_report_annihilators_match_gamma_on_substituted_sweep draws it."""
    from test_acceptance import _uniform_construction_cases
    rng = random.Random(1)
    for n, a, b in _uniform_construction_cases():
        S = substituted(homogeneous_matrix(n, a, b), rng)
        if (n, a, b) == tuple(case):
            return S
    raise ValueError("not a sweep case: %r" % (case,))


# a step of the engine looks at its clock at least this often on the
# substituted sweep matrices (0.2 s at most on a 2-vCPU machine)
CHECK_INTERVAL = 1.0


def test_gamma_stops_at_its_budget():
    # the rows' syzygies of substituted (7,8,10) take about 0.5 s; the
    # elimination route ran past 40 s on it, with no budget
    S = substituted_sweep_matrix((7, 8, 10))
    started = time.monotonic()
    with pytest.raises(BudgetExceeded, match="time budget exceeded"):
        gamma(S, budget=Budget(seconds=0.1))
    assert time.monotonic() - started < 0.1 + CHECK_INTERVAL


@pytest.mark.parametrize("n, m", [(3, 5), (4, 6), (5, 7)])
def test_gamma_matches_elimination_on_rectangular_matrices(n, m):
    # the shapes on which reading the pivot columns off a Groebner basis of
    # the column syzygies blows up; column 1 of the widened matrix is x
    # times column 0, so its pivot columns skip it
    rng = random.Random(11)
    x = XYZ.variable("x")
    for _ in range(10):
        M = rank_deficient(rng, XYZ, n, m)
        wide = PolyMatrix(XYZ, [[row[0], x * row[0], *row[1:]] for row in M.entries])
        for A in (M, wide):
            g = gamma(A)
            assert (g.components, g.column_subset) == elimination_gamma(A)
        assert 1 not in g.column_subset


def test_gamma_decides_columns_dependent_at_the_point_by_syzygies(monkeypatch):
    # column 1 is z times column 0, and column 2 equals column 0 at the
    # evaluation point but not over R: both reach a syzygy run, which finds
    # a relation for column 1 and none for column 2
    point = presentation._evaluation_point(XYZ)
    x, y, z = (XYZ.variable(v) for v in "xyz")
    a = [x, y, z]
    b = [2 * x - point[0], y, z]
    M = PolyMatrix(XYZ, [[a[i], z * a[i], b[i]] for i in range(3)])
    assert [p.evaluate(point) for p in a] == [p.evaluate(point) for p in b]
    runs = []
    run = groebner._run

    def spy(vectors, rank, enc, clock, track):
        B = run(vectors, rank, enc, clock, track)
        if track:
            runs.append((len(vectors), len(_syzygy_vectors(B))))
        return B

    monkeypatch.setattr(groebner, "_run", spy)
    g = gamma(M)
    assert runs[1:] == [(2, 1), (2, 0)]  # after the run on the rows
    assert g.column_subset == (0, 2)
    assert (g.components, g.column_subset) == elimination_gamma(M)
    assert texts(g) == ["0", "z", "-y"]


def test_several_syzygy_generators_of_a_cyclic_module():
    # the rows' syzygy run returns two generators of R * (0, x, -y); the
    # reduced Groebner basis of what it returns is that one vector
    M = PolyMatrix.from_text(XYZ, [["x*z", "0", "x*z"],
                                   ["x*y", "y*z", "x*y"],
                                   ["x^2", "x*z", "x^2"]])
    assert len(syzygies(column_module(M.transpose())).generators) == 2
    assert_report_matches_gamma(M)
    report = check_presentation(M)
    assert texts(report.gamma) == ["0", "x", "-y"]
    assert report.failure_reason == FAIL_UNIT


def assert_cofactors_factor(M):
    """C = u * g * h^T entry by entry for the report's u, g and h, with C
    from cofactor_matrix, which the determinant oracle pins down and which
    shares no step with the report's route to u. Returns the report and C."""
    rep = check_presentation(M)
    assert rep.failure_reason != FAIL_RANK
    C = cofactor_matrix(M)
    u, g, h = rep.cofactor_unit, rep.gamma, rep.gamma_transpose
    for i, row in enumerate(C.entries):
        for j, p in enumerate(row):
            assert p == u * g[i] * h[j]
    return rep, C


def assert_cofactors_have_unit_gcd(M):
    # C = u * g * h^T with u a unit and gcd(g) = gcd(h) = 1, so the
    # submaximal minors of a presentation matrix share no factor
    rep, C = assert_cofactors_factor(M)
    assert rep.is_presentation
    common = M.ring.zero()
    for row in C.entries:
        for p in row:
            common = gcd(common, p)
    assert common.is_unit()


def test_cofactors_have_unit_gcd_on_sweep(sweep_matrices):
    for M in sweep_matrices:
        assert_cofactors_have_unit_gcd(M)


@pytest.fixture
def minor_runs(monkeypatch):
    """The row sets of each minor the presentation layer takes: the check
    takes one only when the degrees and M's values at the point leave u
    open."""
    seen = []
    minor = presentation.minor
    monkeypatch.setattr(presentation, "minor",
                        lambda M, rows, cols: seen.append(rows) or minor(M, rows, cols))
    return seen


def test_unit_factors_the_cofactors_on_the_sweep(sweep_matrices, minor_runs):
    # fresh copies, for the fixture's matrices may keep reports from other
    # tests; every u of the sweep and of its transposes is a constant read
    # at the evaluation point
    for M in sweep_matrices:
        for A in (PolyMatrix(M.ring, M.entries), M.transpose()):
            assert assert_cofactors_factor(A)[0].cofactor_unit.is_unit()
    assert minor_runs == []


def report_texts(rep):
    return (rep.is_presentation, texts(rep.gamma), texts(rep.gamma_transpose),
            str(rep.cofactor_unit), rep.height_J, rep.is_minimal, rep.failure_reason)


def test_caller_shifts_that_grade_the_matrix_give_the_same_report(minor_runs):
    # the caller's shifts stand in for the derived ones; any shifts that
    # grade M, translates of the derived ones too, read u off the degrees
    for M, a, b in ((square4(), (2, 2, 2, 2), (3, 3, 3, 3)),
                    (mixed_degree_koszul(), (3, 4, 5), (8, 7, 6))):
        plain = build_resolution(M)
        for shift in (0, -2):
            rows, cols = tuple(d + shift for d in a), tuple(d + shift for d in b)
            graded = PolyMatrix(M.ring, M.entries, row_shifts=rows, col_shifts=cols)
            assert report_texts(check_presentation(graded)) == report_texts(
                check_presentation(M))
            if shift == 0:
                res = build_resolution(graded)
                assert res.shifts == plain.shifts == (a, b, (sum(b) - sum(a),))
                assert [m.entries for m in res.maps] == [m.entries for m in plain.maps]
    assert minor_runs == []


def test_caller_shifts_that_do_not_grade_the_matrix(minor_runs):
    # shifts that fail to grade M are not admitted: u comes from a minor,
    # the verdict stands, and the chain built on those shifts is refused
    M = square4()
    bad = PolyMatrix(M.ring, M.entries, row_shifts=(2, 2, 2, 2), col_shifts=(3, 3, 3, 4))
    assert report_texts(check_presentation(bad)) == report_texts(check_presentation(M))
    assert len(minor_runs) == 1 and check_presentation(bad).shifts is None
    with pytest.raises(ValueError, match="^grading inconsistency: the shifts do not grade"):
        build_resolution(bad)


def grading_failures():
    """(branch, presentation matrix, message) for each way _grading finds no
    shifts that grade a presentation matrix with no shifts of its own
    (test_caller_shifts_that_do_not_grade_the_matrix has the other). The
    square4 variants come from it by unimodular row or column operations,
    which keep the verdict."""
    return [
        # row 0 plus x * row 1: g_1 = x*t - x*z*t
        ("generator", PolyMatrix.from_text(XYZT, [
            ["y", "-x + x*z", "-x*y", "0"],
            ["0", "z", "-y", "0"],
            ["0", "0", "t", "-z"],
            ["-t", "0", "0", "x"]]),
         "grading inconsistency: vector component is not homogeneous"),
        # column 0 plus (1 + x) * column 2
        ("entry", PolyMatrix.from_text(XYZT, [
            ["y", "-x", "0", "0"],
            ["-y - x*y", "z", "-y", "0"],
            ["t + x*t", "0", "t", "-z"],
            ["-t", "0", "0", "x"]]),
         "grading inconsistency: vector component is not homogeneous"),
        # column 0 plus x * column 2
        ("column", PolyMatrix.from_text(XYZT, [
            ["y", "-x", "0", "0"],
            ["-x*y", "z", "-y", "0"],
            ["x*t", "0", "t", "-z"],
            ["-t", "0", "0", "x"]]),
         "grading inconsistency: vector is not homogeneous for the given shifts"),
        # h = e_2, so the row ideal is the unit ideal
        ("zero column", PolyMatrix.from_text(XYZ, [
            ["x", "0", "0"], ["y", "x", "0"], ["0", "y", "0"]]),
         "grading underdetermined: zero column and no shifts"),
        # rows 0 and 1 agree, so g = (1, -1, 0)
        ("zero component", PolyMatrix.from_text(XYZ, [
            ["x", "1", "0"], ["x", "1", "0"], ["1", "0", "0"]]),
         "grading underdetermined: zero component of g and no shifts"),
    ]


@pytest.mark.parametrize("branch, M, message", grading_failures(),
                         ids=[case[0] for case in grading_failures()])
def test_presentation_with_no_grading_has_no_resolution(minor_runs, branch, M,
                                                        message):
    rep = check_presentation(M)
    assert rep.is_presentation and rep.shifts is None
    assert len(minor_runs) == 1  # no degrees, so u comes from a minor
    g = texts(rep.gamma)
    if branch == "generator":
        assert g == ["z*t", "-x*z*t + x*t", "x*y", "y*z"]
    if branch in ("entry", "column"):
        assert g == ["z*t", "x*t", "x*y", "y*z"]
    if branch == "zero component":
        assert g == ["1", "-1", "0"]
    with pytest.raises(ValueError, match="^" + message + "$"):
        build_resolution(M)


def test_zero_component_of_g_in_a_check(minor_runs):
    # the transpose of the block extension has g = (0, x, y, z): no shifts
    # grade it, so the check takes u from a minor before it fails on height
    K = koszul(XYZ, *(parse(s, XYZ) for s in ("x", "y", "z")))
    M = nogaeta_extend((K, BettiSequence([1, 1, 1], [2, 2, 2], 3)),
                       BettiSequence([2, 2, 2, 3], [4, 3, 3, 3], 4), 4).transpose()
    rep = check_presentation(M)
    assert texts(rep.gamma) == ["0", "x", "y", "z"]
    assert rep.failure_reason == FAIL_HEIGHT and rep.shifts is None
    assert len(minor_runs) == 1
    with pytest.raises(ValueError, match="zero component of g"):
        presentation._grading(M, rep.gamma)


@pytest.fixture
def gradings(monkeypatch):
    """The matrices the presentation layer runs _grading on."""
    seen = []
    grading = presentation._grading
    monkeypatch.setattr(presentation, "_grading",
                        lambda M, g: seen.append(M) or grading(M, g))
    return seen


def test_resolution_reads_the_shifts_of_the_report(sweep_matrices, gradings):
    # the check finds the shifts once and keeps them on the report, and
    # the resolution built after it takes them from there
    S = square4()
    matrices = [PolyMatrix(M.ring, M.entries) for M in sweep_matrices]
    matrices.append(PolyMatrix(S.ring, S.entries, row_shifts=(2, 2, 2, 2),
                               col_shifts=(3, 3, 3, 3)))
    for M in matrices:
        rep = check_presentation(M)
        assert gradings == [M]
        res = build_resolution(M)
        assert gradings == [M]
        assert rep.shifts == res.shifts[:2]
        gradings.clear()
    assert check_presentation(matrices[-1]).shifts == ((2,) * 4, (3,) * 4)


def derives_shifts(M, rep):
    """Whether shifts derived from the report's g grade M."""
    try:
        presentation._grading(M, rep.gamma)
    except ValueError:
        return False
    return True


def test_unit_factors_the_cofactors_across_families(minor_runs):
    verdicts = set()
    graded_units = 0
    for M in family_matrices():
        if rank(M) != M.rows - 1:
            continue
        taken = len(minor_runs)
        rep, _C = assert_cofactors_factor(M)
        verdicts.add(rep.failure_reason)
        if rep.failure_reason != FAIL_UNIT and derives_shifts(M, rep):
            assert len(minor_runs) == taken  # read at the point
            graded_units += 1
    assert verdicts == {None, FAIL_UNIT, FAIL_HEIGHT}
    assert graded_units > 0


def test_unit_of_an_ungraded_presentation_comes_from_a_minor(minor_runs):
    M = PolyMatrix.from_text(XYZ, [
        ["0", "-3", "1/2*z - 1"],
        ["3*y", "0", "-2*y - 3"],
        ["-9*y*z", "-9/2", "6*y*z + 39/4*z - 3/2"],
    ])
    rep, _C = assert_cofactors_factor(M)
    assert rep.is_presentation
    assert len(minor_runs) == 1


def test_unit_with_fractional_coefficients_is_read_at_the_point(minor_runs):
    # M(p) holds Fractions, so the elimination divides with /
    x, y, z = (XYZ.variable(v) for v in "xyz")
    M = koszul(XYZ, x * Fraction(1, 2), y * Fraction(2, 3) + z, z * 3)
    rep, _C = assert_cofactors_factor(M)
    assert rep.is_presentation
    assert minor_runs == []
    # the Koszul cofactors are f * f^T, and g = h = 2 * f once made monic
    assert str(rep.cofactor_unit) == "1/4"


def test_unit_falls_back_to_a_minor_where_g_and_h_vanish_at_the_point(minor_runs):
    # the linear forms of h vanish at the first primes, so M(p) = 0 and its
    # elimination gives no cofactor there: g_i(p) * h_q(p) = 0
    ring = RingContext(("w", "x", "y", "z"))
    point = presentation._evaluation_point(ring)
    w, x, y, z = (ring.variable(v) for v in "wxyz")
    h = [point[1] * w - point[0] * x, point[2] * w - point[0] * y,
         point[3] * w - point[0] * z]
    assert [p.evaluate(point) for p in h] == [0, 0, 0]
    M = koszul(ring, *h)
    rep, _C = assert_cofactors_factor(M)
    assert rep.is_presentation and rep.height_J == 3
    assert len(minor_runs) == 1
    assert all(p.evaluate(point) == 0 for p in rep.gamma)


def test_full_rank_at_the_point_runs_no_syzygies(syzygy_runs):
    # det M(p) != 0 proves rank n; the report is the one the syzygy route
    # gives, which finds no relation among the rows
    rng = random.Random(31)
    matrices = [PolyMatrix.identity(XYZ, 3),
                PolyMatrix.diagonal(XYZ, [XYZ.variable(v) for v in "xyz"])]
    matrices += [PolyMatrix(XYZ, [[random_form(rng, XYZ, rng.randint(1, 2))
                                   for _ in range(n)] for _ in range(n)])
                 for n in [2, 3, 4, 5] * 5]
    for M in matrices:
        rep = check_presentation(M)
        assert (rep.is_presentation, rep.gamma, rep.gamma_transpose,
                rep.cofactor_unit, rep.height_J, rep.failure_reason) == \
            (False, None, None, None, None, FAIL_RANK)
        assert rep.is_minimal == all(p.constant_term() == 0
                                     for row in M.entries for p in row)
    assert syzygy_runs == []
    for M in matrices:
        assert row_syzygy_generator(M) is None


def row_syzygy_generator(M, budget=None):
    """_syzygy_generator on the packed rows of M."""
    enc, rows, scale = groebner._pack(M)
    return groebner._syzygy_generator(groebner._vectors(rows, enc, scale),
                                      M.cols, enc, budget)


def test_annihilator_check_runs_under_the_budget(monkeypatch):
    # the syzygy runs get no budget here, so the products g * M and M * h
    # are the first step that can exceed it
    M = koszul(XYZ, *(parse(p, XYZ) for p in ("x + y", "y + z", "x + z")))
    syzygy_generator = groebner._syzygy_generator
    monkeypatch.setattr(groebner, "_syzygy_generator",
                        lambda vectors, rank, enc, budget:
                        syzygy_generator(vectors, rank, enc, None))
    with pytest.raises(BudgetExceeded, match="annihilator check"):
        check_presentation(M, budget=Budget(max_monomials=0))
    assert "presentation" not in M._cache
    assert check_presentation(M).is_presentation


@pytest.mark.parametrize("corrupted", [0, 1], ids=["g", "h"])
def test_packed_check_rejects_a_corrupted_annihilator(monkeypatch, corrupted):
    # one coefficient of g (the rows' run) or of h (the columns' run) moves
    # by 1: g' = g + x^m e_i and g' * M picks up x^m times row i of M, which
    # is nonzero, and likewise for h and a column
    M = koszul(XYZ, *(parse(p, XYZ) for p in ("x + y", "y + z", "x + z")))
    generator = groebner._syzygy_generator
    calls = []

    def corrupt(vectors, rank, enc, budget):
        v = generator(vectors, rank, enc, budget)
        if len(calls) == corrupted:
            k, p, c = v[-1]
            v = v[:-1] + [(k, p, c + 1)]
        calls.append(v)
        return v

    monkeypatch.setattr(groebner, "_syzygy_generator", corrupt)
    with pytest.raises(AssertionError, match="annihilator check failed"):
        check_presentation(M)
    assert len(calls) == 2
    assert "presentation" not in M._cache


def test_packed_product_raises_at_the_exponent_limit():
    # exponents below the limit add up in their own field; a sum that
    # reaches it sets the field's guard bit and raises instead of wrapping
    # into the next variable's field
    enc = Encoding(XYZ)
    half = EXP_LIMIT // 2
    x_half = [enc.term(0, (half, 0, 0)) + (1,)]
    x_below = [enc.term(0, (half - 1, 0, 0)) + (3,)]
    total = {}
    groebner._add_product(total, x_half, x_below, enc.guard)
    assert total == {enc.term(0, (EXP_LIMIT - 1, 0, 0))[1]: 3}
    for a, b in ((x_half, x_half), (x_below + x_half, [enc.term(0, (half, 1, 0)) + (2,)])):
        with pytest.raises(BudgetExceeded, match="exponent"):
            groebner._add_product({}, a, b, enc.guard)


def test_rational_matrix_keeps_its_report():
    # the rows of M have denominators 3, 6 and 2; the check packs 6 * M once
    # and must answer as on M itself: the same texts as before the packed
    # check, the elimination oracle's annihilators, and g = h = f, whose
    # Koszul matrix this is (all monic already, so u = 1)
    f = [parse(p, XYZ) for p in ("x + 1/2*y", "y - z", "2/3*x + z")]
    M = koszul(XYZ, *f)
    want = (True, ["x + 1/2*y", "y - z", "2/3*x + z"],
            ["x + 1/2*y", "y - z", "2/3*x + z"], "1", 3, True, None)
    for A in (M, M.transpose()):
        rep = check_presentation(A)
        assert report_texts(rep) == want
        assert rep.gamma.column_subset == rep.gamma_transpose.column_subset == (0, 1)
        assert list(rep.gamma) == f
        assert_report_matches_gamma(PolyMatrix(A.ring, A.entries))
    assert build_resolution(M).shifts == ((1, 1, 1), (2, 2, 2), (3,))


def test_property_resolutions_verify():
    # random scaled Koszul presentations: build and verify 200 resolutions
    rng = random.Random(15)
    ring = SIX
    for _ in range(200):
        d = [rng.randint(1, 3) for _ in range(3)]
        a = [rng.randint(0, 2) for _ in range(3)]
        h = [parse(v, ring) ** e for v, e in zip(("x", "y", "z"), d)]
        g = [parse(v, ring) ** e for v, e in zip(("u", "v", "w"), a)]
        M = PolyMatrix.diagonal(ring, g) @ koszul(ring, *h)
        assert_cofactors_have_unit_gcd(M)
        res = build_resolution(M)
        assert verify_exactness(res).exact


def test_even_size_row_ideal_has_height_two():
    # even-size presentations have annihilator row ideals of height exactly 2
    M = square4()
    assert height(IdealBasis(list(gamma(M)))) == 2
    ring = RingContext(("x", "y", "z", "p", "q"))
    M2 = PolyMatrix.from_text(ring, [
        ["0", "0", "z", "-y"],
        ["0", "-z", "0", "x"],
        ["p^2", "y", "-x", "0"],
        ["q", "0", "0", "0"],
    ])
    assert height(IdealBasis(list(gamma(M2)))) == 2


# -- the report kept on the matrix -------------------------------------------------


@pytest.fixture
def syzygy_runs(monkeypatch):
    """The inputs of each syzygy run of the presentation layer, as tuples
    of Polynomial vectors: a check runs one on the rows of M and one on its
    columns, each packed as engine vectors of a multiple of M."""
    seen = []
    generator = groebner._syzygy_generator

    def spy(vectors, rank, enc, budget):
        seen.append(tuple(_terms_to_polys(v, rank, enc, scale) for v, scale in vectors))
        return generator(vectors, rank, enc, budget)

    monkeypatch.setattr(groebner, "_syzygy_generator", spy)
    return seen


def test_second_check_of_one_matrix_is_a_lookup(syzygy_runs):
    M = square4()
    first = check_presentation(M)
    assert len(syzygy_runs) == 2  # the rows of M and its columns
    assert check_presentation(M) is first
    assert check_presentation(M, budget=Budget(max_monomials=0)) is first
    assert len(syzygy_runs) == 2
    assert syzygy_runs.count(M.entries) == 1


def test_exceeded_budget_keeps_no_report(syzygy_runs):
    # the syzygies of the rows run a tracked Groebner basis
    M = koszul(XYZ, *(parse(p, XYZ) for p in ("x + y", "y + z", "x + z")))
    with pytest.raises(BudgetExceeded):
        check_presentation(M, budget=Budget(max_monomials=0))
    syzygy_runs.clear()
    report = check_presentation(M)
    assert report.is_presentation and report.is_minimal
    assert len(syzygy_runs) == 2


def test_equal_matrix_and_transpose_run_their_own_checks(syzygy_runs):
    M = square4()
    report = check_presentation(M)
    twin = PolyMatrix(M.ring, M.entries)
    assert twin == M
    again = check_presentation(twin)
    assert again is not report
    assert len(syzygy_runs) == 4
    assert (again.is_presentation, texts(again.gamma), texts(again.gamma_transpose)) \
        == (report.is_presentation, texts(report.gamma), texts(report.gamma_transpose))
    transposed = check_presentation(M.transpose())
    assert len(syzygy_runs) == 6
    assert transposed.failure_reason == FAIL_HEIGHT


@pytest.mark.parametrize("case, runs", [
    ((3, 3, 5), 2),  # base, lift: the constructed matrix alone
    ((3, 2, 4), 2),  # base, star
    ((3, 4, 7), 2),  # base, star, lift
])
def test_construction_and_resolution_check_each_matrix_once(syzygy_runs, case,
                                                            runs):
    res = build_resolution(homogeneous_matrix(*case))
    assert len(syzygy_runs) == runs
    assert len(set(syzygy_runs)) == runs
    assert res.betti() == ((case[1],) * case[0], (case[2],) * case[0],
                           case[0] * (case[2] - case[1]))


# -- metamorphic: row and column permutations ----------------------------------------


def _up_to_constant(got, want):
    """True when got = c * want componentwise for one nonzero constant c."""
    k = next(k for k, p in enumerate(want) if not p.is_zero())
    c = got[k].lead_coeff() / want[k].lead_coeff()
    return c != 0 and all(p == q * c for p, q in zip(got, want))


def test_permuted_sweep_matrices_keep_their_reports(sweep_matrices):
    rng = random.Random(23)
    for M in sweep_matrices:
        n = M.rows
        rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
        P = PolyMatrix(M.ring, [[M.entry(i, j) for j in cols] for i in rows])
        want, got = check_presentation(M), check_presentation(P)
        assert (got.is_presentation, got.is_minimal, got.failure_reason,
                got.height_J) == (want.is_presentation, want.is_minimal,
                                  want.failure_reason, want.height_J)
        assert got.cofactor_unit in (want.cofactor_unit, -want.cofactor_unit)
        assert _up_to_constant(got.gamma, [want.gamma[i] for i in rows])
        assert _up_to_constant(got.gamma_transpose,
                               [want.gamma_transpose[j] for j in cols])
        assert [sorted(s) for s in build_resolution(P).shifts] == \
            [sorted(s) for s in build_resolution(M).shifts]

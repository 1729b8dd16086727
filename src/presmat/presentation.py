"""Presentation-matrix analysis: the annihilator row gamma, the presentation
test of the structure theorem (rank n-1, C = u * g * h^T for a unit u, and
a row ideal of height at least 3), the length-3 graded resolution it
induces, the zeta invariant, and the minor/row ideal decomposition. The
syzygy runs behind g and h, on M packed once into the Groebner engine's
integer terms, are the engine's (groebner._row_generator and
groebner._row_and_column_generators).

Heights stand in for depths throughout: over the graded polynomial ring the
grade of an ideal equals its height, so every depth hypothesis below is
checked as a height (the Koszul examples in the tests pin this down).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count

from .groebner import (
    Budget,
    GradedResolution,
    IdealBasis,
    UnitIdealError,
    _row_and_column_generators,
    _row_generator,
    height,
    ideal_equal,
    intersect,
    member_with_cofactors,
    minimal_generators,
    quotient,
)
from .matrices import (
    PolyMatrix,
    check_graded,
    left_kernel,
    minor,
    value_left_kernel,
    vector_degree,
)
from .ring import exact_div

FAIL_RANK = "rank_not_n_minus_1"
FAIL_UNIT = "cofactor_unit_not_constant"
FAIL_HEIGHT = "height_of_row_ideal_below_3"


class GammaVector:
    """The row annihilator of a matrix of rank n-1, normalized.

    Components have gcd 1 and the first nonzero one is monic, so vectors that
    agree up to a unit agree literally.
    """

    __slots__ = ("components", "column_subset")
    # CLI output, and it holds with no gcd taken: a generator of the cyclic
    # syzygy module is primitive, since a common factor could be divided out
    # of it, and the engine makes its first nonzero component monic
    normalization_note = "gcd removed; first nonzero component monic"

    def __init__(self, components, column_subset):
        self.components = tuple(components)
        self.column_subset = tuple(column_subset)

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __eq__(self, other):
        if isinstance(other, GammaVector):
            return self.components == other.components
        return self.components == tuple(other)

    def __repr__(self):
        return "GammaVector(" + ", ".join(str(p) for p in self.components) + ")"


# the first primes, one per variable, where distinct monomials differ
def _evaluation_point(ring):
    primes = [2]
    while len(primes) < ring.nvars:
        primes.append(next(k for k in count(primes[-1]) if all(k % q for q in primes)))
    return primes[:ring.nvars]


def gamma(M: PolyMatrix, budget: Budget | None = None) -> GammaVector:
    """Normalized generator of the row annihilator of M (rank must be n-1).

    g generates the syzygies of the rows, as in check_presentation; for
    any shape of M they are cyclic and nonzero exactly at rank n-1. The
    column_subset is the lexicographically first full-rank n-1 columns,
    each shown independent of those before it by full rank at one rational
    point or else by a syzygy run; g does not depend on the choice.
    """
    g, related = _row_generator(M, budget)
    if g is None:
        raise ValueError("gamma needs rank exactly rows - 1")
    if M.rows < 2:  # a zero row has that rank, and g = (1,)
        raise ValueError("gamma needs at least two rows")
    point = _evaluation_point(M.ring)
    at_point = [[p.evaluate(point) for p in row] for row in M.entries]
    chosen = []
    for j in range(M.cols):
        cols = chosen + [j]
        # full rank at a point proves full rank over R; otherwise the
        # columns are independent exactly when a tracked run of them finds
        # no relation
        if len(chosen) < M.rows - 1 and (
                len(value_left_kernel([[row[c] for c in cols] for row in at_point])[0])
                == len(cols) or not related(cols)):
            chosen.append(j)
    return GammaVector(g, chosen)


class PresentationReport:
    """Verdict of check_presentation.

    gamma and gamma_transpose are the normalized annihilators g and h of M
    and of its transpose once the rank is known to be n-1, else None;
    cofactor_unit is the u with C = u * g * h^T for the cofactor matrix C,
    and height_J the height of the ideal of the h components, each None
    until the test reaches it. shifts is the pair (a, b) of row and column
    shifts that grade M, M's own or else derived from g (see _grading),
    once g is known; None when no shifts grade M or the rank is not n-1.
    build_resolution reads its shifts from here.
    """

    __slots__ = ("is_presentation", "gamma", "gamma_transpose", "cofactor_unit",
                 "height_J", "is_minimal", "failure_reason", "shifts")

    def __init__(self, is_presentation, gamma, gamma_transpose, cofactor_unit,
                 height_J, is_minimal, failure_reason, shifts):
        self.is_presentation = is_presentation
        self.gamma = gamma
        self.gamma_transpose = gamma_transpose
        self.cofactor_unit = cofactor_unit
        self.height_J = height_J
        self.is_minimal = is_minimal
        self.failure_reason = failure_reason
        self.shifts = shifts

    def __repr__(self):
        if self.is_presentation:
            return "PresentationReport(presentation, minimal=%s)" % self.is_minimal
        return "PresentationReport(not a presentation: %s)" % self.failure_reason


def _height_or_inf(gens, ring, budget: Budget | None):
    """Height of the ideal the nonzero gens generate; inf for the unit
    ideal, where every depth bound holds."""
    if any(p.is_unit() for p in gens):
        return float("inf")
    try:
        return height(IdealBasis(gens, ring=ring), budget=budget)
    except UnitIdealError:
        return float("inf")


def check_presentation(M: PolyMatrix, budget: Budget | None = None) -> PresentationReport:
    """Decide the presentation property for a square matrix.

    M must have rank n-1. M is evaluated once at a rational point p (the
    first primes), and one elimination of those numbers gives its rank
    there: full rank at p proves full rank, which fails the test with no
    syzygy run. Otherwise the row annihilator of M is a reflexive module
    of rank 1 over a factorial ring if the rank is n-1, so it is free,
    generated by the primitive g. M is packed once into the Groebner
    engine's integer terms, as a multiple of M with no denominator, and
    its rows and columns feed the two syzygy runs, both in the engine
    (groebner._row_and_column_generators). Those of the rows, the
    run gamma(M) makes too, are the cyclic module R*g at rank n-1, and of
    rank 2 or more below; those of the columns give h. Both come back as
    primitive integer vectors, and g * M = 0 and M * h = 0 are checked once
    on the packed terms, in exact integers, under the budget; then g and h
    become monic Polynomials, for the report, u and the height. The column
    subsets of g and h are read off h and g. The shifts that grade M, its
    own or else those derived from g, are found once (_grading) and kept on
    the report. At rank n-1 the cofactor matrix C has rank 1 with columns
    in the span of g and rows in the span of h, and as both are primitive,
    C = u * g * h^T for a polynomial u. When shifts grade M and M has rank
    n-1 at p, the degrees give deg u; if it is 0, u is the constant C_ic(p)
    / (g_i(p) * h_c(p)), C_ic(p) read off the same elimination. Otherwise u
    is the quotient of one (n-1)-minor. The test requires u to be a nonzero
    constant, and the ideal of the h components to have height at least 3.
    Failures are reported, never raised. The report is kept on M: a later
    call on the same object returns it, whatever that call's budget. A run
    that exceeds its budget keeps nothing.
    """
    if "presentation" not in M._cache:
        M._cache["presentation"] = _presentation_report(M, budget)
    return M._cache["presentation"]


def _presentation_report(M: PolyMatrix, budget: Budget | None) -> PresentationReport:
    n = M.rows
    if n != M.cols or n < 2:
        raise ValueError("check_presentation needs a square matrix of size >= 2")
    is_minimal = all(p.constant_term() == 0 for row in M.entries for p in row)
    point = _evaluation_point(M.ring)
    pivots, kernel = value_left_kernel([[p.evaluate(point) for p in row]
                                        for row in M.entries])
    # full rank at p proves full rank; a rank deficit at p proves nothing
    annihilators = _row_and_column_generators(M, budget) if len(pivots) < n else None
    if annihilators is None:
        return PresentationReport(False, None, None, None, None, is_minimal,
                                  FAIL_RANK, None)
    g, h = annihilators
    # the greedy pivot columns of M leave out the last column that the
    # relation h among the columns involves, and those of M^T the last row
    # that g involves
    q = max(j for j in range(n) if not h[j].is_zero())
    last = max(i for i in range(n) if not g[i].is_zero())
    g = GammaVector(g, [j for j in range(n) if j != q])
    h = GammaVector(h, [i for i in range(n) if i != last])
    # the chain is minimal only if the annihilator entries avoid units too
    is_minimal = is_minimal and all(p.constant_term() == 0 for p in g) \
        and all(p.constant_term() == 0 for p in h)
    try:
        shifts = _grading(M, g)
    except ValueError:
        shifts = None
    unit = _constant_unit(M, g, h, shifts, point, pivots, kernel)
    if unit is None:
        # the cofactor C_iq = (-1)^(i+q) * minor without row i and column q
        # is u * g_i * h_q, and g_i * h_q is nonzero
        i = next(i for i in range(n) if not g[i].is_zero())
        cofactor = minor(M, [k for k in range(n) if k != i], g.column_subset)
        try:
            unit = exact_div(cofactor if (i + q) % 2 == 0 else -cofactor, g[i] * h[q])
        except ValueError:
            raise AssertionError("cofactor matrix is not u * g * h^T") from None
    if not unit.is_unit():
        return PresentationReport(False, g, h, unit, None, is_minimal, FAIL_UNIT,
                                  shifts)
    hJ = _height_or_inf([p for p in h if not p.is_zero()], M.ring, budget)
    if hJ < 3:
        return PresentationReport(False, g, h, unit, hJ, is_minimal, FAIL_HEIGHT,
                                  shifts)
    return PresentationReport(True, g, h, unit, hJ, is_minimal, None, shifts)


def _constant_unit(M: PolyMatrix, g, h, shifts, point, pivots, kernel):
    """u of C = u * g * h^T from degrees and M's values at the point, or
    None when that route does not decide it.

    It decides when M has rank n-1 at the point p and the report's shifts
    grade M. The elimination of M(p) then leaves one column c outside its
    pivots, and the vector v with v_i = (-1)^c * C_ic(p) (see left_kernel).
    C(p) = u(p) * g(p) * h(p)^T is nonzero at that rank, so g(p) spans the
    left kernel of M(p), as v does, and h(p) the right one, where column c
    is a combination of the pivots: for v_i != 0, g_i(p) * h_c(p) != 0. g
    and h are homogeneous, as generators of graded cyclic modules, so u is
    homogeneous of degree deg C_ic - deg g_i - deg h_c; when that is 0, u
    is the constant C_ic(p) / (g_i(p) * h_c(p)).
    """
    if kernel is None or shifts is None:
        return None
    a, b = shifts
    n = M.rows
    c = next(j for j in range(n) if j not in pivots)
    i = next(k for k in range(n) if kernel[k])
    # the minor without row i and column c is homogeneous of this degree
    degree = (sum(b) - b[c]) - (sum(a) - a[i]) - g[i].degree() - h[c].degree()
    if degree != 0:
        return None
    denominator = g[i].evaluate(point) * h[c].evaluate(point)
    if not denominator:
        raise AssertionError("cofactor matrix is not u * g * h^T")
    cofactor = kernel[i] if c % 2 == 0 else -kernel[i]
    return M.ring.constant(Fraction(cofactor) / denominator)


def _grading(M: PolyMatrix, g):
    """The shifts (a, b) that grade M: M's own when it has both, or else
    a_i = deg g_i and b_j the vector_degree of column j over a. A
    ValueError, naming a grading inconsistency or an underdetermined
    grading, says why there are none."""
    if M.row_shifts is not None and M.col_shifts is not None:
        if not check_graded(M):
            raise ValueError("grading inconsistency: the shifts do not grade the matrix")
        return M.row_shifts, M.col_shifts
    a = tuple(vector_degree((p,), (0,)) for p in g)
    if None in a:
        raise ValueError("grading underdetermined: zero component of g and no shifts")
    b = tuple(vector_degree(M.column(j), a) for j in range(M.cols))
    if None in b:
        raise ValueError("grading underdetermined: zero column and no shifts")
    return a, b


def _minimal_presentation(M: PolyMatrix, budget: Budget | None, message: str):
    """The report of M; ValueError(message) unless M is a minimal presentation."""
    report = check_presentation(M, budget=budget)
    if not (report.is_presentation and report.is_minimal):
        raise ValueError(message)
    return report


def build_resolution(M: PolyMatrix, budget: Budget | None = None) -> GradedResolution:
    """Length-3 graded resolution of R/I_M for a presentation matrix M.

    The chain is R(-s) -> (+)R(-b_j) -> (+)R(-a_i) -> R with maps given by
    the transposed annihilator as a column, M itself, and gamma(M) as a row;
    s = sum(b) - sum(a). a and b are the shifts the presentation report
    found to grade M, so M is graded without a second look; the degrees of
    g and h are checked against them. With no such shifts the ValueError
    names the grading inconsistency or underdetermination. Exactness is
    certified by the rank and height criteria specialized to this shape.
    """
    report = check_presentation(M, budget=budget)
    if not report.is_presentation:
        raise ValueError("not a presentation matrix: %s" % report.failure_reason)
    ring = M.ring
    g = report.gamma.components
    h = report.gamma_transpose.components
    # with no shifts on the report, _grading raises the reason
    a, b = report.shifts or _grading(M, g)
    s = sum(b) - sum(a)
    phi1 = PolyMatrix(ring, [g], row_shifts=(0,), col_shifts=a)
    phi2 = PolyMatrix(ring, M.entries, row_shifts=a, col_shifts=b)
    phi3 = PolyMatrix(ring, [[p] for p in h], row_shifts=b, col_shifts=(s,))
    for m in (phi1, phi3):
        if not check_graded(m):
            raise ValueError("grading inconsistency in the assembled chain")
    # the composites g * M and M * h vanish: the report checked both
    # exactness, specialized: gcd(gamma) = 1 gives height(I_M) >= 2; the
    # submaximal minors, the entries of C = u * g * h^T up to sign, have
    # gcd(g) * gcd(h) = 1; the row ideal height comes from the report
    return GradedResolution(ring, [phi1, phi2, phi3], [a, b, (s,)],
                            minimal=report.is_minimal)


class ZetaReport:
    __slots__ = ("nu_I", "nu_J", "zeta", "normalized_rho", "transformed_matrix")

    def __init__(self, nu_I, nu_J, zeta, normalized_rho, transformed_matrix):
        self.nu_I = nu_I
        self.nu_J = nu_J
        self.zeta = zeta
        self.normalized_rho = tuple(normalized_rho)
        self.transformed_matrix = transformed_matrix

    def __repr__(self):
        return "ZetaReport(nu_I=%d, nu_J=%d, zeta=%d)" % (
            self.nu_I, self.nu_J, self.zeta)


def zeta(M: PolyMatrix, budget: Budget | None = None) -> ZetaReport:
    """Difference between generator counts of I_M and of its row ideal.

    Performs the basis change that zeroes the dependent components of the
    transposed annihilator, in descending index order, using membership
    cofactors; the mirrored column operations keep the chain a complex.
    The surviving components are moved to the front. The report is kept
    on M, as check_presentation's is: a later call on the same object
    returns it, whatever that call's budget, and a run that raises keeps
    nothing.
    """
    if "zeta" not in M._cache:
        M._cache["zeta"] = _zeta_report(M, budget)
    return M._cache["zeta"]


def _zeta_report(M: PolyMatrix, budget: Budget | None) -> ZetaReport:
    report = _minimal_presentation(M, budget, "zeta needs a minimal presentation matrix")
    ring = M.ring
    n = M.rows
    h = list(report.gamma_transpose.components)
    cols = [[M.entry(i, j) for i in range(n)] for j in range(n)]
    for j in range(n - 1, -1, -1):
        if h[j].is_zero():
            continue
        others = [(k, h[k]) for k in range(n) if k != j and not h[k].is_zero()]
        if not others:
            continue
        cof = member_with_cofactors(
            h[j], IdealBasis([p for _k, p in others], ring=ring), budget=budget)
        if cof is None:
            continue
        for (k, _p), c in zip(others, cof):
            if c.is_zero():
                continue
            cols[k] = [cols[k][i] + c * cols[j][i] for i in range(n)]
        h[j] = ring.zero()
    for i in range(n):
        total = ring.zero()
        for j in range(n):
            total = total + cols[j][i] * h[j]
        if not total.is_zero():
            raise AssertionError("basis change broke the annihilation identity")
    survivors = [j for j in range(n) if not h[j].is_zero()]
    J = IdealBasis([p for p in report.gamma_transpose.components
                    if not p.is_zero()], ring=ring)
    if len(survivors) != len(minimal_generators(J, budget=budget).generators):
        raise AssertionError("sweep left a non-minimal generating set")
    order = survivors + [j for j in range(n) if h[j].is_zero()]
    rho = [h[j] for j in order]
    entries = [[cols[j][i] for j in order] for i in range(n)]
    transformed = PolyMatrix(ring, entries)
    s = len(survivors)
    return ZetaReport(n, s, n - s, rho, transformed)


class DecompositionReport:
    __slots__ = ("ideal", "z_ideal", "y_ideal", "regular", "intersection_verified")

    def __init__(self, ideal, z_ideal, y_ideal, regular, intersection_verified):
        self.ideal = ideal
        self.z_ideal = z_ideal
        self.y_ideal = y_ideal
        self.regular = regular
        self.intersection_verified = intersection_verified

    def __repr__(self):
        return "DecompositionReport(regular=%s, intersection=%s)" % (
            self.regular, self.intersection_verified)


def decompose(B: PolyMatrix, budget: Budget | None = None) -> DecompositionReport:
    """Split the minor ideal of an (n+1) x n matrix along its last row.

    I is generated by the signed minors through the last row H; the test
    ideal I(B) takes all maximal minors. When the top-block determinant is
    regular modulo (H), the identity I = I(B) meet (H) is verified by a
    double-inclusion check and reported.
    """
    n = B.cols
    if B.rows != n + 1:
        raise ValueError("decompose needs an (n+1) x n matrix")
    # (-1)^i times the minor of B without row i, from one elimination; there
    # is none unless B has full column rank
    minors = left_kernel(B)[1]
    if minors is None:
        raise ValueError("decompose needs full column rank")
    ring = B.ring
    through_H = minors[:n]
    top_det = minors[n]
    ideal_I = IdealBasis(through_H, ring=ring)
    z_gens = [B.entry(n, j) for j in range(n) if not B.entry(n, j).is_zero()]
    z_ideal = IdealBasis(z_gens, ring=ring)
    y_ideal = IdealBasis(minors, ring=ring)
    if top_det.is_zero() or not z_gens:
        regular = False
    else:
        regular = ideal_equal(quotient(z_ideal, top_det, budget=budget), z_ideal,
                              budget=budget)
    verified = None
    if regular:
        meet = intersect(y_ideal, z_ideal, budget=budget)
        verified = ideal_equal(ideal_I, meet, budget=budget)
    return DecompositionReport(ideal_I, z_ideal, y_ideal, regular, verified)

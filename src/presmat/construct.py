"""Constructive realizations of prescribed Betti data.

Builders for presentation matrices with known invariants: diagonal-scaled
Koszul products, bordered matrices whose maximal minors split along a
regular row, column lifts by fresh variables, cyclic bidiagonal monomial
families and their star products, the anti-diagonal block extension, and
the induction that realizes homogeneous sequences. Every builder verifies
its own output through the presentation checks instead of trusting the
formulas. Lifts, star products and block extensions check the matrices
they take and the one they return; homogeneous_matrix writes the last
matrix of its chain in closed form and checks that one matrix when the
chain has a star or lift step. Each report stays on its matrix, so a
later step or build_resolution reads it instead of checking again.
"""

from __future__ import annotations

from .betti import ESSENTIAL, BettiSequence, _integers, classify_homogeneous
from .groebner import (
    Budget,
    IdealBasis,
    height,
    ideal_equal,
)
from .matrices import PolyMatrix, rank
from .presentation import (
    _minimal_presentation,
    build_resolution,
    check_presentation,
    decompose,
    zeta,
)
from .ring import Polynomial, RingContext, embed


def _koszul(h1, h2, h3):
    ring = h1.ring
    z = ring.zero()
    return PolyMatrix(ring, [
        [z, h3, -h2],
        [-h3, z, h1],
        [h2, -h1, z],
    ])


def _degree_of(p: Polynomial, what: str) -> int:
    if p.is_zero() or not p.is_homogeneous():
        raise ValueError("%s must be nonzero homogeneous" % what)
    return p.degree()


def prop_bet(h, g, budget: Budget | None = None):
    """Scaled Koszul presentation for I = (h1 g2 g3, h2 g1 g3, h3 g1 g2).

    h is a regular sequence of forms (height 3 is checked), g a triple of
    nonzero forms. Returns (M, I, predicted BettiSequence) where
    M = diag(g) * K(h). The prediction uses only the degrees; degenerate
    scalings (shared factors among the g) still return, but then M fails
    check_presentation and the prediction is void, which callers test.
    """
    h = list(h)
    g = list(g)
    if len(h) != 3 or len(g) != 3:
        raise ValueError("needs three h and three g")
    ring = h[0].ring
    d = [_degree_of(p, "h entries") for p in h]
    t = [_degree_of(p, "g entries") for p in g]
    if height(IdealBasis(h, ring=ring), budget=budget) != 3:
        raise ValueError("h is not a regular sequence of height 3")
    M = PolyMatrix.diagonal(ring, g) @ _koszul(*h)
    gens = [h[0] * g[1] * g[2], h[1] * g[0] * g[2], h[2] * g[0] * g[1]]
    I = IdealBasis(gens, ring=ring)
    T, D = sum(t), sum(d)
    predicted = BettiSequence(
        [T + d[i] - t[i] for i in range(3)],
        [T + D - d[j] for j in range(3)], T + D)
    return M, I, predicted


class HilbertBurchData:
    """Bordered matrix B of size (n+1) x n whose last row is (h1,h2,h3,0,..).

    The top block splits as A (first three columns) and C (the rest); the
    signed maximal minors through the last row generate the target ideal.
    Construction-time checks: full column rank, the h-triple has height 3,
    and no entry is a unit.
    """

    __slots__ = ("B", "A_block", "C_block", "h")

    def __init__(self, B: PolyMatrix, budget: Budget | None = None):
        n = B.cols
        if B.rows != n + 1 or n < 3:
            raise ValueError("needs an (n+1) x n matrix with n >= 3")
        h = [B.entry(n, j) for j in range(3)]
        if any(p.is_zero() for p in h):
            raise ValueError("last row must start with three nonzero entries")
        for j in range(3, n):
            if not B.entry(n, j).is_zero():
                raise ValueError("last row must vanish past the third column")
        for i in range(n + 1):
            for j in range(n):
                p = B.entry(i, j)
                if not p.is_zero() and p.constant_term() != 0:
                    raise ValueError("unit entry at (%d, %d)" % (i, j))
        if rank(B) != n:
            raise ValueError("matrix does not have full column rank")
        if height(IdealBasis(h, ring=B.ring), budget=budget) != 3:
            raise ValueError("h-triple is not regular of height 3")
        self.B = B
        self.h = tuple(h)
        self.A_block = B.submatrix(list(range(n)), [0, 1, 2])
        self.C_block = (B.submatrix(list(range(n)), list(range(3, n)))
                        if n > 3 else None)

    @property
    def size(self) -> int:
        return self.B.cols


def hilbert_burch_ideal(data: HilbertBurchData, budget: Budget | None = None):
    """Ideal of signed minors through the distinguished row, with its
    square presentation matrix M = (A K | C).

    The minor ideal is recomputed through decompose, which also certifies
    I = I(B) meet (h) whenever the top determinant is regular mod (h).
    The returned M is checked to present exactly that ideal with the
    maximal annihilator-zero count n - 3.
    """
    B = data.B
    ring = B.ring
    n = data.size
    AK = data.A_block @ _koszul(*data.h)
    entries = []
    for i in range(n):
        row = [AK.entry(i, j) for j in range(3)]
        if data.C_block is not None:
            row += [data.C_block.entry(i, j) for j in range(n - 3)]
        entries.append(row)
    M = PolyMatrix(ring, entries)
    split = decompose(B, budget=budget)
    I = split.ideal
    if split.regular and split.intersection_verified is False:
        raise AssertionError("minor ideal failed its intersection identity")
    rep = check_presentation(M, budget=budget)
    if not rep.is_presentation:
        raise ValueError("assembled matrix is not a presentation: %s"
                         % rep.failure_reason)
    if not ideal_equal(IdealBasis(list(rep.gamma), ring=ring), I,
                       budget=budget):
        raise AssertionError("presented ideal differs from the minor ideal")
    if rep.is_minimal and zeta(M, budget=budget).zeta != n - 3:
        raise AssertionError("annihilator zero count is not maximal")
    return I, M


def lift_matrix(M: PolyMatrix, u, fresh_vars,
                budget: Budget | None = None) -> PolyMatrix:
    """Multiply row i by the u_i-th power of a fresh variable.

    The input must be a minimal presentation matrix; so is the output,
    with generators picking up the complementary monomial factors
    g_i' = g_i * prod_{j != i} y_j^{u_j} (asserted).
    """
    n = M.rows
    u = _integers(u, "u")
    fresh_vars = list(fresh_vars)
    if len(u) != n or len(fresh_vars) != n:
        raise ValueError("need one exponent and one fresh variable per row")
    if any(x < 0 for x in u):
        raise ValueError("exponents must be nonnegative")
    before = _minimal_presentation(M, budget, "lift needs a minimal presentation matrix")
    ring = M.ring.extend(fresh_vars)  # raises on name collision
    zeros = [0] * M.ring.nvars  # the fresh variables come last
    powers = [ring.monomial(zeros + [u[j] if j == i else 0 for j in range(n)])
              for i in range(n)]  # y_i^{u_i}
    lifted = PolyMatrix(ring, [[embed(p, ring) * powers[i] for p in M.row(i)]
                               for i in range(n)])
    after = check_presentation(lifted, budget=budget)
    if not after.is_presentation or not after.is_minimal:
        raise AssertionError("lifted matrix lost the presentation property")
    for i in range(n):
        factor = ring.monomial(zeros + [0 if j == i else u[j] for j in range(n)])
        assert after.gamma[i] == embed(before.gamma[i], ring) * factor
    return lifted


class BidiagonalMatrix:
    """Square matrix with nonzero entries only on the diagonal and the
    cyclically wrapped superdiagonal (entry (n-1, 0) closes the cycle)."""

    __slots__ = ("ring", "diag", "superdiag", "_matrix")

    def __init__(self, ring: RingContext, diag, superdiag):
        diag = tuple(diag)
        superdiag = tuple(superdiag)
        n = len(diag)
        if len(superdiag) != n or n < 3:
            raise ValueError("needs matching diagonals of length >= 3")
        self.ring = ring
        self.diag = diag
        self.superdiag = superdiag
        self._matrix = PolyMatrix(ring, [  # one object keeps one report
            [diag[i] if j == i else superdiag[i] if j == (i + 1) % n else ring.zero()
             for j in range(n)] for i in range(n)])

    @property
    def size(self) -> int:
        return len(self.diag)

    def matrix(self) -> PolyMatrix:
        return self._matrix

    def entry_degree(self) -> int:
        degs = {p.degree() for p in self.diag + self.superdiag}
        if len(degs) != 1:
            raise ValueError("entry degrees are not constant")
        return degs.pop()

    def __repr__(self):
        return "BidiagonalMatrix(%d, degree %d)" % (self.size,
                                                    self.entry_degree())


def base_bidiagonal(n: int, t: int, var_names=None) -> BidiagonalMatrix:
    """Cyclic monomial family: diagonal x_{i+t}, superdiagonal -x_i.

    Annihilators come out as cyclic monomial windows: width t on the
    transposed side (relation degree drop s - b = t), width n - t - 1 on
    the generator side. Valid for 1 <= t <= (n-1)/2 odd n, (n-2)/2 even.
    """
    w = (n - 1) // 2 if n % 2 else (n - 2) // 2
    if not 1 <= t <= w:
        raise ValueError("window width %d outside [1, %d]" % (t, w))
    if var_names is None:
        var_names = ["x%d" % (i + 1) for i in range(n)]
    var_names = list(var_names)
    if len(var_names) != n:
        raise ValueError("need one variable per index")
    ring = RingContext(tuple(var_names))
    xs = [ring.variable(v) for v in var_names]
    diag = [xs[(i + t) % n] for i in range(n)]
    superdiag = [-xs[i] for i in range(n)]
    return BidiagonalMatrix(ring, diag, superdiag)


def star_product(M: BidiagonalMatrix, N: BidiagonalMatrix,
                 budget: Budget | None = None) -> BidiagonalMatrix:
    """Entrywise product on the two diagonals, sign-flipped above.

    Both factors must be minimal presentation matrices with constant entry
    degree, over disjoint variable sets. The product is again bidiagonal
    with zero determinant, and its transposed annihilator is the
    componentwise product of the factors' (asserted).
    """
    n = M.size
    if N.size != n:
        raise ValueError("size mismatch")
    shared = set(M.ring.variables) & set(N.ring.variables)
    if shared:
        raise ValueError("variable sets overlap: %s" % sorted(shared))
    M.entry_degree()
    N.entry_degree()
    left = _minimal_presentation(
        M.matrix(), budget, "left factor is not a minimal presentation matrix")
    right = _minimal_presentation(
        N.matrix(), budget, "right factor is not a minimal presentation matrix")
    ring = M.ring.extend(N.ring.variables)
    diag = [embed(M.diag[i], ring) * embed(N.diag[i], ring) for i in range(n)]
    superdiag = [-(embed(M.superdiag[i], ring) * embed(N.superdiag[i], ring))
                 for i in range(n)]
    out = BidiagonalMatrix(ring, diag, superdiag)
    h = check_presentation(out.matrix(), budget=budget).gamma_transpose
    assert h == [embed(left.gamma_transpose[i], ring)
                 * embed(right.gamma_transpose[i], ring) for i in range(n)]
    return out


_LEVEL_LETTERS = ("x", "y", "z", "u", "v", "w", "p", "q")


def homogeneous_plan(n: int, a: int, b: int):
    """Step list realizing (a^n; b^n; n(b-a)) constructively.

    Steps, innermost first: ("base", t) starts a chain; ("star", t) star
    multiplies by a fresh base with window t; ("lift",) lifts every column
    by one fresh variable. Raises with the verdict when the parameters are
    not constructively essential.
    """
    verdict = classify_homogeneous(n, a, b)
    if verdict.status != ESSENTIAL:
        raise ValueError("not constructively essential: %s" % verdict)
    w = (n - 1) // 2 if n % 2 else (n - 2) // 2
    steps = []
    H = b - a
    t = n * (b - a) - b
    while H > 1:
        if t <= (H - 1) * w:
            steps.append(("lift",))
            H -= 1
        else:
            steps.append(("star", t - (H - 1) * w))
            H -= 1
            t = H * w
    steps.append(("base", t))
    steps.reverse()
    return steps


def homogeneous_matrix(n: int, a: int, b: int,
                       budget: Budget | None = None) -> PolyMatrix:
    """Minimal presentation matrix realizing (a^n; b^n; n(b-a)).

    The matrix is the end of the chain that homogeneous_plan lays out: the
    cyclic monomial family covers b - a = 1, star products extend the window
    beyond the lift capacity, column lifts fill the rest. Every entry along
    that chain is a signed monomial, so the matrix is written in closed form.
    Level L of the plan takes the fresh variables x^L_1..x^L_n, written y^L
    for a lift level. With t_L the window of each base or star level L,

        diag_i      =  prod_L x^L_{(i + t_L) mod n} * prod_lifts y^L_i,
        superdiag_i = -prod_L x^L_i * prod_lifts y^L_i,

    and the other entries are zero. A star level's variables go before the
    ring it extends and a lift level's after, as RingContext.extend orders
    them along the chain. A matrix of more than one level is checked once,
    by one presentation report, which stays on the matrix; its shifts must
    be (a^n, b^n). A plan of one base level gives base_bidiagonal's cyclic
    family, which is returned unchecked, as the chain returned it.
    """
    steps = homogeneous_plan(n, a, b)
    names, windows, lifts = [], [], []
    for level, step in enumerate(steps):  # each level takes fresh variables
        letter = _LEVEL_LETTERS[level % len(_LEVEL_LETTERS)]
        suffix = level // len(_LEVEL_LETTERS)
        stem = letter if not suffix else "%s%d" % (letter, suffix)
        fresh = ["%s%d" % (stem, i + 1) for i in range(n)]
        if step[0] == "lift":
            names = names + fresh
            lifts.append(fresh)
        else:
            names = fresh + names
            windows.append((fresh, step[1]))
    ring = RingContext(tuple(names))
    index = {v: k for k, v in enumerate(names)}

    def monomial(variables, coeff):
        e = [0] * len(names)
        for v in variables:
            e[index[v]] = 1
        return ring.monomial(e, coeff)

    zero = ring.zero()
    entries = [[zero] * n for _ in range(n)]
    for i in range(n):
        ys = [y[i] for y in lifts]
        entries[i][i] = monomial([x[(i + t) % n] for x, t in windows] + ys, 1)
        entries[i][(i + 1) % n] = monomial([x[i] for x, _ in windows] + ys, -1)
    M = PolyMatrix(ring, entries)
    if len(steps) > 1:  # a lone base level is base_bidiagonal's family, unchecked
        report = _minimal_presentation(
            M, budget, "constructed matrix is not a minimal presentation matrix")
        assert report.shifts == ((a,) * n, (b,) * n)
    return M


def nogaeta_extend(inner, outer_shape: BettiSequence, t: int,
                   budget: Budget | None = None) -> PolyMatrix:
    """Anti-diagonal block extension realizing a non-Gaeta sequence.

    The inner matrix (realizing the reduced sequence) lands in the
    top-right block; two descending anti-diagonals of fresh-variable
    powers y_i^(b_j - a_i), z_i^(b_j - a_i) tie it to the outer degrees.
    Indices follow the 1-based layout: y on i + j = n for t-1 <= i <= n-1,
    z on i + j = n + 1 for t <= i <= n.
    """
    inner_matrix, inner_seq = inner
    n = outer_shape.n
    if not 4 <= t <= n:
        raise ValueError("block index must satisfy 4 <= t <= n")
    if inner_seq.n != t - 1 or inner_matrix.rows != t - 1:
        raise ValueError("inner data must have t - 1 generators")
    if not outer_shape.is_consistent():
        raise ValueError("outer sequence is inconsistent")
    a, b, s = outer_shape.a, outer_shape.b, outer_shape.s
    for i in range(t, n + 1):
        if not b[n - i] > a[i - 1]:
            raise ValueError("degree condition b_{n+1-i} > a_i fails at i=%d"
                             % i)
    d = sum(b[n - i] - a[i - 1] for i in range(t, n + 1))
    reduced = BettiSequence([x - d for x in a[:t - 1]],
                            [x - d for x in b[n + 1 - t:]], s - d)
    if reduced != inner_seq:
        raise ValueError("inner sequence %r is not the reduction %r"
                         % (inner_seq, reduced))
    pre = _minimal_presentation(
        inner_matrix, budget, "inner matrix is not a minimal presentation matrix")
    y_names = {i: "y%d" % i for i in range(t - 1, n)}
    z_names = {i: "z%d" % i for i in range(t, n + 1)}
    ring = inner_matrix.ring.extend(
        [y_names[i] for i in sorted(y_names)]
        + [z_names[i] for i in sorted(z_names)])
    zero = ring.zero()
    entries = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(1, t):
        for j in range(n + 2 - t, n + 1):
            entries[i - 1][j - 1] = embed(
                inner_matrix.entry(i - 1, j - (n + 1 - t) - 1), ring)
    for i in range(t - 1, n):
        j = n - i
        entries[i - 1][j - 1] = ring.variable(y_names[i]) ** (
            b[j - 1] - a[i - 1])
    for i in range(t, n + 1):
        j = n + 1 - i
        entries[i - 1][j - 1] = ring.variable(z_names[i]) ** (
            b[j - 1] - a[i - 1])
    M = PolyMatrix(ring, entries)
    rep = check_presentation(M, budget=budget)
    if not rep.is_presentation or not rep.is_minimal:
        raise AssertionError("extension lost the presentation property: %s"
                             % rep.failure_reason)
    for j in range(n - t + 1):
        assert rep.gamma_transpose[j].is_zero()
    for j in range(n - t + 1, n):
        inner_h = embed(pre.gamma_transpose[j - (n - t + 1)], ring)
        assert rep.gamma_transpose[j] == inner_h
    res = build_resolution(M, budget=budget)
    if res.betti() != (a, b, s):
        raise AssertionError("extension realized %r instead of %r"
                             % (res.betti(), (a, b, s)))
    return M

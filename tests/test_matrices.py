"""Determinants, rank, cofactors, pfaffians, degree matrices."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import cofactor_matrix, from_sympy, oracle_det, random_form, random_poly, to_sympy
from presmat.matrices import (
    DegreeMatrix,
    PolyMatrix,
    check_graded,
    degree_matrix,
    det,
    left_kernel,
    minor,
    pfaffian,
    pfaffians,
    rank,
    value_left_kernel,
)
from presmat.ring import RingContext, exact_div

XYZT = RingContext(["x", "y", "z", "t"])

# the running 4x4 example: rows kill the column span of (zt, xt, xy, yz)
SQUARE4 = PolyMatrix.from_text(XYZT, [
    ["y", "-x", "0", "0"],
    ["0", "z", "-y", "0"],
    ["0", "0", "t", "-z"],
    ["-t", "0", "0", "x"],
])


def koszul_matrix(ring, h1, h2, h3):
    z = ring.zero()
    return PolyMatrix(ring, [[z, h3, -h2], [-h3, z, h1], [h2, -h1, z]])


def test_det_square4_vanishes():
    assert det(SQUARE4).is_zero()


def test_det_diagonal():
    ring = RingContext(["x", "y", "z"])
    d = PolyMatrix.diagonal(ring, [ring.variable(v) for v in "xyz"])
    assert det(d) == ring.parse("x*y*z")


def test_det_matches_sympy():
    # seeded square matrices in x, y, z with rational coefficients, sizes 1
    # to 4, some with a row that depends on the others
    sympy = pytest.importorskip("sympy")
    ring = RingContext(["x", "y", "z"])
    symbols = sympy.symbols(ring.variables)
    rng = random.Random(4242)
    singular = 0
    for k in range(40):
        n = 1 + k % 4
        rows = [[random_poly(rng, ring, max_terms=3, max_deg=2) for _ in range(n)]
                for _ in range(n)]
        if n > 1 and k % 3 == 0:
            c = random_poly(rng, ring, max_terms=2, max_deg=1)
            rows[-1] = [c * p for p in rows[0]]
        theirs = sympy.Matrix([[to_sympy(sympy, p, symbols) for p in row]
                               for row in rows]).det(method="berkowitz")
        want = from_sympy(sympy, sympy.expand(theirs), ring, symbols)
        assert det(PolyMatrix(ring, rows)) == want
        singular += want.is_zero()
    assert singular >= 5


def test_det_nonsquare_rejected():
    m = PolyMatrix.from_text(XYZT, [["x", "y", "z", "t"]])
    with pytest.raises(ValueError):
        det(m)


def test_cofactor_matrix_rank_one_structure():
    # oracle: Laplace-expansion cofactors; then C = u * outer(g, h)
    C = cofactor_matrix(SQUARE4)
    n = 4
    for i in range(n):
        for j in range(n):
            rows = [[SQUARE4.entry(r, c) for c in range(n) if c != j]
                    for r in range(n) if r != i]
            expected = oracle_det(rows)
            if (i + j) % 2 == 1:
                expected = -expected
            assert C.entry(i, j) == expected
    g = [XYZT.parse(s) for s in ("z*t", "x*t", "x*y", "y*z")]
    h = [XYZT.parse(s) for s in ("x", "y", "z", "t")]
    # find the unit from the first nonzero product
    u = exact_div(C.entry(0, 0), g[0] * h[0])
    assert u.is_unit()
    for i in range(n):
        for j in range(n):
            assert C.entry(i, j) == u * g[i] * h[j]


def test_rank_koszul():
    ring = RingContext(["x", "y", "z"])
    K = koszul_matrix(ring, *(ring.variable(v) for v in "xyz"))
    assert rank(K) == 2


def test_rank_square4():
    assert rank(SQUARE4) == 3


def test_rank_zero_matrix():
    z = XYZT.zero()
    assert rank(PolyMatrix(XYZT, [[z, z], [z, z]])) == 0


def test_pfaffians_size3():
    ring = RingContext(["x", "y", "z"])
    h = [ring.variable(v) for v in "xyz"]
    K = koszul_matrix(ring, *h)
    assert pfaffians(K) == h


def test_pfaffians_size5_squares_are_principal_minors():
    # oracle: p_i^2 equals the principal 4x4 minor omitting row/col i
    ring = RingContext(["x", "y", "z", "u", "v"])
    rng = random.Random(515)
    names = list(ring.variables)
    upper = {}
    for i in range(5):
        for j in range(i + 1, 5):
            e = [0] * 5
            e[rng.randrange(5)] += 1
            e[rng.randrange(5)] += 1
            upper[(i, j)] = ring.monomial(tuple(e), rng.choice([-2, -1, 1, 2]))
    z = ring.zero()
    entries = [[z] * 5 for _ in range(5)]
    for (i, j), p in upper.items():
        entries[i][j] = p
        entries[j][i] = -p
    M = PolyMatrix(ring, entries)
    ps = pfaffians(M)
    for i in range(5):
        sub = M.delete(row=i, col=i)
        assert ps[i] * ps[i] == oracle_det(sub.entries)
    assert det(M).is_zero()  # odd alternating


def test_pfaffians_zero_matrix():
    z = XYZT.zero()
    M = PolyMatrix(XYZT, [[z] * 3 for _ in range(3)])
    assert all(p.is_zero() for p in pfaffians(M))


def test_pfaffians_reject_bad_input():
    with pytest.raises(ValueError):
        pfaffians(SQUARE4)  # not alternating
    ring = RingContext(["x"])
    z = ring.zero()
    x = ring.variable("x")
    M = PolyMatrix(ring, [[z, x], [-x, z]])
    with pytest.raises(ValueError):
        pfaffians(M)  # even size
    assert pfaffian(M) == x


def test_pfaffian_kernel_identity():
    ring = RingContext(["x", "y", "z"])
    K = koszul_matrix(ring, *(ring.variable(v) for v in "xyz"))
    ps = pfaffians(K)
    for i in range(3):
        s = ring.zero()
        for j in range(3):
            s = s + K.entry(i, j) * ps[j]
        assert s.is_zero()


def cyclic_bidiagonal(n: int, width: int, names):
    """Bidiagonal matrix whose columns are the adjacent syzygies of the
    cyclic products of `width` consecutive variables."""
    ring = RingContext(names)
    xs = [ring.variable(v) for v in names]
    z = ring.zero()
    entries = [[z] * n for _ in range(n)]
    for i in range(n):
        entries[i][i] = -xs[(i - 1) % n]
        entries[i][(i + 1) % n] = xs[(i + width) % n]
    return ring, PolyMatrix(ring, entries,
                            row_shifts=[width] * n,
                            col_shifts=[width + 1] * n)


def test_degree_matrix_cyclic_six():
    _, M = cyclic_bidiagonal(6, 3, list("xyztuv"))
    assert check_graded(M)
    D = degree_matrix(M)
    assert all(d == 1 for row in D.entries for d in row)


def test_degree_matrix_diagonal_squares():
    ring = RingContext(["x", "y"])
    M = PolyMatrix(ring,
                   [[ring.parse("x^2"), ring.zero()],
                    [ring.zero(), ring.parse("y^2")]],
                   row_shifts=[0, 0], col_shifts=[2, 2])
    assert check_graded(M)
    assert degree_matrix(M) == DegreeMatrix([[2, 2], [2, 2]])


def test_check_graded_rejects_inhomogeneous_entry():
    ring = RingContext(["x"])
    M = PolyMatrix(ring, [[ring.parse("x + x^2")]],
                   row_shifts=[0], col_shifts=[1])
    assert not check_graded(M)


def check_graded_by_entry(M):
    """The entry-by-entry check_graded that the column rule replaced, kept
    as its oracle."""
    for i in range(M.rows):
        for j in range(M.cols):
            p = M.entries[i][j]
            if p.is_zero():
                continue
            if not p.is_homogeneous():
                return False
            if p.degree() != M.col_shifts[j] - M.row_shifts[i]:
                return False
    return True


def test_check_graded_matches_the_entry_by_entry_oracle():
    # graded matrices spoilt by zero columns, inhomogeneous entries and
    # shifts that are off by one
    rng = random.Random(2323)
    ring = RingContext(["x", "y", "z"])
    kinds = {"zero column": 0, "inhomogeneous": 0, "off by one": 0, "graded": 0}
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = [rng.randint(0, 3) for _ in range(rows)]
        b = [rng.randint(3, 5) for _ in range(cols)]
        zero = rng.randrange(cols) if rng.random() < 0.3 else None
        kinds["zero column"] += zero is not None
        entries = [[ring.zero() if j == zero or rng.random() < 0.2
                    else random_form(rng, ring, b[j] - a[i]) for j in range(cols)]
                   for i in range(rows)]
        if rng.random() < 0.2:
            i, j = rng.randrange(rows), rng.randrange(cols)
            entries[i][j] = entries[i][j] + random_form(rng, ring, b[j] - a[i] + 1)
            kinds["inhomogeneous"] += 1
        if rng.random() < 0.3:
            shifts = a if rng.random() < 0.5 else b
            shifts[rng.randrange(len(shifts))] += rng.choice((-1, 1))
            kinds["off by one"] += 1
        M = PolyMatrix(ring, entries, row_shifts=a, col_shifts=b)
        graded = check_graded_by_entry(M)
        assert check_graded(M) == graded
        kinds["graded"] += graded
    assert min(kinds.values()) >= 40, kinds


def test_degree_matrix_needs_shifts():
    with pytest.raises(ValueError):
        degree_matrix(SQUARE4)
    with pytest.raises(ValueError):
        check_graded(SQUARE4)


def test_minor_conventions():
    assert minor(SQUARE4, [], []) == XYZT.one()
    assert minor(SQUARE4, [0, 1], [0, 1]) == XYZT.parse("y*z")
    with pytest.raises(ValueError):
        minor(SQUARE4, [0], [0, 1])


# -- property suites ---------------------------------------------------------

def random_matrix(rng, ring, n, m=None, max_deg=2):
    m = n if m is None else m
    return PolyMatrix(ring, [[random_poly(rng, ring, max_terms=2, max_deg=max_deg)
                              for _ in range(m)] for _ in range(n)])


def test_bareiss_matches_cofactor_expansion():
    rng = random.Random(2006)
    ring = RingContext(["x", "y"])
    for i in range(210):
        n = rng.randint(1, 5)
        M = random_matrix(rng, ring, n, max_deg=1 if n >= 4 else 2)
        assert det(M) == oracle_det(M.entries)


def test_cofactor_identity():
    rng = random.Random(333)
    ring = RingContext(["x", "y", "z"])
    for _ in range(60):
        n = rng.randint(2, 4)
        M = random_matrix(rng, ring, n, max_deg=1)
        adj = cofactor_matrix(M).transpose()
        d = det(M)
        for prod in (adj @ M, M @ adj):
            for i in range(n):
                for j in range(n):
                    assert prod.entry(i, j) == (d if i == j else ring.zero())


def linear_matrix(rng, ring, n, m):
    return PolyMatrix(ring, [[random_form(rng, ring, 1, max_terms=2)
                              for _ in range(m)] for _ in range(n)])


def cofactor_oracle(M):
    """C_ij as one Bareiss determinant per entry: the definition itself."""
    n = M.rows
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            m = det(M.delete(row=i, col=j))
            row.append(m if (i + j) % 2 == 0 else -m)
        out.append(tuple(row))
    return tuple(out)


@pytest.mark.parametrize("deficiency", [0, 1, 2])
def test_cofactor_matrix_matches_determinant_oracle(deficiency):
    # linear forms times a constant matrix of inner size n - deficiency:
    # full rank, rank n-1, and rank <= n-2, where every cofactor vanishes
    rng = random.Random(3100 + deficiency)
    ring = RingContext(["x", "y", "z"])
    exact = 0
    for _ in range(40):
        n = rng.randint(max(2, deficiency + 1), 5)
        r = n - deficiency
        M = linear_matrix(rng, ring, n, r)
        if deficiency:
            M = M @ PolyMatrix(ring, [[ring.constant(rng.randint(-2, 2))
                                       for _ in range(n)] for _ in range(r)])
        C = cofactor_matrix(M)
        assert C.entries == cofactor_oracle(M)
        assert C.is_zero() == (rank(M) <= n - 2)
        exact += rank(M) == r
    # random factors may lose rank by chance; nearly all keep it
    assert exact >= 36


def test_cofactor_matrix_matches_determinant_oracle_on_sweep(sweep_matrices):
    assert len(sweep_matrices) == 27
    for M in sweep_matrices:
        assert cofactor_matrix(M).entries == cofactor_oracle(M)


def test_pivot_columns_are_first_full_rank_subset():
    # greedy pivots equal the lexicographically first full-rank column choice
    rng = random.Random(3200)
    ring = RingContext(["x", "y"])
    for _ in range(80):
        n, m = rng.randint(1, 3), rng.randint(1, 4)
        cols = [[random_poly(rng, ring, max_terms=2, max_deg=1) for _ in range(n)]
                for _ in range(m)]
        for j in range(1, m):
            if rng.random() < 0.4:  # plant a column depending on earlier ones
                c = rng.randrange(j)
                cols[j] = [2 * p for p in cols[c]]
        M = PolyMatrix(ring, [[cols[j][i] for j in range(m)] for i in range(n)])
        r = rank(M)
        first = () if r == 0 else next(
            s for s in combinations(range(m), r)
            if rank(M.submatrix(range(n), s)) == r)
        assert tuple(left_kernel(M)[0]) == first


def laplace_pivots(M):
    """The lexicographically first column subset of the largest size with
    a nonzero maximal minor, by Laplace expansion."""
    for k in range(min(M.rows, M.cols), 0, -1):
        for cols in combinations(range(M.cols), k):
            if any(oracle_det([[M.entries[i][j] for j in cols] for i in rows])
                   for rows in combinations(range(M.rows), k)):
                return cols
    return ()


def laplace_left_kernel(M, cols):
    """v_i = (-1)^i * det(M restricted to cols, without row i), one
    Laplace determinant per entry; the empty determinant is 1."""
    one = M.ring.one()
    out = []
    for i in range(M.rows):
        rows = [r for r in range(M.rows) if r != i]
        d = oracle_det([[M.entries[r][j] for j in cols] for r in rows]) \
            if rows else one
        out.append(d if i % 2 == 0 else -d)
    return out


@pytest.mark.parametrize("shape", ["square", "wide", "tall"])
def test_left_kernel_matches_determinant_oracle(shape):
    # square n x n, n x m with m >= n - 1, and (n+1) x n; a constant factor
    # of inner size r plants rank r, below rows - 1 included
    rng = random.Random({"square": 3300, "wide": 3301, "tall": 3302}[shape])
    ring = RingContext(["x", "y", "z"])
    kernels = deficient = 0
    for _ in range(40):
        if shape == "tall":
            m = rng.randint(1, 3)
            n = m + 1
        else:
            n = rng.randint(1, 4)
            m = n if shape == "square" else rng.randint(max(1, n - 1), n + 2)
        r = rng.randint(0, min(n, m))
        if r == 0:
            M = PolyMatrix(ring, [[ring.zero()] * m for _ in range(n)])
        else:
            M = linear_matrix(rng, ring, n, r) @ PolyMatrix(
                ring, [[ring.constant(rng.randint(-2, 2)) for _ in range(m)]
                       for _ in range(r)])
        pivots, v = left_kernel(M)
        expected = laplace_pivots(M)
        assert tuple(pivots) == expected
        if len(expected) != n - 1:
            assert v is None
            deficient += len(expected) < n - 1
            continue
        assert v == laplace_left_kernel(M, expected)
        assert any(v)
        for j in range(m):
            assert sum((v[i] * M.entries[i][j] for i in range(n)),
                       ring.zero()).is_zero()
        kernels += 1
    assert kernels >= 8 and deficient >= 4


def test_rank_transpose_symmetry():
    rng = random.Random(99)
    ring = RingContext(["x", "y"])
    for _ in range(120):
        M = random_matrix(rng, ring, rng.randint(1, 4), rng.randint(1, 4), max_deg=1)
        assert rank(M) == rank(M.transpose())


def test_rank_detects_planted_dependency():
    # rows: r random rows plus polynomial combinations of them
    rng = random.Random(4242)
    ring = RingContext(["x", "y"])
    for _ in range(60):
        r = rng.randint(1, 3)
        cols = r + rng.randint(1, 2)
        base = [[random_form(rng, ring, 1, max_terms=2) for _ in range(cols)]
                for _ in range(r)]
        rows = list(base)
        for _ in range(rng.randint(1, 2)):
            coeffs = [random_poly(rng, ring, max_terms=1, max_deg=1) for _ in range(r)]
            rows.append([sum((coeffs[k] * base[k][j] for k in range(r)),
                             ring.zero()) for j in range(cols)])
        M = PolyMatrix(ring, rows)
        assert rank(M) <= r
        assert rank(M) == rank(M.transpose())


def test_degree_matrix_monotone_for_sorted_shifts():
    rng = random.Random(77)
    ring = RingContext(["x", "y", "z"])
    for _ in range(40):
        n = rng.randint(2, 4)
        a = sorted(rng.randint(1, 4) for _ in range(n))            # ascending
        b = sorted((rng.randint(5, 8) for _ in range(n)), reverse=True)
        entries = [[random_form(rng, ring, b[j] - a[i]) for j in range(n)]
                   for i in range(n)]
        M = PolyMatrix(ring, entries, row_shifts=a, col_shifts=b)
        assert check_graded(M)
        assert degree_matrix(M).is_monotone()


@pytest.mark.parametrize("fractions", [False, True])
def test_value_left_kernel_matches_the_determinant_oracle(fractions):
    # numbers of rank r <= rows: a product of random n x r and r x m
    # factors, with Fraction entries in the second case
    rng = random.Random(3303 + fractions)
    kernels = deficient = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rng.randint(max(1, n - 1), n + 1)
        r = rng.randint(0, min(n, m))

        def number():
            k = rng.randint(-5, 5)
            return Fraction(k, rng.randint(1, 4)) if fractions else k

        A = [[number() for _ in range(r)] for _ in range(n)]
        B = [[number() for _ in range(m)] for _ in range(r)]
        rows = [[sum((A[i][k] * B[k][j] for k in range(r)), 0) for j in range(m)]
                for i in range(n)]
        pivots, v = value_left_kernel(rows)
        M = PolyMatrix(XYZT, [[XYZT.constant(x) for x in row] for row in rows])
        expected = laplace_pivots(M)
        assert tuple(pivots) == expected
        if len(expected) != n - 1:
            assert v is None
            deficient += 1
            continue
        assert [XYZT.constant(x) for x in v] == laplace_left_kernel(M, expected)
        if not fractions:
            assert all(type(x) is int for x in v)
        kernels += 1
    assert kernels >= 8 and deficient >= 8

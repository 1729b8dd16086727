"""Exact linear algebra over the polynomial ring.

Determinants, rank and kernels share one fraction-free (Bareiss)
elimination, so every intermediate value stays a polynomial; pivots prefer
the lowest-degree nonzero entry to limit swell. Elimination runs column by
column, so its pivot columns are the lexicographically first full-rank
column subset. Eliminating [A | I] with pivots in A's columns only gives
those pivot columns and, at rank rows - 1, all signed maximal minors of
the pivot columns (the left kernel vector) in the identity part of the
leftover row. The same elimination runs on a matrix of numbers, such as
the values of a matrix at a point (value_left_kernel). Pfaffians expand
recursively along the first row, which is fine at the sizes that occur
here.
"""

from __future__ import annotations

from fractions import Fraction
from operator import floordiv, truediv

from .ring import NEG_INF, Polynomial, RingContext, exact_div


class PolyMatrix:
    """Immutable matrix of polynomials, optionally graded by shifts.

    When row_shifts/col_shifts are present, entry (i,j) is expected to be
    zero or homogeneous of degree col_shifts[j] - row_shifts[i]; that is
    checked by check_graded, not by the constructor. _cache keeps what has
    been computed from this object, such as its presentation and zeta
    reports.
    """

    __slots__ = ("ring", "rows", "cols", "entries", "row_shifts", "col_shifts", "_cache")

    def __init__(self, ring: RingContext, entries, row_shifts=None, col_shifts=None):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise ValueError("matrix needs at least one row and one column")
        cols = len(entries[0])
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged rows")
            for p in row:
                if not isinstance(p, Polynomial) or p.ring != ring:
                    raise ValueError("entries must share the matrix ring")
        self.ring = ring
        self.rows = len(entries)
        self.cols = cols
        self.entries = entries
        if row_shifts is not None:
            row_shifts = tuple(row_shifts)
            if len(row_shifts) != self.rows:
                raise ValueError("row_shifts length mismatch")
        if col_shifts is not None:
            col_shifts = tuple(col_shifts)
            if len(col_shifts) != self.cols:
                raise ValueError("col_shifts length mismatch")
        self.row_shifts = row_shifts
        self.col_shifts = col_shifts
        self._cache = {}

    @classmethod
    def from_text(cls, ring: RingContext, rows, **kw) -> "PolyMatrix":
        return cls(ring, [[ring.parse(s) for s in row] for row in rows], **kw)

    @classmethod
    def identity(cls, ring: RingContext, n: int) -> "PolyMatrix":
        one, zero = ring.one(), ring.zero()
        return cls(ring, [[one if i == j else zero for j in range(n)]
                          for i in range(n)])

    @classmethod
    def diagonal(cls, ring: RingContext, diag) -> "PolyMatrix":
        zero = ring.zero()
        n = len(diag)
        return cls(ring, [[diag[i] if i == j else zero for j in range(n)]
                          for i in range(n)])

    def entry(self, i: int, j: int) -> Polynomial:
        return self.entries[i][j]

    def row(self, i: int):
        return self.entries[i]

    def column(self, j: int):
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "PolyMatrix":
        """The transpose, graded by the dual shifts: entry (j, i) keeps its
        degree b_j - a_i as -a_i - (-b_j)."""
        def dual(shifts):
            return None if shifts is None else tuple(-d for d in shifts)
        return PolyMatrix(self.ring,
                          [self.column(j) for j in range(self.cols)],
                          row_shifts=dual(self.col_shifts),
                          col_shifts=dual(self.row_shifts))

    def submatrix(self, rows, cols) -> "PolyMatrix":
        rows, cols = sorted(rows), sorted(cols)
        return PolyMatrix(self.ring,
                          [[self.entries[i][j] for j in cols] for i in rows])

    def delete(self, row: int | None = None, col: int | None = None) -> "PolyMatrix":
        rows = [i for i in range(self.rows) if i != row]
        cols = [j for j in range(self.cols) if j != col]
        return self.submatrix(rows, cols)

    def map_entries(self, f) -> "PolyMatrix":
        return PolyMatrix(self.ring,
                          [[f(p) for p in row] for row in self.entries])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows or self.ring != other.ring:
            raise ValueError("incompatible shapes or rings")
        zero = self.ring.zero()
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                s = zero
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a and b:
                        s = s + a * b
                row.append(s)
            out.append(row)
        return PolyMatrix(self.ring, out)

    def __eq__(self, other):
        return (isinstance(other, PolyMatrix)
                and self.ring == other.ring
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.ring, self.entries))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_alternating(self) -> bool:
        if not self.is_square():
            return False
        for i in range(self.rows):
            if self.entries[i][i]:
                return False
            for j in range(i + 1, self.cols):
                if self.entries[i][j] != -self.entries[j][i]:
                    return False
        return True

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def __str__(self):
        return "\n".join("[" + ", ".join(str(p) for p in row) + "]"
                         for row in self.entries)

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols} over {self.ring!r})"


class DegreeMatrix:
    """Integer matrix d_ij = col_shift_j - row_shift_i of a graded matrix."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(tuple(int(d) for d in row) for row in entries)

    def is_monotone(self) -> bool:
        """Rows nonincreasing downward and columns nonincreasing rightward."""
        e = self.entries
        for i in range(len(e)):
            for j in range(len(e[0])):
                if i + 1 < len(e) and e[i][j] < e[i + 1][j]:
                    return False
                if j + 1 < len(e[0]) and e[i][j] < e[i][j + 1]:
                    return False
        return True

    def __eq__(self, other):
        return isinstance(other, DegreeMatrix) and self.entries == other.entries

    def __repr__(self):
        return f"DegreeMatrix({[list(r) for r in self.entries]})"


# -- determinants ------------------------------------------------------------

def _degree_rank(p: Polynomial):
    d = p.degree()
    return (1, 0) if d is NEG_INF else (0, d)


def det(M: PolyMatrix) -> Polynomial:
    """Exact determinant by Bareiss elimination."""
    if not M.is_square():
        raise ValueError("determinant of a non-square matrix")
    a, pivots, sign = _eliminate(M.entries, M.cols)
    if len(pivots) < M.rows:
        return M.ring.zero()
    return a[-1][-1] if sign == 1 else -a[-1][-1]


def minor(M: PolyMatrix, rows, cols) -> Polynomial:
    """Determinant of the submatrix selecting the given rows and columns."""
    rows, cols = sorted(rows), sorted(cols)
    if len(rows) != len(cols):
        raise ValueError("minor needs equally many rows and columns")
    if not rows:
        return M.ring.one()
    if not all(0 <= i < M.rows for i in rows) or not all(0 <= j < M.cols for j in cols):
        raise ValueError("index out of range")
    return det(M.submatrix(rows, cols))


def _eliminate(rows, pivot_cols: int, div=exact_div, weight=_degree_rank):
    """Column-ordered fraction-free elimination of a copy of rows.

    Entries are polynomials, or numbers when the caller passes a matching
    exact division div and pivot weight. Each of the first pivot_cols
    columns in turn takes as pivot its nonzero entry of least weight (for
    polynomials, the lowest degree) among the rows not yet used, and is skipped
    when it has none, so the pivot columns are the greedy
    (lexicographically first) full-rank column subset; later columns, such
    as left_kernel's identity block, are only carried along. The rows below
    a pivot are cleared, dividing exactly by the previous pivot, so after k
    pivots entry (i, j), i >= k, is the determinant of the row-swapped
    input on rows 0..k-1 and i and on the pivot columns and j (Sylvester's
    identity). Products with a zero factor and the first step's division
    by 1 are skipped. Entries left of the current column are not written.

    Returns (a, pivots, sign), where sign is -1 when the row swaps are odd.
    """
    a = [list(row) for row in rows]
    nrows, ncols = len(a), len(a[0])
    prev = None  # the first step divides by 1
    pivots = []
    sign = 1
    for col in range(pivot_cols):
        r = len(pivots)
        if r == nrows:
            break
        pivot_row = None
        best = None
        for i in range(r, nrows):
            p = a[i][col]
            if p:
                dr = weight(p)
                if best is None or dr < best:
                    best, pivot_row = dr, i
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
            sign = -sign
        ar = a[r]
        pk = ar[col]
        for i in range(r + 1, nrows):
            ai = a[i]
            aik = ai[col]
            for j in range(col + 1, ncols):
                aij, arj = ai[j], ar[j]
                if aik and arj:
                    num = pk * aij - aik * arj if aij else -(aik * arj)
                elif aij:
                    num = pk * aij
                else:  # both products vanish
                    continue
                ai[j] = div(num, prev) if num and prev is not None else num
        prev = pk
        pivots.append(col)
    return a, pivots, sign


def rank(M: PolyMatrix) -> int:
    """Symbolic rank over the fraction field via fraction-free elimination."""
    return len(_eliminate(M.entries, M.cols)[1])


def left_kernel(A: PolyMatrix):
    """Pivot columns of A and, at rank rows - 1, its signed maximal minors.

    One elimination of [A | I] that pivots only in A's columns. pivots are
    the lexicographically first full-rank column subset P of A. When they
    number rows - 1, the leftover last row holds in identity column i the
    determinant of the row-swapped [A_P | e_i], which is s * (-1)^(i +
    rows - 1) * det(A_P without row i) for s the sign of the row swaps.
    Returns v_i = (-1)^i * det(A_P without row i) then, so v A = 0 and v
    is nonzero; at any other rank v is None.
    """
    ring = A.ring
    return _left_kernel(A.entries, ring.one(), ring.zero(), exact_div, _degree_rank)


def value_left_kernel(rows):
    """left_kernel of a matrix of numbers, given as rows of ints or
    Fractions: the same elimination, dividing exactly by // on ints and by
    / on Fractions, with the pivot of least absolute value."""
    if all(type(x) is int for row in rows for x in row):
        return _left_kernel(rows, 1, 0, floordiv, abs)
    rows = [[Fraction(x) for x in row] for row in rows]
    return _left_kernel(rows, Fraction(1), Fraction(0), truediv, abs)


def _left_kernel(rows, one, zero, div, weight):
    n, m = len(rows), len(rows[0])
    augmented = [list(row) + [one if k == i else zero for k in range(n)]
                 for i, row in enumerate(rows)]
    a, pivots, sign = _eliminate(augmented, m, div, weight)
    if len(pivots) != n - 1:
        return pivots, None
    tail = a[-1][m:]
    return pivots, tail if sign * (-1) ** (n - 1) == 1 else [-p for p in tail]


# -- pfaffians ---------------------------------------------------------------

def _pfaffian(M: PolyMatrix, idx: tuple) -> Polynomial:
    if not idx:
        return M.ring.one()
    i0 = idx[0]
    rest = idx[1:]
    total = M.ring.zero()
    for k, j in enumerate(rest):
        a = M.entries[i0][j]
        if a:
            sub = rest[:k] + rest[k + 1:]
            term = a * _pfaffian(M, sub)
            total = total + term if k % 2 == 0 else total - term
    return total


def pfaffians(M: PolyMatrix) -> list:
    """Submaximal pfaffians p_1..p_n of an odd-size alternating matrix.

    Signs follow the kernel convention: p_i = (-1)^i pf(M with row and
    column i deleted), zero-based, so M times the pfaffian column is 0.
    """
    if not M.is_alternating():
        raise ValueError("pfaffians need an alternating matrix")
    n = M.rows
    if n % 2 == 0:
        raise ValueError("submaximal pfaffians are defined here for odd size")
    out = []
    all_idx = tuple(range(n))
    for i in range(n):
        sub = all_idx[:i] + all_idx[i + 1:]
        p = _pfaffian(M, sub)
        out.append(p if i % 2 == 0 else -p)
    return out


def pfaffian(M: PolyMatrix) -> Polynomial:
    """Pfaffian of an even-size alternating matrix."""
    if not M.is_alternating():
        raise ValueError("pfaffian needs an alternating matrix")
    if M.rows % 2 == 1:
        return M.ring.zero()
    return _pfaffian(M, tuple(range(M.rows)))


# -- grading ----------------------------------------------------------------

def degree_matrix(M: PolyMatrix) -> DegreeMatrix:
    if M.row_shifts is None or M.col_shifts is None:
        raise ValueError("degree matrix needs row and column shifts")
    return DegreeMatrix([[M.col_shifts[j] - M.row_shifts[i]
                          for j in range(M.cols)] for i in range(M.rows)])


def vector_degree(vector, shifts):
    """Degree of a vector of polynomials over a free module whose basis
    vector i has degree shifts[i]: every nonzero component is homogeneous
    and deg v_i + shifts[i] is the same for all of them. None for the zero
    vector; ValueError, naming a grading inconsistency, when the vector is
    not homogeneous. This is the one grading rule: check_graded applies it
    to each column of a matrix, and the presentation layer derives shifts
    with it."""
    deg = None
    for comp, shift in zip(vector, shifts):
        if comp.is_zero():
            continue
        if not comp.is_homogeneous():
            raise ValueError("grading inconsistency: vector component is not homogeneous")
        d = comp.degree() + shift
        if deg is None:
            deg = d
        elif deg != d:
            raise ValueError("grading inconsistency: vector is not homogeneous "
                             "for the given shifts")
    return deg


def check_graded(M: PolyMatrix) -> bool:
    """Whether M's shifts grade it: every column j, over the row shifts, is
    zero or has vector_degree col_shift j; so every nonzero entry is
    homogeneous of degree col_shift - row_shift."""
    if M.row_shifts is None or M.col_shifts is None:
        raise ValueError("check_graded needs row and column shifts")
    try:
        return all(vector_degree(M.column(j), M.row_shifts) in (None, b)
                   for j, b in enumerate(M.col_shifts))
    except ValueError:
        return False

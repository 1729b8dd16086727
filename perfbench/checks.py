"""Checks of presmat's answers that do not go through presmat.

Polynomials here are plain dicts {exponent tuple: Fraction}. They are read
from the ``terms`` of the program's answers or parsed from its text output
by the small parser below, and all arithmetic is this module's own: values
at random rational points, ranks of scalar matrices, and Hilbert functions
of ideals from the ranks of their graded pieces. Nothing is compared with a
stored copy of an earlier run's output.

Every checker returns a list of failure messages; an empty list means the
answer passed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd, lcm

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|(.))")


# -- polynomials as dicts ------------------------------------------------------


def parse_poly(text: str, names) -> dict:
    """Parse presmat's rendering: signed terms like ``-3/2*x^2*y``."""
    index = {name: i for i, name in enumerate(names)}
    tokens = [(num, ident, op) for num, ident, op in _TOKEN.findall(text)
              if num or ident or op.strip()]
    pos = 0
    out: dict = {}

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None, None)

    sign = 1
    while pos < len(tokens):
        num, ident, op = peek()
        if op in ("+", "-"):
            sign = -1 if op == "-" else 1
            pos += 1
        coeff = Fraction(sign)
        expts = [0] * len(names)
        while True:
            num, ident, op = peek()
            if num:
                pos += 1
                value = Fraction(int(num))
                if peek()[2] == "/":
                    pos += 1
                    value /= int(peek()[0])
                    pos += 1
                coeff *= value
            elif ident:
                if ident not in index:
                    raise ValueError("unknown variable %r in %r" % (ident, text))
                pos += 1
                power = 1
                if peek()[2] == "^":
                    pos += 1
                    power = int(peek()[0])
                    pos += 1
                expts[index[ident]] += power
            else:
                raise ValueError("cannot parse %r" % text)
            if peek()[2] == "*":
                pos += 1
                continue
            break
        key = tuple(expts)
        out[key] = out.get(key, 0) + coeff
        if not out[key]:
            del out[key]
        sign = 1
    return out


def terms_of(p) -> dict:
    """Copy a presmat Polynomial's terms into a plain dict."""
    return {tuple(m): Fraction(c) for m, c in p.terms.items()}


def value_at(poly: dict, point) -> Fraction:
    total = Fraction(0)
    for expts, c in poly.items():
        v = c
        for x, e in zip(point, expts):
            if e:
                v *= x ** e
        total += v
    return total


def degree_of(poly: dict):
    """Degree of a nonzero homogeneous dict polynomial, None otherwise."""
    degs = {sum(m) for m in poly}
    return degs.pop() if len(degs) == 1 else None


def random_point(rng, nvars: int):
    return [Fraction(rng.randint(-97, 97), rng.randint(1, 31)) for _ in range(nvars)]


def matrix_at(rows, point):
    return [[value_at(p, point) for p in row] for row in rows]


def matmul(A, B):
    return [[sum((A[i][k] * B[k][j] for k in range(len(B))), Fraction(0))
             for j in range(len(B[0]))] for i in range(len(A))]


def rank_q(rows) -> int:
    """Rank over Q of a matrix of Fractions, by Gaussian elimination."""
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


# -- chain complexes -------------------------------------------------------------


def check_complex(maps, shifts, rng, minimal: bool = False):
    """maps[k] sends F_{k+1} to F_k; shifts[k] are F_{k+1}'s degrees.

    Checks shapes, that each entry is homogeneous of degree col shift minus
    row shift, that no map is zero, that consecutive maps compose to zero
    at random rational points and, if ``minimal``, that no entry has a
    nonzero constant term.
    """
    bad = []
    if len(maps) != len(shifts) or not maps:
        return ["%d maps but %d shift lists" % (len(maps), len(shifts))]
    nvars = None
    row_shifts = (0,)
    for k, (rows, cols) in enumerate(zip(maps, shifts)):
        if len(rows) != len(row_shifts) or any(len(r) != len(cols) for r in rows):
            bad.append("map %d has shape %dx%s, shifts say %dx%d"
                       % (k, len(rows), {len(r) for r in rows},
                          len(row_shifts), len(cols)))
            return bad
        for i, row in enumerate(rows):
            for j, p in enumerate(row):
                if not p:
                    continue
                nvars = len(next(iter(p)))
                if degree_of(p) != cols[j] - row_shifts[i]:
                    bad.append("map %d entry (%d,%d) has degree %s, shifts give %d"
                               % (k, i, j, degree_of(p), cols[j] - row_shifts[i]))
                if minimal and p.get((0,) * nvars):
                    bad.append("map %d entry (%d,%d) has a unit term" % (k, i, j))
        if all(not p for row in rows for p in row):
            bad.append("map %d is zero" % k)
        row_shifts = cols
    if bad or nvars is None:
        return bad or ["every map is zero"]
    for _ in range(2):
        pt = random_point(rng, nvars)
        vals = [matrix_at(rows, pt) for rows in maps]
        for k in range(len(vals) - 1):
            prod = matmul(vals[k], vals[k + 1])
            if any(x for row in prod for x in row):
                bad.append("maps %d and %d do not compose to zero" % (k, k + 1))
    return bad


# -- Hilbert functions ---------------------------------------------------------------


def _monomials(nvars: int, degree: int):
    return [tuple(c.count(i) for i in range(nvars))
            for c in combinations_with_replacement(range(nvars), degree)]


def _integer_row(poly: dict, shift, index) -> list:
    den = lcm(*(c.denominator for c in poly.values()))
    row = [0] * len(index)
    for m, c in poly.items():
        row[index[tuple(a + b for a, b in zip(m, shift))]] = int(c * den)
    return row


class _Echelon:
    """Row echelon form over Z of a growing set of integer rows; its rank is
    the rank over Q of the rows added."""

    def __init__(self):
        self.pivots = {}  # leading column -> primitive row

    def reduce(self, row):
        row = list(row)
        while True:
            lead = next((c for c, x in enumerate(row) if x), None)
            if lead is None or lead not in self.pivots:
                return row, lead
            p = self.pivots[lead]
            a, b = row[lead], p[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            row = [b * x - a * y for x, y in zip(row, p)]
            content = gcd(*row)
            if content > 1:
                row = [x // content for x in row]

    def add(self, row) -> bool:
        row, lead = self.reduce(row)
        if lead is None:
            return False
        self.pivots[lead] = row
        return True


def hilbert_function_by_rank(gens, nvars: int, degrees, extra=()):
    """dim (R/I)_d for each d, with I_d spanned by monomial multiples of gens.

    Also reports whether each polynomial in ``extra`` lies in I (in its own
    degree). Generators and extras are homogeneous dict polynomials.
    """
    hf = {}
    inside = [None] * len(extra)
    for d in degrees:
        monos = _monomials(nvars, d)
        index = {m: i for i, m in enumerate(monos)}
        ech = _Echelon()
        for g in gens:
            dg = degree_of(g)
            if dg is not None and dg <= d:
                for shift in _monomials(nvars, d - dg):
                    ech.add(_integer_row(g, shift, index))
        hf[d] = len(monos) - len(ech.pivots)
        for k, p in enumerate(extra):
            if p and degree_of(p) == d:
                inside[k] = ech.reduce(_integer_row(p, (0,) * nvars, index))[1] is None
    return hf, inside


def hilbert_function_from_shifts(shifts, nvars: int, degrees):
    """dim (R/I)_d from the graded Betti numbers of a free resolution."""
    modules = [(0,)] + [tuple(s) for s in shifts]

    def free_rank(j, d):
        return comb(d - j + nvars - 1, nvars - 1) if d >= j else 0

    return {d: sum((-1) ** k * sum(free_rank(j, d) for j in mod)
                   for k, mod in enumerate(modules)) for d in degrees}


# -- checkers, one per workload ------------------------------------------------------


def check_uniform(case, answer, rng):
    """Paper construction (a^n; b^n; n(b-a)) resolved by build_resolution."""
    n, a, b = case
    maps, shifts = answer
    bad = []
    want = [(a,) * n, (b,) * n, (n * (b - a),)]
    got = [tuple(sorted(s)) for s in shifts]
    if got != want:
        bad.append("shifts %s, closed form %s" % (got, want))
    bad += check_complex(maps, shifts, rng)
    if not bad:
        nvars = len(next(iter(next(p for row in maps[1] for p in row if p))))
        middle = matrix_at(maps[1], random_point(rng, nvars))
        if rank_q(middle) != n - 1:
            bad.append("presentation matrix has rank %d at a random point, want %d"
                       % (rank_q(middle), n - 1))
    return bad


def check_ideal(ideal, answer, rng):
    """minimal_free_resolution of R/I, with I given by its generators."""
    gens, nvars = ideal
    maps, shifts = answer
    bad = check_complex(maps, shifts, rng, minimal=True)
    if bad:
        return bad
    # a resolution cut short ends in a map with a kernel
    ranks = [1] + [len(s) for s in shifts]
    if sum((-1) ** k * r for k, r in enumerate(ranks)):
        bad.append("free ranks %s do not sum to rank 0 for R/I" % ranks)
    if rank_q(matrix_at(maps[-1], random_point(rng, nvars))) != len(shifts[-1]):
        bad.append("the last map is not injective at a random point")
    top = max(max(s) for s in shifts)
    degrees = range(0, top + 2)
    firsts = [p for p in maps[0][0] if p]
    hf, inside = hilbert_function_by_rank(gens, nvars, degrees, firsts)
    if not all(inside):
        bad.append("a generator of the first map is not in the ideal")
    from_betti = hilbert_function_from_shifts(shifts, nvars, degrees)
    if hf != from_betti:
        bad.append("Hilbert function %s, from the Betti numbers %s"
                   % (sorted(hf.items()), sorted(from_betti.items())))
    return bad


def annihilates(vector, rows, names, rng, side: str = "left") -> bool:
    """vector * M == 0 (left) or M * vector == 0 (right) at a random point."""
    pt = random_point(rng, len(names))
    v = [value_at(parse_poly(t, names), pt) for t in vector]
    m = [[value_at(parse_poly(t, names), pt) for t in row] for row in rows]
    if side == "left":
        prod = [sum((v[i] * m[i][j] for i in range(len(m))), Fraction(0))
                for j in range(len(m[0]))]
    else:
        prod = [sum((m[i][j] * v[j] for j in range(len(v))), Fraction(0))
                for i in range(len(m))]
    return any(v) and not any(prod)


def same_sequence(got, want) -> bool:
    """Betti data {a, b, s} equal as multisets of twists."""
    return (isinstance(got, dict) and sorted(got.get("a", ())) == sorted(want["a"])
            and sorted(got.get("b", ())) == sorted(want["b"])
            and got.get("s") == want["s"])


def check_document(doc, answer, rng):
    """One CLI call: exit code, verdict, and the document's own expectations."""
    code, report = answer
    bad = []
    if code != doc["exit"]:
        bad.append("exit code %s, expected %s" % (code, doc["exit"]))
    if report.get("verdict") != doc["verdict"]:
        bad.append("verdict %r, expected %r" % (report.get("verdict"), doc["verdict"]))
    if bad:
        return bad
    result = report.get("result") or {}
    for kind, arg in doc["expect"]:
        if not _EXPECTATIONS[kind](result, arg, rng):
            bad.append("%s expectation failed" % kind)
    return bad


def _field(result, path):
    for key in path.split("."):
        result = result[key]
    return result


def _expect_equal(result, arg, rng):
    path, want = arg
    return _field(result, path) == want


def _expect_sorted(result, arg, rng):
    path, want, names = arg
    got = sorted(tuple(sorted(parse_poly(t, names).items()))
                 for t in _field(result, path))
    return got == sorted(tuple(sorted(parse_poly(t, names).items())) for t in want)


def _expect_betti(result, arg, rng):
    path, want = arg
    return same_sequence(_field(result, path), want)


def _expect_annihilates(result, arg, rng):
    vec_path, rows, names, side = arg
    if isinstance(rows, str):  # the matrix and its ring are part of the answer
        rows, names = _field(result, rows), _field(result, names)
    return annihilates(_field(result, vec_path), rows, names, rng, side)


def _expect_uniform_matrix(result, arg, rng):
    """construct homogeneous: n x n, entries of degree b - a, rank n - 1."""
    n, a, b = arg
    names, rows = result["ring"], result["matrix"]
    if len(rows) != n or any(len(r) != n for r in rows):
        return False
    polys = [[parse_poly(t, names) for t in row] for row in rows]
    if any(p and degree_of(p) != b - a for row in polys for p in row):
        return False
    return rank_q(matrix_at(polys, random_point(rng, len(names)))) == n - 1


_EXPECTATIONS = {
    "equal": _expect_equal,
    "sorted": _expect_sorted,
    "betti": _expect_betti,
    "annihilates": _expect_annihilates,
    "uniform_matrix": _expect_uniform_matrix,
}

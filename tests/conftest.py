"""Shared helpers for the test suite: seeded random polynomial generators,
the determinant and cofactor oracles and the paper's uniform sweep matrices."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from presmat.matrices import PolyMatrix, left_kernel
from presmat.ring import Polynomial, RingContext


def random_monomial(rng: random.Random, nvars: int, max_deg: int = 3):
    e = [0] * nvars
    for _ in range(rng.randint(0, max_deg)):
        e[rng.randrange(nvars)] += 1
    return tuple(e)


def random_poly(rng: random.Random, ring: RingContext, max_terms: int = 4,
                max_deg: int = 3, allow_zero: bool = True) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        m = random_monomial(rng, ring.nvars, max_deg)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            terms[m] = c
    p = Polynomial(ring, terms)
    if not allow_zero and p.is_zero():
        return ring.one()
    return p


def random_form(rng: random.Random, ring: RingContext, degree: int,
                max_terms: int = 3) -> Polynomial:
    """Random nonzero homogeneous polynomial of the given degree."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * ring.nvars
        for _ in range(degree):
            e[rng.randrange(ring.nvars)] += 1
        c = Fraction(rng.randint(-3, 3))
        if c:
            terms[tuple(e)] = c
    p = Polynomial(ring, terms)
    if p.is_zero():
        e = [0] * ring.nvars
        e[0] = degree
        p = ring.monomial(tuple(e))
    return p


def oracle_det(rows):
    """Naive Laplace-expansion determinant; the cross-check oracle."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        a = rows[0][j]
        sub = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = a * oracle_det(sub)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


def cofactor_matrix(M: PolyMatrix) -> PolyMatrix:
    """C_ij = (-1)^(i+j) * minor deleting row i and column j.

    Column j is (-1)^j times the left kernel vector of M with column j
    deleted, or zero when that n x (n-1) matrix has rank below n - 1, so
    the matrix costs n eliminations rather than n^2 determinants.
    """
    if not M.is_square():
        raise ValueError("cofactor matrix of a non-square matrix")
    n = M.rows
    if n == 1:
        return PolyMatrix(M.ring, [[M.ring.one()]])
    cols = []
    for j in range(n):
        v = left_kernel(M.delete(col=j))[1] or [M.ring.zero()] * n
        cols.append(v if j % 2 == 0 else [-p for p in v])
    return PolyMatrix(M.ring, zip(*cols))


def to_sympy(sympy, p: Polynomial, symbols):
    """p as a sympy expression in the given symbols."""
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.prod(s ** e for s, e in zip(symbols, m))
                for m, c in p.terms.items()), sympy.Integer(0))


def from_sympy(sympy, expr, ring: RingContext, symbols) -> Polynomial:
    """The sympy expression expr as a Polynomial of ring."""
    return Polynomial(ring, {tuple(m): Fraction(int(c.p), int(c.q))
                             for m, c in sympy.Poly(expr, *symbols).terms()})


@pytest.fixture(scope="session")
def sweep_matrices():
    """homogeneous_matrix for each of the paper's 27 uniform cases, built once."""
    from presmat import homogeneous_matrix
    from test_acceptance import _uniform_construction_cases
    return [homogeneous_matrix(n, a, b) for n, a, b in _uniform_construction_cases()]

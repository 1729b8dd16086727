"""Graded Betti numbers of R/I from Koszul homology: a test oracle that
shares no code with the resolution.

beta_{i,j}(R/I) = dim_Q H_i(K(x_1..x_n) (x) R/I)_j, and in degree j the
complex is wedge^i Q^n (x) (R/I)_{j-i}. So

    beta_{i,j} = C(n, i) * dim (R/I)_{j-i} - rank dbar_i - rank dbar_{i+1},

where dbar_i is the Koszul differential of degree j taken modulo I:

    rank dbar_i = dim(d_i(K_i (x) R_{j-i}) + K_{i-1} (x) I_{j-i+1})
                  - dim(K_{i-1} (x) I_{j-i+1}),

with I_d the span of the monomial multiples of the generators in degree
d. Every dimension is the rank of integer vectors over monomial keys,
found by exact elimination. No Groebner basis, syzygy or prune is used.
Reference: Eisenbud, The Geometry of Syzygies (2005), ch. 1.
"""

from collections import Counter
from itertools import combinations, combinations_with_replacement
from math import comb, gcd, lcm


def monomials(nvars, degree):
    """Exponent tuples of every monomial of the given degree."""
    if degree < 0:
        return []
    return [tuple(c.count(v) for v in range(nvars))
            for c in combinations_with_replacement(range(nvars), degree)]


class Span:
    """Echelon basis over Q of integer vectors {key: int}; each row is
    primitive and stored under its largest key."""

    def __init__(self):
        self.rows = {}

    def __len__(self):
        return len(self.rows)

    def add(self, v) -> bool:
        """Reduce v against the rows; keep it and return True when it is
        independent of them."""
        v = {k: c for k, c in v.items() if c}
        while v:
            pivot = max(v)
            row = self.rows.get(pivot)
            if row is None:
                g = gcd(*v.values())
                self.rows[pivot] = {k: c // g for k, c in v.items()}
                return True
            g = gcd(row[pivot], v[pivot])
            a, b = row[pivot] // g, v[pivot] // g
            v = {k: a * c for k, c in v.items()}
            for k, c in row.items():
                c = v.get(k, 0) - b * c
                if c:
                    v[k] = c
                else:
                    del v[k]
        return False


class KoszulOracle:
    """Koszul homology of R/I for nonzero homogeneous generators of I,
    given as Polynomials in nvars variables."""

    def __init__(self, generators, nvars):
        self.nvars = nvars
        self.gens = []
        for g in generators:
            scale = lcm(*(c.denominator for c in g.terms.values()))
            self.gens.append((g.degree(), {m: int(c * scale)
                                           for m, c in g.terms.items()}))
        self._ideal = {}
        self._ranks = {}

    def ideal_basis(self, d):
        """Echelon rows of I_d."""
        if d not in self._ideal:
            span = Span()
            for deg, terms in self.gens:
                for u in monomials(self.nvars, d - deg):
                    span.add({tuple(a + b for a, b in zip(u, m)): c
                              for m, c in terms.items()})
            self._ideal[d] = list(span.rows.values())
        return self._ideal[d]

    def quotient_dim(self, d):
        """dim_Q (R/I)_d."""
        if d < 0:
            return 0
        return comb(d + self.nvars - 1, self.nvars - 1) - len(self.ideal_basis(d))

    def rank_dbar(self, i, j):
        """Rank of dbar_i: wedge^i (x) (R/I)_{j-i} -> wedge^{i-1} (x) (R/I)_{j-i+1}."""
        n, d = self.nvars, j - i
        if i < 1 or i > n or d < 0:
            return 0
        if (i, j) not in self._ranks:
            span = Span()
            for T in combinations(range(n), i - 1):
                for row in self.ideal_basis(d + 1):
                    span.add({(T, m): c for m, c in row.items()})
            base = len(span)
            for S in combinations(range(n), i):
                for u in monomials(n, d):
                    image = {}
                    for k, s in enumerate(S):
                        m = list(u)
                        m[s] += 1
                        image[(S[:k] + S[k + 1:], tuple(m))] = (-1) ** k
                    span.add(image)
            self._ranks[(i, j)] = len(span) - base
        return self._ranks[(i, j)]

    def window(self):
        """A degree past which every beta_{i,j}(R/I) vanishes, from I alone.

        For a monomial ideal, the degree of the lcm of the generators (the
        Taylor resolution). For an m-primary ideal, nvars + s with s the top
        degree of R/I, as K_i (x) R/I vanishes in degrees past i + s. With
        generators of degree at most D, an m-primary ideal contains a
        regular sequence of nvars forms of degree D, so R/I vanishes past
        nvars * (D - 1), the socle degree of that complete intersection.
        """
        n = self.nvars
        if all(len(terms) == 1 for _deg, terms in self.gens):
            return sum(max(m[v] for _deg, terms in self.gens for m in terms)
                       for v in range(n))
        bound = n * (max(deg for deg, _terms in self.gens) - 1)
        if self.quotient_dim(bound + 1):
            raise ValueError("no Betti window: I is neither monomial nor m-primary")
        return n + max(d for d in range(bound + 1) if self.quotient_dim(d))

    def betti(self, top=None):
        """{(i, j): beta_{i,j}(R/I)} for the nonzero numbers with j <= top,
        by default the whole table."""
        if top is None:
            top = self.window()
        table = {}
        for i in range(self.nvars + 1):
            for j in range(i, top + 1):
                beta = (comb(self.nvars, i) * self.quotient_dim(j - i)
                        - self.rank_dbar(i, j) - self.rank_dbar(i + 1, j))
                if beta:
                    table[(i, j)] = beta
        return table


def resolution_betti(res):
    """{(i, j): beta_{i,j}} read from the shifts of a resolution of R/I."""
    table = Counter({(0, 0): 1})
    for k, shifts in enumerate(res.shifts):
        table.update((k + 1, s) for s in shifts)
    return dict(table)


def assert_koszul_agrees(I, res):
    """The shifts of res are the whole graded Betti table of R/I."""
    gens = [g for g in I.generators if not g.is_zero()]
    assert resolution_betti(res) == KoszulOracle(gens, I.ring.nvars).betti()

"""Groebner engine: normal forms, membership with cofactors, dimension and
height, Hilbert functions, intersection/quotient and the polynomial gcd
built on it, module bases, syzygies, the syzygy runs of a packed matrix
that the presentation test reads, and minimal graded free resolutions.

One engine serves ideals and submodules of free modules, and so does the
API above it: an IdealBasis is the rank-1 module of its generators, with
columns (g,) and grading (0,), so every basis, normal form, syzygy and prune
runs on the columns of a ModuleBasis or an IdealBasis alike. The module
order is position-over-term (e_0 > e_1 > ...) refined by the ring order.
Internally the engine is fraction-free: an element is a list of (key, pack,
coefficient) terms with integer coefficients, where key and pack are
integers linear in the exponents (see _Encoding), and basis elements are
kept primitive. That format is known to this module alone: _packed is the
one conversion of a Polynomial into terms, and _terms_to_polys the way
back. Normal forms reduce a heap of keys by r <- a*r - b*x^s*g and report
the integer scale they applied. Inputs are cleared of denominators on the
way in, and results are divided back on the way out, so callers see the
same Fraction polynomials, monic where a reduced basis is returned.
One completion loop, _complete, serves bases, prunes and intersections:
it runs Buchberger with the Gebauer-Moller pair criteria, taking pairs by
sugar degree from a heap, to the end or through a given sugar. Every run is
in the ring of its input, in that ring's order; an intersection is read off
the basis of a submodule of R^2 (see intersect), with no new variable. Each
IdealBasis or ModuleBasis caches one reduced, untracked basis.
Representations of basis elements in terms of the input generators are
tracked on demand by the basis of the augmented module [F | I]: input i
carries one tag term at position rank + i, below every real position, so
each element's representation is the tail of its own term list, kept by
the same integer arithmetic. That yields membership cofactors, and
syzygies as the tag parts of the S-vectors that the tracked run reduces
to zero (Schreyer; Moller-Mora); so a tracked run keeps the coprime-lead
(Koszul) pairs, which an untracked run of rank 1 skips. Membership
cofactors need the tags but no relations: their run carries the tags,
keeps no relations and skips those pairs. Neither run is cached:
syzygies read the relations of the run itself, and membership cofactors
reduce their own tagged basis. Minimal generators
of ideals and graded modules come from one incremental completion per
call, truncated at the degree of the candidate under test. A resolution
passes from one level to the next as primitive engine vectors, not
Polynomials (La Scala-Stillman); that of a complete intersection is its
Koszul complex, built after one height test.
"""

from __future__ import annotations

import time
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, islice
from math import comb, gcd as igcd, inf, lcm
from operator import add, sub
from struct import Struct

from .matrices import PolyMatrix, check_graded, vector_degree
from .ring import Polynomial, RingContext, exact_div


class BudgetExceeded(RuntimeError):
    """Computation hit a time or size cap; not a mathematical failure."""


class UnitIdealError(ValueError):
    """The ideal is the whole ring where a proper ideal was required."""


class Budget:
    """Caps on a computation: wall seconds and merged monomials.

    Each Groebner or syzygy step stops at either cap, its seconds counted
    from the start of the step; a syzygy step is its tracked run, whose
    zero reductions are the relations, with no reduced basis, and a normal
    form or membership call's caps cover its basis as well as the
    reduction of its probe. minimal_free_resolution hands each of its steps
    the seconds that remain of its budget, so the whole call stops when
    they run out; each step keeps its own monomial cap. seconds must be
    finite and not negative: nan or inf would switch the time cap off.
    max_monomials must be an int (not a bool) and not negative.
    """

    __slots__ = ("seconds", "max_monomials")

    def __init__(self, seconds: float = 60.0, max_monomials: int = 10 ** 6):
        self.seconds = float(seconds)
        if not 0.0 <= self.seconds < inf:  # also rejects nan
            raise ValueError(f"budget seconds must be finite and not negative, "
                             f"got {seconds!r}")
        if type(max_monomials) is not int or max_monomials < 0:
            raise ValueError(f"budget max_monomials must be an int and not negative, "
                             f"got {max_monomials!r}")
        self.max_monomials = max_monomials

    def __repr__(self):
        return f"Budget(seconds={self.seconds}, max_monomials={self.max_monomials})"


DEFAULT_BUDGET = Budget()


class _Clock:
    __slots__ = ("deadline", "work", "max_work", "label")

    def __init__(self, budget: Budget | None, label: str):
        budget = budget or DEFAULT_BUDGET
        self.deadline = time.monotonic() + budget.seconds
        self.work = 0
        self.max_work = budget.max_monomials
        self.label = label

    def tick(self, amount: int):
        self.work += amount
        if self.work > self.max_work:
            raise BudgetExceeded(
                f"{self.label}: monomial budget exceeded ({self.max_work})")
        if time.monotonic() > self.deadline:
            raise BudgetExceeded(f"{self.label}: time budget exceeded")


# -- containers ---------------------------------------------------------------

class IdealBasis:
    """Ordered generators of an ideal, with a cache of its reduced basis.

    The ideal is also the rank-1 module of its generators: ambient_rank 1,
    grading (0,), and one column (g,) per generator.
    """

    __slots__ = ("ring", "generators", "_cache")
    ambient_rank = 1
    grading = (0,)

    def __init__(self, generators, ring: RingContext | None = None):
        generators = tuple(generators)
        if ring is None:
            if not generators:
                raise ValueError("empty ideal needs an explicit ring")
            ring = generators[0].ring
        for g in generators:
            if g.ring != ring:
                raise ValueError("generators must share one ring")
        self.ring = ring
        self.generators = generators
        self._cache = {}

    @property
    def columns(self):
        return tuple((g,) for g in self.generators)

    def __eq__(self, other):
        return (isinstance(other, IdealBasis) and self.ring == other.ring
                and self.generators == other.generators)

    def __repr__(self):
        return f"IdealBasis({len(self.generators)} gens over {self.ring!r})"


class ModuleBasis:
    """Ordered generating vectors of a submodule of R^ambient_rank, with a
    cache of their reduced basis."""

    __slots__ = ("ring", "ambient_rank", "generators", "grading", "_cache")

    def __init__(self, ambient_rank: int, generators, ring: RingContext | None = None,
                 grading=None):
        generators = tuple(tuple(v) for v in generators)
        if ring is None:
            if not generators:
                raise ValueError("empty module basis needs an explicit ring")
            ring = generators[0][0].ring
        for v in generators:
            if len(v) != ambient_rank:
                raise ValueError("vector length must equal ambient_rank")
            for p in v:
                if p.ring != ring:
                    raise ValueError("vector entries must share one ring")
        self.ring = ring
        self.ambient_rank = ambient_rank
        self.generators = generators
        self.grading = None if grading is None else tuple(grading)
        self._cache = {}

    @property
    def columns(self):
        return self.generators

    def __repr__(self):
        return (f"ModuleBasis(rank {self.ambient_rank}, "
                f"{len(self.generators)} gens over {self.ring!r})")


class GradedResolution:
    """Chain of graded free modules F_k -> ... -> F_1 -> F_0 = R.

    maps[k] sends F_{k+1} to F_k (rightmost map first); shifts[k] lists the
    generator degrees of F_{k+1}. Every map carries its shifts, so
    validate checks its grading with matrices.check_graded, the rule
    matrices.vector_degree applied to each column.
    """

    __slots__ = ("ring", "maps", "shifts", "minimal")

    def __init__(self, ring: RingContext, maps, shifts, minimal: bool):
        self.ring = ring
        self.maps = tuple(maps)
        self.shifts = tuple(tuple(s) for s in shifts)
        self.minimal = bool(minimal)
        if len(self.maps) != len(self.shifts):
            raise ValueError("one shift vector per map")

    def length(self) -> int:
        return len(self.maps)

    def betti(self):
        """Shifts as (a, b, s) for the length-3 rank-(n,n,1) shape."""
        if len(self.shifts) != 3 or len(self.shifts[2]) != 1:
            raise ValueError("resolution does not have the (n, n, 1) shape")
        a = tuple(sorted(self.shifts[0]))
        b = tuple(sorted(self.shifts[1], reverse=True))
        return a, b, self.shifts[2][0]

    def validate(self) -> bool:
        """Composites vanish, gradings check out, minimality honest."""
        for k, m in enumerate(self.maps):
            if not check_graded(m):
                return False
            if k + 1 < len(self.maps):
                if not (self.maps[k] @ self.maps[k + 1]).is_zero():
                    return False
            if self.minimal:
                for row in m.entries:
                    for p in row:
                        if p.constant_term() != 0:
                            return False
        return True

    def __repr__(self):
        ranks = " <- ".join(["R"] + [str(len(s)) for s in self.shifts])
        return f"GradedResolution({ranks}, minimal={self.minimal})"


# -- engine: term lists of (key, pack, int) -----------------------------------

_FIELD = 32                      # bits per exponent: one uint32 word each
_EXP_LIMIT = 1 << (_FIELD - 1)   # exponents must stay below this


class _Encoding:
    """Integer images of the terms (pos, m) of one ring, linear in m.

    pack(pos, m) holds the exponents of m in _FIELD-bit fields, with pos
    above them, so that x^a divides x^b (same position) exactly when
    (pack(b) - pack(a)) & guard == 0, for exponents below _EXP_LIMIT.
    key(pos, m) is an integer ordered as the module order orders terms:
    position over term (e_0 > e_1 > ...), then the ring order, for
    exponents below 2^_FIELD. Both are linear in m, key(pos, s + t) =
    key(0, s) + key(pos, t) and likewise pack, so a shifted term costs two
    integer additions (Bachmann-Schoenemann packed monomials).
    """

    __slots__ = ("ring", "nvars", "weights", "guard", "pos_key", "pos_bits",
                 "low", "words")

    def __init__(self, ring: RingContext):
        n = ring.nvars
        f = _FIELD
        order = ring.order
        if order == "grevlex":
            # degree over (-e_{n-1}, ..., -e_0)
            weights = [(1 << (f * n)) - (1 << (f * i)) for i in range(n)]
        elif order == "lex":
            weights = [1 << (f * (n - 1 - i)) for i in range(n)]
        else:
            # ("elim", k): lex on e[:k] over grevlex on e[k:]; the block
            # fields sit above the grevlex degree, which may exceed f bits
            k = order[1]
            rest = n - k
            top = f * (rest + 1) + n.bit_length()
            weights = [1 << (top + f * (k - 1 - j)) for j in range(k)]
            weights += [(1 << (f * rest)) - (1 << (f * (j - k)))
                        for j in range(k, n)]
        self.ring = ring
        self.nvars = n
        self.weights = tuple(weights)
        self.guard = sum(1 << (f * i + f - 1) for i in range(n))
        self.pos_key = 1 << (f * (n + 2))  # above every monomial key
        self.pos_bits = f * n
        self.low = (1 << self.pos_bits) - 1
        self.words = Struct(f"<{n}I")

    def term(self, pos: int, m) -> tuple:
        """(key, pack) of the term m at position pos."""
        key = pack = 0
        shift = 0
        for e, w in zip(m, self.weights):
            if e >= _EXP_LIMIT:
                raise BudgetExceeded("exponent beyond the Groebner engine's range")
            key += e * w
            pack += e << shift
            shift += _FIELD
        return key - pos * self.pos_key, pack + (pos << self.pos_bits)

    def mono(self, pack: int) -> tuple:
        """Exponent tuple of a packed monomial (the position is dropped)."""
        words = self.words
        return words.unpack((pack & self.low).to_bytes(words.size, "little"))


def _mono_divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _mono_lcm(a, b):
    return tuple(x if x >= y else y for x, y in zip(a, b))


def _mono_sub(a, b):
    return tuple(map(sub, a, b))


def _mono_add(a, b):
    return tuple(map(add, a, b))


def _packed(p: Polynomial, enc: _Encoding, scale: int) -> list:
    """The (key, pack, c) terms of scale * p at position 0, sorted by falling
    key, with integer c; scale is a multiple of p's denominators. This is
    the one conversion of a Polynomial into engine terms."""
    return sorted(((*enc.term(0, m), c.numerator * (scale // c.denominator))
                   for m, c in p.terms.items()), reverse=True)


def _vectors(rows, enc: _Encoding, scale: int) -> list:
    """The (terms, scale) engine vector of each row of packed entries, entry
    j at position j. Positions order the keys first, so the concatenation of
    the entries, each sorted by falling key, is too."""
    pos_key, pos_bits = enc.pos_key, enc.pos_bits
    return [([(k - j * pos_key, p + (j << pos_bits), c)
              for j, terms in enumerate(row) for k, p, c in terms], scale)
            for row in rows]


def _vecs_from_columns(vs, enc: _Encoding) -> list:
    """(terms, L) per column vector v: the integer terms of L*v, sorted by
    falling key, with L the least common denominator of v's coefficients."""
    out = []
    for v in vs:
        scale = lcm(*{c.denominator for comp in v for c in comp.terms.values()})
        out += _vectors([[_packed(comp, enc, scale) for comp in v]], enc, scale)
    return out


def _terms_to_polys(v: list, rank: int, enc: _Encoding, scale: int = 1):
    """Components of the engine vector v divided by the integer scale; terms
    at positions from rank on (tags) are left out."""
    comps = [dict() for _ in range(rank)]
    pos_bits, mono = enc.pos_bits, enc.mono
    for _key, pack, c in v:
        pos = pack >> pos_bits
        if pos < rank:
            comps[pos][mono(pack)] = Fraction(c, scale)
    return tuple(Polynomial(enc.ring, t) for t in comps)


def _tagged(vectors, rank: int, enc: _Encoding) -> list:
    """The (terms, L) vectors with input i tagged: its terms followed by the
    constant L at position rank + i, so that the tag part of any element
    built from them records it in the inputs."""
    zero = (0,) * enc.nvars
    return [v + [(*enc.term(rank + i, zero), scale)]
            for i, (v, scale) in enumerate(vectors)]


def _tag_part(v: list, rank: int, enc: _Encoding) -> list:
    """The tag terms of v moved down by rank positions: a vector in the
    free module of the inputs."""
    top = rank << enc.pos_bits
    dk = rank * enc.pos_key
    return [(k + dk, p - top, c) for k, p, c in v if p >= top]


def _primitive(v: list):
    """v divided by the gcd of its coefficients, signed so that the lead
    is positive, and that divisor."""
    g = igcd(*[c for _k, _p, c in v])
    if v[0][2] < 0:
        g = -g
    if g == 1:
        return v, 1
    return [(k, p, c // g) for k, p, c in v], g


class _Basis:
    """Working Groebner basis in a free module of the given rank.

    Elements are term lists [(key, pack, coeff)] sorted by falling key, with
    integer coefficients, primitive and with a positive lead. lpacks[i] is
    the pack of the lead of elems[i], for the divisor search in nf, and
    leads[i] its (pos, exponent tuple), for the pair criteria. Terms at
    positions from rank on are tags (see _tagged): when the inputs are
    tagged, an element [b | rho] has b = sum_i rho_i * input_i. Tags sort
    below every other term, and no lead is a tag. sizes[i] counts the terms
    of elems[i] below the tags, which is what the clock is charged for.
    relations is None but on a tracked run (see _run), where it holds the
    zero reductions of the run: vectors with only tag terms.
    """

    __slots__ = ("ring", "enc", "rank", "elems", "lpacks", "leads", "sizes",
                 "sugars", "by_pos", "relations")

    def __init__(self, enc: _Encoding, rank: int):
        self.ring = enc.ring
        self.enc = enc
        self.rank = rank
        self.elems = []
        self.lpacks = []
        self.leads = []
        self.sizes = []
        self.sugars = []
        self.by_pos = {}
        self.relations = None

    def append(self, v: list, sugar: int):
        """Store v primitive."""
        idx = len(self.elems)
        self.elems.append(None)
        self.sizes.append(None)
        pack = v[0][1]
        pos = pack >> self.enc.pos_bits
        self.lpacks.append(pack)
        self.leads.append((pos, self.enc.mono(pack)))
        self.sugars.append(sugar)
        self.by_pos.setdefault(pos, []).append(idx)
        self.replace(idx, v)
        return idx

    def replace(self, idx: int, v: list):
        """Set element idx to v primitive; v keeps its lead monomial."""
        top = self.rank << self.enc.pos_bits
        self.elems[idx] = _primitive(v)[0]
        self.sizes[idx] = sum(1 for _k, p, _c in v if p < top)

    def is_zero(self, v: list) -> bool:
        """v has no term below the tags; as tags sort last, its lead tells."""
        return not v or v[0][1] >> self.enc.pos_bits >= self.rank

    def nf(self, v, clock: _Clock | None, skip: int = -1,
           sugar: int | None = None):
        """Full normal form of v, fraction-free, with a heap of keys.

        v is an iterable of (key, pack, coeff) terms; equal keys add up.
        Returns (remainder, sigma, sugar): the remainder is a term list
        sorted by falling key and sigma a positive integer, with
        sigma * v - remainder in the span of the elements. Each step
        r <- a*r - b*x^s*elems[i] cancels the lead c*x^m of r against
        lc*x^lm with a = lc/gcd(c, lc), b = c/gcd(c, lc), and multiplies
        sigma by a. Tag terms are carried along and never reduced.
        """
        acc: dict = {}       # key -> coeff of the live remainder
        packs: dict = {}     # key -> pack, for every key seen
        for k, p, c in v:
            c += acc.get(k, 0)
            if c:
                acc[k] = c
                packs[k] = p
            else:
                acc.pop(k, None)
        heap = [-k for k in acc]
        heapify(heap)
        out = []             # (key, pack, coeff, sigma when emitted)
        sigma = 1
        guard = self.enc.guard
        pos_bits = self.enc.pos_bits
        by_pos, lpacks = self.by_pos, self.lpacks
        while heap:
            k = -heappop(heap)
            c = acc.pop(k, 0)
            if not c:
                continue  # cancelled, or a second heap entry of this key
            p = packs[k]
            if p & guard:
                raise BudgetExceeded("exponent beyond the Groebner engine's range")
            hit = -1
            for idx in by_pos.get(p >> pos_bits, ()):
                if idx != skip and not (p - lpacks[idx]) & guard:
                    hit = idx
                    break
            if hit < 0:
                out.append((k, p, c, sigma))
                continue
            elem = self.elems[hit]
            lk, _lp, lc = elem[0]
            g = igcd(c, lc)
            a, b = lc // g, c // g
            if a != 1:
                acc = {kk: cc * a for kk, cc in acc.items()}
                sigma *= a
            ks = k - lk
            s = p - lpacks[hit]
            if clock is not None:
                clock.tick(self.sizes[hit])
            for kt, pt, ct in islice(elem, 1, None):
                kk = ks + kt
                cc = acc.get(kk)
                if cc is None:
                    acc[kk] = -b * ct
                    packs[kk] = s + pt
                    heappush(heap, -kk)
                else:
                    cc -= b * ct
                    if cc:
                        acc[kk] = cc
                    else:
                        del acc[kk]
            if sugar is not None:
                sugar = max(sugar, sum(self.enc.mono(s)) + self.sugars[hit])
        r = [(k, p, c if se == sigma else c * (sigma // se))
             for k, p, c, se in out]
        return r, sigma, sugar


def _s_vector(basis: _Basis, i: int, j: int, clock: _Clock) -> list:
    """S-vector ai*x^ui*elems[i] - aj*x^uj*elems[j] of elements i and j, as
    terms whose leads cancel (left out): x^ui and x^uj lift the leads to
    their lcm, and ai = cj/g, aj = ci/g for the lead coefficients ci, cj
    and g = gcd(ci, cj)."""
    mi, mj = basis.leads[i][1], basis.leads[j][1]
    lcm = _mono_lcm(mi, mj)
    ci, cj = basis.elems[i][0][2], basis.elems[j][0][2]
    g = igcd(ci, cj)
    ai, aj = cj // g, ci // g
    clock.tick(basis.sizes[i] + basis.sizes[j])
    kui, pui = basis.enc.term(0, _mono_sub(lcm, mi))
    kuj, puj = basis.enc.term(0, _mono_sub(lcm, mj))
    s = [(k + kui, p + pui, ai * c) for k, p, c in islice(basis.elems[i], 1, None)]
    s += [(k + kuj, p + puj, -aj * c) for k, p, c in islice(basis.elems[j], 1, None)]
    return s


def _update_pairs(P: set, basis: _Basis, t: int):
    """Gebauer-Moller update of the pair set for new element t; coprime
    leads skip their pair only in untracked rank 1 (see syzygies)."""
    scalar = basis.rank == 1 and basis.relations is None
    leads = basis.leads
    tpos, tm = leads[t]
    lcms = {i: _mono_lcm(im, tm)
            for i, (ipos, im) in enumerate(leads[:t]) if ipos == tpos}
    # prune old pairs via the chain criterion
    kept = set()
    for (i, j) in P:
        ipos, im = leads[i]
        if ipos != tpos:
            kept.add((i, j))
            continue
        lcm_ij = _mono_lcm(im, leads[j][1])
        if (not _mono_divides(tm, lcm_ij)
                or lcms[i] == lcm_ij or lcms[j] == lcm_ij):
            kept.add((i, j))
    # new candidates: fixed processing order, one survivor per lcm class;
    # lead-coprime survivors still dominate others but produce no pair
    order = sorted(lcms, key=lambda i: (basis.ring._key(lcms[i]), i))
    remaining = set(order)
    survivors = []
    for i in order:
        remaining.discard(i)
        li = lcms[i]
        if scalar and li == _mono_add(leads[i][1], tm):
            survivors.append((i, True))
            continue
        if any(_mono_divides(lcms[j], li) for j in remaining):
            continue
        if any(_mono_divides(lcms[j], li) for j, _cop in survivors):
            continue
        survivors.append((i, False))
    for i, coprime in survivors:
        if not coprime:
            kept.add((i, t))
    return kept


def _complete(basis: _Basis, pairs: set, clock: _Clock, upto=None) -> set:
    """Run Buchberger on basis from its pending pairs; return the pairs left.

    Each step takes the pair of least (sugar, lcm key, j, i), where the
    sugar of (i, j) is the larger of sugars[i] and sugars[j] raised by the
    degree of its lift to the lcm, reduces the S-vector, and appends a
    remainder with a term below the tags, with its sugar; on a tracked
    basis, a remainder with only tags left is a relation among the inputs
    and joins basis.relations, and a run of tagged inputs that keeps no
    relations drops it. With upto set, the loop stops before the
    first pair whose sugar exceeds it; for elements whose sugar is their
    degree, the basis is then complete through degree upto. The ranks sit
    on a heap, each pushed when its pair is made; a pair update only drops
    old pairs, so a popped rank whose pair has left the set is skipped.
    """
    enc, sugars, leads = basis.enc, basis.sugars, basis.leads

    def pair_rank(pair):
        i, j = pair
        pos, mi = leads[i]
        mj = leads[j][1]
        lcm = _mono_lcm(mi, mj)
        d = sum(lcm)
        sugar = max(sugars[i] + d - sum(mi), sugars[j] + d - sum(mj))
        return sugar, enc.term(pos, lcm)[0], j, i

    heap = list(map(pair_rank, pairs))
    heapify(heap)
    while heap:
        sugar, _key, j, i = heappop(heap)
        if (i, j) not in pairs:
            continue
        if upto is not None and sugar > upto:
            break
        pairs.discard((i, j))
        r, _sigma, sugar = basis.nf(_s_vector(basis, i, j, clock), clock,
                                    sugar=sugar)
        if not basis.is_zero(r):
            t = basis.append(r, sugar)
            pairs = _update_pairs(pairs, basis, t)
            for k in range(t):
                if (k, t) in pairs:
                    heappush(heap, pair_rank((k, t)))
        elif r and basis.relations is not None:  # only tags remain
            basis.relations.append(r)
    return pairs


def _reduce_basis(basis: _Basis, clock: _Clock) -> _Basis:
    """Minimalize, interreduce and sort; the result is the reduced basis,
    each element primitive rather than monic."""
    order = sorted(range(len(basis.elems)), key=lambda i: (basis.elems[i][0][0], i))
    leads = basis.leads
    kept = []
    for i in order:
        pos, m = leads[i]
        if not any(leads[j][0] == pos and _mono_divides(leads[j][1], m) for j in kept):
            kept.append(i)
    out = _Basis(basis.enc, basis.rank)
    # stage the kept elements, then tail-reduce each against the others
    for i in kept:
        out.append(basis.elems[i], basis.sugars[i])
    for idx in range(len(out.elems)):
        out.replace(idx, out.nf(out.elems[idx], clock, skip=idx)[0])
    return out


# -- caching helpers ----------------------------------------------------------

def _gb(F, clock: _Clock) -> _Basis:
    """Reduced basis of the columns of an IdealBasis or ModuleBasis in F's
    ring, cached on F: untracked, elems sorted by leading term, primitive."""
    if "gb" not in F._cache:
        F._cache["gb"] = _reduce_basis(_run_columns(F, clock, False), clock)
    return F._cache["gb"]


def _run_columns(F, clock: _Clock, track: bool) -> _Basis:
    """_run on the columns of an IdealBasis or ModuleBasis, in F's ring."""
    enc = _Encoding(F.ring)
    return _run(_vecs_from_columns(F.columns, enc), F.ambient_rank, enc, clock, track)


def _run(vecs: list, rank: int, enc: _Encoding, clock: _Clock, track: bool) -> _Basis:
    """Completed, unreduced basis of the (terms, L) vectors vecs in the free
    module of the given rank. A tracked run carries the tags of the inputs
    (see _tagged); a remainder with no term below the tags counts as zero,
    so no lead is ever a tag, and joins the relations, as does the tag of
    each zero input."""
    basis = _Basis(enc, rank)
    pairs: set = set()
    if track:
        basis.relations = []
    for v in _tagged(vecs, rank, enc) if track else [v for v, _l in vecs]:
        if not basis.is_zero(v):
            sugar = max(sum(enc.mono(p)) for _k, p, _c in v)
            pairs = _update_pairs(pairs, basis, basis.append(v, sugar))
        elif track:  # a zero column: its tag e_i is a relation
            basis.relations.append(v)
    _complete(basis, pairs, clock)
    return basis


def _basis_clock(F, budget: Budget | None) -> _Clock:
    """Clock for a basis of the columns of F computed for its own sake."""
    return _Clock(budget, "groebner basis" if F.ambient_rank == 1
                  else "module groebner basis")


# -- ideal operations ---------------------------------------------------------

def groebner_basis(F, budget: Budget | None = None):
    """Reduced Groebner basis of an IdealBasis or a ModuleBasis in the order
    of its ring, of the same kind, each element monic; deterministic."""
    basis = _gb(F, _basis_clock(F, budget))
    cols = [_terms_to_polys(v, F.ambient_rank, basis.enc, v[0][2])
            for v in basis.elems]
    if isinstance(F, IdealBasis):
        out = IdealBasis([p for (p,) in cols], ring=F.ring)
    else:
        out = ModuleBasis(F.ambient_rank, cols, ring=F.ring, grading=F.grading)
    out._cache["gb"] = basis
    return out


def normal_form(p: Polynomial, I: IdealBasis, budget: Budget | None = None) -> Polynomial:
    if p.ring != I.ring:
        raise ValueError("mismatched rings")
    return module_normal_form((p,), I, budget=budget)[0]


def member(p: Polynomial, I: IdealBasis, budget: Budget | None = None) -> bool:
    return normal_form(p, I, budget=budget).is_zero()


def member_with_cofactors(p: Polynomial, I: IdealBasis,
                          budget: Budget | None = None):
    """Cofactors c with p = sum c_i * gen_i, or None when p is not in I;
    from a reduced basis of I's tagged generators, built for this call. The
    run needs the tags but keeps no relations, so it skips the coprime-lead
    pairs as an untracked run does."""
    if p.ring != I.ring:
        raise ValueError("mismatched rings")
    clock = _basis_clock(I, budget)
    enc = _Encoding(I.ring)
    tagged = _tagged(_vecs_from_columns(I.columns, enc), 1, enc)
    basis = _reduce_basis(_run([(v, 1) for v in tagged], 1, enc, clock, False), clock)
    ((v, scale),) = _vecs_from_columns([(p,)], enc)
    r, sigma, _s = basis.nf(v, clock)
    if not basis.is_zero(r):
        return None
    # sigma*scale*p = -sum_i t_i * gen_i for the tag part t of r
    return list(_terms_to_polys(_tag_part(r, 1, enc), len(I.generators), enc,
                                -sigma * scale))


def _lt_generators(I: IdealBasis, budget: Budget | None = None):
    """Minimal generators of the leading-term ideal, sorted: the leads of
    the reduced basis, which are distinct and divide no other; None when 1
    lies in I. An ideal of single terms is its own leading-term ideal, and
    its reduced basis is its divisibility-minimal monomials, so those are
    read off the generators with no basis run."""
    gens = [p for p in I.generators if p]
    if all(len(p.terms) == 1 for p in gens):
        terms = {m for p in gens for m in p.terms}
        monos = sorted(m for m in terms
                       if not any(o != m and _mono_divides(o, m) for o in terms))
    else:
        basis = _gb(I, _basis_clock(I, budget))
        monos = sorted(m for _pos, m in basis.leads)
    if any(sum(m) == 0 for m in monos):
        return None
    return monos


def dimension(I: IdealBasis, budget: Budget | None = None) -> int:
    """Krull dimension of R/I via independent sets of the leading-term ideal."""
    lt = _lt_generators(I, budget=budget)
    if lt is None:
        raise UnitIdealError("dimension undefined: 1 lies in the ideal")
    nv = I.ring.nvars
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in lt]
    best = [nv]  # best (smallest) cover size found

    def cover(uncovered, size):
        if size >= best[0]:
            return
        live = [s for s in supports if s.isdisjoint(uncovered)]
        if not live:
            best[0] = size
            return
        pivot = min(live, key=len)
        for v in sorted(pivot):
            cover(uncovered | {v}, size + 1)

    cover(frozenset(), 0)
    return nv - best[0]


def height(I: IdealBasis, budget: Budget | None = None) -> int:
    """r - dim(R/I): the smallest codimension among minimal primes."""
    return I.ring.nvars - dimension(I, budget=budget)


def _require_homogeneous(I: IdealBasis):
    for g in I.generators:
        if not g.is_homogeneous():
            raise ValueError("operation needs homogeneous generators")


def hilbert_function(I: IdealBasis, degree: int,
                     budget: Budget | None = None) -> int:
    """dim_k (R/I)_degree, from the monomial leading-term ideal."""
    _require_homogeneous(I)
    if degree < 0:
        return 0
    lt = _lt_generators(I, budget=budget)
    if lt is None:
        return 0
    nv = I.ring.nvars
    memo: dict = {}

    def count(gens: tuple, free: int, d: int) -> int:
        # monomials of degree d in `free` live variables avoiding gens
        if d < 0:
            return 0
        if any(sum(m) == 0 for m in gens):
            return 0
        if not gens:
            return comb(d + free - 1, free - 1) if free else (1 if d == 0 else 0)
        keyed = (gens, free, d)
        hit = memo.get(keyed)
        if hit is not None:
            return hit
        g = gens[0]
        x = next(i for i, e in enumerate(g) if e)
        without = tuple(m for m in gens if not m[x])
        colon = []
        for m in gens:
            if m[x]:
                colon.append(m[:x] + (m[x] - 1,) + m[x + 1:])
            else:
                colon.append(m)
        colon = tuple(sorted({m for m in colon
                              if not any(_mono_divides(o, m) and o != m
                                         for o in colon)}))
        val = count(without, free - 1, d) + count(colon, free, d - 1)
        memo[keyed] = val
        return val

    return count(tuple(lt), nv, degree)


def intersect(I: IdealBasis, J: IdealBasis, budget: Budget | None = None) -> IdealBasis:
    """I cap J, in the ring's own order: (0, h) lies in the submodule of R^2
    generated by (f, f) for f in I and (g, 0) for g in J exactly when h is
    in I cap J. Position 0 comes first in the module order, so the elements
    of its reduced basis with their lead at position 1 are the reduced basis
    of I cap J."""
    if I.ring != J.ring:
        raise ValueError("mismatched rings")
    ring = I.ring
    if not I.generators or not J.generators:
        return IdealBasis((), ring=ring)
    zero = ring.zero()
    M = ModuleBasis(2, [(f, f) for f in I.generators] + [(g, zero) for g in J.generators],
                    ring=ring)
    basis = _gb(M, _Clock(budget, "intersection"))
    meet = IdealBasis([_terms_to_polys(v, 2, basis.enc, v[0][2])[1] for v in basis.elems
                       if v[0][1] >> basis.enc.pos_bits == 1], ring=ring)
    if all(g.is_homogeneous() for g in I.generators + J.generators):
        # the module is graded, so its reduced basis is homogeneous, as the
        # prune to minimal generators needs
        return minimal_generators(meet, budget=budget)
    return meet


def quotient(I: IdealBasis, f: Polynomial, budget: Budget | None = None) -> IdealBasis:
    """The colon ideal (I : f) = (I cap (f)) / f."""
    if f.is_zero():
        raise ValueError("quotient by the zero polynomial")
    meet = intersect(I, IdealBasis([f]), budget=budget)
    return IdealBasis([exact_div(g, f) for g in meet.generators], ring=I.ring)


def gcd(p: Polynomial, q: Polynomial, budget: Budget | None = None) -> Polynomial:
    """GCD normalized to leading coefficient 1; gcd(p, 0) = monic p.

    Every divisor of a monomial is a monomial, so against a monomial the
    gcd is the exponent-wise minimum over both supports. Otherwise it is
    p / r for the generator r of the colon ideal (p) : q = (p / gcd(p, q)),
    which quotient computes under the budget.
    """
    if p.ring != q.ring:
        raise ValueError("mismatched rings")
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    if len(p.terms) == 1 or len(q.terms) == 1:
        return p.ring.monomial(map(min, *p.terms, *q.terms))
    (r,) = quotient(IdealBasis([p]), q, budget=budget).generators
    return exact_div(p, r).monic()


def ideal_contains(A: IdealBasis, B: IdealBasis, budget: Budget | None = None) -> bool:
    """Every generator of B lies in A."""
    return all(member(g, A, budget=budget) for g in B.generators)


def ideal_equal(A: IdealBasis, B: IdealBasis, budget: Budget | None = None) -> bool:
    return ideal_contains(A, B, budget=budget) and ideal_contains(B, A, budget=budget)


def _degree(v: list, grading, enc: _Encoding) -> int:
    """Degree of a nonzero homogeneous engine vector, read off its lead."""
    return sum(enc.mono(v[0][1])) + grading[v[0][1] >> enc.pos_bits]


def _prune(vectors: list, rank: int, grading, enc: _Encoding, clock: _Clock) -> list:
    """Indices in vectors of a minimal generating subset, kept greedily.

    vectors are nonzero homogeneous engine vectors of the free module of
    the given rank, its positions of the shifts grading; they are tested in
    ascending (degree, index) order. One incremental completion runs for
    the whole call, on elements whose sugar is their degree. Before a
    vector of degree d is tested, the basis of the kept vectors is
    completed through degree d; for homogeneous input that truncated basis
    decides membership in degree d. A vector is kept when its normal form
    is nonzero, and that normal form joins the basis.
    """
    degrees = [_degree(v, grading, enc) for v in vectors]
    basis = _Basis(enc, rank)
    pairs: set = set()
    kept = []
    for k in sorted(range(len(vectors)), key=lambda k: (degrees[k], k)):
        pairs = _complete(basis, pairs, clock, upto=degrees[k])
        r = basis.nf(vectors[k], clock)[0]
        if r:
            kept.append(k)
            pairs = _update_pairs(pairs, basis, basis.append(r, degrees[k]))
    return kept


def _minimal_indices(F, label: str, budget: Budget | None) -> list:
    """Indices of a minimal generating subset of the columns of F, an
    IdealBasis or a graded ModuleBasis, pruned in ascending (degree,
    index) order; zero columns are dropped."""
    columns = F.columns
    order = [i for i, v in enumerate(columns) if vector_degree(v, F.grading) is not None]
    enc = _Encoding(F.ring)
    vecs = _vecs_from_columns([columns[i] for i in order], enc)
    kept = _prune([v for v, _l in vecs], F.ambient_rank, F.grading, enc,
                  _Clock(budget, label))
    return [order[k] for k in kept]


def minimal_generators(I: IdealBasis, budget: Budget | None = None) -> IdealBasis:
    """Degree-ascending prune to a minimal homogeneous generating set."""
    _require_homogeneous(I)
    kept = _minimal_indices(I, "minimal generators", budget)
    return IdealBasis([I.generators[i] for i in kept], ring=I.ring)


# -- module operations --------------------------------------------------------

def module_normal_form(vector, M, budget: Budget | None = None):
    """Normal form of the vector over the columns of M, an IdealBasis or a
    ModuleBasis."""
    clock = _basis_clock(M, budget)
    basis = _gb(M, clock)
    ((v, scale),) = _vecs_from_columns([vector], basis.enc)
    r, sigma, _s = basis.nf(v, clock)
    return _terms_to_polys(r, M.ambient_rank, basis.enc, sigma * scale)


def module_member(vector, M: ModuleBasis, budget: Budget | None = None) -> bool:
    return all(p.is_zero() for p in module_normal_form(vector, M, budget=budget))


def module_contains(A: ModuleBasis, B: ModuleBasis,
                    budget: Budget | None = None) -> bool:
    if A.ambient_rank != B.ambient_rank:
        raise ValueError("ambient ranks differ")
    return all(module_member(v, A, budget=budget) for v in B.generators)


def syzygies(F, budget: Budget | None = None) -> ModuleBasis:
    """Generating set of the first syzygy module of the columns of F, an
    IdealBasis or a ModuleBasis, graded by their degrees when F is graded.

    Read from the run that builds the Groebner basis of the tagged inputs
    [F | I]: each input carries a tag that records it, so every element
    [b | rho] of the run has b = sum_i rho_i * input_i, and an S-vector
    that reduces to zero below the tags leaves a relation in its tag part.
    The pairs the run reduces (those the Gebauer-Moller criteria keep,
    coprime ones included) generate the syzygies of the lead terms of all
    its elements, the inputs among them, so by Schreyer's theorem their
    lifts generate the syzygies of those elements. The tags send the lift
    of a pair whose remainder joined the run to zero, and that of any
    other pair to its relation; so these relations, with the tag e_i of
    each zero input, generate the syzygies of the inputs. They are
    returned monic and without repeats, sorted by (degree, lead, support);
    the run is not reduced or cached.
    """
    if not isinstance(F, (IdealBasis, ModuleBasis)):
        raise TypeError("syzygies expects an IdealBasis or ModuleBasis")
    inputs = F.columns
    grading = None
    if F.grading is not None:
        try:
            grading = [vector_degree(v, F.grading) or 0 for v in inputs]
        except ValueError:
            grading = None
    n = len(inputs)
    if n == 0:
        raise ValueError("no generators")
    tracked = _run_columns(F, _Clock(budget, "syzygies"), True)
    cols = [_terms_to_polys(v, n, tracked.enc, v[0][2])
            for v in _syzygy_vectors(tracked)]
    return ModuleBasis(n, cols, ring=F.ring, grading=grading)


def _syzygy_vectors(tracked: _Basis) -> list:
    """The distinct relations of a tracked run as primitive vectors in the
    free module of its inputs, sorted by (degree, lead, support)."""
    enc = tracked.enc
    out = {}
    for r in tracked.relations:
        v = _primitive(_tag_part(r, tracked.rank, enc))[0]
        out.setdefault(tuple(v), v)
    return sorted(out.values(), key=lambda v: _syz_rank(v, enc))


def _syz_rank(v: list, enc: _Encoding):  # (degree of its terms, lead, support)
    support = sorted((p >> enc.pos_bits, enc.mono(p)) for _k, p, _c in v)
    return (max(sum(m) for _pos, m in support), v[0][0], support)


# -- packed matrices ----------------------------------------------------------

def _pack(M: PolyMatrix):
    """(enc, rows, scale): the entries of scale * M as engine terms, in one
    pass, scale the least common denominator of M's coefficients. rows[i][j]
    lists the (key, pack, c) of entry (i, j) at position 0, sorted by
    falling key, with integer c. scale * M has the syzygies of M, and with
    scale as every input's tag (see _tagged) a tracked run stores the
    primitive elements it stores on inputs cleared one by one."""
    enc = _Encoding(M.ring)
    scale = lcm(*{c.denominator for row in M.entries for p in row
                  for c in p.terms.values()})
    return enc, [[_packed(p, enc, scale) for p in row] for row in M.entries], scale


def _add_product(total: dict, a, b, guard: int):
    """Add the product of the packed polynomials a and b, (key, pack, c)
    terms with packs at position 0 (keys are not read), into total (pack ->
    c). A packed product is the sum of the packs; one whose exponents reach
    the engine's limit sets a guard bit, and raises BudgetExceeded rather
    than wrap."""
    get = total.get
    for _kb, pb, cb in b:
        for _ka, pa, ca in a:
            p = pa + pb
            if p & guard:
                raise BudgetExceeded("exponent beyond the Groebner engine's range")
            total[p] = get(p, 0) + ca * cb


def _assert_annihilates(g: list, h: list, rows, enc: _Encoding, clock: _Clock):
    """g * M = 0 and M * h = 0 for the primitive engine vectors g and h and
    the packed entries rows of a multiple of M, with exact integers, one dict
    per column (row); zero factors are skipped, and each product of a and b
    is charged len(a) * len(b) to clock."""
    n, low = len(rows), enc.low
    g_parts, h_parts = ([[] for _ in range(n)] for _ in range(2))
    for v, parts in ((g, g_parts), (h, h_parts)):
        for k, p, c in v:
            parts[p >> enc.pos_bits].append((k, p & low, c))
    sums = [[(g_parts[i], rows[i][j]) for i in range(n)] for j in range(n)]
    sums += [[(h_parts[j], rows[i][j]) for j in range(n)] for i in range(n)]
    for pairs in sums:
        total: dict = {}
        for a, b in pairs:
            if a and b:
                clock.tick(len(a) * len(b))
                _add_product(total, a, b, enc.guard)
        if any(total.values()):
            raise AssertionError("annihilator check failed; rank computation is off")


def _syzygy_generator(vectors: list, rank: int, enc: _Encoding,
                      budget: Budget | None):
    """The generator of the syzygy module of the (terms, scale) engine
    vectors, in the free module of the given rank, when that module is
    cyclic and nonzero, as a primitive integer vector with a positive lead;
    else None.

    A cyclic module R*v has the reduced Groebner basis {v}, since every
    element f*v has lead term lt(f)*lt(v); so a module with a one-element
    reduced basis is cyclic and one with more is not. The relations of one
    tracked run generate the module (see syzygies); when there are several,
    their reduced basis decides. Either way the vector is the one syzygies
    and groebner_basis return monic.
    """
    syz = _syzygy_vectors(_run(vectors, rank, enc, _Clock(budget, "syzygies"), True))
    if len(syz) > 1:
        clock = _Clock(budget, "module groebner basis")
        syz = _reduce_basis(_run([(v, 1) for v in syz], len(vectors), enc, clock,
                                 False), clock).elems
    return syz[0] if len(syz) == 1 else None


def _row_generator(M: PolyMatrix, budget: Budget | None):
    """(g, related) for M packed once (_pack). g generates the syzygies of
    the rows of M when they are cyclic and nonzero, as Polynomials with a
    monic lead, else it is None; related(cols) tells whether a tracked run
    of the columns cols of M finds a relation among them."""
    enc, rows, scale = _pack(M)
    g = _syzygy_generator(_vectors(rows, enc, scale), M.cols, enc, budget)
    columns = _vectors(zip(*rows), enc, scale)

    def related(cols) -> bool:
        return bool(_run([columns[c] for c in cols], M.rows, enc,
                         _Clock(budget, "syzygies"), True).relations)

    return (None if g is None else _terms_to_polys(g, M.rows, enc, g[0][2])), related


def _row_and_column_generators(M: PolyMatrix, budget: Budget | None):
    """(g, h) for the square M packed once (_pack): the generators of the
    syzygies of its rows and of its columns, as Polynomials with a monic
    lead; None when those of the rows are not cyclic and nonzero. g * M = 0
    and M * h = 0 are checked first on the packed terms, in exact integers,
    under the budget."""
    enc, rows, scale = _pack(M)
    n = M.rows
    g = _syzygy_generator(_vectors(rows, enc, scale), n, enc, budget)
    if g is None:
        return None
    h = _syzygy_generator(_vectors(zip(*rows), enc, scale), n, enc, budget)
    _assert_annihilates(g, h, rows, enc, _Clock(budget, "annihilator check"))
    return tuple(_terms_to_polys(v, n, enc, v[0][2]) for v in (g, h))


# -- resolutions --------------------------------------------------------------

def minimal_free_resolution(I: IdealBasis, max_length: int = 3,
                            budget: Budget | None = None) -> GradedResolution:
    """Minimal graded free resolution of R/I, up to max_length maps.

    The first map is a minimal homogeneous generating set f_1..f_r of I.
    When r <= nvars and height I = r (exact: the height of in(I), from a
    Groebner basis under the seconds that remain), the f_i are a regular
    sequence, resolved by their Koszul complex (Eisenbud, Commutative
    Algebra, Cor. 17.5): map k sends e_S to sum_j (-1)^j f_{s_j} e_{S - s_j}
    over the k-subsets S, each column monic, the rows rescaled to match, the
    columns sorted as the other route sorts them. Otherwise the maps are the
    iterated syzygies of tracked runs, pruned greedily to minimal generators.
    Either way the shifts are the graded Betti numbers, every entry lies in
    the maximal ideal, and the result is exact at every computed module but
    possibly the leftmost one when the call stops at max_length.
    """
    _require_homogeneous(I)
    ring = I.ring
    budget = budget or DEFAULT_BUDGET
    end = time.monotonic() + budget.seconds

    def remaining() -> Budget:
        return Budget(max(0.0, end - time.monotonic()), budget.max_monomials)

    gens = minimal_generators(I, budget=remaining()).generators
    if not gens:
        return GradedResolution(ring, (), (), minimal=True)
    if any(g.is_unit() for g in gens):
        raise UnitIdealError("unit ideal has no graded resolution")
    if len(gens) <= ring.nvars and height(IdealBasis(gens), remaining()) == len(gens):
        return _koszul_resolution(gens, max_length)
    return _resolve_by_syzygies(gens, max_length, remaining)


def _koszul_resolution(gens, max_length: int) -> GradedResolution:
    """The Koszul complex of the regular sequence gens, up to max_length maps:
    column T is w_T / lc(w_T), w_T the image of e_T in the columns before it
    (w = f on gens), so w_S = sum_j (-1)^j lc(w_T) f_{s_j} e_T, T = S - s_j."""
    ring = gens[0].ring
    enc = _Encoding(ring)
    inputs = _vecs_from_columns([(g,) for g in gens], enc)
    shifts = [tuple(g.degree() for g in gens)]
    maps = [PolyMatrix(ring, [list(gens)], row_shifts=(0,), col_shifts=shifts[0])]
    level = {(i,): (i, 1) for i in range(len(gens))}  # S: (position, lc(w_S))
    for k in range(2, min(max_length, len(gens)) + 1):
        rows, built = shifts[-1], []
        for S in combinations(range(len(gens)), k):
            parts = []
            for j, s in enumerate(S):
                p, lc = level[S[:j] + S[j + 1:]]
                parts.append((p, s, Fraction((-1) ** j * lc) / inputs[s][1]))
            v = sorted(((key - p * enc.pos_key, pack + (p << enc.pos_bits), c * q)
                        for p, s, q in parts for key, pack, c in inputs[s][0]), reverse=True)
            built.append((_degree(v, rows, enc), _syz_rank(v, enc), v, S))
        built.sort(key=lambda b: b[:2])
        cols = [_terms_to_polys(v, len(rows), enc, v[0][2]) for _d, _r, v, _S in built]
        shifts.append(tuple(b[0] for b in built))
        maps.append(PolyMatrix(ring, zip(*cols), row_shifts=rows, col_shifts=shifts[-1]))
        level = {S: (p, v[0][2]) for p, (_d, _r, v, S) in enumerate(built)}
    return GradedResolution(ring, maps, shifts, minimal=True)


def _resolve_by_syzygies(gens, max_length: int, remaining) -> GradedResolution:
    """The resolution on the minimal generators gens by iterated syzygies,
    each step under the budget remaining() gives it: the pruned relations v
    of each tracked run, tagged by lc(v) as their monic columns, are the next
    level's inputs, and become Polynomials only for the maps."""
    ring = gens[0].ring
    enc = _Encoding(ring)
    inputs = _vecs_from_columns([(g,) for g in gens], enc)
    shifts = [tuple(g.degree() for g in gens)]
    maps = [PolyMatrix(ring, [list(gens)], row_shifts=(0,), col_shifts=shifts[0])]
    while len(maps) < max_length:
        rows = shifts[-1]
        syz = _syzygy_vectors(_run(inputs, maps[-1].rows, enc,
                                   _Clock(remaining(), "syzygies"), True))
        kept = [syz[k] for k in _prune(syz, len(rows), rows, enc,
                                       _Clock(remaining(), "minimal module generators"))]
        if not kept:
            break
        cols = [_terms_to_polys(v, len(rows), enc, v[0][2]) for v in kept]
        shifts.append(tuple(_degree(v, rows, enc) for v in kept))
        maps.append(PolyMatrix(ring, zip(*cols), row_shifts=rows, col_shifts=shifts[-1]))
        inputs = [(v, v[0][2]) for v in kept]
    return GradedResolution(ring, maps, shifts, minimal=True)

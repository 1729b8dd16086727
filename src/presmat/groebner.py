"""Groebner engine: normal forms, membership with cofactors, dimension and
height, Hilbert functions, intersection/quotient, module bases, syzygies,
and minimal graded free resolutions.

One engine serves ideals and submodules of free modules. Internally an
element is a dict mapping (position, exponent tuple) to a Fraction; scalar
polynomials are the rank-1 case. The module order is position-over-term
(e_0 > e_1 > ...) refined by the ring order. Buchberger runs with the
Gebauer-Moller pair criteria and sugar-degree selection; the coprime-lead
shortcut applies only in rank 1, where it is valid. Representations of
basis elements in terms of the input generators are tracked on demand,
which yields membership cofactors and Schreyer-style syzygies; the syzygies
lift only the pairs that survive the Gebauer-Moller criteria. Minimal
generators of ideals and graded modules come from one incremental Buchberger
per call, truncated at the degree of the candidate under test.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import comb

from .matrices import PolyMatrix, check_graded
from .ring import Polynomial, RingContext, exact_div


class BudgetExceeded(RuntimeError):
    """Computation hit a time or size cap; not a mathematical failure."""


class UnitIdealError(ValueError):
    """The ideal is the whole ring where a proper ideal was required."""


class Budget:
    """Caps for one Groebner/syzygy step: wall seconds and merged monomials."""

    __slots__ = ("seconds", "max_monomials")

    def __init__(self, seconds: float = 60.0, max_monomials: int = 10 ** 6):
        self.seconds = float(seconds)
        self.max_monomials = int(max_monomials)

    def __repr__(self):
        return f"Budget(seconds={self.seconds}, max_monomials={self.max_monomials})"


DEFAULT_BUDGET = Budget()


class _Clock:
    __slots__ = ("deadline", "work", "max_work", "label")

    def __init__(self, budget: Budget, label: str):
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
    """Ordered generators of an ideal, with a per-order reduced-basis cache."""

    __slots__ = ("ring", "generators", "_cache")

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

    def __eq__(self, other):
        return (isinstance(other, IdealBasis) and self.ring == other.ring
                and self.generators == other.generators)

    def __repr__(self):
        return f"IdealBasis({len(self.generators)} gens over {self.ring!r})"


class ModuleBasis:
    """Ordered generating vectors of a submodule of R^ambient_rank."""

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

    def __repr__(self):
        return (f"ModuleBasis(rank {self.ambient_rank}, "
                f"{len(self.generators)} gens over {self.ring!r})")


class GradedResolution:
    """Chain of graded free modules F_k -> ... -> F_1 -> F_0 = R.

    maps[k] sends F_{k+1} to F_k (rightmost map first); shifts[k] lists the
    generator degrees of F_{k+1}. Every map carries its shifts, so entry
    homogeneity is checkable via matrices.check_graded.
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


# -- engine: vectors as dicts {(pos, mono): Fraction} -------------------------

def _mono_divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _mono_lcm(a, b):
    return tuple(x if x >= y else y for x, y in zip(a, b))


def _mono_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mono_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _pot_key(ring: RingContext):
    rk = ring._key
    return lambda t: (-t[0], rk(t[1]))


def _poly_to_vec(p: Polynomial, pos: int = 0) -> dict:
    return {(pos, m): c for m, c in p.terms.items()}


def _vecs_from_columns(vs, ring) -> list:
    out = []
    for v in vs:
        d = {}
        for pos, comp in enumerate(v):
            for m, c in comp.terms.items():
                d[(pos, m)] = c
        out.append(d)
    return out


def _vec_to_polys(v: dict, rank: int, ring: RingContext):
    comps = [dict() for _ in range(rank)]
    for (pos, m), c in v.items():
        comps[pos][m] = c
    return tuple(Polynomial(ring, t) for t in comps)


def _axpy(acc: dict, c: Fraction, shift, src: dict, clock: _Clock | None):
    """acc += c * x^shift * src, dropping cancellations."""
    if clock is not None:
        clock.tick(len(src))
    for (pos, m), cc in src.items():
        key = (pos, _mono_add(shift, m))
        s = acc.get(key, 0) + c * cc
        if s:
            acc[key] = s
        else:
            del acc[key]


def _scale(v: dict, c: Fraction) -> dict:
    return {t: cc * c for t, cc in v.items()}


class _Basis:
    """Working Groebner basis with cached leads and optional input tags."""

    __slots__ = ("ring", "key", "elems", "leads", "sugars", "reps", "by_pos",
                 "track")

    def __init__(self, ring: RingContext, track: bool):
        self.ring = ring
        self.key = _pot_key(ring)
        self.elems = []
        self.leads = []      # ((pos, mono), coeff)
        self.sugars = []
        self.reps = []       # dict {(input_idx, mono): coeff}
        self.by_pos = {}
        self.track = track

    def append(self, v: dict, sugar: int, rep: dict | None):
        idx = len(self.elems)
        lt = max(v, key=self.key)
        self.elems.append(v)
        self.leads.append((lt, v[lt]))
        self.sugars.append(sugar)
        self.reps.append(rep)
        self.by_pos.setdefault(lt[0], []).append(idx)
        return idx

    def nf(self, v: dict, clock: _Clock | None, skip: int = -1,
           sugar: int | None = None):
        """Full normal form of v; returns (remainder, quotients, sugar).

        quotients[i] is a scalar dict {mono: coeff} with
        v = sum_i quotients[i] * elems[i] + remainder.
        """
        r = dict(v)
        out: dict = {}
        quots: dict = {}
        key = self.key
        while r:
            t = max(r, key=key)
            c = r[t]
            pos, m = t
            hit = -1
            for idx in self.by_pos.get(pos, ()):
                if idx == skip:
                    continue
                (lpos, lm), lc = self.leads[idx]
                if _mono_divides(lm, m):
                    hit = idx
                    break
            if hit < 0:
                out[t] = c
                del r[t]
                continue
            (_, lm), lc = self.leads[hit]
            shift = _mono_sub(m, lm)
            fc = c / lc
            _axpy(r, -fc, shift, self.elems[hit], clock)
            q = quots.setdefault(hit, {})
            q[shift] = q.get(shift, 0) + fc
            if sugar is not None:
                sugar = max(sugar, sum(shift) + self.sugars[hit])
        return out, quots, sugar

    def rep_of(self, quots: dict) -> dict:
        """Compose reduction quotients with stored input representations."""
        out: dict = {}
        for idx, q in quots.items():
            rep = self.reps[idx]
            for shift, c in q.items():
                _axpy(out, c, shift, rep, None)
        return out


def _spair_parts(basis: _Basis, i: int, j: int):
    (pos, mi), ci = basis.leads[i]
    (_, mj), cj = basis.leads[j]
    lcm = _mono_lcm(mi, mj)
    return lcm, _mono_sub(lcm, mi), _mono_sub(lcm, mj), ci, cj


def _s_vector(basis: _Basis, i: int, j: int, clock: _Clock | None):
    """S-vector of elements i and j, with the multipliers x^ui, x^uj and the
    lead coefficients ci, cj it was built from."""
    _lcm, ui, uj, ci, cj = _spair_parts(basis, i, j)
    s: dict = {}
    _axpy(s, Fraction(1) / ci, ui, basis.elems[i], clock)
    _axpy(s, Fraction(-1) / cj, uj, basis.elems[j], clock)
    return s, ui, uj, ci, cj


def _update_pairs(P: set, basis: _Basis, t: int, scalar: bool):
    """Gebauer-Moller update of the pair set for new element t."""
    (tpos, tm), _ = basis.leads[t]
    lcms = {}
    for i in range(t):
        (ipos, im), _ = basis.leads[i]
        if ipos == tpos:
            lcms[i] = _mono_lcm(im, tm)
    # prune old pairs via the chain criterion
    kept = set()
    for (i, j) in P:
        (ipos, im), _ = basis.leads[i]
        if ipos != tpos:
            kept.add((i, j))
            continue
        lcm_ij = _mono_lcm(im, basis.leads[j][0][1])
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
        if scalar and li == _mono_add(basis.leads[i][0][1], tm):
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


def _buchberger(vectors, ring: RingContext, clock: _Clock | None,
                track: bool = False):
    """Reduced Groebner basis of the given vectors (dict form).

    Returns a _Basis whose elems are the reduced basis, sorted by leading
    term, monic; reps (when tracked) express each element in the inputs.
    """
    basis = _Basis(ring, track)
    scalar = all(pos == 0 for v in vectors for (pos, _m) in v)
    P: set = set()
    for i, v in enumerate(vectors):
        if not v:
            continue
        sugar = max(sum(m) for (_p, m) in v)
        rep = {(i, (0,) * ring.nvars): Fraction(1)} if track else None
        t = basis.append(dict(v), sugar, rep)
        P = _update_pairs(P, basis, t, scalar)
    pkey = basis.key

    def pair_rank(pair):
        i, j = pair
        lcm, ui, uj, _, _ = _spair_parts(basis, i, j)
        sugar = max(basis.sugars[i] + sum(ui), basis.sugars[j] + sum(uj))
        return (sugar, pkey((basis.leads[i][0][0], lcm)), j, i)

    while P:
        i, j = min(P, key=pair_rank)
        P.discard((i, j))
        s, ui, uj, ci, cj = _s_vector(basis, i, j, clock)
        sugar0 = max(basis.sugars[i] + sum(ui), basis.sugars[j] + sum(uj))
        r, quots, sugar = basis.nf(s, clock, sugar=sugar0)
        if not r:
            continue
        rep = None
        if track:
            rep = {}
            _axpy(rep, Fraction(1) / ci, ui, basis.reps[i], None)
            _axpy(rep, Fraction(-1) / cj, uj, basis.reps[j], None)
            for idx, q in quots.items():
                for shift, c in q.items():
                    _axpy(rep, -c, shift, basis.reps[idx], None)
        t = basis.append(r, sugar, rep)
        P = _update_pairs(P, basis, t, scalar)
    return _reduce_basis(basis, clock)


def _reduce_basis(basis: _Basis, clock: _Clock | None) -> _Basis:
    """Minimalize, interreduce and sort; the result is the reduced basis."""
    n = len(basis.elems)
    order = sorted(range(n), key=lambda i: (basis.key(basis.leads[i][0]), i))
    kept = []
    for i in order:
        (pos, m), _ = basis.leads[i]
        redundant = False
        for j in kept:
            (jpos, jm), _ = basis.leads[j]
            if jpos == pos and _mono_divides(jm, m):
                redundant = True
                break
        if not redundant:
            kept.append(i)
    out = _Basis(basis.ring, basis.track)
    # stage the kept elements, then tail-reduce each against the others
    for i in kept:
        out.append(dict(basis.elems[i]), basis.sugars[i],
                   None if not basis.track else dict(basis.reps[i]))
    for idx in range(len(out.elems)):
        r, quots, _ = out.nf(out.elems[idx], clock, skip=idx)
        rep = out.reps[idx]
        if out.track:
            for j, q in quots.items():
                for shift, c in q.items():
                    _axpy(rep, -c, shift, out.reps[j], None)
        lt = max(r, key=out.key)
        lc = r[lt]
        if lc != 1:
            r = _scale(r, Fraction(1) / lc)
            if out.track:
                rep = _scale(rep, Fraction(1) / lc)
        out.elems[idx] = r
        out.leads[idx] = (lt, Fraction(1))
        out.reps[idx] = rep
    return out


# -- caching helpers ----------------------------------------------------------

def _ring_with_order(ring: RingContext, order) -> RingContext:
    if order is None or order == ring.order:
        return ring
    return RingContext(ring.variables, order)


def _gb(I: IdealBasis, order=None, track: bool = False,
        budget: Budget | None = None) -> _Basis:
    ring = _ring_with_order(I.ring, order)
    key = ("gb", ring.order, track)
    hit = I._cache.get(key)
    if hit is not None:
        return hit
    if not track:
        # a tracked basis answers untracked queries too
        hit = I._cache.get(("gb", ring.order, True))
        if hit is not None:
            return hit
    clock = _Clock(budget or DEFAULT_BUDGET, "groebner basis")
    if ring is I.ring:
        gens = I.generators
    else:
        gens = tuple(Polynomial(ring, g.terms) for g in I.generators)
    vecs = [_poly_to_vec(g) for g in gens]
    basis = _buchberger(vecs, ring, clock, track=track)
    I._cache[key] = basis
    return basis


def _module_gb(M: ModuleBasis, track: bool = False,
               budget: Budget | None = None) -> _Basis:
    key = ("gb", track)
    hit = M._cache.get(key)
    if hit is not None:
        return hit
    if not track:
        hit = M._cache.get(("gb", True))
        if hit is not None:
            return hit
    clock = _Clock(budget or DEFAULT_BUDGET, "module groebner basis")
    vecs = _vecs_from_columns(M.generators, M.ring)
    basis = _buchberger(vecs, M.ring, clock, track=track)
    M._cache[key] = basis
    return basis


# -- ideal operations ---------------------------------------------------------

def groebner_basis(I: IdealBasis, order=None, budget: Budget | None = None) -> IdealBasis:
    """Reduced Groebner basis of I; deterministic for a fixed order."""
    ring = _ring_with_order(I.ring, order)
    basis = _gb(I, order, budget=budget)
    polys = [_vec_to_polys(v, 1, ring)[0] for v in basis.elems]
    out = IdealBasis(polys, ring=ring)
    out._cache[("gb", ring.order, False)] = basis
    return out


def normal_form(p: Polynomial, I: IdealBasis, budget: Budget | None = None) -> Polynomial:
    if p.ring != I.ring:
        raise ValueError("mismatched rings")
    basis = _gb(I, budget=budget)
    r, _q, _s = basis.nf(_poly_to_vec(p), None)
    return _vec_to_polys(r, 1, I.ring)[0]


def member(p: Polynomial, I: IdealBasis, budget: Budget | None = None) -> bool:
    return normal_form(p, I, budget=budget).is_zero()


def member_with_cofactors(p: Polynomial, I: IdealBasis,
                          budget: Budget | None = None):
    """Cofactors c with p = sum c_i * gen_i, or None when p is not in I."""
    if p.ring != I.ring:
        raise ValueError("mismatched rings")
    basis = _gb(I, track=True, budget=budget)
    r, quots, _ = basis.nf(_poly_to_vec(p), None)
    if r:
        return None
    rep = basis.rep_of(quots)
    cof = _vec_to_polys(rep, len(I.generators), I.ring)
    return list(cof)


def _lt_generators(I: IdealBasis, budget: Budget | None = None):
    """Minimal generators of the leading-term ideal; None entry for 1 in I."""
    basis = _gb(I, budget=budget)
    monos = [lt[1] for (lt, _c) in basis.leads]
    if any(sum(m) == 0 for m in monos):
        return None
    minimal = []
    for m in monos:
        if not any(_mono_divides(o, m) and o != m for o in monos):
            minimal.append(m)
    return sorted(set(minimal))


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


def _fresh_name(base: str, taken) -> str:
    if base not in taken:
        return base
    k = 0
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def _homogeneous_parts(p: Polynomial):
    buckets: dict = {}
    for m, c in p.terms.items():
        buckets.setdefault(sum(m), {})[m] = c
    return [Polynomial(p.ring, t) for _d, t in sorted(buckets.items())]


def intersect(I: IdealBasis, J: IdealBasis, budget: Budget | None = None) -> IdealBasis:
    """I cap J by eliminating t from t*I + (1-t)*J."""
    if I.ring != J.ring:
        raise ValueError("mismatched rings")
    ring = I.ring
    if not I.generators or not J.generators:
        return IdealBasis((), ring=ring)
    t_name = _fresh_name("t", set(ring.variables))
    elim = RingContext((t_name,) + ring.variables, order=("elim", 1))
    t = elim.variable(t_name)

    def up(p: Polynomial) -> Polynomial:
        return Polynomial(elim, {(0,) + m: c for m, c in p.terms.items()})

    gens = [t * up(f) for f in I.generators]
    gens += [(elim.one() - t) * up(g) for g in J.generators]
    clock = _Clock(budget or DEFAULT_BUDGET, "intersection")
    basis = _buchberger([_poly_to_vec(g) for g in gens], elim, clock)
    out = []
    for v in basis.elems:
        if all(m[0] == 0 for (_p, m) in v):
            out.append(Polynomial(ring, {m[1:]: c for (_p, m), c in v.items()}))
    if all(g.is_homogeneous() for g in I.generators + J.generators):
        parts = []
        for p in out:
            parts.extend(_homogeneous_parts(p))
        seen = set()
        out = []
        for p in sorted(parts, key=lambda q: (q.degree(), q.ring._key(q.lead_monomial()))):
            p = p.monic()
            if p not in seen:
                seen.add(p)
                out.append(p)
        return minimal_generators(IdealBasis(out, ring=ring), budget=budget)
    return IdealBasis(out, ring=ring)


def quotient(I: IdealBasis, f: Polynomial, budget: Budget | None = None) -> IdealBasis:
    """The colon ideal (I : f) = (I cap (f)) / f."""
    if f.is_zero():
        raise ValueError("quotient by the zero polynomial")
    meet = intersect(I, IdealBasis([f]), budget=budget)
    return IdealBasis([exact_div(g, f) for g in meet.generators], ring=I.ring)


def ideal_contains(A: IdealBasis, B: IdealBasis, budget: Budget | None = None) -> bool:
    """Every generator of B lies in A."""
    return all(member(g, A, budget=budget) for g in B.generators)


def ideal_equal(A: IdealBasis, B: IdealBasis, budget: Budget | None = None) -> bool:
    return ideal_contains(A, B, budget=budget) and ideal_contains(B, A, budget=budget)


def _prune(candidates, grading, ring: RingContext, clock: _Clock) -> list:
    """Positions in candidates of a minimal generating subset, kept greedily.

    candidates are nonzero homogeneous dict vectors as (degree, vector)
    pairs in ascending (degree, input index) order, where the degree of a
    term (pos, m) is sum(m) + grading[pos]. One incremental Buchberger runs
    for the whole call. Before a candidate of degree d is tested, the basis
    of the kept candidates is completed through degree d, using only the
    pairs of degree at most d; for homogeneous input that truncated basis
    decides membership in degree d. A candidate is kept when its normal
    form is nonzero, and that normal form joins the basis.
    """
    basis = _Basis(ring, False)
    scalar = all(pos == 0 for _d, v in candidates for (pos, _m) in v)
    P: set = set()
    pkey = basis.key

    def pair_rank(pair):
        i, j = pair
        (pos, mi), _ = basis.leads[i]
        lcm = _mono_lcm(mi, basis.leads[j][0][1])
        return (sum(lcm) + grading[pos], pkey((pos, lcm)), j, i)

    kept = []
    for k, (d, v) in enumerate(candidates):
        while P:
            rank = min(map(pair_rank, P))
            if rank[0] > d:
                break
            j, i = rank[2:]
            P.discard((i, j))
            r, _q, _s = basis.nf(_s_vector(basis, i, j, clock)[0], clock)
            if r:
                t = basis.append(r, rank[0], None)
                P = _update_pairs(P, basis, t, scalar)
        r, _q, _s = basis.nf(v, clock)
        if r:
            kept.append(k)
            t = basis.append(r, d, None)
            P = _update_pairs(P, basis, t, scalar)
    return kept


def minimal_generators(I: IdealBasis, budget: Budget | None = None) -> IdealBasis:
    """Degree-ascending prune to a minimal homogeneous generating set."""
    _require_homogeneous(I)
    candidates = sorted((g for g in I.generators if not g.is_zero()),
                        key=lambda g: g.degree())
    clock = _Clock(budget or DEFAULT_BUDGET, "minimal generators")
    kept = _prune([(g.degree(), _poly_to_vec(g)) for g in candidates], (0,),
                  I.ring, clock)
    return IdealBasis([candidates[k] for k in kept], ring=I.ring)


# -- module operations --------------------------------------------------------

def module_normal_form(vector, M: ModuleBasis, budget: Budget | None = None):
    basis = _module_gb(M, budget=budget)
    vec = {}
    for pos, comp in enumerate(vector):
        for m, c in comp.terms.items():
            vec[(pos, m)] = c
    r, _q, _s = basis.nf(vec, None)
    return _vec_to_polys(r, M.ambient_rank, M.ring)


def module_member(vector, M: ModuleBasis, budget: Budget | None = None) -> bool:
    return all(p.is_zero() for p in module_normal_form(vector, M, budget=budget))


def module_contains(A: ModuleBasis, B: ModuleBasis,
                    budget: Budget | None = None) -> bool:
    if A.ambient_rank != B.ambient_rank:
        raise ValueError("ambient ranks differ")
    return all(module_member(v, A, budget=budget) for v in B.generators)


def vector_degree(vector, shifts):
    """Degree of a homogeneous vector given source shifts; None for zero."""
    deg = None
    for comp, shift in zip(vector, shifts):
        if comp.is_zero():
            continue
        if not comp.is_homogeneous():
            raise ValueError("vector component is not homogeneous")
        d = comp.degree() + shift
        if deg is None:
            deg = d
        elif deg != d:
            raise ValueError("vector is not homogeneous for the given shifts")
    return deg


def syzygies(F, budget: Budget | None = None) -> ModuleBasis:
    """Generating set of the first syzygy module of the ordered generators.

    Schreyer-style: replay the Gebauer-Moller pair update over the tracked
    reduced basis, with the coprime shortcut off, and reduce each surviving
    S-pair to zero to read off its relation. The surviving pairs generate
    the syzygies of the lead terms, so by Schreyer's theorem their lifts
    generate the syzygies of the basis. Push the relations through the
    tracked representations, and add the rows of (Id - B*A) that witness
    how each input reduces to the basis. Zero rows are dropped.
    """
    if isinstance(F, IdealBasis):
        ring = F.ring
        inputs = [(g,) for g in F.generators]
        grading = None
        if all(g.is_homogeneous() for g in F.generators):
            grading = [g.degree() if not g.is_zero() else 0 for g in F.generators]
        tracked = _gb(F, track=True, budget=budget)
    elif isinstance(F, ModuleBasis):
        ring = F.ring
        inputs = list(F.generators)
        grading = None
        if F.grading is not None:
            try:
                grading = [vector_degree(v, F.grading) or 0 for v in F.generators]
            except ValueError:
                grading = None
        tracked = _module_gb(F, track=True, budget=budget)
    else:
        raise TypeError("syzygies expects an IdealBasis or ModuleBasis")
    n = len(inputs)
    if n == 0:
        raise ValueError("no generators")
    clock = _Clock(budget or DEFAULT_BUDGET, "syzygies")
    key = tracked.key
    syz_vecs = []
    pairs: set = set()
    for k in range(len(tracked.elems)):
        pairs = _update_pairs(pairs, tracked, k, scalar=False)
    # relations among the basis elements, composed down to the inputs
    for i, j in sorted(pairs):
        s, ui, uj, ci, cj = _s_vector(tracked, i, j, clock)
        r, quots, _ = tracked.nf(s, clock)
        if r:
            raise RuntimeError("S-pair of a Groebner basis did not vanish")
        rel: dict = {}
        _axpy(rel, Fraction(1) / ci, ui, tracked.reps[i], None)
        _axpy(rel, Fraction(-1) / cj, uj, tracked.reps[j], None)
        for idx, q in quots.items():
            for shift, c in q.items():
                _axpy(rel, -c, shift, tracked.reps[idx], None)
        if rel:
            syz_vecs.append(rel)
    # rows of (Id - B*A): how each input reduces over the basis
    vec_inputs = _vecs_from_columns(inputs, ring)
    for i, v in enumerate(vec_inputs):
        r, quots, _ = tracked.nf(v, clock)
        if r:
            raise RuntimeError("input does not reduce to zero over its basis")
        rel = {(i, (0,) * ring.nvars): Fraction(1)}
        for idx, q in quots.items():
            for shift, c in q.items():
                _axpy(rel, -c, shift, tracked.reps[idx], None)
        if rel:
            syz_vecs.append(rel)
    # normalize, dedupe, sort
    out = []
    seen = set()
    for v in syz_vecs:
        lt = max(v, key=key)
        vv = _scale(v, Fraction(1) / v[lt])
        tag = frozenset(vv.items())
        if tag not in seen:
            seen.add(tag)
            out.append(vv)
    def syz_rank(v):
        lt = max(v, key=key)
        deg = max(sum(m) for (_p, m) in v)
        return (deg, key(lt), sorted(v))
    out.sort(key=syz_rank)
    cols = [_vec_to_polys(v, n, ring) for v in out]
    return ModuleBasis(n, cols, ring=ring, grading=grading)


def module_minimal_generators(M: ModuleBasis, budget: Budget | None = None) -> ModuleBasis:
    """Degree-ascending prune of homogeneous vector generators."""
    if M.grading is None:
        raise ValueError("minimal module generators need a grading")
    degs = [vector_degree(v, M.grading) for v in M.generators]
    order = sorted((i for i, d in enumerate(degs) if d is not None),
                   key=lambda i: (degs[i], i))
    vecs = _vecs_from_columns([M.generators[i] for i in order], M.ring)
    clock = _Clock(budget or DEFAULT_BUDGET, "minimal module generators")
    kept = _prune([(degs[i], v) for i, v in zip(order, vecs)], M.grading,
                  M.ring, clock)
    return ModuleBasis(M.ambient_rank, [M.generators[order[k]] for k in kept],
                       ring=M.ring, grading=M.grading)


# -- resolutions --------------------------------------------------------------

def minimal_free_resolution(I: IdealBasis, max_length: int = 3,
                            budget: Budget | None = None) -> GradedResolution:
    """Minimal graded free resolution of R/I, up to max_length maps.

    Built by iterated syzygies with minimal-generator pruning at every
    step, so each map already has entries in the maximal ideal; a final
    minimalize pass is run anyway as a guard. The shifts are the graded
    Betti numbers and do not depend on the generators chosen; the maps are
    one valid choice, fixed by the Gebauer-Moller pairs of each syzygy step
    and the greedy prune. The result is exact at every computed module
    except possibly the leftmost one when the loop stops at max_length;
    rerun with a larger bound to certify the tail.
    """
    _require_homogeneous(I)
    ring = I.ring
    gens = minimal_generators(I, budget=budget).generators
    if not gens:
        return GradedResolution(ring, (), (), minimal=True)
    if any(g.is_unit() for g in gens):
        raise UnitIdealError("unit ideal has no graded resolution")
    shifts = [tuple(g.degree() for g in gens)]
    maps = [PolyMatrix(ring, [list(gens)], row_shifts=(0,), col_shifts=shifts[0])]
    current = ModuleBasis(1, [(g,) for g in gens], ring=ring, grading=(0,))
    while len(maps) < max_length:
        syz = syzygies(current if len(maps) > 1 else IdealBasis(gens, ring=ring),
                       budget=budget)
        syz = ModuleBasis(syz.ambient_rank, syz.generators, ring=ring,
                          grading=shifts[-1])
        syz = module_minimal_generators(syz, budget=budget)
        if not syz.generators:
            break
        col_shifts = tuple(vector_degree(v, shifts[-1]) for v in syz.generators)
        entries = [[syz.generators[j][i] for j in range(len(syz.generators))]
                   for i in range(syz.ambient_rank)]
        maps.append(PolyMatrix(ring, entries, row_shifts=shifts[-1],
                               col_shifts=col_shifts))
        shifts.append(col_shifts)
        current = syz
    res = GradedResolution(ring, maps, shifts, minimal=True)
    return minimalize(res)


def minimalize(res: GradedResolution) -> GradedResolution:
    """Cancel unit entries until every map entry has zero constant term."""
    ring = res.ring
    maps = [[list(row) for row in m.entries] for m in res.maps]
    shifts = [list(s) for s in res.shifts]
    zero = ring.zero()

    def find_unit():
        for k in range(len(maps) - 1, 0, -1):  # never cancel into F_0 = R
            m = maps[k]
            for i in range(len(m)):
                for j in range(len(m[0])):
                    p = m[i][j]
                    if p and p.is_constant():
                        return k, i, j
        return None

    while True:
        hit = find_unit()
        if hit is None:
            break
        k, i, j = hit
        m = maps[k]
        u = m[i][j]
        ncols = len(m[0])
        nrows = len(m)
        # clear row i by column operations; mirror as row ops on maps[k+1]
        coeffs = [exact_div(m[i][l], u) if m[i][l] else None
                  for l in range(ncols)]
        for l in range(ncols):
            if l != j and coeffs[l] is not None:
                for r_ in range(nrows):
                    if m[r_][j]:
                        m[r_][l] = m[r_][l] - coeffs[l] * m[r_][j]
        if k + 1 < len(maps):
            nxt = maps[k + 1]
            for l in range(ncols):
                if l != j and coeffs[l] is not None:
                    for c_ in range(len(nxt[0])):
                        if nxt[l][c_]:
                            nxt[j][c_] = nxt[j][c_] + coeffs[l] * nxt[l][c_]
        # clear column j by row operations; mirror as column ops on maps[k-1]
        rcoeffs = [exact_div(m[r_][j], u) if m[r_][j] and r_ != i else None
                   for r_ in range(nrows)]
        for r_ in range(nrows):
            if r_ != i and rcoeffs[r_] is not None:
                for l in range(ncols):
                    if m[i][l]:
                        m[r_][l] = m[r_][l] - rcoeffs[r_] * m[i][l]
        prev = maps[k - 1]
        for r_ in range(nrows):
            if r_ != i and rcoeffs[r_] is not None:
                for p_ in range(len(prev)):
                    if prev[p_][r_]:
                        prev[p_][i] = prev[p_][i] + rcoeffs[r_] * prev[p_][r_]
        # drop row i and column j of maps[k]; mirror in neighbours and shifts
        maps[k] = [[m[r_][l] for l in range(ncols) if l != j]
                   for r_ in range(nrows) if r_ != i]
        del shifts[k][j]
        del shifts[k - 1][i]
        maps[k - 1] = [[prev[p_][l] for l in range(len(prev[0])) if l != i]
                       for p_ in range(len(prev))]
        if k + 1 < len(maps):
            nxt = maps[k + 1]
            maps[k + 1] = [nxt[r_] for r_ in range(len(nxt)) if r_ != j]
        # truncate if a module became zero
        if not shifts[k]:
            maps = maps[:k]
            shifts = shifts[:k]
        elif not maps[k]:
            maps = maps[:k]
            shifts = shifts[:k]
    out_maps = []
    for k, m in enumerate(maps):
        if not m or not m[0]:
            break
        row_shifts = (0,) if k == 0 else tuple(shifts[k - 1])
        out_maps.append(PolyMatrix(ring, m, row_shifts=row_shifts,
                                   col_shifts=tuple(shifts[k])))
    return GradedResolution(ring, out_maps,
                            [tuple(s) for s in shifts[:len(out_maps)]],
                            minimal=True)

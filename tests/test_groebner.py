"""Groebner engine tests: bases, membership, invariants, syzygies, resolutions."""

import json
import random
from fractions import Fraction
from importlib import resources
from itertools import combinations, combinations_with_replacement
from math import comb, gcd, lcm

import pytest

from conftest import from_sympy, random_form, random_poly, to_sympy
from exactness_oracle import verify_exactness
from koszul_oracle import KoszulOracle, assert_koszul_agrees, resolution_betti
from presmat import (
    Budget,
    BudgetExceeded,
    IdealBasis,
    ModuleBasis,
    PolyMatrix,
    Polynomial,
    RingContext,
    UnitIdealError,
    dimension,
    gamma,
    groebner_basis,
    height,
    hilbert_function,
    ideal_contains,
    ideal_equal,
    intersect,
    member,
    member_with_cofactors,
    minimal_free_resolution,
    minimal_generators,
    module_contains,
    module_member,
    normal_form,
    parse,
    quotient,
    syzygies,
    vector_degree,
)
from presmat import groebner as engine
from presmat import matrices
from presmat.groebner import gcd as poly_gcd
from presmat.groebner import module_normal_form
from presmat.ring import exact_div

XYZ = RingContext(("x", "y", "z"))
XYZT = RingContext(("x", "y", "z", "t"))
X0123 = RingContext(("x0", "x1", "x2", "x3"))


def ideal(ring, *texts):
    return IdealBasis([parse(s, ring) for s in texts])


def combine(cofactors, generators, ring):
    total = ring.zero()
    for c, g in zip(cofactors, generators):
        total = total + c * g
    return total


# -- reduced bases -------------------------------------------------------------


def test_twisted_cubic_lex_basis():
    # oracle one: every basis element vanishes on the curve (a^3, a^2 b, a b^2, b^3)
    # oracle two: the lex leading terms, worked out by hand from the three
    # S-pairs (each reduces to zero, so the input is already a basis)
    ring = RingContext(("x", "y", "z", "w"), order="lex")
    I = ideal(ring, "x*z - y^2", "x*w - y*z", "y*w - z^2")
    G = groebner_basis(I)
    rng = random.Random(5)
    for _ in range(25):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        point = (a ** 3, a ** 2 * b, a * b ** 2, b ** 3)
        for g in G.generators:
            assert g.evaluate(point) == 0
    leads = sorted(str(ring.monomial(g.lead_monomial())) for g in G.generators)
    assert leads == ["x*w", "x*z", "y*w"]
    for f in I.generators:
        assert member(f, G)


def test_monomial_ideal_is_its_own_basis():
    I = ideal(XYZ, "x^2", "x*y", "y^3")
    G = groebner_basis(I)
    assert sorted(str(g) for g in G.generators) == ["x*y", "x^2", "y^3"]


def test_basis_is_reduced_and_monic():
    I = ideal(XYZ, "2*x^2 + y^2", "3*x*y + z^2", "y^3 - z^3")
    G = groebner_basis(I)
    lead_monos = [g.lead_monomial() for g in G.generators]
    for g in G.generators:
        assert g.lead_coeff() == 1
        for mono in g.terms:
            others = [m for m in lead_monos if m != g.lead_monomial()]
            assert not any(all(a <= b for a, b in zip(m, mono)) for m in others)


def test_basis_independent_of_generator_order():
    rng = random.Random(11)
    for _ in range(20):
        gens = [random_poly(rng, XYZ, max_terms=3, max_deg=3) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        shuffled = gens[:]
        rng.shuffle(shuffled)
        G1 = groebner_basis(IdealBasis(gens, ring=XYZ))
        G2 = groebner_basis(IdealBasis(shuffled, ring=XYZ))
        assert G1.generators == G2.generators


# -- normal forms and membership ----------------------------------------------


def test_normal_form_examples():
    I = ideal(XYZ, "x^2 + y", "z")
    assert normal_form(parse("x^2*z + y*z", XYZ), I).is_zero()
    r = normal_form(parse("x^3", XYZ), I)
    assert r == parse("-x*y", XYZ)
    assert normal_form(parse("y", XYZ), I) == parse("y", XYZ)


def test_normal_form_is_canonical():
    I = ideal(XYZ, "x^2 - y*z", "y^2 - x*z")
    G = groebner_basis(I)
    p = parse("x^3 + y^3 + z^3", XYZ)
    leads = [g.lead_monomial() for g in G.generators]
    r = normal_form(p, I)
    for mono in r.terms:
        assert not any(all(a <= b for a, b in zip(m, mono)) for m in leads)
    assert member(p - r, I)


def test_membership():
    I = ideal(XYZ, "x")
    assert member(parse("x*y", XYZ), I)
    assert not member(parse("y", XYZ), I)
    assert member(XYZ.zero(), I)


def test_normal_form_and_membership_match_sympy():
    # seeded ideals in x, y, z with rational coefficients, homogeneous or
    # not; sympy's remainder on its own Groebner basis is the unique normal
    # form, and half of the probes are planted members
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(XYZ.variables)
    rng = random.Random(3141)
    members = remainders = 0
    for k in range(24):
        if k % 2:
            gens = [random_form(rng, XYZ, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        else:
            gens = [random_poly(rng, XYZ, max_terms=3, max_deg=2, allow_zero=False)
                    for _ in range(rng.randint(1, 3))]
        I = IdealBasis(gens, ring=XYZ)
        G = sympy.groebner([to_sympy(sympy, g, symbols) for g in gens], *symbols,
                           order="grevlex", domain="QQ")
        probes = [random_poly(rng, XYZ, max_terms=4, max_deg=3) for _ in range(2)]
        probes += [combine([random_poly(rng, XYZ, max_terms=2, max_deg=2) for _ in gens],
                           gens, XYZ) for _ in range(2)]
        for p in probes:
            _q, r = sympy.reduced(to_sympy(sympy, p, symbols), G.exprs, *symbols,
                                  order="grevlex", domain="QQ")
            remainder = normal_form(p, I)
            assert remainder == from_sympy(sympy, r, XYZ, symbols)
            assert member(p, I) == G.contains(to_sympy(sympy, p, symbols))
            members += member(p, I)
            remainders += not remainder.is_zero()
    assert members >= 48 and remainders >= 20


def test_cofactors_monomial_example():
    ring = RingContext(("x", "y", "z", "u", "v", "w"))
    I = ideal(ring, "x*v*w", "y*u*w", "z*u*v")
    p = parse("u*x*v*w", ring)
    c = member_with_cofactors(p, I)
    assert [str(q) for q in c] == ["u", "0", "0"]


def test_cofactors_recombine():
    rng = random.Random(23)
    for _ in range(50):
        gens = [random_poly(rng, XYZT, max_terms=3, max_deg=2) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        I = IdealBasis(gens, ring=XYZT)
        mults = [random_poly(rng, XYZT, max_terms=2, max_deg=2) for _ in gens]
        p = combine(mults, gens, XYZT)
        c = member_with_cofactors(p, I)
        assert c is not None
        assert combine(c, gens, XYZT) == p


def test_cofactors_reject_nonmember():
    I = ideal(XYZ, "x^2", "y^2")
    assert member_with_cofactors(parse("x*y", XYZ), I) is None


def tracked_cofactors(p, I):
    """Cofactors of p from a tracked reduced basis of I's generators, which
    keeps the coprime-lead pairs for relations that cofactors never read;
    the reduction of p is charged, as member_with_cofactors charges it."""
    basis = gb(IdealBasis(I.generators, ring=I.ring), track=True)
    enc = basis.enc
    ((v, scale),) = engine._vecs_from_columns([(p,)], enc)
    r, sigma, _sugar = basis.nf(v, engine._Clock(None, "test"))
    if not basis.is_zero(r):
        return None
    return list(engine._terms_to_polys(engine._tag_part(r, 1, enc),
                                       len(I.generators), enc, -sigma * scale))


def test_cofactors_match_the_tracked_route_with_less_work(monkeypatch):
    # the cofactor run carries the tags but keeps no relations, so it may
    # skip the coprime-lead pairs: the same cofactors, for less charged work
    charged = []
    tick = engine._Clock.tick

    def counting_tick(self, amount):
        charged.append(amount)
        return tick(self, amount)

    monkeypatch.setattr(engine._Clock, "tick", counting_tick)
    rng = random.Random(5)
    works = []
    for _ in range(60):
        gens = [random_poly(rng, XYZT, max_terms=3, max_deg=2, allow_zero=False)
                for _ in range(rng.randint(2, 4))]
        mults = [random_poly(rng, XYZT, max_terms=2, max_deg=2) for _ in gens]
        p = combine(mults, gens, XYZT)
        del charged[:]
        cof = member_with_cofactors(p, IdealBasis(gens, ring=XYZT))
        work = sum(charged)
        del charged[:]
        assert cof == tracked_cofactors(p, IdealBasis(gens, ring=XYZT))
        assert combine(cof, gens, XYZT) == p
        works.append((work, sum(charged)))
    assert all(new <= tracked for new, tracked in works)
    assert sum(new < tracked for new, tracked in works) >= 50


# -- dimension, height, hilbert -----------------------------------------------


def test_dimension_and_height_examples():
    assert height(ideal(XYZT, "x", "z")) == 2
    assert dimension(ideal(XYZT, "x", "z")) == 2
    assert height(ideal(XYZ, "x", "y", "z")) == 3
    # leading terms x^2, x*y, y^3 leave only z free
    assert dimension(ideal(XYZ, "x^2", "x*y", "y^3")) == 1
    assert height(IdealBasis([], ring=XYZ)) == 0


def test_unit_ideal_is_reported_distinctly():
    I = ideal(XYZ, "x", "x + 1")
    with pytest.raises(UnitIdealError):
        dimension(I)
    with pytest.raises(UnitIdealError):
        height(I)


def test_height_of_principal_and_mixed():
    assert height(ideal(XYZ, "x*y - z^2")) == 1
    assert height(ideal(XYZT, "x*y", "x*t", "y*z", "z*t")) == 2


def enumerate_standard(monomial_ideal_gens, ring, degree):
    # brute-force count of degree-d monomials outside a monomial ideal
    count = 0
    for combo in combinations_with_replacement(range(ring.nvars), degree):
        expo = [0] * ring.nvars
        for i in combo:
            expo[i] += 1
        inside = any(all(a <= b for a, b in zip(g, expo))
                     for g in monomial_ideal_gens)
        if not inside:
            count += 1
    return count


def test_hilbert_function_against_enumeration():
    I = ideal(XYZ, "x^2", "y^3")
    gens = [g.lead_monomial() for g in I.generators]
    for d in range(8):
        assert hilbert_function(I, d) == enumerate_standard(gens, XYZ, d)
    got = [hilbert_function(I, d) for d in range(7)]
    assert got == [1, 3, 5, 6, 6, 6, 6]


def test_hilbert_function_of_non_monomial_ideal():
    I = ideal(XYZ, "x^2 - y*z", "x*y^2")
    G = groebner_basis(I)
    lt = [g.lead_monomial() for g in G.generators]
    for d in range(7):
        assert hilbert_function(I, d) == enumerate_standard(lt, XYZ, d)


def seeded_monomial_ideal(rng, ring):
    """Single-term generators with the clutter the monomial path must see
    through: duplicates, multiples of other generators, coefficients other
    than 1 and zero generators."""
    gens = []
    for _ in range(rng.randint(1, 6)):
        e = [0] * ring.nvars
        for _ in range(rng.randint(1, 4)):
            e[rng.randrange(ring.nvars)] += 1
        gens.append(ring.monomial(e, rng.choice([1, 3, -2, Fraction(5, 7)])))
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(3)
        p = rng.choice(gens)
        if kind == 0:
            gens.append(p * rng.choice([1, -1, 4]))
        elif kind == 1:
            gens.append(p * ring.variable(rng.choice(ring.variables)))
        else:
            gens.append(ring.zero())
    rng.shuffle(gens)
    return IdealBasis(gens, ring=ring)


def independent_dimension(leads, nvars):
    """Krull dimension of R/(leads) by brute force: the largest set of
    variables that supports no generator."""
    for size in range(nvars, -1, -1):
        for free in combinations(range(nvars), size):
            if not any(all(i in free for i, e in enumerate(m) if e) for m in leads):
                return size


def test_monomial_ideals_read_their_leads_without_a_basis_run(monkeypatch):
    # groebner_basis runs Buchberger on the same ideal; its leads are the
    # oracle for the lead-term generators, the height, the dimension and
    # the Hilbert function, which then must not run a basis
    rng = random.Random(41)
    ideals = [seeded_monomial_ideal(rng, XYZT) for _ in range(40)]
    ideals.append(ideal(XYZT, "3*x^2*y", "x^2*y", "0", "x^3*y*z", "-1/2*y^4"))
    leads = [sorted(g.lead_monomial() for g in groebner_basis(I).generators)
             for I in ideals]

    def no_basis(*args, **kwargs):
        raise AssertionError("a monomial ideal ran a Groebner basis")

    monkeypatch.setattr(engine, "_gb", no_basis)
    for I, lt in zip(ideals, leads):
        assert engine._lt_generators(I) == lt
        dim = independent_dimension(lt, XYZT.nvars)
        assert dimension(I) == dim
        assert height(I) == XYZT.nvars - dim
        for d in range(6):
            assert hilbert_function(I, d) == enumerate_standard(lt, XYZT, d)
    assert engine._lt_generators(ideals[-1]) == [(0, 4, 0, 0), (2, 1, 0, 0)]


def test_monomial_ideal_with_a_constant_generator_is_the_unit_ideal():
    for I in (ideal(XYZ, "x^2", "3", "0"), ideal(XYZ, "-1/2"),
              IdealBasis([XYZ.constant(5), XYZ.zero()], ring=XYZ)):
        assert [str(g) for g in groebner_basis(I).generators] == ["1"]
        assert engine._lt_generators(I) is None
        with pytest.raises(UnitIdealError):
            dimension(I)
        with pytest.raises(UnitIdealError):
            height(I)
        assert hilbert_function(I, 0) == hilbert_function(I, 2) == 0


def test_hilbert_function_edges():
    assert hilbert_function(IdealBasis([], ring=XYZ), 3) == 10
    assert hilbert_function(ideal(XYZ, "x", "y", "z"), 0) == 1
    assert hilbert_function(ideal(XYZ, "x", "y", "z"), 1) == 0
    assert hilbert_function(ideal(XYZ, "x"), -1) == 0
    with pytest.raises(ValueError):
        hilbert_function(ideal(XYZ, "x^2 + y"), 2)


# -- intersection and quotient -------------------------------------------------


def test_intersection_of_coordinate_ideals():
    A = ideal(XYZT, "x", "z")
    B = ideal(XYZT, "y", "t")
    got = intersect(A, B)
    expected = ideal(XYZT, "z*t", "x*t", "x*y", "y*z")
    assert ideal_equal(got, expected)
    assert sorted(str(g) for g in got.generators) == ["x*t", "x*y", "y*z", "z*t"]


def test_intersection_idempotent_and_monomial():
    I = ideal(XYZ, "x^2 - y*z", "z^3")
    assert ideal_equal(intersect(I, I), I)
    got = intersect(ideal(XYZ, "x^2*y"), ideal(XYZ, "y^2*z"))
    assert ideal_equal(got, ideal(XYZ, "x^2*y^2*z"))


def test_intersection_members_random():
    rng = random.Random(31)
    for _ in range(30):
        A = IdealBasis([random_form(rng, XYZ, rng.randint(1, 2)) for _ in range(2)])
        B = IdealBasis([random_form(rng, XYZ, rng.randint(1, 2)) for _ in range(2)])
        got = intersect(A, B)
        for g in got.generators:
            assert member(g, A) and member(g, B)
        for f in A.generators:
            for h in B.generators:
                assert member(f * h, got)


def elimination_intersect(I, J):
    """I cap J by eliminating t from t*I + (1-t)*J, the cross-route oracle:
    the t-free elements of the reduced basis in the ring with a new first
    variable t under the ("elim", 1) order, so in grevlex on I's variables
    whatever I's order; pruned to minimal generators for homogeneous input."""
    ring = I.ring
    if not I.generators or not J.generators:
        return IdealBasis((), ring=ring)
    name = next(f"t{k}" for k in range(len(ring.variables) + 1)
                if f"t{k}" not in ring.variables)
    elim = RingContext((name,) + ring.variables, order=("elim", 1))
    t = elim.variable(name)

    def up(p):
        return Polynomial(elim, {(0,) + m: c for m, c in p.terms.items()})

    gens = [t * up(f) for f in I.generators]
    gens += [(elim.one() - t) * up(g) for g in J.generators]
    meet = IdealBasis([Polynomial(ring, {m[1:]: c for m, c in p.terms.items()})
                       for p in groebner_basis(IdealBasis(gens, ring=elim)).generators
                       if all(m[0] == 0 for m in p.terms)], ring=ring)
    if all(g.is_homogeneous() for g in I.generators + J.generators):
        return minimal_generators(meet)
    return meet


def elimination_gcd(p, q):
    """gcd(p, q) for non-monomial p and q, as groebner.gcd builds it, with the
    colon ideal (p) : q taken from the elimination oracle."""
    (m,) = elimination_intersect(IdealBasis([p]), IdealBasis([q])).generators
    return exact_div(p, exact_div(m, q)).monic()


def meet_cases(rng, ring, count):
    """Seeded (I, J, f, p, q): ideals I and J, homogeneous on even trials,
    with rational coefficients; among them a zero generator in I, J
    containing I, and a unit in J. f is a nonzero divisor for the quotient,
    and p, q non-monomials with the common factor f for the gcd."""
    cases = []
    for trial in range(count):
        if trial % 2 == 0:
            def draw():
                return rational_form(rng, ring, rng.choice((1, 2, 2)), max_terms=3)
        else:
            def draw():
                return random_poly(rng, ring, max_terms=3, max_deg=2, allow_zero=False)
        I = [draw() for _ in range(rng.randint(1, 3))]
        J = [draw() for _ in range(rng.randint(1, 3))]
        kind = trial % 5
        if kind == 1:
            I.insert(rng.randrange(len(I) + 1), ring.zero())
        elif kind == 2:
            J += I
        elif kind == 3:
            J.insert(rng.randrange(len(J) + 1), ring.constant(rng.randint(1, 5)))
        f = draw()
        p, q = (f * (draw() + ring.variable(rng.choice(ring.variables)) ** 3)
                for _ in range(2))
        cases.append((IdealBasis(I, ring=ring), IdealBasis(J, ring=ring), f, p, q))
    return cases


def strs(I):
    return [str(g) for g in I.generators]


def test_intersection_quotient_and_gcd_match_the_elimination_route():
    # in grevlex the module route gives the elimination route's generators
    # exactly, and so do the quotient and the gcd built on it
    for I, J, f, p, q in meet_cases(random.Random(37), XYZ, 60):
        assert strs(intersect(I, J)) == strs(elimination_intersect(I, J))
        assert strs(quotient(I, f)) == [
            str(exact_div(g, f)) for g in elimination_intersect(I, IdealBasis([f])).generators]
        assert str(poly_gcd(p, q)) == str(elimination_gcd(p, q))


@pytest.mark.parametrize("order", ["lex", ("elim", 1), ("elim", 2)],
                         ids=["lex", "elim1", "elim2"])
def test_intersection_in_other_orders_is_reduced_in_that_order(order):
    # the same ideal as the elimination route's, generated by the reduced
    # basis in the ring's own order, or by its minimal generators when the
    # input is homogeneous; the quotient divides that basis by f, and the
    # gcd, monic and unique, is the oracle's exactly
    ring = RingContext(("x", "y", "z"), order=order)
    differ = 0
    for I, J, f, p, q in meet_cases(random.Random(41), ring, 30):
        got, want = intersect(I, J), elimination_intersect(I, J)
        assert ideal_equal(got, want)
        differ += strs(got) != strs(want)
        reduced = groebner_basis(got)
        if all(g.is_homogeneous() for g in I.generators + J.generators):
            reduced = minimal_generators(reduced)
        assert got.generators == reduced.generators
        colon = quotient(I, f)
        assert ideal_equal(colon, IdealBasis([exact_div(g, f) for g in elimination_intersect(
            I, IdealBasis([f])).generators], ring=ring))
        assert [g * f for g in colon.generators] == list(
            intersect(I, IdealBasis([f])).generators)
        assert str(poly_gcd(p, q)) == str(elimination_gcd(p, q))
    assert differ > 0


def test_quotient_examples():
    assert ideal_equal(quotient(ideal(XYZ, "x*z", "y*z"), parse("z", XYZ)),
                       ideal(XYZ, "x", "y"))
    assert ideal_equal(quotient(ideal(XYZ, "x^2"), parse("x", XYZ)),
                       ideal(XYZ, "x"))
    assert ideal_equal(quotient(ideal(XYZ, "x", "y"), parse("z", XYZ)),
                       ideal(XYZ, "x", "y"))
    with pytest.raises(ValueError):
        quotient(ideal(XYZ, "x"), XYZ.zero())


# -- syzygies -------------------------------------------------------------------


def test_koszul_syzygy_of_two_variables():
    S = syzygies(ideal(XYZ, "x", "y"))
    assert len(S.generators) == 1
    v = S.generators[0]
    assert [str(p) for p in v] in (["y", "-x"], ["-y", "x"])


def test_syzygies_annihilate_random_inputs():
    rng = random.Random(47)
    for _ in range(30):
        gens = [random_poly(rng, XYZ, max_terms=2, max_deg=2) for _ in range(3)]
        I = IdealBasis(gens, ring=XYZ)
        S = syzygies(I)
        for v in S.generators:
            assert combine(v, gens, XYZ).is_zero()


def test_syzygies_generate_the_kernel():
    # plant a relation, then check it lies in the computed syzygy module
    gens = [parse(s, XYZ) for s in ("x^2", "x*y + z^2", "y*z")]
    I = IdealBasis(gens, ring=XYZ)
    S = syzygies(I)
    planted = (parse("x*y + z^2", XYZ), parse("-x^2", XYZ), XYZ.zero())
    assert combine(planted, gens, XYZ).is_zero()
    assert module_member(planted, S)


def test_syzygies_of_redundant_generators():
    gens = [parse("x", XYZ), XYZ.zero(), parse("x", XYZ)]
    S = syzygies(IdealBasis(gens, ring=XYZ))
    assert module_member((XYZ.zero(), XYZ.one(), XYZ.zero()), S)
    assert module_member((XYZ.one(), XYZ.zero(), -XYZ.one()), S)


def shifted_terms(enc, a, u, terms):
    """a * x^u * terms for engine term lists, from the linear key and pack."""
    ku, pu = enc.term(0, u)
    return [(k + ku, p + pu, a * c) for k, p, c in terms]


def tag_polys(v, rank, n, enc):
    """The tag part of the engine vector v, as n polynomials."""
    return engine._terms_to_polys(engine._tag_part(v, rank, enc), n, enc)


def gb(F, track=False):
    """The engine's reduced basis of F under the default budget: the cached
    untracked one, or else a tagged one reduced from a tracked run."""
    clock = engine._Clock(None, "test")
    if not track:
        return engine._gb(F, clock)
    return engine._reduce_basis(engine._run_columns(F, clock, True), clock)


def all_pairs_syzygies(F):
    """Reference syzygies: lift every same-position S-pair of the tracked
    basis, with no pair criteria, plus the rows of (Id - B*A)."""
    if isinstance(F, IdealBasis):
        inputs, rank = [(g,) for g in F.generators], 1
        tracked = gb(IdealBasis(F.generators, ring=F.ring), track=True)
    else:
        inputs, rank = list(F.generators), F.ambient_rank
        tracked = gb(ModuleBasis(F.ambient_rank, F.generators, ring=F.ring),
                     track=True)
    n, enc = len(inputs), tracked.enc
    top = rank << enc.pos_bits
    rels = []
    for i in range(len(tracked.elems)):
        for j in range(i + 1, len(tracked.elems)):
            if tracked.leads[i][0] != tracked.leads[j][0]:
                continue
            mi, mj = tracked.leads[i][1], tracked.leads[j][1]
            lcm = tuple(map(max, mi, mj))
            ui = tuple(a - b for a, b in zip(lcm, mi))
            uj = tuple(a - b for a, b in zip(lcm, mj))
            ci, cj = tracked.elems[i][0][2], tracked.elems[j][0][2]
            # cj*x^ui*e_i - ci*x^uj*e_j, whole elements: the leads cancel in nf
            s = shifted_terms(enc, cj, ui, tracked.elems[i])
            s += shifted_terms(enc, -ci, uj, tracked.elems[j])
            r, _sigma, _sugar = tracked.nf(s, None)
            assert all(p >= top for _k, p, _c in r)  # nothing below rank is left
            rels.append(r)
    for v in engine._tagged(engine._vecs_from_columns(inputs, enc), rank, enc):
        r, _sigma, _sugar = tracked.nf(v, None)
        assert all(p >= top for _k, p, _c in r)
        rels.append(r)
    cols = [tag_polys(r, rank, n, enc) for r in rels if r]
    return ModuleBasis(n, cols, ring=F.ring)


def random_vector_module(rng, ring, rank, count):
    vecs = []
    for _ in range(count):
        degree = rng.randint(1, 2)
        vecs.append(tuple(random_form(rng, ring, degree, max_terms=2)
                          if rng.random() < 0.7 else ring.zero()
                          for _ in range(rank)))
    return ModuleBasis(rank, vecs, ring=ring)


def test_pruned_syzygies_generate_the_all_pairs_module():
    rng = random.Random(71)
    cases = []
    for _ in range(6):
        gens = [random_form(rng, XYZ, rng.choice((2, 2, 3)), max_terms=4)
                for _ in range(rng.randint(3, 4))]
        I = IdealBasis(gens, ring=XYZ)
        cases.append(I)
        cases.append(syzygies(I))  # a module with one position per generator
    for _ in range(4):
        gens = [random_poly(rng, XYZ, max_terms=2, max_deg=2) for _ in range(3)]
        cases.append(IdealBasis(gens, ring=XYZ))
        cases.append(random_vector_module(rng, XYZ, rng.randint(2, 3), 3))
    for F in cases:
        S = syzygies(F)
        ref = all_pairs_syzygies(F)
        assert module_contains(S, ref)
        assert module_contains(ref, S)
        columns = [(g,) for g in F.generators] if isinstance(F, IdealBasis) \
            else list(F.generators)
        for v in S.generators:
            for pos in range(len(columns[0])):
                assert combine(v, [col[pos] for col in columns], XYZ).is_zero()


# -- minimal generators ---------------------------------------------------------


def test_minimal_generators_prunes_dependents():
    I = ideal(XYZ, "x", "y", "x + y")
    assert [str(g) for g in minimal_generators(I).generators] == ["x", "y"]
    I = ideal(XYZ, "y", "x", "x + y")
    assert [str(g) for g in minimal_generators(I).generators] == ["y", "x"]


def test_minimal_generators_across_degrees():
    I = ideal(XYZ, "x^2", "x")
    assert [str(g) for g in minimal_generators(I).generators] == ["x"]
    I = ideal(XYZ, "x^2", "x^2 + y^2", "y^3")
    kept = [str(g) for g in minimal_generators(I).generators]
    assert kept == ["x^2", "x^2 + y^2"]


def test_minimal_generators_requires_homogeneous():
    with pytest.raises(ValueError):
        minimal_generators(ideal(XYZ, "x^2 + y"))


def restart_prune_ideal(I):
    """Reference prune: test each candidate against a Groebner basis of the
    generators kept so far, computed from scratch every time."""
    kept = []
    for g in sorted((g for g in I.generators if not g.is_zero()),
                    key=lambda g: g.degree()):
        if not kept or not member(g, IdealBasis(kept, ring=I.ring)):
            kept.append(g)
    return kept


def restart_prune_module(M):
    degs = [vector_degree(v, M.grading) for v in M.generators]
    kept = []
    for i in sorted((i for i, d in enumerate(degs) if d is not None),
                    key=lambda i: (degs[i], i)):
        v = M.generators[i]
        if not kept or not module_member(v, ModuleBasis(M.ambient_rank, kept,
                                                        ring=M.ring)):
            kept.append(v)
    return kept


def padded_generators(rng, ring, gens, degree, times):
    """gens plus a redundant combination c*ga + gb, a duplicate and a zero
    (None), shuffled; degree(g) is the graded degree of g and
    times(c, ga, gb) forms the combination."""
    gens = list(gens)
    a, b = rng.sample(range(len(gens)), 2)
    if degree(gens[a]) > degree(gens[b]):
        a, b = b, a
    lift = random_form(rng, ring, degree(gens[b]) - degree(gens[a]), max_terms=2)
    gens.append(times(lift, gens[a], gens[b]))
    gens.append(gens[rng.randrange(len(gens))])
    gens.append(None)
    rng.shuffle(gens)
    return gens


def test_minimal_generators_match_the_restart_prune():
    rng = random.Random(83)
    for trial in range(8):
        ring = XYZ if trial % 2 else XYZT
        forms = [random_form(rng, ring, rng.choice((1, 2, 2, 3)), max_terms=4)
                 for _ in range(rng.randint(3, 5))]
        gens = padded_generators(rng, ring, forms, lambda g: g.degree(),
                                 lambda c, ga, gb: c * ga + gb)
        I = IdealBasis([ring.zero() if g is None else g for g in gens], ring=ring)
        assert list(minimal_generators(I).generators) == restart_prune_ideal(I)

        # the syzygy module, graded by the (mixed) generator degrees
        J = IdealBasis(forms, ring=ring)
        S = syzygies(J)
        grading = tuple(g.degree() for g in forms)
        zero = tuple(ring.zero() for _ in forms)
        vecs = padded_generators(
            rng, ring, S.generators, lambda v: vector_degree(v, grading),
            lambda c, va, vb: tuple(c * p + q for p, q in zip(va, vb)))
        M = ModuleBasis(len(forms), [zero if v is None else v for v in vecs],
                        ring=ring, grading=grading)
        assert list(module_minimal_generators(M).generators) == restart_prune_module(M)


# -- resolutions -----------------------------------------------------------------


def test_koszul_resolution():
    I = ideal(XYZ, "x", "y", "z")
    res = minimal_free_resolution(I)
    assert res.length() == 3
    assert res.betti() == ((1, 1, 1), (2, 2, 2), 3)
    assert res.validate()
    assert res.shifts == ((1, 1, 1), (2, 2, 2), (3,))
    assert KoszulOracle(I.generators, 3).betti() == {
        (0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}
    assert_koszul_agrees(I, res)


def test_resolution_of_fat_point_in_plane():
    ring = RingContext(("x", "y"))
    I = ideal(ring, "x^2", "x*y", "y^2")
    res = minimal_free_resolution(I)
    assert res.length() == 2
    assert res.shifts == ((2, 2, 2), (3, 3))
    assert res.validate()
    assert KoszulOracle(I.generators, 2).betti() == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert_koszul_agrees(I, res)


def cyclic_products(ring, width):
    names = ring.variables
    n = len(names)
    gens = []
    for k in range(n):
        gens.append(parse("*".join(names[(k + i) % n] for i in range(width)), ring))
    return IdealBasis(gens, ring=ring)


def test_resolution_of_cyclic_cubics():
    ring = RingContext(tuple("xyztuv"))
    I = cyclic_products(ring, 3)
    res = minimal_free_resolution(I)
    assert res.betti() == ((3,) * 6, (4,) * 6, 6)
    assert res.validate()
    assert_koszul_agrees(I, res)


def test_resolution_of_cyclic_quartics():
    ring = RingContext(tuple("xyztuv"))
    I = cyclic_products(ring, 4)
    res = minimal_free_resolution(I)
    assert res.betti() == ((4,) * 6, (5,) * 6, 6)
    assert res.validate()
    assert_koszul_agrees(I, res)


def test_resolution_exactness_via_hilbert():
    # alternating sum of shifted binomials must reproduce the hilbert function
    from math import comb

    I = cyclic_products(RingContext(tuple("xyztuv")), 3)
    res = minimal_free_resolution(I)
    r = I.ring.nvars

    def rank_contrib(d):
        total = comb(d + r - 1, r - 1) if d >= 0 else 0
        for k, shifts in enumerate(res.shifts):
            sign = -1 if k % 2 == 0 else 1
            for s in shifts:
                dd = d - s
                total += sign * (comb(dd + r - 1, r - 1) if dd >= 0 else 0)
        return total

    for d in range(8):
        assert rank_contrib(d) == hilbert_function(I, d)


# shifts of dense ideals in x, y, z by seed, over the three-variable shapes
# of the benchmark's ideal corpus; each shape is the first shift list. Seeds
# 0-7 were computed with all-pairs syzygies and the restart prune (the two
# references above), the cubic seeds 8-9 with the Koszul oracle; graded
# Betti numbers do not depend on the algorithm
SELF_CERT_SHIFTS = {
    0: ((2, 2, 2), (4, 4, 4), (6,)),
    1: ((2, 2, 2, 2), (3, 3, 4, 4, 4), (5, 5)),
    2: ((2, 2, 2, 2, 2), (3, 3, 3, 3, 3), (5,)),
    3: ((2, 2, 3), (4, 5, 5), (7,)),
    4: ((2, 3, 3), (5, 5, 6), (8,)),
    5: ((2, 2, 2), (4, 4, 4), (6,)),
    6: ((2, 2, 2, 2), (3, 3, 4, 4, 4), (5, 5)),
    7: ((2, 2, 2, 2, 2), (3, 3, 3, 3, 3), (5,)),
    8: ((3, 3, 3), (6, 6, 6), (9,)),
    9: ((3, 3, 3, 3), (5, 5, 5, 6, 6, 6), (7, 7, 7)),
}


def dense_ideal(seed, ring, degrees):
    """Forms of the given degrees with every monomial of their degree,
    coefficients in +-1..+-3."""
    rng = random.Random(seed)
    gens = []
    for degree in degrees:
        monos = [tuple(c.count(v) for v in range(ring.nvars))
                 for c in combinations_with_replacement(range(ring.nvars), degree)]
        gens.append(Polynomial(ring, {m: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
                                      for m in monos}))
    return IdealBasis(gens, ring=ring)


@pytest.mark.parametrize("seed", sorted(SELF_CERT_SHIFTS))
def test_resolution_certifies_itself(seed):
    I = dense_ideal(seed, XYZ, SELF_CERT_SHIFTS[seed][0])
    res = minimal_free_resolution(I, max_length=3)
    assert res.shifts == SELF_CERT_SHIFTS[seed]
    r = XYZ.nvars

    def free(d):  # dim_k R_d
        return comb(d + r - 1, r - 1) if d >= 0 else 0

    for d in range(max(max(s) for s in res.shifts) + 3):
        from_betti = free(d) + sum((-1) ** (k + 1) * free(d - s)
                                   for k, shifts in enumerate(res.shifts)
                                   for s in shifts)
        assert from_betti == hilbert_function(I, d)
    report = verify_exactness(res)
    assert report.exact, report
    assert_koszul_agrees(I, res)


@pytest.mark.parametrize("degrees", [(2, 2, 2), (2, 2, 2, 2), (2, 2, 3), (3, 3, 3),
                                     (3, 3, 3, 3)])
@pytest.mark.parametrize("seed", [1, 2])
def test_resolution_matches_koszul_homology(seed, degrees):
    # The Hilbert function fixes only alternating sums of the Betti numbers;
    # Koszul homology fixes each one, so a non-minimal or incomplete
    # resolution cannot pass.
    I = dense_ideal(seed, XYZ, degrees)
    res = minimal_free_resolution(I, max_length=3)
    assert res.shifts[0] == degrees
    assert_koszul_agrees(I, res)


def test_five_quadrics_in_four_variables_match_koszul_homology():
    # four variables, so max_length=4 resolves R/I to the end
    ring = RingContext(("x0", "x1", "x2", "x3"))
    I = ideal(ring, "3*x1*x2 - 2*x0*x3 - 3*x3^2", "2*x1^2 - 3*x0*x2 - 2*x2^2",
              "-3*x0^2 + 3*x0*x2 - x3^2", "-2*x1*x2 - 2*x2*x3 - 3*x3^2",
              "2*x0*x1 - x0*x2 - x1*x2")
    res = minimal_free_resolution(I, max_length=4)
    assert res.shifts[0] == (2, 2, 2, 2, 2)
    assert_koszul_agrees(I, res)


def test_resolution_rejects_inhomogeneous_and_unit():
    with pytest.raises(ValueError):
        minimal_free_resolution(ideal(XYZ, "x^2 + y"))
    with pytest.raises(UnitIdealError):
        minimal_free_resolution(ideal(XYZ, "1"))


def module_minimal_generators(M, budget=None):
    """Degree-ascending prune of the homogeneous columns of a graded
    ModuleBasis by the engine's prune. The library prunes engine vectors
    inside its resolution route and has no Polynomial entry point for it;
    the oracles here take one."""
    if M.grading is None:
        raise ValueError("minimal module generators need a grading")
    kept = engine._minimal_indices(M, "minimal module generators", budget)
    return ModuleBasis(M.ambient_rank, [M.generators[i] for i in kept],
                       ring=M.ring, grading=M.grading)


def composed_resolution(I, max_length):
    """Reference resolution composed from the public steps: per level,
    syzygies() of the last module's columns, then module_minimal_generators,
    each taking Polynomials in and giving Polynomials out. Returns the maps
    and the shifts."""
    gens = minimal_generators(I).generators
    shifts = [tuple(g.degree() for g in gens)]
    maps = [PolyMatrix(I.ring, [list(gens)])]
    current = ModuleBasis(1, [(g,) for g in gens], ring=I.ring, grading=(0,))
    while len(maps) < max_length:
        syz = module_minimal_generators(syzygies(current))
        if not syz.generators:
            break
        shifts.append(tuple(vector_degree(v, shifts[-1]) for v in syz.generators))
        maps.append(PolyMatrix(I.ring, zip(*syz.generators)))
        current = syz
    return maps, shifts


def as_text(maps, shifts):
    """The map entries as text, and the shifts as a list."""
    return [[[str(p) for p in row] for row in m.entries] for m in maps], list(shifts)


def koszul_complex(gens, max_length):
    """The Koszul complex of gens as the resolution route builds it, from
    Polynomials alone: column S of map k is w_S = sum_j (-1)^j f_{s_j} *
    mu_T e_T, T = S - s_j, over its lead coefficient mu_S (mu = 1 on the
    generators), so that it maps to a multiple of the Koszul image of e_S.
    Columns sorted by degree, then the degree of their terms, then the lead
    (lowest position first, the ring order within it; ascending), then the
    sorted (position, exponents) support. Returns the maps and shifts."""
    ring = gens[0].ring
    shifts = [tuple(g.degree() for g in gens)]
    maps = [PolyMatrix(ring, [list(gens)])]
    level = [((i,), Fraction(1)) for i in range(len(gens))]
    while len(maps) < min(max_length, len(gens)):
        where = {S: (p, mu) for p, (S, mu) in enumerate(level)}
        columns = []
        for S in combinations(range(len(gens)), len(level[0][0]) + 1):
            w = [ring.zero()] * len(level)
            for j, s in enumerate(S):
                p, mu = where[S[:j] + S[j + 1:]]
                w[p] = gens[s] * ((-1) ** j * mu)
            lead = next(p for p, entry in enumerate(w) if entry)
            mono = w[lead].lead_monomial()
            support = sorted((p, m) for p, entry in enumerate(w) for m in entry.terms)
            rank = (shifts[-1][lead] + sum(mono), max(sum(m) for _p, m in support),
                    -lead, ring.key(mono), support)
            mu = w[lead].terms[mono]
            columns.append((rank, [entry * (1 / mu) for entry in w], S, mu))
        columns.sort(key=lambda c: c[0])
        shifts.append(tuple(rank[0] for rank, *_rest in columns))
        maps.append(PolyMatrix(ring, zip(*[w for _rank, w, _S, _mu in columns])))
        level = [(S, mu) for _rank, _w, S, mu in columns]
    return maps, shifts


def resolve_by_syzygies(I, max_length):
    """The syzygy route of minimal_free_resolution, whatever I is."""
    return engine._resolve_by_syzygies(minimal_generators(I).generators, max_length,
                                       lambda: Budget())


def fixture_ideal(name):
    doc = json.loads(resources.files("presmat").joinpath(f"fixtures/{name}.json")
                     .read_text())
    ring = RingContext(tuple(doc["ring"]["vars"]))
    return IdealBasis([parse(g, ring) for g in doc["ideal"]], ring=ring)


# seeded dense quadrics and cubics in three and four variables, the dense
# (2,2,2,2) and (2,2,2,3) in four, and the cyclic fixtures of the paper
ORACLE_IDEALS = {
    **{f"xyz-{''.join(map(str, d))}-{seed}": (lambda d=d, seed=seed:
                                               dense_ideal(seed, XYZ, d))
       for d in ((2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2, 2), (2, 2, 3), (2, 3, 3),
                 (3, 3, 3), (3, 3, 3, 3))
       for seed in (21, 22)},
    **{f"x0123-{''.join(map(str, d))}-{seed}": (lambda d=d, seed=seed:
                                                 dense_ideal(seed, X0123, d))
       for d, seed in (((2, 2, 2), 21), ((2, 2, 3), 21), ((2, 2, 2, 2), 1),
                       ((2, 2, 2, 3), 1))},
    "cyclic-cubics": lambda: fixture_ideal("cyclic-cubics"),
    "cyclic-quartics": lambda: fixture_ideal("cyclic-quartics"),
}


@pytest.mark.parametrize("name", sorted(ORACLE_IDEALS))
def test_resolution_matches_the_composed_steps(name):
    I = ORACLE_IDEALS[name]()
    n = I.ring.nvars
    oracle = composed_resolution(I, n)
    loop = resolve_by_syzygies(I, n)
    assert as_text(loop.maps, loop.shifts) == as_text(*oracle)
    res = minimal_free_resolution(I, max_length=n)
    if height(I) < len(I.generators):
        assert as_text(res.maps, res.shifts) == as_text(*oracle)
        return
    # a complete intersection, resolved by its Koszul complex
    assert as_text(res.maps, res.shifts) == as_text(*koszul_complex(I.generators, n))
    assert list(res.shifts) == oracle[1]
    ours, theirs = (ModuleBasis(len(m.entries), zip(*m.entries), ring=I.ring)
                    for m in (res.maps[1], oracle[0][1]))
    assert module_contains(ours, theirs) and module_contains(theirs, ours)
    assert res.validate()
    if len(I.generators) == n:
        assert_koszul_agrees(I, res)
    else:  # not m-primary: the oracle needs a top degree, here the last shift
        top = sum(res.shifts[0])
        assert resolution_betti(res) == KoszulOracle(I.generators, n).betti(top)


def test_an_ideal_of_smaller_height_takes_the_syzygy_route(monkeypatch):
    # three generators of height 2: not a complete intersection
    I = ideal(XYZ, "x*y", "x*z", "y*z")
    calls = []
    loop = engine._resolve_by_syzygies

    def spy(*args):
        calls.append(args)
        return loop(*args)

    monkeypatch.setattr(engine, "_resolve_by_syzygies", spy)
    assert height(I) == 2
    res = minimal_free_resolution(I)
    assert len(calls) == 1
    assert as_text(res.maps, res.shifts) == as_text(*composed_resolution(I, 3))
    assert res.shifts == ((2, 2, 2), (3, 3))


def test_a_principal_ideal_is_its_own_resolution(monkeypatch):
    monkeypatch.setattr(engine, "_resolve_by_syzygies", None)
    I = ideal(XYZ, "x^2 + 2*y*z")
    res = minimal_free_resolution(I)
    assert as_text(res.maps, res.shifts) == ([[["x^2 + 2*y*z"]]], [(2,)])
    monkeypatch.undo()
    assert as_text(res.maps, res.shifts) == as_text(*composed_resolution(I, 3))


def test_max_length_truncates_the_koszul_complex():
    I = dense_ideal(1, X0123, (2, 2, 2, 2))
    res = minimal_free_resolution(I, max_length=2)
    assert res.shifts == ((2, 2, 2, 2), (4,) * 6)
    assert as_text(res.maps, res.shifts) == as_text(*koszul_complex(I.generators, 2))
    full = minimal_free_resolution(I, max_length=4)
    assert res.maps == full.maps[:2]
    assert res.validate()


def test_a_tight_budget_stops_the_height_test(monkeypatch):
    # the minimal generators fit under the monomial cap and the basis that
    # decides the height does not: the call raises, with no partial complex
    work = {}
    tick = engine._Clock.tick

    def counting_tick(self, amount):
        tick(self, amount)
        work.setdefault(self.label, []).append(self.work)

    def fresh():
        return dense_ideal(21, X0123, (2, 2, 2, 2))

    monkeypatch.setattr(engine._Clock, "tick", counting_tick)
    minimal_free_resolution(fresh(), max_length=4)
    cap = max(work["minimal generators"])
    assert max(work["groebner basis"]) > cap
    monkeypatch.setattr(engine._Clock, "tick", tick)
    with pytest.raises(BudgetExceeded, match="^groebner basis: monomial budget exceeded"):
        minimal_free_resolution(fresh(), max_length=4, budget=Budget(max_monomials=cap))


def test_a_dense_complete_intersection_in_four_variables_resolves_in_budget():
    # the syzygy route takes seconds on this ideal; the Koszul route does not
    I = dense_ideal(2, X0123, (2, 2, 2, 3))
    res = minimal_free_resolution(I, max_length=4, budget=Budget(seconds=5))
    assert res.shifts == ((2, 2, 2, 3), (4, 4, 4, 5, 5, 5), (6, 7, 7, 7), (9,))
    assert as_text(res.maps, res.shifts) == as_text(*koszul_complex(I.generators, 4))
    assert res.validate()


def test_a_tight_budget_stops_the_resolution_in_its_syzygy_step(monkeypatch):
    # each step has its own monomial cap: a cap that the minimal generators
    # fit under and the first syzygy run does not stops the call there
    work = {}
    tick = engine._Clock.tick

    def counting_tick(self, amount):
        tick(self, amount)
        work.setdefault(self.label, []).append(self.work)

    def fresh():
        return dense_ideal(21, XYZ, (2, 2, 2, 2))

    monkeypatch.setattr(engine._Clock, "tick", counting_tick)
    minimal_generators(fresh())
    cap = max(work["minimal generators"])
    work.clear()
    minimal_free_resolution(fresh())
    assert max(work["syzygies"]) > cap
    monkeypatch.setattr(engine._Clock, "tick", tick)
    with pytest.raises(BudgetExceeded, match="^syzygies: monomial budget exceeded"):
        minimal_free_resolution(fresh(), budget=Budget(max_monomials=cap))


def min_scan_complete(basis, pairs, clock, upto=None):
    """Reference for the pair order of _complete: at every step, a scan of
    the live pairs for the least (sugar, lcm key, j, i)."""
    enc, sugars, leads = basis.enc, basis.sugars, basis.leads

    def pair_rank(pair):
        i, j = pair
        pos, mi = leads[i]
        mj = leads[j][1]
        lcm = tuple(map(max, mi, mj))
        d = sum(lcm)
        sugar = max(sugars[i] + d - sum(mi), sugars[j] + d - sum(mj))
        return sugar, enc.term(pos, lcm)[0], j, i

    while pairs:
        sugar, _key, j, i = min(map(pair_rank, pairs))
        if upto is not None and sugar > upto:
            break
        pairs.discard((i, j))
        r, _sigma, sugar = basis.nf(engine._s_vector(basis, i, j, clock), clock,
                                    sugar=sugar)
        if not basis.is_zero(r):
            pairs = engine._update_pairs(pairs, basis, basis.append(r, sugar))
        elif r:
            basis.relations.append(r)
    return pairs


# every kind of completion run: tracked or not, of rank 1 or more, to the
# end or truncated at the degree of a candidate (the prunes). The seeded
# cases are ones whose runs drop pairs that were already ranked.
PAIR_ORDER_RUNS = {
    "untracked-rank-1": lambda: groebner_basis(
        seeded_cases(random.Random(6), 6)[4]).generators,
    "tracked-rank-1": lambda: syzygies(seeded_cases(random.Random(6), 6)[4]).generators,
    "untracked-rank-2": lambda: groebner_basis(
        seeded_cases(random.Random(13), 2)[1]).generators,
    "tracked-rank-2": lambda: syzygies(seeded_cases(random.Random(13), 2)[1]).generators,
    "truncated-rank-1": lambda: minimal_generators(
        dense_ideal(33, X0123, (2, 2, 2, 2, 3, 3, 4))).generators,
    "truncated-rank-4": lambda: module_minimal_generators(
        syzygies(dense_ideal(34, XYZ, (2, 2, 2, 2)))).generators,
    "resolution": lambda: [m.entries for m in resolve_by_syzygies(
        dense_ideal(3, XYZ, (2, 3, 3)), 3).maps],
}


@pytest.mark.parametrize("name", sorted(PAIR_ORDER_RUNS))
def test_the_pair_heap_reduces_the_pairs_of_the_min_scan(monkeypatch, name):
    def s_pairs(complete):
        """With complete as the loop: the (i, j) of every S-vector built,
        the count of pairs that each completion left, the count of old
        pairs that each pair update dropped, and the answer."""
        seen, left, dropped = [], [], []
        s_vector, update_pairs = engine._s_vector, engine._update_pairs

        def spy(basis, i, j, clock):
            seen.append((i, j))
            return s_vector(basis, i, j, clock)

        def counted(basis, pairs, clock, upto=None):
            pairs = complete(basis, pairs, clock, upto)
            left.append(len(pairs))
            return pairs

        def update(pairs, basis, t):
            kept = update_pairs(pairs, basis, t)
            dropped.append(len(pairs - kept))
            return kept

        with monkeypatch.context() as m:
            m.setattr(engine, "_s_vector", spy)
            m.setattr(engine, "_complete", counted)
            m.setattr(engine, "_update_pairs", update)
            answer = PAIR_ORDER_RUNS[name]()
        return seen, left, dropped, answer

    heap = s_pairs(engine._complete)
    assert heap == s_pairs(min_scan_complete)
    seen, left, dropped, _answer = heap
    assert len(seen) >= 5
    # a truncated completion stops with pairs still pending
    assert any(left) == (name.startswith("truncated") or name == "resolution")
    if not name.startswith("truncated"):
        assert any(dropped)


# -- budgets and misc ------------------------------------------------------------


def test_budget_exceeded_is_distinct():
    ring = RingContext(("x", "y", "z", "w"), order="lex")
    I = ideal(ring, "x*z - y^2", "x*w - y*z", "y*w - z^2", "x^3 - w^2*y")
    with pytest.raises(BudgetExceeded):
        groebner_basis(I, budget=Budget(seconds=60, max_monomials=3))
    assert not issubclass(BudgetExceeded, ValueError)


def twisted_cubic():
    return ideal(XYZT, "x*z - y^2", "x*t - y*z", "y*t - z^2")


def twisted_cubic_and_a_multiple():
    return ideal(XYZT, "x*z - y^2", "x*t - y*z", "y*t - z^2", "x*z*t - y^2*t")


def common_factor_matrix():
    # rank 1: gamma reads (y - t, -x - t) from a syzygy run on the rows,
    # while the signed minors of its first column carry the factor x*z - y^2
    return PolyMatrix.from_text(XYZT, [
        ["(x + t)*(x*z - y^2)", "(x + t)*(z + t)"],
        ["(y - t)*(x*z - y^2)", "(y - t)*(z + t)"],
    ])


@pytest.mark.parametrize("call", [
    lambda b: intersect(twisted_cubic(), ideal(XYZT, "x", "t^2"), budget=b),
    lambda b: minimal_generators(twisted_cubic_and_a_multiple(), budget=b),
    lambda b: module_minimal_generators(syzygies(twisted_cubic_and_a_multiple()),
                                       budget=b),
    lambda b: syzygies(twisted_cubic(), budget=b),
    lambda b: member_with_cofactors(parse("x^2*t - y^3", XYZT), twisted_cubic(),
                                    budget=b),
    lambda b: height(twisted_cubic(), budget=b),
    lambda b: hilbert_function(twisted_cubic(), 3, budget=b),
    lambda b: poly_gcd(parse("(x*z - y^2)*(x + t)", XYZT),
                       parse("(x*z - y^2)*(y - t)", XYZT), budget=b),
    lambda b: gamma(common_factor_matrix(), budget=b),
], ids=["intersect", "minimal_generators", "module_minimal_generators",
        "syzygies", "member_with_cofactors", "height", "hilbert_function",
        "gcd", "gamma"])
def test_budget_caps_reach_every_groebner_entry_point(call):
    call(Budget())
    with pytest.raises(BudgetExceeded):
        call(Budget(max_monomials=1))


def test_budget_caps_the_reduction_of_the_probe():
    # the basis fits under the cap and the reduction of the probe does not;
    # uncapped, the answers stand and certify themselves
    def I():
        return ideal(XYZ, "x^2 - y*z", "y^2 - 2*x*z", "z^2 - 3*x*y + x*z")
    f = parse("x + 2*y + 3*z", XYZ) ** 25
    assert normal_form(f, I()).is_zero()
    cof = member_with_cofactors(f, I())
    assert sum((c * g for c, g in zip(cof, I().generators)), XYZ.zero()) == f
    cap = Budget(max_monomials=200)
    groebner_basis(I(), budget=cap)
    with pytest.raises(BudgetExceeded, match="^groebner basis: monomial"):
        normal_form(f, I(), budget=cap)
    with pytest.raises(BudgetExceeded, match="^groebner basis: monomial"):
        member_with_cofactors(f, I(), budget=cap)


def test_a_syzygy_step_charges_its_basis_to_its_own_cap(monkeypatch):
    # the step is the tracked run whose zero reductions are the relations,
    # with no reduced basis built after it: it charges exactly what that
    # run charges alone, and a cap one below that stops it
    charged = []
    tick = engine._Clock.tick

    def counting_tick(self, amount):
        charged.append(amount)
        return tick(self, amount)

    monkeypatch.setattr(engine._Clock, "tick", counting_tick)
    basis_clock = engine._Clock(None, "test")
    engine._run_columns(twisted_cubic(), basis_clock, True)
    del charged[:]
    syzygies(twisted_cubic())
    step = sum(charged)
    assert step == basis_clock.work > 0
    syzygies(twisted_cubic(), budget=Budget(max_monomials=step))
    with pytest.raises(BudgetExceeded, match="^syzygies: monomial"):
        syzygies(twisted_cubic(), budget=Budget(max_monomials=step - 1))


def test_budget_rejects_seconds_that_switch_the_time_cap_off():
    # nan and inf put the deadline out of reach, and a negative one has
    # passed before the step starts; zero stays valid, as
    # minimal_free_resolution hands its steps max(0, the seconds that remain)
    for bad in (float("nan"), float("inf"), float("-inf"), -1.0):
        with pytest.raises(ValueError, match="^budget seconds"):
            Budget(seconds=bad)
    assert Budget(seconds=0.0).seconds == 0.0


def test_budget_rejects_monomial_caps_that_are_not_counts():
    # int() would cap 2.5 at 2 and True at 1, and inf would overflow
    for bad in (2.5, True, False, -3, float("inf"), float("nan"), "10", None):
        with pytest.raises(ValueError, match="^budget max_monomials"):
            Budget(max_monomials=bad)
    assert Budget(max_monomials=0).max_monomials == 0
    assert Budget(max_monomials=10 ** 8).max_monomials == 10 ** 8


def test_vector_degree():
    # one grading rule, defined with the matrices and used by the engine
    assert vector_degree is engine.vector_degree is matrices.vector_degree
    v = (parse("x^2", XYZ), parse("y", XYZ))
    assert vector_degree(v, (1, 2)) == 3
    assert vector_degree((XYZ.zero(), XYZ.zero()), (1, 2)) is None
    with pytest.raises(ValueError, match="^grading inconsistency: vector is not"):
        vector_degree(v, (0, 0))
    with pytest.raises(ValueError, match="^grading inconsistency: vector component"):
        vector_degree((parse("x + y^2", XYZ),), (0,))


def test_module_membership():
    M = ModuleBasis(2, [(parse("x", XYZ), XYZ.zero()),
                        (XYZ.zero(), parse("y", XYZ))])
    assert module_member((parse("x*y", XYZ), XYZ.zero()), M)
    assert not module_member((parse("y", XYZ), XYZ.zero()), M)


def test_ideal_contains():
    big = ideal(XYZ, "x", "y")
    small = ideal(XYZ, "x^2 + x*y")
    assert ideal_contains(big, small)
    assert not ideal_contains(small, big)


# -- the fraction-free engine ----------------------------------------------------


def rational_form(rng, ring, degree, max_terms=4):
    """Random nonzero form whose coefficients have denominators."""
    form = random_form(rng, ring, degree, max_terms)
    return Polynomial(ring, {m: c * Fraction(rng.randint(1, 9), rng.randint(1, 7))
                             for m, c in form.terms.items()})


def test_encoding_orders_and_divides_like_the_ring():
    rng = random.Random(97)
    big = (1 << 31) - 1
    for order in ("grevlex", "lex", ("elim", 1), ("elim", 2)):
        ring = RingContext(("x", "y", "z", "t"), order=order)
        enc = engine._Encoding(ring)
        monos = [tuple(rng.choice((0, 1, 2, 3, 7, big // 3, big)) for _ in range(4))
                 for _ in range(60)]
        terms = [(pos, m) for m in monos for pos in (0, 2)]
        for (pa, a) in terms:
            ka, pka = enc.term(pa, a)
            assert enc.mono(pka) == a and pka >> enc.pos_bits == pa
            for (pb, b) in terms:
                kb, pkb = enc.term(pb, b)
                expected = (-pa, ring.key(a)) < (-pb, ring.key(b))
                assert (ka < kb) == expected
                if pa == pb:
                    divides = all(x <= y for x, y in zip(a, b))
                    assert (not (pkb - pka) & enc.guard) == divides
        small = [tuple(rng.randint(0, 5) for _ in range(4)) for _ in range(20)]
        for s in small:
            ks, ps = enc.term(0, s)
            for t in small:
                kt, pt = enc.term(1, t)
                assert enc.term(1, tuple(x + y for x, y in zip(s, t))) == (ks + kt, ps + pt)
    with pytest.raises(BudgetExceeded):
        engine._Encoding(XYZ).term(0, (1 << 31, 0, 0))


def sorted_vecs_from_columns(vs, enc):
    """The engine vectors (terms, L) of the column vectors vs, L the least
    common denominator of v's coefficients, each term made at its own
    position and the terms of L*v sorted once: the conversion before one
    packing served columns and matrices alike, kept as its oracle."""
    out = []
    for v in vs:
        scale = 1
        for comp in v:
            for c in comp.terms.values():
                scale = lcm(scale, c.denominator)
        terms = []
        for pos, comp in enumerate(v):
            for m, c in comp.terms.items():
                key, pack = enc.term(pos, m)
                terms.append((key, pack, c.numerator * (scale // c.denominator)))
        terms.sort(reverse=True)
        out.append((terms, scale))
    return out


def test_one_packing_serves_columns_and_matrices():
    # the engine vectors of the columns of M, and of the rows and columns
    # of the packed L * M, against the oracle: rational entries, zeros
    # among them, at three to five positions
    rng = random.Random(61)
    zeros = fractions = 0
    for order in ("grevlex", "lex", ("elim", 2)):
        ring = RingContext(("x", "y", "z", "t"), order=order)
        for _ in range(20):
            n, m = rng.randint(3, 5), rng.randint(3, 5)
            M = PolyMatrix(ring, [[random_poly(rng, ring) for _ in range(m)]
                                  for _ in range(n)])
            enc, rows, scale = engine._pack(M)
            columns = [M.column(j) for j in range(M.cols)]
            assert engine._vecs_from_columns(columns, enc) == \
                sorted_vecs_from_columns(columns, enc)
            scaled = [[p * scale for p in row] for row in M.entries]
            for packed, entries in ((rows, scaled), (zip(*rows), zip(*scaled))):
                want = sorted_vecs_from_columns(list(entries), enc)
                assert {one for _terms, one in want} <= {1}
                assert engine._vectors(packed, enc, scale) == \
                    [(terms, scale) for terms, _one in want]
            zeros += sum(p.is_zero() for row in M.entries for p in row)
            fractions += scale > 1
    assert zeros and fractions


def check_nf_identity(basis, v, rank, columns):
    """sigma*v + sum_i t_i*input_i = r below rank exactly, for the tag part
    t of r, with r fully reduced; and every element [b | rho] of the basis
    has b = sum_i rho_i*input_i."""
    enc, ring, n = basis.enc, basis.ring, len(columns)
    inputs = [[col[pos] for col in columns] for pos in range(rank)]
    for elem in basis.elems:
        rho = tag_polys(elem, rank, n, enc)
        b = engine._terms_to_polys(elem, rank, enc)
        assert list(b) == [combine(rho, inputs[pos], ring) for pos in range(rank)]
    r, sigma, _sugar = basis.nf(v, None)
    assert isinstance(sigma, int) and sigma > 0
    assert all(isinstance(c, int) for _k, _p, c in r)
    t = tag_polys(r, rank, n, enc)
    lhs = [p * sigma + combine(t, inputs[pos], ring)
           for pos, p in enumerate(engine._terms_to_polys(v, rank, enc))]
    assert lhs == list(engine._terms_to_polys(r, rank, enc))
    leads = [(e[0][1] >> enc.pos_bits, enc.mono(e[0][1])) for e in basis.elems]
    assert all(lp < rank for lp, _lm in leads)
    for _k, pack, _c in r:
        pos, m = pack >> enc.pos_bits, enc.mono(pack)
        assert not any(lp == pos and all(a <= b for a, b in zip(lm, m))
                       for lp, lm in leads)
    return sigma


def test_nf_is_exact_and_fraction_free():
    rng = random.Random(89)
    sigmas, scales, leads = [], [], []
    for trial in range(10):
        if trial % 2 == 0:
            gens = [rational_form(rng, XYZ, rng.choice((2, 2, 3))) for _ in range(3)]
            F = IdealBasis(gens, ring=XYZ)
            basis, rank = gb(F, track=True), 1
            columns = [(g,) for g in gens]
        else:
            rank = rng.randint(2, 3)
            columns = [tuple(rational_form(rng, XYZ, rng.randint(1, 2))
                             if rng.random() < 0.8 else XYZ.zero()
                             for _ in range(rank)) for _ in range(3)]
            F = ModuleBasis(rank, columns, ring=XYZ)
            basis = gb(F, track=True)
        for elem in basis.elems:
            lc = elem[0][2]
            assert isinstance(lc, int) and lc > 0
            leads.append(lc)
            assert gcd(*[c for _k, _p, c in elem]) == 1
        probes = []
        for _ in range(4):
            coeffs = [rational_form(rng, XYZ, rng.randint(0, 2)) for _ in columns]
            member_probe = tuple(combine(coeffs, [col[pos] for col in columns], XYZ)
                                 for pos in range(rank))
            other = tuple(rational_form(rng, XYZ, rng.randint(1, 3)) for _ in range(rank))
            probes += [(member_probe, True), (other, False)]
        for probe, is_member in probes:
            ((v, scale),) = engine._vecs_from_columns([probe], basis.enc)
            scales.append(scale)
            sigmas.append(check_nf_identity(basis, v, rank, columns))
            if is_member:
                top = rank << basis.enc.pos_bits
                assert all(p >= top for _k, p, _c in basis.nf(v, None)[0])
            if rank == 1:
                cof = member_with_cofactors(probe[0], F)
                if is_member:
                    assert cof is not None
                    assert combine(cof, F.generators, XYZ) == probe[0]
                elif cof is not None:
                    assert combine(cof, F.generators, XYZ) == probe[0]
    assert max(leads) > 1     # non-unit integer leads
    assert max(sigmas) > 1    # the a != 1 step ran
    assert max(scales) > 1    # denominators were cleared


def fresh(F):
    """A copy of the ideal or module F with an empty basis cache."""
    if isinstance(F, IdealBasis):
        return IdealBasis(F.generators, ring=F.ring)
    return ModuleBasis(F.ambient_rank, F.generators, ring=F.ring, grading=F.grading)


def seeded_cases(rng, count):
    """Alternately an ideal and a module over XYZ, with denominators."""
    cases = []
    for trial in range(count):
        if trial % 2 == 0:
            gens = [rational_form(rng, XYZ, rng.choice((1, 2, 2, 3)))
                    for _ in range(rng.randint(2, 4))]
            cases.append(IdealBasis(gens, ring=XYZ))
        else:
            rank = rng.randint(2, 3)
            cases.append(ModuleBasis(rank, [
                tuple(rational_form(rng, XYZ, rng.randint(1, 2))
                      if rng.random() < 0.8 else XYZ.zero() for _ in range(rank))
                for _ in range(rng.randint(2, 4))], ring=XYZ))
    return cases


def test_tracking_adds_no_work_charge(monkeypatch):
    # Tags ride along in every reduction of a tracked basis, but the clock
    # is charged only for the terms below them: in rank > 1 tracking costs
    # no work. A tracked ideal run also reduces the coprime-lead (Koszul)
    # pairs that an untracked one skips, since its relations are needed.
    charged = []
    tick = engine._Clock.tick

    def counting_tick(self, amount):
        charged.append(amount)
        return tick(self, amount)

    monkeypatch.setattr(engine._Clock, "tick", counting_tick)
    works, koszul_work = [], 0
    for F in seeded_cases(random.Random(101), 40):
        rank = F.ambient_rank
        totals, bases = [], []
        for track in (False, True):
            del charged[:]
            basis = gb(fresh(F), track=track)
            totals.append((len(charged), sum(charged)))
            bases.append([engine._terms_to_polys(v, rank, basis.enc, v[0][2])
                          for v in basis.elems])
        if rank > 1:
            assert totals[0] == totals[1]
        else:
            assert totals[1][1] >= totals[0][1]
            koszul_work += totals[1][1] - totals[0][1]
        assert bases[0] == bases[1]
        works.append(totals[0][1])
    assert sum(w > 0 for w in works) >= 35
    assert koszul_work > 0


def untracked_answers(F, probes):
    if isinstance(F, IdealBasis):
        return (groebner_basis(F).generators,
                [normal_form(p, F) for p in probes],
                [member(p, F) for p in probes],
                [hilbert_function(F, d) for d in range(5)])
    return ([module_normal_form(v, F) for v in probes],
            [module_member(v, F) for v in probes])


def tracked_answers(F, probes):
    if isinstance(F, IdealBasis):
        return (syzygies(F).generators,
                [member_with_cofactors(p, F) for p in probes])
    return syzygies(F).generators


def test_tags_never_leak():
    # Only the reduced, untracked basis is cached. Whichever kind of query
    # comes first on an object, the answers must equal those on a fresh
    # object.
    rng = random.Random(103)
    cases = []
    for _ in range(4):
        gens = [random_form(rng, XYZ, rng.choice((2, 2, 3)), max_terms=4)
                for _ in range(rng.randint(3, 4))]
        cases.append(IdealBasis(gens, ring=XYZ))
        cases.append(syzygies(IdealBasis(gens, ring=XYZ)))
    for F in cases:
        columns = [(g,) for g in F.generators] if isinstance(F, IdealBasis) \
            else list(F.generators)
        rank = len(columns[0])
        probes = []
        for _ in range(3):
            coeffs = [random_form(rng, XYZ, rng.randint(1, 2)) for _ in columns]
            inside = tuple(combine(coeffs, [col[pos] for col in columns], XYZ)
                           for pos in range(rank))
            outside = tuple(random_form(rng, XYZ, 3) for _ in range(rank))
            probes += [inside, outside]
        if isinstance(F, IdealBasis):
            probes = [p for (p,) in probes]
        first = fresh(F)
        tracked_answers(first, probes)
        assert first._cache == {}  # tracked runs are not cached
        assert untracked_answers(first, probes) == untracked_answers(fresh(F), probes)
        assert list(first._cache) == ["gb"]
        second = fresh(F)
        untracked_answers(second, probes)
        assert tracked_answers(second, probes) == tracked_answers(fresh(F), probes)
        if isinstance(F, IdealBasis):
            third = fresh(F)
            for p in probes:
                member_with_cofactors(p, third)
            assert syzygies(third).generators == syzygies(fresh(F)).generators


def test_ideal_is_the_rank_one_module():
    # An IdealBasis runs the rank-1 module path: the same answers must come
    # from ModuleBasis(1, I.columns, grading=(0,)), inhomogeneous and zero
    # generators included.
    rng = random.Random(109)
    homogeneous = 0
    for trial in range(16):
        if trial % 2 == 0:
            degree = rng.choice((1, 2, 2, 3))
            gens = [random_form(rng, XYZ, degree, max_terms=3) for _ in range(3)]
        else:
            gens = [random_poly(rng, XYZ, max_terms=3, max_deg=2) for _ in range(3)]
        gens.insert(rng.randrange(len(gens) + 1), XYZ.zero())
        I = IdealBasis(gens, ring=XYZ)
        M = ModuleBasis(1, I.columns, ring=XYZ, grading=(0,))
        assert (I.ambient_rank, I.grading) == (M.ambient_rank, M.grading)
        S_I, S_M = syzygies(I), syzygies(M)
        assert S_I.generators == S_M.generators
        assert S_I.grading == S_M.grading
        probes = [random_poly(rng, XYZ, max_terms=4, max_deg=3) for _ in range(4)]
        probes += [combine([random_poly(rng, XYZ, max_terms=2, max_deg=1)
                            for _ in gens], gens, XYZ)]
        assert ([normal_form(p, I) for p in probes]
                == [module_normal_form((p,), M)[0] for p in probes])
        if all(g.is_homogeneous() for g in gens):
            homogeneous += 1
            assert S_I.grading is not None
            assert (minimal_generators(I).columns
                    == module_minimal_generators(M).generators)
        else:
            assert S_I.grading is None
            with pytest.raises(ValueError):
                minimal_generators(I)
            with pytest.raises(ValueError):
                module_minimal_generators(M)
    assert 0 < homogeneous < 16


def test_reduced_basis_matches_sympy():
    sympy = pytest.importorskip("sympy")
    shapes = {3: ((2, 2, 2), (2, 2, 3), (2, 2, 2, 2), (3, 3, 3)), 4: ((2, 2, 2), (2, 2, 3))}
    for nvars, degree_lists in shapes.items():
        ring = XYZ if nvars == 3 else XYZT
        symbols = sympy.symbols(ring.variables)
        for k, degrees in enumerate(degree_lists):
            rng = random.Random(1000 * nvars + k)
            gens = []
            for degree in degrees:
                monos = [tuple(c.count(v) for v in range(nvars))
                         for c in combinations_with_replacement(range(nvars), degree)]
                gens.append(Polynomial(ring, {m: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
                                              for m in monos}))
            ours = {frozenset(g.terms.items())
                    for g in groebner_basis(IdealBasis(gens, ring=ring)).generators}
            exprs = [sum(int(c) * sympy.prod(s ** e for s, e in zip(symbols, m))
                         for m, c in g.terms.items()) for g in gens]
            theirs = set()
            for g in sympy.groebner(exprs, *symbols, order="grevlex", domain="QQ").exprs:
                terms = sympy.Poly(g, *symbols).terms()
                theirs.add(frozenset((tuple(m), Fraction(int(c.p), int(c.q)))
                                     for m, c in terms))
            assert ours == theirs


def test_resolution_stops_at_one_deadline(monkeypatch):
    # A fake clock that advances one second per reading; every step ticks
    # it, so the count of readings is the same on every machine.
    now = [0.0]

    def fake_monotonic():
        now[0] += 1.0
        return now[0]

    def fresh():
        return ideal(XYZ, "x^2 + 2*y*z", "y^2 - 3*x*z", "z^2 + x*y", "x*y - y*z")

    monkeypatch.setattr(engine.time, "monotonic", fake_monotonic)
    full = minimal_free_resolution(fresh(), max_length=3, budget=Budget(seconds=1e9))
    readings = int(now[0])
    assert_koszul_agrees(fresh(), full)
    assert readings > 20
    half = readings // 2
    now[0] = 0.0
    with pytest.raises(BudgetExceeded):
        minimal_free_resolution(fresh(), max_length=3, budget=Budget(seconds=half))
    # The call ends at reading 1 + half. A step reads the clock once to take
    # the seconds that remain and once per clock it starts, so it may stop a
    # few readings later, but never a step's worth of seconds later.
    assert 1 + half < now[0] <= 1 + half + 5
    now[0] = 0.0
    again = minimal_free_resolution(fresh(), max_length=3,
                                    budget=Budget(seconds=readings))
    assert again.shifts == full.shifts

"""Polynomial substrate: parsing, arithmetic, gcd, degrees."""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import from_sympy, random_form, random_poly, to_sympy
from presmat import gcd
from presmat.ring import (
    NEG_INF,
    ParseError,
    Polynomial,
    RingContext,
    embed,
    exact_div,
    parse,
)
from presmat.ring import _tokenize

XYZ = RingContext(["x", "y", "z"])


def test_parse_two_terms():
    p = parse("x*y - 2*z^2", XYZ)
    assert p.terms == {(1, 1, 0): Fraction(1), (0, 0, 2): Fraction(-2)}


def test_parse_zero():
    assert parse("0", XYZ).terms == {}
    assert parse("0", XYZ).is_zero()


def test_parse_closing_remark_monomial():
    names = (["x1", "x2", "x3"]
             + [f"y{i}" for i in range(1, 6)]
             + [f"z{i}" for i in range(1, 9)])
    ring = RingContext(names)
    p = parse("-x3*y4*y5*z4*z5", ring)
    assert len(p.terms) == 1
    (mono, coeff), = p.terms.items()
    assert coeff == Fraction(-1)
    assert sum(mono) == 5
    assert mono[ring.index("x3")] == 1
    assert mono[ring.index("y4")] == mono[ring.index("y5")] == 1
    assert mono[ring.index("z4")] == mono[ring.index("z5")] == 1


def test_parse_rational_literal_and_whitespace():
    assert parse("3/2*x", XYZ) == parse("  3 / 2 * x ", XYZ)
    assert parse("3/2", XYZ).constant_term() == Fraction(3, 2)


def test_parse_precedence():
    # ^ binds tighter than *, which binds tighter than +/-
    assert parse("2*x^2", XYZ) == XYZ.monomial((2, 0, 0), 2)
    assert parse("-x^2", XYZ) == -XYZ.monomial((2, 0, 0))
    assert parse("x+y*z", XYZ) == XYZ.variable("x") + XYZ.variable("y") * XYZ.variable("z")
    assert parse("(x+y)*z", XYZ) == (XYZ.variable("x") + XYZ.variable("y")) * XYZ.variable("z")


def test_parse_juxtaposition_is_not_multiplication():
    with pytest.raises(ParseError):
        parse("xy", XYZ)  # unknown identifier, not x*y


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse("x + * y", XYZ)
    assert info.value.position == 4
    with pytest.raises(ParseError) as info:
        parse("x + w", XYZ)
    assert info.value.position == 4
    with pytest.raises(ParseError):
        parse("x^y", XYZ)
    with pytest.raises(ParseError):
        parse("3/0", XYZ)
    with pytest.raises(ParseError):
        parse("x +", XYZ)


class ArithmeticParser:
    """Reference parser for the same grammar that builds every factor as a
    Polynomial and combines them with Polynomial *, ** and +."""

    def __init__(self, text, ring):
        self.tokens = _tokenize(text)
        self.ring = ring
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.take()

    def parse(self):
        p = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", pos)
        return p

    def expr(self):
        p = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self):
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                p = p * self.factor()
            else:
                return p

    def factor(self):
        sign = 1
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                if val == "-":
                    sign = -sign
            else:
                break
        p = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, pos = self.peek()
            if kind != "num":
                raise ParseError("exponent must be a nonnegative integer", pos)
            self.take()
            p = p ** int(val)
        return p if sign == 1 else -p

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            value = Fraction(int(val))
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "/":
                self.take()
                kind3, val3, pos3 = self.peek()
                if kind3 != "num":
                    raise ParseError("denominator must be an integer", pos3)
                self.take()
                if int(val3) == 0:
                    raise ParseError("zero denominator", pos3)
                value = Fraction(int(val), int(val3))
            return self.ring.constant(value)
        if kind == "name":
            if val not in self.ring._index:
                raise ParseError(f"unknown variable {val!r}", pos)
            return self.ring.variable(val)
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected {val!r}" if val else "unexpected end of input", pos)


def parse_outcome(parser, text, ring):
    """The parsed terms with their coefficient types, or the ParseError's
    message and position."""
    try:
        p = parser(text, ring)
    except ParseError as e:
        return "error", str(e), e.position
    return {m: (c, type(c)) for m, c in p.terms.items()}


def reference_parse(text, ring):
    return ArithmeticParser(text, ring).parse()


def random_expression(rng, names, depth=2):
    """Text with signs, powers, fractions and parentheses, spaced at random."""
    def atom():
        roll = rng.random()
        if roll < 0.45:
            return rng.choice(names)
        if roll < 0.75 or not depth:
            num = str(rng.randint(0, 12))
            return num + "/" + str(rng.randint(1, 9)) if rng.random() < 0.3 else num
        return "(" + random_expression(rng, names, depth - 1) + ")"

    def factor():
        text = "".join(rng.choice("+-") for _ in range(rng.choice((0, 0, 0, 1, 2)))) + atom()
        return text + "^" + str(rng.randint(0, 3)) if rng.random() < 0.3 else text

    def gap():
        return rng.choice(("", "", " ", "  "))

    terms = ["*".join(gap() + factor() + gap() for _ in range(rng.randint(1, 4)))
             for _ in range(rng.randint(1, 4))]
    text = terms[0]
    for t in terms[1:]:
        text += rng.choice("+-") + t
    return text


def test_term_parser_matches_the_arithmetic_parser_on_seeded_texts():
    rng = random.Random(71)
    for _ in range(400):
        text = random_expression(rng, XYZ.variables)
        assert parse_outcome(parse, text, XYZ) == parse_outcome(reference_parse, text, XYZ), text
    # -x^2 is -(x^2), and -2^2 is -4
    assert parse("-x^2", XYZ) == -XYZ.monomial((2, 0, 0))
    assert parse("-2^2", XYZ) == XYZ.constant(-4)
    assert parse("x*0 + 0^0 - (x+y)^0", XYZ).is_zero()


def test_term_parser_raises_the_arithmetic_parsers_errors():
    pieces = ["x", "y", "w", "2", "0", "3/", "/", "+", "-", "*", "^", "(", ")", " ", "$", "1/0"]
    rng = random.Random(72)
    errors = 0
    for _ in range(600):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 8)))
        want = parse_outcome(reference_parse, text, XYZ)
        assert parse_outcome(parse, text, XYZ) == want, text
        errors += isinstance(want, tuple)
    assert errors > 300


def corpus_texts():
    """(variable names, text) of every generator and matrix entry that the
    benchmark's ideal_resolution and cli_documents corpora parse, seeds 1-3."""
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    for seed in (1, 2, 3):
        for _label, names, gens in workloads.IdealResolution(None, seed, None, root).ideals:
            for text in gens:
                yield names, text
        for _name, _argv, doc, *_ in workloads.cli_documents(
                random.Random("cli_documents:%d" % seed), root):
            if doc and "ring" in doc:
                names = doc["ring"]["vars"]
                for text in doc.get("ideal", []):
                    yield names, text
                for row in doc.get("matrix", []):
                    for text in row:
                        yield names, text
    for path in sorted((root / "src" / "presmat" / "fixtures").glob("*.json")):
        doc = json.loads(path.read_text())
        if "ring" in doc:
            for text in doc.get("ideal", []) + [t for row in doc.get("matrix", []) for t in row]:
                yield doc["ring"]["vars"], text


def test_term_parser_matches_the_arithmetic_parser_on_the_corpora():
    count = 0
    for names, text in corpus_texts():
        ring = RingContext(names)
        assert parse_outcome(parse, text, ring) == parse_outcome(reference_parse, text, ring)
        count += 1
    assert count > 1000


def test_difference_of_squares():
    x, y = XYZ.variable("x"), XYZ.variable("y")
    assert (x + y) * (x - y) == parse("x^2 - y^2", XYZ)


def test_additive_identity():
    p = parse("x*y - 2*z^2 + 1/3", XYZ)
    assert p + XYZ.zero() == p
    assert p + 0 == p


def test_triple_product_expansion():
    # h1*g2*g3 with h1=x, g2=v, g3=w; oracle: direct single-term expansion
    ring = RingContext(["x", "y", "z", "u", "v", "w"])
    prod = ring.variable("x") * ring.variable("v") * ring.variable("w")
    expected = ring.monomial((1, 0, 0, 0, 1, 1))
    assert prod == expected


def test_gcd_monomials():
    assert gcd(parse("x^2*y", XYZ), parse("x*y^2", XYZ)) == parse("x*y", XYZ)


def _resultant_linear_in(p: Polynomial, q: Polynomial, var: str):
    """Sylvester resultant for polynomials of degree 1 in `var`."""
    ring = p.ring
    i = ring.index(var)

    def split(f):
        one = {m: c for m, c in f.terms.items() if m[i] == 1}
        zero = {m: c for m, c in f.terms.items() if m[i] == 0}
        assert len(one) + len(zero) == len(f.terms), "degree > 1 in main variable"
        drop = lambda m: m[:i] + (0,) + m[i + 1:]
        return (Polynomial(ring, {drop(m): c for m, c in one.items()}),
                Polynomial(ring, zero))

    a1, a0 = split(p)
    b1, b0 = split(q)
    return a1 * b0 - a0 * b1


def test_gcd_coprime_linear_forms():
    # oracle: resultants in x and in y are both nonzero, so the gcd is constant
    p, q = parse("x+y", XYZ), parse("x-y", XYZ)
    assert not _resultant_linear_in(p, q, "x").is_zero()
    assert not _resultant_linear_in(p, q, "y").is_zero()
    assert gcd(p, q) == XYZ.one()


def test_gcd_shared_factor():
    # oracle: build both inputs from known factorizations, common part = x+y
    x, y = XYZ.variable("x"), XYZ.variable("y")
    p = (x - y) * (x + y)
    q = (x + y) * (x + y)
    assert p == parse("x^2-y^2", XYZ) and q == parse("x^2+2*x*y+y^2", XYZ)
    assert gcd(p, q) == x + y


def test_gcd_zero_conventions():
    p = parse("2*x + 2*y", XYZ)
    assert gcd(p, XYZ.zero()) == parse("x + y", XYZ)  # monic normalization
    assert gcd(XYZ.zero(), p) == parse("x + y", XYZ)
    assert gcd(XYZ.zero(), XYZ.zero()).is_zero()


def test_gcd_normalized_leading_coefficient():
    p = parse("4*x^2 - 4*y^2", XYZ)
    q = parse("6*x^2 + 12*x*y + 6*y^2", XYZ)
    g = gcd(p, q)
    assert g.lead_coeff() == 1 and g == parse("x+y", XYZ)


def test_gcd_matches_sympy():
    # planted common factors, rational coefficients, no grading; gcds agree
    # with sympy's up to a constant, so literally once both are monic
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2718)
    rings = [XYZ, RingContext(["x", "y", "z"], order="lex"),
             RingContext(["t", "x", "y"], order=("elim", 1))]
    general = 0
    for k in range(120):
        ring = rings[k % len(rings)]
        symbols = sympy.symbols(ring.variables)
        g = random_poly(rng, ring, max_terms=3, max_deg=2, allow_zero=False)
        p = g * random_poly(rng, ring, max_terms=3, max_deg=2, allow_zero=False)
        q = g * random_poly(rng, ring, max_terms=3, max_deg=2, allow_zero=False)
        theirs = sympy.gcd(to_sympy(sympy, p, symbols), to_sympy(sympy, q, symbols))
        want = from_sympy(sympy, theirs, ring, symbols)
        assert gcd(p, q) == want.monic()
        general += len(p.terms) > 1 and len(q.terms) > 1 and len(want.terms) > 1
    assert general > 40  # most cases take the colon-ideal route


def test_degree_and_sentinel():
    assert parse("x*v*w", RingContext(["x", "v", "w"])).degree() == 3
    assert XYZ.zero().degree() == NEG_INF
    assert NEG_INF < 0
    assert XYZ.one().degree() == 0


def test_is_homogeneous():
    assert parse("x^2 + y*z", XYZ).is_homogeneous()
    assert not parse("x + y*z", XYZ).is_homogeneous()
    assert XYZ.zero().is_homogeneous()


def test_constant_term():
    assert parse("3/2 + x", XYZ).constant_term() == Fraction(3, 2)
    assert parse("x", XYZ).constant_term() == 0


def test_exact_div():
    x, y = XYZ.variable("x"), XYZ.variable("y")
    p = (x + y) * (x - y) * (x + 2 * y)
    assert exact_div(p, x + y) == (x - y) * (x + 2 * y)
    with pytest.raises(ValueError):
        exact_div(x + y, x - y)


def _scan_div(p, q):
    """Reference quotient: scan the whole remainder for its largest term at
    every step, and raise once that term is not divisible by lead(q)."""
    ring = p.ring
    qm, qc = q.lead_monomial(), q.lead_coeff()
    rem, quot = dict(p.terms), {}
    while rem:
        m = max(rem, key=ring.key)
        f = tuple(a - b for a, b in zip(m, qm))
        if min(f) < 0:
            raise ValueError("division is not exact")
        fc = rem[m] / qc
        quot[f] = fc
        for m2, c2 in q.terms.items():
            mm = tuple(a + b for a, b in zip(f, m2))
            s = rem.get(mm, 0) - fc * c2
            if s:
                rem[mm] = s
            else:
                del rem[mm]
    return Polynomial(ring, quot)


@pytest.mark.parametrize("order", ["grevlex", "lex", ("elim", 2)])
def test_exact_div_matches_the_remainder_scan(order):
    ring = RingContext(["t", "x", "y", "z"], order=order)
    rng = random.Random(31)
    inexact = 0
    for case in range(150):
        q = random_poly(rng, ring, max_terms=1 if case % 5 == 0 else 4,
                        allow_zero=False)
        p = random_poly(rng, ring, max_terms=5) * q
        if case % 2:  # one more term, which seldom keeps q a divisor
            p = p + random_poly(rng, ring, max_terms=1)
        try:
            want = _scan_div(p, q)
        except ValueError:
            inexact += 1
            with pytest.raises(ValueError, match="not exact"):
                exact_div(p, q)
            continue
        assert exact_div(p, q) == want
        assert want * q == p
    assert inexact >= 20


def test_embed():
    small = RingContext(["x", "z"])
    big = RingContext(["x", "y", "z", "t"])
    p = parse("x^2 - 3*z", small)
    assert embed(p, big) == parse("x^2 - 3*z", big)
    with pytest.raises(ValueError):
        embed(parse("x", big.extend(["q"])), small)


def test_mismatched_rings_rejected():
    other = RingContext(["x", "y", "z"], order="lex")
    with pytest.raises(ValueError):
        parse("x", XYZ) + parse("x", other)
    with pytest.raises(ValueError):
        gcd(parse("x", XYZ), parse("x", other))


# -- property suites ---------------------------------------------------------

def test_ring_axioms_randomized():
    rng = random.Random(1201)
    rings = [XYZ, RingContext(["a", "b"], order="lex"),
             RingContext(["x", "y", "z", "w"], order=("elim", 1))]
    for i in range(250):
        ring = rings[i % len(rings)]
        p = random_poly(rng, ring)
        q = random_poly(rng, ring)
        r = random_poly(rng, ring)
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + q == q + p
        assert p * q == q * p
        assert p - p == ring.zero()
        assert p * ring.one() == p


def test_render_parse_round_trip_randomized():
    rng = random.Random(1902)
    rings = [XYZ, RingContext(["alpha", "b2", "c_3"]),
             RingContext(["x", "y"], order="lex")]
    for i in range(250):
        ring = rings[i % len(rings)]
        p = random_poly(rng, ring, max_terms=6, max_deg=4)
        assert parse(str(p), ring) == p
    assert parse(str(XYZ.zero()), XYZ).is_zero()


def test_gcd_divides_randomized():
    rng = random.Random(77)
    for _ in range(60):
        nv = rng.randint(2, 3)
        ring = RingContext(["x", "y", "z"][:nv])
        g = random_form(rng, ring, rng.randint(1, 2), max_terms=2)
        p = g * random_poly(rng, ring, max_terms=2, max_deg=2, allow_zero=False)
        q = g * random_poly(rng, ring, max_terms=2, max_deg=2, allow_zero=False)
        d = gcd(p, q)
        assert exact_div(p, d) * d == p
        assert exact_div(q, d) * d == q
        # the planted common factor divides any common divisor of p and q
        assert exact_div(d, gcd(d, g)) is not None and gcd(d, g) == g.monic()


def test_homogeneous_product_degrees():
    rng = random.Random(4003)
    for _ in range(200):
        d, e = rng.randint(1, 3), rng.randint(1, 3)
        p = random_form(rng, XYZ, d)
        q = random_form(rng, XYZ, e)
        prod = p * q
        assert prod.is_homogeneous()
        assert prod.degree() == d + e


def test_pow_matches_repeated_multiplication():
    rng = random.Random(88)
    for _ in range(50):
        p = random_poly(rng, XYZ, max_terms=3, max_deg=2)
        n = rng.randint(0, 4)
        expected = XYZ.one()
        for _ in range(n):
            expected = expected * p
        assert p ** n == expected


def test_grevlex_order_on_variables():
    # x > y > z at equal degree, higher degree dominates
    x, y, z = (XYZ.variable(v) for v in "xyz")
    assert (x + y).lead_monomial() == (1, 0, 0)
    assert (y + z).lead_monomial() == (0, 1, 0)
    assert (x + y * z).lead_monomial() == (0, 1, 1)
    assert str(x + y + z) == "x + y + z"


def test_lex_order_difference():
    lex = RingContext(["x", "y", "z"], order="lex")
    p = parse("x + y^5", lex)
    assert p.lead_monomial() == (1, 0, 0)
    grv = parse("x + y^5", XYZ)
    assert grv.lead_monomial() == (0, 5, 0)


def test_elimination_block_order():
    ring = RingContext(["t", "x", "y"], order=("elim", 1))
    # any monomial containing t beats any t-free monomial
    p = parse("t + x^4*y^4", ring)
    assert p.lead_monomial() == (1, 0, 0)


@pytest.mark.parametrize("k", ["1", 1.5, True, None])
def test_elimination_block_size_must_be_an_integer(k):
    with pytest.raises(ValueError, match="must be an integer"):
        RingContext(["t", "x", "y"], order=("elim", k))


def test_evaluate_is_exact_and_an_int_where_it_can_be():
    # against a sum of Fraction terms; integer coefficients at an integer
    # point give an int, which fraction-free elimination of values needs
    rng = random.Random(61)
    for _ in range(50):
        p = random_poly(rng, XYZ, max_terms=5)
        point = [rng.randint(-4, 4) for _ in range(3)]
        for at in (point, [Fraction(x, 3) for x in point]):
            want = sum((c * Fraction(at[0]) ** m[0] * Fraction(at[1]) ** m[1]
                        * Fraction(at[2]) ** m[2] for m, c in p.terms.items()),
                       Fraction(0))
            got = p.evaluate(at)
            assert got == want
            if at is point and all(c.denominator == 1 for c in p.terms.values()):
                assert type(got) is int
    assert parse("x^2*y - 3", XYZ).evaluate([2, 3, 5]) == 9
    assert parse("1/2*x", XYZ).evaluate(["1/3", 0, 0]) == Fraction(1, 6)
    with pytest.raises(ValueError):
        parse("x", XYZ).evaluate([1, 2])

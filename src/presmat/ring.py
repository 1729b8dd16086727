"""Sparse multivariate polynomial arithmetic over the rationals.

Monomials are exponent tuples, polynomials map monomials to Fraction
coefficients, and a RingContext fixes the variable list plus the
monomial order used for leading terms, normal forms and rendering.
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import neg

NEG_INF = float("-inf")  # degree of the zero polynomial

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class ParseError(ValueError):
    """Raised for malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _grevlex_key(expts):
    return (sum(expts), *[-e for e in reversed(expts)])


def _lex_key(expts):
    return expts


class RingContext:
    """Polynomial ring Q[x_1, ..., x_r] with a fixed monomial order.

    order is "grevlex" (default), "lex", or ("elim", k): a block order
    whose first k variables are compared lexicographically before the
    remaining variables are compared by grevlex. Any monomial involving
    a block variable then sorts above every monomial free of them, which
    is what elimination needs.
    """

    __slots__ = ("variables", "order", "_index", "_key")

    def __init__(self, variables, order="grevlex"):
        variables = tuple(variables)
        if not variables:
            raise ValueError("ring needs at least one variable")
        seen = set()
        for name in variables:
            if not isinstance(name, str) or not _IDENT_RE.fullmatch(name):
                raise ValueError(f"bad variable name: {name!r}")
            if name in seen:
                raise ValueError(f"duplicate variable name: {name!r}")
            seen.add(name)
        self.variables = variables
        self.order = order
        self._index = {name: i for i, name in enumerate(variables)}
        if order == "grevlex":
            self._key = _grevlex_key
        elif order == "lex":
            self._key = _lex_key
        elif isinstance(order, tuple) and len(order) == 2 and order[0] == "elim":
            k = order[1]
            if not isinstance(k, int) or isinstance(k, bool):
                raise ValueError(f"elimination block size must be an integer: {k!r}")
            if not 0 < k < len(variables):
                raise ValueError("elimination block size out of range")
            self._key = lambda e: (*e[:k], *_grevlex_key(e[k:]))
        else:
            raise ValueError(f"unknown monomial order: {order!r}")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def key(self, expts):
        """Sort key of a monomial; bigger key means bigger monomial. Keys
        are flat tuples of integers, so negating every entry reverses the
        order, which exact_div's heap relies on."""
        return self._key(expts)

    def index(self, name: str) -> int:
        return self._index[name]

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = Fraction(c)
        zero = (0,) * self.nvars
        return Polynomial(self, {zero: c} if c else {})

    def variable(self, name: str) -> "Polynomial":
        e = [0] * self.nvars
        e[self._index[name]] = 1
        return Polynomial(self, {tuple(e): Fraction(1)})

    def monomial(self, expts, coeff=1) -> "Polynomial":
        expts = tuple(expts)
        if len(expts) != self.nvars or any(e < 0 for e in expts):
            raise ValueError("bad exponent vector")
        c = Fraction(coeff)
        return Polynomial(self, {expts: c} if c else {})

    def parse(self, text: str) -> "Polynomial":
        return parse(text, self)

    def extend(self, new_variables) -> "RingContext":
        """New ring with extra variables appended, in the same order; names
        must not collide."""
        clash = set(new_variables) & set(self.variables)
        if clash:
            raise ValueError(f"variable collision: {sorted(clash)}")
        return RingContext(self.variables + tuple(new_variables), self.order)

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, RingContext)
                and self.variables == other.variables
                and self.order == other.order)

    def __hash__(self):
        return hash((self.variables, self.order))

    def __repr__(self):
        return f"RingContext({list(self.variables)}, order={self.order!r})"


class Polynomial:
    """Immutable sparse polynomial: exponent tuple -> nonzero Fraction."""

    __slots__ = ("ring", "terms", "_lead")

    def __init__(self, ring: RingContext, terms: dict):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}
        self._lead = None

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def lead_monomial(self):
        if self._lead is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            self._lead = max(self.terms, key=self.ring._key)
        return self._lead

    def lead_coeff(self) -> Fraction:
        return self.terms[self.lead_monomial()]

    def degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(m) for m in self.terms}
        return len(degrees) <= 1

    def constant_term(self) -> Fraction:
        zero = (0,) * self.ring.nvars
        return self.terms.get(zero, Fraction(0))

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def is_unit(self) -> bool:
        """Nonzero constant (units of a polynomial ring over a field)."""
        return bool(self.terms) and self.is_constant()

    def sorted_terms(self):
        """Terms in descending monomial order."""
        return sorted(self.terms.items(), key=lambda t: self.ring._key(t[0]),
                      reverse=True)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("mismatched rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return self.ring.zero()
            return Polynomial(self.ring,
                              {m: k * c for m, k in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = terms.get(m, 0) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    del terms[m]
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def monic(self) -> "Polynomial":
        """Divide by the leading coefficient; zero stays zero."""
        if not self.terms:
            return self
        lc = self.lead_coeff()
        if lc == 1:
            return self
        return self * (Fraction(1) / lc)

    def evaluate(self, point):
        """Value at a point given as one Fraction-like per ring variable:
        an int when the point and the coefficients are integers, else a
        Fraction."""
        values = [v if type(v) is int else Fraction(v) for v in point]
        if len(values) != self.ring.nvars:
            raise ValueError("point length mismatch")
        total = 0
        for m, c in self.terms.items():
            v = c.numerator if c.denominator == 1 else c
            for x, e in zip(values, m):
                if e:
                    v *= x ** e
            total += v
        return total

    # -- rendering --------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.variables
        pieces = []
        for m, c in self.sorted_terms():
            factors = []
            for name, e in zip(names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = str(abs(c))
            else:
                body = "*".join(factors)
                if abs(c) != 1:
                    body = f"{abs(c)}*{body}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"Polynomial({self})"


def render(p: Polynomial) -> str:
    return str(p)


def embed(p: Polynomial, ring: RingContext) -> Polynomial:
    """Reinterpret p in a ring that contains all of p's variables by name."""
    if p.ring == ring:
        return p
    try:
        positions = [ring.index(name) for name in p.ring.variables]
    except KeyError as e:
        raise ValueError(f"target ring lacks variable {e.args[0]!r}") from None
    terms = {}
    for m, c in p.terms.items():
        e = [0] * ring.nvars
        for pos, exp in zip(positions, m):
            e[pos] = exp
        terms[tuple(e)] = c
    return Polynomial(ring, terms)


# -- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>\d+)
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
  | (?P<op>[-+*^()/])
""", re.VERBOSE)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent for:  expr := term (('+'|'-') term)*
    term := factor ('*' factor)*;  factor := ('-'|'+')* atom ('^' int)?
    atom := int ('/' int)? | name | '(' expr ')'
    A term of numbers and variable powers is one monomial and one Fraction;
    only parenthesized factors take Polynomial arithmetic.
    """

    def __init__(self, text: str, ring: RingContext):
        self.tokens = _tokenize(text)
        self.ring = ring
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at(self, ops: str) -> bool:  # the next token is one of the operators ops
        kind, val, _ = self.peek()
        return kind == "op" and val in ops

    def expect_op(self, op: str):
        if not self.at(op):
            raise ParseError(f"expected {op!r}", self.peek()[2])
        return self.take()

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", pos)
        return p

    def expr(self) -> Polynomial:
        terms: dict = {}
        sign = 1
        while True:
            for m, c in self.term().items():
                terms[m] = terms.get(m, 0) + sign * c
            if not self.at("+-"):
                return Polynomial(self.ring, terms)
            sign = 1 if self.take()[1] == "+" else -1

    def term(self) -> dict:
        exps = [0] * self.ring.nvars
        coeff, poly = Fraction(1), None
        while True:
            f = self.factor()
            if isinstance(f, Polynomial):
                poly = f if poly is None else poly * f
            else:
                c, index, e = f
                coeff *= c
                if index is not None:
                    exps[index] += e
            if not self.at("*"):
                break
            self.take()
        if poly is None:
            return {tuple(exps): coeff}
        return (poly * Polynomial(self.ring, {tuple(exps): coeff})).terms

    def factor(self):  # (coefficient, variable index or None, exponent) or a Polynomial
        sign = 1
        while self.at("+-"):
            if self.take()[1] == "-":
                sign = -sign
        atom = self.atom()
        e = 1
        if self.at("^"):
            self.take()
            kind, val, pos = self.take()
            if kind != "num":
                raise ParseError("exponent must be a nonnegative integer", pos)
            e = int(val)
        if isinstance(atom, Polynomial):
            atom = atom ** e
            return atom if sign == 1 else -atom
        c, index = atom
        return sign * c ** e, index, e

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            if not self.at("/"):
                return Fraction(int(val)), None
            self.take()
            kind, den, pos = self.take()
            if kind != "num":
                raise ParseError("denominator must be an integer", pos)
            if int(den) == 0:
                raise ParseError("zero denominator", pos)
            return Fraction(int(val), int(den)), None
        if kind == "name":
            if val not in self.ring._index:
                raise ParseError(f"unknown variable {val!r}", pos)
            return Fraction(1), self.ring._index[val]
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected {val!r}" if val else "unexpected end of input", pos)


def parse(text: str, ring: RingContext) -> Polynomial:
    return _Parser(text, ring).parse()


# -- division ---------------------------------------------------------------

def exact_div(p: Polynomial, q: Polynomial) -> Polynomial:
    """Quotient p/q when the division is exact; raises ValueError otherwise.

    Division by a monomial divides term by term. Otherwise the remainder's
    monomials wait in a heap ordered by their keys, a key computed as its
    monomial enters the remainder, and every step cancels the largest one
    against the lead of q; the terms it brings in from the tail of q all
    sort below it (a heap division after Monagan and Pearce, JSC 2011).
    """
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero():
        return p
    if p.ring != q.ring:
        raise ValueError("mismatched rings")
    ring = p.ring
    qm, qc = q.lead_monomial(), q.lead_coeff()
    quot: dict = {}
    if len(q.terms) == 1:
        for m, c in p.terms.items():
            f = tuple(a - b for a, b in zip(m, qm))
            if any(e < 0 for e in f):
                raise ValueError("division is not exact")
            quot[f] = c / qc
        return Polynomial(ring, quot)
    key = ring._key
    tail = [(m, c) for m, c in q.terms.items() if m != qm]
    rem = dict(p.terms)
    heap = [(tuple(map(neg, key(m))), m) for m in rem]
    heapify(heap)
    while heap:
        m = heappop(heap)[1]
        c = rem.pop(m, 0)
        if not c:
            continue  # cancelled, or a second heap entry of this monomial
        f = tuple(a - b for a, b in zip(m, qm))
        if any(e < 0 for e in f):
            raise ValueError("division is not exact")
        fc = c / qc
        quot[f] = fc
        # rem -= fc * x^f * (q - lead term of q)
        for m2, c2 in tail:
            mm = tuple(a + b for a, b in zip(f, m2))
            s = rem.get(mm, 0) - fc * c2
            if mm not in rem:
                heappush(heap, (tuple(map(neg, key(mm))), mm))
            if s:
                rem[mm] = s
            else:
                del rem[mm]
    return Polynomial(ring, quot)

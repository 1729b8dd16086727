"""The benchmark's three workloads.

Each workload builds its inputs from the seed when it is created (that is
set-up), then exposes ``size`` timed operations. ``run(i)`` performs
operation i from fresh inputs: text is parsed again or matrices are
constructed again on every call, because presmat caches Groebner bases on
``IdealBasis`` and ``ModuleBasis`` objects and a reused object would time a
dict lookup. ``answer(i, raw)`` turns the program's return value into plain
data, and ``check(i, answer, rng)`` runs the checker from ``checks``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random

import checks


def _render(poly: dict, names) -> str:
    """Text for a dict polynomial with integer coefficients."""
    pieces = []
    for expts, c in sorted(poly.items(), reverse=True):
        factors = ["%s^%d" % (v, e) if e > 1 else v
                   for v, e in zip(names, expts) if e]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else [])
                        + factors)
        sign = "-" if c < 0 else "+"
        pieces.append(("-" + body if c < 0 else body) if not pieces
                      else "%s %s" % (sign, body))
    return " ".join(pieces)


def _plain_resolution(res):
    maps = [[[checks.terms_of(p) for p in row] for row in m.entries]
            for m in res.maps]
    return maps, [tuple(s) for s in res.shifts]


# -- uniform_sweep ------------------------------------------------------------------


def uniform_cases():
    """The paper's 27 uniform sequences (a^n; b^n; n(b - a)) that the
    construction covers, as in the acceptance suite's sweep."""
    cases = []
    for n in (3, 5, 7):
        for gap in (1, 2):
            for a in range((n - 1) * gap // 2, (n - 1) * gap):
                cases.append((n, a, a + gap))
    for n in (4, 6):
        for gap in (1, 2):
            for a in range(n * gap // 2, (n - 1) * gap):
                cases.append((n, a, a + gap))
    return cases


class UniformSweep:
    """homogeneous_matrix(n, a, b) then build_resolution, per paper case.

    The cases are fixed by the paper; the seed orders each pass and picks
    the checkers' random points.
    """

    def __init__(self, presmat, seed, workdir, root):
        self.pm = presmat
        self.cases = uniform_cases()
        self.size = len(self.cases)

    def label(self, i):
        return "n%d_a%d_b%d" % self.cases[i]

    def run(self, i):
        return self.pm.build_resolution(self.pm.homogeneous_matrix(*self.cases[i]))

    def answer(self, i, raw):
        return _plain_resolution(raw)

    def fingerprint(self, raw):
        return tuple(tuple(s) for s in raw.shifts)

    def check(self, i, answer, rng):
        return checks.check_uniform(self.cases[i], answer, rng)


# -- ideal_resolution -----------------------------------------------------------------

# (number of variables, generator degrees) and copies per seed. Every form
# is dense: all monomials of its degree, each with a coefficient drawn from
# +-1, +-2, +-3. Dense forms behave generically, so the cost of a shape
# moves little from seed to seed. Four or more generators in four variables
# are left out: their cost spans an order of magnitude between seeds.
IDEAL_SHAPES = (
    (3, (2, 2, 2)), (3, (2, 2, 2, 2)), (3, (2, 2, 2, 2, 2)),
    (3, (2, 2, 3)), (3, (2, 3, 3)), (3, (3, 3, 3)), (3, (3, 3, 3, 3)),
    (4, (2, 2, 2)), (4, (2, 2, 3)),
)
IDEAL_COPIES = 2
FIXTURE_IDEALS = ("cyclic-cubics", "cyclic-quartics")


def _dense_form(rng, nvars, degree):
    monos = [tuple(c.count(v) for v in range(nvars))
             for c in itertools.combinations_with_replacement(range(nvars), degree)]
    return {m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in monos}


def _fixture(root, name):
    with open(os.path.join(root, "src", "presmat", "fixtures", name + ".json"),
              encoding="utf-8") as fh:
        return json.load(fh)


class IdealResolution:
    """minimal_free_resolution of R/I for a seeded corpus of random dense
    quadrics and cubics in three and four variables, plus the cyclic
    monomial ideals of the paper's fixtures."""

    def __init__(self, presmat, seed, workdir, root):
        self.pm = presmat
        rng = random.Random("ideal_resolution:%d" % seed)
        self.ideals = []  # (label, variable names, generator texts)
        for copy in range(IDEAL_COPIES):
            for nvars, degrees in IDEAL_SHAPES:
                names = tuple("x%d" % v for v in range(nvars))
                gens = [_render(_dense_form(rng, nvars, d), names) for d in degrees]
                label = "v%d_d%s_%d" % (nvars, "".join(map(str, degrees)), copy)
                self.ideals.append((label, names, gens))
        for name in FIXTURE_IDEALS:
            doc = _fixture(root, name)
            self.ideals.append((name, tuple(doc["ring"]["vars"]), list(doc["ideal"])))
        self.size = len(self.ideals)

    def label(self, i):
        return self.ideals[i][0]

    def run(self, i):
        _, names, gens = self.ideals[i]
        ring = self.pm.RingContext(names)
        ideal = self.pm.IdealBasis([self.pm.parse(g, ring) for g in gens], ring=ring)
        # a complete resolution has at most as many maps as variables
        return self.pm.minimal_free_resolution(ideal, max_length=len(names))

    def answer(self, i, raw):
        return _plain_resolution(raw)

    def fingerprint(self, raw):
        return tuple(tuple(s) for s in raw.shifts)

    def check(self, i, answer, rng):
        _, names, gens = self.ideals[i]
        polys = [checks.parse_poly(g, names) for g in gens]
        return checks.check_ideal((polys, len(names)), answer, rng)


# -- cli_documents ---------------------------------------------------------------------

XYZT = ["x", "y", "z", "t"]
XYZ = ["x", "y", "z"]
SIX = ["x", "y", "z", "u", "v", "w"]


def _pw(var, e):
    return var if e == 1 else "%s^%d" % (var, e)


def _mono(*factors):
    """Product of (variable, exponent) pairs as text; exponent 0 drops out."""
    return "*".join(_pw(v, e) for v, e in factors if e) or "1"


def _seq(a, b, s):
    return {"a": list(a), "b": list(b), "s": s}


def _square4(p):
    x, y, z, t = (_pw(v, p) for v in XYZT)
    return [[y, "-" + x, "0", "0"], ["0", z, "-" + y, "0"],
            ["0", "0", t, "-" + z], ["-" + t, "0", "0", x]]


def _koszul(h1, h2, h3):
    return [["0", h3, "-" + h2], ["-" + h3, "0", h1], [h2, "-" + h1, "0"]]


def _bordered(e):
    return [[_pw("u", e[0]), "0", "0"], ["0", _pw("v", e[1]), "0"],
            ["0", "0", _pw("w", e[2])], ["x", "y", "z"]]


def _bordered_ideal(e):
    return [_mono(("x", 1), ("v", e[1]), ("w", e[2])),
            _mono(("y", 1), ("u", e[0]), ("w", e[2])),
            _mono(("z", 1), ("u", e[0]), ("v", e[1]))]


def _shuffled(rng, values):
    values = list(values)
    rng.shuffle(values)
    return values


def cli_documents(rng, root):
    """(name, argv tail, document or None, exit, verdict, expectations).

    Each monomial family comes twice, with a fixed multiset of exponents
    that the seed assigns to the variables, so the documents change with
    the seed while their cost stays put. Every expectation is a closed form
    in the exponents, or a fixture's ``expect``.
    """
    docs = []

    def add(name, argv, doc, code, verdict, expect=()):
        docs.append((name, argv, doc, code, verdict, list(expect)))

    for k in range(2):
        p = k + 1
        m = _square4(p)
        d = {"ring": {"vars": XYZT}, "matrix": m}
        gam = [_mono(("z", p), ("t", p)), _mono(("x", p), ("t", p)),
               _mono(("x", p), ("y", p)), _mono(("y", p), ("z", p))]
        add("gamma-square%d" % k, ["gamma"], d, 0, "ok",
            [("sorted", ("gamma", gam, XYZT)),
             ("annihilates", ("gamma", m, XYZT, "left"))])
        add("check-square%d" % k, ["check"], d, 0, "presentation",
            [("equal", ("is_minimal", True)),
             ("annihilates", ("gamma", m, XYZT, "left")),
             ("annihilates", ("gamma_transpose", m, XYZT, "right"))])
        add("check-transpose-square%d" % k, ["check", "--transpose"], d, 2,
            "not_presentation",
            [("equal", ("failure_reason", "height_of_row_ideal_below_3"))])
        add("zeta-square%d" % k, ["zeta"], d, 0, "ok", [("equal", ("zeta", 0))])
        add("resolve-square%d" % k, ["resolve"], d, 0, "resolved",
            [("betti", ("betti", _seq([2 * p] * 4, [3 * p] * 4, 4 * p)))])

        e = _shuffled(rng, ((1, 2, 3), (1, 1, 2))[k])
        h = [_pw(v, ei) for v, ei in zip(XYZ, e)]
        m = _koszul(*h)
        d = {"ring": {"vars": XYZ}, "matrix": m}
        add("gamma-koszul%d" % k, ["gamma"], d, 0, "ok",
            [("sorted", ("gamma", h, XYZ)),
             ("annihilates", ("gamma", m, XYZ, "left"))])
        add("check-koszul%d" % k, ["check"], d, 0, "presentation",
            [("annihilates", ("gamma", m, XYZ, "left")),
             ("annihilates", ("gamma_transpose", m, XYZ, "right"))])
        koszul_betti = _seq(e, [e[1] + e[2], e[0] + e[2], e[0] + e[1]], sum(e))
        add("resolve-koszul%d" % k, ["resolve"], d, 0, "resolved",
            [("betti", ("betti", koszul_betti))])
        add("resolve-ideal%d" % k, ["resolve"],
            {"ring": {"vars": XYZT}, "ideal": h}, 0, "resolved",
            [("betti", ("betti", koszul_betti))])

        e = _shuffled(rng, ((1, 1, 2), (1, 2, 2))[k])
        d = {"ring": {"vars": SIX}, "matrix": _bordered(e)}
        add("decompose%d" % k, ["decompose"], d, 0, "decomposed",
            [("sorted", ("ideal", _bordered_ideal(e), SIX)),
             ("equal", ("intersection_verified", True))])
        add("construct-hilbert-burch%d" % k, ["construct"],
            dict(d, construct="hilbert-burch"), 0, "constructed",
            [("sorted", ("ideal", _bordered_ideal(e), SIX)),
             ("equal", ("zeta", 0))])

        d3 = _shuffled(rng, ((1, 1, 2), (1, 2, 2))[k])
        h = [_pw(v, di) for v, di in zip(XYZ, d3)]
        T, D = 3, sum(d3)
        add("construct-product%d" % k, ["construct"],
            {"construct": "product", "ring": {"vars": SIX},
             "regular_triple": h, "cofactors": ["u", "v", "w"]}, 0, "constructed",
            [("sorted", ("ideal", [h[0] + "*v*w", h[1] + "*u*w", h[2] + "*u*v"], SIX)),
             ("betti", ("predicted", _seq([T + di - 1 for di in d3],
                                          [T + D - di for di in d3], T + D)))])

        u = _shuffled(rng, ((0, 1, 2), (1, 1, 2))[k])
        fresh = ["u1", "u2", "u3"]
        lifted = [_mono((v, 1), *((fresh[j], u[j]) for j in range(3) if j != i))
                  for i, v in enumerate(XYZ)]
        add("construct-lift%d" % k, ["construct"],
            {"construct": "lift", "ring": {"vars": XYZ},
             "matrix": _koszul("x", "y", "z"), "exponents": u, "fresh_vars": fresh},
            0, "constructed",
            [("sorted", ("gamma", lifted, XYZ + fresh)),
             ("annihilates", ("gamma", "matrix", "ring", "left"))])
        add("betti-lift%d" % k, ["betti-lift"],
            {"sequence": _seq([1, 1, 1], [2, 2, 2], 3), "exponents": u}, 0, "lifted",
            [("betti", ("lifted", _seq([1 + sum(u) - ui for ui in u],
                                       [2 + sum(u)] * 3, 3 + sum(u))))])

    for n, a, b in ((3, 1, 2), (3, 2, 4), (4, 2, 3), (5, 2, 3), (5, 3, 4), (6, 3, 4)):
        add("construct-homogeneous-%d-%d-%d" % (n, a, b), ["construct"],
            {"construct": "homogeneous", "n": n, "a": a, "b": b}, 0, "constructed",
            [("uniform_matrix", (n, a, b))])
    add("construct-homogeneous-4-5-8", ["construct"],
        {"construct": "homogeneous", "n": 4, "a": 5, "b": 8}, 3, "Unknown",
        [("equal", ("matrix", None))])
    add("construct-homogeneous-4-3-5", ["construct"],
        {"construct": "homogeneous", "n": 4, "a": 3, "b": 5}, 2, "NotEssential",
        [("equal", ("matrix", None))])
    add("decompose-not-regular", ["decompose"],
        {"ring": {"vars": XYZ},
         "matrix": [["x", "0", "0"], ["0", "y", "0"], ["0", "0", "z"], ["x", "y", "z"]]},
        2, "not_regular", [("equal", ("regular", False))])
    add("betti-classify-koszul", ["betti-classify"],
        {"sequence": _seq([1, 1, 1], [2, 2, 2], 3)}, 0, "Essential")
    for (n, a, b), code, verdict in (((4, 3, 5), 2, "NotEssential"),
                                     ((5, 3, 4), 0, "Essential"),
                                     ((4, 5, 8), 3, "Unknown")):
        add("betti-classify-%d-%d-%d" % (n, a, b),
            ["betti-classify", "--homogeneous", str(n), str(a), str(b)],
            None, code, verdict)
    add("betti-reduce", ["betti-reduce"],
        {"sequence": _seq([2, 2, 2, 3], [4, 3, 3, 3], 4)}, 0, "Essential",
        [("betti", ("residue", _seq([1, 1, 1], [2, 2, 2], 3))),
         ("equal", ("total_reduced", 1))])

    sq = _fixture(root, "square-4")
    add("verify-square-4", ["verify-paper-example", "square-4"], None, 0, "confirmed",
        [("equal", ("gamma", sq["expect"]["gamma"])),
         ("annihilates", ("gamma", sq["matrix"], sq["ring"]["vars"], "left"))])
    for name in ("cyclic-cubics", "cyclic-quartics"):
        add("verify-" + name, ["verify-paper-example", name], None, 0, "confirmed",
            [("betti", ("betti", _fixture(root, name)["expect"]["betti"]))])
    add("verify-gaeta-remark", ["verify-paper-example", "gaeta-remark"], None, 0,
        "confirmed",
        [("equal", ("status", _fixture(root, "gaeta-remark")["expect"]["verdict"]))])
    return docs


class CliDocuments:
    """Many small JSON documents written at set-up and run through
    presmat.cli.main in-process; each report is parsed from JSON."""

    def __init__(self, presmat, seed, workdir, root):
        self.pm = presmat
        rng = random.Random("cli_documents:%d" % seed)
        self.docs = cli_documents(rng, root)
        self.argvs = []
        os.makedirs(workdir, exist_ok=True)
        for name, argv, doc, *_ in self.docs:
            argv = list(argv)
            if doc is not None:
                path = os.path.join(workdir, name + ".json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                argv.append(path)
            self.argvs.append(argv)
        self.size = len(self.docs)

    def label(self, i):
        return self.docs[i][0]

    def run(self, i):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.pm.cli.main(self.argvs[i])
        return code, json.loads(out.getvalue())

    def answer(self, i, raw):
        return raw

    def fingerprint(self, raw):
        code, report = raw
        return code, report["verdict"], json.dumps(report["result"], sort_keys=True)

    def check(self, i, answer, rng):
        name, _argv, _doc, code, verdict, expect = self.docs[i]
        return checks.check_document(
            {"exit": code, "verdict": verdict, "expect": expect}, answer, rng)


WORKLOADS = {
    "uniform_sweep": UniformSweep,
    "ideal_resolution": IdealResolution,
    "cli_documents": CliDocuments,
}

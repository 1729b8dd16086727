"""Buchsbaum-Eisenbud exactness of a finite free chain: a test oracle.

For maps phi_1, ..., phi_L (rightmost first) the chain is exact away from
the augmentation iff rank(phi_k) + rank(phi_{k+1}) equals the rank of the
shared module and the rank-sized minor ideal of phi_k has height at least
k. Every minor is taken by its own determinant, with no budget, so this
belongs to the tests, which run it on small resolutions only.
Reference: Eisenbud, Commutative Algebra (1995), Theorem 20.9.
"""

from itertools import combinations

from presmat import gcd, minor, rank
from presmat.presentation import _height_or_inf


class ExactnessReport:
    __slots__ = ("stages", "exact")

    def __init__(self, stages):
        self.stages = tuple(stages)
        self.exact = all(ok for (_label, ok, _detail) in self.stages)

    def __repr__(self):
        body = "; ".join("%s:%s" % (label, "ok" if ok else "FAIL (%s)" % detail)
                         for label, ok, detail in self.stages)
        return "ExactnessReport(%s)" % body


def _minors(M, size: int):
    """The minors of M of the given size, one per pair of row and column
    subsets, computed as they are consumed."""
    for rows in combinations(range(M.rows), size):
        for cols in combinations(range(M.cols), size):
            yield minor(M, rows, cols)


def _minor_gcd_is_unit(M, size: int, budget) -> bool:
    """True when the minors of the given size have unit gcd (height >= 2).

    Over a factorial ring the ideal they generate has height at least 2
    exactly when no common factor survives; accumulate and stop early.
    """
    common = M.ring.zero()
    for p in _minors(M, size):
        common = gcd(common, p, budget=budget)
        if common.is_unit():
            return True
    return False


def verify_exactness(res, budget=None) -> ExactnessReport:
    """Rank and height criteria for exactness of the GradedResolution res.

    Composites must already vanish; that precondition raises.
    """
    maps = res.maps
    if not maps:
        raise ValueError("empty chain")
    for k in range(len(maps) - 1):
        if not (maps[k] @ maps[k + 1]).is_zero():
            raise ValueError("composite at stage %d is nonzero" % (k + 1))
    ranks = [rank(m) for m in maps]
    stages = []
    for k in range(len(maps)):
        expected = len(res.shifts[k])  # rank of the source module F_{k+1}
        nxt = ranks[k + 1] if k + 1 < len(maps) else 0
        stages.append(("rank at F_%d" % (k + 1), nxt + ranks[k] == expected,
                       "%d + %d vs %d" % (ranks[k], nxt, expected)))
    for k, m in enumerate(maps):
        depth_needed = k + 1
        r = ranks[k]
        if depth_needed == 1:
            ok = r >= 1
            detail = "nonzero map"
        elif depth_needed == 2:
            ok = _minor_gcd_is_unit(m, r, budget)
            detail = "gcd of %d-minors" % r
        else:
            gens = [p for p in _minors(m, r) if not p.is_zero()]
            if not gens:
                ok = False
                ht = 0
            else:
                ht = _height_or_inf(gens, m.ring, budget)
                ok = ht >= depth_needed
            detail = "height %s needs >= %d" % (ht, depth_needed)
        stages.append(("height at map %d" % (k + 1), ok, detail))
    return ExactnessReport(stages)

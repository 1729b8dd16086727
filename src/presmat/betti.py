"""Integer calculus of graded Betti sequences (a_1..a_n; b_1..b_n; s).

Everything here is arithmetic on twist data; no polynomials are touched.
The essentiality rules implemented are the exact n=3 characterization, the
block reduction toward Gaeta sequences, and the homogeneous (equal-degree)
criteria, which disagree in strength between odd and even n. A tri-state
verdict keeps the undecided even-n gap honest.
"""

from __future__ import annotations

from math import comb

ESSENTIAL = "Essential"
NOT_ESSENTIAL = "NotEssential"
UNKNOWN = "Unknown"
MINIMAL = "Minimal"
NOT_MINIMAL = "NotMinimal"

# Sequences the reduction and homogeneous rules cannot decide but whose
# essentiality has been settled by an explicit ideal; classification still
# returns Unknown for them, this catalog only annotates the witness.
KNOWN_ESSENTIAL_EXCEPTIONS = {
    (4, 5, 8): "explicit four-generator quintic ideal in sixteen variables",
}


def _integers(values, name: str) -> list:
    """values as a list whose entries are ints, bools excluded: int() would
    truncate 1.5, read True as 1 and parse "1"."""
    values = list(values)
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError("%s: %r is not an integer" % (name, v))
    return values


class BettiSequence:
    """Twist data of a length-3 resolution R(-s) -> +R(-b) -> +R(-a) -> R.

    Stored sorted: a nondecreasing, b nonincreasing. Entries may be
    nonpositive (decremented candidates show up in minimality tests); the
    positivity screen lives in the classifiers, not here.
    """

    __slots__ = ("a", "b", "s")

    def __init__(self, a, b, s):
        a = tuple(sorted(_integers(a, "a")))
        b = tuple(sorted(_integers(b, "b"), reverse=True))
        if len(a) != len(b):
            raise ValueError("generator and relation counts differ")
        if len(a) < 3:
            raise ValueError("need at least 3 generators")
        self.a = a
        self.b = b
        (self.s,) = _integers([s], "s")

    @property
    def n(self) -> int:
        return len(self.a)

    def sum_a(self) -> int:
        return sum(self.a)

    def sum_b(self) -> int:
        return sum(self.b)

    def is_consistent(self) -> bool:
        return self.s == self.sum_b() - self.sum_a()

    def c(self):
        """Degrees of the leftmost map's entries, c_j = s - b_j."""
        return tuple(self.s - bj for bj in self.b)

    def is_homogeneous(self) -> bool:
        return len(set(self.a)) == 1 and len(set(self.b)) == 1

    def as_tuple(self):
        return (self.a, self.b, self.s)

    def __eq__(self, other):
        return (isinstance(other, BettiSequence)
                and self.as_tuple() == other.as_tuple())

    def __hash__(self):
        return hash(self.as_tuple())

    def __repr__(self):
        return "BettiSequence(%s; %s; %d)" % (
            ",".join(map(str, self.a)), ",".join(map(str, self.b)), self.s)


class Verdict:
    __slots__ = ("status", "witness")

    def __init__(self, status: str, witness=None):
        self.status = status
        self.witness = witness

    def __eq__(self, other):
        if isinstance(other, Verdict):
            return self.status == other.status
        return self.status == other

    def __hash__(self):
        return hash(self.status)

    def __repr__(self):
        if self.witness is None:
            return "Verdict(%s)" % self.status
        return "Verdict(%s, %r)" % (self.status, self.witness)


def _positivity_witness(seq: BettiSequence):
    if any(x <= 0 for x in seq.a):
        return {"rule": "positivity", "violated": "a_i <= 0", "a": list(seq.a)}
    if any(x <= 0 for x in seq.b):
        return {"rule": "positivity", "violated": "b_j <= 0", "b": list(seq.b)}
    if seq.s <= seq.b[seq.n - 3]:
        # at most n-3 components of the last map may vanish, so at least
        # three of the degrees c_j = s - b_j must be positive
        return {"rule": "positivity", "violated": "s <= b_{n-2}",
                "s": seq.s, "b_n_minus_2": seq.b[seq.n - 3]}
    if seq.s > seq.a[0] + seq.a[1] + seq.a[2]:
        return {"rule": "positivity", "violated": "s > a_1 + a_2 + a_3",
                "s": seq.s, "a_bound": seq.a[0] + seq.a[1] + seq.a[2]}
    return None


def classify_n3(seq: BettiSequence) -> Verdict:
    """Exact essentiality test for three generators.

    Essential iff s is consistent, the total generator degree is below
    b_2 + b_3, and a_j + b_j never exceeds the total generator degree.
    The Essential witness carries the construction parameters: degrees
    c_j = s - b_j for the regular sequence and t_j = sum(a) - a_j - b_j
    for the diagonal factors.
    """
    if seq.n != 3:
        raise ValueError("classify_n3 needs exactly 3 generators")
    pos = _positivity_witness(seq)
    if pos is not None:
        return Verdict(NOT_ESSENTIAL, pos)
    total = seq.sum_a()
    if not seq.is_consistent():
        return Verdict(NOT_ESSENTIAL, {
            "rule": "n3", "violated": "s = sum(b) - sum(a)",
            "s": seq.s, "expected": seq.sum_b() - total})
    if not total < seq.b[1] + seq.b[2]:
        return Verdict(NOT_ESSENTIAL, {
            "rule": "n3", "violated": "sum(a) < b_2 + b_3",
            "sum_a": total, "b2_plus_b3": seq.b[1] + seq.b[2]})
    for j in range(3):
        if seq.a[j] + seq.b[j] > total:
            return Verdict(NOT_ESSENTIAL, {
                "rule": "n3", "violated": "a_j + b_j <= sum(a)", "j": j + 1,
                "a_j_plus_b_j": seq.a[j] + seq.b[j], "sum_a": total})
    c = list(seq.c())
    t = [total - seq.a[j] - seq.b[j] for j in range(3)]
    return Verdict(ESSENTIAL, {"rule": "n3", "c": c, "t": t})


def classify_homogeneous(n: int, a: int, b: int) -> Verdict:
    """Equal-degree sequences (a^n; b^n; n(b-a)).

    Odd n is fully decided: essential iff na < (n-1)b <= (n+1)a. Even n
    needs the strict bound (n-1)b < (n+1)a, is constructible when
    (n-1)b <= na + (n-2)(b-a)/2, and is otherwise undecided.
    """
    if a >= b:
        raise ValueError("needs a < b")
    if n < 3 or a <= 0:
        raise ValueError("needs n >= 3 and positive degrees")
    s = n * (b - a)
    lower = n * a
    mid = (n - 1) * b
    upper = (n + 1) * a
    base = {"rule": "homogeneous", "n": n, "a": a, "b": b, "s": s}
    if not lower < mid:
        return Verdict(NOT_ESSENTIAL, dict(base, violated="na < (n-1)b"))
    if n % 2 == 1:
        if mid <= upper:
            return Verdict(ESSENTIAL, dict(base, s_minus_b=s - b))
        return Verdict(NOT_ESSENTIAL, dict(base, violated="(n-1)b <= (n+1)a"))
    if not mid < upper:
        return Verdict(NOT_ESSENTIAL,
                       dict(base, violated="(n-1)b < (n+1)a (even n, strict)"))
    if mid <= lower + (n - 2) * (b - a) // 2:
        return Verdict(ESSENTIAL, dict(base, s_minus_b=s - b))
    witness = dict(base, gap="between necessity and constructive sufficiency")
    known = KNOWN_ESSENTIAL_EXCEPTIONS.get((n, a, b))
    if known is not None:
        witness["known_exception"] = known
    return Verdict(UNKNOWN, witness)


def is_gaeta(seq: BettiSequence) -> bool:
    """s consistent and b_{n+2-i} > a_i for 2 <= i <= n (1-based)."""
    n = seq.n
    if not seq.is_consistent():
        return False
    return all(seq.b[n + 1 - i] > seq.a[i - 1] for i in range(2, n + 1))


def _reduction_spots(seq: BettiSequence):
    """1-based indices t >= 4 with b_{n+2-t} <= a_t."""
    n = seq.n
    return [t for t in range(4, n + 1) if seq.b[n + 1 - t] <= seq.a[t - 1]]


def _reduce_once(seq: BettiSequence, t: int):
    """One block reduction at 1-based index t; returns (sequence, d) or a
    NotEssential verdict when the degree inequalities fail."""
    n = seq.n
    for i in range(t, n + 1):
        if not seq.b[n - i] > seq.a[i - 1]:
            return Verdict(NOT_ESSENTIAL, {
                "rule": "reduction", "violated": "b_{n+1-i} > a_i",
                "i": i, "b": seq.b[n - i], "a": seq.a[i - 1]})
    d = sum(seq.b[n - i] - seq.a[i - 1] for i in range(t, n + 1))
    new_a = [x - d for x in seq.a[:t - 1]]
    new_b = [x - d for x in seq.b[n + 1 - t:]]
    return BettiSequence(new_a, new_b, seq.s - d), d


def _classify_residue(seq: BettiSequence) -> Verdict:
    """Verdict on a Gaeta residue with n >= 4 that passed positivity."""
    if seq.is_homogeneous():
        return classify_homogeneous(seq.n, seq.a[0], seq.b[0])
    return Verdict(UNKNOWN, {"rule": "gaeta-residue",
                             "residue": [list(seq.a), list(seq.b), seq.s]})


def _run_reduction(seq: BettiSequence, pick_largest: bool):
    d_total = 0
    current = seq
    while True:
        if not current.is_consistent():
            return current, d_total, Verdict(NOT_ESSENTIAL, {
                "rule": "reduction", "violated": "s = sum(b) - sum(a)",
                "s": current.s,
                "expected": current.sum_b() - current.sum_a()})
        pos = _positivity_witness(current)
        if pos is not None:
            return current, d_total, Verdict(NOT_ESSENTIAL, pos)
        if current.n == 3:
            return current, d_total, classify_n3(current)
        spots = _reduction_spots(current)
        if not spots:
            break
        t = max(spots) if pick_largest else min(spots)
        step = _reduce_once(current, t)
        if isinstance(step, Verdict):
            return current, d_total, step
        current, d = step
        d_total += d
    n = current.n
    for i in (2, 3):
        # necessary degree inequalities below the reduction threshold
        if current.b[n + 1 - i] <= current.a[i - 1]:
            return current, d_total, Verdict(NOT_ESSENTIAL, {
                "rule": "reduction", "violated": "a_%d < b_{n+2-%d}" % (i, i),
                "a": current.a[i - 1], "b": current.b[n + 1 - i]})
    return current, d_total, _classify_residue(current)


def classify_gaeta_reduce(seq: BettiSequence):
    """Iterate the block reduction until a Gaeta sequence remains.

    Returns (residue, accumulated shift, verdict). The reduction index is
    taken largest-first; a smallest-first pass must agree on the verdict,
    anything else means the reduction logic is broken and raises.
    """
    if seq.n < 4:
        raise ValueError("reduction applies to n >= 4")
    residue, d_total, verdict = _run_reduction(seq, pick_largest=True)
    _res2, _d2, other = _run_reduction(seq, pick_largest=False)
    if verdict.status != other.status:
        raise AssertionError(
            "reduction strategies disagree: %s vs %s" % (verdict, other))
    return residue, d_total, verdict


def classify(seq: BettiSequence) -> Verdict:
    """Dispatch to the strongest applicable rule."""
    if seq.n == 3:
        return classify_n3(seq)
    pos = _positivity_witness(seq)
    if pos is not None:
        return Verdict(NOT_ESSENTIAL, pos)
    if not seq.is_consistent():
        return Verdict(NOT_ESSENTIAL, {
            "rule": "consistency", "violated": "s = sum(b) - sum(a)",
            "s": seq.s, "expected": seq.sum_b() - seq.sum_a()})
    if seq.is_homogeneous():
        return classify_homogeneous(seq.n, seq.a[0], seq.b[0])
    _residue, _d, verdict = classify_gaeta_reduce(seq)
    return verdict


def hilbert_from_betti(seq: BettiSequence | None, degree: int,
                       num_vars: int) -> int:
    """Hilbert function value implied by the twist data.

    Alternating binomial sum over the resolution; binom(m, k) is taken as
    0 for m < k. Passing None means the zero ideal (just the ambient
    count).
    """
    k = num_vars - 1

    def binom(m):
        return comb(m, k) if m >= k else 0

    total = binom(degree + k)
    if seq is None:
        return total
    for ai in seq.a:
        total -= binom(degree - ai + k)
    for bj in seq.b:
        total += binom(degree - bj + k)
    total -= binom(degree - seq.s + k)
    return total


def lift(seq: BettiSequence, u) -> BettiSequence:
    """Twist by nonnegative u_i: a_i + U - u_i, b_j + U, s + U, resorted.

    Essentiality is inherited from the input sequence; the matrix-level
    realization multiplies column j by the u_j-th power of a fresh
    variable.
    """
    u = _integers(u, "u")
    if len(u) != seq.n:
        raise ValueError("u must have one entry per generator")
    if any(x < 0 for x in u):
        raise ValueError("u entries must be nonnegative")
    total = sum(u)
    return BettiSequence([a + total - ui for a, ui in zip(seq.a, u)],
                         [b + total for b in seq.b], seq.s + total)


def recover_from_degree_matrix(D, r: int, c_r: int) -> BettiSequence:
    """Betti numbers from an entry-degree matrix plus one c_r value.

    D is square with d_ij = b_j - a_i; r is a 0-based row index. Then
    s = sum of the diagonal, b_j = s + d_rj - d_rr - c_r and
    a_i = s - d_ir - c_r.
    """
    entries = D.entries if hasattr(D, "entries") else tuple(tuple(row) for row in D)
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise ValueError("degree matrix must be square")
    if not 0 <= r < n:
        raise ValueError("row index out of range")
    s = sum(entries[i][i] for i in range(n))
    b = [s + entries[r][j] - entries[r][r] - c_r for j in range(n)]
    a = [s - entries[i][r] - c_r for i in range(n)]
    return BettiSequence(a, b, s)


def is_minimal_sequence(seq: BettiSequence) -> Verdict:
    """Minimal iff every singly-preserved decrement is not essential.

    Candidate k keeps a_k and lowers every other entry (and s) by one.
    An Essential candidate disproves minimality; any Unknown candidate
    leaves the question open.
    """
    verdicts = []
    for k in range(seq.n):
        cand = BettiSequence(
            [seq.a[i] if i == k else seq.a[i] - 1 for i in range(seq.n)],
            [b - 1 for b in seq.b], seq.s - 1)
        verdicts.append((cand, classify(cand)))
    for cand, v in verdicts:
        if v.status == ESSENTIAL:
            return Verdict(NOT_MINIMAL, {
                "essential_candidate": [list(cand.a), list(cand.b), cand.s],
                "via": v.witness})
    if any(v.status == UNKNOWN for _c, v in verdicts):
        return Verdict(UNKNOWN, {"undecided_candidates": [
            [list(c.a), list(c.b), c.s]
            for c, v in verdicts if v.status == UNKNOWN]})
    return Verdict(MINIMAL, {"candidates_checked": seq.n})

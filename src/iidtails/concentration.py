"""Concentration points of discrete laws and the checks built on them.

A t-concentration point of X is an x with Pr(|X - x| <= t) > 2/3 (strictly).
In dimension 1 the full set of such points is computed exactly as a finite
union of closed intervals, on ints, straight from a lattice law of the sum
walk (dists._Walk): the checks read S_i there without decoding it into a
DiscreteDist.  In higher dimensions only atom-centered candidates are tested
and results are flagged approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .dists import (
    DEFAULT_SUPPORT_CAP,
    DiscreteDist,
    Norm,
    WEAK,
    _Walk,
    _threshold,
    rat,
)
from .reports import HOLDS, InequalityReport, VACUOUS, VIOLATED

ZERO = Fraction(0)
TWO_THIRDS = Fraction(2, 3)


@dataclass(frozen=True)
class ConcentrationSet:
    """Finite union of disjoint closed intervals [lo, hi], sorted.

    Degenerate intervals (lo == hi) are single points.
    """

    intervals: "tuple[tuple[Fraction, Fraction], ...]"

    def __post_init__(self):
        for lo, hi in self.intervals:
            if lo > hi:
                raise ValueError(f"interval [{lo}, {hi}] is empty")
        for (_, h1), (l2, _) in zip(self.intervals, self.intervals[1:]):
            if l2 <= h1:
                raise ValueError("intervals must be disjoint and sorted")

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x) -> bool:
        xx = rat(x)
        return any(lo <= xx <= hi for lo, hi in self.intervals)

    @property
    def min(self) -> Fraction:
        return self.intervals[0][0]

    @property
    def max(self) -> Fraction:
        return self.intervals[-1][1]


def window_mass(X: DiscreteDist, x, t) -> Fraction:
    """Exact Pr(|X - x| <= t) for a 1-dimensional law."""
    xx, tt = rat(x), rat(t)
    return sum((p for a, p in X.scalar_items() if abs(a - xx) <= tt), ZERO)


def concentration_set(X: DiscreteDist, t) -> ConcentrationSet:
    """Exact set {x : Pr(|X - x| <= t) > 2/3} for a 1-dimensional law: the
    rule of _lattice_set on the one-term walk of X."""
    walk = _Walk([X], 1, DEFAULT_SUPPORT_CAP)
    return _lattice_set(walk, walk.last(), t)


def _lattice_set(walk: _Walk, law, t) -> ConcentrationSet:
    """The concentration set of a 1-D lattice law (atoms, den) of `walk`.

    The window mass x -> Pr(X in [x-t, x+t]) is an upper semicontinuous
    step function whose only breakpoints are a - t and a + t over atoms a.
    With a = v / scale and t = p / q these are v*q -+ p*scale over the unit
    scale*q, and a window of mass m / den qualifies when 3*m > 2*den, so
    one sweep of the breakpoints on ints gives the mass at each breakpoint
    and on each open gap, and the closed intervals they make up.
    """
    tt = _threshold(t)
    if walk.dim != 1:
        raise ValueError("concentration_set requires dimension 1")
    atoms, den = law
    q, reach = tt.denominator, tt.numerator * walk.scale
    starts: "dict[int, int]" = {}
    ends: "dict[int, int]" = {}
    for v, m in atoms.items():
        starts[v * q - reach] = starts.get(v * q - reach, 0) + m
        ends[v * q + reach] = ends.get(v * q + reach, 0) + m
    unit = walk.scale * q
    intervals, lo = [], None    # lo: start of the interval being swept
    started = ended = 0
    for p in sorted(starts.keys() | ends.keys()):
        started += starts.get(p, 0)
        if lo is None and 3 * (started - ended) > 2 * den:
            lo = p              # windows with start <= p <= end qualify
        ended += ends.get(p, 0)
        # mass is upper semicontinuous: a qualifying gap after p has
        # qualifying endpoints, so the interval closes at the first p
        # whose gap does not qualify
        if lo is not None and 3 * (started - ended) <= 2 * den:
            intervals.append((Fraction(lo, unit), Fraction(p, unit)))
            lo = None
    return ConcentrationSet(tuple(intervals))


def has_concentration_point(X: DiscreteDist, t, norm: Norm = Norm.ABS1D):
    """(found, witness, exact) for the t-concentration test.

    Dimension 1 is decided exactly through concentration_set.  In higher
    dimensions only support atoms are tried as centers, which is sound when
    it finds a witness but cannot certify absence; exact=False then.
    """
    tt = _threshold(t)
    if X.dim == 1:
        cs = concentration_set(X, tt)
        return (False, None, True) if cs.is_empty else (True, cs.min, True)
    tq = norm.to_gauge(tt)
    for center in X.support:
        mass = ZERO
        for pt, p in X.atoms.items():
            diff = tuple(a - c for a, c in zip(pt, center))
            if norm.gauge(diff) <= tq:
                mass += p
        if mass > TWO_THIRDS:
            return True, center, False
    return False, None, False


def check_lemma2(X: DiscreteDist, Y: DiscreteDist, t,
                 cap: int = DEFAULT_SUPPORT_CAP) -> InequalityReport:
    """max |x + y - z| <= 3t over concentration points x of X, y of Y,
    z of X + Y, all at level t; vacuous when any of the three sets is empty.

    The maximum of the linear form over a product of interval unions is
    attained at interval endpoints, so the check is a finite maximization.
    """
    if X.dim != Y.dim:
        raise ValueError(f"dimension mismatch: {X.dim} vs {Y.dim}")
    walk = _Walk([X, Y], 2, cap)
    x, xy = walk.sums()
    return _lemma2(walk, x, walk.terms[1], xy, t)


def _lemma2(walk: _Walk, x, y, xy, t) -> InequalityReport:
    """check_lemma2 on the lattice laws of X, Y and X + Y of one walk."""
    tt = rat(t)
    sets = {name: _lattice_set(walk, law, tt)
            for name, law in (("X", x), ("Y", y), ("X+Y", xy))}
    empty = ", ".join(name for name, c in sets.items() if c.is_empty)
    if empty:
        return _report("lemma2", {"t": tt}, empty)
    cx, cy, cz = sets.values()
    attained = max(cx.max + cy.max - cz.min, cz.max - cx.min - cy.min)
    return _report("lemma2", {"t": tt}, "", (attained, 3 * tt, {
        "attained": attained, "bound": 3 * tt}))


def check_corollary3(X: DiscreteDist, k: int, t,
                     cap: int = DEFAULT_SUPPORT_CAP) -> InequalityReport:
    """|k*s_j - j*s_k| bounds over concentration points of the partial sums.

    For every 1 <= j <= k, with s_i ranging over the t-concentration set of
    S_i: the plain bound 3(k+j)t is checked over independent endpoint
    choices; the refined bound 3(j+k-2h)t with h = gcd(j,k) is checked under
    a single shared selection per index, which for j < k still reduces to
    independent endpoint pairs (any pair extends to a full selection) and
    for j = k forces s_j = s_k, making the refined bound 0 <= 0.
    """
    walk = _Walk([X], k, cap)
    return _corollary3(walk, walk.sums(), t)


def _corollary3(walk: _Walk, laws, t) -> InequalityReport:
    """check_corollary3 on the lattice laws of S_1..S_k of one walk."""
    tt = rat(t)
    csets = {i: _lattice_set(walk, law, tt) for i, law in enumerate(laws, 1)}
    k = len(csets)
    params = {"k": k, "t": tt}
    empty = [i for i in csets if csets[i].is_empty]
    if empty:
        return _report("corollary3", params, f"S_i, i in {empty}")
    rows = []
    worst = None  # (margin, row)
    for j in range(1, k + 1):
        cj, ck = csets[j], csets[k]
        attained = max(k * cj.max - j * ck.min, j * ck.max - k * cj.min)
        row = {"j": j, "attained": attained, "plain_bound": 3 * (k + j) * tt,
               "refined_attained": attained if j < k else ZERO,
               "refined_bound": 3 * (j + k - 2 * gcd(j, k)) * tt}
        rows.append(row)
        for got, bound in ((attained, row["plain_bound"]),
                           (row["refined_attained"], row["refined_bound"])):
            if worst is None or bound - got < worst[0]:
                worst = (bound - got,
                         {"j": j, "attained": got, "bound": bound})
    row = worst[1]
    return _report("corollary3", params, "", (
        row["attained"], row["bound"], {"rows": rows, "worst": row}),
        "refined bound under shared selection; trivial at j = k")


def _report(claim_id: str, params: dict, empty: str, worst=None,
            note: "str | None" = None) -> InequalityReport:
    """A concentration check's report at params["t"]: vacuous when the
    sets named in `empty` are empty, else decided by worst = (attained,
    bound, witness), the witness kept only when the bound is violated."""
    t = params["t"]
    if empty:
        return InequalityReport(claim_id, params, t, None, None, None, VACUOUS,
                                note=f"empty concentration set for {empty}")
    attained, bound, witness = worst
    margin = bound - attained
    return InequalityReport(claim_id, params, t, attained, bound, margin,
                            HOLDS if margin >= 0 else VIOLATED,
                            witness if margin < 0 else None, note)


@dataclass(frozen=True)
class CaseVerdict:
    """Which branch of the three-case tail argument applies at (j, k, t),
    plus an exact check of that branch's concluding bound."""

    case_id: str               # "case1" | "case2" | "case3"
    witnesses: dict
    bound_desc: str
    bound_lhs: Fraction
    bound_rhs: Fraction
    bound_holds: bool
    approximate: bool          # True when dim > 1 concentration tests were used


def classify_case(X: DiscreteDist, j: int, k: int, t,
                  norm: Norm = Norm.ABS1D,
                  cap: int = DEFAULT_SUPPORT_CAP) -> CaseVerdict:
    """Classify (X, j, k, t) into the three-branch case split.

    case1: Pr(||S_{k-j}|| > 9t/10) <= 1/3; concluding bound
           Pr(||S_j|| > t) <= (3/2) Pr(||S_k|| > t/10).
    case2: otherwise, some S_i (i <= k) has no (t/10)-concentration point;
           concluding bound Pr(||S_k|| > t/10) >= 1/3.
    case3: otherwise; concluding bound Pr(||S_k|| >= t/10) >= 2/3 (weak).
    """
    tt = _threshold(t)
    if not 1 <= j <= k:
        raise ValueError(f"need 1 <= j <= k, got j={j}, k={k}")
    walk = _Walk([X], k, cap)
    reads = {k - j, j, k}               # only the sums read below
    laws = {i: law for i, law in enumerate(walk.sums(reads), 1)
            if i in reads}
    p_gap = ZERO if j == k else walk.curve(norm, laws[k - j]).at_radius(
        tt * Fraction(9, 10))   # S_0 = 0 never exceeds 9t/10
    sk = walk.curve(norm, laws[k])
    approximate = X.dim > 1

    if p_gap <= Fraction(1, 3):
        lhs = walk.curve(norm, laws[j]).at_radius(tt)
        rhs = Fraction(3, 2) * sk.at_radius(tt / 10)
        return CaseVerdict("case1", {"p_gap": p_gap},
                           "Pr(||S_j||>t) <= (3/2) Pr(||S_k||>t/10)",
                           lhs, rhs, lhs <= rhs, False)

    for i, law in enumerate(walk.sums(), 1):    # the fold once more, in order
        if X.dim > 1:
            found = has_concentration_point(walk.dist(law), tt / 10, norm)[0]
        else:
            found = not _lattice_set(walk, law, tt / 10).is_empty
        if not found:
            lhs = sk.at_radius(tt / 10)
            return CaseVerdict("case2", {"index": i, "p_gap": p_gap},
                               "Pr(||S_k||>t/10) >= 1/3", lhs, Fraction(1, 3),
                               lhs >= Fraction(1, 3), approximate)

    lhs = sk.at_radius(tt / 10, WEAK)
    return CaseVerdict("case3", {"p_gap": p_gap}, "Pr(||S_k||>=t/10) >= 2/3",
                       lhs, TWO_THIRDS, lhs >= TWO_THIRDS, approximate)

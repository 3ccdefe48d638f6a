"""Concentration points of discrete laws and the checks built on them.

A t-concentration point of X is an x with Pr(|X - x| <= t) > 2/3 (strictly).
In dimension 1 the full set of such points is computed exactly as a finite
union of closed intervals; in higher dimensions only atom-centered candidates
are tested and results are flagged approximate.
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
    convolve,
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
    return sum(
        (p for a, p in X.scalar_items() if abs(a - xx) <= tt),
        ZERO,
    )


def concentration_set(X: DiscreteDist, t) -> ConcentrationSet:
    """Exact set {x : Pr(|X - x| <= t) > 2/3} for a 1-dimensional law.

    The window mass x -> Pr(X in [x-t, x+t]) is an upper semicontinuous
    step function whose only breakpoints are a - t and a + t over atoms a;
    sweeping those breakpoints gives the mass at each breakpoint and on each
    open gap, and the qualifying region merges into closed intervals.
    """
    tt = rat(t)
    if tt < 0:
        raise ValueError(f"t must be >= 0, got {tt}")
    if X.dim != 1:
        raise ValueError("concentration_set requires dimension 1")
    starts: "dict[Fraction, Fraction]" = {}
    ends: "dict[Fraction, Fraction]" = {}
    for a, p in X.scalar_items():
        starts[a - tt] = starts.get(a - tt, ZERO) + p
        ends[a + tt] = ends.get(a + tt, ZERO) + p
    points = sorted(set(starts) | set(ends))

    # pieces: (point p, mass at p) and (open gap after p, mass there)
    qualifying: "list[tuple[Fraction, Fraction]]" = []  # closed pieces to merge
    started = ZERO
    ended = ZERO
    for i, p in enumerate(points):
        started += starts.get(p, ZERO)
        at_p = started - ended          # windows with start <= p <= end
        ended += ends.get(p, ZERO)
        open_after = started - ended    # windows spanning the gap after p
        if at_p > TWO_THIRDS:
            qualifying.append((p, p))
        if i + 1 < len(points) and open_after > TWO_THIRDS:
            # mass is upper semicontinuous, so both gap endpoints qualify
            # too and the merge below closes the interval
            qualifying.append((p, points[i + 1]))
    merged: "list[list[Fraction]]" = []
    for lo, hi in qualifying:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return ConcentrationSet(tuple((lo, hi) for lo, hi in merged))


def has_concentration_point(X: DiscreteDist, t, norm: Norm = Norm.ABS1D):
    """(found, witness, exact) for the t-concentration test.

    Dimension 1 is decided exactly through concentration_set.  In higher
    dimensions only support atoms are tried as centers, which is sound when
    it finds a witness but cannot certify absence; exact=False then.
    """
    tt = rat(t)
    if X.dim == 1:
        cs = concentration_set(X, tt)
        if cs.is_empty:
            return False, None, True
        return True, cs.min, True
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
    tt = rat(t)
    cx = concentration_set(X, tt)
    cy = concentration_set(Y, tt)
    cz = concentration_set(convolve(X, Y, cap), tt)
    params = {"t": tt}
    if cx.is_empty or cy.is_empty or cz.is_empty:
        empty = [name for name, c in (("X", cx), ("Y", cy), ("X+Y", cz))
                 if c.is_empty]
        return InequalityReport(
            claim_id="lemma2", params=params, worst_t=tt,
            lhs=None, rhs=None, margin=None, status=VACUOUS,
            note=f"empty concentration set for {', '.join(empty)}",
        )
    hi = cx.max + cy.max - cz.min
    lo = cx.min + cy.min - cz.max
    attained = max(hi, -lo)
    bound = 3 * tt
    margin = bound - attained
    status = HOLDS if margin >= 0 else VIOLATED
    witness = None
    if status == VIOLATED:
        witness = {"attained": attained, "bound": bound}
    return InequalityReport(
        claim_id="lemma2", params=params, worst_t=tt,
        lhs=attained, rhs=bound, margin=margin, status=status,
        witness=witness,
    )


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
    tt = rat(t)
    walk = _Walk([X], k, cap)
    return _corollary3([walk.dist(law) for law in walk.sums()], tt)


def _corollary3(sums: "list[DiscreteDist]", t) -> InequalityReport:
    """check_corollary3 on the laws of S_1..S_k, already built."""
    tt, k = rat(t), len(sums)
    csets = {i: concentration_set(s, tt) for i, s in enumerate(sums, 1)}
    params = {"k": k, "t": tt}
    empty = [i for i in csets if csets[i].is_empty]
    if empty:
        return InequalityReport(
            claim_id="corollary3", params=params, worst_t=tt,
            lhs=None, rhs=None, margin=None, status=VACUOUS,
            note=f"empty concentration set for S_i, i in {empty}",
        )
    rows = []
    worst = None  # (margin, row)
    for j in range(1, k + 1):
        cj, ck = csets[j], csets[k]
        hi = k * cj.max - j * ck.min
        lo = k * cj.min - j * ck.max
        attained = max(hi, -lo)
        plain_bound = 3 * (k + j) * tt
        h = gcd(j, k)
        refined_bound = 3 * (j + k - 2 * h) * tt
        refined_attained = attained if j < k else ZERO
        row = {
            "j": j,
            "attained": attained,
            "plain_bound": plain_bound,
            "refined_attained": refined_attained,
            "refined_bound": refined_bound,
        }
        rows.append(row)
        for got, bound in ((attained, plain_bound),
                           (refined_attained, refined_bound)):
            margin = bound - got
            if worst is None or margin < worst[0]:
                worst = (margin, {"j": j, "attained": got, "bound": bound})
    margin, worst_row = worst
    status = HOLDS if margin >= 0 else VIOLATED
    return InequalityReport(
        claim_id="corollary3", params=params, worst_t=tt,
        lhs=worst_row["attained"], rhs=worst_row["bound"], margin=margin,
        status=status,
        witness={"rows": rows, "worst": worst_row} if status == VIOLATED else None,
        note="refined bound under shared selection; trivial at j = k",
    )


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
    tt = rat(t)
    if not 1 <= j <= k:
        raise ValueError(f"need 1 <= j <= k, got j={j}, k={k}")
    walk = _Walk([X], k, cap)
    laws = list(walk.sums())    # S_1..S_k, each read up to twice below
    p_gap = ZERO if j == k else walk.curve(norm, laws[k - j - 1]).at_radius(
        tt * Fraction(9, 10))   # S_0 = 0 never exceeds 9t/10
    sk = walk.curve(norm, laws[k - 1])
    approximate = X.dim > 1

    if p_gap <= Fraction(1, 3):
        lhs = walk.curve(norm, laws[j - 1]).at_radius(tt)
        rhs = Fraction(3, 2) * sk.at_radius(tt / 10)
        return CaseVerdict(
            case_id="case1",
            witnesses={"p_gap": p_gap},
            bound_desc="Pr(||S_j||>t) <= (3/2) Pr(||S_k||>t/10)",
            bound_lhs=lhs, bound_rhs=rhs, bound_holds=lhs <= rhs,
            approximate=False,
        )

    for i, law in enumerate(laws, 1):
        found, _, exact = has_concentration_point(walk.dist(law), tt / 10,
                                                  norm)
        approximate = approximate or not exact
        if not found:
            lhs = sk.at_radius(tt / 10)
            return CaseVerdict(
                case_id="case2",
                witnesses={"index": i, "p_gap": p_gap},
                bound_desc="Pr(||S_k||>t/10) >= 1/3",
                bound_lhs=lhs, bound_rhs=Fraction(1, 3),
                bound_holds=lhs >= Fraction(1, 3),
                approximate=approximate,
            )

    lhs = sk.at_radius(tt / 10, WEAK)
    return CaseVerdict(
        case_id="case3",
        witnesses={"p_gap": p_gap},
        bound_desc="Pr(||S_k||>=t/10) >= 2/3",
        bound_lhs=lhs, bound_rhs=TWO_THIRDS,
        bound_holds=lhs >= TWO_THIRDS,
        approximate=approximate,
    )

"""Concentration points of discrete laws and the checks built on them.

A t-concentration point of X is an x with Pr(|X - x| <= t) > 2/3 (strictly).
In dimension 1 the full set of such points is computed exactly as a finite
union of closed intervals, on ints, straight from a lattice law that the
sum walk (dists._Walk) keeps (law) or streams (sums): the checks read S_i
there without decoding it into a DiscreteDist.  _lattice_set gives the
intervals as int endpoints over the unit scale*q of t = p / q, and lemma2
and corollary3 decide on those ints, against their bounds 3t, 3(k+j)t and
3(j+k-2*gcd(j,k))t, which are ints over the same unit.  Their outcome is
the record a sweep's is (reports.Outcome), and their params echo is the
plan entry's (checks.plan_entry): t, judged once by checks._indices, and
corollary3's k.  Fractions are built only for what leaves as one:
concentration_set's ConcentrationSet, a violated check's witness and the
InequalityReport (Outcome.reports) of verify, the check_* functions and a
stored corpus violation.  In higher dimensions only atom-centered
candidates are tested and results are flagged approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .dists import (
    DEFAULT_SUPPORT_CAP,
    J_LE_K,
    DiscreteDist,
    Norm,
    WEAK,
    _Walk,
    _atoms,
    _encode,
    _threshold,
    rat,
    require_indices,
)
from .reports import HOLDS, InequalityReport, Outcome, VACUOUS, VIOLATED

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
    xx, tt = rat(x), _threshold(t)
    return sum((p for a, p in X.scalar_items() if abs(a - xx) <= tt), ZERO)


def concentration_set(X: DiscreteDist, t) -> ConcentrationSet:
    """Exact set {x : Pr(|X - x| <= t) > 2/3} for a 1-dimensional law: the
    rule of _lattice_set on the one-term walk of X."""
    tt = _threshold(t)
    walk = _Walk(*_encode([X]), {1}, DEFAULT_SUPPORT_CAP)
    unit = walk.scale * tt.denominator
    return ConcentrationSet(tuple(
        (Fraction(lo, unit), Fraction(hi, unit))
        for lo, hi in _lattice_set(walk, walk.law(1), tt)))


def _lattice_set(walk: _Walk, law, t: Fraction) -> "list[tuple[int, int]]":
    """The concentration set of a 1-D lattice law of `walk`, (atoms, den)
    or a slot law, whose atoms dists._atoms decodes: its closed intervals
    [lo, hi], sorted and disjoint, as int pairs over the unit scale*q of
    the judged threshold (dists._threshold) t = p / q, on which t is
    p*scale.

    The window mass x -> Pr(X in [x-t, x+t]) is an upper semicontinuous
    step function whose only breakpoints are a - t and a + t over atoms a.
    With a = v / scale these are v*q -+ p*scale over the unit, and a
    window of mass m / den qualifies when 3*m > 2*den, so one sweep of the
    breakpoints on ints gives the mass at each breakpoint and on each open
    gap, and the closed intervals they make up.
    """
    if walk.dim != 1:
        raise ValueError("concentration_set requires dimension 1")
    atoms, den = _atoms(law)
    q, reach = t.denominator, t.numerator * walk.scale
    starts: "dict[int, int]" = {}
    ends: "dict[int, int]" = {}
    for v, m in atoms.items():
        starts[v * q - reach] = starts.get(v * q - reach, 0) + m
        ends[v * q + reach] = ends.get(v * q + reach, 0) + m
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
            intervals.append((lo, p))
            lo = None
    return intervals


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
    verify's report (checks.claim_reports) on the laws [X, Y].
    """
    from .checks import CLAIMS, claim_reports
    return claim_reports(CLAIMS["lemma2"], [X, Y], Norm.ABS1D, {"t": t},
                         cap=cap)[0]


def _lemma2(walk: _Walk, x, y, xy, t: Fraction) -> Outcome:
    """check_lemma2 on the lattice laws of X, Y and X + Y of one walk at
    the judged t; Y given as X's own law (Y = X) shares X's concentration
    set.  The sets' endpoints and the bound 3t are ints over _lattice_set's
    unit."""
    sets = {"X": _lattice_set(walk, x, t)}
    sets["Y"] = sets["X"] if y is x else _lattice_set(walk, y, t)
    sets["X+Y"] = _lattice_set(walk, xy, t)
    empty = ", ".join(name for name, c in sets.items() if not c)
    if empty:
        return _vacuous(t, empty)
    (x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi) = (
        (c[0][0], c[-1][1]) for c in sets.values())
    attained = max(x_hi + y_hi - z_lo, z_hi - x_lo - y_lo)
    bound = 3 * t.numerator * walk.scale
    unit = walk.scale * t.denominator
    witness = None if attained <= bound else {
        "attained": Fraction(attained, unit), "bound": Fraction(bound, unit)}
    return _decided(t, unit, attained, bound, witness)


def check_corollary3(X: DiscreteDist, k: int, t,
                     cap: int = DEFAULT_SUPPORT_CAP) -> InequalityReport:
    """|k*s_j - j*s_k| bounds over concentration points of the partial sums.

    For every 1 <= j <= k, with s_i ranging over the t-concentration set of
    S_i: the plain bound 3(k+j)t is checked over independent endpoint
    choices; the refined bound 3(j+k-2h)t with h = gcd(j,k) is checked under
    a single shared selection per index, which for j < k still reduces to
    independent endpoint pairs (any pair extends to a full selection) and
    for j = k forces s_j = s_k, making the refined bound 0 <= 0.
    verify's report (checks.claim_reports).
    """
    from .checks import CLAIMS, claim_reports
    return claim_reports(CLAIMS["corollary3"], [X], Norm.ABS1D,
                         {"k": k, "t": t}, cap=cap)[0]


def _corollary3(walk: _Walk, laws, t: Fraction) -> Outcome:
    """check_corollary3 on the lattice laws of S_1..S_k of one walk at the
    judged t.  The sets' endpoints and the bounds are ints over
    _lattice_set's unit, on which 3t is 3*p*scale; the witness rows are
    built only when a bound is violated."""
    sets = [_lattice_set(walk, law, t) for law in laws]
    k = len(sets)
    empty = [i for i, c in enumerate(sets, 1) if not c]
    if empty:
        return _vacuous(t, f"S_i, i in {empty}")
    spans = [(c[0][0], c[-1][1]) for c in sets]
    reach = 3 * t.numerator * walk.scale
    rows = []   # (j, attained, plain bound, refined attained, refined bound)
    worst = None  # (margin, j, attained, bound)
    k_lo, k_hi = spans[-1]
    for j, (lo, hi) in enumerate(spans, 1):
        attained = max(k * hi - j * k_lo, j * k_hi - k * lo)
        row = (j, attained, (k + j) * reach, attained if j < k else 0,
               (j + k - 2 * gcd(j, k)) * reach)
        rows.append(row)
        for got, bound in (row[1:3], row[3:5]):
            if worst is None or bound - got < worst[0]:
                worst = (bound - got, j, got, bound)
    margin, j, got, bound = worst
    unit = walk.scale * t.denominator
    witness = None if margin >= 0 else {"rows": [
        {"j": i, "attained": Fraction(a, unit),
         "plain_bound": Fraction(plain, unit),
         "refined_attained": Fraction(ra, unit),
         "refined_bound": Fraction(refined, unit)}
        for i, a, plain, ra, refined in rows],
        "worst": {"j": j, "attained": Fraction(got, unit),
                  "bound": Fraction(bound, unit)}}
    return _decided(t, unit, got, bound, witness,
                    "refined bound under shared selection; trivial at j = k")


def _vacuous(t: Fraction, empty: str) -> Outcome:
    """The outcome at t when the sets named in `empty` are empty."""
    return Outcome(((t.numerator, t.denominator),), None, None, None,
                   VACUOUS, None, f"empty concentration set for {empty}")


def _decided(t: Fraction, unit: int, attained: int, bound: int,
             witness: "dict | None", note: "str | None" = None) -> Outcome:
    """The outcome at t decided by attained <= bound, both over unit;
    witness is given iff the bound is violated."""
    margin = bound - attained
    return Outcome(((t.numerator, t.denominator),), (attained, unit),
                   (bound, unit), (margin, unit),
                   HOLDS if margin >= 0 else VIOLATED, witness, note)


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
    require_indices(J_LE_K, j, k)
    # only the sums read below; S_0 = 0 never exceeds 9t/10
    walk = _Walk(*_encode([X]), {k - j, j, k} - {0}, cap, norm)
    sk = walk.curve(k)
    p_gap = ZERO if j == k else walk.curve(k - j).at_radius(
        tt * Fraction(9, 10))
    approximate = X.dim > 1

    if p_gap <= Fraction(1, 3):
        lhs = walk.curve(j).at_radius(tt)
        rhs = Fraction(3, 2) * sk.at_radius(tt / 10)
        return CaseVerdict("case1", {"p_gap": p_gap},
                           "Pr(||S_j||>t) <= (3/2) Pr(||S_k||>t/10)",
                           lhs, rhs, lhs <= rhs, False)

    for i, law in enumerate(walk.sums(), 1):    # the fold once more, in order
        if X.dim > 1:
            found = has_concentration_point(walk.dist(law), tt / 10, norm)[0]
        else:
            found = bool(_lattice_set(walk, law, tt / 10))
        if not found:
            lhs = sk.at_radius(tt / 10)
            return CaseVerdict("case2", {"index": i, "p_gap": p_gap},
                               "Pr(||S_k||>t/10) >= 1/3", lhs, Fraction(1, 3),
                               lhs >= Fraction(1, 3), approximate)

    lhs = sk.at_radius(tt / 10, WEAK)
    return CaseVerdict("case3", {"p_gap": p_gap}, "Pr(||S_k||>=t/10) >= 2/3",
                       lhs, TWO_THIRDS, lhs >= TWO_THIRDS, approximate)

"""Exact verification of tail comparison inequalities.

Every sweep claim here decides a statement of the form

    Pr(||L|| > t) <= factor(c1, j, k) * Pr(||R|| > t / scale(c2, j, k))

for all t > 0 (with > replaced by >= in weak mode on either side), with L
and R taken from S_j, the running maximum max_{i<=k} S_i, the weighted sum
sum_i alpha_i X_i and the envelope max_{i<=k} Pr(||S_i|| > .).  Both sides
are step functions, constant between the candidate thresholds
(threshold_candidates), so reading them there is exhaustive; nothing is
sampled or rounded anywhere.

A sweep reads only where the margin can fall (_Pair.reads): the first
threshold and, below the lhs's reach (lhs > 0), each one where an rhs
critical is first counted.  Tails only fall as t grows, so the margin
only rises in between, and the outcome is that of reading every candidate.

Weak equals shifted strict.  When neither side mixes modes, every critical
on the sweep's unit is even, so `crits <= x - 1` (the weak read at x) and
`crits <= x'` (the strict read at the threshold x' before x) pass the same
points, and the first read is the same in both modes.  So the (weak, weak)
outcome has the (strict, strict) status, lhs, rhs, margin and max_lhs; its
worst_q is the threshold after the strict worst, the next critical of
either curve, or the first threshold when the strict worst is there.
_sweep answers MODE_PAIRS from one strict sweep.

Outcomes are ints.  _sweep returns its worst case as (numerator,
denominator) pairs, and shape_checks gives it as the record an evaluated
claim (concentration) gives too, reports.Outcome, whose status is the sign
of the margin.  Fractions are built only for what leaves as one:
sweep_curves' SweepOutcome and the InequalityReport (Outcome.reports) of
verify, the check_* functions and a stored corpus violation.

CLAIMS is the one table of claims, and its rules are the one judge of a
claim's parameters, for the corpus, verify, mc_check and the search
alike: variants is the one constants rule; _indices, once per shape and
index choice where a check enters, the one rule of which names a claim
takes, which fills in the defaults and is the one index and weight rule;
claim_reports the one norm and mode rule.  What they refuse raises
Refused, which names the parameter, so a front end only puts its own flag
in the name's place.  plan_entry is the one place a check is laid out,
for verify's reports (claim_reports), mc_check and the corpus rows alike:
the judged indices, the sums the check reads (_reads), a sweep claim's
factor and scale and the params its rows echo, parameters only.
walk_checks walks a check's laws, [X] or lemma2's [X, Y] (dists._Walk),
as far as its entries read, and gives every entry's outcome or none:
shape_checks reads an entry off the walk, a sweep claim's two curves
(_sides) swept to int pairs, or an evaluated claim's lattice laws, to one
int outcome.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from .concentration import _corollary3, _lemma2
from .dists import (
    DEFAULT_SUPPORT_CAP,
    FIRST_TWO, J_LE_K, K_LE_J, K_ONLY,  # the index rules
    MAX,
    DiscreteDist,
    Norm,
    STRICT,
    TailCurve,
    WEAK,
    _check_mode,
    _encode,
    _threshold,
    _Walk,
    _weighted_walk,
    default_norm,
    rat,
    require_indices,
    upper_envelope,
)
from .reports import HOLDS, InequalityReport, Outcome, VIOLATED


def threshold_candidates(jumps, mixed_modes: bool = False) -> "list[Fraction]":
    """The candidate rule at rational jumps (gauge values of both sides): a
    threshold in every constancy region of two step functions with these
    jumps, namely half the first positive jump, each positive jump, twice
    the last and, when modes mix, the midpoints, where left and right
    continuous steps pair anew; 1 when no jump is positive.  A sweep reads
    the thresholds of this rule where its margin can fall (_Pair.reads)."""
    jumps = [rat(q) for q in jumps]
    unit = 2 * math.lcm(*(q.denominator for q in jumps))
    xs = sorted({q.numerator * unit // q.denominator for q in jumps if q > 0})
    if not xs:
        return [Fraction(1)]
    out = [xs[0] // 2]
    for a, b in zip(xs, xs[1:]):
        out += (a, (a + b) // 2) if mixed_modes else (a,)
    return [Fraction(x, unit) for x in out + [xs[-1], 2 * xs[-1]]]


class _Pair:
    """lhs(t) against rhs(t / scale) in ints: both curves' criticals over
    one int unit, a gauge critical g / c.unit read at t / scale sitting at
    g * m / unit (m = ml on the left, mr on the right).  The unit is doubled
    so that the candidate thresholds (threshold_candidates), half-points
    and midpoints, stay integral; the criticals on it are even."""

    __slots__ = ("lhs", "rhs", "unit", "ml", "mr")

    def __init__(self, lhs: TailCurve, rhs: TailCurve, scale):
        if lhs.norm is not rhs.norm:
            raise ValueError("curves use different norms")
        if scale.numerator <= 0:   # int or Fraction: the numerator has the sign
            raise ValueError("scales must be positive")
        e = lhs.norm.scale_exponent
        sn, sd = scale.numerator ** e, scale.denominator ** e
        self.lhs, self.rhs = lhs, rhs
        self.unit = 2 * math.lcm(lhs.unit, rhs.unit * sd)
        self.ml = self.unit // lhs.unit
        self.mr = sn * self.unit // (rhs.unit * sd)

    def after(self, x: int) -> int:
        """The next critical of either curve after x, which lies below the
        lhs's last critical."""
        lc, rc, ml, mr = self.lhs.crits, self.rhs.crits, self.ml, self.mr
        i = bisect_right(rc, x // mr)
        nxt = lc[bisect_right(lc, x // ml)] * ml
        return nxt if i == len(rc) else min(nxt, rc[i] * mr)

    def reads(self, lhs_mode: str, rhs_mode: str):
        """The candidate thresholds x where the margin can fall, ascending,
        and each side's tail numerator there: (xs, nls over lhs.den, nrs
        over rhs.den).

        A tail only falls as x grows, so between two drops of the rhs read
        the margin factor * rhs - lhs (and the ratio lhs / rhs) can only get
        better, and the least worst threshold of all the candidates is the
        first threshold or one where an rhs critical c is first counted: at
        c for a strict rhs read (tail > t), at the next candidate after c
        for a weak one (tail >= t).  Only those with lhs > 0 can decide, so
        reads stop at the lhs's reach: below its last critical for a strict
        lhs read, at or below it for a weak one.  The first threshold is
        read whatever lhs is there; every later read has lhs > 0."""
        weak_l = _check_mode(lhs_mode) != STRICT
        weak_r = _check_mode(rhs_mode) != STRICT
        lhs, rhs, ml, mr = self.lhs, self.rhs, self.ml, self.mr
        lc, rc = lhs.crits, rhs.crits
        # half the least positive critical: a critical 0 is already passed
        firsts = [g * m for cs, m in ((lc, ml), (rc, mr)) for g in cs[:2] if g]
        xs = [min(firsts) // 2 if firsts else self.unit]
        nls = [lhs.nums[0] if lc[0] == 0 else lhs.den]
        nrs = [rhs.nums[0] if rc[0] == 0 else rhs.den]
        # rhs criticals c * mr < top are first counted inside the reach
        top = lc[-1] * ml + (weak_l and not weak_r)
        for i in range(rc[0] == 0, bisect_left(rc, -(-top // mr))):
            x = rc[i] * mr
            if weak_r:   # the next candidate: a midpoint iff modes mix
                x = self.after(x) if weak_l else (x + self.after(x)) // 2
            n = bisect_right(lc, (x - weak_l) // ml)
            xs.append(x)
            nls.append(lhs.nums[n - 1] if n else lhs.den)
            nrs.append(rhs.nums[i])
        return xs, nls, nrs


@dataclass(frozen=True)
class SweepOutcome:
    """Worst case found while sweeping candidate thresholds."""

    status: str
    worst_q: Fraction          # gauge-space threshold at the worst margin
    lhs: Fraction              # lhs tail there
    rhs: Fraction              # factor * rhs tail there
    margin: Fraction           # rhs - lhs there (negative iff violated)
    max_lhs: Fraction          # largest lhs seen (0 means the check was idle)


# both unmixed mode pairs, answered by one strict sweep (module docstring);
# every corpus check runs at these
MODE_PAIRS = ((STRICT, STRICT), (WEAK, WEAK))


def _sweep(lhs_curve: TailCurve, rhs_curve: TailCurve, factor, scale,
           modes) -> tuple:
    """The worst case of lhs(t) <= factor * rhs(t/scale) for rational
    factor and scale, at the (lhs mode, rhs mode) pairs in modes, one pair
    or MODE_PAIRS: the worst threshold of each pair, then the lhs, factor *
    rhs and margin there and the largest lhs, which the pairs share, each a
    (numerator, denominator) pair, denominator > 0, from the reads where
    its margin can fall (_Pair.reads: the first threshold and, below the
    lhs's reach, one per rhs critical), which hold the least worst of every
    candidate threshold.  MODE_PAIRS reads the strict pair and takes the
    weak threshold off it; any other tuple of pairs is refused."""
    if len(modes) != 1 and modes != MODE_PAIRS:
        raise ValueError(f"modes must be one pair or MODE_PAIRS, got {modes}")
    pair = _Pair(lhs_curve, rhs_curve, scale)
    fn, fd = factor.numerator, factor.denominator
    dl, dr = lhs_curve.den, rhs_curve.den
    # margin = factor * rhs - lhs is kr * nr - kl * nl over fd * dl * dr
    kr, kl = fn * dl, fd * dr
    xs, nls, nrs = pair.reads(*modes[0])
    # every read past the first has lhs > 0; ties go to the least x.  The
    # first read holds the largest lhs, and is the outcome when lhs is
    # identically 0 (then it is the only read)
    margins = [kr * nr - kl * nl for nl, nr in zip(nls, nrs)]
    p = margins.index(min(margins))
    ts = ((xs[p], pair.unit),)
    if len(modes) == 2:
        # the weak read at a candidate is the strict read at the one
        # before it, and the first read is the same in both; a worst p > 0
        # is an rhs critical below the lhs's last, followed by the next
        # critical of either curve
        ts += ((xs[0] if p == 0 else pair.after(xs[p]), pair.unit),)
    return ts, (nls[p], dl), (fn * nrs[p], kl), (margins[p], fd * dl * dr), \
        (nls[0], dl)


def sweep_curves(lhs_curve: TailCurve, rhs_curve: TailCurve, factor: Fraction,
                 scale: Fraction, lhs_mode: str = STRICT,
                 rhs_mode: "str | None" = None) -> SweepOutcome:
    """Exact sweep of lhs(t) <= factor * rhs(t/scale) over all t > 0.

    factor and scale are rationals (floats raise TypeError); scale > 0 is
    a radius, so in gauge space (euclidean) it acts squared.
    """
    rhs_mode = lhs_mode if rhs_mode is None else rhs_mode
    (t,), *rest = _sweep(lhs_curve, rhs_curve, rat(factor), rat(scale),
                         ((lhs_mode, rhs_mode),))
    return SweepOutcome(VIOLATED if rest[2][0] < 0 else HOLDS,
                        *(Fraction(n, d) for n, d in (t, *rest)))


def least_c1(lhs_curve: TailCurve, rhs_curve: TailCurve, factor: Fraction,
             scale: Fraction):
    """Least c1 with lhs(t) <= c1 * factor * rhs(t/scale) for all t > 0.

    Strict tails on both sides, scale > 0.  Returns (c1, gauge-space
    threshold where it is attained): a Fraction, 0 with threshold None when
    lhs is identically zero, or math.inf at the first threshold where lhs >
    0 and rhs = 0.  It reads where a sweep reads (_Pair.reads), since the
    ratio lhs / rhs only falls between those reads.
    """
    pair = _Pair(lhs_curve, rhs_curve, rat(scale))
    xs, nls, nrs = pair.reads(STRICT, STRICT)
    bl, br, bx = 0, 1, None  # lhs, rhs numerators at the largest ratio
    for x, nl, nr in zip(xs, nls, nrs):
        if not nl:
            break  # lhs is identically zero: the first read is the only one
        if not nr:
            return math.inf, Fraction(x, pair.unit)
        if nl * br > bl * nr:
            bl, br, bx = nl, nr, x
    return (Fraction(bl * rhs_curve.den, br * lhs_curve.den) / factor,
            None if bx is None else Fraction(bx, pair.unit))


# --- the claim table -------------------------------------------------------

# sides of a sweep claim
SUM = "sum"            # S_j on the left, S_k on the right
WEIGHTED = "weighted"  # sum_i alpha_i X_i with k = len(alphas)
ENVELOPE = "envelope"  # max_{i<=k} Pr(||S_i|| > .), pointwise

EXTERNAL = "external claim [L]"


def _unit(c, j, k):
    return c


def _times_j_over_k(c, j, k):
    return Fraction(c.numerator * j, c.denominator * k)


@dataclass(frozen=True)
class ClaimSpec:
    """Pr(||lhs|| > t) <= factor(c1, j, k) * Pr(||rhs|| > t/scale(c2, j, k)).

    constants: the default (c1, c2).  takes: the parameters a one-off
    check reads (j, k, alphas, t); defaults: values for those not given;
    order: the rule j and k obey.  fixed constants belong to the statement.
    shapes: other claims' shapes checked at this claim's own constant
    pairs.  evaluate(walk, idx): a checker that replaces the sweep.  laws:
    the most laws it walks, X and (lemma2) Y; S_i sums i.i.d. copies of X.
    """

    claim_id: str
    lhs: "str | None" = None
    rhs: "str | None" = None
    constants: "tuple[Fraction, Fraction] | None" = None
    takes: "tuple[str, ...]" = ()
    order: "str | None" = None
    defaults: dict = field(default_factory=dict)
    factor: Callable = _unit
    scale: Callable = _unit
    fixed: bool = False
    note: "str | None" = None
    shapes: tuple = ()
    evaluate: "Callable | None" = None
    laws: int = 1


CLAIMS = {spec.claim_id: spec for spec in (
    ClaimSpec("theorem1", SUM, SUM, (Fraction(3), Fraction(10)),
              ("j", "k"), J_LE_K, {"j": 1, "k": 2}),
    ClaimSpec("latala_sharp", SUM, SUM, (Fraction(2), Fraction(3, 2)),
              (), FIRST_TWO, {"j": 1, "k": 2}, fixed=True, note=EXTERNAL),
    ClaimSpec("latala_alt", takes=("j", "k"), defaults={"j": 1, "k": 2},
              fixed=True, note=EXTERNAL, shapes=(
                  ("theorem1", ((Fraction(4), Fraction(5)),
                                (Fraction(2), Fraction(7)))),
                  ("corollary4", ((Fraction(4), Fraction(6)),
                                  (Fraction(2), Fraction(8)))))),
    ClaimSpec("levy_ottaviani", MAX, ENVELOPE, (Fraction(3), Fraction(3)),
              ("k",), K_ONLY, {"k": 4}),
    ClaimSpec("corollary4", MAX, SUM, (Fraction(9), Fraction(30)),
              ("k",), K_ONLY, {"k": 4}),
    ClaimSpec("corollary5", WEIGHTED, SUM, (Fraction(10), Fraction(90)),
              ("alphas",)),
    ClaimSpec("corollary6", SUM, SUM, (Fraction(6), Fraction(20)),
              ("j", "k"), K_LE_J, {"j": 2, "k": 1},
              factor=_times_j_over_k, scale=_times_j_over_k),
    ClaimSpec("lemma2", takes=("t",), laws=2, evaluate=lambda w, idx: _lemma2(
        w, w.law(1), w.terms[1] if len(w.terms) > 1 else w.law(1),
        w.law(2), idx["t"])),
    ClaimSpec("corollary3", takes=("k", "t"), order=K_ONLY,
              defaults={"k": 3}, evaluate=lambda w, idx: _corollary3(
                  w, map(w.law, range(1, idx["k"] + 1)), idx["t"])),
)}

ALIASES = {"levy": "levy_ottaviani", "latala": "latala_sharp"}


class Refused(ValueError):
    """A claim's parameter refused: name is the parameter (j, k, t, alphas,
    c1, c2, norm, lhs_mode or rhs_mode), and the message is template with
    name in place of "{name}", where a front end puts its flag instead."""

    def __init__(self, template: str, name: str):
        super().__init__(template.replace("{name}", name))
        self.template, self.name = template, name


def variants(spec: ClaimSpec, c1=None, c2=None) -> list:
    """(shape, c1, c2) for each constant pair the claim checks, in report
    order; c1 and c2 replace the default constants when given.  The one
    constants rule: a claim whose constants are fixed or absent refuses
    them (Refused), and constants must be positive."""
    if (spec.fixed or spec.constants is None) and (c1, c2) != (None, None):
        what = "has fixed constants" if spec.fixed else "takes no constants"
        raise Refused(f"{spec.claim_id} {what}, so no {{name}}",
                      "c1" if c1 is not None else "c2")
    if spec.shapes:
        return [(CLAIMS[shape], a, b)
                for shape, pairs in spec.shapes for a, b in pairs]
    if spec.constants is None:
        return [(spec, None, None)]
    c1 = spec.constants[0] if c1 is None else rat(c1)
    c2 = spec.constants[1] if c2 is None else rat(c2)
    require_positive(f"constants for {spec.claim_id} must be positive",
                     c1, c2)
    return [(spec, c1, c2)]


def require_positive(message: str, *constants: Fraction) -> None:
    """The one positivity rule for claim constants."""
    if not all(c > 0 for c in constants):
        raise ValueError(message)


def _indices(shape: ClaimSpec, given: dict,
             spec: "ClaimSpec | None" = None) -> dict:
    """Judge a shape's parameters once, as spec, the claim checked in
    shape's form, takes them, each missing or None at spec's default
    (latala_alt checks corollary4's at its own k = 2): what a check reads
    and echoes, t judged (dists._threshold), never a law.  Refused names
    a given name (not None) that spec does not take, a missing t or
    alphas, and a weighted claim's k that is not its weight count: a name
    spec fixes (latala_sharp's j = 1, k = 2) is taken at that value, and a
    weighted claim takes k as the number of its weights."""
    spec = spec or shape
    for name, value in given.items():
        if value is not None and name not in spec.takes and \
                spec.defaults.get(name) != value and \
                (name, spec.lhs) != ("k", WEIGHTED):
            raise Refused(f"{spec.claim_id} does not take {{name}}", name)
    given = {**given, **{n: v for n, v in spec.defaults.items()
                         if given.get(n) is None}}
    if shape.lhs == WEIGHTED:
        coeffs = [rat(a) for a in given.get("alphas") or ()]
        if not coeffs:
            raise Refused(f"{shape.claim_id} needs {{name}}", "alphas")
        if given.get("k") not in (None, len(coeffs)):
            raise Refused(f"{shape.claim_id} takes {{name}} = {len(coeffs)},"
                          f" the number of weights, got k={given['k']}", "k")
        for a in coeffs:      # no message rendered for a weight in range
            if abs(a.numerator) > a.denominator:
                raise ValueError(f"weight {a} out of range, need "
                                 "|alpha_i| <= 1")
        return {"k": len(coeffs), "alphas": coeffs}
    idx = {}
    if shape.order is not None:
        require_indices(shape.order, given.get("j"), given["k"])
        idx = {n: given[n] for n in (("k",) if shape.order == K_ONLY
                                     else ("j", "k"))}
    if shape.evaluate is not None:
        if given.get("t") is None:
            raise Refused(f"{shape.claim_id} needs {{name}}", "t")
        idx["t"] = _threshold(given["t"])
    return idx


def _sides(walk: _Walk, shape: ClaimSpec, idx: dict):
    """(lhs, rhs) curves of a sweep claim at judged indices, read off the
    walk of its law; a weighted lhs walks the walk's own lattice term."""
    k = idx["k"]
    if shape.lhs == SUM:
        lhs = walk.curve(idx["j"])
    elif shape.lhs == MAX:
        lhs = walk.max_curve(k)
    else:
        lhs = _weighted_walk(walk.scale, walk.dim, walk.encoded[0],
                             idx["alphas"], walk.cap, walk.norm).curve(k)
    return lhs, walk.curve(k) if shape.rhs == SUM else walk.envelope(k)


class _Entry(NamedTuple):
    """One entry of a check plan: spec checked in shape's form at one
    constant pair, one judged index choice (_indices) and one norm, with
    all a check of it reads but the law: the sums its walk reads (_reads),
    a sweep claim's factor and scale, and the params its rows echo."""

    spec: ClaimSpec
    shape: ClaimSpec
    idx: dict
    reads: set
    norm: Norm
    modes: tuple
    factor: "Fraction | None"
    scale: "Fraction | None"
    params: dict

    @property
    def echoes(self) -> tuple:
        """An evaluated entry's one echo, a sweep's one per mode pair."""
        if self.shape.evaluate is not None:
            return (self.params,)
        return tuple({**self.params, "modes": pair} for pair in self.modes)


def plan_entry(spec: ClaimSpec, shape: ClaimSpec, c1, c2, idx: dict,
               norm: Norm, modes) -> _Entry:
    """The plan entry of spec in shape's form at constants (c1, c2) and
    judged indices idx, under norm, at each mode pair in modes: the one
    place a check is laid out, for verify's reports (claim_reports) and the
    corpus rows alike.  An evaluated claim echoes its judged indices,
    once; a sweep claim its constants and norm too, per mode pair."""
    j, k = idx.get("j"), idx.get("k")
    params = {} if shape is spec else {"shape": shape.claim_id}
    params.update(idx)
    if shape.evaluate is None:
        params["c1"], params["c2"], params["norm"] = c1, c2, norm
    return _Entry(spec, shape, idx, _reads(shape, idx), norm, modes,
                  shape.factor(c1, j, k), shape.scale(c2, j, k), params)


def shape_checks(entry: _Entry, walk: _Walk) -> Outcome:
    """The outcome of a plan entry on the walk of a law: an evaluated
    claim's, or a sweep claim's (_sweep) at the entry's mode pairs, for
    verify and the corpus alike: violated iff the margin is negative, and
    noted with the claim's own note, then "lhs identically zero" and, under
    the euclidean gauge, that thresholds are squared radii."""
    if entry.shape.evaluate is not None:
        return entry.shape.evaluate(walk, entry.idx)
    ts, lhs, rhs, margin, max_lhs = _sweep(
        *_sides(walk, entry.shape, entry.idx), entry.factor, entry.scale,
        entry.modes)
    notes = [] if entry.spec.note is None else [entry.spec.note]
    if not max_lhs[0]:
        notes.append("lhs identically zero")
    if entry.norm.scale_exponent == 2:
        notes.append("thresholds are squared radii (euclidean gauge)")
    return Outcome(ts, lhs, rhs, margin, VIOLATED if margin[0] < 0 else HOLDS,
                   None, "; ".join(notes) or None)


def walk_checks(entries, laws, cap: int) -> list:
    """The outcome (shape_checks) of every plan entry (all under one norm)
    on one walk of laws, X and then lemma2's Y when given, as far as their
    reads go, or SupportCapExceeded when the walk passes cap; more laws
    than an entry's claim walks (ClaimSpec.laws) raise ValueError."""
    for entry in entries:
        if len(laws) > entry.shape.laws:
            raise ValueError(f"{entry.spec.claim_id} takes at most "
                             f"{entry.shape.laws} law(s), got {len(laws)}")
    walk = _Walk(*_encode(laws), set().union(
        *(entry.reads for entry in entries)), cap, entries[0].norm)
    return [shape_checks(entry, walk) for entry in entries]


def _reads(shape: ClaimSpec, idx: dict) -> set:
    """The i of every S_i a check of this shape reads at judged parameters
    (_indices), and MAX when it reads a running max: S_j and S_k for its
    SUM sides, S_1..S_k for an envelope and for corollary3, S_1 = X and
    S_2 = X + Y for lemma2."""
    if shape.claim_id == "lemma2":
        return {1, 2}
    reads = {MAX} if shape.lhs == MAX else set()
    if shape.rhs == ENVELOPE or shape.claim_id == "corollary3":
        return reads | set(range(1, idx["k"] + 1))
    return reads | {i for side, i in ((shape.lhs, idx.get("j")),
                                      (shape.rhs, idx["k"])) if side == SUM}


def claim_reports(spec: ClaimSpec, laws, norm: "Norm | None" = None,
                  given: "dict | None" = None, c1=None, c2=None,
                  lhs_mode: "str | None" = None, rhs_mode: "str | None" = None,
                  cap: int = DEFAULT_SUPPORT_CAP) -> "list[InequalityReport]":
    """Every report of one claim on its laws (walk_checks) at the given
    parameters, one per shape and constant pair, all or none.  A norm or
    mode None is the default: the first law's default_norm, a strict lhs
    and an rhs in the lhs's mode.  An evaluated claim (lemma2, corollary3)
    refuses any mode and any norm but abs1d (Refused)."""
    plan = variants(spec, c1, c2)
    if spec.evaluate is not None:
        for name, value in (("norm", None if norm in (None, Norm.ABS1D)
                             else norm.value),
                            ("lhs_mode", lhs_mode), ("rhs_mode", rhs_mode)):
            if value is not None:
                raise Refused(f"{spec.claim_id} does not take {{name}} "
                              f"{value}", name)
    judged = {name: _indices(CLAIMS[name], given or {}, spec)
              for name in dict.fromkeys(shape.claim_id for shape, *_ in plan)}
    norm = default_norm(laws[0].dim) if norm is None else norm
    lhs_mode = lhs_mode or STRICT
    modes = ((lhs_mode, rhs_mode or lhs_mode),)
    entries = [plan_entry(spec, shape, a, b, judged[shape.claim_id], norm,
                          modes) for shape, a, b in plan]
    return [rep for entry, got in zip(entries, walk_checks(entries, laws, cap))
            for rep in got.reports(entry.spec.claim_id, entry.echoes)]


def check_theorem1(X: DiscreteDist, j: int, k: int, c1=None, c2=None,
                   norm: Norm = Norm.ABS1D, lhs_mode: str = STRICT,
                   rhs_mode: "str | None" = None,
                   cap: int = DEFAULT_SUPPORT_CAP) -> InequalityReport:
    """Pr(||S_j|| > t) <= c1 * Pr(||S_k|| > t/c2) for all t > 0."""
    return claim_reports(CLAIMS["theorem1"], [X], norm, {"j": j, "k": k},
                         c1, c2, lhs_mode, rhs_mode, cap)[0]


def check_latala_sharp(X: DiscreteDist, norm: Norm = Norm.ABS1D,
                       lhs_mode: str = STRICT, rhs_mode: "str | None" = None,
                       cap: int = DEFAULT_SUPPORT_CAP) -> InequalityReport:
    """Pr(||X1|| > t) <= 2 * Pr(||X1 + X2|| > 2t/3) for all t > 0.

    Treated as an external claim under test, not assumed.
    """
    return claim_reports(CLAIMS["latala_sharp"], [X], norm, {}, None, None,
                         lhs_mode, rhs_mode, cap)[0]


def check_levy_ottaviani(X: DiscreteDist, k: int, c1=None, c2=None,
                         norm: Norm = Norm.ABS1D, lhs_mode: str = STRICT,
                         rhs_mode: "str | None" = None,
                         cap: int = DEFAULT_SUPPORT_CAP) -> InequalityReport:
    """Pr(max_j ||S_j|| > t) <= c1 * max_j Pr(||S_j|| > t/c2), all t > 0."""
    return claim_reports(CLAIMS["levy_ottaviani"], [X], norm, {"k": k}, c1,
                         c2, lhs_mode, rhs_mode, cap)[0]


def check_corollary4(X: DiscreteDist, k: int, c1=None, c2=None,
                     norm: Norm = Norm.ABS1D, lhs_mode: str = STRICT,
                     rhs_mode: "str | None" = None,
                     cap: int = DEFAULT_SUPPORT_CAP) -> InequalityReport:
    """Pr(max_j ||S_j|| > t) <= c1 * Pr(||S_k|| > t/c2) for all t > 0."""
    return claim_reports(CLAIMS["corollary4"], [X], norm, {"k": k}, c1, c2,
                         lhs_mode, rhs_mode, cap)[0]


def check_corollary5(X: DiscreteDist, alphas, c1=None, c2=None,
                     norm: Norm = Norm.ABS1D, lhs_mode: str = STRICT,
                     rhs_mode: "str | None" = None,
                     cap: int = DEFAULT_SUPPORT_CAP) -> InequalityReport:
    """Pr(||sum_i alpha_i X_i|| > t) <= c1 * Pr(||S_k|| > t/c2), |alpha_i| <= 1."""
    return claim_reports(CLAIMS["corollary5"], [X], norm,
                         {"alphas": list(alphas)}, c1, c2, lhs_mode,
                         rhs_mode, cap)[0]


def check_corollary6(X: DiscreteDist, j: int, k: int, c1=None, c2=None,
                     norm: Norm = Norm.ABS1D, lhs_mode: str = STRICT,
                     rhs_mode: "str | None" = None,
                     cap: int = DEFAULT_SUPPORT_CAP) -> InequalityReport:
    """Pr(||S_j|| > t) <= (c1*j/k) * Pr(||S_k|| > k*t/(c2*j)) for 1 <= k <= j."""
    return claim_reports(CLAIMS["corollary6"], [X], norm, {"j": j, "k": k},
                         c1, c2, lhs_mode, rhs_mode, cap)[0]

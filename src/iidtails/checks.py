"""Exact verification of tail comparison inequalities.

Every sweep claim here decides a statement of the form

    Pr(||L|| > t) <= factor(c1, j, k) * Pr(||R|| > t / scale(c2, j, k))

for all t > 0 (with > replaced by >= in weak mode on either side), with L
and R taken from S_j, the running maximum max_{i<=k} S_i, the weighted sum
sum_i alpha_i X_i and the envelope max_{i<=k} Pr(||S_i|| > .).  Both sides
are step functions, so reading both at a finite set of thresholds in one
integer walk (_walk) is exhaustive; nothing is sampled or rounded anywhere.

Weak equals shifted strict.  When neither side mixes modes, every critical
on the walk's unit is even, so `crits <= x - 1` (the weak read at x) and
`crits <= x'` (the strict read at the threshold x' before x) pass the same
points, and the first read is the same in both modes.  So the (weak, weak)
outcome has the (strict, strict) status, lhs, rhs, margin and max_lhs; its
worst_q is the threshold after the strict worst, or the first threshold
when the strict worst is there.  _sweeps answers MODE_PAIRS from one walk.

Outcomes are ints.  _sweeps returns each worst case as (numerator,
denominator) pairs (_Outcome); Fractions are built only for what leaves as
one: sweep_curves' SweepOutcome (_Outcome.sweep) and a report's
InequalityReport (_report).

CLAIMS is the one table of claims.  The corpus, the CLI, mc_check and the
extremal search read it, and judge a claim's parameters by its rules:
variants (require_positive) is the one constants rule and _indices
(dists.require_indices) the one index and weight rule, which judges the
parameters before _reads sizes a walk from them.  claim_reports builds
its own walk (Curves) for verify's reports, which the check_* functions
return.  shape_checks is the one place a check is assembled: for those
reports and the corpus rows alike it echoes the params, states the status
and note (_verdict) and gives the worst case as int pairs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable

from .concentration import _corollary3, _lemma2, check_lemma2
from .dists import (
    DEFAULT_SUPPORT_CAP,
    FIRST_TWO, J_LE_K, K_LE_J, K_ONLY,  # the index rules
    DiscreteDist,
    Norm,
    STRICT,
    SupportCapExceeded,
    TailCurve,
    WEAK,
    _check_mode,
    _Walk,
    _gauge_curve,
    _merged,
    _weighted_walk,
    rat,
    require_indices,
)
from .reports import HOLDS, InequalityReport, VIOLATED


def _thresholds(jumps: "list[int]", one: int, mixed: bool) -> "list[int]":
    """The candidate rule, a threshold in every constancy region of two step
    functions with these distinct positive jumps (ascending even ints; 1 is
    `one`): half the first, each jump, twice the last and, when modes mix,
    the midpoints, where left and right continuous steps pair anew."""
    if not jumps:
        return [one]
    out = [jumps[0] // 2]
    for a, b in zip(jumps, jumps[1:]):
        out += (a, (a + b) // 2) if mixed else (a,)
    return out + [jumps[-1], 2 * jumps[-1]]


def threshold_candidates(jumps, mixed_modes: bool = False) -> "list[Fraction]":
    """The candidate rule at rational jumps (gauge values of both sides)."""
    jumps = [rat(q) for q in jumps]
    unit = 2 * math.lcm(*(q.denominator for q in jumps))
    xs = sorted({q.numerator * unit // q.denominator for q in jumps if q > 0})
    return [Fraction(x, unit) for x in _thresholds(xs, unit, mixed_modes)]


def _walk(sides, grid: bool = True):
    """The one comparison of step curves: sweep_curves, least_c1 and
    upper_envelope read each (curve, scale, mode) side at t / scale in its
    mode, at ascending gauge thresholds x / unit, by bisection and only
    ints.  With grid the candidate rule picks the x, on a unit doubled to
    keep them integral; without it every critical is one.  Returns (unit,
    dens, the x, per side the tail numerator over dens[i] at each x)."""
    norm = sides[0][0].norm
    if any(c.norm is not norm for c, _, _ in sides):
        raise ValueError("curves use different norms")
    for _, s, _ in sides:   # int or Fraction: the numerator has the sign
        if s.numerator <= 0:
            raise ValueError("scales must be positive")
    e = norm.scale_exponent
    sides = [(c, s.numerator ** e, s.denominator ** e, _check_mode(m))
             for c, s, m in sides]
    # a critical g / c.unit read at t / s is g * s over one common unit
    unit = (1 + grid) * math.lcm(*{c.unit * sd for c, _, sd, _ in sides})
    cs = []
    for c, sn, sd, _ in sides:
        m = sn * unit // (c.unit * sd)
        cs.append([g * m for g in c.crits])
    xs = sorted(set().union(*cs))
    if grid:
        xs = _thresholds([x for x in xs if x > 0], unit,
                         len({mode for *_, mode in sides}) > 1)
    columns = []
    for crits, (c, _, _, mode) in zip(cs, sides):
        # a weak tail Pr(g >= q) passes the criticals c < q, c <= q - 1
        weak, vals = mode != STRICT, (c.den, *c.nums)
        columns.append([vals[bisect_right(crits, x - weak)] for x in xs])
    return unit, [c.den for c, *_ in sides], xs, columns


@dataclass(frozen=True)
class SweepOutcome:
    """Worst case found while sweeping candidate thresholds."""

    status: str
    worst_q: Fraction          # gauge-space threshold at the worst margin
    lhs: Fraction              # lhs tail there
    rhs: Fraction              # factor * rhs tail there
    margin: Fraction           # rhs - lhs there (negative iff violated)
    max_lhs: Fraction          # largest lhs seen (0 means the check was idle)


class _Outcome:
    """A sweep's worst case in ints: `ints` holds the worst threshold, lhs,
    factor * rhs and the margin rhs - lhs there, and the largest lhs, each
    a (numerator, denominator) pair with a positive denominator, not
    reduced.  sweep() is the SweepOutcome it stands for."""

    __slots__ = ("ints",)

    def __init__(self, ints):
        self.ints = ints

    @property
    def status(self) -> str:
        return VIOLATED if self.ints[3][0] < 0 else HOLDS

    def sweep(self) -> SweepOutcome:
        return SweepOutcome(self.status,
                            *(Fraction(n, d) for n, d in self.ints))


# both unmixed mode pairs, answered by one strict walk (module docstring);
# every corpus check runs at these
MODE_PAIRS = ((STRICT, STRICT), (WEAK, WEAK))


def _sweeps(lhs_curve: TailCurve, rhs_curve: TailCurve, factor, scale,
            modes) -> "list[_Outcome]":
    """One outcome of lhs(t) <= factor * rhs(t/scale) per (lhs mode, rhs
    mode) pair in modes, for rational factor and scale.  MODE_PAIRS takes
    one strict walk and reads the weak outcome off it; any other tuple
    takes one walk per pair."""
    shared = tuple(modes) == MODE_PAIRS
    fn, fd = factor.numerator, factor.denominator
    outs = []
    for lhs_mode, rhs_mode in modes[:1] if shared else modes:
        unit, (dl, dr), xs, (nls, nrs) = _walk([(lhs_curve, 1, lhs_mode),
                                                (rhs_curve, scale, rhs_mode)])
        # margin = factor * rhs - lhs is kr * nr - kl * nl over fd * dl * dr
        kr, kl = fn * dl, fd * dr
        # Only lhs > 0 can violate, and past both supports 0 <= 0 would mask
        # the worst case; ties go to the least x.  lhs is nonincreasing and
        # 0 at the last read, past every critical: the reads before its
        # first 0 are those with lhs > 0, and the first read holds its
        # largest value, the outcome when lhs is identically 0.
        margins = [kr * nr - kl * nl for nl, nr in zip(nls[:nls.index(0)],
                                                         nrs)]
        p = margins.index(min(margins)) if margins else 0
        nl, nr = nls[p], nrs[p]
        outs.append(_Outcome(((xs[p], unit), (nl, dl), (fn * nr, kl),
                              (kr * nr - kl * nl, fd * dl * dr),
                              (nls[0], dl))))
    if shared:
        # the weak read at xs[i + 1] is the strict read at xs[i], and the
        # first read is the same in both; a worst p > 0 has lhs > 0, so it
        # is not the last read, past every critical
        outs.append(_Outcome(((xs[0 if p == 0 else p + 1], unit),)
                             + outs[0].ints[1:]))
    return outs


def sweep_curves(lhs_curve: TailCurve, rhs_curve: TailCurve, factor: Fraction,
                 scale: Fraction, lhs_mode: str = STRICT,
                 rhs_mode: "str | None" = None) -> SweepOutcome:
    """Exact sweep of lhs(t) <= factor * rhs(t/scale) over all t > 0.

    factor and scale are rationals (floats raise TypeError); scale > 0 is
    a radius, so in gauge space (euclidean) it acts squared.
    """
    rhs_mode = lhs_mode if rhs_mode is None else rhs_mode
    return _sweeps(lhs_curve, rhs_curve, rat(factor), rat(scale),
                   ((lhs_mode, rhs_mode),))[0].sweep()


def least_c1(lhs_curve: TailCurve, rhs_curve: TailCurve, factor: Fraction,
             scale: Fraction):
    """Least c1 with lhs(t) <= c1 * factor * rhs(t/scale) for all t > 0.

    Strict tails on both sides, scale > 0.  Returns (c1, gauge-space
    threshold where it is attained): a Fraction, 0 with threshold None when
    lhs is identically zero, or math.inf at the first threshold where lhs >
    0 and rhs = 0.
    """
    unit, (dl, dr), xs, (nls, nrs) = _walk([(lhs_curve, 1, STRICT),
                                            (rhs_curve, rat(scale), STRICT)])
    bl, br, bx = 0, 1, None  # lhs, rhs numerators at the largest ratio
    for x, nl, nr in zip(xs, nls, nrs):
        if not nl:
            break  # lhs is nonincreasing: zero from here on
        if not nr:
            return math.inf, Fraction(x, unit)
        if nl * br > bl * nr:
            bl, br, bx = nl, nr, x
    return (Fraction(bl * dr, br * dl) / factor,
            None if bx is None else Fraction(bx, unit))


def _verdict(outcome: _Outcome, norm: Norm,
             note: "str | None" = None) -> "tuple[str, str | None]":
    """The status and the note of a sweep claim's report, for verify and
    the corpus alike: violated iff the margin is negative; the claim's own
    note, then "lhs identically zero" and, under the euclidean gauge,
    that thresholds are squared radii."""
    notes = [] if note is None else [note]
    if not outcome.ints[4][0]:
        notes.append("lhs identically zero")
    if norm.scale_exponent == 2:
        notes.append("thresholds are squared radii (euclidean gauge)")
    return outcome.status, "; ".join(notes) or None


def _report(claim_id: str, params: dict, outcome: _Outcome, norm: Norm,
            note: "str | None" = None) -> InequalityReport:
    status, note = _verdict(outcome, norm, note)
    t, lhs, rhs, margin, _ = (Fraction(n, d) for n, d in outcome.ints)
    witness = {"t": t, "lhs": lhs, "rhs": rhs} if status == VIOLATED else None
    return InequalityReport(claim_id, params, t, lhs, rhs, margin, status,
                            witness, note)


def upper_envelope(curves: "list[TailCurve]") -> TailCurve:
    """Pointwise maximum of survival step curves, again a step curve.

    All inputs share a norm.  The envelope jumps only where some input
    jumps, so its criticals are the union of the inputs' criticals.
    """
    if not curves:
        raise ValueError("need at least one curve")
    unit, dens, xs, columns = _walk([(c, 1, STRICT) for c in curves],
                                    grid=False)
    den = math.lcm(*dens)
    ups = [den // d for d in dens]  # the largest tail at each critical
    nums = [max(n * u for n, u in zip(ns, ups)) for ns in zip(*columns)]
    return TailCurve._of(curves[0].norm, unit, xs, den, nums)


# --- the claim table -------------------------------------------------------

# sides of a sweep claim
SUM = "sum"            # S_j on the left, S_k on the right
MAX = "max"            # running maximum max_{i<=k} ||S_i||
WEIGHTED = "weighted"  # sum_i alpha_i X_i with k = len(alphas)
ENVELOPE = "envelope"  # max_{i<=k} Pr(||S_i|| > .), pointwise

EXTERNAL = "external claim [L]"


def _unit(c, j, k):
    return c


def _times_j_over_k(c, j, k):
    return c * Fraction(j, k)


@dataclass(frozen=True)
class ClaimSpec:
    """Pr(||lhs|| > t) <= factor(c1, j, k) * Pr(||rhs|| > t/scale(c2, j, k)).

    constants: the default (c1, c2).  takes: the parameters a one-off
    check reads (j, k, alphas, t); defaults: values for those not given;
    order: the rule j and k obey.  fixed constants belong to the statement.
    shapes: other claims' shapes checked at this claim's own constant
    pairs.  evaluate(curves, given): a checker that replaces the sweep.
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
    ClaimSpec("lemma2", takes=("t",), evaluate=lambda c, given:
              check_lemma2(c.dist, given["y"], given["t"], c.cap)
              if "y" in given else
              _lemma2(c.walk, c._law(1), c._law(1), c._law(2), given["t"])),
    ClaimSpec("corollary3", takes=("k", "t"), order=K_ONLY,
              defaults={"k": 3}, evaluate=lambda c, given: _corollary3(
                  c.walk, map(c._law, range(1, given["k"] + 1)), given["t"])),
)}

ALIASES = {"levy": "levy_ottaviani", "latala": "latala_sharp"}


def variants(spec: ClaimSpec, c1=None, c2=None) -> list:
    """(shape, c1, c2) for each constant pair the claim checks, in report
    order; c1 and c2 replace the default constants when given.  The one
    constants rule: a claim whose constants are fixed or absent refuses
    them, and constants must be positive."""
    if (spec.fixed or spec.constants is None) and (c1, c2) != (None, None):
        what = "has fixed constants" if spec.fixed else "takes no constants"
        raise ValueError(f"{spec.claim_id} {what}, so no "
                         f"{'c1' if c1 is not None else 'c2'}")
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
    _require(all(c > 0 for c in constants), message)


def _indices(shape: ClaimSpec, given: dict) -> dict:
    """Judge a shape's indices: those a check of it reads and echoes."""
    if shape.lhs == WEIGHTED:
        coeffs = [rat(a) for a in given.get("alphas") or ()]
        _require(bool(coeffs), "alphas must be nonempty")
        _require(given.get("k", len(coeffs)) == len(coeffs),
                 f"{shape.claim_id} takes k = {len(coeffs)}, the number "
                 f"of weights, got k={given.get('k')}")
        for a in coeffs:
            _require(abs(a) <= 1, f"weight {a} out of range, "
                                  "need |alpha_i| <= 1")
        return {"k": len(coeffs), "alphas": coeffs}
    if shape.order is None:
        return {}
    require_indices(shape.order, given.get("j"), given["k"])
    return {n: given[n] for n in (("k",) if shape.order == K_ONLY
                                  else ("j", "k"))}


class Curves:
    """Tail curves of one law under one norm, each built once, from one
    pass (_Walk.steps) as far as the largest S_i in `reads` (_reads), split
    by running max iff reads hold MAX.  The lattice laws of the S_i in reads
    are merged from the buckets and kept (on slots as slot laws, which a
    curve reads without decoding them into atoms), every other law is
    dropped once passed, and the running max's curve is built at every
    step.  A read outside reads raises ValueError; a running max from the
    step where the pass collapsed at the cap on raises SupportCapExceeded."""

    def __init__(self, dist: DiscreteDist, norm: Norm, reads,
                 cap: int = DEFAULT_SUPPORT_CAP):
        self.dist = dist
        self._start(norm, reads, lambda n: _Walk([dist], n, cap))

    @classmethod
    def lattice(cls, scale: int, dim: int, atoms, den: int, norm: Norm, reads,
                cap: int = DEFAULT_SUPPORT_CAP) -> "Curves":
        """The curves of a law given as lattice ints, one term as
        _Walk.lattice takes it: (int coordinates, int mass numerator) pairs,
        coordinates over scale and masses over den."""
        curves = object.__new__(cls)
        curves._start(norm, reads, lambda n: _Walk.lattice(
            scale, dim, [(atoms, den)], n, cap))
        return curves

    @cached_property
    def dist(self) -> DiscreteDist:
        """The law, for curves built on its lattice ints."""
        return self.walk.dist(self.walk.terms[0])

    def _start(self, norm: Norm, reads, walk) -> None:
        """Set up the pass of walk(n), the walk as far as the largest S_i
        in reads."""
        self.norm = norm
        self.reads = frozenset(reads)
        self.walk = walk(max(self.reads - {MAX} | {1}))
        self.cap = self.walk.cap
        self._steps = self.walk.steps(norm if MAX in self.reads else None,
                                      self.reads)
        self._laws = {}               # lattice law of each S_i in reads
        self._max_curves = []         # running max curve or None, per step
        self._curves = {}
        self._envelopes = []          # max_{i<=k} Pr(||S_i|| > .), per k
        self._cap_error = None        # (size, cap) where the pass stopped

    def _step(self, i: int) -> "TailCurve | None":
        """Take the pass to step i; the running max's curve there.  Past the
        step where the pass stopped at the cap, every read raises its
        SupportCapExceeded again."""
        for n in range(len(self._max_curves) + 1, i + 1):
            if self._cap_error is not None:
                raise SupportCapExceeded(*self._cap_error)
            try:
                buckets = next(self._steps)
            except SupportCapExceeded as exc:
                # the sizes, not exc, whose traceback would hold self
                self._cap_error = exc.size, exc.cap
                raise
            if n in self.reads:
                self._laws[n] = _merged(buckets)
            curve = None if None in buckets else _gauge_curve(
                self.norm, *self.walk.running_max(self.norm, buckets))
            self._max_curves.append(curve)
        return self._max_curves[i - 1]

    def _law(self, i: int):
        """The lattice law (atoms, den) of S_i on the walk's lattice."""
        if i not in self.reads:
            raise ValueError(f"S_{i} is not among the sums these curves "
                             f"read, {sorted(self.reads - {MAX})}")
        self._step(i)
        return self._laws[i]

    def curve(self, i: int) -> TailCurve:
        if i not in self._curves:
            self._curves[i] = self.walk.curve(self.norm, self._law(i))
        return self._curves[i]

    def envelope(self, k: int) -> TailCurve:
        """max_{i<=k} Pr(||S_i|| > .), the envelope to k - 1 raised by S_k's
        curve."""
        while len(self._envelopes) < k:
            curve = self.curve(len(self._envelopes) + 1)
            self._envelopes.append(upper_envelope(
                [self._envelopes[-1], curve]) if self._envelopes else curve)
        return self._envelopes[k - 1]

    def sides(self, shape: ClaimSpec, idx: dict):
        """(lhs, rhs) curves of a sweep claim at validated indices."""
        k = idx["k"]
        if shape.lhs == SUM:
            lhs = self.curve(idx["j"])
        elif shape.lhs == MAX:
            if MAX not in self.reads or k > self.walk.n:
                raise ValueError(f"the running max to k={k} is not read")
            lhs = self._step(k)
            if lhs is None:
                raise SupportCapExceeded(self.cap + 1, self.cap)
        else:
            lhs = _weighted_walk(self.dist, idx["alphas"],
                                 self.cap).curve(self.norm)
        return lhs, self.curve(k) if shape.rhs == SUM else self.envelope(k)


def shape_checks(spec: ClaimSpec, shape: ClaimSpec, curves: Curves,
                 given: dict, c1, c2, modes):
    """The checks of spec in shape's form at one index choice and one
    constant pair, one per (lhs mode, rhs mode) pair in modes, or one for
    an evaluated claim: (params, status, note, values, report), where
    values are the worst threshold, lhs, rhs and margin as (numerator,
    denominator) pairs or None, and report() builds the InequalityReport."""
    if shape.evaluate is not None:
        _indices(shape, given)
        rep = shape.evaluate(curves, given)
        yield (rep.params, rep.status, rep.note,
               tuple(None if v is None else (v.numerator, v.denominator)
                     for v in (rep.worst_t, rep.lhs, rep.rhs, rep.margin)),
               lambda: rep)
        return
    idx = _indices(shape, given)
    norm = curves.norm
    params = {} if shape is spec else {"shape": shape.claim_id}
    params.update(idx, c1=c1, c2=c2, norm=norm)
    lhs, rhs = curves.sides(shape, idx)
    j, k = idx.get("j"), idx["k"]
    outs = _sweeps(lhs, rhs, shape.factor(c1, j, k), shape.scale(c2, j, k),
                   modes)
    for mode_pair, out in zip(modes, outs):
        status, note = _verdict(out, norm, spec.note)
        echo = {**params, "modes": mode_pair}
        yield (echo, status, note, out.ints[:4],
               partial(_report, spec.claim_id, echo, out, norm, spec.note))


def _reads(shape: ClaimSpec, given: dict) -> set:
    """The i of every S_i a check of this claim or shape reads at these
    parameters, as _indices judges them, and MAX when it reads a running
    max: S_j and S_k for its SUM sides, S_1..S_k for an envelope and for
    corollary3, S_1 and S_2 for lemma2 with Y = X."""
    if shape.shapes:
        return set().union(*(_reads(CLAIMS[name], given)
                             for name, _ in shape.shapes))
    if shape.claim_id == "lemma2":
        return {1} if "y" in given else {1, 2}
    idx = _indices(shape, given)
    reads = {MAX} if shape.lhs == MAX else set()
    if shape.rhs == ENVELOPE or shape.claim_id == "corollary3":
        return reads | set(range(1, idx["k"] + 1))
    return reads | {i for side, i in ((shape.lhs, idx.get("j")),
                                      (shape.rhs, idx["k"])) if side == SUM}


def claim_reports(spec: ClaimSpec, X: DiscreteDist, norm: Norm, given: dict,
                  c1=None, c2=None, lhs_mode: str = STRICT,
                  rhs_mode: "str | None" = None,
                  cap: int = DEFAULT_SUPPORT_CAP) -> "list[InequalityReport]":
    """Every report of one claim on one law at the given parameters, one
    per shape and constant pair, all on one walk as far as _reads says."""
    curves = Curves(X, norm, _reads(spec, given), cap)
    modes = ((lhs_mode, lhs_mode if rhs_mode is None else rhs_mode),)
    return [check[-1]() for shape, a, b in variants(spec, c1, c2)
            for check in shape_checks(spec, shape, curves, given, a, b,
                                      modes)]


def check_theorem1(X: DiscreteDist, j: int, k: int, c1=None, c2=None,
                   norm: Norm = Norm.ABS1D, lhs_mode: str = STRICT,
                   rhs_mode: "str | None" = None,
                   cap: int = DEFAULT_SUPPORT_CAP) -> InequalityReport:
    """Pr(||S_j|| > t) <= c1 * Pr(||S_k|| > t/c2) for all t > 0."""
    return claim_reports(CLAIMS["theorem1"], X, norm, {"j": j, "k": k}, c1,
                         c2, lhs_mode, rhs_mode, cap)[0]


def check_latala_sharp(X: DiscreteDist, norm: Norm = Norm.ABS1D,
                       lhs_mode: str = STRICT, rhs_mode: "str | None" = None,
                       cap: int = DEFAULT_SUPPORT_CAP) -> InequalityReport:
    """Pr(||X1|| > t) <= 2 * Pr(||X1 + X2|| > 2t/3) for all t > 0.

    Treated as an external claim under test, not assumed.
    """
    return claim_reports(CLAIMS["latala_sharp"], X, norm, {"j": 1, "k": 2},
                         None, None, lhs_mode, rhs_mode, cap)[0]


def check_levy_ottaviani(X: DiscreteDist, k: int, c1=None, c2=None,
                         norm: Norm = Norm.ABS1D, lhs_mode: str = STRICT,
                         rhs_mode: "str | None" = None,
                         cap: int = DEFAULT_SUPPORT_CAP) -> InequalityReport:
    """Pr(max_j ||S_j|| > t) <= c1 * max_j Pr(||S_j|| > t/c2), all t > 0."""
    return claim_reports(CLAIMS["levy_ottaviani"], X, norm, {"k": k}, c1, c2,
                         lhs_mode, rhs_mode, cap)[0]


def check_corollary4(X: DiscreteDist, k: int, c1=None, c2=None,
                     norm: Norm = Norm.ABS1D, lhs_mode: str = STRICT,
                     rhs_mode: "str | None" = None,
                     cap: int = DEFAULT_SUPPORT_CAP) -> InequalityReport:
    """Pr(max_j ||S_j|| > t) <= c1 * Pr(||S_k|| > t/c2) for all t > 0."""
    return claim_reports(CLAIMS["corollary4"], X, norm, {"k": k}, c1, c2,
                         lhs_mode, rhs_mode, cap)[0]


def check_corollary5(X: DiscreteDist, alphas, c1=None, c2=None,
                     norm: Norm = Norm.ABS1D, lhs_mode: str = STRICT,
                     rhs_mode: "str | None" = None,
                     cap: int = DEFAULT_SUPPORT_CAP) -> InequalityReport:
    """Pr(||sum_i alpha_i X_i|| > t) <= c1 * Pr(||S_k|| > t/c2), |alpha_i| <= 1."""
    return claim_reports(CLAIMS["corollary5"], X, norm,
                         {"alphas": list(alphas)}, c1, c2, lhs_mode,
                         rhs_mode, cap)[0]


def check_corollary6(X: DiscreteDist, j: int, k: int, c1=None, c2=None,
                     norm: Norm = Norm.ABS1D, lhs_mode: str = STRICT,
                     rhs_mode: "str | None" = None,
                     cap: int = DEFAULT_SUPPORT_CAP) -> InequalityReport:
    """Pr(||S_j|| > t) <= (c1*j/k) * Pr(||S_k|| > k*t/(c2*j)) for 1 <= k <= j."""
    return claim_reports(CLAIMS["corollary6"], X, norm, {"j": j, "k": k}, c1,
                         c2, lhs_mode, rhs_mode, cap)[0]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)

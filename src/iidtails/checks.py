"""Exact verification of tail comparison inequalities.

Every sweep claim here decides a statement of the form

    Pr(||L|| > t) <= factor(c1, j, k) * Pr(||R|| > t / scale(c2, j, k))

for all t > 0 (with > replaced by >= in weak mode on either side), with L
and R taken from S_j, the running maximum max_{i<=k} S_i, the weighted sum
sum_i alpha_i X_i and the envelope max_{i<=k} Pr(||S_i|| > .).  Both sides
are step functions, so evaluating them at a finite set of critical
thresholds is exhaustive; no sampling or rounding is involved anywhere.

CLAIMS is the one table of claims.  The corpus, the CLI, mc_check and the
extremal search read it, and the check_* functions are thin wrappers over
claim_reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .concentration import check_corollary3, check_lemma2
from .dists import (
    DEFAULT_SUPPORT_CAP,
    DiscreteDist,
    Norm,
    STRICT,
    TailCurve,
    _check_mode,
    iid_sum,
    path_max_curve,
    rat,
    tail_curve,
    weighted_iid_sum,
)
from .reports import HOLDS, InequalityReport, VIOLATED

ZERO = Fraction(0)
ONE = Fraction(1)


def threshold_candidates(jumps, mixed_modes: bool = False) -> "list[Fraction]":
    """Finite set of thresholds covering every constancy region.

    jumps: all gauge values (from both sides, already in a common space)
    where either step function can change.  Returns each positive jump, a
    point below the first, a point beyond the last, and, when the two sides
    use different modes, the midpoints of consecutive jumps (a left
    continuous and a right continuous step function realize a new value pair
    strictly between jumps).
    """
    pos = sorted({q for q in jumps if q > 0})
    if not pos:
        return [ONE]
    cands = [pos[0] / 2]
    cands.extend(pos)
    cands.append(pos[-1] * 2)
    if mixed_modes:
        cands.extend((a + b) / 2 for a, b in zip(pos, pos[1:]))
        cands.sort()
    return cands


def _candidates(lhs_curve: TailCurve, rhs_curve: TailCurve, scale: Fraction,
                mixed_modes: bool) -> "tuple[list[Fraction], Fraction]":
    """(gauge-space candidate thresholds, scale in gauge space) for
    comparing lhs(t) with rhs(t / scale)."""
    if lhs_curve.norm is not rhs_curve.norm:
        raise ValueError("curves use different norms")
    scale_g = scale ** lhs_curve.norm.scale_exponent
    jumps = set(lhs_curve.criticals)
    jumps.update(r * scale_g for r in rhs_curve.criticals)
    return threshold_candidates(jumps, mixed_modes), scale_g


@dataclass(frozen=True)
class SweepOutcome:
    """Worst case found while sweeping candidate thresholds."""

    status: str
    worst_q: Fraction          # gauge-space threshold at the worst margin
    lhs: Fraction              # lhs tail there
    rhs: Fraction              # factor * rhs tail there
    margin: Fraction           # rhs - lhs there (negative iff violated)
    witness_q: "Fraction | None"
    max_lhs: Fraction          # largest lhs seen (0 means the check was idle)


def sweep_curves(lhs_curve: TailCurve, rhs_curve: TailCurve, factor: Fraction,
                 scale: Fraction, lhs_mode: str = STRICT,
                 rhs_mode: "str | None" = None) -> SweepOutcome:
    """Exact sweep of lhs(t) <= factor * rhs(t/scale) over all t > 0.

    scale is in radius space; in gauge space (euclidean) it acts squared.
    """
    rhs_mode = lhs_mode if rhs_mode is None else rhs_mode
    _check_mode(lhs_mode)
    _check_mode(rhs_mode)
    qs, scale_g = _candidates(lhs_curve, rhs_curve, scale,
                              lhs_mode != rhs_mode)

    # Track the worst margin only where lhs > 0: a candidate with lhs = 0
    # can never violate, and past both supports every comparison degenerates
    # to 0 <= 0, which would mask the real worst case.
    worst = None  # (margin, q, lhs, rhs)
    idle = None   # fallback when lhs is identically zero
    witness_q = None
    max_lhs = ZERO
    for q in qs:
        lv = lhs_curve.at_gauge(q, lhs_mode)
        rv = factor * rhs_curve.at_gauge(q / scale_g, rhs_mode)
        margin = rv - lv
        if lv > max_lhs:
            max_lhs = lv
        if lv == 0:
            if idle is None:
                idle = (margin, q, lv, rv)
            continue
        if worst is None or margin < worst[0]:
            worst = (margin, q, lv, rv)
            if margin < 0 and witness_q is None:
                witness_q = q
    margin, q, lv, rv = worst if worst is not None else idle
    status = VIOLATED if margin < 0 else HOLDS
    return SweepOutcome(status, q, lv, rv, margin, witness_q, max_lhs)


def least_c1(lhs_curve: TailCurve, rhs_curve: TailCurve, factor: Fraction,
             scale: Fraction):
    """Least c1 with lhs(t) <= c1 * factor * rhs(t/scale) for all t > 0.

    Strict tails on both sides.  Returns (c1, gauge-space threshold where
    it is attained): a Fraction, 0 with threshold None when lhs is
    identically zero, or math.inf at the first threshold where lhs > 0 and
    rhs = 0.
    """
    qs, scale_g = _candidates(lhs_curve, rhs_curve, scale, False)
    best = ZERO
    best_q = None
    for q in qs:
        num = lhs_curve.at_gauge(q, STRICT)
        if num == 0:
            continue
        den = rhs_curve.at_gauge(q / scale_g, STRICT)
        if den == 0:
            return math.inf, q
        r = num / den
        if r > best:
            best, best_q = r, q
    return best / factor, best_q


def _report(claim_id: str, params: dict, outcome: SweepOutcome,
            norm: Norm, note: "str | None" = None) -> InequalityReport:
    witness = None
    if outcome.status == VIOLATED:
        witness = {
            "t": outcome.worst_q,
            "lhs": outcome.lhs,
            "rhs": outcome.rhs,
        }
    if outcome.max_lhs == 0:
        idle_note = "lhs identically zero"
        note = idle_note if note is None else f"{note}; {idle_note}"
    if norm.scale_exponent == 2:
        space_note = "thresholds are squared radii (euclidean gauge)"
        note = space_note if note is None else f"{note}; {space_note}"
    return InequalityReport(
        claim_id=claim_id,
        params=params,
        worst_t=outcome.worst_q,
        lhs=outcome.lhs,
        rhs=outcome.rhs,
        margin=outcome.margin,
        status=outcome.status,
        witness=witness,
        note=note,
    )


def upper_envelope(curves: "list[TailCurve]") -> TailCurve:
    """Pointwise maximum of survival step curves, again a step curve.

    All inputs share a norm.  The envelope jumps only where some input
    jumps, so its criticals are the union of the inputs' criticals.
    """
    if not curves:
        raise ValueError("need at least one curve")
    norm = curves[0].norm
    if any(c.norm is not norm for c in curves):
        raise ValueError("curves use different norms")
    crits = sorted({q for c in curves for q in c.criticals})
    values = tuple(
        max(c.at_gauge(q, STRICT) for c in curves) for q in crits
    )
    return TailCurve(norm, tuple(crits), values)


# --- the claim table -------------------------------------------------------

# sides of a sweep claim
SUM = "sum"            # S_j on the left, S_k on the right
MAX = "max"            # running maximum max_{i<=k} ||S_i||
WEIGHTED = "weighted"  # sum_i alpha_i X_i with k = len(alphas)
ENVELOPE = "envelope"  # max_{i<=k} Pr(||S_i|| > .), pointwise

# index rules; each also sets the corpus range (corpus._grid)
J_LE_K = "1 <= j <= k"
K_LE_J = "1 <= k <= j"
K_ONLY = "k >= 1"
FIRST_TWO = "(j, k) = (1, 2)"
_ADMITS = {
    J_LE_K: lambda j, k: 1 <= j <= k,
    K_LE_J: lambda j, k: 1 <= k <= j,
    K_ONLY: lambda j, k: k >= 1,
    FIRST_TWO: lambda j, k: (j, k) == (1, 2),
}

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
    pairs.  evaluate: a checker that replaces the sweep.  mc: mc_check
    supports the claim.
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
    mc: bool = False


CLAIMS = {spec.claim_id: spec for spec in (
    ClaimSpec("theorem1", SUM, SUM, (Fraction(3), Fraction(10)),
              ("j", "k"), J_LE_K, {"j": 1, "k": 2}, mc=True),
    ClaimSpec("latala_sharp", SUM, SUM, (Fraction(2), Fraction(3, 2)),
              (), FIRST_TWO, {"j": 1, "k": 2}, fixed=True, note=EXTERNAL,
              mc=True),
    ClaimSpec("latala_alt", takes=("j", "k"), defaults={"j": 1, "k": 2},
              fixed=True, note=EXTERNAL, shapes=(
                  ("theorem1", ((Fraction(4), Fraction(5)),
                                (Fraction(2), Fraction(7)))),
                  ("corollary4", ((Fraction(4), Fraction(6)),
                                  (Fraction(2), Fraction(8)))))),
    ClaimSpec("levy_ottaviani", MAX, ENVELOPE, (Fraction(3), Fraction(3)),
              ("k",), K_ONLY, {"k": 4}),
    ClaimSpec("corollary4", MAX, SUM, (Fraction(9), Fraction(30)),
              ("k",), K_ONLY, {"k": 4}, mc=True),
    ClaimSpec("corollary5", WEIGHTED, SUM, (Fraction(10), Fraction(90)),
              ("alphas",), mc=True),
    ClaimSpec("corollary6", SUM, SUM, (Fraction(6), Fraction(20)),
              ("j", "k"), K_LE_J, {"j": 2, "k": 1},
              factor=_times_j_over_k, scale=_times_j_over_k, mc=True),
    ClaimSpec("lemma2", takes=("t",), evaluate=lambda X, given, cap:
              check_lemma2(X, given.get("y", X), given["t"], cap)),
    ClaimSpec("corollary3", takes=("k", "t"), defaults={"k": 3},
              evaluate=lambda X, given, cap:
              check_corollary3(X, given["k"], given["t"], cap)),
)}

ALIASES = {"levy": "levy_ottaviani", "latala": "latala_sharp"}


def require_indices(order: str, j, k) -> None:
    if not _ADMITS[order](j, k):
        raise ValueError(f"need {order}, got j={j}, k={k}")


def variants(spec: ClaimSpec, c1=None, c2=None) -> list:
    """(shape, c1, c2) for each constant pair the claim checks, in report
    order; c1 and c2 replace the default constants when given."""
    if spec.shapes:
        return [(CLAIMS[shape], a, b)
                for shape, pairs in spec.shapes for a, b in pairs]
    if spec.constants is None:
        return [(spec, None, None)]
    c1 = spec.constants[0] if c1 is None else rat(c1)
    c2 = spec.constants[1] if c2 is None else rat(c2)
    _require(c1 > 0 and c2 > 0, f"constants for {spec.claim_id} must be "
                                "positive")
    return [(spec, c1, c2)]


def _indices(shape: ClaimSpec, given: dict) -> dict:
    """The validated indices a check of this shape reads and echoes."""
    if shape.lhs == WEIGHTED:
        coeffs = [rat(a) for a in given["alphas"]]
        _require(bool(coeffs), "alphas must be nonempty")
        for a in coeffs:
            _require(abs(a) <= 1, f"weight {a} out of range, "
                                  "need |alpha_i| <= 1")
        return {"k": len(coeffs), "alphas": coeffs}
    require_indices(shape.order, given.get("j"), given["k"])
    return {n: given[n] for n in (("k",) if shape.order == K_ONLY
                                  else ("j", "k"))}


class Curves:
    """Tail curves of one law under one norm, each built once.  S_i comes
    from iid_sum; the corpus walks the S_i instead (corpus._InstanceCtx)."""

    def __init__(self, dist: DiscreteDist, norm: Norm,
                 cap: int = DEFAULT_SUPPORT_CAP):
        self.dist = dist
        self.norm = norm
        self.cap = cap
        self._curves = {}
        self._path_curves = {}

    def sum_law(self, i: int) -> DiscreteDist:
        return iid_sum(self.dist, i, self.cap)

    def curve(self, i: int) -> TailCurve:
        if i not in self._curves:
            self._curves[i] = tail_curve(self.sum_law(i), self.norm)
        return self._curves[i]

    def sides(self, shape: ClaimSpec, idx: dict):
        """(lhs, rhs) curves of a sweep claim at validated indices."""
        k = idx["k"]
        if shape.lhs == SUM:
            lhs = self.curve(idx["j"])
        elif shape.lhs == MAX:
            if k not in self._path_curves:
                self._path_curves[k] = path_max_curve(self.dist, k,
                                                      self.norm, self.cap)
            lhs = self._path_curves[k]
        else:
            lhs = tail_curve(weighted_iid_sum(self.dist, idx["alphas"],
                                              self.cap), self.norm)
        if shape.rhs == SUM:
            return lhs, self.curve(k)
        return lhs, upper_envelope([self.curve(i) for i in range(1, k + 1)])


def shape_reports(spec: ClaimSpec, shape: ClaimSpec, curves: Curves,
                  given: dict, c1, c2, modes):
    """Reports of spec checked in shape's form at one index choice and one
    constant pair, one per (lhs mode, rhs mode) pair."""
    if shape.evaluate is not None:
        yield shape.evaluate(curves.dist, given, curves.cap)
        return
    idx = _indices(shape, given)
    lhs, rhs = curves.sides(shape, idx)
    j, k = idx.get("j"), idx["k"]
    factor, scale = shape.factor(c1, j, k), shape.scale(c2, j, k)
    base = {} if shape is spec else {"shape": shape.claim_id}
    base.update(idx, c1=c1, c2=c2, norm=curves.norm)
    for lhs_mode, rhs_mode in modes:
        out = sweep_curves(lhs, rhs, factor, scale, lhs_mode, rhs_mode)
        yield _report(spec.claim_id, {**base, "modes": (lhs_mode, rhs_mode)},
                      out, curves.norm, spec.note)


def claim_reports(spec: ClaimSpec, curves: Curves, given: dict, c1=None,
                  c2=None, lhs_mode: str = STRICT,
                  rhs_mode: "str | None" = None) -> "list[InequalityReport]":
    """Every report of one claim on one law at the given parameters, one
    per shape and constant pair."""
    modes = ((lhs_mode, lhs_mode if rhs_mode is None else rhs_mode),)
    return [rep for shape, a, b in variants(spec, c1, c2)
            for rep in shape_reports(spec, shape, curves, given, a, b, modes)]


def _check(claim: str, X: DiscreteDist, given: dict, c1, c2, norm: Norm,
           lhs_mode: str, rhs_mode, cap: int) -> InequalityReport:
    return claim_reports(CLAIMS[claim], Curves(X, norm, cap), given, c1, c2,
                         lhs_mode, rhs_mode)[0]


def check_theorem1(X: DiscreteDist, j: int, k: int, c1=None, c2=None,
                   norm: Norm = Norm.ABS1D, lhs_mode: str = STRICT,
                   rhs_mode: "str | None" = None,
                   cap: int = DEFAULT_SUPPORT_CAP) -> InequalityReport:
    """Pr(||S_j|| > t) <= c1 * Pr(||S_k|| > t/c2) for all t > 0."""
    return _check("theorem1", X, {"j": j, "k": k}, c1, c2, norm, lhs_mode,
                  rhs_mode, cap)


def check_latala_sharp(X: DiscreteDist, norm: Norm = Norm.ABS1D,
                       lhs_mode: str = STRICT, rhs_mode: "str | None" = None,
                       cap: int = DEFAULT_SUPPORT_CAP) -> InequalityReport:
    """Pr(||X1|| > t) <= 2 * Pr(||X1 + X2|| > 2t/3) for all t > 0.

    Treated as an external claim under test, not assumed.
    """
    return _check("latala_sharp", X, {"j": 1, "k": 2}, None, None, norm,
                  lhs_mode, rhs_mode, cap)


def check_levy_ottaviani(X: DiscreteDist, k: int, c1=None, c2=None,
                         norm: Norm = Norm.ABS1D, lhs_mode: str = STRICT,
                         rhs_mode: "str | None" = None,
                         cap: int = DEFAULT_SUPPORT_CAP) -> InequalityReport:
    """Pr(max_j ||S_j|| > t) <= c1 * max_j Pr(||S_j|| > t/c2), all t > 0."""
    return _check("levy_ottaviani", X, {"k": k}, c1, c2, norm, lhs_mode,
                  rhs_mode, cap)


def check_corollary4(X: DiscreteDist, k: int, c1=None, c2=None,
                     norm: Norm = Norm.ABS1D, lhs_mode: str = STRICT,
                     rhs_mode: "str | None" = None,
                     cap: int = DEFAULT_SUPPORT_CAP) -> InequalityReport:
    """Pr(max_j ||S_j|| > t) <= c1 * Pr(||S_k|| > t/c2) for all t > 0."""
    return _check("corollary4", X, {"k": k}, c1, c2, norm, lhs_mode,
                  rhs_mode, cap)


def check_corollary5(X: DiscreteDist, alphas, c1=None, c2=None,
                     norm: Norm = Norm.ABS1D, lhs_mode: str = STRICT,
                     rhs_mode: "str | None" = None,
                     cap: int = DEFAULT_SUPPORT_CAP) -> InequalityReport:
    """Pr(||sum_i alpha_i X_i|| > t) <= c1 * Pr(||S_k|| > t/c2), |alpha_i| <= 1."""
    return _check("corollary5", X, {"alphas": alphas}, c1, c2, norm,
                  lhs_mode, rhs_mode, cap)


def check_corollary6(X: DiscreteDist, j: int, k: int, c1=None, c2=None,
                     norm: Norm = Norm.ABS1D, lhs_mode: str = STRICT,
                     rhs_mode: "str | None" = None,
                     cap: int = DEFAULT_SUPPORT_CAP) -> InequalityReport:
    """Pr(||S_j|| > t) <= (c1*j/k) * Pr(||S_k|| > k*t/(c2*j)) for 1 <= k <= j."""
    return _check("corollary6", X, {"j": j, "k": k}, c1, c2, norm, lhs_mode,
                  rhs_mode, cap)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)

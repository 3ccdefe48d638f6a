"""Derivative-free search for distributions maximizing the tail ratio.

The objective sup_t Pr(||S_j|| > t) / Pr(||S_k|| > t/c2) is the least c1
valid for a given instance, so every value found here is a rigorous lower
bound on the constants any universal inequality must carry.

The landscape is piecewise constant in atom locations (tails only change
when support orderings change), so plain simplex descent sees plateaus
everywhere; restarts, lattice-aligned symmetric seeds, and jitter kicks do
the actual exploring.  Parameters are snapped to the rational lattice before
every evaluation and scored with exact arithmetic, so the float value handed
to the optimizer is just a rendering of an exact rational (or an infinity
sentinel) and reported numbers are exact by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .checks import CLAIMS, Curves, _reads, least_c1, require_indices
from .dists import DEFAULT_SUPPORT_CAP, ONE, DiscreteDist, Norm, rat
from .reports import Report, jsonify

INF = math.inf
_BIG = 1e18  # stand-in for the infinity sentinel inside the optimizer

# (scale threshold, claimed bound): the theorem1-shape constant pairs of
# theorem1 and latala_alt.  Any exact ratio above the bound at c2 >=
# threshold contradicts a proven or published statement and means a bug in
# this code, not a discovery
SOUNDNESS_GUARDS = tuple(sorted(
    (c2, c1) for c1, c2 in (CLAIMS["theorem1"].constants,
                            *dict(CLAIMS["latala_alt"].shapes)["theorem1"])))


class SoundnessViolation(RuntimeError):
    """The exact re-score exceeded a bound that is known to hold."""


def ratio_objective(X: DiscreteDist, j: int, k: int, c2,
                    norm: Norm = Norm.ABS1D,
                    cap: int = DEFAULT_SUPPORT_CAP):
    """sup_t Pr(||S_j|| > t) / Pr(||S_k|| > t/c2), exact.

    Returns a Fraction, or math.inf when some threshold has a positive
    numerator over a zero denominator.  All-zero numerators give 0.
    """
    value, _ = ratio_objective_witness(X, j, k, c2, norm, cap)
    return value


def ratio_objective_witness(X: DiscreteDist, j: int, k: int, c2,
                            norm: Norm = Norm.ABS1D,
                            cap: int = DEFAULT_SUPPORT_CAP):
    """(ratio, witness threshold in gauge space) for ratio_objective."""
    return _least_c1("theorem1", X, j, k, c2, norm, cap)


def _least_c1(claim: str, X: DiscreteDist, j: int, k: int, c2,
              norm: Norm = Norm.ABS1D, cap: int = DEFAULT_SUPPORT_CAP):
    """(least c1 for which the claim holds on X at j, k, c2, witness
    threshold in gauge space); see checks.least_c1."""
    spec = CLAIMS[claim]
    c2 = rat(c2)
    require_indices(spec.order, j, k)
    if c2 <= 0:
        raise ValueError(f"c2 must be positive, got {c2}")
    idx = {"j": j, "k": k}
    lhs, rhs = Curves(X, norm, _reads(spec, idx), cap).sides(spec, idx)
    return least_c1(lhs, rhs, spec.factor(ONE, j, k), spec.scale(c2, j, k))


@dataclass(frozen=True)
class SearchSpace:
    n_atoms: int
    j: int
    k: int
    c2: Fraction
    value_lo: Fraction = Fraction(-4)
    value_hi: Fraction = Fraction(4)
    norm: Norm = Norm.ABS1D
    lattice_denominator: int = 16
    prob_denominator: int = 64

    def __post_init__(self):
        if not 2 <= self.n_atoms <= 6:
            raise ValueError("n_atoms must be in 2..6")
        if not 1 <= self.j <= self.k:
            raise ValueError(f"need 1 <= j <= k, got {self.j}, {self.k}")
        if self.value_lo >= self.value_hi:
            raise ValueError("empty value box")
        if rat(self.c2) <= 0:
            raise ValueError("c2 must be positive")
        for name in ("lattice_denominator", "prob_denominator"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got "
                                 f"{getattr(self, name)}")


@dataclass(frozen=True)
class SearchResult(Report):
    best_dist: DiscreteDist
    best_t: "Fraction | None"      # gauge-space witness threshold
    achieved_ratio: "Fraction | float"
    evaluations: int
    seed: int
    trace: "tuple[tuple[int, float], ...]"   # (restart, best float ratio)


def snap_to_space(theta, space: SearchSpace) -> DiscreteDist:
    """Decode a real parameter vector into a lattice distribution.

    First n_atoms entries are locations (clipped to the value box, snapped
    to the lattice); the remaining n_atoms - 1 are free simplex coordinates
    whose squares, together with an implicit 1, give the probability
    weights.  Weights are snapped to positive integers so probabilities stay
    on the open simplex.  Coinciding snapped locations merge.
    """
    n = space.n_atoms
    lo, hi = float(space.value_lo), float(space.value_hi)
    ld = space.lattice_denominator
    pd = space.prob_denominator
    locs = []
    for v in theta[:n]:
        x = min(max(float(v), lo), hi)
        num = round(x * ld)
        frac = Fraction(num, ld)
        if frac < space.value_lo:
            frac = space.value_lo
        elif frac > space.value_hi:
            frac = space.value_hi
        locs.append(frac)
    raw = [float(f) * float(f) for f in theta[n:]] + [1.0]
    weights = [max(1, round(w * pd)) for w in raw]
    total = sum(weights)
    atoms: "dict[tuple[Fraction, ...], Fraction]" = {}
    for x, w in zip(locs, weights):
        pt = (x,)
        atoms[pt] = atoms.get(pt, Fraction(0)) + Fraction(w, total)
    return DiscreteDist(atoms, dim=1)


def _initial_points(space: SearchSpace, restarts: int, rng):
    n = space.n_atoms
    lo, hi = float(space.value_lo), float(space.value_hi)
    width = hi - lo
    pts = []
    # lattice-aligned symmetric seed: +-a pairs around the box center with
    # equal weights (the +-1 coin generalized), then an equispaced comb
    sym = np.zeros(2 * n - 1)
    mid = (lo + hi) / 2
    for i in range(n):
        offset = width / 4 * (1 if i % 2 == 0 else -1) * (1 + i // 2)
        sym[i] = mid + offset / max(1, n // 2)
    sym[n:] = 1.0
    pts.append(sym)
    comb = np.zeros(2 * n - 1)
    comb[:n] = np.linspace(lo + width / 8, hi - width / 8, n)
    comb[n:] = 1.0
    pts.append(comb)
    while len(pts) < restarts:
        theta = np.concatenate([
            rng.uniform(lo, hi, size=n),
            rng.uniform(0.25, 2.0, size=n - 1),
        ])
        pts.append(theta)
    return pts[:restarts]


def search(space: SearchSpace, budget: int = 10_000, restarts: int = 8,
           seed: int = 0, cap: int = DEFAULT_SUPPORT_CAP) -> SearchResult:
    """Nelder-Mead restarts with jitter kicks over the exact objective.

    Deterministic given (space, budget, restarts, seed).  Raises
    SoundnessViolation if the final exact ratio contradicts a known bound
    for the requested c2 (that would be a bug, not a result).
    """
    from scipy.optimize import minimize  # scipy loads only for a search

    if budget < 1:
        raise ValueError("budget must be positive")
    restarts = max(1, restarts)
    rng = np.random.Generator(np.random.Philox(key=seed))
    evaluations = 0
    best = (Fraction(0), None, None)  # (exact ratio, witness q, dist)
    trace = []

    def objective(theta) -> float:
        nonlocal evaluations, best
        if evaluations >= budget:
            return _BIG  # exhausted: poison further moves
        evaluations += 1
        dist = snap_to_space(theta, space)
        value, q = ratio_objective_witness(dist, space.j, space.k, space.c2,
                                           space.norm, cap)
        if value == INF:
            if not isinstance(best[0], float):
                best = (INF, q, dist)
            return -_BIG
        if isinstance(best[0], Fraction) and value > best[0]:
            best = (value, q, dist)
        return -float(value)

    for restart, x0 in enumerate(_initial_points(space, restarts, rng)):
        if evaluations >= budget:
            break
        remaining = budget - evaluations
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"maxfev": max(1, remaining // (restarts - restart)),
                                "xatol": 1e-3, "fatol": 1e-9})
        kicked = res.x
        # jitter kicks: the landscape is flat almost everywhere, so nudge
        # the incumbent across lattice cells a few times per restart
        for _ in range(3):
            if evaluations >= budget:
                break
            kick = kicked + rng.normal(0.0, 0.5, size=kicked.shape)
            res2 = minimize(objective, kick, method="Nelder-Mead",
                            options={"maxfev": max(1, (budget - evaluations) // 4),
                                     "xatol": 1e-3, "fatol": 1e-9})
            if res2.fun < res.fun:
                res = res2
                kicked = res2.x
        current = best[0]
        trace.append((restart, float(current) if current != INF else INF))

    ratio, best_q, best_dist = best
    if best_dist is None:
        best_dist = snap_to_space(_initial_points(space, 1, rng)[0], space)
        ratio, best_q = ratio_objective_witness(best_dist, space.j, space.k,
                                                space.c2, space.norm, cap)
    _guard(ratio, rat(space.c2))
    return SearchResult(best_dist, best_q, ratio, evaluations, seed,
                        tuple(trace))


def _guard(ratio, c2: Fraction) -> None:
    if isinstance(ratio, float) and math.isinf(ratio):
        applicable = [b for s, b in SOUNDNESS_GUARDS if c2 >= s]
        if applicable:
            raise SoundnessViolation(
                f"infinite ratio at c2={c2} contradicts known bounds")
        return
    for scale, bound in SOUNDNESS_GUARDS:
        if c2 >= scale and ratio > bound:
            raise SoundnessViolation(
                f"exact ratio {ratio} exceeds known bound {bound} at c2={c2}")


# --- canned necessity families ------------------------------------------

def probe_necessity(family: str, **params) -> dict:
    """Sweep one of the canned families and report induced bounds.

    rare_bernoulli: X = {1: p, 0: 1-p}; sweeping p down shows the ratio at
        fixed (j, k, c2) blowing up like 1/p whenever c2 < 1, so no finite
        c1 works there.
    constant: X = delta_1 against the j >= k claim; sweeping c2 locates the
        least scale with a finite ratio.
    pm_one: the +-1 coin; at c2 = 1, (j,k) = (1,2) the exact ratio is 2.
    """
    if family == "rare_bernoulli":
        j = params.get("j", 1)
        k = params.get("k", 2)
        c2 = rat(params.get("c2", Fraction(1, 2)))
        ps = [rat(p) for p in params.get(
            "p_values",
            (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000),
             Fraction(1, 10000)))]
        if any(not 0 < p < 1 for p in ps):
            raise ValueError("need 0 < p < 1")
        rows = []
        finite_max = Fraction(0)
        saw_inf = False
        for p in ps:
            X = DiscreteDist({0: 1 - p, 1: p})
            r = ratio_objective(X, j, k, c2)
            rows.append({"p": p, "ratio": r})
            if r == INF:
                saw_inf = True
            else:
                finite_max = max(finite_max, r)
        return jsonify({
            "family": family, "claim": "theorem1",
            "fixed": {"j": j, "k": k, "c2": c2},
            "rows": rows,
            "induced_c1_lower_bound": INF if saw_inf else finite_max,
        })
    if family == "constant":
        j = params.get("j", 4)
        k = params.get("k", 2)
        require_indices(CLAIMS["corollary6"].order, j, k)
        grid = [rat(c) for c in params.get(
            "c2_values",
            (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1),
             Fraction(3, 2), Fraction(2)))]
        X = DiscreteDist({1: 1})
        rows = []
        threshold = None
        for c2 in sorted(grid):
            r, _ = _least_c1("corollary6", X, j, k, c2)
            rows.append({"c2": c2, "ratio": r})
            if r != INF and threshold is None:
                threshold = c2
        return jsonify({
            "family": family, "claim": "corollary6",
            "fixed": {"j": j, "k": k},
            "rows": rows,
            "induced_c2_lower_bound": threshold,
        })
    if family == "pm_one":
        j = params.get("j", 1)
        k = params.get("k", 2)
        c2 = rat(params.get("c2", Fraction(1)))
        X = DiscreteDist({-1: Fraction(1, 2), 1: Fraction(1, 2)})
        r = ratio_objective(X, j, k, c2)
        return jsonify({
            "family": family, "claim": "theorem1",
            "fixed": {"j": j, "k": k, "c2": c2},
            "rows": [{"ratio": r}],
            "induced_c1_lower_bound": r,
        })
    raise ValueError(f"unknown family {family!r}")

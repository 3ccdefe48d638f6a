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

The search scores on the lattice ints: a parameter vector snaps to int
location numerators and gcd-reduced int weights (_snap), which go straight
into the one exact kernel (dists._Walk, then least_c1) with no Fraction
or DiscreteDist in between.  Snapping makes plateaus the optimizer keeps
revisiting, so each distinct snapped law is scored once per search();
`evaluations` counts optimizer queries, repeats included.

The descent is _nelder_mead, a port of scipy 1.17's non-adaptive,
unbounded Nelder-Mead (Nelder & Mead, 1965) to Python floats whose
iterates are bit-identical to scipy's.  It orders the simplex by
numpy.argsort, whose order among tied values depends on the numpy build
and the CPU (its SIMD sorts are not stable); the objective is flat almost
everywhere, so ties are common and a search reproduces for a given numpy
build and CPU.

numpy (the Philox starts and kicks, and the simplex order) is imported by
search() when it runs, and scipy never is; the exact objectives and
probe_necessity load neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from .checks import (CLAIMS, _indices, _sides, least_c1, plan_entry,
                     require_positive)
from .dists import (DEFAULT_SUPPORT_CAP, ONE, STRICT, DiscreteDist, Norm,
                    _encode, _int, _Walk, rat)
from .montecarlo import _float
from .reports import Report, jsonify

_BIG = 1e18  # the optimizer sees an infinite ratio as this, never as inf
SEED_LIMIT = 2 ** 128  # the Philox key range
N_ATOMS = range(2, 7)  # the atom counts a search space takes

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
    c2 = rat(c2)
    require_positive(f"c2 must be positive, got {c2}", c2)
    entry = _entry(claim, j, k, c2, norm)
    walk = _Walk(*_encode([X]), entry.reads, cap, norm)
    return least_c1(*_sides(walk, entry.shape, entry.idx), entry.factor,
                    entry.scale)


def _entry(claim: str, j: int, k: int, c2, norm: Norm):
    """The plan entry (checks.plan_entry) a least-c1 objective reads: the
    claim at j and k judged (_indices), c1 = 1 and c2, strict reads."""
    spec = CLAIMS[claim]
    return plan_entry(spec, spec, ONE, c2, _indices(spec, {"j": j, "k": k}),
                      norm, ((STRICT, STRICT),))


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
        if _int("n_atoms", self.n_atoms) not in N_ATOMS:
            raise ValueError("n_atoms must be in 2..6")
        self._theorem1  # judge j and k now
        if self.value_lo >= self.value_hi:
            raise ValueError("empty value box")
        _float("value_lo", self.value_lo), _float("value_hi", self.value_hi)
        require_positive("c2 must be positive", rat(self.c2))
        for name in ("lattice_denominator", "prob_denominator"):
            if _int(name, getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1, got "
                                 f"{getattr(self, name)}")

    @cached_property
    def _theorem1(self):
        """theorem1's plan entry (_entry), which a score reads."""
        return _entry("theorem1", self.j, self.k, self.c2, self.norm)

    @cached_property
    def _lattice(self) -> "tuple[int, int, int]":
        """(unit, lo, hi): snapped locations are int numerators over unit,
        the lcm of lattice_denominator and the box edges' denominators, and
        lo, hi are the box edges over it."""
        lo, hi = Fraction(self.value_lo), Fraction(self.value_hi)
        unit = math.lcm(self.lattice_denominator, lo.denominator,
                        hi.denominator)
        return unit, int(lo * unit), int(hi * unit)


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
    return _decode(_snap(theta, space), space)


def _snap(theta, space: SearchSpace) -> "tuple[tuple[int, int], ...]":
    """snap_to_space's law in ints: (location numerator over the space's
    lattice unit, weight) pairs in ascending location, coinciding locations
    merged and the weights divided by their gcd, so equal tuples are equal
    laws."""
    n = space.n_atoms
    xs = [float(v) for v in theta]
    if len(xs) != 2 * n - 1:
        raise ValueError(f"theta needs 2 * n_atoms - 1 = {2 * n - 1} "
                         f"entries, got {len(xs)}")
    unit, lo, hi = space._lattice
    flo, fhi = float(space.value_lo), float(space.value_hi)
    ld, pd = space.lattice_denominator, space.prob_denominator
    up = unit // ld
    atoms: "dict[int, int]" = {}
    for x, f in zip(xs, xs[n:] + [1.0]):
        v = round(min(max(x, flo), fhi) * ld) * up
        v = lo if v < lo else hi if v > hi else v
        atoms[v] = atoms.get(v, 0) + max(1, round(f * f * pd))
    g = math.gcd(*atoms.values())
    return tuple((v, w // g) for v, w in sorted(atoms.items()))


def _decode(law, space: SearchSpace) -> DiscreteDist:
    """The DiscreteDist of a snapped law (_snap)."""
    unit = space._lattice[0]
    total = sum(w for _, w in law)
    return DiscreteDist({Fraction(v, unit): Fraction(w, total)
                         for v, w in law}, dim=1)


def _score(law, space: SearchSpace, cap: int):
    """ratio_objective_witness of a snapped law (_snap), scored on its
    lattice ints through the same walk and least_c1."""
    entry = space._theorem1
    walk = _Walk(space._lattice[0], 1, [([([v], w) for v, w in law],
                                          sum(w for _, w in law))],
                 entry.reads, cap, space.norm)
    return least_c1(*_sides(walk, entry.shape, entry.idx), entry.factor,
                    entry.scale)


def _initial_points(space: SearchSpace, restarts: int, rng):
    import numpy as np  # numpy loads only for a search

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


class _Spent(Exception):
    """_nelder_mead's call limit is reached."""


def _nelder_mead(f, x0, maxfev: int, xatol: float, fatol: float):
    """(x, f(x)) for the best vertex that Nelder-Mead reaches from x0 in at
    most maxfev calls of f, stopping early once every vertex lies within
    xatol of the best and every value within fatol of its value.

    A port of scipy.optimize.minimize(method="Nelder-Mead") in scipy 1.17,
    non-adaptive and unbounded, on float lists: every point it hands f and
    its (x, fun) equal scipy's bit for bit.  That rests on scipy's order of
    float operations, on checking the call limit before a call is counted
    (a cut-off call ends the iteration, keeping any vertices a shrink has
    already moved), and on numpy.argsort's order among tied values.
    """
    import numpy as np  # argsort alone gives scipy's order among ties

    n = len(x0)
    calls = 0

    def call(x):
        nonlocal calls
        if calls >= maxfev:
            raise _Spent
        calls += 1
        return f(x)

    def ordered():
        ranks = np.argsort(fsim).tolist()
        return [sim[i] for i in ranks], [fsim[i] for i in ranks]

    x0 = [float(v) for v in x0]
    sim = [x0] + [x0[:k] + [(1 + 0.05) * v if v != 0 else 0.00025]
                  + x0[k + 1:] for k, v in enumerate(x0)]
    fsim = [math.inf] * (n + 1)
    try:
        for k, x in enumerate(sim):
            fsim[k] = call(x)
    except _Spent:
        pass
    sim, fsim = ordered()
    sim, fsim = ordered()  # as scipy does: ties may move again
    while calls < maxfev:
        try:
            best, last = sim[0], sim[-1]
            if (max(abs(a - b) for x in sim[1:] for a, b in zip(x, best))
                    <= xatol and max(abs(fsim[0] - g) for g in fsim[1:])
                    <= fatol):
                break
            xbar = [0.0] * n  # numpy's row-order sum from its identity
            for x in sim[:-1]:
                xbar = [a + b for a, b in zip(xbar, x)]
            xbar = [a / n for a in xbar]
            xr = [2 * a - b for a, b in zip(xbar, last)]
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = [3 * a - 2 * b for a, b in zip(xbar, last)]
                fxe = call(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:   # contract outside
                    xc = [1.5 * a - 0.5 * b for a, b in zip(xbar, last)]
                    fxc = call(xc)
                    keep = fxc <= fxr
                else:                # contract inside
                    xc = [0.5 * a + 0.5 * b for a, b in zip(xbar, last)]
                    fxc = call(xc)
                    keep = fxc < fsim[-1]
                if keep:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = [a + 0.5 * (b - a)
                                  for a, b in zip(best, sim[j])]
                        fsim[j] = call(sim[j])
        except _Spent:
            pass
        sim, fsim = ordered()
    return sim[0], min(fsim)


def search(space: SearchSpace, budget: int = 10_000, restarts: int = 8,
           seed: int = 0, cap: int = DEFAULT_SUPPORT_CAP) -> SearchResult:
    """Nelder-Mead restarts with jitter kicks over the exact objective.

    Deterministic given (space, budget, restarts, seed).  Raises
    SoundnessViolation if the final exact ratio contradicts a known bound
    for the requested c2 (that would be a bug, not a result).
    """
    import numpy as np  # numpy loads only for a search

    if _int("budget", budget) < 1:
        raise ValueError("budget must be positive")
    if _int("restarts", restarts) < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if not 0 <= _int("seed", seed) < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    evaluations = 0
    best = (Fraction(0), None, None)  # (exact ratio, witness q, snapped law)
    trace = []
    # snapped law -> (exact ratio, witness q), each law scored once
    score = cache(lambda law: _score(law, space, cap))

    def objective(theta) -> float:
        nonlocal evaluations, best
        if evaluations >= budget:
            return _BIG  # exhausted: poison further moves
        evaluations += 1
        law = _snap(theta, space)
        value, q = score(law)
        if value > best[0]:  # inf orders above every Fraction
            best = (value, q, law)
        return -min(float(value), _BIG)

    def descend(x0, maxfev: int):
        return _nelder_mead(objective, x0, max(1, maxfev), 1e-3, 1e-9)

    for restart, x0 in enumerate(_initial_points(space, restarts, rng)):
        if evaluations >= budget:
            break
        kicked, fun = descend(x0, (budget - evaluations)
                              // (restarts - restart))
        # jitter kicks: the landscape is flat almost everywhere, so nudge
        # the incumbent across lattice cells a few times per restart
        for _ in range(3):
            if evaluations >= budget:
                break
            kick = kicked + rng.normal(0.0, 0.5, size=len(kicked))
            x, fun2 = descend(kick, (budget - evaluations) // 4)
            if fun2 < fun:
                kicked, fun = x, fun2
        trace.append((restart, float(best[0])))

    ratio, best_q, law = best
    if law is None:
        law = _snap(_initial_points(space, 1, rng)[0], space)
        ratio, best_q = score(law)
    _guard(ratio, rat(space.c2))
    return SearchResult(_decode(law, space), best_q, ratio, evaluations,
                        seed, tuple(trace))


def _guard(ratio, c2: Fraction) -> None:
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

    Each family judges (j, k) once, before any row is scored, by its
    claim's rule and defaults (checks._indices), and echoes them judged.
    """
    reads = {"rare_bernoulli": ("j", "k", "c2", "p_values"),
             "constant": ("j", "k", "c2_values"), "pm_one": ("j", "k", "c2")}
    if family not in reads:
        raise ValueError(f"unknown family {family!r}")
    for name in sorted(params.keys() - set(reads[family])):
        raise ValueError(f"{family} {name} is unknown")
    # the constant family probes (j, k) = (4, 2), not corollary6's default
    claim, given = (("corollary6", {"j": 4, "k": 2}) if family == "constant"
                    else ("theorem1", {}))
    idx = _indices(CLAIMS[claim], {**given, **{n: params[n] for n in ("j", "k")
                                              if n in params}})

    def ratio(X, c2):
        return _least_c1(claim, X, idx["j"], idx["k"], c2)[0]

    if family == "rare_bernoulli":
        c2 = rat(params.get("c2", Fraction(1, 2)))
        ps = [rat(p) for p in params.get(
            "p_values",
            (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000),
             Fraction(1, 10000)))]
        if any(not 0 < p < 1 for p in ps):
            raise ValueError("need 0 < p < 1")
        rows = [{"p": p, "ratio": ratio(DiscreteDist({0: 1 - p, 1: p}), c2)}
                for p in ps]
        return jsonify({
            "family": family, "claim": claim,
            "fixed": {**idx, "c2": c2},
            "rows": rows,
            "induced_c1_lower_bound": max((row["ratio"] for row in rows),
                                          default=Fraction(0)),
        })
    if family == "constant":
        grid = [rat(c) for c in params.get(
            "c2_values",
            (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1),
             Fraction(3, 2), Fraction(2)))]
        rows = [{"c2": c2, "ratio": ratio(DiscreteDist({1: 1}), c2)}
                for c2 in sorted(grid)]
        return jsonify({
            "family": family, "claim": claim,
            "fixed": idx,
            "rows": rows,
            "induced_c2_lower_bound": next(
                (row["c2"] for row in rows if row["ratio"] < math.inf), None),
        })
    c2 = rat(params.get("c2", Fraction(1)))
    r = ratio(DiscreteDist({-1: Fraction(1, 2), 1: Fraction(1, 2)}), c2)
    return jsonify({
        "family": family, "claim": claim,
        "fixed": {**idx, "c2": c2},
        "rows": [{"ratio": r}],
        "induced_c1_lower_bound": r,
    })

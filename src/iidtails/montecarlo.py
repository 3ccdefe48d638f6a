"""Monte Carlo spot checks for continuous or large-support step laws.

Nothing here produces an exact verdict; every estimate carries a
Clopper-Pearson interval and the checker only reports a violation when the
intervals themselves separate.  Streams use counter-based Philox keyed by
(seed, stream index) so estimates are reproducible and independent of batch
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.stats import beta as _beta

from .checks import CLAIMS, MAX, WEIGHTED, require_indices
from .dists import Norm
from .reports import jsonify

FAMILIES = ("discrete", "gaussian", "two_point", "shifted_pareto")


@dataclass(frozen=True)
class SamplerSpec:
    """Recipe for drawing i.i.d. copies of a single summand."""
    family: str
    params: dict
    dim: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; "
                             f"choose from {FAMILIES}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        p = self.params
        if self.family == "discrete":
            atoms = p.get("atoms")
            if not atoms:
                raise ValueError("discrete family needs nonempty 'atoms'")
            total = sum(Fraction(str(a["p"])) if isinstance(a["p"], float)
                        else Fraction(a["p"]) for a in atoms)
            if total != 1:
                raise ValueError(f"atom probabilities sum to {total}, not 1")
            for a in atoms:
                x = a["x"]
                if np.shape(np.asarray(x, dtype=float)) not in ((), (self.dim,)):
                    raise ValueError(f"atom location {x!r} does not match "
                                     f"dim {self.dim}")
        elif self.family == "gaussian":
            if float(p.get("sigma", 1.0)) <= 0:
                raise ValueError("gaussian sigma must be positive")
        elif self.family == "two_point":
            for key in ("a", "b", "p"):
                if key not in p:
                    raise ValueError(f"two_point family needs {key!r}")
            if not 0 < float(p["p"]) < 1:
                raise ValueError("two_point p must lie in (0, 1)")
            if self.dim != 1:
                raise ValueError("two_point family is one-dimensional")
        elif self.family == "shifted_pareto":
            if float(p.get("alpha", 1.0)) <= 0:
                raise ValueError("pareto alpha must be positive")
            if self.dim != 1:
                raise ValueError("shifted_pareto family is one-dimensional")

    def to_jsonable(self) -> dict:
        return jsonify({"family": self.family, "params": self.params,
                        "dim": self.dim})


def _draw(spec: SamplerSpec, rng: np.random.Generator, shape) -> np.ndarray:
    """Array of summands with trailing axis of length spec.dim."""
    full = tuple(shape) + (spec.dim,)
    p = spec.params
    if spec.family == "gaussian":
        mu = float(p.get("mu", 0.0))
        sigma = float(p.get("sigma", 1.0))
        return rng.normal(mu, sigma, size=full)
    if spec.family == "two_point":
        a, b = float(p["a"]), float(p["b"])
        hit = rng.random(size=full) < float(p["p"])
        return np.where(hit, a, b)
    if spec.family == "shifted_pareto":
        alpha = float(p.get("alpha", 1.0))
        shift = float(p.get("shift", 0.0))
        return shift + 1.0 + rng.pareto(alpha, size=full)
    # discrete: inverse CDF over the atom list
    atoms = p["atoms"]
    probs = np.array([float(Fraction(str(a["p"]))
                            if isinstance(a["p"], float)
                            else Fraction(a["p"])) for a in atoms])
    locs = np.array([np.broadcast_to(np.asarray(a["x"], dtype=float),
                                     (spec.dim,)) for a in atoms])
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.random(size=shape), side="right")
    return locs[idx].reshape(full)


def _gauge(points: np.ndarray, norm: Norm) -> np.ndarray:
    if norm is Norm.EUCLIDEAN:
        return np.sqrt(np.sum(points * points, axis=-1))
    return np.max(np.abs(points), axis=-1)   # abs1d and sup coincide here


def _running_max(draws: np.ndarray, norm: Norm) -> np.ndarray:
    """max_{i<=k} ||X_1 + ... + X_i|| for each row of (m, k, dim) draws."""
    return np.max(_gauge(np.cumsum(draws, axis=1), norm), axis=1)


@dataclass(frozen=True)
class TailEstimate:
    estimate: float
    lo: float
    hi: float
    n_samples: int
    count: int
    seed: int

    def to_jsonable(self) -> dict:
        return jsonify({"estimate": self.estimate, "lo": self.lo,
                        "hi": self.hi, "n_samples": self.n_samples,
                        "count": self.count, "seed": self.seed})


def clopper_pearson(count: int, n: int, delta: float) -> "tuple[float, float]":
    """Exact binomial confidence interval at level 1 - delta."""
    if not 0 <= count <= n:
        raise ValueError("need 0 <= count <= n")
    if n == 0:
        return 0.0, 1.0
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    lo = 0.0 if count == 0 else float(_beta.ppf(delta / 2, count,
                                                n - count + 1))
    hi = 1.0 if count == n else float(_beta.ppf(1 - delta / 2, count + 1,
                                                n - count))
    return lo, hi


_BATCH = 1 << 16


def estimate_tail(spec: SamplerSpec, k: int, t, norm: Norm = None,
                  weights=None, n_samples: int = 100_000, seed: int = 0,
                  delta: float = 0.05) -> TailEstimate:
    """Estimate Pr(||w_1 X_1 + ... + w_k X_k|| > t) by simulation.

    weights default to all ones (the plain k-fold sum).  Each size-_BATCH
    block draws from its own Philox substream, so the totals do not depend
    on how the sample budget is sliced into batches.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if weights is None:
        w = np.ones(k)
    else:
        w = np.array([float(Fraction(x)) if not isinstance(x, float) else x
                      for x in weights])
        if w.shape != (k,):
            raise ValueError(f"need exactly {k} weights")
    return _estimate(
        spec, k, t, norm,
        lambda draws, nm: _gauge(np.tensordot(draws, w, axes=([1], [0])), nm),
        n_samples, seed, delta)


def _estimate(spec: SamplerSpec, k: int, t, norm, statistic, n_samples: int,
              seed: int, delta: float) -> TailEstimate:
    """Estimate Pr(statistic(X_1..X_k) > t) with a Clopper-Pearson interval.

    statistic maps (m, k, dim) draws and the norm to m values.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if norm is None:
        norm = Norm.ABS1D if spec.dim == 1 else Norm.EUCLIDEAN
    tf = float(Fraction(t)) if not isinstance(t, float) else t
    if tf < 0:
        raise ValueError("t must be >= 0")
    count = 0
    done = 0
    stream = 0
    while done < n_samples:
        m = min(_BATCH, n_samples - done)
        rng = np.random.Generator(np.random.Philox(key=[seed, stream]))
        draws = _draw(spec, rng, (m, k))           # (m, k, dim)
        count += int(np.count_nonzero(statistic(draws, norm) > tf))
        done += m
        stream += 1
    lo, hi = clopper_pearson(count, n_samples, delta)
    return TailEstimate(estimate=count / n_samples, lo=lo, hi=hi,
                        n_samples=n_samples, count=count, seed=seed)


MC_CLAIMS = tuple(name for name, claim in CLAIMS.items() if claim.mc)

_HOLDS = "holds"
_VIOLATED = "violated"
_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class McVerdict:
    claim_id: str
    params: dict
    rows: tuple           # one dict per t: lhs/rhs estimates and verdict
    status: str           # violated if any row violated, else holds only
                          # if every row holds, else inconclusive

    def to_jsonable(self) -> dict:
        return jsonify({"claim_id": self.claim_id, "params": self.params,
                        "rows": self.rows, "status": self.status})


def mc_check(claim: str, spec: SamplerSpec, j: int, k: int, t_grid,
             c1=None, c2=None, weights=None, norm: Norm = None,
             n_samples: int = 100_000, seed: int = 0,
             delta: float = 0.05) -> McVerdict:
    """Interval-separated comparison lhs <= c1 * rhs along a grid of t.

    A row is 'violated' only when the lower confidence bound of the lhs
    exceeds c1 times the upper confidence bound of the rhs, each side at
    level 1 - delta/2, so a reported violation is wrong with probability
    at most delta per row.
    """
    if claim not in MC_CLAIMS:
        raise ValueError(f"unsupported claim {claim!r}; "
                         f"choose from {MC_CLAIMS}")
    statement = CLAIMS[claim]
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    d1, d2 = statement.constants
    c1 = d1 if c1 is None else Fraction(c1)
    c2 = d2 if c2 is None else Fraction(c2)
    if c1 <= 0 or c2 <= 0:
        raise ValueError("constants must be positive")
    if statement.lhs == WEIGHTED:
        if weights is None or len(weights) != k:
            raise ValueError(f"{claim} needs a weight vector of length k")
        if any(abs(Fraction(str(x)) if isinstance(x, float)
                   else Fraction(x)) > 1 for x in weights):
            raise ValueError(f"{claim} weights must satisfy |w_i| <= 1")
    else:
        require_indices(statement.order, j, k)
    factor = statement.factor(c1, j, k)
    rhs_scale = statement.scale(c2, j, k)
    if not t_grid:
        raise ValueError("t grid must be nonempty")
    rows = []
    any_viol = False
    all_hold = True
    for i, t in enumerate(t_grid):
        tf = float(Fraction(t)) if not isinstance(t, float) else t
        if n_samples == 0:
            rows.append({"t": tf, "lhs": None, "rhs": None,
                         "factor": float(factor),
                         "verdict": _INCONCLUSIVE})
            all_hold = False
            continue
        lhs_seed = seed * 1_000_003 + 2 * i
        if statement.lhs == MAX:
            lhs = _estimate(spec, k, tf, norm, _running_max, n_samples,
                            lhs_seed, delta / 2)
        else:
            lhs_k, lhs_w = (k, weights) if statement.lhs == WEIGHTED \
                else (j, None)
            lhs = estimate_tail(spec, lhs_k, tf, norm=norm, weights=lhs_w,
                                n_samples=n_samples, seed=lhs_seed,
                                delta=delta / 2)
        rhs = estimate_tail(spec, k, tf / float(rhs_scale), norm=norm,
                            n_samples=n_samples,
                            seed=seed * 1_000_003 + 2 * i + 1,
                            delta=delta / 2)
        cf = float(factor)
        if lhs.lo > cf * rhs.hi:
            verdict = _VIOLATED
        elif lhs.hi < cf * rhs.lo:
            verdict = _HOLDS
        else:
            verdict = _INCONCLUSIVE
        any_viol = any_viol or verdict == _VIOLATED
        all_hold = all_hold and verdict == _HOLDS
        rows.append({"t": tf, "lhs": lhs.to_jsonable(),
                     "rhs": rhs.to_jsonable(),
                     "factor": cf, "verdict": verdict})
    status = (_VIOLATED if any_viol
              else _HOLDS if (all_hold and rows) else _INCONCLUSIVE)
    return McVerdict(
        claim_id=claim,
        params={"j": j, "k": k, "c1": c1, "c2": c2,
                "n_samples": n_samples, "seed": seed, "delta": delta,
                "norm": (norm.value if norm is not None else None),
                "weights": list(weights) if weights is not None else None},
        rows=tuple(rows), status=status)

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

from .checks import CLAIMS, MAX, SUM, WEIGHTED, _indices, variants
from .dists import Norm, default_norm
from .reports import HOLDS, VIOLATED, Report

FAMILIES = ("discrete", "gaussian", "two_point", "shifted_pareto")

# a seed is one 64-bit word of a Philox key [seed, stream]
SEED_LIMIT = 2 ** 64
# mc_check keys row i's two sides with seed * _ROW_STRIDE + 2i and + 2i + 1
_ROW_STRIDE = 1_000_003


def mc_seed_limit(rows: int) -> int:
    """The least seed whose keys over `rows` threshold rows of mc_check
    pass 2**64."""
    return (SEED_LIMIT - 2 * rows) // _ROW_STRIDE + 1


def _rational(v) -> Fraction:
    """A sampler parameter as a Fraction: a float by its shortest repr, an
    int, a Fraction or text such as "-1/2" (what dist_to_jsonable emits)."""
    return Fraction(str(v)) if isinstance(v, float) else Fraction(v)


def _location(x) -> np.ndarray:
    """An atom location, one such number or a list of them, as floats."""
    if isinstance(x, (list, tuple)):
        return np.array([float(_rational(c)) for c in x])
    return np.array(float(_rational(x)))


@dataclass(frozen=True)
class SamplerSpec(Report):
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
            total = sum(_rational(a["p"]) for a in atoms)
            if total != 1:
                raise ValueError(f"atom probabilities sum to {total}, not 1")
            for a in atoms:
                x = a["x"]
                if np.shape(_location(x)) not in ((), (self.dim,)):
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
    probs = np.array([float(_rational(a["p"])) for a in atoms])
    locs = np.array([np.broadcast_to(_location(a["x"]), (spec.dim,))
                     for a in atoms])
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
class TailEstimate(Report):
    estimate: float
    lo: float
    hi: float
    n_samples: int
    count: int
    seed: int


def clopper_pearson(count: int, n: int, delta: float) -> "tuple[float, float]":
    """Exact binomial confidence interval at level 1 - delta."""
    from scipy.stats import beta as _beta  # scipy loads only for an interval

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
    norm = default_norm(spec.dim) if norm is None else norm
    tf = float(Fraction(t)) if not isinstance(t, float) else t
    if tf < 0:
        raise ValueError("t must be >= 0")
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    count = 0
    done = 0
    stream = 0
    while done < n_samples:
        m = min(_BATCH, n_samples - done)
        # the key words [seed, stream] as one int: a list of Python ints
        # above 2**63 would go through float
        rng = np.random.Generator(np.random.Philox(key=seed + (stream << 64)))
        draws = _draw(spec, rng, (m, k))           # (m, k, dim)
        count += int(np.count_nonzero(statistic(draws, norm) > tf))
        done += m
        stream += 1
    lo, hi = clopper_pearson(count, n_samples, delta)
    return TailEstimate(estimate=count / n_samples, lo=lo, hi=hi,
                        n_samples=n_samples, count=count, seed=seed)


# the sampler estimates Pr(||S_k|| > t) on the right side, so Monte Carlo
# supports exactly the claims whose right side is S_k
MC_CLAIMS = tuple(name for name, claim in CLAIMS.items() if claim.rhs == SUM)

_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class McVerdict(Report):
    claim_id: str
    params: dict
    rows: tuple           # one dict per t: lhs/rhs TailEstimates, verdict
    status: str           # violated if any row violated, else holds only
                          # if every row holds, else inconclusive


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
    ((_, c1, c2),) = variants(statement, *(None if c is None else Fraction(c)
                                           for c in (c1, c2)))
    _indices(statement, {"j": j, "k": k, "alphas": None if weights is None
                         else map(_rational, weights)})
    factor = statement.factor(c1, j, k)
    rhs_scale = statement.scale(c2, j, k)
    if not t_grid:
        raise ValueError("t grid must be nonempty")
    if not 0 <= seed < mc_seed_limit(len(t_grid)):
        raise ValueError(f"seed must be in [0, {mc_seed_limit(len(t_grid))}) "
                         f"for {len(t_grid)} thresholds, got {seed}")
    rows = []
    for i, t in enumerate(t_grid):
        tf = float(Fraction(t)) if not isinstance(t, float) else t
        if n_samples == 0:
            rows.append({"t": tf, "lhs": None, "rhs": None,
                         "factor": float(factor),
                         "verdict": _INCONCLUSIVE})
            continue
        lhs_seed = seed * _ROW_STRIDE + 2 * i
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
                            seed=lhs_seed + 1,
                            delta=delta / 2)
        cf = float(factor)
        if lhs.lo > cf * rhs.hi:
            verdict = VIOLATED
        elif lhs.hi < cf * rhs.lo:
            verdict = HOLDS
        else:
            verdict = _INCONCLUSIVE
        rows.append({"t": tf, "lhs": lhs, "rhs": rhs, "factor": cf,
                     "verdict": verdict})
    verdicts = {row["verdict"] for row in rows}
    status = (VIOLATED if VIOLATED in verdicts
              else HOLDS if verdicts == {HOLDS} else _INCONCLUSIVE)
    return McVerdict(
        claim_id=claim,
        params={"j": j, "k": k, "c1": c1, "c2": c2,
                "n_samples": n_samples, "seed": seed, "delta": delta,
                "norm": (norm.value if norm is not None else None),
                "weights": list(weights) if weights is not None else None},
        rows=tuple(rows), status=status)

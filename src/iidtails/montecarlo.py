"""Monte Carlo spot checks for continuous or large-support step laws.

Nothing here produces an exact verdict; every estimate carries a
Clopper-Pearson interval and the checker only reports a violation when the
intervals themselves separate.  Streams use counter-based Philox keyed by
(seed, stream index) so estimates are reproducible and independent of batch
order.

numpy is imported by the functions that draw or reduce arrays (the
sampler, the gauges and the estimators), scipy by clopper_pearson, so
importing this module or building a SamplerSpec loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .checks import CLAIMS, SUM, WEIGHTED, _indices, plan_entry, variants
from .dists import MAX, Norm, _int, default_norm
from .reports import HOLDS, VIOLATED, Report

# a seed is one 64-bit word of a Philox key [seed, stream]
SEED_LIMIT = 2 ** 64
# mc_check keys row i's two sides with seed * _ROW_STRIDE + 2i and + 2i + 1
_ROW_STRIDE = 1_000_003


def mc_seed_limit(rows: int) -> int:
    """The least seed whose keys over `rows` threshold rows of mc_check
    pass 2**64."""
    return (SEED_LIMIT - 2 * rows) // _ROW_STRIDE + 1


def _rational(v) -> Fraction:
    """The one reader of a number here, as a Fraction: a float by its
    shortest repr, an int, a Fraction or text such as "1/1000"."""
    return Fraction(str(v)) if isinstance(v, float) else Fraction(v)


def _float(name: str, value) -> float:
    """The float of a number here (_rational), refused with a ValueError
    that names it when it would be infinite, or 0 for a nonzero number."""
    q = _rational(value)
    try:
        f = float(q)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None
    if q and not f:
        raise ValueError(f"{name} is too small for a float")
    return f


def _location(x) -> "float | list[float]":
    """An atom location, one such number or a list of them, as floats."""
    if isinstance(x, (list, tuple)):
        return [_float("discrete atom x", c) for c in x]
    return _float("discrete atom x", x)


def _discrete(rng, size, atoms):
    """Inverse CDF over the atom list."""
    import numpy as np

    locs = np.array([np.broadcast_to(_location(a["x"]), size[-1:])
                     for a in atoms])
    cdf = np.cumsum([_float("discrete atom p", a["p"]) for a in atoms])
    cdf[-1] = 1.0
    return locs[np.searchsorted(cdf, rng.random(size=size[:-1]), side="right")]


# the one table of sampler families: family -> (each parameter's default,
# None where it is required; whether it draws in dimension 1 only; its
# draw(rng, size, **params) of float numbers, size ending in the dimension)
FAMILIES = {
    "discrete": ({"atoms": None}, False, _discrete),
    "gaussian": ({"mu": 0, "sigma": 1}, False,
                 lambda rng, size, mu, sigma: rng.normal(mu, sigma, size)),
    "two_point": ({"a": None, "b": None, "p": None}, True,
                  lambda rng, size, a, b, p: (rng.random(size) < p)
                  .choose((b, a))),
    "shifted_pareto": ({"alpha": 1, "shift": 0}, True,
                       lambda rng, size, alpha, shift:
                       shift + 1.0 + rng.pareto(alpha, size)),
}


def _atoms_fault(atoms, dim: int) -> "str | None":
    """What is wrong with a discrete family's atom list, if anything."""
    total = sum(_rational(a["p"]) for a in atoms)
    if total != 1:
        return f"have probabilities summing to {total}, not 1"
    for a in atoms:
        loc = _location(a["x"])
        if isinstance(loc, list) and len(loc) != dim:
            return f"hold {a['x']!r}, not a point of dim {dim}"


def _number(admits=lambda x: True, fault: str = ""):
    """The rule of a number parameter: a rational x for which admits(x)."""
    def rule(value, dim):
        try:
            return not admits(_rational(value)) and fault
        except (TypeError, ValueError, ZeroDivisionError):
            return f"is not a rational: {value!r}"
    return rule


# each parameter's rule: (value, dim) -> what is wrong with it, if anything
_RULES = {"atoms": _atoms_fault,
          "sigma": _number(lambda x: x > 0, "must be positive"),
          "alpha": _number(lambda x: x > 0, "must be positive"),
          "p": _number(lambda x: 0 < x < 1, "must lie in (0, 1)")}


@dataclass(frozen=True)
class SamplerSpec(Report):
    """Recipe for drawing i.i.d. copies of a single summand."""
    family: str
    params: dict
    dim: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; "
                             f"choose from {tuple(FAMILIES)}")
        if _int("dim", self.dim) < 1:
            raise ValueError("dim must be >= 1")
        defaults, one_dim, _ = FAMILIES[self.family]
        if one_dim and self.dim != 1:
            raise ValueError(f"{self.family} family is one-dimensional")
        for name, value in {**defaults, **self.params}.items():
            fault = ("is required" if value is None
                     else "is unknown" if name not in defaults
                     else _RULES.get(name, _number())(value, self.dim))
            if fault:
                raise ValueError(f"{self.family} {name} {fault}")


def _draw(spec: SamplerSpec, rng, shape):
    """Array of summands with trailing axis of length spec.dim, drawn from
    the numpy Generator rng."""
    defaults, _, draw = FAMILIES[spec.family]
    return draw(rng, (*shape, spec.dim), **{
        name: v if name == "atoms" else _float(f"{spec.family} {name}", v)
        for name, v in {**defaults, **spec.params}.items()})


def _gauge(points, norm: Norm):
    """The norm of each point of an array along its trailing axis."""
    import numpy as np

    if norm is Norm.EUCLIDEAN:
        return np.sqrt(np.sum(points * points, axis=-1))
    return np.max(np.abs(points), axis=-1)   # abs1d and sup coincide here


def _running_max(draws, norm: Norm):
    """max_{i<=k} ||X_1 + ... + X_i|| for each row of (m, k, dim) draws."""
    import numpy as np

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

    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    count, n = _int("count", count), _int("n", n)
    if not 0 <= count <= n:
        raise ValueError("need 0 <= count <= n")
    if n == 0:
        return 0.0, 1.0
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
    import numpy as np

    if _int("k", k) < 1:
        raise ValueError("k must be >= 1")
    if weights is None:
        w = np.ones(k)
    else:
        w = np.array([_float("weights", x) for x in weights])
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
    import numpy as np

    if _int("n_samples", n_samples) < 1:
        raise ValueError("n_samples must be >= 1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    norm = default_norm(spec.dim) if norm is None else norm
    norm.require_dim(spec.dim)
    tf = _float("t", t)
    if tf < 0:
        raise ValueError("t must be >= 0")
    if not 0 <= _int("seed", seed) < SEED_LIMIT:
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


def mc_check(claim: str, spec: SamplerSpec, j: "int | None",
             k: "int | None", t_grid, c1=None, c2=None, weights=None,
             norm: Norm = None, n_samples: int = 100_000, seed: int = 0,
             delta: float = 0.05) -> McVerdict:
    """Interval-separated comparison lhs <= c1 * rhs along a grid of t.

    A row is 'violated' only when the lower confidence bound of the lhs
    exceeds c1 times the upper confidence bound of the rhs, each side at
    level 1 - delta/2, so a reported violation is wrong with probability
    at most delta per row.

    j, k and the weights are judged by the claim's own rule
    (checks._indices), and the factor and scale are its plan entry's
    (checks.plan_entry), as in verify: None takes the claim's default
    (corollary5's k is the number of its weights), and a name the claim
    does not take, such as corollary4's or corollary5's j, is refused
    (checks.Refused) and echoed by none.
    """
    if claim not in MC_CLAIMS:
        raise ValueError(f"unsupported claim {claim!r}; "
                         f"choose from {MC_CLAIMS}")
    statement = CLAIMS[claim]
    if _int("n_samples", n_samples) < 0:
        raise ValueError("n_samples must be >= 0")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    (default_norm(spec.dim) if norm is None else norm).require_dim(spec.dim)
    ((_, c1, c2),) = variants(statement, *(None if c is None else Fraction(c)
                                           for c in (c1, c2)))
    entry = plan_entry(statement, statement, c1, c2, _indices(
        statement, {"j": j, "k": k, "alphas": None if weights is None
                    else list(map(_rational, weights))}), norm, ())
    j, k, factor, scale = (entry.idx.get("j"), entry.idx["k"], entry.factor,
                           entry.scale)
    if not t_grid:
        raise ValueError("t grid must be nonempty")
    if not 0 <= _int("seed", seed) < mc_seed_limit(len(t_grid)):
        raise ValueError(f"seed must be in [0, {mc_seed_limit(len(t_grid))}) "
                         f"for {len(t_grid)} thresholds, got {seed}")
    rows = []
    cf = _float("c1", factor)
    for i, t in enumerate(t_grid):
        tf = _float("t", t)
        if n_samples == 0:
            rows.append({"t": tf, "lhs": None, "rhs": None, "factor": cf,
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
        rhs = estimate_tail(spec, k, _float("t / c2", _rational(t) / scale),
                            norm=norm, n_samples=n_samples, seed=lhs_seed + 1,
                            delta=delta / 2)
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
        params={**({} if j is None else {"j": j}), "k": k, "c1": c1,
                "c2": c2, "n_samples": n_samples, "seed": seed,
                "delta": delta,
                "norm": (norm.value if norm is not None else None),
                "weights": list(weights) if weights is not None else None},
        rows=tuple(rows), status=status)

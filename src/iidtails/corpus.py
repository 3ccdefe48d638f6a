"""Randomized corpora of exact distributions and batch inequality checking.

Corpora are deterministic given the seed (Philox counter-based generator).
Every check on every instance is exact; the aggregate separates holds,
vacuous outcomes, and violations, and keeps full witnesses for the latter.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .checks import (
    ALIASES,
    CLAIMS,
    FIRST_TWO,
    J_LE_K,
    K_ONLY,
    WEIGHTED,
    Curves,
    shape_reports,
    variants,
)
from .dists import (
    DEFAULT_SUPPORT_CAP,
    DiscreteDist,
    Norm,
    STRICT,
    SupportCapExceeded,
    WEAK,
    convolve,
)
from .reports import HOLDS, InequalityReport, VIOLATED, approx, jsonify
from .specfile import dist_to_jsonable

DEFAULT_CLAIMS = tuple(CLAIMS)

# alternative constant sets reported under claim_id latala_alt
LATALA_THEOREM1, LATALA_COROLLARY4 = (
    pairs for _, pairs in CLAIMS["latala_alt"].shapes)

# every corpus check runs in both modes, the same on either side
MODE_PAIRS = ((STRICT, STRICT), (WEAK, WEAK))


@dataclass(frozen=True)
class CorpusConfig:
    seed: int
    count: int
    max_atoms: int = 5
    num_range: int = 8          # numerators drawn from [-num_range, num_range]
    denominator: int = 4        # lattice denominator for atom values and weights
    max_k: int = 6
    dims: "tuple[int, ...]" = (1,)
    norms: "tuple[Norm, ...]" = (Norm.ABS1D,)
    weight_vectors: int = 2     # corollary5 weight draws per instance

    def __post_init__(self):
        if self.count < 0 or self.max_atoms < 1 or self.max_k < 1:
            raise ValueError("count, max_atoms, max_k must be positive")
        if self.num_range < 1 or self.denominator < 1:
            raise ValueError("value lattice must be nondegenerate")
        if not self.dims or not self.norms:
            raise ValueError("dims and norms must be nonempty")
        for d in self.dims:
            if d < 1:
                raise ValueError(f"dimension {d} invalid")

    def to_jsonable(self) -> dict:
        return jsonify({
            "seed": self.seed, "count": self.count,
            "max_atoms": self.max_atoms, "num_range": self.num_range,
            "denominator": self.denominator, "max_k": self.max_k,
            "dims": list(self.dims), "norms": [n.value for n in self.norms],
            "weight_vectors": self.weight_vectors,
        })


def _instance_key(seed: int, index: int) -> int:
    # distinct Philox keys per instance, disjoint from the master key
    return (seed << 64) + index + 1


def generate_corpus(config: CorpusConfig) -> "list[tuple[DiscreteDist, Norm]]":
    """Deterministic list of (distribution, norm) pairs for the config."""
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    out = []
    for _ in range(config.count):
        dim = int(rng.choice(config.dims))
        allowed = [n for n in config.norms
                   if not (n is Norm.ABS1D and dim != 1)]
        if not allowed:
            allowed = [Norm.SUP]
        norm = allowed[int(rng.integers(0, len(allowed)))]
        n_atoms = int(rng.integers(1, config.max_atoms + 1))
        points = set()
        while len(points) < n_atoms:
            nums = rng.integers(-config.num_range, config.num_range + 1,
                                size=dim)
            points.add(tuple(Fraction(int(v), config.denominator)
                             for v in nums))
        weights = rng.integers(1, 13, size=n_atoms)
        total = int(weights.sum())
        atoms = {
            pt: Fraction(int(w), total)
            for pt, w in zip(sorted(points), weights)
        }
        out.append((DiscreteDist(atoms, dim=dim), norm))
    return out


class _InstanceCtx(Curves):
    """Curves of one corpus instance; S_i is walked one convolution at a
    time from S_{i-1} and kept."""

    def __init__(self, dist: DiscreteDist, norm: Norm, max_k: int,
                 cap: int = DEFAULT_SUPPORT_CAP):
        super().__init__(dist, norm, cap)
        self.max_k = max_k
        self._sums = {}

    def sum_law(self, i: int) -> DiscreteDist:
        if i not in self._sums:
            prev = self.dist if i == 1 else convolve(self.sum_law(i - 1),
                                                     self.dist, self.cap)
            self._sums[i] = prev
        return self._sums[i]

    def span(self) -> Fraction:
        vals = [x[0] for x in self.dist.support]
        return max(vals) - min(vals)


def _grid(shape, ctx: _InstanceCtx, rng, config: "CorpusConfig") -> list:
    """Where one claim shape is checked on one instance: every admissible
    (j, k) up to max_k, larger index outermost; drawn weight vectors for
    corollary5; a threshold grid for the 1-D concentration claims."""
    K = ctx.max_k
    if shape.evaluate is not None:
        k = min(3, K) if "k" in shape.takes else 1
        ts = _t_grid(ctx, k) if ctx.dist.dim == 1 else []
        return [{"k": k, "t": t} for t in ts]
    if shape.lhs == WEIGHTED:
        out = []
        for _ in range(config.weight_vectors):
            k = int(rng.integers(2, K + 1))
            nums = rng.integers(-config.denominator,
                                config.denominator + 1, size=k)
            out.append({"alphas": [Fraction(int(v), config.denominator)
                                   for v in nums]})
        return out
    if shape.order == FIRST_TWO:
        return [{"j": 1, "k": 2}]
    if shape.order == K_ONLY:
        return [{"k": k} for k in range(1, K + 1)]
    pairs = [(a, b) for b in range(1, K + 1) for a in range(1, b + 1)]
    return [{"j": a, "k": b} if shape.order == J_LE_K else {"j": b, "k": a}
            for a, b in pairs]


def _t_grid(ctx: _InstanceCtx, k: int = 1) -> "list[Fraction]":
    span = ctx.span()
    if span == 0:
        return [Fraction(1)]
    # small t for empty-set variety, span-scale t, and one large enough
    # that every S_i (i <= k) surely has a concentration point
    return [span / 8, span / 2, k * span]


def normalize_claims(names) -> "list[str]":
    out = []
    for raw in names:
        name = ALIASES.get(raw, raw)
        if name not in CLAIMS:
            raise ValueError(f"unknown claim {raw!r}")
        if name not in out:
            out.append(name)
    return out


@dataclass
class CorpusReport:
    config: CorpusConfig
    claims: "list[str]"
    total_checks: int = 0
    holds: int = 0
    violated: int = 0
    vacuous: int = 0
    per_claim: dict = field(default_factory=dict)
    worst: "dict | None" = None          # smallest margin over decided checks
    violations: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    rows: list = field(default_factory=list)   # flat per-check rows for CSV

    @property
    def has_violations(self) -> bool:
        return self.violated > 0

    def to_jsonable(self) -> dict:
        return jsonify({
            "config": self.config.to_jsonable(),
            "claims": self.claims,
            "total_checks": self.total_checks,
            "holds": self.holds,
            "violated": self.violated,
            "vacuous": self.vacuous,
            "per_claim": self.per_claim,
            "worst": self.worst,
            "violations": self.violations,
            "skipped": self.skipped,
        })


CSV_COLUMNS = (
    "instance", "claim", "params", "worst_t", "lhs", "rhs", "margin",
    "margin_float_approx", "status", "note",
)


def run_corpus(config: CorpusConfig, claims=None,
               cap: int = DEFAULT_SUPPORT_CAP,
               overrides: "dict | None" = None) -> CorpusReport:
    """Run the requested claims over a generated corpus.

    overrides maps a claim name to replacement constants, e.g.
    {"theorem1": {"c1": 1, "c2": 1}} to probe deliberately false values.
    """
    claims = normalize_claims(claims if claims is not None else DEFAULT_CLAIMS)
    constants = {}
    for name, ov in (overrides or {}).items():
        name = ALIASES.get(name, name)
        if name not in CLAIMS or CLAIMS[name].constants is None:
            raise ValueError(f"no overridable constants for {name!r}")
        constants[name] = (ov.get("c1"), ov.get("c2"))
    plan = [(CLAIMS[name], variants(CLAIMS[name], *constants.get(name, ())))
            for name in claims]
    report = CorpusReport(config=config, claims=claims)
    instances = generate_corpus(config)
    for index, (dist, norm) in enumerate(instances):
        rng = np.random.Generator(
            np.random.Philox(key=_instance_key(config.seed, index)))
        ctx = _InstanceCtx(dist, norm, config.max_k, cap)
        try:
            for spec, shapes in plan:
                for shape, c1, c2 in shapes:
                    for idx in _grid(shape, ctx, rng, config):
                        for rep in shape_reports(spec, shape, ctx, idx, c1,
                                                 c2, MODE_PAIRS):
                            _absorb(report, index, dist, rep)
        except SupportCapExceeded as exc:
            report.skipped.append({"instance": index, "reason": str(exc)})
    return report


def _absorb(report: CorpusReport, index: int, dist: DiscreteDist,
            rep: InequalityReport) -> None:
    report.total_checks += 1
    stats = report.per_claim.setdefault(
        rep.claim_id, {"checks": 0, "holds": 0, "violated": 0, "vacuous": 0})
    stats["checks"] += 1
    if rep.status == HOLDS:
        report.holds += 1
        stats["holds"] += 1
    elif rep.status == VIOLATED:
        report.violated += 1
        stats["violated"] += 1
        if len(report.violations) < 100:
            report.violations.append({
                "instance": index,
                "dist": dist_to_jsonable(dist),
                "report": rep.to_jsonable(),
            })
    else:
        report.vacuous += 1
        stats["vacuous"] += 1
    if rep.margin is not None:
        if report.worst is None or rep.margin < Fraction(report.worst["margin"]):
            report.worst = {
                "instance": index,
                "claim": rep.claim_id,
                "margin": rep.margin,
                "worst_t": rep.worst_t,
                "lhs": rep.lhs,
                "rhs": rep.rhs,
            }
    report.rows.append({
        "instance": index,
        "claim": rep.claim_id,
        "params": json.dumps(jsonify(rep.params), sort_keys=True),
        "worst_t": None if rep.worst_t is None else str(rep.worst_t),
        "lhs": None if rep.lhs is None else str(rep.lhs),
        "rhs": None if rep.rhs is None else str(rep.rhs),
        "margin": None if rep.margin is None else str(rep.margin),
        "margin_float_approx": approx(rep.margin),
        "status": rep.status,
        "note": rep.note,
    })


def write_csv(report: CorpusReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in report.rows:
            writer.writerow(row)

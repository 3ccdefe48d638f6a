"""Randomized corpora of exact distributions and batch inequality checking.

Corpora are deterministic given the seed (numpy's Philox counter-based
generator, imported when a corpus is drawn: generate_corpus, run_corpus).
Every check on every instance is exact; the aggregate separates holds,
vacuous outcomes, and violations, and keeps full witnesses for the latter.

Each check comes from checks.shape_checks, the generator verify's reports
are built from too: its params echo, its status and note (checks._verdict)
and its worst case as (numerator, denominator) pairs.  _absorb counts it
once, in its claim's per_claim entry by status, and adds its row; the
report's totals are summed from those when the run ends.  A row renders
each exact field by one int helper (_exact), the float column as n / d,
and keeps the smallest margin by cross-multiplying; an InequalityReport is
built only for a stored violation.  Params text is joined once per run
and params key (plan entry, norm, index values in ints and mode pair) from
the text of each params value, and each value is rendered once per run.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import itemgetter

from .checks import (
    ALIASES,
    CLAIMS,
    FIRST_TWO,
    J_LE_K,
    K_ONLY,
    MODE_PAIRS,
    WEIGHTED,
    Curves,
    _reads,
    shape_checks,
    variants,
)
from .dists import (
    DEFAULT_SUPPORT_CAP,
    DiscreteDist,
    Norm,
    SupportCapExceeded,
    _int,
)
from .reports import HOLDS, VACUOUS, VIOLATED, Report, jsonify

DEFAULT_CLAIMS = tuple(CLAIMS)
# _instance_key puts the seed above 64 bits of instance index in a Philox
# key, which must stay below 2**128
SEED_LIMIT = 2 ** 64


@dataclass(frozen=True)
class CorpusConfig(Report):
    seed: int
    count: int
    max_atoms: int = 5
    num_range: int = 8          # numerators drawn from [-num_range, num_range]
    denominator: int = 4        # lattice denominator for atom values and weights
    max_k: int = 6
    dims: "tuple[int, ...]" = (1,)
    # None: abs1d when every dim is 1, else sup (defined in every dim)
    norms: "tuple[Norm, ...] | None" = None
    weight_vectors: int = 2     # corollary5 weight draws per instance

    def __post_init__(self):
        if not 0 <= _int("seed", self.seed) < SEED_LIMIT:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if _int("count", self.count) < 0 or \
                _int("max_atoms", self.max_atoms) < 1 or \
                _int("max_k", self.max_k) < 1:
            raise ValueError("count, max_atoms, max_k must be positive")
        if _int("weight_vectors", self.weight_vectors) < 0:
            raise ValueError("weight_vectors must be >= 0")
        if _int("num_range", self.num_range) < 1 or \
                _int("denominator", self.denominator) < 1:
            raise ValueError("value lattice must be nondegenerate")
        if not self.dims:
            raise ValueError("dims must be nonempty")
        for d in self.dims:
            if _int("dimension", d) < 1:
                raise ValueError(f"dimension {d} invalid")
        if self.norms is None:
            object.__setattr__(self, "norms", (Norm.ABS1D,) if set(
                self.dims) == {1} else (Norm.SUP,))
        if not self.norms:
            raise ValueError("norms must be nonempty")
        # generate_corpus draws distinct points of the lattice
        points = (2 * self.num_range + 1) ** min(self.dims)
        if self.max_atoms > points:
            raise ValueError(f"max_atoms {self.max_atoms} exceeds the "
                             f"{points} points of the value lattice")
        for d in self.dims:
            if not norms_at(self.norms, d):
                raise ValueError(
                    f"norms {','.join(n.value for n in self.norms)} define "
                    f"no norm in dimension {d} (abs1d needs dimension 1)")


def norms_at(norms, dim: int) -> "list[Norm]":
    """The norms among `norms` defined in dimension dim."""
    return [n for n in norms if n.defined_in(dim)]


def _instance_key(seed: int, index: int) -> int:
    # distinct Philox keys per instance, disjoint from the master key
    return (seed << 64) + index + 1


def generate_corpus(config: CorpusConfig) -> "list[tuple[DiscreteDist, Norm]]":
    """Deterministic list of (distribution, norm) pairs for the config."""
    import numpy as np  # numpy loads only for the Philox draws

    rng = np.random.Generator(np.random.Philox(key=config.seed))
    out = []
    for _ in range(config.count):
        dim = int(rng.choice(config.dims))
        allowed = norms_at(config.norms, dim)
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


def _grid(shape, dist: DiscreteDist, rng, config: "CorpusConfig") -> list:
    """Where one claim shape is checked on one instance: every admissible
    (j, k) up to max_k, larger index outermost; drawn weight vectors for
    corollary5; a threshold grid for the 1-D concentration claims."""
    K = config.max_k
    if shape.evaluate is not None:
        k = min(3, K) if "k" in shape.takes else 1
        ts = _t_grid(dist, k) if dist.dim == 1 else []
        return [{"k": k, "t": t} for t in ts]
    if shape.lhs == WEIGHTED:
        out = []
        for _ in range(config.weight_vectors):
            k = int(rng.integers(min(2, K), K + 1))
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


def _t_grid(dist: DiscreteDist, k: int = 1) -> "list[Fraction]":
    vals = [x[0] for x in dist.support]
    span = max(vals) - min(vals)
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
class CorpusReport(Report):
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
    # flat per-check rows for the CSV, not the JSON
    rows: list = field(default_factory=list, metadata={"json": False})

    @property
    def has_violations(self) -> bool:
        return self.violated > 0


CSV_COLUMNS = (
    "instance", "claim", "params", "worst_t", "lhs", "rhs", "margin",
    "margin_float_approx", "status", "note",
)


def run_corpus(config: CorpusConfig, claims=None,
               cap: int = DEFAULT_SUPPORT_CAP,
               overrides: "dict | None" = None) -> CorpusReport:
    """Run the requested claims over a generated corpus.

    overrides maps a claim name to replacement constants, e.g.
    {"theorem1": {"c1": 1, "c2": 1}} to probe deliberately false values;
    checks.variants judges each, whether or not its claim is run.
    """
    import numpy as np  # numpy loads only for the Philox draws

    claims = normalize_claims(claims if claims is not None else DEFAULT_CLAIMS)
    judged = {name: variants(CLAIMS[name]) for name in claims}
    for raw, ov in (overrides or {}).items():
        (name,) = normalize_claims([raw])
        judged[name] = variants(CLAIMS[name], ov.get("c1"), ov.get("c2"))
    plan = [(CLAIMS[name], *variant) for name in claims
            for variant in judged[name]]
    report = CorpusReport(config=config, claims=claims)
    rendered, parts = {}, {}
    instances = generate_corpus(config)
    for index, (dist, norm) in enumerate(instances):
        rng = np.random.Generator(
            np.random.Philox(key=_instance_key(config.seed, index)))
        planned = [(pos, idx) for pos, (_, shape, _, _) in enumerate(plan)
                   for idx in _grid(shape, dist, rng, config)]
        curves = Curves(dist, norm, set().union(
            *(_reads(plan[pos][1], idx) for pos, idx in planned)), cap)
        try:
            for pos, idx in planned:
                for check in _checks(pos, *plan[pos], curves, idx):
                    _absorb(report, index, dist, check, rendered, parts)
        except SupportCapExceeded as exc:
            report.skipped.append({"instance": index, "reason": str(exc)})
    report.total_checks = len(report.rows)
    for status in (HOLDS, VIOLATED, VACUOUS):
        setattr(report, status, sum(s[status]
                                    for s in report.per_claim.values()))
    return report


def _checks(pos: int, spec, shape, c1, c2, curves: Curves, given: dict):
    """The checks (checks.shape_checks) of plan entry pos at one index
    choice, each as (claim, params key, check).  The plan entry, the norm,
    the index values in ints and the mode pair fix the params; they are
    the key."""
    key = (pos, curves.norm.value, *_ints(given.values()))
    for modes, check in zip(MODE_PAIRS, shape_checks(
            spec, shape, curves, given, c1, c2, MODE_PAIRS)):
        yield spec.claim_id, key + modes, check


def _ints(values) -> tuple:
    """Index values (ints, rationals, lists of rationals) as the numerator
    and denominator of each rational in turn."""
    out = []
    for v in values:
        for q in v if isinstance(v, list) else (v,):
            out += (q.numerator, q.denominator)
    return tuple(out)


def _exact(pair) -> "str | None":
    """The text of the rational n / d (d > 0), as str of its Fraction."""
    if pair is None:
        return None
    n, d = pair
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _params_text(params: dict, parts: dict) -> str:
    """json.dumps(jsonify(params), sort_keys=True), joined in sorted-key
    order from the text of each name and value, each rendered once into
    parts.  A value is told apart by its type too (the int 1 renders as 1,
    the Fraction 1 as "1"), a list (weights, which checks._indices makes
    Fractions) by its items."""
    texts = []
    for name in sorted(params):
        value = params[name]
        key = (name, value.__class__,
               tuple(value) if isinstance(value, list) else value)
        text = parts.get(key)
        if text is None:
            text = parts[key] = f"{json.dumps(name)}: " \
                f"{json.dumps(jsonify(value), sort_keys=True)}"
        texts.append(text)
    return "{" + ", ".join(texts) + "}"


def _absorb(report: CorpusReport, index: int, dist: DiscreteDist, check,
            rendered: dict, parts: dict) -> None:
    """Count one check (_checks) and add its row; rendered holds the params
    text of each params key and parts the text of each params value, both
    for one run_corpus call."""
    claim, key, (params, status, note, values, full) = check
    stats = report.per_claim.setdefault(
        claim, {"checks": 0, "holds": 0, "violated": 0, "vacuous": 0})
    stats["checks"] += 1
    stats[status] += 1
    if status == VIOLATED and len(report.violations) < 100:
        report.violations.append(
            {"instance": index, "dist": dist, "report": full()})
    t, lhs, rhs, margin = values
    if margin is not None:
        worst = report.worst and report.worst["margin"]
        if worst is None or \
                margin[0] * worst.denominator < worst.numerator * margin[1]:
            report.worst = {"instance": index, "claim": claim,
                            "margin": Fraction(*margin),
                            "worst_t": Fraction(*t), "lhs": Fraction(*lhs),
                            "rhs": Fraction(*rhs)}
    text = rendered.get(key)
    if text is None:
        text = rendered[key] = _params_text(params, parts)
    report.rows.append({
        "instance": index,
        "claim": claim,
        "params": text,
        "worst_t": _exact(t),
        "lhs": _exact(lhs),
        "rhs": _exact(rhs),
        "margin": _exact(margin),
        "margin_float_approx": None if margin is None
        else margin[0] / margin[1],
        "status": status,
        "note": note,
    })


def write_csv(report: CorpusReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(map(itemgetter(*CSV_COLUMNS), report.rows))

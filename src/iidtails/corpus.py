"""Randomized corpora of exact distributions and batch inequality checking.

Corpora are deterministic given the seed: every draw comes from the
package's own Philox4x64-10 stream (_philox.Stream, which draws what numpy's
Generator(Philox(key)) draws), in Python ints, so no corpus loads numpy.
Every check on every instance is exact; the aggregate separates holds,
vacuous outcomes, and violations, and keeps full witnesses for the latter.

run_corpus lays its plan out once per run, and _item an entry in one
step (checks.plan_entry, which lays out verify's reports too, then each
row's params text and CSV head).  checks.walk_checks gives every entry's
outcome on an instance, as verify's, or none (the instance is only listed
in skipped): one int record (reports.Outcome), whose rows share all but
worst_t.  _absorb counts an entry's checks by status and keeps its rows as
one group, each shared field rendered once (_exact), the smallest margin
kept by cross-multiplying; write_csv writes the bytes csv.writer would,
in one write, and CorpusReport.rows builds the row dicts when read.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .checks import (
    ALIASES,
    CLAIMS,
    FIRST_TWO,
    J_LE_K,
    K_ONLY,
    MODE_PAIRS,
    WEIGHTED,
    _indices,
    plan_entry,
    variants,
    walk_checks,
)
from ._philox import Stream
from .dists import (
    DEFAULT_SUPPORT_CAP,
    DiscreteDist,
    Norm,
    SupportCapExceeded,
    _int,
)
from .reports import (HOLDS, VACUOUS, VIOLATED, Report, jsonify,
                      ratio_text)

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
        for name, least in (("count", 0), ("max_atoms", 1), ("max_k", 1),
                            ("weight_vectors", 0), ("num_range", 1),
                            ("denominator", 1)):
            if _int(name, getattr(self, name)) < least:
                raise ValueError(f"{name} must be >= {least}, got "
                                 f"{getattr(self, name)}")
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
    rng = Stream(config.seed)
    out = []
    for _ in range(config.count):
        dim = rng.choice(config.dims)
        norm = rng.choice(norms_at(config.norms, dim))
        n_atoms = rng.integers(1, config.max_atoms + 1)
        points = set()
        while len(points) < n_atoms:
            nums = rng.integers(-config.num_range, config.num_range + 1,
                                size=dim)
            points.add(tuple(Fraction(v, config.denominator) for v in nums))
        weights = rng.integers(1, 13, size=n_atoms)
        total = sum(weights)
        atoms = {
            pt: Fraction(w, total)
            for pt, w in zip(sorted(points), weights)
        }
        out.append((DiscreteDist(atoms, dim=dim), norm))
    return out


def _index_grid(shape, max_k: int) -> list:
    """Where an index claim is checked on every instance: each admissible
    (j, k) up to max_k, larger index outermost; latala_sharp at its own."""
    if shape.order == FIRST_TWO:
        return [{}]
    if shape.order == K_ONLY:
        return [{"k": k} for k in range(1, max_k + 1)]
    pairs = [(a, b) for b in range(1, max_k + 1) for a in range(1, b + 1)]
    return [{"j": a, "k": b} if shape.order == J_LE_K else {"j": b, "k": a}
            for a, b in pairs]


def _grid(shape, span: "Fraction | None", rng,
          config: "CorpusConfig") -> list:
    """Where corollary5 and the 1-D concentration claims are checked on one
    instance, given the span of its atoms (None above dimension 1): drawn
    weight vectors or thresholds, each beside its ints."""
    K = config.max_k
    if shape.evaluate is not None:
        given = {"k": min(3, K)} if "k" in shape.takes else {}
        ts = [] if span is None else _t_grid(span, given.get("k", 1))
        return [((t.numerator, t.denominator), {**given, "t": t}) for t in ts]
    out = []
    for _ in range(config.weight_vectors):
        k = rng.integers(min(2, K), K + 1)
        nums = rng.integers(-config.denominator,
                            config.denominator + 1, size=k)
        out.append((tuple(nums), {"alphas": [
            Fraction(v, config.denominator) for v in nums]}))
    return out


def _span(dist: DiscreteDist) -> Fraction:
    """The span of a 1-D law's atoms, max - min."""
    vals = [x for (x,) in dist.atoms]
    return max(vals) - min(vals)


def _t_grid(span: Fraction, k: int = 1) -> "list[Fraction]":
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
    # the CSV's rows, one group per plan entry and instance (_absorb):
    # (instance, claim, params texts, CSV heads, worst_t texts, the shared
    # lhs, rhs, margin, margin_float_approx, status and note); not the JSON
    groups: list = field(default_factory=list, metadata={"json": False})

    @property
    def has_violations(self) -> bool:
        return self.violated > 0

    @property
    def rows(self) -> "list[dict]":
        """One dict per CSV row, keyed by CSV_COLUMNS, built on each read
        from the groups; rows with equal params share one params text."""
        return [{"instance": index, "claim": claim, "params": text,
                 "worst_t": t, **dict(zip(CSV_COLUMNS[4:], tail))}
                for index, claim, texts, _, ts, tail in self.groups
                for text, t in zip(texts, ts)]


CSV_COLUMNS = (
    "instance", "claim", "params", "worst_t", "lhs", "rhs", "margin",
    "margin_float_approx", "status", "note",
)


def run_corpus(config: CorpusConfig, claims=None,
               cap: int = DEFAULT_SUPPORT_CAP,
               overrides: "dict | None" = None) -> CorpusReport:
    """Run the requested claims over a generated corpus.

    The plan is laid out once per run: at the first instance of each norm,
    the ready items of every claim whose grid its index rule sets
    (_index_grid), which every instance's plan extends; per instance only
    corollary5's drawn weights and the 1-D concentration claims'
    thresholds (_grid), in plan order, each distinct draw once per run.
    overrides maps a claim name to replacement constants, e.g.
    {"theorem1": {"c1": 1, "c2": 1}} to probe deliberately false values;
    checks.variants judges each, whether or not its claim is run.
    """
    claims = normalize_claims(claims if claims is not None else DEFAULT_CLAIMS)
    judged = {name: variants(CLAIMS[name]) for name in claims}
    for raw, ov in (overrides or {}).items():
        (name,) = normalize_claims([raw])
        judged[name] = variants(CLAIMS[name], ov.get("c1"), ov.get("c2"))
    plan = [(CLAIMS[name], *variant) for name in claims
            for variant in judged[name]]
    report = CorpusReport(config=config, claims=claims)
    layouts, parts = {}, {}     # per norm (frames, drawn items) and plan
    spanned = any(shape.evaluate is not None for _, shape, _, _ in plan)
    for index, (dist, norm) in enumerate(generate_corpus(config)):
        if norm not in layouts:
            laid = {}
            layouts[norm] = laid, [
                pos if shape.evaluate is not None or shape.lhs == WEIGHTED
                else [_item(plan, pos, raw, norm, laid, parts)
                      for raw in _index_grid(shape, config.max_k)]
                for pos, (spec, shape, c1, c2) in enumerate(plan)]
        laid, steps = layouts[norm]
        rng = Stream(_instance_key(config.seed, index))
        span = _span(dist) if spanned and dist.dim == 1 else None
        planned = []
        for step in steps:
            if type(step) is list:
                planned += step
                continue
            for draw, raw in _grid(plan[step][1], span, rng, config):
                planned.append(laid.get((step, draw)) or laid.setdefault(
                    (step, draw), _item(plan, step, raw, norm, laid, parts)))
        if not planned:       # e.g. lemma2 and corollary3 above dimension 1
            continue
        try:
            got = walk_checks([item[0] for item in planned], [dist], cap)
        except SupportCapExceeded as exc:
            report.skipped.append({"instance": index, "reason": str(exc)})
            continue
        for item, checks in zip(planned, got):
            _absorb(report, index, dist, item, checks)
    stats = report.per_claim.values()
    report.total_checks = sum(s["checks"] for s in stats)
    for status in (HOLDS, VIOLATED, VACUOUS):
        setattr(report, status, sum(s[status] for s in stats))
    return report


def _item(plan, pos: int, raw: dict, norm: Norm, laid: dict,
          parts: dict) -> tuple:
    """One grid entry laid out, once per run for an index claim, per
    instance for a drawn one: its plan entry (checks.plan_entry), and each
    row's params text and CSV head, its position's _frame filled in."""
    spec, shape, c1, c2 = plan[pos]
    entry = plan_entry(spec, shape, c1, c2, _indices(shape, raw, spec), norm,
                       MODE_PAIRS)
    frames = laid.get(pos) or laid.setdefault(pos, _frame(entry, parts))
    known = [parts.get(id(value)) or _value(value, parts)
             for _, value in sorted(entry.idx.items())]
    texts, quoted = tuple([v[1] for v in known]), tuple([v[2] for v in known])
    return entry, [text % texts for text, _ in frames], \
        [head % quoted for _, head in frames]


def _frame(entry, parts: dict) -> list:
    """Per echo, the params text (json.dumps(jsonify(echo), sort_keys=True),
    its names plain identifiers) and CSV head of every entry of a position
    under a norm, as %-templates, a slot for each judged index's text."""
    texts = ["{" + ", ".join(f'"{name}": ' + (
        "%s" if name in entry.idx else (parts.get(id(value)) or _value(
            value, parts))[1].replace("%", "%%"))
        for name, value in sorted(echo.items())) + "}"
        for echo in entry.echoes]
    return [(text, _head(entry.spec.claim_id, text)) for text in texts]


def _head(claim: str, params: str) -> str:
    return f"{_csv_field(claim)},{_csv_field(params)}"


def _value(value, parts: dict) -> tuple:
    """The value (no dict), its text, json.dumps(jsonify(value)), and that
    text quoted as in a CSV field, kept in parts by its id, which names no
    other object while parts keeps it (one run_corpus call)."""
    text = f'"{ratio_text(value.numerator, value.denominator)}"' if type(
        value) is Fraction else json.dumps(jsonify(value))
    parts[id(value)] = out = value, text, text.replace('"', '""')
    return out


def _exact(pair) -> "str | None":
    """The text of the rational n / d (d > 0), as jsonify renders its
    Fraction."""
    if pair is None:
        return None
    n, d = pair
    g = gcd(n, d)
    return ratio_text(n // g, d // g)


def _absorb(report: CorpusReport, index: int, dist: DiscreteDist,
            item: tuple, got) -> None:
    """Count the checks of one plan entry (_item) on one instance and keep
    their rows, one per threshold of its outcome got, as one group: they
    share status, note, lhs, rhs and margin, rendered once."""
    entry, texts, heads = item
    claim = entry.spec.claim_id
    ts, lhs, rhs, margin, status, _, note = got
    stats = report.per_claim.get(claim) or report.per_claim.setdefault(
        claim, {"checks": 0, "holds": 0, "violated": 0, "vacuous": 0})
    stats["checks"] += len(ts)
    stats[status] += len(ts)
    if status == VIOLATED and len(report.violations) < 100:
        report.violations += [
            {"instance": index, "dist": dist, "report": full}
            for full in got.reports(claim, entry.echoes)[
                :100 - len(report.violations)]]
    if margin is not None:
        worst = report.worst and report.worst["margin"]
        if worst is None or \
                margin[0] * worst.denominator < worst.numerator * margin[1]:
            report.worst = {"instance": index, "claim": claim,
                            "margin": Fraction(*margin),
                            "worst_t": Fraction(*ts[0]),
                            "lhs": Fraction(*lhs), "rhs": Fraction(*rhs)}
    report.groups.append((index, claim, texts, heads, list(map(_exact, ts)), (
        _exact(lhs), _exact(rhs), _exact(margin),
        None if margin is None else margin[0] / margin[1], status, note)))


_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _csv_field(text: "str | None") -> str:
    """A text as csv.writer writes it in a row of several fields (excel
    dialect, QUOTE_MINIMAL): None as nothing, and a text that holds a
    comma, a quote, CR or LF in quotes, each quote doubled."""
    if text is None:
        return ""
    if _NEEDS_QUOTES(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def write_csv(report: CorpusReport, path) -> None:
    """The rows as csv.writer writes them, CSV_COLUMNS first, in one write:
    each row its instance, its group's head, its worst_t and its group's
    tail, rendered once; of these only the note may need quotes."""
    lines = [",".join(CSV_COLUMNS)]
    for index, _, _, heads, ts, tail in report.groups:
        lhs, rhs, margin, approx, status, note = tail
        tail = f"{lhs or ''},{rhs or ''},{margin or ''}," \
            f"{'' if approx is None else repr(approx)},{status}," \
            f"{_csv_field(note)}"
        lines += [f"{index},{head},{t or ''},{tail}"
                  for head, t in zip(heads, ts)]
    lines.append("")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines))

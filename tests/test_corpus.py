import csv
import json
import random
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iidtails import corpus, reports
from iidtails.checks import CLAIMS, MODE_PAIRS, Refused, claim_reports
from iidtails.corpus import (
    CSV_COLUMNS,
    CorpusConfig,
    DEFAULT_CLAIMS,
    generate_corpus,
    normalize_claims,
    run_corpus,
    write_csv,
)
from iidtails.dists import Norm, SupportCapExceeded
from iidtails.reports import jsonify
from oracles import coin, count_judgements, per_instance_corpus


class TestCorpusConfig:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            CorpusConfig(seed=1, count=-1)
        with pytest.raises(ValueError):
            CorpusConfig(seed=1, count=5, denominator=0)
        with pytest.raises(ValueError):
            CorpusConfig(seed=1, count=5, dims=())
        with pytest.raises(ValueError):
            CorpusConfig(seed=1, count=5, dims=(0,))
        with pytest.raises(ValueError, match="^norms must be nonempty$"):
            CorpusConfig(seed=1, count=5, norms=())

    def test_seed_range(self):
        """An instance's Philox key puts the seed above 64 bits of index,
        so a corpus seed is refused outside [0, 2**64)."""
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError, match=r"seed must be in "
                                                 r"\[0, 2\*\*64\)"):
                CorpusConfig(seed=seed, count=1)
        cfg = CorpusConfig(seed=2 ** 64 - 1, count=2)
        assert len(generate_corpus(cfg)) == 2

    @pytest.mark.parametrize("name, least", [
        ("count", 0), ("max_atoms", 1), ("max_k", 1), ("weight_vectors", 0),
        ("num_range", 1), ("denominator", 1)])
    def test_each_count_is_refused_by_name(self, name, least):
        """A count below its least is refused in a message that names it
        alone; the least itself is accepted."""
        base = {"seed": 1, "count": 1, "max_atoms": 1}
        with pytest.raises(ValueError, match=rf"^{name} must be >= {least}, "
                                             rf"got {least - 1}$"):
            CorpusConfig(**{**base, name: least - 1})
        assert getattr(CorpusConfig(**{**base, name: least}), name) == least

    def test_rejects_negative_weight_vectors(self):
        with pytest.raises(ValueError, match="weight_vectors"):
            CorpusConfig(seed=1, count=5, weight_vectors=-2)
        assert CorpusConfig(seed=1, count=5, weight_vectors=0)

    def test_rejects_more_atoms_than_lattice_points(self):
        """generate_corpus draws distinct points of the value lattice, so a
        max_atoms above its size would never finish drawing."""
        with pytest.raises(ValueError, match="max_atoms 5 exceeds the 3 "):
            CorpusConfig(seed=0, count=50, max_atoms=5, num_range=1)
        # the smallest dimension bounds the draw
        with pytest.raises(ValueError, match="max_atoms"):
            CorpusConfig(seed=0, count=1, max_atoms=4, num_range=1,
                         dims=(2, 1))
        cfg = CorpusConfig(seed=0, count=20, max_atoms=3, num_range=1)
        assert max(len(d) for d, _ in generate_corpus(cfg)) == 3
        assert CorpusConfig(seed=0, count=1, max_atoms=9, num_range=1,
                            dims=(2,))

    def test_jsonable(self):
        d = CorpusConfig(seed=3, count=2).to_jsonable()
        assert d["seed"] == 3 and d["norms"] == ["abs1d"]

    def test_norms_define_a_norm_in_every_dim(self):
        """A norm list with no norm defined in some listed dimension is
        refused, so the config never reports a norm it does not check;
        without a list the norm is abs1d when every dim is 1, else sup."""
        for dims in ((2,), (1, 2)):
            with pytest.raises(ValueError, match="no norm in dimension 2"):
                CorpusConfig(seed=1, count=5, dims=dims,
                             norms=(Norm.ABS1D,))
        cfg = CorpusConfig(seed=1, count=5, dims=(1, 2),
                           norms=(Norm.ABS1D, Norm.SUP))
        assert {n for _, n in generate_corpus(cfg)} <= {Norm.ABS1D, Norm.SUP}
        for dims, norm in (((1,), Norm.ABS1D), ((2,), Norm.SUP),
                           ((1, 2), Norm.SUP)):
            cfg = CorpusConfig(seed=1, count=5, dims=dims)
            assert cfg.norms == (norm,)
            assert {n for _, n in generate_corpus(cfg)} == {norm}


class TestGenerateCorpus:
    def test_deterministic(self):
        cfg = CorpusConfig(seed=42, count=20)
        a = generate_corpus(cfg)
        b = generate_corpus(cfg)
        assert [(d.atoms, n) for d, n in a] == [(d.atoms, n) for d, n in b]

    def test_seed_sensitivity(self):
        a = generate_corpus(CorpusConfig(seed=1, count=10))
        b = generate_corpus(CorpusConfig(seed=2, count=10))
        assert [d.atoms for d, _ in a] != [d.atoms for d, _ in b]

    def test_respects_lattice_and_size(self):
        cfg = CorpusConfig(seed=5, count=30, max_atoms=4, num_range=6,
                           denominator=3)
        for dist, norm in generate_corpus(cfg):
            assert 1 <= len(dist.atoms) <= 4
            assert norm is Norm.ABS1D
            assert dist.dim == 1
            for (v,), p in dist.atoms.items():
                assert v == F(v.numerator, v.denominator)
                assert abs(v) <= 6 and (v * 3).denominator == 1
            assert sum(dist.atoms.values()) == 1

    def test_multidim_norms(self):
        cfg = CorpusConfig(seed=6, count=20, dims=(1, 2),
                           norms=(Norm.ABS1D, Norm.EUCLIDEAN, Norm.SUP))
        dims = set()
        for dist, norm in generate_corpus(cfg):
            dims.add(dist.dim)
            if dist.dim != 1:
                assert norm is not Norm.ABS1D
        assert dims == {1, 2}


class TestNormalizeClaims:
    def test_aliases(self):
        assert normalize_claims(["levy", "latala"]) == \
            ["levy_ottaviani", "latala_sharp"]

    def test_dedupes_preserving_order(self):
        assert normalize_claims(["theorem1", "levy", "levy_ottaviani"]) == \
            ["theorem1", "levy_ottaviani"]

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown claim"):
            normalize_claims(["theorem2"])


class TestRunCorpus:
    def test_count_zero_empty_aggregate(self):
        rep = run_corpus(CorpusConfig(seed=1, count=0))
        assert rep.total_checks == 0
        assert not rep.has_violations
        assert rep.rows == [] and rep.worst is None

    def test_proven_claims_hold_and_counts_reconcile(self):
        cfg = CorpusConfig(seed=11, count=12, max_k=4)
        rep = run_corpus(cfg)
        assert rep.violated == 0
        assert rep.total_checks == rep.holds + rep.violated + rep.vacuous
        assert rep.total_checks == len(rep.rows)
        assert set(rep.per_claim) <= set(DEFAULT_CLAIMS)
        per_claim_total = sum(s["checks"] for s in rep.per_claim.values())
        assert per_claim_total == rep.total_checks
        assert rep.worst is not None and F(rep.worst["margin"]) >= 0

    def test_deterministic_reports(self):
        cfg = CorpusConfig(seed=21, count=8, max_k=3)
        a = json.dumps(run_corpus(cfg).to_jsonable(), sort_keys=True)
        b = json.dumps(run_corpus(cfg).to_jsonable(), sort_keys=True)
        assert a == b

    def test_false_constants_produce_witnesses(self):
        cfg = CorpusConfig(seed=7, count=10, max_k=3)
        rep = run_corpus(cfg, ["theorem1"],
                         overrides={"theorem1": {"c1": 1, "c2": 1}})
        assert rep.has_violations
        w = rep.violations[0]
        assert w["report"].status == "violated"
        assert w["report"].witness is not None
        assert w["dist"] == generate_corpus(cfg)[w["instance"]][0]

    def test_override_rejects_unknown_or_nonpositive(self):
        cfg = CorpusConfig(seed=1, count=1)
        with pytest.raises(ValueError):
            run_corpus(cfg, ["theorem1"], overrides={"lemma2": {"c1": 1}})
        with pytest.raises(ValueError):
            run_corpus(cfg, ["theorem1"],
                       overrides={"theorem1": {"c1": 0}})
        with pytest.raises(ValueError, match="latala_sharp"):
            run_corpus(cfg, ["latala_sharp"],
                       overrides={"latala_sharp": {"c1": 1, "c2": 1}})

    def test_overrides_are_judged_by_the_claim_table(self):
        """Every override goes through checks.variants, run or not."""
        cfg = CorpusConfig(seed=1, count=1)
        for name, ov, message in (
                ("lemma2", {"c1": 1}, "^lemma2 takes no constants, so no c1$"),
                ("latala", {"c2": 1},
                 "^latala_sharp has fixed constants, so no c2$"),
                ("latala_alt", {"c1": 1, "c2": 1},
                 "^latala_alt has fixed constants, so no c1$"),
                ("theorem1", {"c2": 0}, "constants for theorem1 must be"),
                ("nope", {"c1": 1}, "unknown claim 'nope'")):
            for claims in (["theorem1"], ["corollary4"]):
                with pytest.raises(ValueError, match=message):
                    run_corpus(cfg, claims, overrides={name: ov})

    def test_empty_override_of_fixed_constants_is_a_no_op(self):
        cfg = CorpusConfig(seed=3, count=4, max_k=2)
        plain = run_corpus(cfg, ["latala_sharp", "lemma2"]).to_jsonable()
        assert run_corpus(cfg, ["latala_sharp", "lemma2"], overrides={
            "latala_sharp": {}, "lemma2": {}}).to_jsonable() == plain

    def test_override_constants_are_exact(self):
        cfg = CorpusConfig(seed=1, count=1, max_k=2)
        with pytest.raises(TypeError, match="float"):
            run_corpus(cfg, ["theorem1"], overrides={"theorem1": {"c1": 0.1}})
        rep = run_corpus(cfg, ["theorem1"],
                         overrides={"theorem1": {"c1": "1/10"}})
        params = {json.loads(row["params"])["c1"] for row in rep.rows}
        assert params == {"1/10"}

    def test_latala_alt_runs_all_constant_pairs(self):
        cfg = CorpusConfig(seed=9, count=3, max_k=2)
        rep = run_corpus(cfg, ["latala_alt"])
        assert rep.violated == 0
        pairs = set()
        for row in rep.rows:
            params = json.loads(row["params"])
            pairs.add((params["c1"], params["c2"]))
        want = {(str(a), str(b)) for _, constants in
                CLAIMS["latala_alt"].shapes for a, b in constants}
        assert {(a, b) for a, b in pairs} == want

    def test_skipped_instances_are_recorded(self):
        # a tiny support cap forces convolution blowups to be skipped
        cfg = CorpusConfig(seed=31, count=6, max_atoms=5, max_k=6)
        rep = run_corpus(cfg, ["theorem1"], cap=8)
        assert rep.skipped
        assert all("support" in s["reason"] for s in rep.skipped)
        assert rep.total_checks == len(rep.rows)

    def test_claim_subset_only_runs_requested(self):
        cfg = CorpusConfig(seed=13, count=4, max_k=3)
        rep = run_corpus(cfg, ["levy", "corollary4"])
        assert set(rep.per_claim) == {"levy_ottaviani", "corollary4"}

    @pytest.mark.parametrize("claim", ["lemma2", "corollary3"])
    @pytest.mark.parametrize("dims, count", [((2,), 3), ((1, 2), 6)])
    def test_instance_with_no_checks_builds_no_walk(self, claim, dims,
                                                    count):
        """lemma2 and corollary3 judge no index on an instance above
        dimension 1: such an instance gives no checks and no walk, whose
        reads would hold no sum."""
        cfg = CorpusConfig(seed=1, count=count, dims=dims)
        rep = run_corpus(cfg, [claim])
        laws = [d for d, _ in generate_corpus(cfg)]
        assert {d.dim for d in laws} == set(dims)
        assert {row["instance"] for row in rep.rows} <= \
            {i for i, d in enumerate(laws) if d.dim == 1}
        assert not rep.skipped
        assert rep.total_checks == len(rep.rows)
        assert bool(rep.rows) == (1 in dims)


def test_exact_fields_render_past_the_int_string_limit():
    """A row's exact field, from an unreduced int pair, is the text jsonify
    gives its Fraction, on either side of the interpreter's 4300-digit
    limit on int to string conversion."""
    big = 7 ** 6000   # 5071 digits
    for n, d in ((6, 4), (-12, 3), (3 * big, 3), (2 * big, 14), (-5, big)):
        text = corpus._exact((n, d))
        assert text == jsonify(F(n, d))
        num, _, den = text.partition("/")
        assert F(int(Decimal(num)), int(Decimal(den or 1))) == F(n, d)
    assert corpus._exact((6, 4)) == "3/2" and corpus._exact((-12, 3)) == "-4"


@given(st.integers(4301, 60_000), st.integers(0, 2 ** 64),
       st.sampled_from([1, -1]))
@example(1, 0, 1)        # 0 and 10**4300, the first int of 4301 digits
@example(4301, 0, -1)
@settings(max_examples=25, deadline=None)
def test_decimal_of_a_long_int_is_exact(digits, seed, sign):
    """ratio_text's conversion of an int past the 4300-digit limit, by
    halves at powers of 2, equals Decimal(n) digit for digit, for ints of
    4301 to 60,000 digits of both signs, and for 0."""
    low = 10 ** (digits - 1) if digits > 1 else 0
    n = sign * random.Random(seed).randrange(low, 10 * low or 1)
    with localcontext(reports._EXACT):
        got = reports._decimal(n)
    assert got.as_tuple() == Decimal(n).as_tuple()


def test_decimal_is_exact_in_a_rounding_context():
    """_decimal works in its own exact context, so a call under a rounding
    one neither rounds nor caches a rounded power of 2 for later calls."""
    n = -random.Random(5).getrandbits(1 << 15)
    reports._power_of_2.cache_clear()
    with localcontext() as ctx:
        ctx.prec = 28
        got = reports._decimal(n)
    with localcontext(reports._EXACT):
        again = reports._decimal(n)
    reports._power_of_2.cache_clear()
    assert got.as_tuple() == again.as_tuple() == Decimal(n).as_tuple()


class TestCsv:
    def test_columns_and_rows(self, tmp_path):
        cfg = CorpusConfig(seed=17, count=4, max_k=3)
        rep = run_corpus(cfg, ["theorem1", "lemma2"])
        path = tmp_path / "corpus.csv"
        write_csv(rep, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == rep.total_checks + 1
        status_col = rows[0].index("status")
        assert {r[status_col] for r in rows[1:]} <= \
            {"holds", "violated", "vacuous"}


# texts a field may hold: the characters csv.writer quotes, non-ASCII ones
# and anything else
FIELD_TEXT = st.text(st.one_of(st.sampled_from(list(',"\r\n é€😀{}: ')),
                               st.characters()), max_size=10)
RATIO_TEXT = st.builds(lambda n, d: str(F(n, d)), st.integers(),
                       st.integers(1, 10 ** 30))
FLOATS = st.one_of(st.none(), st.sampled_from(
    [1e16, 5e-324, -0.0, 0.1 + 0.2, float("inf"), float("nan")]),
    st.floats())


@st.composite
def csv_groups(draw):
    """Row groups as _absorb keeps them, heads quoted as _item does."""
    groups = []
    for _ in range(draw(st.integers(0, 4))):
        claim = draw(st.sampled_from(DEFAULT_CLAIMS) | FIELD_TEXT)
        texts = draw(st.lists(FIELD_TEXT, min_size=1, max_size=2))
        ts = draw(st.lists(st.none() | RATIO_TEXT, min_size=len(texts),
                           max_size=len(texts)))
        ratios = [draw(st.none() | RATIO_TEXT) for _ in range(3)]
        tail = (*ratios, draw(FLOATS),
                draw(st.sampled_from(["holds", "violated", "vacuous"])),
                draw(st.none() | FIELD_TEXT))
        groups.append((draw(st.integers(0, 10 ** 6)), claim, texts,
                       [corpus._head(claim, text) for text in texts], ts,
                       tail))
    return groups


def _uncommon_groups():
    """One group whose params hold a lone quote and whose note a lone CR:
    csv.writer doubles the one and quotes the other."""
    return [(0, "lemma2", ['{"t": "1/2"}', ""], [
        corpus._head("lemma2", '{"t": "1/2"}'), corpus._head("lemma2", "")],
        ["1/2", None], ("3/2", None, "-1", -0.0, "violated", "a\rb"))]


def _surrogate_groups():
    """One group whose note is a lone surrogate, which UTF-8 cannot
    encode."""
    return [(0, "lemma2", ['{"t": "1"}'], [corpus._head("lemma2",
                                                        '{"t": "1"}')],
             ["1"], ("1", "3", "2", 2.0, "holds", "\ud800"))]


@given(csv_groups())
@example(_uncommon_groups())
@example(_surrogate_groups())
@settings(max_examples=200, deadline=None)
def test_csv_text_is_csv_writer_s(tmp_path_factory, groups):
    """write_csv writes the bytes that csv.writer writes from the rows:
    fields with commas, quotes, CR, LF and non-ASCII characters, None and
    the empty string, and floats by their repr; where csv.writer raises
    (a lone surrogate has no UTF-8), write_csv raises the same error."""
    report = corpus.CorpusReport(CorpusConfig(seed=0, count=1), [],
                                 groups=groups)
    path = tmp_path_factory.mktemp("csv") / "corpus.csv"
    want = path.with_name("want.csv")
    try:
        with open(want, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerows([row[c] for c in CSV_COLUMNS]
                             for row in report.rows)
    except Exception as exc:
        with pytest.raises(type(exc)):
            write_csv(report, path)
        return
    write_csv(report, path)
    assert path.read_bytes() == want.read_bytes()


def test_running_max_pass_takes_one_step_per_horizon(monkeypatch):
    """levy_ottaviani and corollary4 at k = 1..K read every S_i and every
    running max of an instance from one pass: K steps in all, not one
    restart per horizon, and no atom pair beyond those of the fused
    running-max steps (_split) of a lone max_curve walk, so no plain fold
    of S_1..S_K (_convolve_lattice) runs beside it."""
    from iidtails import dists
    steps, pairs = [0], [0]
    one_pass, split = dists._dict_steps, dists._split
    convolve = dists._convolve_lattice

    def counted_steps(*args):
        for step in one_pass(*args):
            steps[0] += 1
            yield step

    def counted_split(buckets, term, gauge, cap):
        pairs[0] += sum(len(atoms) for atoms, _ in buckets.values()) \
            * len(term[0])
        return split(buckets, term, gauge, cap)

    def counted_convolve(a, b, cap):
        pairs[0] += len(a[0]) * len(b[0])
        return convolve(a, b, cap)

    monkeypatch.setattr(dists, "_dict_steps", counted_steps)
    monkeypatch.setattr(dists, "_split", counted_split)
    monkeypatch.setattr(dists, "_convolve_lattice", counted_convolve)
    K = 5
    config = CorpusConfig(seed=3, count=4, max_k=K)
    rep = run_corpus(config, ["levy_ottaviani", "corollary4"])
    assert rep.total_checks == 4 * 2 * 2 * K and not rep.skipped
    assert steps[0] == 4 * K
    in_corpus, pairs[0] = pairs[0], 0
    for dist, norm in generate_corpus(config):
        dists._Walk(*dists._encode([dist]), {K, dists.MAX},
                    dists.DEFAULT_SUPPORT_CAP, norm).max_curve(K)
    assert in_corpus == pairs[0] > 0


def test_params_render_cache_is_per_call(monkeypatch):
    """Rows render each distinct params once per run_corpus call: two calls
    give equal rows, each renders every text afresh from an empty cache of
    its own, and rows with equal params share one rendered string."""
    from iidtails import corpus
    rendered, caches, lay_out = [], [], corpus._item

    def counted(*args):
        parts = args[-1]
        if not any(parts is c for c in caches):
            assert not parts
            caches.append(parts)
        item = lay_out(*args)
        rendered.extend(item[1])
        return item

    monkeypatch.setattr(corpus, "_item", counted)
    config = CorpusConfig(seed=5, count=4, max_k=3)
    first = run_corpus(config)
    once = len(rendered)
    second = run_corpus(config)
    assert len(caches) == 2 and len(rendered) == 2 * once
    assert first.rows == second.rows
    by_text = {}
    for row in first.rows:
        assert by_text.setdefault(row["params"], row["params"]) \
            is row["params"]
    assert len(by_text) == once < len(first.rows)


# claims whose constants an override may replace
FREE_CONSTANTS = [name for name, spec in CLAIMS.items()
                  if spec.constants is not None and not spec.fixed]


@st.composite
def corpus_runs(draw):
    """A run_corpus call: claims in any order, so corollary5's drawn
    weights fall before, between or after the index claims; dims {1}, {2}
    or {1, 2} under any norms defined there; 0 to 4 instances, max_k 1 to
    6, 0 to 3 weight vectors; overrides; and at times a cap that skips
    instances."""
    claims = draw(st.lists(st.sampled_from(list(CLAIMS)), min_size=1,
                           unique=True))
    dims = draw(st.sampled_from([(1,), (2,), (1, 2)]))
    norms = draw(st.lists(st.sampled_from(list(Norm)), min_size=1,
                          unique=True))
    if not any(n.defined_in(max(dims)) for n in norms):
        norms.append(Norm.SUP)
    config = CorpusConfig(
        seed=draw(st.integers(0, 2 ** 64 - 1)), count=draw(st.integers(0, 4)),
        max_k=draw(st.integers(1, 6)), dims=dims, norms=tuple(norms),
        weight_vectors=draw(st.integers(0, 3)))
    constants = st.builds(F, st.integers(1, 12), st.integers(1, 4))
    overrides = draw(st.dictionaries(st.sampled_from(FREE_CONSTANTS),
                                     st.fixed_dictionaries({
                                         "c1": constants, "c2": constants}),
                                     max_size=2))
    return config, claims, draw(st.sampled_from([40, 2_000_000])), overrides


# four instances under three norms, in dimensions 1 and 2
MIXED = CorpusConfig(seed=2, count=4, max_k=4, dims=(1, 2),
                     norms=tuple(Norm), weight_vectors=3)


@given(corpus_runs())
@example((MIXED, ["corollary5", "theorem1", "lemma2", "corollary6"],
          2_000_000, {"corollary5": {"c1": 1, "c2": 1}}))
@example((MIXED, ["levy_ottaviani", "corollary3", "latala_alt",
                  "corollary5"], 2_000_000, {}))
@example((CorpusConfig(seed=1, count=5, max_k=3, dims=(1, 2),
                       norms=tuple(Norm)), list(CLAIMS), 40,
          {"theorem1": {"c1": 1, "c2": 1}}))
@settings(max_examples=100, deadline=None)
def test_run_corpus_writes_the_per_instance_layout(tmp_path_factory, run):
    """run_corpus, laying the plan out once per run, and write_csv give the
    rows and bytes of the plan laid out afresh on every instance and
    written by csv.writer (oracles.per_instance_corpus)."""
    config, claims, cap, overrides = run
    rep = run_corpus(config, claims, cap, overrides)
    path = tmp_path_factory.mktemp("csv") / "corpus.csv"
    write_csv(rep, path)
    rows, text = per_instance_corpus(config, claims, cap, overrides)
    assert rep.rows == rows
    assert path.read_bytes() == text


def test_max_k_one_draws_single_weights():
    """At max_k = 1 corollary5 draws one weight per vector (k in [1, 1])
    instead of failing in the generator; latala_sharp still runs at (1, 2)."""
    rep = run_corpus(CorpusConfig(seed=4, count=3, max_k=1),
                     ["corollary5", "latala_sharp"])
    assert {json.loads(r["params"])["k"] for r in rep.rows
            if r["claim"] == "corollary5"} == {1}
    assert rep.per_claim["latala_sharp"]["checks"] == 3 * 2
    assert rep.per_claim["corollary5"]["checks"] == 3 * 2 * 2


def test_run_corpus_judges_each_grid_entry_once(monkeypatch):
    """Every distinct (plan entry, grid entry) is judged once per
    run_corpus call, when it first enters an instance's plan; later
    instances with the same grid entry, the walk's sizing and the checks
    read the judged entry.  A sweep entry gives one row per mode pair, an
    evaluated one a row, so the distinct params of the rows, modes left
    out, are the judged entries."""
    calls = count_judgements(monkeypatch, corpus)
    config = CorpusConfig(seed=7, count=5, max_k=4)
    rep = run_corpus(config)
    assert not rep.skipped
    entries = {(row["claim"], json.dumps(
        {n: v for n, v in json.loads(row["params"]).items() if n != "modes"},
        sort_keys=True)) for row in rep.rows}
    evaluated = sum(CLAIMS[row["claim"]].evaluate is not None
                    for row in rep.rows)
    assert evaluated and len(calls) == len(entries) < \
        evaluated + (len(rep.rows) - evaluated) // len(MODE_PAIRS)
    calls.clear()
    run_corpus(config)
    assert len(calls) == len(entries)


def test_claim_reports_judges_each_shape_once(monkeypatch):
    """latala_alt checks two shapes at two constant pairs each: one
    judgement per shape, at latala_alt's own defaults (corollary4's form
    at k = 2, not corollary4's k = 4)."""
    calls = count_judgements(monkeypatch)
    reports = claim_reports(CLAIMS["latala_alt"], [coin()], Norm.ABS1D, {})
    assert calls == ["theorem1", "corollary4"]
    assert [(r.params["shape"], r.params.get("j"), r.params["k"])
            for r in reports] == [("theorem1", 1, 2)] * 2 + \
        [("corollary4", None, 2)] * 2


def test_claim_reports_fills_the_claim_defaults():
    """Parameters not given take the claim's defaults: theorem1 at
    (j, k) = (1, 2), corollary3 at k = 3; a threshold has none."""
    (rep,) = claim_reports(CLAIMS["theorem1"], [coin()], Norm.ABS1D, {})
    assert (rep.params["j"], rep.params["k"]) == (1, 2)
    (rep,) = claim_reports(CLAIMS["corollary3"], [coin()], Norm.ABS1D,
                           {"t": 1})
    assert rep.params["k"] == 3
    for claim in ("lemma2", "corollary3"):
        with pytest.raises(ValueError, match=f"^{claim} needs t$"):
            claim_reports(CLAIMS[claim], [coin()], Norm.ABS1D, {})


def test_claim_reports_refuses_a_name_the_claim_does_not_take():
    """A given name (not None) that the claim does not take is refused, in
    the words verify refuses its flag: theorem1's t or alphas, corollary4's
    j, lemma2's k.  latala_alt's j reaches its theorem1 shape beside
    corollary4's k, corollary5 takes k as the number of its weights, and
    latala_sharp takes j and k at the (1, 2) it fixes."""
    for claim, given, name in (("theorem1", {"t": 1}, "t"),
                               ("theorem1", {"alphas": [1]}, "alphas"),
                               ("corollary4", {"j": 1, "k": 2}, "j"),
                               ("lemma2", {"k": 1, "t": 1}, "k"),
                               ("latala_sharp", {"j": 1, "k": 3}, "k")):
        with pytest.raises(ValueError,
                           match=f"^{claim} does not take {name}$"):
            claim_reports(CLAIMS[claim], [coin()], Norm.ABS1D, given)
    theorem1 = claim_reports(CLAIMS["theorem1"], [coin()], Norm.ABS1D, {})
    assert claim_reports(CLAIMS["theorem1"], [coin()], Norm.ABS1D,
                         {"t": None, "alphas": None}) == theorem1
    alt = claim_reports(CLAIMS["latala_alt"], [coin()], Norm.ABS1D,
                        {"j": 2, "k": 3})
    assert [(r.params["shape"], r.params.get("j"), r.params["k"])
            for r in alt] == [("theorem1", 2, 3)] * 2 + \
        [("corollary4", None, 3)] * 2
    (rep,) = claim_reports(CLAIMS["corollary5"], [coin()], Norm.ABS1D,
                           {"alphas": [1, F(1, 2)], "k": 2})
    assert rep.params["k"] == 2
    sharp = CLAIMS["latala_sharp"]
    assert claim_reports(sharp, [coin()], Norm.ABS1D, {"j": 1, "k": 2}) == \
        claim_reports(sharp, [coin()], Norm.ABS1D, {})


def test_claim_reports_refuses_what_an_evaluated_claim_does_not_take():
    """lemma2 and corollary3 take no tail mode and no norm but abs1d:
    claim_reports refuses the rest with Refused, naming the parameter,
    and takes abs1d as it takes no norm."""
    for claim in ("lemma2", "corollary3"):
        for kw, name, value in (({"norm": Norm.SUP}, "norm", "sup"),
                                ({"lhs_mode": "weak"}, "lhs_mode", "weak"),
                                ({"rhs_mode": "strict"}, "rhs_mode",
                                 "strict")):
            with pytest.raises(Refused, match=f"^{claim} does not take "
                               f"{name} {value}$") as got:
                claim_reports(CLAIMS[claim], [coin()], given={"t": 1}, **kw)
            assert got.value.name == name
        assert claim_reports(CLAIMS[claim], [coin()], Norm.ABS1D,
                             {"t": 1}) == \
            claim_reports(CLAIMS[claim], [coin()], given={"t": 1})


FALSE_CONSTANTS = {"theorem1": {"c1": 1, "c2": 1},
                   "corollary4": {"c1": 1, "c2": 1}}


def _verify_row(row, dist, norm, overrides, cap) -> dict:
    """The row of one corpus check as verify gives it: claim_reports on the
    instance's law at the row's claim, indices, constants and mode pair,
    the report whose params echo the row's, rendered field by field."""
    params = json.loads(row["params"])
    spec = CLAIMS[row["claim"]]
    given = {n: params[n] for n in ("j", "k") if n in params}
    if "t" in params:
        given["t"] = F(params["t"])
    if "alphas" in params:
        given["alphas"] = [F(a) for a in params["alphas"]]
    constants = overrides.get(spec.claim_id, {})
    # an evaluated row echoes no norm and no modes, and verify passes none
    modes = params.get("modes", (None, None))
    reports = [rep.to_jsonable() for rep in claim_reports(
        spec, [dist], norm if "modes" in params else None, given,
        constants.get("c1"), constants.get("c2"), *modes, cap=cap)]
    (doc,) = [doc for doc in reports if doc["params"] == params]
    return {"params": params, "margin_float_approx": None
            if doc["margin"] is None else float(F(doc["margin"])),
            **{n: doc[n] for n in ("worst_t", "lhs", "rhs", "margin",
                                   "status", "note")}}


@pytest.mark.parametrize("seed, cap", [(1, 40), (7, 2_000_000)])
def test_every_row_is_verify_s_report(seed, cap):
    """Each run_corpus row equals the row rendered from verify's report
    (claim_reports) for the same instance, claim, params and mode pair,
    over dims 1 and 2, all three norms and all nine claims, with constants
    that give violations.  At cap 40 (seed 1) instances are skipped, and a
    skipped instance gives no row, so verify succeeds on every row's
    instance: both check an instance all or nothing."""
    config = CorpusConfig(seed=seed, count=8, max_k=3, dims=(1, 2),
                          norms=tuple(Norm))
    rep = run_corpus(config, None, cap, FALSE_CONSTANTS)
    instances = generate_corpus(config)
    skipped = {s["instance"] for s in rep.skipped}
    for row in rep.rows:
        dist, norm = instances[row["instance"]]
        fields = _verify_row(row, dist, norm, FALSE_CONSTANTS, cap)
        assert {n: json.loads(row["params"]) if n == "params" else row[n]
                for n in fields} == fields
    assert {row["claim"] for row in rep.rows} == set(CLAIMS)
    assert {(instances[row["instance"]][0].dim, instances[row["instance"]][1])
            for row in rep.rows} >= \
        ({(1, Norm.ABS1D), (1, Norm.SUP), (2, Norm.EUCLIDEAN)} if seed == 1
         else {(1, n) for n in Norm} | {(2, Norm.SUP), (2, Norm.EUCLIDEAN)})
    assert any(row["status"] == "violated" for row in rep.rows)
    assert bool(skipped) == (cap == 40)
    assert skipped.isdisjoint(row["instance"] for row in rep.rows)
    assert {s["reason"] for s in rep.skipped} <= \
        {f"support size {cap + 1} exceeds cap {cap}"}


def test_a_skipped_instance_adds_nothing():
    """An instance whose walk passes the cap is skipped whole: the run at
    cap 40, where instances 2 and 4 pass it, has exactly the rows, counts,
    worst case and violations of the uncapped run without them, and verify
    (claim_reports) of the running max at max_k fails on each skipped
    instance with the reason the corpus gives."""
    config = CorpusConfig(seed=1, count=8, max_k=3, dims=(1, 2),
                          norms=tuple(Norm))
    capped = run_corpus(config, None, 40, FALSE_CONSTANTS)
    full = run_corpus(config, None, overrides=FALSE_CONSTANTS)
    skipped = {s["instance"] for s in capped.skipped}
    assert skipped == {2, 4} and not full.skipped
    rows = [row for row in full.rows if row["instance"] not in skipped]
    assert capped.rows == rows and capped.total_checks == len(rows)
    per_claim = {}
    for row in rows:
        stats = per_claim.setdefault(row["claim"], {
            "checks": 0, "holds": 0, "violated": 0, "vacuous": 0})
        stats["checks"] += 1
        stats[row["status"]] += 1
    assert capped.per_claim == per_claim
    least = min(F(row["margin"]) for row in rows if row["margin"])
    first = next(row for row in rows if row["margin"]
                 and F(row["margin"]) == least)
    assert capped.worst == {"instance": first["instance"],
                            "claim": first["claim"], "margin": least,
                            **{n: F(first[n]) for n in ("worst_t", "lhs",
                                                        "rhs")}}
    assert len(full.violations) < 100 and capped.violations == [
        v for v in full.violations if v["instance"] not in skipped]
    assert capped.violations and full.worst["instance"] in skipped
    instances = generate_corpus(config)
    for skip in capped.skipped:
        with pytest.raises(SupportCapExceeded) as exc:
            dist, norm = instances[skip["instance"]]
            claim_reports(CLAIMS["corollary4"], [dist], norm, {"k": 3},
                          cap=40)
        assert str(exc.value) == skip["reason"]

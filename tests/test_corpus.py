import csv
import json
from fractions import Fraction as F

import pytest

from iidtails.checks import CLAIMS
from iidtails.corpus import (
    CSV_COLUMNS,
    CorpusConfig,
    DEFAULT_CLAIMS,
    generate_corpus,
    normalize_claims,
    run_corpus,
    write_csv,
)
from iidtails.dists import Norm


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

    def test_seed_range(self):
        """An instance's Philox key puts the seed above 64 bits of index,
        so a corpus seed is refused outside [0, 2**64)."""
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError, match=r"seed must be in "
                                                 r"\[0, 2\*\*64\)"):
                CorpusConfig(seed=seed, count=1)
        cfg = CorpusConfig(seed=2 ** 64 - 1, count=2)
        assert len(generate_corpus(cfg)) == 2

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


def test_running_max_pass_takes_one_step_per_horizon(monkeypatch):
    """levy_ottaviani and corollary4 at k = 1..K read every S_i and every
    running max of an instance from one pass: K steps in all, not one
    restart per horizon, and no atom pair beyond those of the bucketed pass
    alone, so no plain fold of S_1..S_K runs beside it."""
    from iidtails import dists
    steps, pairs = [0], [0]
    one_pass, convolve = dists._Walk.steps, dists._convolve_lattice

    def counted_steps(*args):
        for buckets in one_pass(*args):
            steps[0] += 1
            yield buckets

    def counted_pairs(a, b, cap):
        pairs[0] += len(a[0]) * len(b[0])
        return convolve(a, b, cap)

    monkeypatch.setattr(dists._Walk, "steps", counted_steps)
    monkeypatch.setattr(dists, "_convolve_lattice", counted_pairs)
    K = 5
    config = CorpusConfig(seed=3, count=4, max_k=K)
    rep = run_corpus(config, ["levy_ottaviani", "corollary4"])
    assert rep.total_checks == 4 * 2 * 2 * K and not rep.skipped
    assert steps[0] == 4 * K
    in_corpus, pairs[0] = pairs[0], 0
    for dist, norm in generate_corpus(config):
        for _ in dists._Walk([dist], K, dists.DEFAULT_SUPPORT_CAP).maxima(norm):
            pass
    assert in_corpus == pairs[0] > 0


def test_params_render_cache_is_per_call(monkeypatch):
    """Rows render each distinct params once per run_corpus call: two calls
    give equal rows, each call starts from an empty cache of its own, and
    rows with equal params share one rendered string."""
    from iidtails import corpus
    caches = []
    absorb = corpus._absorb

    def watched(report, index, dist, rep, rendered):
        if not any(rendered is c for c in caches):
            assert not rendered
            caches.append(rendered)
        return absorb(report, index, dist, rep, rendered)

    monkeypatch.setattr(corpus, "_absorb", watched)
    config = CorpusConfig(seed=5, count=4, max_k=3)
    first, second = run_corpus(config), run_corpus(config)
    assert len(caches) == 2
    assert first.rows == second.rows
    by_text = {}
    for row in first.rows:
        assert by_text.setdefault(row["params"], row["params"]) \
            is row["params"]
    assert len(by_text) == len(caches[0]) < len(first.rows)


def test_max_k_one_draws_single_weights():
    """At max_k = 1 corollary5 draws one weight per vector (k in [1, 1])
    instead of failing in the generator; latala_sharp still runs at (1, 2)."""
    rep = run_corpus(CorpusConfig(seed=4, count=3, max_k=1),
                     ["corollary5", "latala_sharp"])
    assert {json.loads(r["params"])["k"] for r in rep.rows
            if r["claim"] == "corollary5"} == {1}
    assert rep.per_claim["latala_sharp"]["checks"] == 3 * 2
    assert rep.per_claim["corollary5"]["checks"] == 3 * 2 * 2

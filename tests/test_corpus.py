import csv
import json
from fractions import Fraction as F

import pytest

from iidtails.corpus import (
    CSV_COLUMNS,
    CorpusConfig,
    DEFAULT_CLAIMS,
    LATALA_COROLLARY4,
    LATALA_THEOREM1,
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

    def test_jsonable(self):
        d = CorpusConfig(seed=3, count=2).to_jsonable()
        assert d["seed"] == 3 and d["norms"] == ["abs1d"]


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
        assert w["report"]["status"] == "violated"
        assert w["report"]["witness"] is not None
        assert "atoms" in w["dist"]

    def test_override_rejects_unknown_or_nonpositive(self):
        cfg = CorpusConfig(seed=1, count=1)
        with pytest.raises(ValueError):
            run_corpus(cfg, ["theorem1"], overrides={"lemma2": {"c1": 1}})
        with pytest.raises(ValueError):
            run_corpus(cfg, ["theorem1"],
                       overrides={"theorem1": {"c1": 0}})

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
        want = {(str(a), str(b)) for a, b in LATALA_THEOREM1}
        want |= {(str(a), str(b)) for a, b in LATALA_COROLLARY4}
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

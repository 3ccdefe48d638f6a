import re
from fractions import Fraction as F

import numpy as np
import pytest

from iidtails.checks import CLAIMS, Refused, check_corollary4, claim_reports
from iidtails.dists import Norm, default_norm, iid_sum, tail
from iidtails.montecarlo import (
    _BATCH,
    FAMILIES,
    MC_CLAIMS,
    SamplerSpec,
    _draw,
    clopper_pearson,
    estimate_tail,
    mc_check,
    mc_seed_limit,
)
from oracles import coin, dist1d


def coin_spec():
    return SamplerSpec("discrete", {"atoms": [{"x": -1, "p": "1/2"},
                                              {"x": 1, "p": "1/2"}]})


class TestSamplerSpec:
    def test_discrete_requires_unit_mass(self):
        with pytest.raises(ValueError, match="sum"):
            SamplerSpec("discrete", {"atoms": [{"x": 0, "p": "1/3"},
                                               {"x": 1, "p": "1/3"}]})

    def test_discrete_checks_dimension(self):
        with pytest.raises(ValueError, match="dim"):
            SamplerSpec("discrete", {"atoms": [{"x": [0, 0], "p": 1}]},
                        dim=3)
        # one location is a scalar, broadcast to every coordinate; a
        # one-entry list is a point of dimension 1
        SamplerSpec("discrete", {"atoms": [{"x": 1, "p": 1}]}, dim=2)
        with pytest.raises(ValueError, match="dim"):
            SamplerSpec("discrete", {"atoms": [{"x": [1], "p": 1}]}, dim=2)

    def test_gaussian_requires_positive_sigma(self):
        SamplerSpec("gaussian", {"mu": 0.0, "sigma": 2.0})
        with pytest.raises(ValueError):
            SamplerSpec("gaussian", {"mu": 0.0, "sigma": 0.0})

    def test_two_point_validation(self):
        SamplerSpec("two_point", {"a": -1.0, "b": 1.0, "p": 0.5})
        with pytest.raises(ValueError):
            SamplerSpec("two_point", {"a": -1.0, "b": 1.0, "p": 1.5})
        with pytest.raises(ValueError):
            SamplerSpec("two_point", {"a": -1.0, "b": 1.0, "p": 0.5}, dim=2)

    def test_pareto_validation(self):
        SamplerSpec("shifted_pareto", {"alpha": 2.0, "shift": -1.0})
        with pytest.raises(ValueError):
            SamplerSpec("shifted_pareto", {"alpha": 0.0})

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            SamplerSpec("cauchy", {})

    def test_one_dimensional_families_refuse_higher_dims(self):
        for family, params in (("two_point", {"a": 1, "b": -1, "p": 0.5}),
                               ("shifted_pareto", {})):
            with pytest.raises(ValueError, match=f"^{family} family is "
                                                 "one-dimensional$"):
                SamplerSpec(family, params, dim=2)

    def test_parameters_follow_the_family_table(self):
        with pytest.raises(ValueError, match="^two_point p is required$"):
            SamplerSpec("two_point", {"a": 1.0, "b": -1.0})
        with pytest.raises(ValueError, match="^gaussian sigmaa is unknown$"):
            SamplerSpec("gaussian", {"sigmaa": 2.0})
        with pytest.raises(ValueError, match="^shifted_pareto alpha must "):
            SamplerSpec("shifted_pareto", {"alpha": -1})
        # what is not given takes the table's default
        rng = np.random.Generator(np.random.Philox(key=4))
        want = np.random.Generator(np.random.Philox(key=4)).normal(
            0.0, 1.0, size=(3, 2, 2))
        assert np.array_equal(_draw(SamplerSpec("gaussian", {}, dim=2), rng,
                                    (3, 2)), want)

    def test_parameters_are_read_as_exact_rationals(self):
        """Every number parameter is read once, as a rational: "1/1000"
        draws the same summands as the float 0.001, and a value that is no
        rational is refused naming the parameter, with or without a rule."""
        rare = SamplerSpec("two_point", {"a": 1, "b": 0, "p": "1/1000"})
        as_float = SamplerSpec("two_point", {"a": 1.0, "b": 0.0, "p": 0.001})
        draws = [_draw(spec, np.random.Generator(np.random.Philox(key=7)),
                       (1000, 4)) for spec in (rare, as_float)]
        assert np.array_equal(*draws)
        assert set(np.unique(draws[0])) <= {0.0, 1.0}
        for family, name, value in (("two_point", "p", "x"),
                                    ("two_point", "a", [1]),
                                    ("two_point", "b", "1/0"),
                                    ("gaussian", "mu", float("nan")),
                                    ("gaussian", "sigma", "1/2/3")):
            params = {"a": 1, "b": 0, "p": "1/2"} \
                if family == "two_point" else {}
            with pytest.raises(ValueError, match=re.escape(
                    f"{family} {name} is not a rational: {value!r}")):
                SamplerSpec(family, {**params, name: value})

    def test_dim_below_one_is_refused(self):
        with pytest.raises(ValueError, match="^dim must be >= 1$"):
            SamplerSpec("gaussian", {}, dim=0)

    def test_every_family_draws_summands_of_its_dim(self):
        params = {"discrete": {"atoms": [{"x": [1, -1], "p": 1}]},
                  "two_point": {"a": 1, "b": -1, "p": 0.5}}
        for family, (_, one_dim, _) in FAMILIES.items():
            dim = 1 if one_dim else 2
            spec = SamplerSpec(family, params.get(family, {}), dim=dim)
            draws = _draw(spec, np.random.default_rng(0), (5, 3))
            assert draws.shape == (5, 3, dim) and draws.dtype == float


class TestClopperPearson:
    def test_zero_count_lower_is_zero(self):
        lo, hi = clopper_pearson(0, 100, 0.05)
        assert lo == 0.0 and 0 < hi < 0.06

    def test_full_count_upper_is_one(self):
        lo, hi = clopper_pearson(100, 100, 0.05)
        assert hi == 1.0 and 0.94 < lo < 1

    def test_no_samples_is_vacuous(self):
        assert clopper_pearson(0, 0, 0.05) == (0.0, 1.0)

    def test_interval_brackets_proportion(self):
        lo, hi = clopper_pearson(37, 200, 0.1)
        assert lo < 37 / 200 < hi

    def test_narrower_at_larger_delta(self):
        lo1, hi1 = clopper_pearson(40, 100, 0.01)
        lo2, hi2 = clopper_pearson(40, 100, 0.2)
        assert lo1 <= lo2 and hi2 <= hi1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            clopper_pearson(5, 4, 0.05)
        with pytest.raises(ValueError):
            clopper_pearson(1, 4, 0.0)
        with pytest.raises(ValueError):
            clopper_pearson(-1, 4, 0.05)

    @pytest.mark.parametrize("delta", [5, 0, -1])
    def test_judges_delta_with_no_samples(self, delta):
        """delta is judged before the n = 0 shortcut."""
        with pytest.raises(ValueError, match="delta must lie in"):
            clopper_pearson(0, 0, delta)

    @pytest.mark.parametrize("count, n, name", [
        (1.0, 4, "count"), (True, 4, "count"), (0, 4.0, "n"), (0, "4", "n")])
    def test_judges_count_and_n_as_ints(self, count, n, name):
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            clopper_pearson(count, n, 0.05)


class TestEstimateTail:
    def test_deterministic_given_seed(self):
        a = estimate_tail(coin_spec(), 3, 1.5, n_samples=20_000, seed=9)
        b = estimate_tail(coin_spec(), 3, 1.5, n_samples=20_000, seed=9)
        assert a == b
        c = estimate_tail(coin_spec(), 3, 1.5, n_samples=20_000, seed=10)
        assert a.count != c.count or a.seed != c.seed

    def test_default_norm_follows_the_dimension(self):
        assert default_norm(1) is Norm.ABS1D
        assert default_norm(2) is default_norm(3) is Norm.EUCLIDEAN
        plane = SamplerSpec("discrete", {"atoms": [
            {"x": [0, 0], "p": "1/2"}, {"x": [1, 1], "p": "1/2"}]}, dim=2)
        # |(1, 1)| is 1 under sup and sqrt(2) under the euclidean norm
        est = estimate_tail(plane, 1, 1.2, n_samples=500, seed=1)
        assert est == estimate_tail(plane, 1, 1.2, Norm.EUCLIDEAN,
                                    n_samples=500, seed=1)
        assert est.count > 0 == estimate_tail(plane, 1, 1.2, Norm.SUP,
                                              n_samples=500, seed=1).count

    def test_pinned_coin_interval_covers_truth(self):
        # Pr(|S_2| > 1) = 1/2 exactly
        est = estimate_tail(coin_spec(), 2, 1.0, n_samples=40_000, seed=4,
                            delta=0.01)
        assert est.lo < 0.5 < est.hi
        assert abs(est.estimate - 0.5) < 0.02

    def test_gaussian_threshold_zero_counts_everything(self):
        spec = SamplerSpec("gaussian", {"mu": 0.0, "sigma": 1.0})
        est = estimate_tail(spec, 4, 0.0, n_samples=500, seed=1)
        assert est.count == est.n_samples == 500
        assert est.estimate == 1.0

    def test_unreachable_threshold_counts_nothing(self):
        est = estimate_tail(coin_spec(), 2, 10.0, n_samples=1000, seed=2)
        assert est.count == 0 and est.lo == 0.0

    def test_shifted_pareto_interval_covers_the_tail(self):
        # shift + 1 + Lomax(alpha) exceeds t > shift + 1 with probability
        # (t - shift)**-alpha
        spec = SamplerSpec("shifted_pareto", {"alpha": 2.0, "shift": -1.0})
        for t in (F(1, 2), 1, 2):
            est = estimate_tail(spec, 1, t, n_samples=20_000, seed=3)
            assert est.lo <= float(t + 1) ** -2 <= est.hi

    def test_abs1d_refused_above_dimension_one(self):
        # as in the exact engine: a sup reading of abs1d is no answer
        plane = SamplerSpec("gaussian", {}, dim=2)
        with pytest.raises(ValueError, match="^abs1d norm requires dim"):
            estimate_tail(plane, 2, 1.0, Norm.ABS1D, n_samples=10)
        for n_samples in (10, 0):
            with pytest.raises(ValueError, match="^abs1d norm requires dim"):
                mc_check("theorem1", plane, None, 2, [1.0], norm=Norm.ABS1D,
                         n_samples=n_samples)

    def test_weights_change_the_law(self):
        est = estimate_tail(coin_spec(), 2, 1.0, weights=[1.0, 0.0],
                            n_samples=30_000, seed=3)
        # weighted sum collapses to one coin: Pr(|X| > 1) = 0
        assert est.count == 0

    def test_multidim_euclidean(self):
        spec = SamplerSpec("gaussian", {"mu": 0.0, "sigma": 1.0}, dim=3)
        est = estimate_tail(spec, 2, 0.0, norm=Norm.EUCLIDEAN,
                            n_samples=200, seed=5)
        assert est.estimate == 1.0

    def test_batch_size_independence(self):
        # 2^16 boundary: per-batch keyed streams make the count a function
        # of (seed, index) only, so totals agree across sample counts
        big = estimate_tail(coin_spec(), 1, 0.5, n_samples=(1 << 16) + 500,
                            seed=11)
        assert big.n_samples == (1 << 16) + 500

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            estimate_tail(coin_spec(), 0, 1.0)
        with pytest.raises(ValueError):
            estimate_tail(coin_spec(), 2, 1.0, n_samples=0)
        with pytest.raises(ValueError):
            estimate_tail(coin_spec(), 2, 1.0, delta=0.0)
        with pytest.raises(ValueError):
            estimate_tail(coin_spec(), 2, 1.0, weights=[1.0])
        with pytest.raises(ValueError, match="^t must be >= 0$"):
            estimate_tail(coin_spec(), 2, F(-1, 2))


class TestCalibration:
    def test_coverage_against_exact_value(self):
        # Pr(|S_3| > 1) for the coin: S_3 in {-3,-1,1,3}, each half either
        # side; |S_3| > 1 means +-3, probability 1/4
        truth = tail(iid_sum(coin(), 3), Norm.ABS1D, 1)
        assert truth == F(1, 4)
        hits = 0
        runs = 500
        for seed in range(runs):
            est = estimate_tail(coin_spec(), 3, 1.0, n_samples=400,
                                seed=seed, delta=0.1)
            if est.lo <= 0.25 <= est.hi:
                hits += 1
        assert hits / runs >= 0.87


class TestMcCheck:
    def test_claim_table(self):
        assert set(MC_CLAIMS) == {"theorem1", "corollary4", "corollary5",
                                  "corollary6", "latala_sharp"}

    def test_theorem1_holds(self):
        v = mc_check("theorem1", coin_spec(), j=1, k=2,
                     t_grid=[0.5, 1.5], n_samples=20_000, seed=0)
        assert v.status in ("holds", "inconclusive")
        assert all(r["verdict"] != "violated" for r in v.rows)

    def test_false_constants_flag_violation(self):
        v = mc_check("theorem1", coin_spec(), j=1, k=2, t_grid=[0.5],
                     c1=1.0, c2=1.0, n_samples=40_000, seed=1)
        assert v.status == "violated"
        row = v.rows[0]
        assert row["verdict"] == "violated"
        assert row["lhs"].lo > row["factor"] * row["rhs"].hi

    def test_zero_budget_inconclusive(self):
        v = mc_check("theorem1", coin_spec(), j=1, k=2, t_grid=[0.5],
                     n_samples=0, seed=0)
        assert v.status == "inconclusive"
        assert all(r["verdict"] == "inconclusive" for r in v.rows)

    def test_corollary5_weights_length(self):
        v = mc_check("corollary5", coin_spec(), j=None, k=2,
                     weights=[1.0, 0.5], t_grid=[0.5], n_samples=5000,
                     seed=2)
        assert v.status in ("holds", "inconclusive")
        with pytest.raises(ValueError):
            mc_check("corollary5", coin_spec(), j=None, k=2,
                     weights=[1.0], t_grid=[0.5])
        with pytest.raises(ValueError):
            mc_check("corollary5", coin_spec(), j=None, k=2,
                     weights=[1.0, 2.0], t_grid=[0.5])

    @pytest.mark.parametrize("claim", MC_CLAIMS)
    def test_indices_default_as_in_verify(self, claim):
        """j = k = None take the claim's defaults, the indices verify
        checks at (corollary5's k is the number of its weights); the
        factor reads the judged indices."""
        weights = [1, F(1, 2)] if claim == "corollary5" else None
        v = mc_check(claim, coin_spec(), None, None, [1], weights=weights,
                     n_samples=0)
        (rep,) = claim_reports(CLAIMS[claim], [coin()], Norm.ABS1D,
                               {} if weights is None else {"alphas": weights})
        assert (v.params.get("j"), v.params["k"]) == \
            (rep.params.get("j"), rep.params["k"])
        c1, (j, k) = v.params["c1"], (rep.params.get("j"), rep.params["k"])
        assert v.rows[0]["factor"] == float(CLAIMS[claim].factor(c1, j, k))

    def test_corollary6_index_order(self):
        v = mc_check("corollary6", coin_spec(), j=4, k=2, t_grid=[1.0],
                     n_samples=5000, seed=3)
        assert v.status in ("holds", "inconclusive")
        with pytest.raises(ValueError):
            mc_check("corollary6", coin_spec(), j=2, k=4, t_grid=[1.0])

    def test_rejects_unknown_claim_and_empty_grid(self):
        with pytest.raises(ValueError):
            mc_check("lemma2", coin_spec(), j=1, k=2, t_grid=[1.0])
        with pytest.raises(ValueError):
            mc_check("theorem1", coin_spec(), j=1, k=2, t_grid=[])
        with pytest.raises(ValueError, match="^n_samples must be >= 0$"):
            mc_check("theorem1", coin_spec(), j=1, k=2, t_grid=[1],
                     n_samples=-1)
        with pytest.raises(ValueError, match="^delta must lie in"):
            mc_check("theorem1", coin_spec(), j=1, k=2, t_grid=[1], delta=2)

    def test_latala_sharp_default_scale(self):
        v = mc_check("latala_sharp", coin_spec(), j=1, k=2, t_grid=[0.5],
                     n_samples=5000, seed=6)
        assert v.params["c1"] == 2 and v.params["c2"] == F(3, 2)
        assert v.status != "violated"

    def test_corollary4_lhs_is_the_running_max(self):
        # max(|S_1|, |S_2|) >= 1 on every coin path, while P(|S_2| > 1/2)
        # is 1/2: at c1 = c2 = 1 the claim fails, exactly and by sampling
        assert check_corollary4(coin(), 2, 1, 1).status == "violated"
        v = mc_check("corollary4", coin_spec(), j=None, k=2, t_grid=[0.5],
                     c1=1, c2=1, n_samples=5000, seed=0)
        assert v.rows[0]["lhs"].estimate == 1.0
        assert v.status == "violated"

    @pytest.mark.parametrize("claim, weights", [("corollary4", None),
                                                ("corollary5", [1.0, 0.5])])
    def test_j_only_where_the_claim_reads_it(self, claim, weights):
        """corollary4's left side is a running max and corollary5's a
        weighted sum: neither takes j, so any j is refused by the claim's
        own rule (checks._indices), naming j, and none is echoed."""
        run = dict(k=2, weights=weights, t_grid=[1.0], n_samples=100)
        for j in (1, 7):
            with pytest.raises(Refused, match=f"^{claim} does not take j$"):
                mc_check(claim, coin_spec(), j=j, **run)
        assert "j" not in mc_check(claim, coin_spec(), j=None, **run).params

    def test_j_defaults_to_the_claims(self):
        run = dict(k=2, t_grid=[0.5], n_samples=500, seed=4)
        for claim, j in (("theorem1", 1), ("corollary6", 2),
                         ("latala_sharp", 1)):
            v = mc_check(claim, coin_spec(), None, **run)
            assert v.params["j"] == j
            assert v == mc_check(claim, coin_spec(), j, **run)

    def test_latala_sharp_fixes_the_indices(self):
        for j, k in ((1, 3), (2, 2), (2, 1)):
            with pytest.raises(ValueError):
                mc_check("latala_sharp", coin_spec(), j=j, k=k,
                         t_grid=[0.5])

    def test_latala_sharp_refuses_constants(self):
        # the statement fixes (2, 3/2); other constants are another claim
        for c1, c2 in ((1, 1), (1, None), (None, F(3, 2))):
            with pytest.raises(ValueError, match="fixed constants"):
                mc_check("latala_sharp", coin_spec(), j=1, k=2,
                         t_grid=[0.5], c1=c1, c2=c2, n_samples=2000)

    def test_proven_claims_never_violated_across_seeds(self):
        for seed in range(8):
            v = mc_check("theorem1", coin_spec(), j=1, k=2,
                         t_grid=[0.25, 0.75, 1.25], n_samples=4000,
                         seed=seed)
            assert v.status != "violated"


class TestSeedRange:
    """A seed is one 64-bit word of a Philox key [seed, stream]."""

    def test_estimate_tail_takes_seeds_in_0_to_2_64(self):
        import warnings
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError, match=r"seed must be in "
                                                 r"\[0, 2\*\*64\)"):
                estimate_tail(coin_spec(), 2, 1, n_samples=10, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_tail(coin_spec(), 2, 1, n_samples=10,
                                seed=2 ** 64 - 1)
        assert est.seed == 2 ** 64 - 1

    def test_seeds_above_2_63_key_distinct_streams(self):
        """Keys are uint64 words: a list of Python ints above 2**63 would
        pass through float64 and map neighbouring seeds to one stream."""
        counts = {estimate_tail(coin_spec(), 9, 2, n_samples=400,
                                seed=seed).count
                  for seed in (2 ** 63, 2 ** 63 + 1, 2 ** 63 + 2)}
        assert len(counts) == 3

    def test_int_key_is_the_word_key(self):
        """A batch's Philox key is the int seed + (stream << 64), the same
        generator as the uint64 words [seed, stream]."""
        for seed, stream in ((0, 0), (5, 3), (2 ** 63 + 1, 7),
                             (2 ** 64 - 1, 2 ** 64 - 1)):
            words = np.array([seed, stream], dtype=np.uint64)
            a = np.random.Generator(np.random.Philox(key=words))
            b = np.random.Generator(np.random.Philox(key=seed + (stream << 64)))
            assert (a.random(64) == b.random(64)).all()

    def test_estimate_draws_from_the_word_keys(self):
        """estimate_tail's batches 0 and 1 draw from the word keys
        [seed, 0] and [seed, 1]."""
        seed, n = 2 ** 63 + 1, _BATCH + 300
        count = 0
        for stream, m in enumerate((_BATCH, n - _BATCH)):
            words = np.array([seed, stream], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=words))
            sums = _draw(coin_spec(), rng, (m, 3)).sum(axis=1)
            count += int(np.count_nonzero(np.abs(sums) > 1))
        assert estimate_tail(coin_spec(), 3, 1, n_samples=n,
                             seed=seed).count == count

    def test_mc_check_keys_every_row_below_2_64(self):
        """Row i of mc_check keys seed * 1000003 + 2i and + 2i + 1, so the
        largest seed depends on the number of thresholds."""
        grid = [0.5, 1.5]
        top = mc_seed_limit(len(grid)) - 1
        assert top * 1_000_003 + 2 * len(grid) - 1 < 2 ** 64 <= \
            (top + 1) * 1_000_003 + 2 * len(grid) - 1
        v = mc_check("theorem1", coin_spec(), j=1, k=2, t_grid=grid,
                     n_samples=10, seed=top)
        assert v.params["seed"] == top
        for seed in (-1, top + 1):
            with pytest.raises(ValueError, match="seed must be in"):
                mc_check("theorem1", coin_spec(), j=1, k=2, t_grid=grid,
                         n_samples=10, seed=seed)

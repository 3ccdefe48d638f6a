import json
import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iidtails.dists import DEFAULT_SUPPORT_CAP, DiscreteDist, Norm, delta
from iidtails.search import (
    SOUNDNESS_GUARDS,
    SearchSpace,
    SoundnessViolation,
    _guard,
    _score,
    _snap,
    probe_necessity,
    ratio_objective,
    ratio_objective_witness,
    search,
    snap_to_space,
)
from oracles import coin, dist1d, fraction_snap_to_space


class TestRatioObjective:
    def test_pinned_coin_c2_one(self):
        assert ratio_objective(coin(), 1, 2, 1) == 2

    def test_pinned_coin_c2_three_halves(self):
        assert ratio_objective(coin(), 1, 2, F(3, 2)) == 2

    def test_point_mass_at_zero(self):
        assert ratio_objective(delta(0), 1, 2, 1) == 0

    def test_infinite_when_rhs_vanishes_first(self):
        got = ratio_objective(delta(1), 1, 2, F(1, 4))
        assert got == math.inf

    def test_witness_threshold_attains_ratio(self):
        x = dist1d([(-1, F(1, 4)), (0, F(1, 2)), (3, F(1, 4))])
        value, q = ratio_objective_witness(x, 1, 3, 2)
        assert value > 0
        from iidtails.dists import iid_sum, tail
        lhs = tail(x, Norm.ABS1D, q)
        rhs = tail(iid_sum(x, 3), Norm.ABS1D, q / 2)
        assert lhs / rhs == value

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ratio_objective(coin(), 2, 1, 1)
        with pytest.raises(ValueError):
            ratio_objective(coin(), 1, 2, 0)

    def test_nonincreasing_in_c2(self):
        x = dist1d([(-2, F(1, 3)), (1, F(1, 3)), (2, F(1, 3))])
        grid = [F(1, 2), F(1), F(3, 2), F(2), F(3), F(10)]
        vals = [ratio_objective(x, 1, 2, c2) for c2 in grid]
        for a, b in zip(vals, vals[1:]):
            if a == math.inf:
                continue
            assert b != math.inf and b <= a


class TestSearchSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpace(n_atoms=1, j=1, k=2, c2=F(1))
        with pytest.raises(ValueError):
            SearchSpace(n_atoms=2, j=3, k=2, c2=F(1))
        with pytest.raises(ValueError):
            SearchSpace(n_atoms=2, j=1, k=2, c2=F(0))
        with pytest.raises(ValueError):
            SearchSpace(n_atoms=2, j=1, k=2, c2=F(1),
                        value_lo=F(1), value_hi=F(1))

    def test_indices_follow_the_theorem1_rule(self):
        for j, k in ((3, 2), (0, 2)):
            with pytest.raises(ValueError, match=rf"^need 1 <= j <= k, "
                                                 rf"got j={j}, k={k}$"):
                SearchSpace(n_atoms=3, j=j, k=k, c2=1)


class TestSnapToSpace:
    SPACE = SearchSpace(n_atoms=3, j=1, k=2, c2=F(1))

    def test_snaps_to_lattice_inside_box(self):
        d = snap_to_space([0.13, -7.9, 7.9, 1.0, 0.5], self.SPACE)
        assert d.dim == 1
        assert sum(d.atoms.values()) == 1
        for (v,), p in d.atoms.items():
            assert self.SPACE.value_lo <= v <= self.SPACE.value_hi
            assert (v * self.SPACE.lattice_denominator).denominator == 1
            assert p > 0

    def test_merges_coincident_atoms(self):
        d = snap_to_space([1.0, 1.0, 1.0, 1.0, 1.0], self.SPACE)
        assert len(d.atoms) == 1
        assert d.atoms[(F(1),)] == 1

    def test_deterministic(self):
        theta = [0.3, -1.2, 2.4, 0.7, 1.3]
        a = snap_to_space(theta, self.SPACE)
        b = snap_to_space(theta, self.SPACE)
        assert a.atoms == b.atoms

    def test_equal_laws_snap_to_equal_ints(self):
        """The snapped ints identify the law: atoms in another order or
        weights in proportion give the same tuple."""
        space = SearchSpace(n_atoms=2, j=1, k=2, c2=F(1))
        laws = {_snap(theta, space) for theta in
                ([1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [-1.0, 1.0, -1.0])}
        assert laws == {((-16, 1), (16, 1))}
        assert snap_to_space([1.0, -1.0, 1.0], space) == coin()

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="5 entries, got 4"):
            snap_to_space([0.3, -1.2, 2.4, 0.7], self.SPACE)


@st.composite
def spaces_and_thetas(draw):
    """A search space, some box edges off its lattice, and a parameter
    vector reaching past the box."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, 4))
    edges = st.builds(F, st.integers(-24, 24), st.integers(1, 4))
    lo, hi = sorted(draw(st.lists(edges, min_size=2, max_size=2,
                                  unique=True)))
    space = SearchSpace(
        n_atoms=n, j=draw(st.integers(1, k)), k=k,
        c2=draw(st.sampled_from([F(1, 2), F(1), F(10)])), value_lo=lo,
        value_hi=hi, norm=draw(st.sampled_from(list(Norm))),
        lattice_denominator=draw(st.integers(1, 16)),
        prob_denominator=draw(st.integers(1, 64)))
    coords = st.floats(-8, 8, allow_nan=False)
    return space, draw(st.lists(coords, min_size=2 * n - 1,
                                max_size=2 * n - 1))


@given(spaces_and_thetas())
@example((SearchSpace(n_atoms=3, j=1, k=2, c2=F(1), value_lo=F(-7, 3),
                      lattice_denominator=3),
          [-2.4, 0.1, 3.9, 0.5, 1.5]))
@settings(max_examples=150, deadline=None)
def test_lattice_score_matches_the_dist_path(case):
    """The search's score on the snapped ints is ratio_objective_witness of
    the snapped law, value and witness, and the snapped law is the
    Fraction decoding's."""
    space, theta = case
    dist = snap_to_space(theta, space)
    assert dist == fraction_snap_to_space(theta, space)
    assert _score(_snap(theta, space), space, DEFAULT_SUPPORT_CAP) == \
        ratio_objective_witness(dist, space.j, space.k, space.c2,
                                space.norm)


class TestSearch:
    def test_coin_ratio_reachable_at_c2_one(self):
        space = SearchSpace(n_atoms=2, j=1, k=2, c2=F(1))
        res = search(space, budget=2000, seed=1)
        assert res.evaluations <= 2000
        if res.achieved_ratio != math.inf:
            assert res.achieved_ratio >= 2

    def test_deterministic_given_seed(self):
        space = SearchSpace(n_atoms=2, j=1, k=2, c2=F(2))
        a = search(space, budget=400, seed=5)
        b = search(space, budget=400, seed=5)
        assert json.dumps(a.to_jsonable(), sort_keys=True) == \
            json.dumps(b.to_jsonable(), sort_keys=True)

    def test_result_rescores_exactly(self):
        space = SearchSpace(n_atoms=3, j=1, k=3, c2=F(2))
        res = search(space, budget=600, seed=3)
        again = ratio_objective(res.best_dist, 1, 3, F(2))
        assert again == res.achieved_ratio

    def test_guarded_scale_stays_below_bound(self):
        space = SearchSpace(n_atoms=3, j=1, k=2, c2=F(10))
        res = search(space, budget=800, seed=2)
        assert res.achieved_ratio != math.inf
        assert res.achieved_ratio <= 2

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            search(SearchSpace(n_atoms=2, j=1, k=2, c2=F(1)), budget=0)

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_rejects_restarts_below_one(self, restarts):
        with pytest.raises(ValueError, match=f"restarts must be >= 1, got "
                                             f"{restarts}"):
            search(SearchSpace(n_atoms=2, j=1, k=2, c2=F(1)), budget=5,
                   restarts=restarts)

    @pytest.mark.parametrize("seed", [-1, 2 ** 128])
    def test_rejects_seed_outside_the_key_range(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*128"):
            search(SearchSpace(n_atoms=2, j=1, k=2, c2=F(1)), budget=5,
                   seed=seed)

    @pytest.mark.parametrize("seed", [0, 2 ** 128 - 1])
    def test_accepts_seed_at_the_key_range_edges(self, seed):
        res = search(SearchSpace(n_atoms=2, j=1, k=2, c2=F(1)), budget=5,
                     restarts=1, seed=seed)
        assert res.seed == seed and res.evaluations == 5

    def test_scores_each_distinct_law_once(self, monkeypatch):
        """Every optimizer query counts as an evaluation, and each distinct
        snapped law is scored at its first query only."""
        snapped, scored = [], []

        def snap(theta, space):
            snapped.append(_snap(theta, space))
            return snapped[-1]

        def score(law, space, cap):
            scored.append(law)
            return _score(law, space, cap)

        # the package re-exports search(), which shadows the module name
        module = sys.modules["iidtails.search"]
        monkeypatch.setattr(module, "_snap", snap)
        monkeypatch.setattr(module, "_score", score)
        res = search(SearchSpace(n_atoms=3, j=1, k=2, c2=F(1)), budget=60,
                     restarts=2, seed=3)
        assert res.evaluations == 60 == len(snapped)
        assert scored == list(dict.fromkeys(snapped))
        assert len(scored) < len(snapped)    # the search revisits laws
        assert res.achieved_ratio == F(29282, 14657)


class TestGuards:
    def test_guard_table_is_fixed(self):
        assert SOUNDNESS_GUARDS == ((F(5), F(4)), (F(7), F(2)), (F(10), F(3)))

    def test_trips_on_forged_ratio(self):
        with pytest.raises(SoundnessViolation):
            _guard(F(7, 2), F(10))
        with pytest.raises(SoundnessViolation):
            _guard(F(5), F(7))
        with pytest.raises(SoundnessViolation):
            _guard(math.inf, F(5))
        # guards cascade: at c2 = 10 the c2 >= 7 bound of 2 binds too
        with pytest.raises(SoundnessViolation):
            _guard(F(3), F(10))

    def test_silent_below_scales(self):
        _guard(F(100), F(1))
        _guard(math.inf, F(4))
        _guard(F(2), F(10))
        _guard(F(4), F(5))


class TestProbeNecessity:
    def test_constant_family_locates_scale_one(self):
        out = probe_necessity("constant")
        assert out["claim"] == "corollary6"
        assert out["induced_c2_lower_bound"] == "1"
        by_c2 = {row["c2"]: row["ratio"] for row in out["rows"]}
        assert by_c2["1/2"] == "inf"

    def test_rare_bernoulli_ratios_are_reciprocal_p(self):
        out = probe_necessity(
            "rare_bernoulli",
            p_values=(F(1, 10), F(1, 100), F(1, 1000)))
        for row in out["rows"]:
            assert F(row["ratio"]) == 1 / F(row["p"])
        assert out["induced_c1_lower_bound"] == "1000"

    def test_pm_one_gives_two(self):
        out = probe_necessity("pm_one")
        assert out["induced_c1_lower_bound"] == "2"

    def test_rejects_unknown_family_and_bad_p(self):
        with pytest.raises(ValueError):
            probe_necessity("cauchy")
        with pytest.raises(ValueError):
            probe_necessity("rare_bernoulli", p_values=(F(2),))

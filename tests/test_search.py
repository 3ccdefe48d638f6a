import functools
import json
import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from iidtails.dists import DEFAULT_SUPPORT_CAP, DiscreteDist, Norm, delta
from iidtails.search import (
    N_ATOMS,
    SOUNDNESS_GUARDS,
    SearchSpace,
    SoundnessViolation,
    _guard,
    _initial_points,
    _nelder_mead,
    _score,
    _snap,
    probe_necessity,
    ratio_objective,
    ratio_objective_witness,
    search,
    snap_to_space,
)
from oracles import (brute_iid_sum, brute_tail_curve, coin, count_judgements,
                     dist1d, fraction_least_c1, fraction_snap_to_space)


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

    def test_c2_follows_the_one_positivity_rule(self, monkeypatch):
        # SearchSpace and the least-c1 objectives refuse c2 <= 0 through
        # checks.require_positive, with the texts they always gave
        search_mod = sys.modules[SearchSpace.__module__]
        with pytest.raises(ValueError, match=r"^c2 must be positive$"):
            SearchSpace(n_atoms=2, j=1, k=2, c2=F(0))
        with pytest.raises(ValueError,
                           match=r"^c2 must be positive, got -1/2$"):
            ratio_objective(coin(), 1, 2, "-1/2")
        seen = []
        monkeypatch.setattr(search_mod, "require_positive",
                            lambda message, *cs: seen.append(cs))
        SearchSpace(n_atoms=2, j=1, k=2, c2=F(-1))
        ratio_objective(coin(), 1, 2, F(1))
        assert seen == [(F(-1),), (F(1),)]


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


@st.composite
def small_snapped_laws(draw):
    """A snapped law (_snap's ints) of 2-4 atoms on the default box's
    lattice, location numerators in [-64, 64] over 16: drawn points, often
    mirrored into +- pairs and often joined by a zero atom, with weights
    divided by their gcd."""
    points = draw(st.lists(st.integers(-64, 64), min_size=1, max_size=4,
                           unique=True))
    if draw(st.booleans()):
        for v in list(points):
            if len(points) < 4 and -v not in points:
                points.append(-v)
    if draw(st.booleans()) and len(points) < 4 and 0 not in points:
        points.append(0)
    assume(len(points) >= 2)
    weights = draw(st.lists(st.integers(1, 64), min_size=len(points),
                            max_size=len(points)))
    g = math.gcd(*weights)
    return tuple(sorted((v, w // g) for v, w in zip(points, weights)))


@given(small_snapped_laws(), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from([F(1, 2), F(1), F(3, 2), F(10)]),
       st.sampled_from(list(Norm)))
@settings(max_examples=200, deadline=None)
def test_lattice_score_matches_brute_force(law, j, k, c2, norm):
    """The search's score of a small law, value and witness, is the
    Fraction least c1 (every candidate threshold read) on curves built
    from the brute-force sums S_j and S_k: no walk, no lattice curve and
    no _Pair read in between, so a score that drops a read or a critical
    fails here."""
    j, k = sorted((j, k))
    space = SearchSpace(n_atoms=len(law), j=j, k=k, c2=c2, norm=norm)
    total = sum(w for _, w in law)
    x = DiscreteDist({F(v, 16): F(w, total) for v, w in law})
    lhs, rhs = (brute_tail_curve(brute_iid_sum(x, i), norm) for i in (j, k))
    assert _score(law, space, DEFAULT_SUPPORT_CAP) == \
        fraction_least_c1(lhs, rhs, F(1), c2)


class TestSearch:
    def test_coin_ratio_reachable_at_c2_one(self):
        space = SearchSpace(n_atoms=2, j=1, k=2, c2=F(1))
        res = search(space, budget=2000, seed=1)
        assert res.evaluations <= 2000
        if res.achieved_ratio != math.inf:
            assert res.achieved_ratio >= 2

    def test_a_space_of_point_masses_returns_one(self):
        """A value box that snaps every law to delta_0 never beats ratio 0,
        so the search reports a law of its space: delta_0, with no
        witness threshold."""
        space = SearchSpace(2, 1, 2, F(1), value_lo=F(-1, 100),
                            value_hi=F(1, 100), lattice_denominator=1)
        res = search(space, budget=20, restarts=1, seed=0)
        assert res.achieved_ratio == 0 and res.best_t is None
        assert res.best_dist == delta(0) and res.evaluations == 20

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

    def test_infinite_ratio_is_kept_and_traced(self):
        # at c2 = 1/4 a two-atom law's S_1 reaches past t where S_2 cannot
        # reach t/c2, so every law scores inf: the first one is kept
        res = search(SearchSpace(2, 1, 2, F(1, 4)), budget=40, restarts=2,
                     seed=0)
        assert res.achieved_ratio == math.inf
        assert res.trace == ((0, math.inf), (1, math.inf))
        assert res.evaluations == 40

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            search(SearchSpace(n_atoms=2, j=1, k=2, c2=F(1)), budget=0)

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_rejects_restarts_below_one(self, restarts):
        with pytest.raises(ValueError, match=f"restarts must be >= 1, got "
                                             f"{restarts}"):
            search(SearchSpace(n_atoms=2, j=1, k=2, c2=F(1)), budget=5,
                   restarts=restarts)

    @pytest.mark.parametrize("value", [0, -3])
    @pytest.mark.parametrize("name", ["lattice_denominator",
                                      "prob_denominator"])
    def test_rejects_denominator_below_one(self, name, value):
        with pytest.raises(ValueError,
                           match=f"^{name} must be >= 1, got {value}$"):
            SearchSpace(n_atoms=2, j=1, k=2, c2=1, **{name: value})

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


def _same_descent(f, x0, maxfev: int) -> list:
    """Run _nelder_mead and scipy's Nelder-Mead from x0 with the search's
    tolerances and assert that f receives the same points, as float reprs,
    and that both return the same (x, fun); returns the points."""
    optimize = pytest.importorskip("scipy.optimize")

    def recorded(seen):
        def g(x):
            seen.append([repr(float(v)) for v in x])
            return f(x)
        return g

    ours, scipys = [], []
    x, fun = _nelder_mead(recorded(ours), x0, maxfev, 1e-3, 1e-9)
    res = optimize.minimize(recorded(scipys), x0, method="Nelder-Mead",
                            options={"maxfev": maxfev, "xatol": 1e-3,
                                     "fatol": 1e-9})
    assert ours == scipys
    assert [repr(float(v)) for v in x] == [repr(float(v)) for v in res.x]
    assert repr(float(fun)) == repr(float(res.fun))
    return ours


def _bowl(x):
    return sum((v - 0.1 * i) ** 2 for i, v in enumerate(x))


class TestNelderMead:
    """_nelder_mead against scipy.optimize.minimize(method="Nelder-Mead"),
    point for point.  The search's plateaus tie many vertices, so these
    runs also pin the order among ties to numpy.argsort's."""

    @pytest.mark.parametrize("n_atoms", list(N_ATOMS))
    def test_search_objective(self, n_atoms):
        np = pytest.importorskip("numpy")
        space = SearchSpace(n_atoms, 1, 2, F(1))
        score = functools.cache(
            lambda law: _score(law, space, DEFAULT_SUPPORT_CAP)[0])
        rng = np.random.Generator(np.random.Philox(key=n_atoms))
        for x0 in _initial_points(space, 3, rng):
            _same_descent(
                lambda x: -min(float(score(_snap(x, space))), 1e18), x0,
                120)

    def test_limit_inside_the_initial_simplex(self):
        points = _same_descent(_bowl, [0.5, -1.0, 2.0, 1.0, 0.3], 3)
        assert len(points) == 3

    def test_limit_inside_a_shrink(self):
        # on a flat objective every iteration reflects, contracts inside
        # and shrinks the 3 other vertices: 4 + 5 calls, then the second
        # iteration's shrink is cut at its third vertex
        points = _same_descent(lambda x: 1.0, [1.0, -2.0, 3.0], 13)
        assert len(points) == 13

    @pytest.mark.parametrize("maxfev", range(1, 61))
    def test_every_limit_on_a_bumpy_objective(self, maxfev):
        """Cut at every call of a descent whose failed contractions shrink,
        some shrunk vertices beating the best: the simplex is ordered once
        more after an iteration the limit cuts."""
        _same_descent(lambda x: abs(6 * x[0] - 1) + abs(5 * x[1] - 1)
                      + math.sin(9 * x[0]), [1.5, -0.5], maxfev)

    def test_zero_entries_of_x0(self):
        _same_descent(_bowl, [0.0, 1.5, 0.0, -0.0], 80)

    def test_stops_on_the_tolerances(self):
        points = _same_descent(_bowl, [1.0, -0.5, 2.0], 5000)
        assert len(points) < 5000


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

    def test_constant_family_judges_its_indices_without_a_grid(self):
        """corollary6's index rule judges the fixed (j, k) once, before
        any c2 is swept, so an empty grid still refuses k > j."""
        with pytest.raises(ValueError, match=r"got j=1, k=2$"):
            probe_necessity("constant", j=1, k=2, c2_values=())
        out = probe_necessity("constant", c2_values=())
        assert (out["fixed"], out["rows"]) == ({"j": 4, "k": 2}, [])

    def test_rare_bernoulli_ratios_are_reciprocal_p(self):
        out = probe_necessity(
            "rare_bernoulli",
            p_values=(F(1, 10), F(1, 100), F(1, 1000)))
        for row in out["rows"]:
            assert F(row["ratio"]) == 1 / F(row["p"])
        assert out["induced_c1_lower_bound"] == "1000"

    def test_rare_bernoulli_below_the_scale_is_infinite(self):
        out = probe_necessity("rare_bernoulli", c2=F(1, 4))
        assert out["induced_c1_lower_bound"] == "inf"
        assert out["rows"] and all(row["ratio"] == "inf"
                                   for row in out["rows"])
        out = probe_necessity("rare_bernoulli", p_values=())
        assert (out["rows"], out["induced_c1_lower_bound"]) == ([], "0")

    @pytest.mark.parametrize("family, grid", [
        ("rare_bernoulli", {"p_values": ()}), ("pm_one", {})])
    def test_theorem1_families_judge_their_indices_once(self, monkeypatch,
                                                        family, grid):
        """rare_bernoulli and pm_one judge (j, k) once by theorem1's rule,
        before any row is scored, and echo theorem1's defaults judged."""
        with pytest.raises(ValueError, match=r"got j=3, k=2$"):
            probe_necessity(family, j=3, k=2, **grid)
        calls = count_judgements(monkeypatch, sys.modules[
            probe_necessity.__module__])
        out = probe_necessity("rare_bernoulli", p_values=())
        assert calls == ["theorem1"]
        assert out["fixed"] == {"j": 1, "k": 2, "c2": "1/2"}

    def test_pm_one_gives_two(self):
        out = probe_necessity("pm_one")
        assert out["induced_c1_lower_bound"] == "2"

    def test_rejects_unknown_family_and_bad_p(self):
        with pytest.raises(ValueError):
            probe_necessity("cauchy")
        with pytest.raises(ValueError):
            probe_necessity("rare_bernoulli", p_values=(F(2),))

    @pytest.mark.parametrize("family, params, name", [
        ("rare_bernoulli", {"p_value": [F(1, 2)], "c3": 5}, "c3"),
        ("rare_bernoulli", {"c2_values": [F(1)]}, "c2_values"),
        ("constant", {"c2": F(1)}, "c2"),
        ("pm_one", {"p_values": [F(1, 2)]}, "p_values"),
    ])
    def test_rejects_a_parameter_its_family_does_not_read(self, family,
                                                          params, name):
        with pytest.raises(ValueError, match=f"^{family} {name} is unknown$"):
            probe_necessity(family, **params)


def test_a_search_judges_its_indices_once(monkeypatch):
    """SearchSpace judges theorem1's indices once and keeps them; scoring
    a law judges nothing, so a search of budget 20 and one of 200 make the
    same one judgement."""
    calls = count_judgements(monkeypatch,
                             sys.modules[SearchSpace.__module__])
    for budget in (20, 200):
        search(SearchSpace(n_atoms=3, j=1, k=2, c2=F(1)), budget=budget,
               restarts=2, seed=1)
    assert calls == ["theorem1"] * 2

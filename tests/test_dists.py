import random
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from iidtails.dists import (
    DEFAULT_SUPPORT_CAP,
    MAX,
    DiscreteDist,
    Norm,
    SupportCapExceeded,
    TailCurve,
    _Walk,
    _dict_steps,
    _encode,
    _gauge_curve,
    _pack,
    _packed_gauge,
    _slot_steps,
    _unpack,
    _weighted_walk,
    affine,
    as_point,
    convolve,
    delta,
    first_exceedance_probs,
    iid_sum,
    path_max_curve,
    path_max_gauge_dist,
    path_max_tail,
    rat,
    tail,
    tail_curve,
    weighted_iid_sum,
)
from oracles import (
    absorbing_path_dp,
    brute_first_exceedance,
    brute_iid_sum,
    brute_path_max_tail,
    brute_tail,
    brute_weighted_sum,
    coin,
    dist1d,
    fraction_convolve,
    fraction_iid_sum,
    fraction_weighted_iid_sum,
    tuple_running_max_laws,
)

ABS = Norm.ABS1D
SUP = Norm.SUP
EUC = Norm.EUCLIDEAN


def _walk(x, n, cap=DEFAULT_SUPPORT_CAP, norm=None, reads=None):
    """The walk of n draws of x, reading S_n, or the S_i in reads."""
    return _Walk(*_encode([x]), reads or {n}, cap, norm)


def _weighted(x, alphas, cap=DEFAULT_SUPPORT_CAP, norm=None):
    """The walk of sum_i alpha_i X_i, X_i ~ x, on x's lattice term."""
    scale, dim, (term,) = _encode([x])
    return _weighted_walk(scale, dim, term, alphas, cap, norm)


# ---------------------------------------------------------------- primitives


class TestRat:
    def test_accepts_int_str_fraction(self):
        assert rat(3) == F(3)
        assert rat("3/4") == F(3, 4)
        assert rat(F(1, 7)) == F(1, 7)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            rat(0.5)

    def test_rejects_float_inside_point(self):
        with pytest.raises(TypeError):
            as_point((1, 0.25))


class TestDiscreteDist:
    def test_requires_unit_total(self):
        with pytest.raises(ValueError, match="sum to"):
            DiscreteDist({(F(0),): F(1, 3)})

    def test_rejects_nonpositive_probability(self):
        with pytest.raises(ValueError, match="not positive"):
            DiscreteDist({(F(0),): F(0), (F(1),): F(1)})

    def test_rejects_duplicate_atoms(self):
        with pytest.raises(ValueError, match="duplicate"):
            DiscreteDist([((F(1),), F(1, 2)), ((F(1),), F(1, 2))])

    def test_rejects_mixed_dims(self):
        with pytest.raises(ValueError, match="dim"):
            DiscreteDist([((F(1),), F(1, 2)), ((F(1), F(2)), F(1, 2))])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one atom"):
            DiscreteDist({})

    def test_immutable(self):
        d = delta(0)
        with pytest.raises(AttributeError):
            d.dim = 2

    def test_scalar_coercion(self):
        d = DiscreteDist({0: F(1, 2), 1: F(1, 2)})
        assert d.dim == 1
        assert d.p(0) == F(1, 2)
        assert d.p(7) == 0

    def test_point_of_the_wrong_length_is_refused(self):
        plane = DiscreteDist({(0, 1): F(1)})
        with pytest.raises(ValueError, match="has length 1, expected 2"):
            plane.p(0)
        with pytest.raises(ValueError, match="has length 2, expected 1"):
            as_point((1, 2), 1)
        with pytest.raises(ValueError, match="requires dimension 1"):
            plane.scalar_items()

    def test_equality_and_repr(self):
        d = DiscreteDist({F(-1, 2): F(1, 3), 2: F(2, 3)})
        assert d != 1 and d == DiscreteDist({2: F(2, 3), F(-1, 2): F(1, 3)})
        assert repr(d) == "DiscreteDist({-1/2: 1/3, 2: 2/3})"
        plane = DiscreteDist({(0, F(1, 2)): F(1)})
        assert repr(plane) == "DiscreteDist({('0', '1/2'): 1})"


# --------------------------------------------------------------- convolution


class TestConvolve:
    def test_pinned_two_coins(self):
        half = dist1d([(0, F(1, 2)), (1, F(1, 2))])
        assert convolve(half, half) == dist1d(
            [(0, F(1, 4)), (1, F(1, 2)), (2, F(1, 4))])

    def test_delta_is_identity(self):
        a = dist1d([(-1, F(1, 3)), (2, F(2, 3))])
        assert convolve(a, delta(0)) == a
        assert convolve(delta(0), a) == a

    def test_pinned_asymmetric(self):
        a = dist1d([(-1, F(1, 3)), (2, F(2, 3))])
        b = dist1d([(0, F(1, 2)), (1, F(1, 2))])
        assert convolve(a, b) == dist1d(
            [(-1, F(1, 6)), (0, F(1, 6)), (2, F(1, 3)), (3, F(1, 3))])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            convolve(delta(0), delta((0, 0)))

    def test_zero_dimensional_law(self):
        point = DiscreteDist({(): 1})
        assert convolve(point, point) == point
        assert iid_sum(point, 3) == point

    def test_cap_enforced(self):
        a = dist1d([(i, F(1, 10)) for i in range(10)])
        with pytest.raises(SupportCapExceeded) as exc:
            convolve(affine(a, 1), affine(a, F(1, 7)), cap=12)
        assert exc.value.cap == 12
        assert exc.value.size > 12


class TestAffine:
    def test_pinned_examples(self):
        assert affine(delta(1), 5) == delta(5)
        c = coin()
        assert affine(c, 1) == c
        a = dist1d([(0, F(4, 5)), (10, F(1, 5))])
        assert affine(a, F(1, 2), 3) == dist1d([(3, F(4, 5)), (8, F(1, 5))])

    def test_zero_scale_collapses(self):
        a = dist1d([(0, F(4, 5)), (10, F(1, 5))])
        assert affine(a, 0, 2) == delta(2)

    def test_rejects_float_scale(self):
        with pytest.raises(TypeError):
            affine(delta(1), 0.5)


# ------------------------------------------------------------------ iid sums


class TestIidSum:
    def test_pinned_coin_cubed(self):
        assert iid_sum(coin(), 3) == dist1d(
            [(-3, F(1, 8)), (-1, F(3, 8)), (1, F(3, 8)), (3, F(1, 8))])

    def test_k_one_is_input(self):
        c = coin()
        assert iid_sum(c, 1) == c

    def test_deterministic_summand(self):
        assert iid_sum(delta(F(2, 3)), 5) == delta(F(10, 3))

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            iid_sum(coin(), 0)

    def test_matches_brute_force(self):
        rng = random.Random(42)
        for _ in range(30):
            n = rng.randint(1, 3)
            vals = rng.sample(range(-6, 7), n)
            weights = [rng.randint(1, 5) for _ in range(n)]
            tot = sum(weights)
            x = dist1d([(F(v, 2), F(w, tot)) for v, w in zip(vals, weights)])
            k = rng.randint(1, 6)
            assert iid_sum(x, k) == brute_iid_sum(x, k)

    def test_schedule_independence(self):
        # iid_sum's fold must agree with repeated public convolve calls
        x = dist1d([(-1, F(1, 4)), (0, F(1, 4)), (2, F(1, 2))])
        for k in range(1, 7):
            fold = x
            for _ in range(k - 1):
                fold = convolve(fold, x)
            assert iid_sum(x, k) == fold


class TestWeightedIidSum:
    def test_unit_weights_match_iid_sum(self):
        x = dist1d([(-1, F(1, 4)), (3, F(3, 4))])
        assert weighted_iid_sum(x, [1, 1, 1]) == iid_sum(x, 3)

    def test_pinned_half_weight(self):
        got = weighted_iid_sum(coin(), [1, F(1, 2)])
        assert got == dist1d([(F(-3, 2), F(1, 4)), (F(-1, 2), F(1, 4)),
                              (F(1, 2), F(1, 4)), (F(3, 2), F(1, 4))])

    def test_zero_weights_collapse(self):
        assert weighted_iid_sum(coin(), [0, 0]) == delta(0)

    def test_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 3)
            vals = rng.sample(range(-6, 7), n)
            weights = [rng.randint(1, 5) for _ in range(n)]
            tot = sum(weights)
            x = dist1d([(F(v), F(w, tot)) for v, w in zip(vals, weights)])
            m = rng.randint(1, 4)
            alphas = [F(rng.randint(-4, 4), rng.randint(1, 4))
                      for _ in range(m)]
            assert weighted_iid_sum(x, alphas) == brute_weighted_sum(x, alphas)

    def test_empty_weights_rejected(self):
        with pytest.raises(ValueError):
            weighted_iid_sum(coin(), [])


# --------------------------------------------------------------------- tails


TRI = dist1d([(-2, F(1, 4)), (0, F(1, 2)), (2, F(1, 4))])


class TestTail:
    def test_pinned_strict(self):
        assert tail(TRI, ABS, 1) == F(1, 2)

    def test_pinned_boundary_modes(self):
        assert tail(TRI, ABS, 2, "strict") == 0
        assert tail(TRI, ABS, 2, "weak") == F(1, 2)

    def test_weak_at_zero_is_one(self):
        assert tail(TRI, ABS, 0, "weak") == 1
        assert tail(coin(), ABS, 0, "weak") == 1

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            tail(TRI, ABS, -1)

    def test_one_threshold_rule(self):
        """Tails, window masses, concentration sets and checks and the
        counterexample's tails refuse a negative threshold with one message
        (dists._threshold)."""
        from iidtails.concentration import (
            check_corollary3, check_lemma2, concentration_set, window_mass)
        from iidtails.counterexample import (
            centered_sum_tail, extended_sum_tail, normalized_sum_tail)
        for call in (lambda t: tail(TRI, ABS, t),
                     lambda t: path_max_tail(coin(), 2, ABS, t),
                     lambda t: window_mass(TRI, 0, t),
                     lambda t: concentration_set(TRI, t),
                     lambda t: check_lemma2(TRI, TRI, t),
                     lambda t: check_corollary3(TRI, 3, t),
                     lambda t: centered_sum_tail(2, 8, t),
                     lambda t: normalized_sum_tail(2, 8, t),
                     lambda t: extended_sum_tail(2, 8, t)):
            with pytest.raises(ValueError, match=r"^t must be >= 0, "
                                                 r"got -1/2$"):
                call(F(-1, 2))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            tail(TRI, ABS, 1, "sharp")

    def test_abs1d_needs_dim1(self):
        d2 = DiscreteDist({(F(0), F(0)): F(1)})
        with pytest.raises(ValueError):
            tail(d2, ABS, 1)

    def test_one_rule_of_where_a_norm_is_defined(self):
        assert all(norm.defined_in(1) for norm in Norm)
        assert [norm for norm in Norm if norm.defined_in(3)] == [SUP, EUC]
        d2 = DiscreteDist({(F(0), F(0)): F(1)})
        for call in (lambda: ABS.gauge((F(0), F(0))),
                     lambda: tail(d2, ABS, 1),
                     lambda: tail_curve(iid_sum(d2, 3), ABS)):
            with pytest.raises(ValueError, match=r"^abs1d norm requires "
                                                 r"dimension 1$"):
                call()

    def test_euclidean_squared_comparison(self):
        # atom at (3/5, 4/5) has norm exactly 1: strict vs weak at t=1 differ
        d = DiscreteDist({(F(3, 5), F(4, 5)): F(1)})
        assert tail(d, EUC, 1, "strict") == 0
        assert tail(d, EUC, 1, "weak") == 1
        assert tail(d, EUC, F(99, 100), "strict") == 1

    def test_sup_norm(self):
        d = DiscreteDist({(F(1), F(-3)): F(1, 2), (F(0), F(0)): F(1, 2)})
        assert tail(d, SUP, 2) == F(1, 2)
        assert tail(d, SUP, 3) == 0
        assert tail(d, SUP, 3, "weak") == F(1, 2)


class TestTailCurve:
    def test_pinned_delta0(self):
        c = tail_curve(delta(0), ABS)
        assert c.criticals == (F(0),)
        assert c.values == (F(0),)

    def test_pinned_tri(self):
        c = tail_curve(TRI, ABS)
        assert c.criticals == (F(0), F(2))
        assert c.values == (F(1, 2), F(0))

    def test_matches_tail_everywhere(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 4)
            vals = rng.sample(range(-8, 9), n)
            weights = [rng.randint(1, 5) for _ in range(n)]
            tot = sum(weights)
            x = dist1d([(F(v, 4), F(w, tot)) for v, w in zip(vals, weights)])
            curve = tail_curve(x, ABS)
            probes = [F(v, 8) for v in range(0, 20)]
            for t in probes:
                assert curve.at_radius(t, "strict") == tail(x, ABS, t)
                assert curve.at_radius(t, "weak") == tail(x, ABS, t, "weak")

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            TailCurve(ABS, (F(2), F(1)), (F(1, 2), F(0)))   # not sorted
        with pytest.raises(ValueError):
            TailCurve(ABS, (F(0), F(1)), (F(1, 4), F(1, 2)))  # increasing
        with pytest.raises(ValueError):
            TailCurve(ABS, (F(0), F(1)), (F(1, 2), F(1, 4)))  # no zero end
        with pytest.raises(ValueError, match="equal length"):
            TailCurve(ABS, (F(0), F(1)), (F(0),))
        with pytest.raises(ValueError, match="at least one critical"):
            TailCurve(ABS, (), ())

    def test_equal_curves_compare_equal_across_lattices(self):
        """A curve is held in ints over its least units, so curves built on
        different lattices, or from Fractions, are equal when they are equal
        as functions, and hash alike."""
        a = _gauge_curve(ABS, {0: 2, 4: 2}, 2, 4)
        b = _gauge_curve(ABS, {0: 1, 2: 1}, 1, 2)
        assert a == b and hash(a) == hash(b)
        assert a != _gauge_curve(ABS, {0: 1, 3: 1}, 1, 2)
        assert a != _gauge_curve(SUP, {0: 1, 2: 1}, 1, 2)
        for c in (a, tail_curve(TRI, ABS), tail_curve(iid_sum(TRI, 3), ABS),
                  tail_curve(dist1d([(F(-1, 3), F(1, 6)), (F(5, 4), F(5, 6))]),
                             ABS)):
            assert TailCurve(c.norm, c.criticals, c.values) == c
        assert (a.unit, a.crits, a.den, a.nums) == (1, (0, 2), 2, (1, 0))

    def test_euclidean_curve_stores_squared_radii(self):
        d = DiscreteDist({(F(3), F(4)): F(1, 2), (F(0), F(0)): F(1, 2)})
        c = tail_curve(d, EUC)
        assert c.criticals == (F(0), F(25))
        # at_radius takes an unsquared radius
        assert c.at_radius(5, "strict") == 0
        assert c.at_radius(5, "weak") == F(1, 2)
        assert c.at_radius(F(49, 10), "strict") == F(1, 2)


# ----------------------------------------------------------------- path max


class TestPathMax:
    def test_pinned_coin(self):
        assert path_max_tail(coin(), 2, ABS, 1) == F(1, 2)
        assert path_max_tail(coin(), 2, ABS, 2) == 0

    def test_pinned_deterministic_walk(self):
        assert path_max_tail(delta(1), 3, ABS, 2) == 1

    def test_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 3)
            vals = rng.sample(range(-5, 6), n)
            weights = [rng.randint(1, 4) for _ in range(n)]
            tot = sum(weights)
            x = dist1d([(F(v, 2), F(w, tot)) for v, w in zip(vals, weights)])
            k = rng.randint(1, 5)
            t = F(rng.randint(0, 10), 2)
            for mode in ("strict", "weak"):
                assert path_max_tail(x, k, ABS, t, mode) == \
                    brute_path_max_tail(x, k, ABS, t, mode)

    def test_first_exceedance_identity(self):
        rng = random.Random(13)
        for _ in range(15):
            n = rng.randint(1, 3)
            vals = rng.sample(range(-5, 6), n)
            weights = [rng.randint(1, 4) for _ in range(n)]
            tot = sum(weights)
            x = dist1d([(F(v), F(w, tot)) for v, w in zip(vals, weights)])
            k = rng.randint(1, 5)
            t = F(rng.randint(0, 8), 2)
            probs = first_exceedance_probs(x, k, ABS, t)
            assert sum(probs) == path_max_tail(x, k, ABS, t)
            assert probs == brute_first_exceedance(x, k, ABS, t)

    def test_path_max_gauge_dist_consistent(self):
        x = dist1d([(-1, F(1, 3)), (2, F(2, 3))])
        k = 4
        law = path_max_gauge_dist(x, k, ABS)
        assert sum(law.values()) == 1
        for t in (F(0), F(1), F(3, 2), F(2), F(3), F(5)):
            from_law = sum(p for g, p in law.items() if g > t)
            assert from_law == path_max_tail(x, k, ABS, t)

    def test_path_max_curve_matches(self):
        x = dist1d([(-2, F(1, 2)), (1, F(1, 2))])
        curve = path_max_curve(x, 3, ABS)
        for t in (F(0), F(1, 2), F(1), F(2), F(3), F(6), F(7)):
            assert curve.at_radius(t) == path_max_tail(x, 3, ABS, t)

    def test_matches_absorbing_oracle(self):
        rng = random.Random(17)
        for _ in range(30):
            dim = rng.randint(1, 2)
            norm = rng.choice([ABS, SUP, EUC] if dim == 1 else [SUP, EUC])
            pts = sorted({tuple(F(rng.randint(-6, 6), 2) for _ in range(dim))
                          for _ in range(rng.randint(1, 3))})
            weights = [rng.randint(1, 4) for _ in pts]
            x = DiscreteDist({p: F(w, sum(weights))
                              for p, w in zip(pts, weights)})
            k = rng.randint(1, 4)
            t = F(rng.randint(0, 12), 2)
            for mode in ("strict", "weak"):
                absorbed, alive = absorbing_path_dp(x, k, norm,
                                                    norm.to_gauge(t), mode)
                assert path_max_tail(x, k, norm, t, mode) == 1 - alive
                assert first_exceedance_probs(x, k, norm, t, mode) == \
                    absorbed

    def test_cap_bounds_sum_and_max_states(self):
        # after two coin steps the states (sum, running max) are
        # (-2, 2), (0, 1) and (2, 2); the first step is never capped
        assert path_max_tail(coin(), 2, ABS, 1, cap=3) == F(1, 2)
        assert path_max_tail(coin(), 1, ABS, 0, cap=1) == 1
        with pytest.raises(SupportCapExceeded) as exc:
            path_max_tail(coin(), 2, ABS, 1, cap=2)
        assert (exc.value.size, exc.value.cap) == (3, 2)

    def test_k_must_be_positive(self):
        for fn in (path_max_tail, first_exceedance_probs):
            with pytest.raises(ValueError):
                fn(coin(), 0, ABS, 1)
        with pytest.raises(ValueError):
            path_max_gauge_dist(coin(), 0, ABS)


# ------------------------------------------------------------ property tests


small_rationals = st.builds(
    F, st.integers(-12, 12), st.integers(1, 4))


@st.composite
def small_dists(draw, max_atoms=4):
    n = draw(st.integers(1, max_atoms))
    vals = draw(st.lists(small_rationals, min_size=n, max_size=n,
                         unique=True))
    weights = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    tot = sum(weights)
    return DiscreteDist({(v,): F(w, tot) for v, w in zip(vals, weights)})


@given(small_dists(), small_dists())
@settings(max_examples=60, deadline=None)
def test_convolution_commutes(a, b):
    assert convolve(a, b) == convolve(b, a)


@given(small_dists(), small_dists(), small_dists())
@settings(max_examples=40, deadline=None)
def test_convolution_associates(a, b, c):
    assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))


@given(small_dists(), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_probability_conservation(x, k):
    assert sum(iid_sum(x, k).atoms.values()) == 1


@given(small_dists(), st.integers(0, 30), st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_tail_monotone_nonincreasing(x, a, b):
    t1, t2 = sorted((F(a, 4), F(b, 4)))
    assert tail(x, ABS, t1) >= tail(x, ABS, t2)


@given(small_dists(), st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_strict_below_weak(x, n):
    t = F(n, 4)
    assert tail(x, ABS, t, "strict") <= tail(x, ABS, t, "weak")


@given(small_dists(), st.integers(1, 8), st.integers(1, 6), st.integers(0, 20))
@settings(max_examples=60, deadline=None)
def test_scaling_equivariance(x, cn, cd, tn):
    c = F(cn, cd)
    t = F(tn, 4)
    for mode in ("strict", "weak"):
        assert tail(affine(x, c), ABS, c * t, mode) == tail(x, ABS, t, mode)


@given(small_dists(), st.integers(1, 4), st.integers(0, 16))
@settings(max_examples=40, deadline=None)
def test_path_max_dominates_endpoint(x, k, tn):
    t = F(tn, 4)
    # the running maximum exceeds whenever the endpoint does
    assert path_max_tail(x, k, ABS, t) >= tail(iid_sum(x, k), ABS, t)


# ------------------------------------------ lattice kernel vs Fraction oracle

lattice_coords = st.builds(F, st.integers(-9, 9),
                           st.sampled_from([1, 2, 3, 4, 6, 7]))


@st.composite
def lattice_dists(draw, dim, max_atoms=4):
    n = draw(st.integers(1, max_atoms))
    pts = draw(st.lists(st.tuples(*[lattice_coords] * dim), min_size=n,
                        max_size=n, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    tot = sum(weights)
    return DiscreteDist({pt: F(w, tot) for pt, w in zip(pts, weights)})


def _outcome(fn, *args):
    """The result's atoms in order, or the cap exception's (size, cap).  The
    order compared is the one both fold paths give, ascending packed point
    (lexicographic on reversed coordinates), so a result in reversed or in
    first-appearance order fails."""
    try:
        return list(fn(*args).atoms.items())
    except SupportCapExceeded as exc:
        return ("cap", exc.size, exc.cap)


caps = st.one_of(st.just(DEFAULT_SUPPORT_CAP), st.integers(1, 40))
alpha_lists = st.one_of(
    st.lists(st.builds(F, st.integers(-6, 6), st.just(6)),
             min_size=1, max_size=4),
    st.integers(1, 4).map(lambda n: [F(1)] * n))


@given(st.data(), st.integers(1, 3), caps)
@settings(max_examples=150, deadline=None)
def test_lattice_convolve_matches_fraction_oracle(data, dim, cap):
    a = data.draw(lattice_dists(dim))
    b = data.draw(lattice_dists(dim))
    assert _outcome(convolve, a, b, cap) == \
        _outcome(fraction_convolve, a, b, cap)


@given(st.data(), st.integers(1, 3), st.integers(1, 6), caps)
@settings(max_examples=150, deadline=None)
def test_lattice_iid_sum_matches_fraction_oracle(data, dim, k, cap):
    x = data.draw(lattice_dists(dim))
    assert _outcome(iid_sum, x, k, cap) == \
        _outcome(fraction_iid_sum, x, k, cap)


@given(st.data(), st.integers(1, 3), alpha_lists, caps)
@settings(max_examples=150, deadline=None)
def test_lattice_weighted_sum_matches_fraction_oracle(data, dim, alphas, cap):
    x = data.draw(lattice_dists(dim))
    assert _outcome(weighted_iid_sum, x, alphas, cap) == \
        _outcome(fraction_weighted_iid_sum, x, alphas, cap)


# ----------------------------------------- slot fold (_slot_steps) vs oracle
#
# The slot pass is run directly, whatever the rule (_Walk.on_slots) would
# pick for the walk, and each S_i it decodes is compared in order with the
# Fraction fold's.

def _slot_laws(walk):
    """Every S_i of the walk's slot fold, as its slot law."""
    return (law for law, _ in _slot_steps(walk.terms, walk.n, walk._grid,
                                          None))


def _slot_sums(walk):
    """Every S_i of the walk's slot fold, decoded, as a DiscreteDist."""
    return [walk.dist(law) for law in _slot_laws(walk)]


def _most_steps(size: int, atoms: int = 2000) -> int:
    """The largest n <= 12 whose sums of n draws from `size` atoms can
    have at most `atoms` points, to bound the Fraction fold's work."""
    return max(n for n in range(1, 13) if comb(n + size - 1, size - 1)
               <= atoms)


# a packed n-D point spans base**(dim - 1) slots per unit of its last
# coordinate, so above dimension 1 the points and the walks are smaller
slot_coords = {1: lattice_coords,
               2: st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2])),
               3: st.builds(F, st.integers(-2, 2), st.sampled_from([1, 2]))}
slot_steps = {1: 12, 2: 12, 3: 4}


@st.composite
def slot_dists(draw, dim, max_atoms=7):
    n = draw(st.integers(1, max_atoms))
    pts = draw(st.lists(st.tuples(*[slot_coords[dim]] * dim), min_size=n,
                        max_size=n, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    tot = sum(weights)
    return DiscreteDist({pt: F(w, tot) for pt, w in zip(pts, weights)})


@given(st.data(), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_slot_fold_matches_fraction_fold(data, dim):
    x = data.draw(slot_dists(dim))
    n = data.draw(st.integers(1, min(slot_steps[dim], _most_steps(len(x)))))
    walk = _walk(x, n)
    assume(walk._grid[2] <= 20_000)
    expect = fraction_iid_sum(x, 1)
    for i, got in enumerate(_slot_sums(walk), 1):
        if i > 1:
            expect = fraction_convolve(expect, x)
        assert list(got.atoms.items()) == list(expect.atoms.items())
    assert i == n


@given(st.data(), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_weighted_slot_fold_matches_fraction_fold(data, dim):
    """Weighted walks, zero weights included: a zero weight's term is
    {0: den}, the mass of X merged into one point."""
    x = data.draw(slot_dists(dim, max_atoms=4))
    # distinct weights keep every product of draws apart: bound len(x)**n
    most = max(n for n in range(1, 9) if len(x) ** n <= 1000)
    alphas = data.draw(st.lists(
        st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3]))
        if dim == 1 else st.builds(F, st.integers(-2, 2), st.just(2)),
        min_size=1, max_size=min(slot_steps[dim], most)))
    walk = _weighted(x, alphas)
    assume(walk._grid[2] <= 20_000)
    expect = None
    for alpha, got in zip(alphas, _slot_sums(walk)):
        term = affine(x, alpha)
        expect = term if expect is None else fraction_convolve(expect, term)
        assert list(got.atoms.items()) == \
            list(fraction_convolve(expect, delta((0,) * dim)).atoms.items())


# --------------------- curves straight from slots (_Walk._law_curve) vs oracle
#
# A slot law's curve is built from its slot values (1-D: folded at zero;
# n-D: gauges by rows of the packed box) and must equal the curve of the
# Fraction fold's S_i, which tail_curve builds on the atom dict path.

def _norms(dim: int):
    return (ABS, SUP, EUC) if dim == 1 else (SUP, EUC)


def _slot_curves_match(walk, x):
    """Every S_i curve read off the walk's slot fold, under the walk's
    norm, equals the Fraction fold's; the number of sums checked."""
    expect = None
    for i, law in enumerate(_slot_laws(walk), 1):
        expect = x if expect is None else fraction_convolve(expect, x)
        assert walk._law_curve(law) == tail_curve(expect, walk.norm)
    return i


def _zero_case(law) -> str:
    """Where zero falls on a 1-D slot law's grid low + step*Z."""
    top = law.low + (law.packed.bit_length() - 1) // (8 * law.width) \
        * law.step
    if law.low >= 0 or top < 0:
        return "one-sided"
    off = -law.low % law.step
    return "on grid" if off == 0 else "aligned halves" \
        if 2 * off == law.step else "interleaved"


@given(st.data(), st.integers(1, 3), st.sampled_from([ABS, SUP, EUC]))
@settings(max_examples=120, deadline=None)
def test_slot_curves_match_fraction_fold_curves(data, dim, norm):
    """Random laws in dims 1-3 under every norm of their dim, each S_i of
    the slot fold against the Fraction fold's curve."""
    if norm is ABS and dim != 1:
        norm = SUP
    x = data.draw(slot_dists(dim))
    n = data.draw(st.integers(1, min(slot_steps[dim], _most_steps(len(x)))))
    walk = _walk(x, n, norm=norm)
    step, width, slots = walk._grid
    assume(slots <= 20_000)
    event(f"width {width}, step {'> 1' if step > 1 else '1'}")
    if dim == 1:
        *_, last = _slot_laws(walk)
        event(_zero_case(last))
    assert _slot_curves_match(walk, x) == n


def _x(*pairs) -> DiscreteDist:
    return dist1d([(F(v), F(p)) for v, p in pairs])


SLOT_CURVE_CASES = {
    # name: (law, n, width of S_n's slots in bytes)
    "coin, 1-byte": (coin(), 7, 1),
    "coin, 2-byte": (coin(), 12, 2),
    "step 3, 3 bytes rounded to 4": (_x((-1, "1/3"), (2, "2/3")), 14, 4),
    "positive only, 6 bytes rounded to 8": (
        _x((1, "20/61"), ("3/2", "11/61"), (3, "30/61")), 7, 8),
    "negative only, 9 bytes": (
        _x((-3, "20/61"), (-1, "11/61"), ("-1/2", "30/61")), 12, 9),
    "zero on the grid, step 1": (
        _x((-2, "1/4"), (0, "1/4"), (1, "1/2")), 9, 4),
    "2-D, one slot per row": (DiscreteDist(
        {(0, 0): F(1, 2), (0, 1): F(1, 4), (0, -2): F(1, 4)}), 7, 2),
    "2-D, step 2": (DiscreteDist(
        {(0, 0): F(1, 3), (2, 0): F(1, 3), (-2, 2): F(1, 3)}), 6, 2),
    "2-D, verify_wide points": (DiscreteDist({pt: F(p, 61) for pt, p in zip(
        ((2, 0), (-2, 0), (0, 2), (0, -2), (1, 1), (-1, 2)),
        (2, 6, 10, 9, 20, 14))}), 4, 4),
    "3-D": (DiscreteDist({(1, 0, 0): F(1, 4), (0, -1, 0): F(1, 4),
                          (0, 0, 1): F(1, 4), (-1, 1, -1): F(1, 4)}), 4, 2),
    # wide coordinates on few slots: base far above the slot count
    "2-D, wide coordinates in one row": (DiscreteDist(
        {(0, 0): F(1, 3), (10 ** 4, 0): F(1, 3), (-2 * 10 ** 4, 0): F(1, 3)}),
        15, 4),
    "3-D, wide coordinates on a diagonal": (DiscreteDist(
        {(0, 0, 0): F(1, 2), (10 ** 4, -10 ** 4, 10 ** 4): F(1, 4),
         (-10 ** 4, 10 ** 4, -10 ** 4): F(1, 4)}), 6, 2),
}


@pytest.mark.parametrize("case", SLOT_CURVE_CASES)
def test_slot_curve_cases(case):
    """Pinned laws: zero on the 1-D grid, off it with the halves aligned
    or interleaved, one-sided supports, steps > 1, rows of one slot, and
    slot widths of 1, 2, 4, 8 and more than 8 bytes."""
    x, n, width = SLOT_CURVE_CASES[case]
    for norm in _norms(x.dim):
        walk = _walk(x, n, norm=norm)
        assert walk._grid[1] == width
        assert _slot_curves_match(walk, x) == n


def test_slot_curve_cases_cover_the_fold_and_the_widths():
    """The pinned cases hold every place zero takes on a 1-D grid, and
    every rounded slot width."""
    seen, widths = set(), set()
    for x, n, width in SLOT_CURVE_CASES.values():
        walk = _walk(x, n)
        widths.add(width)
        if x.dim == 1:
            seen |= {_zero_case(law) for law in _slot_laws(walk)}
    assert seen == {"one-sided", "on grid", "aligned halves", "interleaved"}
    assert widths == {1, 2, 4, 8, 9}


def test_slot_curve_cost_follows_the_slots():
    """An n-D curve read off slots allocates by the slots it reads, not by
    the lattice base: here S_15 holds 46 slots on a base of 600,003."""
    import tracemalloc
    x, n, _ = SLOT_CURVE_CASES["2-D, wide coordinates in one row"]
    walks = [_walk(x, n, norm=norm) for norm in (SUP, EUC)]
    walk = walks[0]
    assert walk.on_slots and walk._grid[2] == 46 and walk.base == 600_003
    laws = [w.law(n) for w in walks]
    tracemalloc.start()
    try:
        for w, law in zip(walks, laws):
            w._law_curve(law)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < walk.base


def test_slot_width_rounds_up_to_a_native_word():
    from iidtails.dists import _slot_width
    assert [_slot_width(2 ** (8 * b - 1)) for b in range(1, 11)] == \
        [1, 2, 4, 4, 8, 8, 8, 8, 9, 10]


def test_slot_holds_the_whole_denominator():
    """With every weight zero, S_i is the point 0 with numerator equal to
    the product of the denominators, the widest a slot ever holds."""
    x = dist1d([(-1, F(1, 7)), (0, F(2, 7)), (3, F(4, 7))])
    walk = _weighted(x, [0] * 9)
    _, width, slots = walk._grid
    assert (width, slots) == (4, 1)         # 7**9 takes 26 bits
    for i, got in enumerate(_slot_sums(walk), 1):
        assert got == delta(0)
    assert i == 9


@given(st.data(), st.integers(1, 2), st.integers(0, 2))
@settings(max_examples=25, deadline=None)
def test_slot_rule_keeps_the_cap_on_the_dict_loop(data, dim, extra):
    """Caps on both sides of the slots S_n spans: below them the rule keeps
    the dict loop, where the cap is raised at the step and size it always
    was, and at or above them no step can pass the cap; both paths equal
    the Fraction fold, cap exception included."""
    x = data.draw(slot_dists(dim))
    n = min(-(-40 // len(x)) + extra + 1, _most_steps(len(x), 1000))
    slots = _walk(x, n)._grid[2]
    whole = _outcome(fraction_iid_sum, x, n, DEFAULT_SUPPORT_CAP)
    for cap in (slots - 1, slots, slots + 1):
        if cap < 1:
            continue
        walk = _walk(x, n, cap)
        event(f"on slots at cap slots{cap - slots:+d}: {walk.on_slots}")
        assert not walk.on_slots or slots <= cap
        # no sum has more atoms than S_n has slots
        expect = whole if cap >= slots else \
            _outcome(fraction_iid_sum, x, n, cap)
        assert _outcome(iid_sum, x, n, cap) == expect


def _verify_wide_laws():
    """The 1-D and 2-D laws of the verify_wide benchmark workload at its
    default seed."""
    one = DiscreteDist({F(x): F(p, 61) for x, p in zip(
        ("-2", "-5/4", "-2/3", "1/6", "3/4", "3/2", "2"),
        (6, 3, 11, 23, 2, 4, 12))})
    two = DiscreteDist({pt: F(p, 61) for pt, p in zip(
        ((2, 0), (-2, 0), (0, 2), (0, -2), (1, 1), (-1, 2)),
        (2, 6, 10, 9, 20, 14))})
    return one, two


def test_slot_rule_decisions():
    """The rule puts dense walks on slots and keeps sparse, wide-slot and
    small walks on the dict loop."""
    one, two = _verify_wide_laws()
    weights = ["-1", "1", "1/2", "-1", "1/4", "1", "-1/2", "1/4"]
    on_slots = [_walk(one, 10), _walk(one, 40), _walk(two, 10),
                _weighted(one, weights),
                # one grid step of 10**9: 41 slots
                _walk(dist1d([(0, F(1, 2)), (10 ** 9, F(1, 2))]), 40),
                _walk(coin(), 1000), _weighted(coin(), [1] * 1000)]
    assert all(walk.on_slots for walk in on_slots)
    on_dict = [
        # 861 sums spread over 4e10 slots
        _walk(dist1d([(0, F(1, 2)), (1, F(1, 4)), (10 ** 9, F(1, 4))]), 40),
        _walk(coin(), 5000),                             # 626-byte slots
        _walk(one, 5),                                   # 35 atom pairs
        _walk(one, 40, 1920)]                            # 1921 slots
    assert not any(walk.on_slots for walk in on_dict)


def test_slot_fold_decodes_only_the_sums_read(monkeypatch):
    """On slots S_i is decoded, by the one decoder, only where it is read:
    iid_sum decodes S_n, a walk's curves the S_i of its reads, and a dist
    of every law sums() yields every S_i.  A curve decodes S_i's slot
    values but builds no atom dict; only dist() does."""
    from iidtails import dists
    decoded, atom_dicts = [], []
    slot_nums, atoms = dists._slot_nums, dists._atoms

    def counted(*args):
        decoded.append(len(decoded))
        return slot_nums(*args)

    def counted_atoms(law):
        atom_dicts.append(law)
        return atoms(law)

    monkeypatch.setattr(dists, "_slot_nums", counted)
    monkeypatch.setattr(dists, "_atoms", counted_atoms)
    one, _ = _verify_wide_laws()
    assert iid_sum(one, 10) == fraction_iid_sum(one, 10)
    assert len(decoded) == 1 and len(atom_dicts) == 1
    curves = _walk(one, 10, norm=ABS, reads={6, 10})
    assert curves.curve(10) == tail_curve(fraction_iid_sum(one, 10), ABS)
    assert curves.curve(6) == tail_curve(fraction_iid_sum(one, 6), ABS)
    assert len(decoded) == 3 and len(atom_dicts) == 1
    walk = _walk(one, 10)
    laws = [walk.dist(law) for law in walk.sums()]
    assert len(decoded) == 13 and len(atom_dicts) == 11
    assert laws[5] == fraction_iid_sum(one, 6)


def test_slot_fold_holds_only_the_running_int():
    """The slot counterpart of test_lone_sum_holds_only_the_running_sum: a
    step holds S_{i-1}'s int and the products it sums into S_i, so the
    fold's peak traced memory, decoding nothing, stays within a few ints
    the size of S_n's."""
    import tracemalloc
    walk = _walk(dist1d([(-1, F(1, 3)), (0, F(1, 3)), (2, F(1, 3))]), 400)
    assert walk.on_slots
    _, width, slots = walk._grid
    tracemalloc.start()
    try:
        assert set(_slot_steps(walk.terms, walk.n, walk._grid, set())) == \
            {(None, None)}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * width * slots


@given(st.data(), st.integers(1, 2), st.sampled_from([ABS, SUP, EUC]))
@settings(max_examples=40, deadline=None)
def test_resumable_running_max_matches_absorbing_oracle(data, dim, norm):
    if norm is ABS and dim != 1:
        norm = SUP
    x = data.draw(lattice_dists(dim, max_atoms=3))
    walk = _walk(x, 5, norm=norm, reads={5, MAX})   # one pass
    for k in range(1, 6):
        curve = walk.max_curve(k)
        for q in curve.criticals + (curve.criticals[-1] + 1,):
            for mode in ("strict", "weak"):
                _, alive = absorbing_path_dp(x, k, norm, q, mode)
                assert curve.at_gauge(q, mode) == 1 - alive


def _max_steps(curves, k):
    """The first k running-max curves of a pass, ending with ("cap", size,
    cap) if the cap is hit."""
    out = []
    try:
        for curve in curves:
            out.append(curve)
            if len(out) == k:
                break
    except SupportCapExceeded as exc:
        out.append(("cap", exc.size, exc.cap))
    return out


def _pass_steps(walk, norm=None):
    """Each step of one pass (_dict_steps): S_i merged from its buckets, as
    (atoms sorted, den), and with a norm the running max's curve there; a
    pass that hits the cap ends both lists with ("cap", size, cap)."""
    sums, maxima = [], []
    gauge = norm and walk._gauge(norm)
    try:
        for (atoms, den), law in _dict_steps(walk.terms, walk.n, walk.cap,
                                             gauge, None):
            sums.append((sorted(atoms.items()), den))
            if norm:
                maxima.append(_gauge_curve(norm, law[0], walk.scale **
                                           norm.scale_exponent, law[1]))
    except SupportCapExceeded as exc:
        sums.append(("cap", exc.size, exc.cap))
        maxima.append(sums[-1])
    return sums, maxima


@given(st.data(), st.integers(1, 3), st.sampled_from([ABS, SUP, EUC]),
       st.integers(1, 5), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_walk_maxima_match_tuple_state_oracle(data, dim, norm, k, cap):
    """The running max bucketed on the sum walk gives the tuple-state DP's
    law at every step, or hits the cap at the same step with the same
    size.  Up to the step where the states pass the cap, the S_i merged
    from the buckets is the one-bucket fold's S_i; there the split pass
    stops, both its lists ending in ("cap", cap + 1, cap), as the
    tuple-state DP does."""
    if norm is ABS and dim != 1:
        norm = SUP
    x = data.draw(lattice_dists(dim, max_atoms=4))
    walk = _walk(x, k, cap, norm, {k, MAX})
    oracle = _max_steps((_gauge_curve(norm, *law) for law in
                         tuple_running_max_laws(x, norm, cap)), k)
    assert _max_steps(map(walk.max_curve, range(1, k + 1)), k) == oracle
    sums, maxima = _pass_steps(walk, norm)
    assert maxima == oracle
    lost = next((i for i, m in enumerate(maxima) if isinstance(m, tuple)),
                len(maxima))
    assert sums[:lost] == _pass_steps(walk)[0][:lost]
    assert sums[lost:] == maxima[lost:] == \
        [("cap", cap + 1, cap)][:len(maxima) - lost]


def test_curves_read_the_running_max_from_their_own_walk():
    """A walk past the horizon gives path_max_curve's curves, and a
    horizon past its walk is refused."""
    from iidtails.checks import CLAIMS, _sides
    x = dist1d([(-3, F(1, 7)), (0, F(2, 7)), (F(1, 3), F(3, 7)), (5, F(1, 7))])
    for norm in (ABS, SUP, EUC):
        walk = _walk(x, 6, norm=norm, reads={*range(1, 7), MAX})
        for k in range(1, 4):
            lhs, _ = _sides(walk, CLAIMS["corollary4"], {"k": k})
            assert lhs == path_max_curve(x, k, norm)
    with pytest.raises(ValueError):
        _sides(_walk(coin(), 1, norm=ABS, reads={1, MAX}),
               CLAIMS["corollary4"], {"k": 3})


@given(st.data(), st.integers(1, 3), st.sampled_from([ABS, SUP, EUC]),
       st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_walked_curves_match_brute_force(data, dim, norm, horizon):
    """Each S_i curve of one walk, built straight from the lattice law,
    equals the curve of the brute-force law of S_i; S_{H+1} is refused."""
    if norm is ABS and dim != 1:
        norm = SUP
    x = data.draw(lattice_dists(dim, max_atoms=3))
    curves = _walk(x, horizon, norm=norm, reads=range(1, horizon + 1))
    for i in range(1, horizon + 1):
        assert curves.curve(i) == tail_curve(brute_iid_sum(x, i), norm)
    with pytest.raises(ValueError):
        curves.curve(horizon + 1)


@given(st.data(), st.integers(1, 3), st.sampled_from([ABS, SUP, EUC]),
       st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_lattice_curves_match_brute_force(data, dim, norm, horizon):
    """A walk built on a law's lattice ints, (int coordinates, int mass)
    pairs, holds the law and the brute-force curve of each S_i."""
    if norm is ABS and dim != 1:
        norm = SUP
    x = data.draw(lattice_dists(dim, max_atoms=3))
    scale, dim, ((atoms, den),) = _encode([x])
    curves = _Walk(scale, dim, [(atoms, den)], range(1, horizon + 1),
                   DEFAULT_SUPPORT_CAP, norm)
    assert curves.dist(curves.law(1)) == x
    for i in range(1, horizon + 1):
        assert curves.curve(i) == tail_curve(brute_iid_sum(x, i), norm)


@given(st.lists(st.builds(F, st.integers(-40, 40), st.integers(1, 6)),
                min_size=1, max_size=4, unique=True),
       st.lists(st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
                min_size=1, max_size=4),
       st.sampled_from([ABS, SUP, EUC]))
@settings(max_examples=100, deadline=None)
def test_one_dimensional_gauge_reads_the_packed_point(values, alphas, norm):
    """In dimension 1 a packed point is its own coordinate, so the gauge of
    every sum of an iid walk and of a weighted walk is norm.gauge of the
    unpacked point."""
    x = DiscreteDist({v: F(1, len(values)) for v in values})
    for walk in (_walk(x, len(alphas)), _weighted(x, alphas)):
        gauge = walk._gauge(norm)
        for atoms, _ in walk.sums():
            for z in atoms:
                assert gauge(z) == norm.gauge(_unpack(z, walk.base, 1))


@given(st.data(), st.sampled_from([2, 3]), st.integers(1, 200),
       st.sampled_from([SUP, EUC]))
@settings(max_examples=200, deadline=None)
def test_packed_gauge_reads_the_balanced_digits(data, dim, half, norm):
    """The int gauge of an n-D packed point equals norm.gauge of its
    unpacked coordinates, negative coordinates and digits at +-base//2
    included."""
    base = 2 * half + 1
    coord = st.one_of(st.sampled_from([-half, half]),
                      st.integers(-half, half))
    coords = data.draw(st.lists(coord, min_size=dim, max_size=dim))
    z = _pack(coords, base)
    assert _unpack(z, base, dim) == coords
    gauge = _packed_gauge(base, dim, norm is EUC)
    assert gauge(z) == norm.gauge(coords)


@pytest.mark.parametrize("norm", [SUP, EUC])
def test_walk_gauges_packed_points_in_ints(norm):
    """A 2-D walk's gauge of every sum is norm.gauge of the unpacked point;
    abs1d is refused there."""
    x = DiscreteDist({(-2, 1): F(1, 4), (3, -3): F(1, 4), (0, 2): F(1, 2)},
                     dim=2)
    walk = _walk(x, 4)
    gauge = walk._gauge(norm)
    for atoms, _ in walk.sums():
        for z in atoms:
            assert gauge(z) == norm.gauge(_unpack(z, walk.base, 2))
    with pytest.raises(ValueError, match="abs1d"):
        walk._gauge(ABS)


def _watch_lattice_sums(monkeypatch):
    """Make every lattice sum weakly referable.  Returns a counter of those
    still alive and the list of its readings just after each sum is built."""
    import weakref
    from iidtails import dists

    class Atoms(dict):
        pass

    refs, after_step = [], []
    convolve_lattice = dists._convolve_lattice

    def alive():
        return sum(ref() is not None for ref in refs)

    def watched(a, b, cap):
        atoms, den = convolve_lattice(a, b, cap)
        atoms = Atoms(atoms)
        refs.append(weakref.ref(atoms))
        after_step.append(alive())
        return atoms, den

    monkeypatch.setattr(dists, "_convolve_lattice", watched)
    return alive, after_step


@pytest.mark.parametrize("build", [
    lambda x: iid_sum(x, 12),
    lambda x: weighted_iid_sum(x, [F(1, 2), -1, 1, F(1, 3), 1, -1, 1, 1]),
], ids=["iid_sum", "weighted_iid_sum"])
def test_lone_sum_holds_only_the_running_sum(monkeypatch, build):
    """A lone sum lets each S_{i-1} go once S_i is built: at no step are
    more than two partial sums alive, and none is left afterwards."""
    alive, after_step = _watch_lattice_sums(monkeypatch)
    build(dist1d([(-1, F(1, 3)), (0, F(1, 3)), (2, F(1, 3))]))
    assert len(after_step) > 5 and max(after_step) <= 2
    assert alive() == 0


def test_a_check_holds_little_more_than_a_lone_sum():
    """check_theorem1(X, 1, k) keeps S_1 and S_k and drops every sum the
    walk passes between them, so its peak traced memory stays within 4x
    that of iid_sum(X, k)."""
    import tracemalloc
    from iidtails.checks import check_theorem1
    x = dist1d([(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))])
    peaks = []
    for run in (lambda: iid_sum(x, 200), lambda: check_theorem1(x, 1, 200)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 4 * peaks[0]


def test_curves_keep_only_the_sums_their_checks_read(monkeypatch):
    """A walk keeps the lattice laws of the S_i in its reads for its
    lifetime and drops every other law once its pass has passed it."""
    alive, after_step = _watch_lattice_sums(monkeypatch)
    curves = _walk(coin(), 6, norm=ABS, reads={1, 6})
    assert curves.curve(6) == tail_curve(brute_iid_sum(coin(), 6), ABS)
    # S_6 is the one lattice sum alive; S_1 is the walk's own first term
    assert len(after_step) == 5 and max(after_step) <= 2 and alive() == 1
    assert curves.law(1) is curves.terms[0]
    assert curves.curve(1) == tail_curve(coin(), ABS)
    with pytest.raises(ValueError):
        curves.law(3)

    every = _walk(coin(), 6, norm=ABS, reads=range(1, 7))
    for i in range(1, 7):
        assert every.curve(i) == tail_curve(brute_iid_sum(coin(), i), ABS)
    assert alive() == 1 + 5         # S_6 above, S_2..S_6 here


def test_walk_holds_no_reference_cycle():
    """A walk that has answered law, curve and max_curve reads, or slot
    reads, is freed by reference counting alone, with the cyclic GC off:
    its pass is a module generator of the terms, and no frame it keeps
    holds the walk."""
    import gc
    import weakref
    x = dist1d([(-1, F(1, 3)), (0, F(1, 3)), (2, F(1, 3))])
    enabled = gc.isenabled()
    gc.disable()
    try:
        walk = _walk(x, 4, norm=ABS, reads={2, 4, MAX})
        walk.law(2), walk.curve(4), walk.max_curve(3)
        ref = weakref.ref(walk)
        del walk
        assert ref() is None
        walk = _walk(x, 40, norm=ABS, reads={20, 40})
        assert walk.on_slots
        walk.law(20), walk.curve(40)
        ref = weakref.ref(walk)
        del walk
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_read_outside_the_reads_names_them():
    """law and curve refuse an S_i the walk does not read, naming the sums
    it reads; max_curve refuses a horizon past the walk or a walk that
    does not read the running max."""
    walk = _walk(coin(), 6, norm=ABS, reads={2, 6, MAX})
    for read in (walk.law, walk.curve):
        with pytest.raises(ValueError, match=r"^S_3 is not among the sums "
                                             r"this walk reads, \[2, 6\]$"):
            read(3)
    with pytest.raises(ValueError, match="the running max to k=7"):
        walk.max_curve(7)
    with pytest.raises(ValueError, match="the running max to k=2"):
        _walk(coin(), 6, norm=ABS).max_curve(2)

import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iidtails.checks import (
    CLAIMS,
    check_corollary4,
    check_corollary5,
    check_corollary6,
    check_latala_sharp,
    check_levy_ottaviani,
    check_theorem1,
    sweep_curves,
    threshold_candidates,
    upper_envelope,
)
from iidtails.dists import (
    DiscreteDist,
    Norm,
    delta,
    iid_sum,
    path_max_tail,
    tail,
    tail_curve,
    weighted_iid_sum,
)
from iidtails.reports import HOLDS, VIOLATED
from oracles import coin, dist1d

ABS = Norm.ABS1D
RARE = dist1d([(0, F(99, 100)), (1, F(1, 100))])


class TestThresholdCandidates:
    def test_no_positive_jumps(self):
        assert threshold_candidates([F(0)]) == [F(1)]

    def test_brackets_and_jumps(self):
        got = threshold_candidates([F(1), F(3), F(0)])
        assert got == [F(1, 2), F(1), F(3), F(6)]

    def test_midpoints_only_when_mixed(self):
        got = threshold_candidates([F(1), F(3)], mixed_modes=True)
        assert F(2) in got
        assert got == sorted(got)


class TestTheorem1:
    def test_pinned_coin(self):
        r = check_theorem1(coin(), 1, 2)
        assert r.status == HOLDS
        assert (r.lhs, r.rhs, r.margin) == (F(1), F(3, 2), F(1, 2))
        assert 0 < r.worst_t < 1

    def test_pinned_delta0_any_constants(self):
        for c1, c2 in ((3, 10), (1, 1), (F(1, 5), F(1, 7))):
            r = check_theorem1(delta(0), 1, 3, c1, c2)
            assert r.status == HOLDS

    def test_zero_lhs_holds_with_note_not_vacuous(self):
        # sweep checkers report an identically zero lhs as holds with a
        # note; only lemma2 and corollary3 return vacuous
        r = check_theorem1(delta(0), 1, 2)
        assert r.status == HOLDS
        assert "lhs identically zero" in r.note

    def test_pinned_rare(self):
        r = check_theorem1(RARE, 1, 2)
        assert r.status == HOLDS
        assert r.lhs == F(1, 100)
        assert r.rhs == F(597, 10000)

    def test_false_constants_violated_with_witness(self):
        r = check_theorem1(coin(), 1, 2, 1, 1)
        assert r.status == VIOLATED
        assert r.witness is not None
        t = r.witness["t"]
        assert tail(coin(), ABS, t) > 1 * tail(iid_sum(coin(), 2), ABS, t)

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            check_theorem1(coin(), 3, 2)
        with pytest.raises(ValueError):
            check_theorem1(coin(), 0, 2)

    def test_rejects_nonpositive_constants(self):
        with pytest.raises(ValueError):
            check_theorem1(coin(), 1, 2, 0, 10)

    def test_report_fields(self):
        r = check_theorem1(coin(), 1, 2)
        assert r.claim_id == "theorem1"
        assert r.params["j"] == 1 and r.params["k"] == 2
        assert r.params["modes"] == ("strict", "strict")
        d = r.to_jsonable()
        assert d["status"] == "holds"
        assert d["margin"] == "1/2"

    def test_weak_mode_also_holds(self):
        for lhs_mode in ("strict", "weak"):
            for rhs_mode in ("strict", "weak", None):
                r = check_theorem1(coin(), 1, 2, lhs_mode=lhs_mode,
                                   rhs_mode=rhs_mode)
                assert r.status == HOLDS


class TestLatalaSharp:
    def test_pinned_coin_equality(self):
        r = check_latala_sharp(coin())
        assert r.status == HOLDS
        assert r.margin == 0
        assert 0 < r.worst_t < 1
        assert "external claim" in r.note

    def test_pinned_rare(self):
        r = check_latala_sharp(RARE)
        assert r.status == HOLDS
        assert r.lhs == F(1, 100)
        assert r.rhs == F(398, 10000)

    def test_delta0(self):
        assert check_latala_sharp(delta(0)).status == HOLDS


class TestLevyOttaviani:
    def test_pinned_deterministic_walk(self):
        r = check_levy_ottaviani(delta(1), 3)
        assert r.status == HOLDS

    def test_pinned_coin(self):
        r = check_levy_ottaviani(coin(), 2)
        assert r.status == HOLDS
        # worst active threshold: lhs = 1, rhs = 3 sup_j Pr(|S_j| > t/3) = 3
        assert r.lhs == F(1)
        assert r.rhs == F(3)

    def test_delta0(self):
        assert check_levy_ottaviani(delta(0), 4).status == HOLDS

    def test_matches_direct_quantifier(self):
        # re-verify the reduction against a dense manual grid
        x = dist1d([(-2, F(1, 3)), (1, F(1, 3)), (3, F(1, 3))])
        r = check_levy_ottaviani(x, 3)
        assert r.status == HOLDS
        for num in range(1, 120):
            t = F(num, 8)
            lhs = path_max_tail(x, 3, ABS, t)
            rhs = 3 * max(tail(iid_sum(x, j), ABS, t / 3)
                          for j in (1, 2, 3))
            assert lhs <= rhs


class TestCorollary4:
    def test_pinned_coin(self):
        r = check_corollary4(coin(), 2)
        assert r.status == HOLDS
        assert r.lhs == F(1)
        assert r.rhs == F(9, 2)

    def test_delta0(self):
        assert check_corollary4(delta(0), 3).status == HOLDS

    def test_latala_constants(self):
        assert check_corollary4(coin(), 4, 4, 6).status == HOLDS


class TestCorollary5:
    def test_unit_weights_with_identity_constants(self):
        x = dist1d([(-1, F(1, 4)), (2, F(3, 4))])
        r = check_corollary5(x, [1, 1, 1], 1, 1)
        assert r.status == HOLDS
        assert r.margin >= 0

    def test_pinned_coin_half(self):
        r = check_corollary5(coin(), [1, F(1, 2)])
        assert r.status == HOLDS

    def test_cancellation_case(self):
        r = check_corollary5(delta(1), [1, -1])
        assert r.status == HOLDS
        assert r.lhs == 0 or r.note is not None  # lhs identically zero

    def test_rejects_large_weight(self):
        with pytest.raises(ValueError, match="alpha"):
            check_corollary5(coin(), [1, F(3, 2)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_corollary5(coin(), [])


class TestCorollary6:
    def test_pinned_deterministic(self):
        r = check_corollary6(delta(1), 4, 2)
        assert r.status == HOLDS
        # check the pinned instant: t = 39/10
        lhs = tail(delta(4), ABS, F(39, 10))
        rhs = F(12) * tail(delta(2), ABS, F(39, 100))
        assert lhs == 1 and rhs == 12

    def test_equal_indices(self):
        r = check_corollary6(coin(), 2, 2)
        assert r.status == HOLDS

    def test_pinned_binomial(self):
        r = check_corollary6(dist1d([(0, F(9, 10)), (1, F(1, 10))]), 3, 1)
        assert r.status == HOLDS

    def test_rejects_k_above_j(self):
        with pytest.raises(ValueError):
            check_corollary6(coin(), 2, 3)


class TestClaimTable:
    def test_readme_table_states_the_registry(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        rows = {}
        for line in readme.read_text(encoding="utf-8").splitlines():
            m = re.match(r"\| `(\w+)` +\| (.*) \| ([^|]*) \|$", line)
            if m:
                rows[m.group(1)] = (m.group(2), m.group(3).strip())
        assert set(rows) == set(CLAIMS)
        for name, spec in CLAIMS.items():
            statement, defaults = rows[name]
            if spec.constants is not None:
                c1, c2 = spec.constants
                assert defaults.startswith(f"({c1}, {c2})"), name
            assert ("fixed" in defaults) == \
                (spec.fixed or spec.constants is None), name
            for shape, pairs in spec.shapes:
                assert shape in statement
                for c1, c2 in pairs:
                    assert f"({c1}, {c2})" in statement, name


class TestUpperEnvelope:
    def test_envelope_is_pointwise_max(self):
        x = dist1d([(-1, F(1, 2)), (2, F(1, 2))])
        curves = [tail_curve(iid_sum(x, j), ABS) for j in (1, 2, 3)]
        env = upper_envelope(curves)
        for num in range(0, 80):
            t = F(num, 8)
            for mode in ("strict", "weak"):
                assert env.at_radius(t, mode) == max(
                    c.at_radius(t, mode) for c in curves)

    def test_rejects_mixed_norms(self):
        a = tail_curve(coin(), ABS)
        b = tail_curve(DiscreteDist({(F(1), F(1)): F(1)}), Norm.SUP)
        with pytest.raises(ValueError):
            upper_envelope([a, b])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            upper_envelope([])


class TestSweepCompleteness:
    """The finite candidate set must decide the full 'for all t' quantifier."""

    def _random_dist(self, rng):
        n = rng.randint(1, 4)
        vals = rng.sample(range(-8, 9), n)
        weights = [rng.randint(1, 5) for _ in range(n)]
        tot = sum(weights)
        return dist1d([(F(v, 4), F(w, tot)) for v, w in zip(vals, weights)])

    def test_dense_sampling_agrees_with_sweep(self):
        rng = random.Random(2024)
        for _ in range(60):
            x = self._random_dist(rng)
            j = rng.randint(1, 2)
            k = rng.randint(j, 3)
            c1 = F(rng.randint(1, 4))
            c2 = F(rng.randint(1, 12), rng.randint(1, 3))
            lhs_mode = rng.choice(("strict", "weak"))
            rhs_mode = rng.choice(("strict", "weak"))
            rep = check_theorem1(x, j, k, c1, c2,
                                 lhs_mode=lhs_mode, rhs_mode=rhs_mode)
            sj = iid_sum(x, j)
            sk = iid_sum(x, k)
            dense_viol = False
            for num in range(1, 400):
                t = F(num, 16)
                lhs = tail(sj, ABS, t, lhs_mode)
                rhs = c1 * tail(sk, ABS, t / c2, rhs_mode)
                if lhs > rhs:
                    dense_viol = True
                    break
            if dense_viol:
                assert rep.status == VIOLATED
            # the converse is implied: a sweep violation is an exact
            # counterexample at a concrete t
            if rep.status == VIOLATED:
                t = rep.witness["t"]
                assert tail(sj, ABS, t, lhs_mode) > \
                    c1 * tail(sk, ABS, t / c2, rhs_mode)


small_rationals = st.builds(F, st.integers(-10, 10), st.integers(1, 4))


@st.composite
def small_dists(draw):
    n = draw(st.integers(1, 3))
    vals = draw(st.lists(small_rationals, min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    tot = sum(weights)
    return DiscreteDist({(v,): F(w, tot) for v, w in zip(vals, weights)})


@given(small_dists(), st.integers(1, 3), st.integers(0, 2),
       st.sampled_from(["strict", "weak"]))
@settings(max_examples=60, deadline=None)
def test_theorem1_never_violated_with_proven_constants(x, j, extra, mode):
    k = j + extra
    r = check_theorem1(x, j, k, lhs_mode=mode)
    assert r.status == HOLDS
    assert r.margin >= 0


@given(small_dists(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_corollary4_never_violated_with_defaults(x, k):
    assert check_corollary4(x, k).status == HOLDS


@given(small_dists(),
       st.lists(st.builds(F, st.integers(-4, 4), st.just(4)),
                min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_corollary5_never_violated_with_defaults(x, alphas):
    assert check_corollary5(x, alphas).status == HOLDS

import math
import random
import re
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iidtails.checks import (
    CLAIMS,
    MODE_PAIRS,
    SweepOutcome,
    _Pair,
    _sweep,
    check_corollary4,
    check_corollary5,
    check_corollary6,
    check_latala_sharp,
    check_levy_ottaviani,
    check_theorem1,
    claim_reports,
    least_c1,
    plan_entry,
    shape_checks,
    sweep_curves,
    threshold_candidates,
    upper_envelope,
    variants,
)
from iidtails import checks
from iidtails.dists import (
    DEFAULT_SUPPORT_CAP,
    DiscreteDist,
    Norm,
    SupportCapExceeded,
    _encode,
    _Walk,
    delta,
    iid_sum,
    path_max_tail,
    tail,
    tail_curve,
    weighted_iid_sum,
)
from iidtails.corpus import (CorpusConfig, CorpusReport, _absorb, _exact,
                             _item)
from iidtails.reports import HOLDS, VIOLATED
from oracles import (
    coin,
    dist1d,
    fraction_least_c1,
    fraction_sweep_curves,
    fraction_threshold_candidates,
    fraction_upper_envelope,
)

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


class TestSweepCurves:
    def test_constants_are_exact(self):
        lhs, rhs = tail_curve(coin(), ABS), tail_curve(iid_sum(coin(), 2), ABS)
        out = sweep_curves(lhs, rhs, "1/10", 3)
        assert out == sweep_curves(lhs, rhs, F(1, 10), F(3))
        assert (type(out.rhs), type(out.margin)) == (F, F)
        assert (out.status, out.margin) == (VIOLATED, F(-19, 20))

    @pytest.mark.parametrize("norm", [ABS, Norm.EUCLIDEAN])
    @pytest.mark.parametrize("scale", [0, -1, F(-3, 2)])
    def test_refuses_a_scale_that_is_not_positive(self, norm, scale):
        # read as t / scale, a negative scale made the coin's abs1d sweep
        # say violated and its euclidean one square the sign away
        lhs, rhs = tail_curve(coin(), norm), tail_curve(iid_sum(coin(), 2),
                                                        norm)
        with pytest.raises(ValueError, match="^scales must be positive$"):
            sweep_curves(lhs, rhs, 2, scale)
        with pytest.raises(ValueError, match="^scales must be positive$"):
            least_c1(lhs, rhs, 1, scale)


class TestLeastC1Factor:
    """least_c1 reads its factor as sweep_curves reads factor and scale,
    through rat, and refuses one that is not positive, on the +-1 coin's
    S_1 and S_2 curves, where the least c1 at factor 1 is 2."""

    LHS, RHS = tail_curve(coin(), ABS), tail_curve(iid_sum(coin(), 2), ABS)

    def test_exact_factor(self):
        assert least_c1(self.LHS, self.RHS, 1, 1) == (2, F(1, 2))
        assert least_c1(self.LHS, self.RHS, "1/2", 1) == (4, F(1, 2))

    def test_refuses_a_float_factor(self):
        # it returned the float c1 4.0
        with pytest.raises(TypeError, match="^refusing float 0.5"):
            least_c1(self.LHS, self.RHS, 0.5, 1)

    def test_refuses_a_zero_factor(self):
        # it raised a bare ZeroDivisionError: Fraction(1, 0)
        with pytest.raises(ValueError, match="^factors must be positive$"):
            least_c1(self.LHS, self.RHS, 0, 1)

    @pytest.mark.parametrize("factor", [-1, F(-1, 2)])
    def test_refuses_a_negative_factor(self, factor):
        # -1 gave c1 = -2
        with pytest.raises(ValueError, match="^factors must be positive$"):
            least_c1(self.LHS, self.RHS, factor, 1)


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


class TestClaimConstants:
    """variants is the one constants rule, so claim_reports, the corpus and
    mc_check refuse the same constants."""

    REFUSING = (("latala_sharp", "has fixed constants"),
                ("latala_alt", "has fixed constants"),
                ("lemma2", "takes no constants"),
                ("corollary3", "takes no constants"))

    @pytest.mark.parametrize("claim, what", REFUSING)
    @pytest.mark.parametrize("c1, c2", ((F(1, 100), None), (None, F(1)),
                                        (F(2), F(3, 2))))
    def test_refuses_constants_it_does_not_take(self, claim, what, c1, c2):
        spec = CLAIMS[claim]
        message = f"^{claim} {what}, so no {'c2' if c1 is None else 'c1'}$"
        with pytest.raises(ValueError, match=message):
            variants(spec, c1, c2)
        given = {"j": 1, "k": 2, "t": F(1)}
        with pytest.raises(ValueError, match=message):
            claim_reports(spec, [coin()], Norm.ABS1D, given, c1, c2)

    def test_defaults_and_positivity(self):
        spec = CLAIMS["theorem1"]
        assert variants(spec) == [(spec, F(3), F(10))]
        assert variants(spec, 1, "1/2") == [(spec, F(1), F(1, 2))]
        for c1, c2 in ((0, None), (None, F(-1))):
            with pytest.raises(ValueError, match="constants for theorem1 "
                                                 "must be positive"):
                variants(spec, c1, c2)
        sharp = CLAIMS["latala_sharp"]
        assert variants(sharp) == [(sharp, F(2), F(3, 2))]
        assert variants(CLAIMS["lemma2"]) == [(CLAIMS["lemma2"], None, None)]
        assert len(variants(CLAIMS["latala_alt"])) == 4


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


# --- the integer sweep against the Fraction sweep of every candidate ---------

NORMS_BY_DIM = {1: [Norm.ABS1D, Norm.SUP, Norm.EUCLIDEAN],
                2: [Norm.SUP, Norm.EUCLIDEAN]}
positive_rationals = st.builds(F, st.integers(1, 12), st.integers(1, 5))
# scales below 1, 1, and the claims' 10, 20 * j / k and 90, which put most
# rhs criticals past the lhs's support
scales = st.one_of(positive_rationals,
                   st.sampled_from([F(1, 10), F(1), F(10), F(40, 3), F(90)]))
modes = st.sampled_from(["strict", "weak"])
ALL_MODE_PAIRS = (("strict", "strict"), ("weak", "weak"),
                  ("strict", "weak"), ("weak", "strict"))


@st.composite
def laws(draw, dim):
    n = draw(st.integers(1, 3))
    coord = st.builds(F, st.integers(-6, 6), st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=n, max_size=n,
                        unique=True))
    weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return DiscreteDist({pt: F(w, sum(weights))
                         for pt, w in zip(pts, weights)})


@st.composite
def curve_lists(draw, size):
    """Tail curves of S_i of up to two laws under one norm, dims 1-2."""
    dim = draw(st.sampled_from([1, 2]))
    norm = draw(st.sampled_from(NORMS_BY_DIM[dim]))
    xs = [draw(laws(dim)), draw(laws(dim))]
    return [tail_curve(iid_sum(xs[draw(st.integers(0, 1))],
                               draw(st.integers(1, 3))), norm)
            for _ in range(draw(size))]


@given(curve_lists(st.just(2)), positive_rationals, scales)
@settings(max_examples=300, deadline=None)
def test_walk_matches_fraction_sweep(curves, factor, scale):
    """All four mode pairs, rational factor and scale (below 1, 1, 10 and
    more, with non-unit denominators too): the whole SweepOutcome and the
    least c1, read only where the margin can fall, are those of the
    Fraction sweep over every candidate threshold."""
    lhs, rhs = curves
    assert sweeps(lhs, rhs, factor, scale, ALL_MODE_PAIRS) == \
        [fraction_sweep_curves(lhs, rhs, factor, scale, *m)
         for m in ALL_MODE_PAIRS]
    assert least_c1(lhs, rhs, factor, scale) == \
        fraction_least_c1(lhs, rhs, factor, scale)


@given(curve_lists(st.just(2)), scales, modes, modes)
@settings(max_examples=300, deadline=None)
def test_sweep_reads_only_below_the_lhs_reach(curves, scale, lhs_mode,
                                              rhs_mode):
    """A sweep reads the first threshold and at most one threshold per rhs
    critical (times scale^e) below the lhs's last critical, or at it too
    for a weak lhs against a strict rhs, where the weak lhs still reads
    the mass at that critical; every read past the first has lhs > 0."""
    lhs, rhs = curves
    last = lhs.criticals[-1]
    scaled = [c * scale ** lhs.norm.scale_exponent for c in rhs.criticals]
    reach = sum(c < last or (c == last and (lhs_mode, rhs_mode)
                             == ("weak", "strict")) for c in scaled)
    xs, nls, _ = _Pair(lhs, rhs, scale).reads(lhs_mode, rhs_mode)
    assert len(xs) <= reach + 1
    assert xs == sorted(set(xs)) and all(nls[1:])


@given(curve_lists(st.integers(1, 4)))
@settings(max_examples=150, deadline=None)
def test_envelope_matches_fraction_envelope(curves):
    assert upper_envelope(curves) == fraction_upper_envelope(curves)


@given(st.lists(st.builds(F, st.integers(0, 40), st.integers(1, 6)),
                max_size=6), st.booleans())
@settings(max_examples=150, deadline=None)
def test_threshold_candidates_match_fraction_rule(jumps, mixed):
    assert threshold_candidates(jumps, mixed) == \
        fraction_threshold_candidates(jumps, mixed)


class TestWalkCases:
    """The corner cases the differential test must not leave to chance."""

    def test_lhs_identically_zero(self):
        zero, rhs = tail_curve(delta(0), ABS), tail_curve(coin(), ABS)
        assert least_c1(zero, rhs, F(1), F(1)) == (0, None) == \
            fraction_least_c1(zero, rhs, F(1), F(1))
        out = sweep_curves(zero, rhs, 1, 1, "weak", "strict")
        assert out == fraction_sweep_curves(zero, rhs, 1, 1, "weak", "strict")
        assert (out.status, out.max_lhs) == (HOLDS, 0)

    def test_tied_minima_go_to_the_least_threshold(self):
        """Both sides uniform on {1, 2, 3, 4}: unless a weak lhs meets a
        strict rhs, every read has margin 0 and ratio 1, so the worst is
        the first threshold."""
        lhs = rhs = tail_curve(dist1d([(i, F(1, 4)) for i in (1, 2, 3, 4)]),
                               ABS)
        tied = ALL_MODE_PAIRS[:3]
        outs = sweeps(lhs, rhs, F(1), F(1), tied)
        assert outs == [fraction_sweep_curves(lhs, rhs, 1, 1, *m)
                        for m in tied]
        assert {(o.worst_q, o.margin) for o in outs} == {(F(1, 2), 0)}
        assert least_c1(lhs, rhs, F(1), F(1)) == (1, F(1, 2))
        assert len(_Pair(lhs, rhs, F(1)).reads("strict", "strict")[0]) == 4

    def test_weak_rhs_reads_after_its_critical(self):
        """A weak rhs read counts a critical c only at the candidate after
        c: the next jump when both reads are weak, the midpoint to it when
        the lhs read is strict.  At c itself the rhs would read its drop
        too early and miss the worst case, which is at those thresholds."""
        lhs = tail_curve(dist1d([(4, F(1))]), ABS)
        rhs = tail_curve(dist1d([(2, F(1, 2)), (5, F(1, 2))]), ABS)
        for lhs_mode, t in (("weak", F(4)), ("strict", F(3))):
            out = sweep_curves(lhs, rhs, F(1), F(1), lhs_mode, "weak")
            assert out == fraction_sweep_curves(lhs, rhs, 1, 1, lhs_mode,
                                                "weak")
            assert (out.worst_q, out.margin) == (t, F(-1, 2))

    def test_strict_lhs_reach_stops_below_its_last_critical(self):
        """|X| = 1 on both sides and factor 2: past the lhs's last critical
        a strict lhs is 0, and the read there (margin 0) would hide the
        worst case with lhs > 0 (margin 1, at t = 1/2)."""
        lhs = rhs = tail_curve(coin(), ABS)
        for modes_ in (("strict", "strict"), ("strict", "weak")):
            out = sweep_curves(lhs, rhs, F(2), F(1), *modes_)
            assert out == fraction_sweep_curves(lhs, rhs, 2, 1, *modes_)
            assert (out.worst_q, out.lhs, out.margin) == (F(1, 2), 1, 1)

    def test_rhs_vanishes_first(self):
        lhs, rhs = tail_curve(coin(-2, 2), ABS), tail_curve(coin(), ABS)
        got = least_c1(lhs, rhs, F(1), F(1, 2))
        assert got == fraction_least_c1(lhs, rhs, F(1), F(1, 2))
        assert got == (math.inf, F(1, 2))

    @pytest.mark.parametrize("scale", [F(3, 2), F(2, 3), F(5, 7)])
    def test_euclidean_non_unit_scale(self, scale):
        x = DiscreteDist({(F(1), F(-1, 2)): F(1, 3), (F(0), F(2)): F(2, 3)})
        lhs = tail_curve(x, Norm.EUCLIDEAN)
        rhs = tail_curve(iid_sum(x, 2), Norm.EUCLIDEAN)
        for modes_ in (("strict", "strict"), ("weak", "strict"),
                       ("strict", "weak")):
            assert sweep_curves(lhs, rhs, F(3, 2), scale, *modes_) == \
                fraction_sweep_curves(lhs, rhs, F(3, 2), scale, *modes_)
        assert least_c1(lhs, rhs, F(1), scale) == \
            fraction_least_c1(lhs, rhs, F(1), scale)


# --- one strict sweep for both unmixed mode pairs ----------------------------

def sweeps(lhs, rhs, factor, scale, modes):
    """The SweepOutcome of each mode pair in modes, from _sweep's int worst
    cases: MODE_PAIRS in one call, any other tuple one call per pair."""
    outs = []
    for call in [modes] if modes == MODE_PAIRS else [(m,) for m in modes]:
        ts, *rest = _sweep(lhs, rhs, factor, scale, call)
        outs += [SweepOutcome(VIOLATED if rest[2][0] < 0 else HOLDS,
                              *(F(n, d) for n, d in (t, *rest))) for t in ts]
    return outs


def unmixed_oracle(lhs, rhs, factor, scale):
    return [fraction_sweep_curves(lhs, rhs, factor, scale, m, m)
            for m in ("strict", "weak")]


@given(curve_lists(st.just(2)), positive_rationals, scales)
@settings(max_examples=300, deadline=None)
def test_shared_walk_matches_fraction_sweep(curves, factor, scale):
    """The weak outcome read off the strict sweep is the Fraction sweep's
    weak outcome, worst_q included."""
    lhs, rhs = curves
    assert sweeps(lhs, rhs, factor, scale, MODE_PAIRS) == \
        unmixed_oracle(lhs, rhs, factor, scale)


class TestSharedWalkCases:
    """Corner cases of reading the weak outcome off the strict sweep."""

    def test_lhs_identically_zero(self):
        zero, rhs = tail_curve(delta(0), ABS), tail_curve(coin(), ABS)
        outs = sweeps(zero, rhs, F(1), F(1), MODE_PAIRS)
        assert outs == unmixed_oracle(zero, rhs, F(1), F(1))
        assert [(o.status, o.max_lhs, o.worst_q) for o in outs] == \
            [(HOLDS, 0, F(1, 2))] * 2

    @pytest.mark.parametrize("side", ["lhs", "rhs", "both"])
    def test_zero_critical(self, side):
        at_zero = tail_curve(dist1d([(0, F(1, 2)), (3, F(1, 2))]), ABS)
        off_zero = tail_curve(dist1d([(1, F(1, 3)), (2, F(2, 3))]), ABS)
        lhs = at_zero if side in ("lhs", "both") else off_zero
        rhs = at_zero if side in ("rhs", "both") else off_zero
        for factor, scale in ((F(1), F(1)), (F(1, 3), F(2)), (F(2), F(1, 2))):
            assert sweeps(lhs, rhs, factor, scale, MODE_PAIRS) == \
                unmixed_oracle(lhs, rhs, factor, scale)

    def test_single_threshold_grid(self):
        """No positive critical on either side: one read, at t = 1."""
        zero = tail_curve(delta(0), ABS)
        outs = sweeps(zero, zero, F(3), F(2), MODE_PAIRS)
        assert outs == unmixed_oracle(zero, zero, F(3), F(2))
        assert [o.worst_q for o in outs] == [F(1)] * 2

    def test_strict_worst_at_first_threshold(self):
        """|X| = 1: the least minimal margin is at t = 1/2 in both modes,
        although the weak read at t = 1 ties it."""
        lhs = rhs = tail_curve(coin(), ABS)
        outs = sweeps(lhs, rhs, F(1, 2), F(1), MODE_PAIRS)
        assert outs == unmixed_oracle(lhs, rhs, F(1, 2), F(1))
        assert [(o.status, o.worst_q, o.margin) for o in outs] == \
            [(VIOLATED, F(1, 2), F(-1, 2))] * 2

    def test_strict_worst_further_on(self):
        """A later strict worst moves one threshold on in weak mode."""
        lhs = tail_curve(dist1d([(1, F(1, 2)), (2, F(1, 2))]), ABS)
        rhs = tail_curve(dist1d([(F(1, 2), F(1, 2)), (3, F(1, 2))]), ABS)
        strict, weak = sweeps(lhs, rhs, F(1), F(1), MODE_PAIRS)
        assert [strict, weak] == unmixed_oracle(lhs, rhs, F(1), F(1))
        assert (strict.worst_q, weak.worst_q) == (F(1, 2), F(1))
        assert strict.margin == weak.margin == F(-1, 2)

    @pytest.mark.parametrize("modes", [
        (("weak", "weak"), ("strict", "strict")),
        (("strict", "weak"), ("weak", "strict")),
        (("strict", "strict"),),
    ])
    def test_other_mode_tuples_walk_each_pair(self, modes):
        """One call per pair reads that pair; a tuple of pairs other than
        MODE_PAIRS is refused."""
        lhs = tail_curve(dist1d([(0, F(1, 4)), (1, F(3, 4))]), ABS)
        rhs = tail_curve(iid_sum(coin(0, 1), 2), ABS)
        assert sweeps(lhs, rhs, F(1), F(3, 2), modes) == \
            [fraction_sweep_curves(lhs, rhs, F(1), F(3, 2), *m)
             for m in modes]
        if len(modes) > 1:
            with pytest.raises(ValueError, match="one pair or MODE_PAIRS"):
                _sweep(lhs, rhs, F(1), F(3, 2), modes)


# --- corpus rows rendered from the int outcomes ------------------------------

EUCLID = tail_curve(DiscreteDist({(F(1), F(-1, 2)): F(1, 3),
                                  (F(0), F(2)): F(2, 3)}), Norm.EUCLIDEAN)


def want_report(claim, params, want, norm):
    """The report of a Fraction sweep outcome, field by field as the
    report schema states it."""
    notes = [CLAIMS[claim].note] if CLAIMS[claim].note else []
    if want.max_lhs == 0:
        notes.append("lhs identically zero")
    if norm is Norm.EUCLIDEAN:
        notes.append("thresholds are squared radii (euclidean gauge)")
    fields = {"t": want.worst_q, "lhs": want.lhs, "rhs": want.rhs}
    return {"claim_id": claim, "params": params,
            "worst_t": str(want.worst_q), "lhs": str(want.lhs),
            "rhs": str(want.rhs), "margin": str(want.margin),
            "status": want.status,
            "witness": {k: str(v) for k, v in fields.items()}
            if want.status == VIOLATED else None,
            "note": "; ".join(notes) or None}


@given(curve_lists(st.just(2)), positive_rationals, positive_rationals,
       st.sampled_from(["theorem1", "latala_sharp"]))
@example([tail_curve(delta(0), ABS), tail_curve(coin(), ABS)], F(1), F(1),
         "theorem1")
@example([tail_curve(coin(), ABS)] * 2, F(1, 2), F(1), "latala_sharp")
@example([EUCLID, EUCLID], F(1, 3), F(3, 2), "theorem1")
@settings(max_examples=200, deadline=None)
def test_rows_render_the_fraction_sweep(curves, factor, scale, claim):
    """Every field of a corpus row, rendered from the int outcome, is str
    or float of the Fraction sweep's value, at both MODE_PAIRS; the note
    and the report of a mixed-mode pair match it too.  The examples pin a
    negative margin, an lhs identically 0 and a euclidean note."""
    lhs, rhs = curves
    norm = lhs.norm
    spec = CLAIMS[claim]
    report = CorpusReport(CorpusConfig(seed=0, count=1), [claim])
    # both claims' factor and scale are their constants, here factor, scale
    entry = plan_entry(spec, spec, factor, scale, {"j": 1, "k": 2}, norm,
                       MODE_PAIRS)
    sides = mock.patch.object(checks, "_sides",
                              lambda walk, shape, idx: (lhs, rhs))
    with sides:
        _absorb(report, 0, delta(0), _item([(spec, spec, factor, scale)], 0,
                                           {"j": 1, "k": 2}, norm, {}, {}),
                shape_checks(entry, None))
    for row, modes in zip(report.rows, MODE_PAIRS):
        want = fraction_sweep_curves(lhs, rhs, factor, scale, *modes)
        expected = want_report(claim, None, want, norm)
        fields = ("worst_t", "lhs", "rhs", "margin", "status", "note")
        assert {k: row[k] for k in fields} == {k: expected[k] for k in fields}
        assert row["margin_float_approx"] == float(want.margin)
    assert len(report.rows) == 2
    for modes in (("weak", "strict"), ("strict", "weak")):
        entry = plan_entry(spec, spec, factor, scale, {"j": 1, "k": 2}, norm,
                           (modes,))
        with sides:
            out = shape_checks(entry, None)
        want = fraction_sweep_curves(lhs, rhs, factor, scale, *modes)
        assert [_exact(v) for v in (*out.ts, *out[1:4])] == \
            [str(v) for v in (want.worst_q, want.lhs, want.rhs, want.margin)]
        assert (out.status, out.note) == \
            (want.status, want_report(claim, {}, want, norm)["note"])
        (rep,) = out.reports(claim, entry.echoes)
        params = {"j": 1, "k": 2, "c1": str(factor), "c2": str(scale),
                  "norm": norm.value, "modes": list(modes)}
        assert rep.to_jsonable() == want_report(claim, params, want, norm)


def test_incremental_envelope_is_the_envelope():
    """_Walk.envelope(k), the envelope to k - 1 raised by S_k's curve, is
    the envelope of S_1..S_k at every k, read from the top down too."""
    laws_ = [coin(), dist1d([(0, F(1, 3)), (F(1, 2), F(1, 6)), (3, F(1, 2))]),
             DiscreteDist({(F(1), F(-1, 2)): F(1, 3), (F(0), F(2)): F(2, 3)})]
    for x in laws_:
        for norm in NORMS_BY_DIM[x.dim]:
            walk = _Walk(*_encode([x]), range(1, 7), DEFAULT_SUPPORT_CAP,
                         norm)
            assert walk.envelope(6) is walk.envelope(6)
            for k in range(1, 7):
                assert walk.envelope(k) == upper_envelope(
                    [walk.curve(i) for i in range(1, k + 1)])


def test_read_past_the_cap_raises_the_cap_error_again():
    """A pass stopped at the cap raises SupportCapExceeded on every later
    read past it, not StopIteration; reads before it still answer."""
    x = dist1d([(0, F(1, 3)), (1, F(1, 3)), (3, F(1, 3))])
    walk = _Walk(*_encode([x]), {1, 4}, 5, ABS)
    for _ in range(3):
        with pytest.raises(SupportCapExceeded, match="exceeds cap 5"):
            walk.curve(4)
    assert walk.curve(1) == tail_curve(x, ABS)

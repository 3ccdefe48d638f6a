import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from iidtails import checks, concentration, dists
from iidtails.checks import CLAIMS, check_theorem1, claim_reports
from iidtails.concentration import (
    ConcentrationSet,
    check_corollary3,
    check_lemma2,
    classify_case,
    concentration_set,
    has_concentration_point,
    window_mass,
)
from iidtails.corpus import CorpusConfig, run_corpus
from iidtails.dists import DiscreteDist, Norm, convolve, delta, iid_sum, tail
from iidtails.reports import HOLDS, VACUOUS, VIOLATED, jsonify
from oracles import (coin, dist1d, fraction_concentration_set,
                     fraction_corollary3, fraction_lemma2)


def rand_dist(rng, max_atoms=4, span=8, den=4):
    n = rng.randint(1, max_atoms)
    vals = rng.sample(range(-span, span + 1), n)
    weights = [rng.randint(1, 6) for _ in range(n)]
    tot = sum(weights)
    return dist1d([(F(v, den), F(w, tot)) for v, w in zip(vals, weights)])


class TestConcentrationSet:
    def test_pinned_dominant_atom(self):
        cs = concentration_set(dist1d([(0, F(4, 5)), (10, F(1, 5))]), 1)
        assert cs.intervals == ((F(-1), F(1)),)

    def test_pinned_coin_empty(self):
        cs = concentration_set(coin(), F(1, 2))
        assert cs.is_empty

    def test_pinned_coin_degenerate_point(self):
        cs = concentration_set(coin(), 1)
        assert cs.intervals == ((F(0), F(0)),)

    def test_point_mass(self):
        cs = concentration_set(delta(5), F(1, 4))
        assert cs.intervals == ((F(19, 4), F(21, 4)),)
        assert concentration_set(delta(5), 0).intervals == ((F(5), F(5)),)

    def test_mass_exactly_two_thirds_excluded(self):
        x = dist1d([(0, F(2, 3)), (10, F(1, 3))])
        cs = concentration_set(x, 1)
        assert not cs.contains(0)

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            concentration_set(coin(), -1)

    def test_rejects_dim2(self):
        x = DiscreteDist({(F(0), F(0)): F(1)})
        with pytest.raises(ValueError):
            concentration_set(x, 1)

    def test_set_invariants_rejected(self):
        with pytest.raises(ValueError):
            ConcentrationSet(((F(1), F(0)),))
        with pytest.raises(ValueError):
            ConcentrationSet(((F(0), F(2)), (F(1), F(3))))

    def test_monotone_in_t(self):
        rng = random.Random(11)
        for _ in range(40):
            x = rand_dist(rng)
            t1 = F(rng.randint(0, 12), 8)
            t2 = t1 + F(rng.randint(0, 8), 8)
            small = concentration_set(x, t1)
            big = concentration_set(x, t2)
            for lo, hi in small.intervals:
                assert any(blo <= lo and hi <= bhi
                           for blo, bhi in big.intervals)

    def test_membership_probes(self):
        rng = random.Random(13)
        probes = 0
        while probes < 1000:
            x = rand_dist(rng)
            t = F(rng.randint(0, 16), 8)
            cs = concentration_set(x, t)
            for _ in range(10):
                pt = F(rng.randint(-40, 40), 8)
                assert cs.contains(pt) == (window_mass(x, pt, t) > F(2, 3))
                probes += 1


class TestHasConcentrationPoint:
    def test_point_mass(self):
        for t in (0, F(1, 2), 3):
            found, w, exact = has_concentration_point(delta(5), t)
            assert found and exact
            assert window_mass(delta(5), w, t) > F(2, 3)
            assert concentration_set(delta(5), t).contains(5)

    def test_coin_half(self):
        found, w, exact = has_concentration_point(coin(), F(1, 2))
        assert (found, w, exact) == (False, None, True)

    def test_dominant_atom(self):
        x = dist1d([(0, F(7, 10)), (9, F(3, 10))])
        found, w, exact = has_concentration_point(x, 1)
        assert found and exact
        assert window_mass(x, w, 1) > F(2, 3)
        assert concentration_set(x, 1).contains(0)

    def test_dim2_witness_is_approximate(self):
        x = DiscreteDist({(F(0), F(0)): F(3, 4), (F(5), F(5)): F(1, 4)})
        found, w, exact = has_concentration_point(x, 1, Norm.EUCLIDEAN)
        assert found and w == (F(0), F(0))
        assert not exact

    def test_dim2_absence_is_approximate(self):
        x = DiscreteDist({(F(0), F(0)): F(1, 2), (F(5), F(5)): F(1, 2)})
        found, w, exact = has_concentration_point(x, 1, Norm.EUCLIDEAN)
        assert not found and not exact

    def test_rejects_negative_t_in_every_dimension(self):
        # a negative radius has no window, so no point can witness one
        z = DiscreteDist({(F(0), F(0)): F(9, 10), (F(1), F(1)): F(1, 10)})
        for x, norm in ((coin(), Norm.ABS1D), (z, Norm.EUCLIDEAN),
                        (z, Norm.SUP)):
            with pytest.raises(ValueError, match=r"t must be >= 0, got -1$"):
                has_concentration_point(x, -1, norm)


class TestLemma2:
    def test_pinned_delta1_tight(self):
        r = check_lemma2(delta(1), delta(1), F(1, 2))
        assert r.status == HOLDS
        assert r.lhs == F(3, 2)
        assert r.rhs == F(3, 2)
        assert r.margin == 0

    def test_pinned_delta0_equality(self):
        for t in (F(1, 3), 1, F(7, 2)):
            r = check_lemma2(delta(0), delta(0), t)
            assert r.status == HOLDS
            assert r.lhs == 3 * t and r.margin == 0

    def test_pinned_vacuous(self):
        r = check_lemma2(coin(), delta(0), F(1, 2))
        assert r.status == VACUOUS
        assert "X" in r.note
        assert r.lhs is None and r.margin is None

    def test_asymmetric_pair(self):
        x = dist1d([(0, F(9, 10)), (4, F(1, 10))])
        y = delta(2)
        r = check_lemma2(x, y, F(1, 2))
        assert r.status == HOLDS

    def test_rejects_laws_of_two_dimensions(self):
        with pytest.raises(ValueError, match="dimension mismatch: 1 vs 2"):
            check_lemma2(coin(), DiscreteDist({(0, 1): F(1)}), 1)

    def test_verify_reads_x_and_y_off_one_walk(self, monkeypatch):
        """claim_reports with a second law Y encodes [X, Y] into one walk
        that reads S_1 = X and S_2 = X + Y, takes Y as its second term and
        decodes nothing; its report is check_lemma2's."""
        x = dist1d([(0, F(9, 10)), (4, F(1, 10))])
        y = dist1d([(1, F(3, 4)), (F(5, 2), F(1, 4))])
        want = {t: check_lemma2(x, y, t) for t in (F(1, 2), 2)}
        walks, init = [], dists._Walk.__init__

        def counted(walk, *args, **kwargs):
            walks.append(walk)
            init(walk, *args, **kwargs)

        monkeypatch.setattr(dists._Walk, "__init__", counted)
        monkeypatch.setattr(dists._Walk, "dist", None)   # no decode
        for t, rep in want.items():
            assert claim_reports(CLAIMS["lemma2"], [x, y], Norm.ABS1D,
                                 {"t": t}) == [rep]
        assert [(w.reads, len(w.encoded)) for w in walks] == \
            [({1, 2}, 2)] * 2
        with pytest.raises(ValueError, match="dimension mismatch: 1 vs 2"):
            claim_reports(CLAIMS["lemma2"], [x, DiscreteDist({(0, 1): F(1)})],
                          Norm.ABS1D, {"t": 1})

    def test_x_as_y_has_one_concentration_set(self, monkeypatch):
        """With Y = X (the corpus, and verify without a second law) X's
        concentration set is computed once, shared by Y."""
        sets, lattice_set = [], concentration._lattice_set

        def counted(walk, law, t):
            sets.append(law)
            return lattice_set(walk, law, t)

        monkeypatch.setattr(concentration, "_lattice_set", counted)
        x = dist1d([(0, F(9, 10)), (4, F(1, 10))])
        (rep,) = claim_reports(CLAIMS["lemma2"], [x], Norm.ABS1D, {"t": 1})
        assert len(sets) == 2
        assert rep.status == HOLDS and rep == check_lemma2(x, x, 1)

    def test_never_violated_on_random_instances(self):
        rng = random.Random(17)
        for _ in range(80):
            x = rand_dist(rng, max_atoms=3)
            y = rand_dist(rng, max_atoms=3)
            t = F(rng.randint(0, 20), 8)
            r = check_lemma2(x, y, t)
            assert r.status in (HOLDS, VACUOUS)


class TestCorollary3:
    def test_pinned_point_mass(self):
        r = check_corollary3(delta(F(3, 2)), 4, F(1, 3))
        assert r.status == HOLDS

    def test_point_mass_refined_tightness(self):
        # for delta_c, j=1, k=2: attained (k+j)t equals the refined bound
        # 3(j+k-2)t exactly
        r = check_corollary3(delta(1), 2, F(1, 2))
        assert r.status == HOLDS
        assert r.margin == 0

    def test_equal_indices_shared_choice(self):
        # j = k rows carry refined_attained 0 against refined bound 0
        r = check_corollary3(delta(2), 1, F(1, 2))
        assert r.status == HOLDS

    def test_pinned_binomial_pipeline(self):
        r = check_corollary3(dist1d([(0, F(9, 10)), (1, F(1, 10))]), 3,
                             F(1, 4))
        assert r.status == HOLDS
        assert "shared selection" in r.note

    def test_vacuous_when_some_set_empty(self):
        r = check_corollary3(coin(), 2, F(1, 2))
        assert r.status == VACUOUS
        assert "S_i" in r.note

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            check_corollary3(coin(), 0, 1)

    def test_unrefined_bound_on_random_instances(self):
        rng = random.Random(19)
        seen_nonvacuous = 0
        for _ in range(60):
            x = rand_dist(rng, max_atoms=3, span=4)
            k = rng.randint(1, 4)
            t = F(rng.randint(0, 16), 8)
            r = check_corollary3(x, k, t)
            assert r.status in (HOLDS, VACUOUS)
            if r.status == HOLDS:
                seen_nonvacuous += 1
        assert seen_nonvacuous > 10


class TestClassifyCase:
    def test_pinned_case1(self):
        x = dist1d([(0, F(99, 100)), (1, F(1, 100))])
        v = classify_case(x, 1, 2, F(1, 2))
        assert v.case_id == "case1"
        assert v.witnesses["p_gap"] == F(1, 100)
        assert v.bound_holds
        assert not v.approximate

    def test_pinned_deterministic_case3(self):
        # delta_1, j=1, k=3, t=1 < (10/9)(k-j)
        v = classify_case(delta(1), 1, 3, 1)
        assert v.case_id == "case3"
        assert v.bound_lhs == 1
        assert v.bound_holds

    def test_pinned_equal_indices(self):
        v = classify_case(coin(), 2, 2, F(1, 2))
        assert v.case_id == "case1"
        assert v.witnesses["p_gap"] == 0
        assert v.bound_holds

    def test_case2_instance(self):
        # the coin never concentrates at t/10 = 1/10 scale, and the gap sum
        # S_1 exceeds 9t/10 = 9/10 with probability 1 > 1/3
        v = classify_case(coin(), 1, 2, 1)
        assert v.case_id == "case2"
        assert v.bound_holds

    def test_case2_in_the_plane(self):
        # above dimension 1 case 2 asks has_concentration_point: mass 1/4
        # at (+-10, 0) and (0, +-10) has no point within t/10 = 1/10 of
        # half its mass, so S_1 is the witness under sup and euclidean
        x = DiscreteDist({pt: F(1, 4) for pt in
                          ((10, 0), (-10, 0), (0, 10), (0, -10))})
        for norm in (Norm.SUP, Norm.EUCLIDEAN):
            v = classify_case(x, 1, 2, 1, norm)
            assert (v.case_id, v.witnesses["index"]) == ("case2", 1)
            assert v.approximate
            assert (v.bound_lhs, v.bound_holds) == (F(3, 4), True)

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            classify_case(coin(), 3, 2, 1)

    def test_indices_follow_the_one_rule(self, monkeypatch):
        # classify_case judges j, k by the shared index rule, whose text
        # is the one it always gave
        from iidtails import concentration, dists
        for j, k in ((3, 2), (0, 2)):
            with pytest.raises(ValueError, match=rf"^need 1 <= j <= k, "
                                                 rf"got j={j}, k={k}$"):
                classify_case(coin(), j, k, 1)
        seen = []
        monkeypatch.setattr(concentration, "require_indices",
                            lambda *args: seen.append(args))
        classify_case(coin(), 1, 2, 1)
        assert seen == [(dists.J_LE_K, 1, 2)]

    def test_rejects_negative_t_as_passed(self):
        x = dist1d([(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))])
        for j, k in ((1, 2), (2, 2)):
            with pytest.raises(ValueError, match=r"t must be >= 0, got -10$"):
                classify_case(x, j, k, -10)

    def test_holds_little_more_than_a_lone_sum(self):
        """classify_case keeps only S_{k-j}, S_j and S_k, so its peak
        traced memory stays within 4x that of iid_sum(X, k)."""
        import tracemalloc
        x = dist1d([(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))])
        peaks = []
        for run in (lambda: iid_sum(x, 200),
                    lambda: classify_case(x, 1, 200, 1000)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 4 * peaks[0]

    def test_bounds_verify_and_imply_theorem1(self):
        rng = random.Random(23)
        for _ in range(40):
            x = rand_dist(rng, max_atoms=3, span=4)
            j = rng.randint(1, 3)
            k = rng.randint(j, 4)
            assert check_theorem1(x, j, k).status == HOLDS
            sj = iid_sum(x, j)
            sk = iid_sum(x, k)
            for a, _ in sj.scalar_items():
                t = abs(a)
                if t == 0:
                    continue
                v = classify_case(x, j, k, t)
                assert v.case_id in ("case1", "case2", "case3")
                assert v.bound_holds
                # each branch bound forces the (3, 10) comparison with a
                # weak right side
                lhs = tail(sj, Norm.ABS1D, t)
                rhs = 3 * tail(sk, Norm.ABS1D, t / 10, "weak")
                assert lhs <= rhs


@st.composite
def tiny_dists(draw):
    n = draw(st.integers(1, 3))
    vals = draw(st.lists(
        st.builds(F, st.integers(-8, 8), st.integers(1, 3)),
        min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    tot = sum(weights)
    return DiscreteDist({(v,): F(w, tot) for v, w in zip(vals, weights)})


@given(tiny_dists(),
       st.builds(F, st.integers(0, 12), st.integers(1, 4)),
       st.builds(F, st.integers(0, 12), st.integers(1, 4)))
@settings(max_examples=60, deadline=None)
def test_concentration_monotone_property(x, t1, dt):
    small = concentration_set(x, t1)
    big = concentration_set(x, t1 + dt)
    for lo, hi in small.intervals:
        assert any(blo <= lo and hi <= bhi for blo, bhi in big.intervals)


@given(tiny_dists(), st.builds(F, st.integers(0, 10), st.integers(1, 3)))
@settings(max_examples=60, deadline=None)
def test_lemma2_self_pair_property(x, t):
    r = check_lemma2(x, x, t)
    assert r.status in (HOLDS, VACUOUS)


@st.composite
def concentration_cases(draw):
    """A 1-D law with non-unit denominators and a t that is 0, a gap
    between two window breakpoints (where windows start to touch), or a
    random rational."""
    n = draw(st.integers(1, 5))
    den = draw(st.integers(1, 6))
    vals = draw(st.lists(st.builds(F, st.integers(-12, 12), st.just(den)),
                         min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    x = DiscreteDist({(v,): F(w, sum(weights)) for v, w in zip(vals, weights)})
    gaps = sorted({abs(a - b) / 2 for a in vals for b in vals} |
                  {abs(a - b) for a in vals for b in vals})
    t = draw(st.one_of(st.just(F(0)), st.sampled_from(gaps),
                       st.builds(F, st.integers(0, 40), st.integers(1, 12))))
    return x, t


@given(concentration_cases())
@settings(max_examples=200, deadline=None)
def test_integer_concentration_set_matches_fraction_sweep(case):
    x, t = case
    assert concentration_set(x, t).intervals == \
        fraction_concentration_set(x, t).intervals


def test_public_checks_are_claim_reports(monkeypatch):
    """check_lemma2 and check_corollary3 are verify's reports: each equals
    claim_reports of its claim, with Y != X and in vacuous cases, and is
    what one claim_reports call returns."""
    x = dist1d([(0, F(9, 10)), (4, F(1, 10))])
    y = dist1d([(1, F(3, 4)), (F(5, 2), F(1, 4))])
    lemma2 = [(x, y, F(1, 2)), (x, y, 0), (x, x, 2), (coin(), y, F(1, 2)),
              (x, coin(), 1)]
    corollary3 = [(x, 3, 2), (x, 1, 0), (coin(), 2, F(1, 2)), (y, 4, 1)]
    statuses = set()
    for a, b, t in lemma2:
        rep = check_lemma2(a, b, t)
        statuses.add(rep.status)
        assert [rep] == claim_reports(CLAIMS["lemma2"], [a, b], Norm.ABS1D,
                                      {"t": t})
    for a, k, t in corollary3:
        rep = check_corollary3(a, k, t)
        statuses.add(rep.status)
        assert [rep] == claim_reports(CLAIMS["corollary3"], [a], Norm.ABS1D,
                                      {"k": k, "t": t})
    assert statuses == {HOLDS, VACUOUS}
    calls, reports = [], checks.claim_reports

    def counted(spec, laws, norm, given, *args, **kwargs):
        calls.append((spec.claim_id, laws, norm, given))
        return reports(spec, laws, norm, given, *args, **kwargs)

    monkeypatch.setattr(checks, "claim_reports", counted)
    check_lemma2(x, y, 1)
    check_corollary3(x, 2, 1, cap=50)
    assert calls == [("lemma2", [x, y], Norm.ABS1D, {"t": 1}),
                     ("corollary3", [x], Norm.ABS1D, {"k": 2, "t": 1})]
    with pytest.raises(dists.SupportCapExceeded, match="exceeds cap 5"):
        check_corollary3(dist1d([(v, F(1, 4)) for v in range(4)]), 3, 1,
                         cap=5)


def test_corollary3_refuses_a_second_law():
    """corollary3 reads the i.i.d. partial sums of one law: handed [X, Y]
    it raises naming corollary3 instead of walking X, Y, X (which reported
    violated, attained 7 > bound 3 at j = 1, while X alone holds)."""
    x = dist1d([(0, F(9, 10)), (1, F(1, 10))])
    y = dist1d([(5, F(9, 10)), (100, F(1, 10))])
    assert check_corollary3(x, 3, F(1, 2)).status == HOLDS
    with pytest.raises(ValueError, match="^corollary3 takes at most 1 law"):
        claim_reports(CLAIMS["corollary3"], [x, y], Norm.ABS1D,
                      {"k": 3, "t": "1/2"})


@pytest.mark.parametrize("claim", CLAIMS)
def test_only_lemma2_walks_a_second_law(claim):
    """Every claim but lemma2 refuses two laws, and lemma2 refuses three,
    each with a ValueError naming the claim; lemma2 on two laws is
    check_lemma2.  Each claim is given those of alphas and t it takes."""
    given = {name: value for name, value in
             (("alphas", [1, F(1, 2)]), ("t", 1))
             if name in CLAIMS[claim].takes}
    laws = [coin(), dist1d([(1, F(3, 4)), (F(5, 2), F(1, 4))])]
    if claim == "lemma2":
        assert claim_reports(CLAIMS[claim], laws, Norm.ABS1D, given) == \
            [check_lemma2(*laws, 1)]
        laws.append(coin())
    with pytest.raises(ValueError, match=rf"^{claim} takes at most "
                       rf"{len(laws) - 1} law\(s\), got {len(laws)}$"):
        claim_reports(CLAIMS[claim], laws, Norm.ABS1D, given)


@st.composite
def oracle_cases(draw):
    """Two 1-D laws with negative atoms of mixed denominators, k in 1..4,
    and a t that is 0, a window breakpoint of X, Y or X + Y (half or all
    of the distance between two atoms) or a random rational."""
    def law():
        n = draw(st.integers(1, 4))
        vals = draw(st.lists(st.builds(F, st.integers(-12, 12),
                                       st.integers(1, 6)),
                             min_size=n, max_size=n, unique=True))
        weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
        return DiscreteDist({(v,): F(w, sum(weights))
                             for v, w in zip(vals, weights)})

    x, y = law(), law()
    gaps = {g for d in (x, y, convolve(x, y)) for (a,) in d.support
            for (b,) in d.support for g in (abs(a - b) / 2, abs(a - b))}
    t = draw(st.one_of(st.just(F(0)), st.sampled_from(sorted(gaps)),
                       st.builds(F, st.integers(0, 40), st.integers(1, 12))))
    return x, y, draw(st.integers(1, 4)), t


@given(oracle_cases())
@settings(max_examples=150, deadline=None)
def test_int_endpoint_checks_match_the_fraction_oracle(case):
    """lemma2 and corollary3 decided on int endpoints give the reports of
    the Fraction checks on Fraction concentration sets, with Y != X and
    with Y = X sharing X's set."""
    x, y, k, t = case
    assert check_lemma2(x, y, t) == fraction_lemma2(x, y, t)
    assert claim_reports(CLAIMS["lemma2"], [x], Norm.ABS1D, {"t": t}) == \
        [fraction_lemma2(x, x, t)]
    assert check_corollary3(x, k, t) == fraction_corollary3(x, k, t)


def test_violated_corollary3_witness_matches_the_fraction_oracle():
    """With gcd patched to j + k the refined bound 3(j+k-2*gcd)t is
    -3(j+k)t, violated at every t > 0: the int path then builds the
    witness rows, equal to the oracle's, at verify and as a stored corpus
    violation."""
    x = dist1d([(F(-3, 2), F(1, 10)), (0, F(8, 10)), (F(2, 3), F(1, 10))])
    patched = lambda j, k: j + k  # noqa: E731
    with mock.patch.object(concentration, "gcd", patched), \
            mock.patch.object(oracles, "gcd", patched):
        for law, k, t in ((x, 3, 2), (x, 1, F(1, 3)), (delta(F(5, 4)), 4, 1),
                          (dist1d([(0, F(9, 10)), (4, F(1, 10))]), 2, 3)):
            rep = check_corollary3(law, k, t)
            assert rep.status == VIOLATED
            assert len(rep.witness["rows"]) == k
            assert rep == fraction_corollary3(law, k, t)
        corpus = run_corpus(CorpusConfig(seed=3, count=4, max_k=3),
                            ["corollary3"])
        assert corpus.violations
        for v in corpus.violations:
            rep = v["report"]
            assert rep.status == VIOLATED
            assert rep == fraction_corollary3(v["dist"], rep.params["k"],
                                              rep.params["t"])


def test_violated_lemma2_witness_over_a_law_that_is_not_x_plus_y():
    """_lemma2 handed X's own law where X + Y's belongs (X = 0 and Y = 10
    a.s.): the sets are the intervals of radius t = 1/2 about 0, 10 and 0,
    so x + y - z reaches 23/2, above 3t: violated, with lhs, rhs, margin
    and the witness as Fractions."""
    walk = dists._Walk(*dists._encode([delta(0), delta(10)]), {1, 2},
                       dists.DEFAULT_SUPPORT_CAP)
    (rep,) = concentration._lemma2(walk, walk.law(1), walk.terms[1],
                                   walk.law(1), F(1, 2)).reports(
        "lemma2", [{"t": F(1, 2)}])
    assert (rep.status, rep.worst_t, rep.lhs, rep.rhs, rep.margin) == \
        (VIOLATED, F(1, 2), F(23, 2), F(3, 2), -10)
    assert rep.witness == {"attained": F(23, 2), "bound": F(3, 2)}
    assert check_lemma2(delta(0), delta(10), F(1, 2)).status == HOLDS


def test_evaluated_claims_echo_t_through_plan_entry():
    """plan_entry lays out an evaluated claim's one params echo: its judged
    indices and t read through dists._threshold; a law handed as lemma2's
    y is refused; its report carries that echo, t as the text of its
    Fraction."""
    x = coin()
    with pytest.raises(ValueError, match="^lemma2 does not take y$"):
        checks._indices(CLAIMS["lemma2"], {"t": 1, "y": x})
    for claim, given, want in (("lemma2", {"t": 1}, {"t": "1"}),
                               ("corollary3", {"k": 3, "t": "3/2"},
                                {"k": 3, "t": "3/2"})):
        spec = CLAIMS[claim]
        entry = checks.plan_entry(spec, spec, None, None,
                                  checks._indices(spec, given), Norm.ABS1D,
                                  checks.MODE_PAIRS)
        assert [jsonify(echo) for echo in entry.echoes] == [want]
    assert jsonify(check_lemma2(x, x, 1).params) == {"t": "1"}
    assert jsonify(check_corollary3(x, 3, "3/2").params) == \
        {"k": 3, "t": "3/2"}

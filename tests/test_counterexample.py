import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import accumulate
from math import comb, isqrt

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iidtails import counterexample
from iidtails.counterexample import (
    _ONE,
    _block_end,
    _centered,
    _extended,
    _modal,
    _normalized,
    _outward,
    _sign_rule,
    _sums,
    _tails,
    cbrt_combo_sign,
    centered_sum_tail,
    extended_sum_tail,
    find_M,
    icbrt,
    normalized_sum_tail,
    refutes_constant,
    verify_counterexample,
)
from oracles import (
    abs_gt,
    exact_find_M,
    exact_windows,
    pmf_walk_tails,
    walk_centered,
    walk_extended,
    walk_normalized,
)


class TestIcbrt:
    def test_small_values(self):
        assert [icbrt(n) for n in range(10)] == [0, 1, 1, 1, 1, 1, 1, 1, 2, 2]

    def test_cube_boundaries(self):
        for r in (2, 3, 10, 99, 10 ** 6, 12345678901):
            c = r ** 3
            assert icbrt(c - 1) == r - 1
            assert icbrt(c) == r
            assert icbrt(c + 1) == r

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            icbrt(-1)

    @given(st.integers(0, 10 ** 40))
    @settings(max_examples=200)
    def test_floor_property(self, n):
        r = icbrt(n)
        assert r ** 3 <= n < (r + 1) ** 3


class TestCbrtComboSign:
    def test_zero_combo(self):
        assert cbrt_combo_sign(0, 0, 0, 7) == 0

    def test_perfect_cube_exact_cancellation(self):
        # -2 + 1 * 8^(1/3) = 0
        assert cbrt_combo_sign(-2, 1, 0, 8) == 0
        assert cbrt_combo_sign(-4, 0, 1, 8) == 0
        assert cbrt_combo_sign(-3, 1, 0, 8) < 0
        assert cbrt_combo_sign(-1, 1, 0, 8) > 0

    def test_rejects_bad_M(self):
        with pytest.raises(ValueError):
            cbrt_combo_sign(1, 1, 1, 0)

    def test_against_high_precision(self):
        rng = random.Random(7)
        mpmath.mp.dps = 80
        for _ in range(400):
            M = rng.randint(1, 5000)
            a = F(rng.randint(-50, 50), rng.randint(1, 9))
            b = F(rng.randint(-50, 50), rng.randint(1, 9))
            c = F(rng.randint(-50, 50), rng.randint(1, 9))
            got = cbrt_combo_sign(a, b, c, M)
            r = mpmath.cbrt(M)
            val = (mpmath.mpf(a.numerator) / a.denominator
                   + r * mpmath.mpf(b.numerator) / b.denominator
                   + r * r * mpmath.mpf(c.numerator) / c.denominator)
            if abs(val) > mpmath.mpf("1e-60"):
                assert got == (1 if val > 0 else -1)
            else:
                assert got == 0


class TestCenteredSumTail:
    def test_pinned_N2_M8(self):
        assert centered_sum_tail(2, 8, F(1, 2)) == F(37, 128)
        assert centered_sum_tail(2, 8, 1) == F(9, 128)
        assert centered_sum_tail(2, 8, 0) == F(93, 128)

    def test_tiny_M(self):
        assert centered_sum_tail(2, 1, 100) == 0
        # M = 1: |2b - 1| = 1 always, threshold 0 -> probability 1
        assert centered_sum_tail(2, 1, 0) == 1

    def test_monotone_in_threshold(self):
        prev = F(2)
        for num in range(0, 9):
            cur = centered_sum_tail(3, 30, F(num, 4))
            assert cur <= prev
            prev = cur

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            centered_sum_tail(1, 5, 1)
        with pytest.raises(ValueError):
            centered_sum_tail(2, 0, 1)
        with pytest.raises(ValueError):
            centered_sum_tail(2, 5, -1)

    @pytest.mark.parametrize("N, M, theta", [
        (3, 4437, F(1, 3)), (2, 8, F(1, 2)), (2, 8, F(1)),
        (3, 10 ** 6 + 1, F(1, 3)), (10, 14436841080, F(1, 10)),
        (10, 14436841080, F(7, 9))])
    def test_window_is_the_cube_root_window(self, N, M, theta):
        """The centered window, found by bisection on the sign rule, is the
        b with |N*b - M| <= icbrt(M^2*p^3 // q^3) for theta = p/q."""
        _, [(_, lo, hi)] = _centered(N, M, theta)
        U = icbrt(M * M * theta.numerator ** 3 // theta.denominator ** 3)
        assert (lo, hi) == (-(-(M - U) // N), (M + U) // N)

    def test_against_direct_enumeration(self):
        from math import comb
        for N, M, theta in ((2, 12, F(1, 2)), (3, 20, F(1, 3)),
                            (4, 15, F(2, 5))):
            total = F(0)
            for b in range(M + 1):
                u = abs(N * b - M)
                if F(u) ** 3 > F(M * M) * theta ** 3:
                    total += F(comb(M, b) * (N - 1) ** (M - b), N ** M)
            assert centered_sum_tail(N, M, theta) == total


class TestFindM:
    def test_pinned_N2(self):
        assert find_M(2, 100) == 8
        assert find_M(2, 8) == 8

    def test_pinned_N3_anchor(self):
        M = find_M(3, 10_000)
        assert M == 4437
        # minimality at the boundary, by direct exact evaluation
        assert centered_sum_tail(3, M, F(1, 3)) <= F(1, 3)
        assert centered_sum_tail(3, M - 1, F(1, 3)) > F(1, 3)

    def test_none_under_small_cap(self):
        assert find_M(3, 4436) is None

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            find_M(1, 100)
        with pytest.raises(ValueError, match="below N\\^3"):
            find_M(3, 26)

    def test_every_hit_is_admissible(self):
        for N in (2, 3):
            M = find_M(N, 5000)
            if M is not None:
                assert centered_sum_tail(N, M, F(1, N)) <= F(1, N)


def modal_term(N, M):
    m = (M + 1) // N
    return comb(M, m) * (N - 1) ** (M - m)


def window_edges(N, M):
    u = icbrt(M * M // N ** 3)
    return u, -(-(M - u) // N), (M + u) // N


def thr(N, M):
    return (N - 1) * N ** (M - 1)


def modal_bound(N, M, unit=_ONE):
    """ceil(unit * T / thr) at M, the least bound the gate may start from."""
    return -(-modal_term(N, M) * unit // thr(N, M))


def robbins_square(N, M, unit=_ONE):
    """The square of the closed-form bound _modal rounds up, as a Fraction:
    (unit * N/(N-1) * 12M/(12M-1))^2 * M / (2 * pi' * m * (M-m)) with
    pi' = 103993/33102 < pi and m = floor((M+1)/N)."""
    m = (M + 1) // N
    return (unit * F(N, N - 1) * F(12 * M, 12 * M - 1)) ** 2 * F(
        M * 33102, 2 * 103993 * m * (M - m))


def gate_blocks(N, M_cap):
    """[(M, end, t)] for each block of the gate from N^3 up to the first
    M it lets through or the cap, with the modal bound t = _modal(N, M)."""
    M, blocks = N ** 3, []
    while M <= M_cap:
        t = _modal(N, M)
        end = _block_end(N, M, t)
        blocks.append((M, end, t))
        if end < M:
            break
        M = end + 1
    return blocks


def top_k(N, M, t):
    """The gate's K at M and the sum of its first K ceil bounds."""
    total = 0
    for K, x in enumerate(_outward(N, M, t)):
        if total + x >= _ONE:
            return K, total
        total += x


class TestFindMBounds:
    """find_M rejects whole blocks of M by one top-K bound each, in 2^64
    units of thr from a closed-form modal bound, and decides the M where
    the gate opens by an exact seed; it must agree with the exact scan."""

    # caps from N^3 up, around each known answer and past it
    CAPS = {
        2: list(range(8, 40)) + [100, 1000],
        3: [27, 28, 29, 100, 1000, 2000, 4436, 4437, 4438, 6000],
        4: [64, 65, 66, 200, 1000, 3000],
        5: [125, 126, 127, 500, 1500, 3000],
        6: [216, 217, 218, 700, 2000],
        7: [343, 344, 345, 1000, 2500],
        10: [1000, 1001, 1002, 2000, 3000],
    }

    @pytest.mark.parametrize("N", sorted(CAPS))
    def test_matches_exact_scan(self, N):
        for cap in self.CAPS[N]:
            assert find_M(N, cap) == exact_find_M(N, cap), (N, cap)

    @pytest.mark.parametrize("N", sorted(CAPS))
    def test_running_window_alone_matches_exact_scan(self, monkeypatch, N):
        # a unit of 2^8 makes the gate open early (at N = 3 from M = 1218),
        # so seeds fail and the gate runs again from the next M; with the
        # gate rejecting nothing, an exact seed at every M from N^3 (caps
        # up to 1000) decides alone; each way the answers are the exact
        # scan's
        exact = {cap: exact_find_M(N, cap) for cap in self.CAPS[N]}
        seeds, sums = [], counterexample._sums

        def spy(*args):
            seeds.append(args[1])
            return sums(*args)

        monkeypatch.setattr(counterexample, "_sums", spy)
        monkeypatch.setattr(counterexample, "_ONE", 1 << 8)
        for cap in self.CAPS[N]:
            if cap <= 4437:
                assert find_M(N, cap) == exact[cap], (N, cap)
        found = [M for M in exact.values() if M is not None]
        assert N != 3 or len(seeds) > 2 * len(found)
        monkeypatch.undo()
        monkeypatch.setattr(counterexample, "_block_end",
                            lambda N, M, t: M - 1)
        for cap in self.CAPS[N]:
            if cap <= 1000:
                assert find_M(N, cap) == exact[cap], (N, cap)

    @pytest.mark.parametrize("N, M", [(2, 1), (2, 9), (2, 40), (3, 27),
                                      (3, 50), (4, 64), (5, 31), (7, 60)])
    def test_sums_are_exact_prefix_sums(self, N, M):
        # _sums sums from its lowest cut and returns every prefix sum of
        # the exact terms
        exact = [comb(M, b) * (N - 1) ** (M - b) for b in range(M + 1)]
        for b0 in {0, M // N, (M + 1) // N, M // 2, M}:
            cuts = {b0, b0 + 1, (b0 + M + 1) // 2, M + 1}
            assert _sums(N, M, cuts) == {c: sum(exact[b0:c]) for c in cuts}
        assert _sums(N, M, {0, M + 1}) == {0: 0, M + 1: N ** M}

    @given(st.integers(2, 7), st.integers(1, 400),
           st.lists(st.integers(0, 401), min_size=2, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_sums_match_the_per_b_walk(self, N, M, cuts):
        cuts = {min(c, M + 1) for c in cuts}
        if len(cuts) < 2:
            return
        first = min(cuts)
        exact = [comb(M, b) * (N - 1) ** (M - b) for b in range(M + 1)]
        assert _sums(N, M, cuts) == {c: sum(exact[first:c]) for c in cuts}

    @pytest.mark.parametrize("N, M", [(2, 1), (2, 9), (2, 40), (3, 27),
                                      (3, 50), (4, 64), (5, 31), (7, 60)])
    def test_ceil_walk_bounds_every_exact_term(self, monkeypatch, N, M):
        # from the ceil modal bound the walk yields one bound per b, in
        # descending order, and the i-th largest bound is at least the
        # i-th largest exact term over thr in 2^64 units; a floor step
        # drops some bound below its term (the far tails' bounds to 0,
        # which also ends the walk early)
        walk = list(_outward(N, M, modal_bound(N, M)))
        assert len(walk) == M + 1
        assert walk == sorted(walk, reverse=True)
        exact = sorted((comb(M, b) * (N - 1) ** (M - b)
                        for b in range(M + 1)), reverse=True)
        for x, term in zip(walk, exact):
            assert x * thr(N, M) >= _ONE * term
        # with a unit of 64 some running sums reach it exactly: K counts
        # the bounds whose running sum stays below it
        monkeypatch.setattr(counterexample, "_ONE", 64)
        for t in range(modal_bound(N, M, 64), 64):
            K = sum(s < 64 for s in accumulate(_outward(N, M, t)))
            u = (K * N - 1) // 2
            assert _block_end(N, M, t) == isqrt((u + 1) ** 3 * N ** 3 - 1)

    def test_bound_walks_get_exact_window_and_upper_modal_bound(
            self, monkeypatch):
        # at N = 3 the blocks cover 27..4436 without a gap, and the modal
        # bound at each block start is at least 2^64*T/thr and at most 3%
        # above it; the one exact seed up to 10_000 is at 4437, on that
        # M's window
        N = 3
        blocks = gate_blocks(N, 10_000)
        assert len(blocks) == 18 and blocks[-1][0] == 4437
        assert [M for M, _, _ in blocks[1:]] == [
            end + 1 for _, end, _ in blocks[:-1]]
        for M, _, t in blocks:
            exact = F(_ONE * modal_term(N, M), thr(N, M))
            assert exact <= t < exact * F(103, 100), M
        seeds = []
        sums = counterexample._sums

        def spy(*args):
            seeds.append(args)
            return sums(*args)

        monkeypatch.setattr(counterexample, "_sums", spy)
        assert find_M(N, 4436) is None and seeds == []
        assert find_M(N, 10_000) == 4437
        _, lo, hi = window_edges(N, 4437)
        assert seeds == [(N, 4437, {lo, hi + 1})]

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7])
    def test_modal_bound_tracks_each_exact_step(self, N):
        # at every M of every block up to 3000, the exact window mass is at
        # most the block's ceil top-K sum from the closed-form modal bound,
        # both over thr, and the window has at most K terms; the block ends
        # where the count passes K
        blocks = gate_blocks(N, 3000)
        windows = exact_windows(N, N ** 3, 3001)
        for M, end, t in blocks:
            assert t >= modal_bound(N, M), M
            K, top = top_k(N, M, t)
            assert top < _ONE
            for M1 in range(M, min(end, 3000) + 1):
                u, lo, hi = window_edges(N, M1)
                assert 2 * u // N + 1 <= K, (M, M1)
                assert hi - lo + 1 <= K
                assert windows[M1][0] * _ONE <= top * thr(N, M1), (M, M1)
            if end >= M:
                u, _, _ = window_edges(N, end + 1)
                assert 2 * u // N + 1 > K, (M, end)
        M, end, _ = blocks[-1]
        assert find_M(N, 3000) == (M if end < M <= 3000 else None)

    @pytest.mark.parametrize("N", range(2, 11))
    def test_modal_ratio_never_rises(self, N):
        # T/thr is N/(N-1) times the largest pmf value, which never rises
        # with M; thr grows by exactly N per M
        prev = modal_term(N, 1)
        for M in range(2, 3001):
            T = modal_term(N, M)
            assert T <= N * prev, M
            prev = T

    @pytest.mark.parametrize("N", range(2, 8))
    def test_top_k_mass_never_rises(self, N):
        # the lemma, exactly: F_{M+1}(K) <= F_M(K) for the K largest terms
        # (N^M times the pmf, so F_{M+1} <= N * F_M); for small M, F_M(K)
        # is also the most that K consecutive terms hold
        def top(M):
            terms = [comb(M, b) * (N - 1) ** (M - b) for b in range(M + 1)]
            desc = sorted(terms, reverse=True)[:30]
            return terms, [sum(desc[:K]) for K in range(1, 31)]

        terms, prev = top(1)
        for M in range(2, 401):
            terms, cur = top(M)
            assert all(c <= N * p for c, p in zip(cur, prev)), M
            if M <= 60:
                for K, F_K in enumerate(cur[:M + 1], 1):
                    assert F_K == max(sum(terms[s:s + K])
                                      for s in range(M + 2 - K)), (M, K)
            prev = cur

    @pytest.mark.parametrize("N, cap, unit, bypass", [
        (3, 6000, 1 << 64, False), (3, 4500, 8, False),
        (4, 1500, 1 << 64, True), (5, 800, 1 << 12, True)])
    def test_carry_bounds_exact_window(self, monkeypatch, N, cap, unit,
                                       bypass):
        # every modal bound find_M takes, in the given unit, is at least
        # unit*T/thr for the exact modal term T; a unit of 8 or 2^12 makes
        # the gate open early and re-gate after failed seeds, and the
        # bypassed gate rejects nothing, so a bound is taken at every M
        monkeypatch.setattr(counterexample, "_ONE", unit)
        if bypass:
            monkeypatch.setattr(counterexample, "_block_end",
                                lambda N, M, t: M - 1)
        seen = []
        modal = counterexample._modal

        def spy(N, M):
            seen.append((M, modal(N, M)))
            return seen[-1][-1]

        monkeypatch.setattr(counterexample, "_modal", spy)
        assert find_M(N, cap) == exact_find_M(N, cap)
        assert seen and seen[0][0] == N ** 3
        assert not bypass or [M for M, _ in seen] == list(
            range(N ** 3, cap + 1))
        for M, t in seen:
            assert t * thr(N, M) >= unit * modal_term(N, M), M

    @pytest.mark.parametrize("N, M0", [(3, 1728), (4, 1000), (5, 125)])
    def test_each_carried_step_rounds_outward(self, monkeypatch, N, M0):
        # at each of 300 M, in three units, the bound is the ceil of the
        # square root of the ceil of its rational square, which is at least
        # the square of unit*T/thr: a floor at either rounding drops it
        # below the exact bound in a small unit
        for unit in (_ONE, 1 << 12, 8):
            monkeypatch.setattr(counterexample, "_ONE", unit)
            for M in range(M0, M0 + 300):
                t = _modal(N, M)
                square = robbins_square(N, M, unit)
                assert (t - 1) ** 2 < -(-square.numerator
                                        // square.denominator) <= t * t, M
                assert square >= F(unit * modal_term(N, M), thr(N, M)) ** 2
                assert t >= modal_bound(N, M, unit), (unit, M)

    @pytest.mark.parametrize("N", range(2, 11))
    def test_closed_form_bounds_the_exact_modal_term(self, N):
        # _modal(N, M) * thr >= 2^64 * T at every M in [N^3, N^3 + 2000]
        # and at sampled M up to 1e5; a bound without the factor N/(N-1)
        # falls below it (Robbins' slack is under 10% at N = 2 and under
        # 0.5% at N = 10)
        rng = random.Random(N)
        Ms = [*range(N ** 3, N ** 3 + 2001),
              *sorted(rng.sample(range(N ** 3 + 2001, 100_001), 12))]
        worst = 0
        for M in Ms:
            t, T = _modal(N, M), modal_term(N, M)
            assert t * thr(N, M) >= _ONE * T, M
            worst = max(worst, F(t * thr(N, M), _ONE * T))
        assert worst < F(N, N - 1)

    @pytest.mark.parametrize("N, cap", [(10, 100_000), (3, 100_000),
                                        (4, 300_000)])
    def test_bound_holds_at_every_block_start(self, monkeypatch, N, cap):
        # every block start of these runs gets a bound at least 2^64*T/thr,
        # checked against the exact modal term there
        seen = []
        modal = counterexample._modal

        def spy(N, M):
            seen.append((M, modal(N, M)))
            return seen[-1][-1]

        monkeypatch.setattr(counterexample, "_modal", spy)
        assert find_M(N, cap) == {10: None, 3: 4437, 4: 253742}[N]
        assert seen
        for M, t in seen:
            assert t * thr(N, M) >= _ONE * modal_term(N, M), M

    @pytest.mark.parametrize("N, cap, answer, decided", [
        (2, 100, 8, [8]), (3, 10_000, 4437, [4437]),
        (10, 15_000, None, [])])
    def test_exact_decisions(self, monkeypatch, N, cap, answer, decided):
        # an exact seed is taken only where the gate opens, which at N = 2
        # and N = 3 is at the answer, and never at N = 10
        calls = []
        sums = counterexample._sums

        def spy(*args):
            calls.append(args[1])
            return sums(*args)

        monkeypatch.setattr(counterexample, "_sums", spy)
        assert find_M(N, cap) == answer
        assert calls == decided

    def test_failed_seed_regates_from_the_next_M(self, monkeypatch):
        # with the blocks cut at 4399 and every later M let through, the
        # seeds from 4400 fail until the answer, and after each failed seed
        # the gate runs again from the very next M, so none is skipped
        seeds = []
        block_end, sums = counterexample._block_end, counterexample._sums

        def cut(N, M, t):
            return min(block_end(N, M, t), 4399) if M < 4400 else M - 1

        def spy(*args):
            seeds.append(args[1])
            return sums(*args)

        monkeypatch.setattr(counterexample, "_block_end", cut)
        monkeypatch.setattr(counterexample, "_sums", spy)
        assert find_M(3, 10_000) == 4437
        assert seeds == list(range(4400, 4438))

    @pytest.mark.parametrize("N, cap", [(3, 3000), (3, 10_000)])
    def test_no_bound_step_after_the_exact_window(self, monkeypatch, N, cap):
        # the gate takes no block bound after the exact seed that decides:
        # under 4437 the blocks reject every M, and at 4437 the one seed
        # returns the answer
        calls = []
        sums, block_end = counterexample._sums, counterexample._block_end

        def sums_spy(*args):
            calls.append("seed")
            return sums(*args)

        def block_spy(*args):
            calls.append("block")
            return block_end(*args)

        monkeypatch.setattr(counterexample, "_sums", sums_spy)
        monkeypatch.setattr(counterexample, "_block_end", block_spy)
        assert find_M(N, cap) == exact_find_M(N, cap)
        assert "block" in calls
        assert calls.count("seed") == (cap >= 4437)
        assert "seed" not in calls or calls[-1] == "seed"

    def test_N10_gate_takes_two_blocks(self, monkeypatch):
        # criterion 7's statement: the gate rejects every M up to 1e5 in
        # two blocks (1000 and 61024), from two closed-form modal bounds,
        # and no binomial coefficient is built
        calls, blocks = [], []
        block_end = counterexample._block_end

        def spy(*args):
            calls.append(args)
            return comb(*args)

        def block_spy(N, M, t):
            blocks.append(M)
            return block_end(N, M, t)

        monkeypatch.setattr(counterexample, "comb", spy)
        monkeypatch.setattr(counterexample, "_block_end", block_spy)
        assert find_M(10, 100_000) is None
        assert calls == []
        assert blocks == [1000, 61024]

    def test_N10_gate_alone_reaches_past_1e10(self, monkeypatch):
        # the gate alone rejects every M from 1000 to 14436841070 at
        # N = 10, in 48 blocks, so no admissible N = 10 horizon lies below
        # 14436841071; only the gate runs, since an exact seed at such an
        # M would be an integer of about 5e10 bits
        blocks = []
        block_end = counterexample._block_end

        def spy(N, M, t):
            blocks.append(M)
            return block_end(N, M, t)

        monkeypatch.setattr(counterexample, "_block_end", spy)
        assert next(counterexample._gate(10, 2 * 10 ** 10)) == 14436841071
        assert len(blocks) == 48 and blocks[:2] == [1000, 61024]

    def test_first_N4_horizon(self):
        # the first certified N = 4 horizon: the gate opens at 253742,
        # where the one exact seed is admissible
        assert find_M(4, 300_000) == 253742


class TestOneWalkPerReport:
    """A report reads its four tails from their windows alone."""

    def test_tails_equal_one_event_views(self):
        for N, M in ((2, 8), (3, 27), (3, 100), (5, 64)):
            c, t = F(N, 3), F(1, 2)
            events = [_centered(N, M, F(1, N)),
                      _normalized(N, M, t), _extended(N, M, t / c),
                      _extended(N, M, F(3, N))]
            assert _tails(N, M, *events) == [
                centered_sum_tail(N, M, F(1, N)),
                normalized_sum_tail(N, M, t),
                extended_sum_tail(N, M, t / c),
                extended_sum_tail(N, M, F(3, N))]
            fails, lhs, rhs = refutes_constant(N, M, c, t)
            assert (lhs, rhs) == (normalized_sum_tail(N, M, t),
                                  extended_sum_tail(N, M, t / c))
            assert fails == (lhs > c * rhs)

    def test_report_steps_only_its_windows(self, monkeypatch):
        # at most one ratio step per b of the four tails' windows, a
        # small part of the M + 1 terms of the whole pmf
        N, M = 3, 4437
        t = F(1, 2)
        events = [_centered(N, M, F(1, N)), _normalized(N, M, t),
                  _extended(N, M, t / F(N, 3)), _extended(N, M, F(3, N))]
        widths = sum(max(hi - lo + 1, 0)
                     for _, windows in events for _, lo, hi in windows)
        assert widths < M // 4
        steps = []
        ratio = counterexample._ratio

        def spy(num, den):
            steps.append(den)
            return ratio(num, den)

        monkeypatch.setattr(counterexample, "_ratio", spy)
        rep = verify_counterexample(N, M=M)
        assert 0 < len(steps) <= widths
        assert rep.centered_holds and rep.extended_holds
        assert rep.refutation["fails"]


    def test_report_makes_one_comb(self, monkeypatch):
        # the four tails' windows share one sum: one math.comb at the
        # lowest window edge, then at most two exact divisions (_ratio) from
        # each window edge to the next
        N, M = 3, 4437
        t = F(1, 2)
        events = [_centered(N, M, F(1, N)), _normalized(N, M, t),
                  _extended(N, M, t / F(N, 3)), _extended(N, M, F(3, N))]
        edges = [b for _, windows in events for _, lo, hi in windows
                 for b in (lo, hi + 1)]
        combs, steps = [], []
        ratio = counterexample._ratio

        def comb_spy(*args):
            combs.append(args)
            return comb(*args)

        def ratio_spy(num, den):
            steps.append(den)
            return ratio(num, den)

        monkeypatch.setattr(counterexample, "comb", comb_spy)
        monkeypatch.setattr(counterexample, "_ratio", ratio_spy)
        rep = verify_counterexample(N, M=M)
        assert combs == [(M, min(edges))]
        assert max(edges) - min(edges) <= 450
        assert 0 < len(steps) <= 2 * (len(set(edges)) - 1)
        assert rep.centered_holds and rep.extended_holds
        assert rep.refutation["fails"]


class TestWindowTails:
    """The window tails against the per-b pmf walk they replaced."""

    @given(st.integers(2, 7),
           st.one_of(st.integers(1, 400),
                     st.sampled_from([1, 8, 27, 64, 125, 216, 343])),
           st.fractions(0, 8, max_denominator=12))
    @example(2, 8, F(0))
    @example(3, 27, F(0))
    @example(3, 64, F(1, 3))
    @example(7, 343, F(3, 7))
    @settings(max_examples=150, deadline=None)
    def test_match_pmf_walk(self, N, M, t):
        c = F(N, 3)
        walked = pmf_walk_tails(
            N, M, walk_centered(M, t), walk_normalized(M, t),
            walk_extended(N, M, t), walk_centered(M, F(1, N)),
            walk_normalized(M, F(1, 2)), walk_extended(N, M, F(3, 2 * N)),
            walk_extended(N, M, F(3, N)))
        assert [centered_sum_tail(N, M, t), normalized_sum_tail(N, M, t),
                extended_sum_tail(N, M, t)] == walked[:3]
        rep = verify_counterexample(N, M=M)
        assert [rep.admissible_tail, rep.p_centered,
                rep.refutation["rhs_prob"], rep.p_extended] == walked[3:]
        assert rep.refutation["fails"] == (walked[4] > c * walked[5])


class TestSignRulePerTail:
    """The tails take M's cube root and t's denominator once and run the
    sign rule on ints; it must agree with cbrt_combo_sign term by term."""

    CUBES = (1, 8, 27, 64, 125, 4096)
    NON_CUBES = (2, 7, 9, 26, 100, 4437)

    @pytest.mark.parametrize("M", CUBES + NON_CUBES)
    def test_int_rule_matches_cbrt_combo_sign(self, M):
        rng = random.Random(M)
        sign = _sign_rule(M)
        for _ in range(300):
            A, B, C = (rng.randint(-40, 40) for _ in range(3))
            assert sign(A, B, C) == cbrt_combo_sign(A, B, C, M)
            t = F(rng.randint(0, 30), rng.randint(1, 7))
            c = rng.randint(-3, 3)
            p, q = t.numerator, t.denominator
            assert abs_gt(sign, q * A, q * B, q * c, p) == (
                cbrt_combo_sign(A, B, c - t, M) > 0
                or cbrt_combo_sign(A, B, c + t, M) < 0)

    @pytest.mark.parametrize("N, M", [(2, 8), (3, 27), (2, 9), (3, 26),
                                      (4, 64), (5, 100)])
    def test_tails_match_cbrt_combo_sign(self, N, M):
        def gt(a, b, c, t):
            return (cbrt_combo_sign(a, b, c - t, M) > 0
                    or cbrt_combo_sign(a, b, c + t, M) < 0)

        for t in (F(0), F(1, 2), F(3, N), F(7, 5), F(2)):
            assert [normalized_sum_tail(N, M, t),
                    extended_sum_tail(N, M, t)] == pmf_walk_tails(
                N, M, (lambda u: gt(u, 0, 1, t), 1),
                (lambda u: gt(u, 1, N, t) + (N - 1) * gt(u, 1, 0, t), N))

    def test_rejects_bad_M(self):
        for M in (0, -8):
            with pytest.raises(ValueError):
                normalized_sum_tail(2, M, F(1, 2))
            with pytest.raises(ValueError):
                extended_sum_tail(2, M, F(1, 2))


class TestNormalizedAndExtended:
    def test_pinned_normalized(self):
        assert normalized_sum_tail(2, 8, F(1, 2)) == F(41, 64)

    def test_pinned_extended(self):
        assert extended_sum_tail(2, 8, F(3, 2)) == F(57, 128)
        assert extended_sum_tail(2, 8, F(3, 4)) == F(357, 512)

    def test_normalized_threshold_zero(self):
        # S_M = 1 + u * M^(-2/3) is 0 only if u = -M^(2/3), impossible for
        # M = 8, u even in [-8, 8] except u = -4: 2B - 8 = -4 at B = 2
        got = normalized_sum_tail(2, 8, 0)
        assert got == 1 - F(28, 256)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            normalized_sum_tail(2, 8, -1)
        with pytest.raises(ValueError):
            extended_sum_tail(2, 8, F(-1, 2))

    def test_rejects_bad_N(self):
        with pytest.raises(ValueError):
            normalized_sum_tail(1, 5, "1/2")
        with pytest.raises(ValueError):
            extended_sum_tail(1, 5, "1/2")

    def test_monotone_in_t(self):
        grid = [F(n, 6) for n in range(0, 14)]
        for fn in (normalized_sum_tail, extended_sum_tail):
            vals = [fn(3, 27, t) for t in grid]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_brute_force_small_case(self):
        # M = 4 (not a cube): enumerate the draws Y_1..Y_M (and Y_{M+1}
        # for the extended sum) and compare against float evaluation at
        # safe distance from ties
        import itertools
        N, M = 3, 4
        cbrt = M ** (1 / 3)
        for t in (F(1, 4), F(1, 2), F(1), F(3, 2)):
            exact = normalized_sum_tail(N, M, t)
            total = F(0)
            for ys in itertools.product((N - 1, -1, -1), repeat=M):
                u = sum(ys)
                if abs(1 + u / M ** (2 / 3)) > float(t) + 1e-12:
                    total += F(1, N ** M)
            assert exact == total
            exact = extended_sum_tail(N, M, t)
            total = F(0)
            for ys in itertools.product((N - 1, -1, -1), repeat=M + 1):
                u = sum(ys[:M])
                s = 1 + u / M ** (2 / 3) + ys[M] + 1 / cbrt
                if abs(s) > float(t) + 1e-12:
                    total += F(1, N ** (M + 1))
            assert exact == total


class TestRefutesConstant:
    def test_pinned_N2(self):
        fails, lhs, rhs = refutes_constant(2, 8, F(2, 3), F(1, 2))
        assert fails
        assert lhs == F(41, 64)
        assert rhs == F(357, 512)
        assert lhs > F(2, 3) * rhs

    def test_generous_constant_not_refuted(self):
        fails, lhs, rhs = refutes_constant(2, 8, 100, F(1, 2))
        assert not fails

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            refutes_constant(2, 8, 0, F(1, 2))


class TestVerifyCounterexample:
    def test_full_N2_report(self):
        rep = verify_counterexample(2)
        assert rep.found and rep.N == 2 and rep.M == 8
        assert rep.admissible_tail == F(37, 128)
        assert rep.p_centered == F(41, 64)
        assert rep.bound_centered == F(1, 2)
        assert rep.centered_holds
        assert rep.p_extended == F(57, 128)
        assert rep.bound_extended == F(1)
        assert rep.extended_holds
        ref = rep.refutation
        assert ref["c"] == F(2, 3) and ref["t"] == F(1, 2)
        assert ref["lhs"] == F(41, 64)
        assert ref["rhs_prob"] == F(357, 512)
        assert ref["rhs_total"] == F(119, 256)
        assert ref["fails"]
        assert ref["bound_implied_c"] == F(1, 3)

    def test_N3_report_bounds(self):
        rep = verify_counterexample(3, cap=5000)
        assert rep.found and rep.M == 4437
        assert rep.admissible_tail <= F(1, 3)
        assert rep.centered_holds
        assert rep.extended_holds
        assert rep.refutation["fails"]
        assert rep.refutation["bound_implied_c"] == F(1, 2)

    def test_not_found_path(self):
        rep = verify_counterexample(3, cap=100)
        assert not rep.found
        assert rep.M is None and rep.cap == 100
        assert rep.p_centered is None and rep.refutation is None
        d = rep.to_jsonable()
        assert d["found"] is False

    def test_jsonable_shape(self):
        d = verify_counterexample(2).to_jsonable()
        assert d["law"]["Y"] == {"1": "1/2", "-1": "1/2"}
        assert d["admissible_tail"] == "37/128"
        assert d["refutation"]["fails"] is True

    def test_explicit_M_skips_scan(self):
        rep = verify_counterexample(2, M=8)
        assert rep.cap is None and rep.M == 8
        assert rep.p_centered == F(41, 64)

    def test_rejects_N_below_2(self):
        with pytest.raises(ValueError):
            verify_counterexample(1)

    def test_scan_sums_once(self, monkeypatch):
        # the report's admissible tail is find_M's seed: a scan for M sums
        # one window walk, at the answer, and the report equals the one at
        # that M apart from the cap; no block opens at N = 10 under 15000
        calls = []
        sums = counterexample._sums

        def spy(*args):
            calls.append(args[1])
            return sums(*args)

        monkeypatch.setattr(counterexample, "_sums", spy)
        rep = verify_counterexample(3)
        assert calls == [4437]
        assert rep.cap == 100_000
        assert replace(rep, cap=None) == verify_counterexample(3, M=4437)
        calls.clear()
        rep = verify_counterexample(10, cap=15_000)
        assert calls == [] and not rep.found and rep.cap == 15_000
        with pytest.raises(ValueError, match=r"^cap 26 is below N\^3 = 27$"):
            verify_counterexample(3, cap=26)

    def test_scan_skips_reports_that_fail(self, monkeypatch):
        # with every M from 4400 let through, the reports there fail the
        # admissible tail until 4437, one walk each, as find_M's seeds do
        calls = []
        block_end, sums = counterexample._block_end, counterexample._sums

        def cut(N, M, t):
            return min(block_end(N, M, t), 4399) if M < 4400 else M - 1

        def spy(*args):
            calls.append(args[1])
            return sums(*args)

        monkeypatch.setattr(counterexample, "_block_end", cut)
        monkeypatch.setattr(counterexample, "_sums", spy)
        rep = verify_counterexample(3, cap=5000)
        assert rep.M == 4437 and calls == list(range(4400, 4438))
        assert replace(rep, cap=None) == verify_counterexample(3, M=4437)

    def test_rejects_M_with_cap(self):
        # the cap bounds the scan for M; with M given it would be ignored
        with pytest.raises(ValueError, match="cap"):
            verify_counterexample(2, M=5, cap=3)

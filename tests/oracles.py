"""Brute-force reference implementations used to pin expected values.

Everything here enumerates all |support|^k outcome tuples directly, so it is
exponential and only usable for small cases; the point is that it shares no
code path with the production implementations.  ``no_admissible_M_bound``
is an analytic bound rather than an enumeration, and likewise shares no code
with the scan it checks.  ``exact_find_M`` is the exact incremental scan
that ``find_M``'s top-K block gate replaced, kept as its differential
reference, and ``exact_windows`` is the exact running window (Pascal's
rule on exact ints) that the gate's bounds are checked against.  ``pmf_walk_tails``
with the ``walk_centered``, ``walk_normalized`` and ``walk_extended``
events is the per-b pmf walk that the counterexample tails' binomial
windows replaced: every b from 0 to M, the event decided on each
u = N*b - M.  ``fraction_convolve`` and
its left folds are the pairwise Fraction convolution the integer-lattice
kernel replaced, kept as its differential reference: same fold, same cap
point, and its output atoms in the kernel's one order, ascending packed
point, i.e. lexicographic on reversed coordinates (``_ascending``).
``absorbing_path_dp`` is the single-threshold running-max DP that
``iidtails.dists`` replaced with its (sum, running max) pass; its states are
only the sums still inside the threshold, so it checks that pass from a
different state space.  ``tuple_running_max_laws`` is the (sum, running
max) DP that the split pass ``dists._dict_steps`` replaced (read through
``_Walk.max_curve``): its own lattice encoding, tuple
states and its own pair loop, kept as the differential reference for the
laws at every step and for the step and size at which the cap is hit.
``fraction_sweep_curves``, ``fraction_least_c1``
and ``fraction_upper_envelope`` are the Fraction sweep the integer sweeps of
``iidtails.checks`` replaced: a sorted set of candidate thresholds, each
curve bisected there through ``TailCurve.at_gauge``.  They read every
candidate, where ``checks._Pair.reads`` reads only those where the margin
can fall, so they check that no candidate it skips could decide.
``fraction_concentration_set`` is the Fraction sweep of window masses that
the integer rule of ``iidtails.concentration`` replaced, and
``fraction_lemma2`` and ``fraction_corollary3`` are the Fraction checks on
its sets that lemma2 and corollary3 on int endpoints replaced: the sums
folded by ``fraction_convolve``, every endpoint and bound a Fraction, and
corollary3's witness rows built on every evaluation.
``fraction_snap_to_space`` is the Fraction decoding of a search parameter
vector that the integer snap of ``iidtails.search`` replaced.
``per_instance_corpus`` is the plan layout that ``run_corpus`` replaced by
one laid out once per run: every grid drawn and every entry judged and laid
out on each instance (``per_instance_grid``, ``checks._indices``,
``checks.plan_entry``), each params echo rendered by ``json.dumps`` and the
rows written by ``csv.writer``, kept as the differential reference for the
rows and the CSV bytes.
"""

import csv
import io
import json
import math
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import add

from iidtails import checks
from iidtails.checks import SweepOutcome
from iidtails.concentration import ConcentrationSet
from iidtails.counterexample import _sign_rule, icbrt
from iidtails.dists import (
    DEFAULT_SUPPORT_CAP,
    STRICT,
    DiscreteDist,
    Norm,
    SupportCapExceeded,
    TailCurve,
    affine,
    as_point,
)
from iidtails.reports import HOLDS, InequalityReport, VACUOUS, VIOLATED

ZERO = Fraction(0)
TWO_THIRDS = Fraction(2, 3)


def _items(dist):
    return sorted(dist.atoms.items())


def brute_iid_sum(x: DiscreteDist, k: int) -> DiscreteDist:
    acc = {}
    for combo in product(_items(x), repeat=k):
        total = tuple(sum(c[0][i] for c in combo) for i in range(x.dim))
        prob = Fraction(1)
        for _, p in combo:
            prob *= p
        acc[total] = acc.get(total, ZERO) + prob
    return DiscreteDist(acc)


def brute_weighted_sum(x: DiscreteDist, alphas) -> DiscreteDist:
    alphas = [Fraction(a) for a in alphas]
    acc = {}
    for combo in product(_items(x), repeat=len(alphas)):
        total = tuple(
            sum(a * c[0][i] for a, c in zip(alphas, combo))
            for i in range(x.dim)
        )
        prob = Fraction(1)
        for _, p in combo:
            prob *= p
        acc[total] = acc.get(total, ZERO) + prob
    return DiscreteDist(acc)


def _ascending(atoms, dim: int) -> DiscreteDist:
    """The law of (point, mass) pairs, its atoms in lexicographic order of
    reversed coordinates."""
    return DiscreteDist(sorted(atoms, key=lambda a: a[0][::-1]), dim=dim)


def fraction_convolve(a: DiscreteDist, b: DiscreteDist,
                      cap: int = DEFAULT_SUPPORT_CAP) -> DiscreteDist:
    """Law of U + V, one Fraction product and sum per atom pair."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    out = {}
    for x, p in a.atoms.items():
        for y, q in b.atoms.items():
            z = tuple(xi + yi for xi, yi in zip(x, y))
            prev = out.get(z)
            if prev is None:
                if len(out) >= cap:
                    raise SupportCapExceeded(len(out) + 1, cap)
                out[z] = p * q
            else:
                out[z] = prev + p * q
    return _ascending(out.items(), a.dim)


def _fraction_fold(terms, cap: int) -> DiscreteDist:
    """The left fold S <- S + term over independent terms."""
    result = _ascending(terms[0].atoms.items(), terms[0].dim)
    for term in terms[1:]:
        result = fraction_convolve(result, term, cap)
    return result


def fraction_iid_sum(x: DiscreteDist, k: int,
                     cap: int = DEFAULT_SUPPORT_CAP) -> DiscreteDist:
    """S_k as the left fold S_i = S_{i-1} + X over k copies of x."""
    return _fraction_fold([x] * k, cap)


def fraction_weighted_iid_sum(x: DiscreteDist, alphas,
                              cap: int = DEFAULT_SUPPORT_CAP) -> DiscreteDist:
    """sum_i alpha_i X_i as the left fold over the terms alpha_i X_i."""
    return _fraction_fold([affine(x, Fraction(a), 0) for a in alphas], cap)


def brute_tail(dist: DiscreteDist, norm: Norm, t, mode: str = "strict"):
    tg = norm.to_gauge(Fraction(t))
    total = ZERO
    for pt, p in dist.atoms.items():
        g = norm.gauge(pt)
        if g > tg or (mode == "weak" and g == tg):
            total += p
    return total


def brute_path_max_tail(x: DiscreteDist, k: int, norm: Norm, t,
                        mode: str = "strict") -> Fraction:
    tg = norm.to_gauge(Fraction(t))
    total = ZERO
    for combo in product(_items(x), repeat=k):
        run = (ZERO,) * x.dim
        hit = False
        for pt, _ in combo:
            run = tuple(r + c for r, c in zip(run, pt))
            g = norm.gauge(run)
            if g > tg or (mode == "weak" and g == tg):
                hit = True
                break
        if hit:
            prob = Fraction(1)
            for _, p in combo:
                prob *= p
            total += prob
    return total


def brute_first_exceedance(x: DiscreteDist, k: int, norm: Norm, t,
                           mode: str = "strict"):
    """Probability the running max first exceeds t at step j, j = 1..k."""
    tg = norm.to_gauge(Fraction(t))
    out = [ZERO] * k
    for combo in product(_items(x), repeat=k):
        run = (ZERO,) * x.dim
        for step, (pt, _) in enumerate(combo):
            run = tuple(r + c for r, c in zip(run, pt))
            g = norm.gauge(run)
            if g > tg or (mode == "weak" and g == tg):
                prob = Fraction(1)
                for _, p in combo:
                    prob *= p
                out[step] += prob
                break
    return out


def absorbing_path_dp(x: DiscreteDist, k: int, norm: Norm, q,
                      mode: str = "strict"):
    """(per-step absorbed masses, surviving mass) at gauge threshold q.

    Keeps the sub-probability law of S_j on the paths whose prefixes all
    stayed inside the threshold and absorbs the mass that leaves at each
    step, so the absorbed masses are the first-exceedance probabilities and
    1 - survivors is the running max's tail at q.
    """
    if mode not in ("strict", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    q = Fraction(q)
    alive = {(ZERO,) * x.dim: Fraction(1)}
    absorbed = []
    for _ in range(k):
        nxt = {}
        out = ZERO
        for s, ps in alive.items():
            for y, py in x.atoms.items():
                z = tuple(si + yi for si, yi in zip(s, y))
                g = norm.gauge(z)
                if g > q or (mode == "weak" and g == q):
                    out += ps * py
                else:
                    nxt[z] = nxt.get(z, ZERO) + ps * py
        absorbed.append(out)
        alive = nxt
    return absorbed, sum(alive.values(), ZERO)


def tuple_running_max_laws(x: DiscreteDist, norm: Norm, cap: int):
    """The running-maximum DP.  Yields, after each step k = 1, 2, ..., the
    law of max_{j<=k} gauge(S_j) as (int gauge value -> int mass numerator,
    gauge unit, mass denominator), and takes step k + 1 only when the next
    law is asked for.

    A state is (S_k, running max gauge) on the integer lattice of x:
    coordinates times the lcm `scale` of their denominators, masses as int
    numerators over den**k.  The gauge of a lattice point is scale**e times
    that of the point it stands for, so it orders states the same way.  cap
    bounds the states of each step after the first.
    """
    scale = lcm(*{c.denominator for pt in x.atoms for c in pt})
    den = lcm(*{p.denominator for p in x.atoms.values()})
    steps = [(tuple(c.numerator * (scale // c.denominator) for c in pt),
              p.numerator * (den // p.denominator))
             for pt, p in x.atoms.items()]
    gauge = norm.gauge
    unit = scale ** norm.scale_exponent
    states = {(y, gauge(y)): p for y, p in steps}
    total = den
    while True:
        law = {}
        for (_, m), p in states.items():
            law[m] = law.get(m, 0) + p
        yield law, unit, total
        nxt = {}
        get = nxt.get
        for (s, m), p in states.items():
            for y, q in steps:
                z = tuple(map(add, s, y))
                g = gauge(z)
                key = (z, m if m >= g else g)
                prev = get(key)
                if prev is None:
                    if len(nxt) >= cap:
                        raise SupportCapExceeded(len(nxt) + 1, cap)
                    nxt[key] = p * q
                else:
                    nxt[key] = prev + p * q
        states = nxt
        total *= den


def coin(a=-1, b=1):
    return DiscreteDist({(Fraction(a),): Fraction(1, 2),
                         (Fraction(b),): Fraction(1, 2)})


def dist1d(pairs) -> DiscreteDist:
    return DiscreteDist({as_point(v): Fraction(p) for v, p in pairs})


def no_admissible_M_bound(N: int, M_lo: int, M_hi: int):
    """Prove, M by M, that no M in [M_lo, M_hi] is an admissible horizon.

    Admissible means P(|N*B - M| <= M^(2/3)/N) >= 1 - 1/N for
    B ~ Binomial(M, 1/N), the condition ``find_M`` scans for.  This proof
    shares nothing with that scan and uses only integers:

    - Robbins' Stirling bounds, n! = sqrt(2 pi n) (n/e)^n e^r_n with
      1/(12n+1) < r_n < 1/(12n), give for 1 <= b <= M-1
      P(B = b) <= e^(1/(12M)) / sqrt(2 pi b (M-b) / M); the dropped factor
      exp(-M * KL(b/M || 1/N)) is at most 1.
    - With an integer c, c^3 >= M^2, the window lies inside
      b in [ceil((N*M - c)/N^2), floor((N*M + c)/N^2)], `count` integers.
      b(M-b) is concave, so its minimum `minprod` there is at an endpoint.
    - The window mass is then below count * e^(1/(12M)) * sqrt(M/(6 minprod))
      since 2 pi > 6, and e^(1/(12M)) <= 12M/(12M-1) (e^x <= 1/(1-x)).
      Squaring and clearing denominators, mass < 1 - 1/N follows from
      count^2 * M * (12M)^2 * N^2 < 6 * minprod * (12M-1)^2 * (N-1)^2.

    Returns ``(uncertified, worst)``: the M the bound cannot clear, and the
    largest left/right ratio of the final inequality over the M where the
    bound applies (below 1 means certified).  An M whose window reaches
    b = 0 or b = M is uncertified, since the pmf bound needs 1 <= b <= M-1.
    """
    if N < 2 or M_lo < 1 or M_hi < M_lo:
        raise ValueError("need N >= 2 and 1 <= M_lo <= M_hi")
    uncertified = []
    worst_num, worst_den = 0, 1
    c = 0
    for M in range(M_lo, M_hi + 1):
        while c * c * c < M * M:         # smallest c with c^3 >= M^2
            c += 1
        lo = -((c - N * M) // (N * N))   # ceil((N*M - c) / N^2)
        hi = (N * M + c) // (N * N)
        count = hi - lo + 1
        if count <= 0:
            continue                     # empty window, mass 0
        if lo < 1 or hi > M - 1:
            uncertified.append(M)
            continue
        minprod = min(lo * (M - lo), hi * (M - hi))
        lhs = count * count * M * (12 * M) ** 2 * N * N
        rhs = 6 * minprod * (12 * M - 1) ** 2 * (N - 1) ** 2
        if lhs >= rhs:
            uncertified.append(M)
        if lhs * worst_den > worst_num * rhs:
            worst_num, worst_den = lhs, rhs
    return uncertified, Fraction(worst_num, worst_den)


def _exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("binomial ratio step left a remainder")
    return q


def exact_find_M(N: int, M_cap: int):
    """``find_M`` as an exact scan: the modal term T and the threshold
    thr = (N-1)*N^(M-1) kept as exact ints from M to M+1, the window
    radius by ``icbrt`` at every M, window_count * T < thr as the only
    rejection, and otherwise the exact window sum walked outward from the
    mode.  No rounding anywhere, so it is the reference for the rounded
    bounds of ``find_M``.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    if M_cap < N ** 3:
        raise ValueError(f"cap {M_cap} is below N^3 = {N ** 3}")
    M0 = N ** 3
    m = (M0 + 1) // N                       # binomial mode floor((M+1)/N)
    T = math.comb(M0, m) * (N - 1) ** (M0 - m)
    thr = (N - 1) * N ** (M0 - 1)
    for M in range(M0, M_cap + 1):
        if M > M0:
            T = _exact_div(T * (N - 1) * M, M - m)
            if (M + 1) // N != m:
                T = _exact_div(T * (M - m), (m + 1) * (N - 1))
                m += 1
            thr *= N
        u_max = icbrt(M * M // N ** 3)      # largest |N*b - M| inside
        lo = -(-(M - u_max) // N)
        hi = (M + u_max) // N
        if hi < lo or (hi - lo + 1) * T < thr:
            continue
        total = T if lo <= m <= hi else 0
        term, b = T, m
        while b < hi:                        # walk right
            term = _exact_div(term * (M - b), (b + 1) * (N - 1))
            b += 1
            if b >= lo:
                total += term
        term, b = T, m
        while b > lo:                        # walk left
            term = _exact_div(term * b * (N - 1), M - b + 1)
            b -= 1
            if b <= hi:
                total += term
        if total >= thr:
            return M
    return None



def exact_windows(N: int, M: int, M_last: int):
    """{M': (W, L, H)} for M' = M..M_last: find_M's window mass W over
    |N*b - M'| <= icbrt(M'^2 // N^3) and its edge terms L = t(lo-1) and
    H = t(hi), t(b) = C(M',b)*(N-1)^(M'-b).  W is summed by comb at M and
    carried by Pascal's rule, W' = N*W + L - H, after; the edge terms by
    ratio steps that must divide exactly."""
    def t(M, b):
        return math.comb(M, b) * (N - 1) ** (M - b)

    def edges(M):
        u = icbrt(M * M // N ** 3)
        return -(-(M - u) // N), (M + u) // N

    lo, hi = edges(M)
    W, L, H = sum(t(M, b) for b in range(lo, hi + 1)), t(M, lo - 1), t(M, hi)
    out = {M: (W, L, H)}
    for M in range(M + 1, M_last + 1):
        W = N * W + L - H
        L = _exact_div(L * M * (N - 1), M - lo + 1)
        H = _exact_div(H * M * (N - 1), M - hi)
        lo2, hi2 = edges(M)
        for b in range(hi, hi2):
            H = _exact_div(H * (M - b), (b + 1) * (N - 1))
            W += H
        for b in range(lo, lo2):
            L = _exact_div(L * (M - b + 1), b * (N - 1))
            W -= L
        lo, hi = lo2, hi2
        out[M] = W, L, H
    return out


def abs_gt(sign, a: int, b: int, c: int, p: int) -> bool:
    """|a + b*M^(1/3) + c*M^(2/3)| > p*M^(2/3) for p >= 0, where sign is
    the sign rule of M."""
    return sign(a, b, c - p) > 0 or sign(a, b, c + p) < 0


def _pmf_numerators(N: int, M: int):
    """C(M,b)*(N-1)^(M-b) for b = 0..M in turn (denominator N^M)."""
    term = (N - 1) ** M          # b = 0
    yield term
    for b in range(M):
        term = _exact_div(term * (M - b), (b + 1) * (N - 1))
        yield term


def pmf_walk_tails(N: int, M: int, *events) -> "list[Fraction]":
    """For each event (weight, per): the sum over every b = 0..M of
    Pr(B = b) * weight(N*b - M) / per, B ~ Binomial(M, 1/N), where
    weight(u) counts, as an int or bool, the outcomes out of per that put
    the event's sum in the tail when sum_{i<=M} Y_i = u."""
    if N < 2 or M < 1:
        raise ValueError("need N >= 2 and M >= 1")
    totals = [0] * len(events)
    for b, num in enumerate(_pmf_numerators(N, M)):
        u = N * b - M
        for i, (weight, _) in enumerate(events):
            w = weight(u)
            if w:
                totals[i] += w * num
    return [Fraction(total, N ** M * per)
            for total, (_, per) in zip(totals, events)]


def walk_centered(M: int, theta):
    """|sum_{i<=M} Y_i| > M^(2/3)*theta as a (weight, per) event, by the
    cube test |u|^3 * q^3 > M^2 * p^3 on each u."""
    theta = Fraction(theta)
    q3, bound = theta.denominator ** 3, M * M * theta.numerator ** 3
    return (lambda u: abs(u) ** 3 * q3 > bound), 1


def walk_normalized(M: int, t):
    """|S_M| > t, S_M = 1 + u*M^(-2/3), as a (weight, per) event."""
    t, sign = Fraction(t), _sign_rule(M)
    p, q = t.numerator, t.denominator
    return (lambda u: abs_gt(sign, q * u, 0, q, p)), 1


def walk_extended(N: int, M: int, t):
    """|S_M + Y_{M+1} + M^(-1/3)| > t as a (weight, per) event: y = N-1 in
    one draw out of N, y = -1 in the other N-1."""
    t, sign = Fraction(t), _sign_rule(M)
    p, q = t.numerator, t.denominator
    return (lambda u: abs_gt(sign, q * u, q, q * N, p)
            + (N - 1) * abs_gt(sign, q * u, q, 0, p)), N

def fraction_threshold_candidates(jumps, mixed_modes=False):
    pos = sorted({q for q in jumps if q > 0})
    if not pos:
        return [Fraction(1)]
    cands = [pos[0] / 2]
    cands.extend(pos)
    cands.append(pos[-1] * 2)
    if mixed_modes:
        cands.extend((a + b) / 2 for a, b in zip(pos, pos[1:]))
        cands.sort()
    return cands


def _fraction_candidates(lhs_curve, rhs_curve, scale, mixed_modes):
    if lhs_curve.norm is not rhs_curve.norm:
        raise ValueError("curves use different norms")
    scale_g = scale ** lhs_curve.norm.scale_exponent
    jumps = set(lhs_curve.criticals)
    jumps.update(r * scale_g for r in rhs_curve.criticals)
    return fraction_threshold_candidates(jumps, mixed_modes), scale_g


def fraction_sweep_curves(lhs_curve, rhs_curve, factor, scale,
                          lhs_mode=STRICT, rhs_mode=None) -> SweepOutcome:
    rhs_mode = lhs_mode if rhs_mode is None else rhs_mode
    factor, scale = Fraction(factor), Fraction(scale)
    qs, scale_g = _fraction_candidates(lhs_curve, rhs_curve, scale,
                                       lhs_mode != rhs_mode)
    worst = None  # (margin, q, lhs, rhs) where lhs > 0
    idle = None   # fallback when lhs is identically zero
    max_lhs = ZERO
    for q in qs:
        lv = lhs_curve.at_gauge(q, lhs_mode)
        rv = factor * rhs_curve.at_gauge(q / scale_g, rhs_mode)
        margin = rv - lv
        if lv > max_lhs:
            max_lhs = lv
        if lv == 0:
            if idle is None:
                idle = (margin, q, lv, rv)
            continue
        if worst is None or margin < worst[0]:
            worst = (margin, q, lv, rv)
    margin, q, lv, rv = worst if worst is not None else idle
    status = VIOLATED if margin < 0 else HOLDS
    return SweepOutcome(status, q, lv, rv, margin, max_lhs)


def fraction_least_c1(lhs_curve, rhs_curve, factor, scale):
    qs, scale_g = _fraction_candidates(lhs_curve, rhs_curve, scale, False)
    best = ZERO
    best_q = None
    for q in qs:
        num = lhs_curve.at_gauge(q, STRICT)
        if num == 0:
            continue
        den = rhs_curve.at_gauge(q / scale_g, STRICT)
        if den == 0:
            return math.inf, q
        r = num / den
        if r > best:
            best, best_q = r, q
    return best / factor, best_q


def fraction_upper_envelope(curves) -> TailCurve:
    norm = curves[0].norm
    if any(c.norm is not norm for c in curves):
        raise ValueError("curves use different norms")
    crits = sorted({q for c in curves for q in c.criticals})
    values = tuple(
        max(c.at_gauge(q, STRICT) for c in curves) for q in crits
    )
    return TailCurve(norm, tuple(crits), values)


def fraction_concentration_set(x: DiscreteDist, t) -> ConcentrationSet:
    """The Fraction sweep of {c : Pr(|X - c| <= t) > 2/3} for a 1-D law
    that the integer rule of iidtails.concentration replaced: Fraction
    masses summed over Fraction breakpoints a -+ t."""
    t = Fraction(t)
    starts: "dict[Fraction, Fraction]" = {}
    ends: "dict[Fraction, Fraction]" = {}
    for a, p in x.scalar_items():
        starts[a - t] = starts.get(a - t, ZERO) + p
        ends[a + t] = ends.get(a + t, ZERO) + p
    points = sorted(set(starts) | set(ends))
    qualifying = []  # closed pieces: each point and each open gap after it
    started = ended = ZERO
    for i, p in enumerate(points):
        started += starts.get(p, ZERO)
        at_p = started - ended
        ended += ends.get(p, ZERO)
        if at_p > TWO_THIRDS:
            qualifying.append((p, p))
        if i + 1 < len(points) and started - ended > TWO_THIRDS:
            qualifying.append((p, points[i + 1]))
    merged = []
    for lo, hi in qualifying:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return ConcentrationSet(tuple((lo, hi) for lo, hi in merged))


def fraction_lemma2(x: DiscreteDist, y: DiscreteDist, t) -> InequalityReport:
    """lemma2 with Fraction concentration sets of X, Y and X + Y: the
    extremes of x + y - z over their endpoints against 3t."""
    t = Fraction(t)
    sets = {"X": fraction_concentration_set(x, t),
            "Y": fraction_concentration_set(y, t),
            "X+Y": fraction_concentration_set(fraction_convolve(x, y), t)}
    empty = ", ".join(name for name, c in sets.items() if c.is_empty)
    if empty:
        return _fraction_report("lemma2", {"t": t}, empty)
    cx, cy, cz = sets.values()
    attained = max(cx.max + cy.max - cz.min, cz.max - cx.min - cy.min)
    return _fraction_report("lemma2", {"t": t}, "", (attained, 3 * t, {
        "attained": attained, "bound": 3 * t}))


def fraction_corollary3(x: DiscreteDist, k: int, t) -> InequalityReport:
    """corollary3 with Fraction concentration sets of S_1..S_k: per j the
    plain bound 3(k+j)t and the refined 3(j+k-2*gcd(j,k))t, the worst row
    the least margin, plain before refined, first j on ties."""
    t = Fraction(t)
    csets = {i: fraction_concentration_set(fraction_iid_sum(x, i), t)
             for i in range(1, k + 1)}
    params = {"k": k, "t": t}
    empty = [i for i in csets if csets[i].is_empty]
    if empty:
        return _fraction_report("corollary3", params, f"S_i, i in {empty}")
    rows = []
    worst = None  # (margin, row)
    for j in range(1, k + 1):
        cj, ck = csets[j], csets[k]
        attained = max(k * cj.max - j * ck.min, j * ck.max - k * cj.min)
        row = {"j": j, "attained": attained, "plain_bound": 3 * (k + j) * t,
               "refined_attained": attained if j < k else ZERO,
               "refined_bound": 3 * (j + k - 2 * gcd(j, k)) * t}
        rows.append(row)
        for got, bound in ((attained, row["plain_bound"]),
                           (row["refined_attained"], row["refined_bound"])):
            if worst is None or bound - got < worst[0]:
                worst = (bound - got,
                         {"j": j, "attained": got, "bound": bound})
    row = worst[1]
    return _fraction_report("corollary3", params, "", (
        row["attained"], row["bound"], {"rows": rows, "worst": row}),
        "refined bound under shared selection; trivial at j = k")


def _fraction_report(claim_id: str, params: dict, empty: str, worst=None,
                     note=None) -> InequalityReport:
    """Vacuous when the sets named in `empty` are empty, else decided by
    worst = (attained, bound, witness), the witness kept only when the
    bound is violated."""
    t = params["t"]
    if empty:
        return InequalityReport(claim_id, params, t, None, None, None, VACUOUS,
                                note=f"empty concentration set for {empty}")
    attained, bound, witness = worst
    margin = bound - attained
    return InequalityReport(claim_id, params, t, attained, bound, margin,
                            HOLDS if margin >= 0 else VIOLATED,
                            witness if margin < 0 else None, note)


def fraction_snap_to_space(theta, space) -> DiscreteDist:
    """Decode a search parameter vector with Fractions: each location
    clipped to the box as a float, rounded onto the lattice and clipped
    again as a Fraction; each weight the rounded square of its coordinate
    (an implicit 1 last) times prob_denominator, at least 1, over the sum of
    all weights; coinciding locations merge."""
    n = space.n_atoms
    lo, hi = float(space.value_lo), float(space.value_hi)
    ld = space.lattice_denominator
    pd = space.prob_denominator
    locs = []
    for v in theta[:n]:
        x = min(max(float(v), lo), hi)
        frac = Fraction(round(x * ld), ld)
        if frac < space.value_lo:
            frac = Fraction(space.value_lo)
        elif frac > space.value_hi:
            frac = Fraction(space.value_hi)
        locs.append(frac)
    raw = [float(f) * float(f) for f in theta[n:]] + [1.0]
    weights = [max(1, round(w * pd)) for w in raw]
    total = sum(weights)
    atoms = {}
    for x, w in zip(locs, weights):
        atoms[(x,)] = atoms.get((x,), ZERO) + Fraction(w, total)
    return DiscreteDist(atoms, dim=1)


def count_judgements(monkeypatch, *modules) -> list:
    """Record the shape of every ``checks._indices`` call made through
    ``checks`` or any of modules (each imports ``_indices`` by name)."""
    calls, judge = [], checks._indices

    def counted(shape, given, spec=None):
        calls.append(shape.claim_id)
        return judge(shape, given, spec)

    for module in (checks, *modules):
        monkeypatch.setattr(module, "_indices", counted)
    return calls


def per_instance_grid(shape, dist: DiscreteDist, rng, config) -> list:
    """Where one claim shape is checked on one instance: every admissible
    (j, k) up to max_k, larger index outermost; drawn weight vectors for
    corollary5; a threshold grid for the 1-D concentration claims."""
    K = config.max_k
    if shape.evaluate is not None:
        k = min(3, K) if "k" in shape.takes else 1
        vals = [x[0] for x in dist.support]
        span = max(vals) - min(vals)
        ts = ([span / 8, span / 2, k * span] if span else [Fraction(1)]) \
            if dist.dim == 1 else []
        return [{"k": k, "t": t} if "k" in shape.takes else {"t": t}
                for t in ts]
    if shape.lhs == checks.WEIGHTED:
        out = []
        for _ in range(config.weight_vectors):
            k = rng.integers(min(2, K), K + 1)
            nums = rng.integers(-config.denominator,
                                config.denominator + 1, size=k)
            out.append({"alphas": [Fraction(v, config.denominator)
                                   for v in nums]})
        return out
    if shape.order == checks.FIRST_TWO:
        return [{"j": 1, "k": 2}]
    if shape.order == checks.K_ONLY:
        return [{"k": k} for k in range(1, K + 1)]
    pairs = [(a, b) for b in range(1, K + 1) for a in range(1, b + 1)]
    return [{"j": a, "k": b} if shape.order == checks.J_LE_K
            else {"j": b, "k": a} for a, b in pairs]


def per_instance_corpus(config, claims=None, cap: int = DEFAULT_SUPPORT_CAP,
                        overrides=None) -> "tuple[list[dict], bytes]":
    """The rows and the CSV bytes of run_corpus and write_csv on the same
    arguments, the plan laid out afresh on every instance: each entry's
    grid drawn (per_instance_grid) and judged, its echoes rendered by
    json.dumps(jsonify(echo), sort_keys=True), every field of a row from
    Fractions, and the rows written by csv.writer."""
    from iidtails._philox import Stream
    from iidtails.corpus import (CSV_COLUMNS, DEFAULT_CLAIMS, _instance_key,
                                 generate_corpus, normalize_claims)
    from iidtails.reports import jsonify
    claims = normalize_claims(DEFAULT_CLAIMS if claims is None else claims)
    judged = {name: checks.variants(checks.CLAIMS[name]) for name in claims}
    for raw, ov in (overrides or {}).items():
        (name,) = normalize_claims([raw])
        judged[name] = checks.variants(checks.CLAIMS[name], ov.get("c1"),
                                       ov.get("c2"))
    plan = [(checks.CLAIMS[name], *variant) for name in claims
            for variant in judged[name]]
    rows = []
    for index, (dist, norm) in enumerate(generate_corpus(config)):
        rng = Stream(_instance_key(config.seed, index))
        entries = [checks.plan_entry(spec, shape, c1, c2, checks._indices(
            shape, raw, spec), norm, checks.MODE_PAIRS)
            for spec, shape, c1, c2 in plan
            for raw in per_instance_grid(shape, dist, rng, config)]
        if not entries:
            continue
        try:
            got = checks.walk_checks(entries, [dist], cap)
        except SupportCapExceeded:
            continue
        for entry, (ts, *fields, status, _, note) in zip(entries, got):
            lhs, rhs, margin = (None if v is None else Fraction(*v)
                                for v in fields)
            for echo, t in zip(entry.echoes, ts):
                rows.append({
                    "instance": index, "claim": entry.spec.claim_id,
                    "params": json.dumps(jsonify(echo), sort_keys=True),
                    "worst_t": None if t is None else str(Fraction(*t)),
                    **{name: None if v is None else str(v) for name, v in
                       (("lhs", lhs), ("rhs", rhs), ("margin", margin))},
                    "margin_float_approx": None if margin is None
                    else float(margin), "status": status, "note": note})
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(CSV_COLUMNS)
    writer.writerows([row[c] for c in CSV_COLUMNS] for row in rows)
    return rows, text.getvalue().encode("utf-8")

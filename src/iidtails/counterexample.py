"""Exact weighted-sum counterexample computations.

The instance: Y takes value N-1 with probability 1/N and -1 otherwise, so
sum_{i<=M} Y_i = N*B - M with B ~ Binomial(M, 1/N).  The normalized sums
S_M = M^(-2/3) sum_{i<=M} (Y_i + M^(-1/3)) = 1 + (N*B - M) * M^(-2/3)
live in the field Q(M^(1/3)); every event probability below is an exact
rational because all order comparisons are decided by integer arithmetic.

One binomial law serves every tail: _sums walks C(M,b)*(N-1)^(M-b) once
over b, from math.comb at its first b and exact ratio steps from there (a
remainder raises ArithmeticError, also under ``python -O``), and returns
its prefix sums at the cuts asked for.  Every tail event is the
complement of at most two windows of u = N*b - M, so a report cuts one
walk at all its windows' edges and takes each window's mass as a
difference of two prefix sums; the edges come from an integer cube root
(centered) or a bisection on the sign rule, which rises with u.  find_M
touches big integers only at the few M that decide: a block gate rejects
runs of M by one exact bound at each block's first M, a fixed-point carry
in 2^64 units rejects one M at a time from there, and an exact _sums seed
decides every M the carry lets through.
Thresholds, constants and sign-rule coefficients go through dists.rat, so
a float is refused as everywhere else; N, M and the cap must be ints, and
a bool or a float there raises TypeError naming the argument.

Sign rule used throughout: for rational a, b, c and M not a perfect cube,

    sign(a + b*M^(1/3) + c*M^(2/3)) = sign(A^3 + B^3*M + C^3*M^2 - 3*A*B*C*M)

after clearing denominators to integers (A, B, C).  The right side is the
field norm of the left, and the two complex conjugate factors have positive
product, so the signs agree; for perfect cubes M^(1/3) is an integer and the
expression is evaluated directly.  A tail takes M's cube root and clears its
threshold's denominator once, so the rule runs on ints at every bisection
step.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt, lcm

from .dists import _threshold, rat
from .reports import Report, jsonify


def _ratio(num: int, den: int) -> int:
    """num / den for a binomial ratio step, which must divide exactly."""
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("binomial ratio step left a remainder")
    return q


_ONE = 1 << 64      # the unit of find_M's fixed-point carry


def _int(name: str, value) -> int:
    """value, refused with a TypeError naming it unless it is an int."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, not "
                        f"{type(value).__name__} {value!r}")
    return value


def _law(N, M) -> None:
    """Refuse a non-int N or M, then N < 2 or M < 1."""
    if _int("N", N) < 2 or _int("M", M) < 1:
        raise ValueError("need N >= 2 and M >= 1")


def icbrt(n: int) -> int:
    """Floor integer cube root of n >= 0 (Newton, exact)."""
    if _int("n", n) < 0:
        raise ValueError("icbrt needs n >= 0")
    if n == 0:
        return 0
    x = 1 << (-(-n.bit_length() // 3))  # upper-ish start: 2^(ceil(bits/3))
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    while x * x * x > n:
        x -= 1
    while (x + 1) ** 3 <= n:
        x += 1
    return x


def _sign_rule(M: int):
    """The sign rule for one M >= 1, with M's cube root taken once:
    sign(A + B*M^(1/3) + C*M^(2/3)) for ints A, B, C."""
    if _int("M", M) < 1:
        raise ValueError("M must be >= 1")
    r = icbrt(M)
    if r * r * r == M:
        return lambda A, B, C: _sign(A + B * r + C * r * r)
    # the field norm, 0 only when A = B = C = 0
    return lambda A, B, C: _sign(A ** 3 + B ** 3 * M + C ** 3 * M * M
                                 - 3 * A * B * C * M)


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def cbrt_combo_sign(a, b, c, M: int) -> int:
    """Sign of a + b*M^(1/3) + c*M^(2/3) for rational a, b, c and M >= 1."""
    a, b, c = rat(a), rat(b), rat(c)
    den = lcm(a.denominator, b.denominator, c.denominator)
    return _sign_rule(M)(*(x.numerator * (den // x.denominator)
                           for x in (a, b, c)))


def _term(N: int, M: int, b: int) -> int:
    """C(M,b)*(N-1)^(M-b), the pmf numerator of B ~ Binomial(M, 1/N) at b
    (denominator N^M)."""
    return comb(M, b) * (N - 1) ** (M - b)


def _sums(N: int, M: int, cuts: "set[int]") -> "dict[int, int]":
    """{c: sum of C(M,b)*(N-1)^(M-b) over min(cuts) <= b < c} for each cut
    c in 0..M+1: one walk from the lowest cut to the highest, math.comb at
    its first b and exact ratio steps from there."""
    first = min(cuts)
    sums, total = {first: 0}, 0
    for b in range(first, max(cuts)):
        term = _term(N, M, b) if b == first else _ratio(
            term * (M - b + 1), b * (N - 1))
        total += term
        if b + 1 in cuts:
            sums[b + 1] = total
    return sums


def _tails(N: int, M: int, *events) -> "list[Fraction]":
    """For each event (per, windows): the exact tail
    (per*N^M - sum of w * window mass over its windows) / (per*N^M).

    The windows (w, lo, hi) are the b whose u = N*b - M keeps the event's
    sum inside, w outcomes out of per each.  Every window edge, clipped to
    0..M, is a cut of one _sums walk, so the events share one math.comb
    and one term per b from the lowest edge to the highest, and a window's
    mass is the difference of the sums at its two cuts.
    """
    spans = [[(w, max(lo, 0), min(hi, M) + 1) for w, lo, hi in windows]
             for _, windows in events]
    cuts = {c for windows in spans for _, a, z in windows if a < z
            for c in (a, z)}
    sums = _sums(N, M, cuts) if cuts else {}
    total = N ** M
    return [Fraction(per * total - sum(w * (sums[z] - sums[a])
                                       for w, a, z in windows if a < z),
                     per * total)
            for (per, _), windows in zip(events, spans)]


def _centered(N: int, M: int, threshold):
    """The event |sum_{i<=M} Y_i| > M^(2/3) * threshold, as (per, windows).

    Uses |u| > M^(2/3)*theta  <=>  |u|^3 * q^3 > M^2 * p^3 for theta = p/q,
    so the inside is |u| <= icbrt(M^2*p^3 // q^3), all in integers.
    """
    theta = _threshold(threshold)
    U = icbrt(M * M * theta.numerator ** 3 // theta.denominator ** 3)
    return 1, [(1, -(-(M - U) // N), (M + U) // N)]


def centered_sum_tail(N: int, M: int, threshold) -> Fraction:
    """Exact Pr(|sum_{i<=M} Y_i| > M^(2/3) * threshold)."""
    _law(N, M)
    return _tails(N, M, _centered(N, M, threshold))[0]


def _block_end(N: int, M: int) -> int:
    """The last M' >= M that one exact bound at M rejects, or less than M
    when it rejects not even M itself.

    With T the modal term at m = floor((M+1)/N) and thr = (N-1)*N^(M-1),
    T/thr is N/(N-1) times the largest pmf value of B ~ Binomial(M, 1/N),
    which never rises with M: P(B_{M+1} = b) = P(B_M = b-1)/N +
    P(B_M = b)*(N-1)/N.  A window of radius u has at most floor(2u/N) + 1
    terms, each at most T, and u never falls as M grows.  So K*T < thr,
    K = (thr - 1) // T, rejects every M' whose radius is at most the
    largest u with floor(2u/N) + 1 <= K; the last such M' has
    M'^2 < (u+1)^3 * N^3.
    """
    m = (M + 1) // N                        # binomial mode floor((M+1)/N)
    K = ((N - 1) * N ** (M - 1) - 1) // _term(N, M, m)
    u = (K * N - 1) // 2
    return isqrt((u + 1) ** 3 * N ** 3 - 1)


def _gate(N: int, M_cap: int):
    """The first M in [N^3, M_cap] that its block bound (_block_end) lets
    through, or None when the blocks cover the cap."""
    M = N ** 3
    while M <= M_cap:
        end = _block_end(N, M)
        if end < M:
            return M
        M = end + 1
    return None


def _carry(N: int, M: int, M_cap: int, u: int, W: int, L: int, H: int):
    """Yield (M', w, (l0, l1), (h0, h1)) for M' = M+1..M_cap: in 2^64 units
    (_ONE) of thr' = (N-1)*N^(M'-1), w bounds the window mass W' at M' from
    above, and l0 <= L' <= l1, h0 <= H' <= h1 bracket its edge terms
    L' = t_M'(lo-1) and H' = t_M'(hi), t_M(b) = C(M,b)*(N-1)^(M-b).

    They start from the exact W, L and H at M over its radius u and follow
    Pascal's rule W' = N*W + L - H over the same edges, the edge terms'
    exact ratio to M', and one edge term per b the window gains or loses;
    every step rounds outward, up for an upper bound and down for a lower.
    """
    thr = (N - 1) * N ** (M - 1)
    w = -(-W * _ONE // thr)
    l0, l1 = L * _ONE // thr, -(-L * _ONE // thr)
    h0, h1 = H * _ONE // thr, -(-H * _ONE // thr)
    b0, b1 = -(-(M - u) // N), (M + u) // N
    grow = (u + 1) ** 3 * N ** 3            # the M^2 at which u grows
    for M in range(M + 1, M_cap + 1):
        while M * M >= grow:
            u += 1
            grow = (u + 1) ** 3 * N ** 3
        # W' / thr' = (N*W + L - H) / (N*thr), then the edge terms at M
        w -= (h0 - l1) // N
        up, d0, d1 = M * (N - 1), (M - b0 + 1) * N, (M - b1) * N
        l0, l1 = l0 * up // d0, -(-l1 * up // d0)
        h0, h1 = h0 * up // d1, -(-h1 * up // d1)
        # both edges only move right as M grows
        hi = (M + u) // N
        while b1 < hi:
            d = (b1 + 1) * (N - 1)
            h0, h1 = h0 * (M - b1) // d, -(-h1 * (M - b1) // d)
            b1 += 1
            w += h1
        lo = -(-(M - u) // N)
        while b0 < lo:
            d = b0 * (N - 1)
            l0, l1 = l0 * (M - b0 + 1) // d, -(-l1 * (M - b0 + 1) // d)
            b0 += 1
            w -= l0
        yield M, w, (l0, l1), (h0, h1)


def find_M(N: int, M_cap: int):
    """Smallest M in [N^3, M_cap] with centered_sum_tail(N, M, 1/N) <= 1/N,
    or None when no such M exists under the cap.

    The tail condition is equivalent to W >= thr = (N-1)*N^(M-1), where W
    is the binomial window mass sum_{|N*b-M| <= M^(2/3)/N} C(M,b)*(N-1)^(M-b).
    The gate (_gate) rejects whole blocks of M at once, each by one exact
    bound at its first M (_block_end), and opens at the first M whose
    block is empty.  From there W and its edge terms are exact at an M
    (one _sums walk, the exact seed) and carried in 2^64 units to the next
    M by Pascal's rule,

        sum_{b=lo..hi} t_M(b) = N*sum_{b=lo..hi} t_{M-1}(b)
                                + t_{M-1}(lo-1) - t_{M-1}(hi),

    rounded so that the carried w never falls below 2^64*W/thr (_carry).
    w < 2^64 rejects an M; every other M, the answer included, is decided
    by a new exact seed there, from which the carry starts again.  The
    seed's ratio steps must divide exactly and raise ArithmeticError
    otherwise; so every answer, None included, is exact, also under
    ``python -O``.
    """
    if _int("N", N) < 2:
        raise ValueError("need N >= 2")
    if _int("M_cap", M_cap) < N ** 3:
        raise ValueError(f"cap {M_cap} is below N^3 = {N ** 3}")
    M = _gate(N, M_cap)
    while M is not None:
        u = icbrt(M * M // N ** 3)          # the window radius at M
        lo, hi = -(-(M - u) // N), (M + u) // N
        sums = _sums(N, M, {lo - 1, lo, hi, hi + 1})
        W = sums[hi + 1] - sums[lo]
        if W >= (N - 1) * N ** (M - 1):
            return M
        M = next((M for M, w, _, _ in _carry(N, M, M_cap, u, W, sums[lo],
                                             sums[hi + 1] - sums[hi])
                  if w >= _ONE), None)
    return None


@dataclass(frozen=True)
class CounterexampleReport(Report):
    N: int
    M: "int | None" = None
    found: bool = False
    cap: "int | None" = None
    admissible_tail: "Fraction | None" = None  # Pr(|sum Y| > M^(2/3)/N)
    p_centered: "Fraction | None" = None       # Pr(|S_M| > 1/2)
    centered_holds: "bool | None" = None
    p_extended: "Fraction | None" = None       # Pr(|S_M + X_{M+1}| > 3/N)
    extended_holds: "bool | None" = None
    refutation: "dict | None" = None

    @property
    def bound_centered(self) -> Fraction:
        """1 - 1/N, the least p_centered the construction needs."""
        return 1 - Fraction(1, self.N)

    @property
    def bound_extended(self) -> Fraction:
        """2/N, the largest p_extended the construction allows."""
        return Fraction(2, self.N)

    def to_jsonable(self) -> dict:
        """The fields, the law and the two bounds the construction needs."""
        law = {"Y": {str(self.N - 1): Fraction(1, self.N),
                     "-1": Fraction(self.N - 1, self.N)},
               "X": "Y + M^(-1/3)",
               "S_M": "M^(-2/3) * (X_1 + ... + X_M)"}
        return {**super().to_jsonable(), **jsonify({
            "law": law, "bound_centered": self.bound_centered,
            "bound_extended": self.bound_extended})}


def _inside(sign, N: int, M: int, t, B: int, C: int):
    """The window (lo, hi) of b where |q*u + B*M^(1/3) + C*M^(2/3)| <=
    p*M^(2/3), u = N*b - M, for t = p/q.  Both one-sided signs rise with
    u, so each edge is a bisection over b in [0, M]."""
    p, q = t.numerator, t.denominator
    bs = range(M + 1)
    lo = bisect_left(bs, True,
                     key=lambda b: sign(q * (N * b - M), B, C + p) >= 0)
    hi = bisect_left(bs, True,
                     key=lambda b: sign(q * (N * b - M), B, C - p) > 0)
    return lo, hi - 1


def _normalized(N: int, M: int, t):
    """The event |S_M| > t with S_M = 1 + u*M^(-2/3), as (per, windows)."""
    t = _threshold(t)
    # q*M^(2/3)*S_M = q*u + q*M^(2/3); the threshold scales the same way
    return 1, [(1, *_inside(_sign_rule(M), N, M, t, 0, t.denominator))]


def _extended(N: int, M: int, t):
    """The event |S_M + X_{M+1}| > t, X_{M+1} = Y_{M+1} + M^(-1/3), as
    (per, windows)."""
    t, sign = _threshold(t), _sign_rule(M)
    q = t.denominator
    # q*M^(2/3)*(S_M + X_{M+1}) = q*u + q*M^(1/3) + q*(1 + y)*M^(2/3):
    # y = N-1 in one draw out of N, y = -1 in the other N-1
    return N, [(1, *_inside(sign, N, M, t, q, q * N)),
               (N - 1, *_inside(sign, N, M, t, q, 0))]


def normalized_sum_tail(N: int, M: int, t) -> Fraction:
    """Exact Pr(|S_M| > t) with S_M = 1 + (N*B - M)*M^(-2/3)."""
    _law(N, M)
    return _tails(N, M, _normalized(N, M, t))[0]


def extended_sum_tail(N: int, M: int, t) -> Fraction:
    """Exact Pr(|S_M + X_{M+1}| > t) with X_{M+1} = Y_{M+1} + M^(-1/3)."""
    _law(N, M)
    return _tails(N, M, _extended(N, M, t))[0]


def refutes_constant(N: int, M: int, c, t) -> "tuple[bool, Fraction, Fraction]":
    """Does Pr(|S_M| > t) <= c * Pr(|S_M + X_{M+1}| > t/c) fail here?

    Failure at c propagates to every c' <= c because c * Pr(> t/c) is
    nondecreasing in c.
    """
    c, t = rat(c), rat(t)
    if c <= 0:
        raise ValueError("c must be positive")
    _law(N, M)
    lhs, rhs = _tails(N, M, _normalized(N, M, t), _extended(N, M, t / c))
    return lhs > c * rhs, lhs, rhs


def verify_counterexample(N: int, M: "int | None" = None,
                          cap: "int | None" = None) -> CounterexampleReport:
    """Exact verification of the weighted-sum failure instance.

    Checks Pr(|S_M| > 1/2) >= 1 - 1/N and Pr(|S_M + X_{M+1}| > 3/N) <= 2/N,
    then evaluates the contrast at c = N/3, t = 1/2: together these show no
    universal constant c <= N/3 can relate the two weighted partial sums.
    """
    if _int("N", N) < 2:
        raise ValueError("need N >= 2")
    if M is not None and cap is not None:
        raise ValueError("cap bounds the scan for M, so it cannot be "
                         "given together with M")
    used_cap = None
    if M is None:
        used_cap = max(N ** 3, 100_000) if cap is None else _int("cap", cap)
        M = find_M(N, used_cap)
        if M is None:
            return CounterexampleReport(N=N, cap=used_cap)
    _law(N, M)
    c_star, t = Fraction(N, 3), Fraction(1, 2)
    # one set of windows per tail; the refutation's lhs is
    # Pr(|S_M| > 1/2), the centered tail itself
    admissible, p_cent, rhs, p_ext = _tails(
        N, M, _centered(N, M, Fraction(1, N)), _normalized(N, M, t),
        _extended(N, M, t / c_star), _extended(N, M, Fraction(3, N)))
    return CounterexampleReport(
        N=N, M=M, found=True, cap=used_cap,
        admissible_tail=admissible,
        p_centered=p_cent,
        centered_holds=p_cent >= 1 - Fraction(1, N),
        p_extended=p_ext,
        extended_holds=p_ext <= Fraction(2, N),
        refutation={
            "c": c_star,
            "t": t,
            "lhs": p_cent,
            "rhs_prob": rhs,
            "rhs_total": c_star * rhs,
            "fails": p_cent > c_star * rhs,
            "covers": "all c <= N/3 by monotonicity of c * Pr(> t/c) in c",
            # the two headline bounds alone already force failure for
            # c <= min(N/6, (N-1)/2); the direct evaluation above extends
            # the range to N/3
            "bound_implied_c": min(Fraction(N, 6), Fraction(N - 1, 2)),
        })

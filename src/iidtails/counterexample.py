"""Exact weighted-sum counterexample computations.

The instance: Y takes value N-1 with probability 1/N and -1 otherwise, so
sum_{i<=M} Y_i = N*B - M with B ~ Binomial(M, 1/N).  The normalized sums
S_M = M^(-2/3) sum_{i<=M} (Y_i + M^(-1/3)) = 1 + (N*B - M) * M^(-2/3)
live in the field Q(M^(1/3)); every event probability below is an exact
rational because all order comparisons are decided by integer arithmetic.

One binomial law serves every tail: _sums sums C(M,b)*(N-1)^(M-b) over b
from math.comb at its lowest cut, by binary splitting of the exact ratio
steps from each cut to the next (a remainder raises ArithmeticError, also
under ``python -O``), and returns its prefix sums at the cuts asked for.
A tail is a rational over N^M or N^(M+1), reduced by gcds with powers of
N (_over_power), never by a gcd of two long ints.  An M whose N^M passes
_SEED_BITS bits is refused with a ValueError before its seed starts.
Every tail event is the complement of at most two windows of u = N*b - M,
so a report cuts one sum at all its windows' edges and takes each window's
mass as a difference of two prefix sums; each edge comes from one
bisection on the sign rule, which rises with u.
find_M needs big integers only where its gate opens.  The most mass that K
consecutive values of the binomial hold never rises with M, so a bound on
the K largest terms at a block's first M rejects every later M whose
window has at most K terms, from Robbins' closed-form bound on the modal
term.  find_M decides each M the gate (_gate) lets through by its exact
centered tail (_tails), as verify_counterexample decides its admissible
tail, so a scan and its report share one walk and one rule.
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
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, isqrt, lcm

from .dists import _int, _threshold, rat
from .reports import Report


def _ratio(num: int, den: int) -> int:
    """num / den for a binomial ratio step, which must divide exactly."""
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("binomial ratio step left a remainder")
    return q


_ONE = 1 << 64      # thr in the units of find_M's gate
# the most steps _split folds in one loop: at N = 3, M = 4437 its eleven
# segments take 292 us with one-step leaves in that loop, 132 us at 8,
# 112 us at 16 and 105 us at 32 (181 us by the one-step recursion)
_LEAF = 16
# the most bits N^M may hold where _tails sums exactly: a report
# (verify_counterexample with M, then render) took 56 s at N = 2 just past
# it (M = 2500000), and at 2000001 bits 37 s at N = 2, 12 s at N = 3 and
# 4.3 s at N = 10, on a 2-core VM under CPython 3.11
_SEED_BITS = 2_500_000


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


def _split(N: int, M: int, a: int, z: int) -> "tuple[int, int, int]":
    """(P, Q, S) over the ratio steps t(b+1)/t(b) = (M-b)/((b+1)*(N-1)) for
    a <= b < z, by binary splitting down to leaves of at most _LEAF steps,
    each folded in a loop: P/Q = t(z)/t(a) and S/Q = sum_{a<=b<z} t(b)/t(a).
    Every bracketing of the steps gives the same ints, as the merge
    (P0*P1, Q0*Q1, S0*Q1 + P0*S1) is exactly associative."""
    if z - a <= _LEAF:
        P, Q, S = 1, 1, 0
        for b in range(a, z):
            q = (b + 1) * (N - 1)
            P, Q, S = P * (M - b), Q * q, (S + P) * q
        return P, Q, S
    mid = (a + z) // 2
    (P0, Q0, S0), (P1, Q1, S1) = _split(N, M, a, mid), _split(N, M, mid, z)
    return P0 * P1, Q0 * Q1, S0 * Q1 + P0 * S1


def _sums(N: int, M: int, cuts: "set[int]") -> "dict[int, int]":
    """{c: sum of C(M,b)*(N-1)^(M-b) over min(cuts) <= b < c} for each cut
    c in 0..M+1: math.comb at the lowest cut, then from each cut to the
    next one binary-split (P, Q, S) and two exact divisions by Q."""
    first, *rest = sorted(cuts)
    sums, term = {first: 0}, comb(M, first) * (N - 1) ** (M - first)
    for a, z in zip((first, *rest), rest):
        P, Q, S = _split(N, M, a, z)
        sums[z] = sums[a] + _ratio(term * S, Q)
        if z < rest[-1]:
            term = _ratio(term * P, Q)
    return sums


def _tails(N: int, M: int, *events) -> "list[Fraction]":
    """For each event (per, windows), per 1 or N: the exact tail
    (per*N^M - sum of w * window mass over its windows) / (per*N^M).

    The windows (w, lo, hi) are the b whose u = N*b - M keeps the event's
    sum inside, w outcomes out of per each.  Every window edge, clipped to
    0..M, is a cut of one _sums walk, so the events share one math.comb
    and one term per b from the lowest edge to the highest, and a window's
    mass is the difference of the sums at its two cuts.  An M whose N^M
    passes _SEED_BITS bits is refused with a ValueError before any sum.
    """
    if M * (N.bit_length() - 1) > _SEED_BITS or \
            (total := N ** M).bit_length() > _SEED_BITS:
        raise ValueError(f"M = {M} is past the exact seed's reach: N^M "
                         f"would hold more than {_SEED_BITS} bits")
    spans = [[(w, max(lo, 0), min(hi, M) + 1) for w, lo, hi in windows]
             for _, windows in events]
    cuts = {c for windows in spans for _, a, z in windows if a < z
            for c in (a, z)}
    sums = _sums(N, M, cuts) if cuts else {}
    return [_over_power(per * total - sum(w * (sums[z] - sums[a])
                                          for w, a, z in windows if a < z),
                        N, M if per == 1 else M + 1)
            for (per, _), windows in zip(events, spans)]


def _over_power(num: int, N: int, e: int) -> Fraction:
    """num / N^e, reduced with no gcd of two long ints: the common factor
    is gcd(num, N^k) at the first k of 1, 2, 4, ... (never past e) where
    it stops growing, as min(v_p(num), k*v_p(N)) stays put from k on for
    every prime p of N once it does from k to 2k; N is never factored.
    When num is prime to N, as it mostly is, one gcd with N decides.  The
    Fraction takes no further gcd: its two slots are set as CPython 3.12's
    Fraction._from_coprime_ints sets them."""
    g, k = 1, 0
    while k < e:
        step = min(2 * k or 1, e)
        grown = gcd(num, N ** step)
        if grown == g:
            break
        g, k = grown, step
    q = object.__new__(Fraction)
    q._numerator, q._denominator = num // g, N ** e // g
    return q


def _centered(N: int, M: int, threshold):
    """The event |sum_{i<=M} Y_i| > M^(2/3) * threshold, as (per, windows):
    u = N*b - M stays inside where |q*u| <= p*M^(2/3), theta = p/q."""
    return 1, [(1, *_inside(_sign_rule(M), N, M, _threshold(threshold), 0, 0))]


def centered_sum_tail(N: int, M: int, threshold) -> Fraction:
    """Exact Pr(|sum_{i<=M} Y_i| > M^(2/3) * threshold)."""
    _law(N, M)
    return _tails(N, M, _centered(N, M, threshold))[0]


def _outward(N: int, M: int, t: int):
    """Upper bounds on the terms t_M(b), in units of thr/_ONE, from the mode
    m = floor((M+1)/N) outward, largest first: t bounds t_M(m), every ratio
    step rounds up, and the terms fall away from the mode on either side
    (down to 0 past its end), so a two-sided merge yields them in order."""
    lo = hi = (M + 1) // N
    left = -(-t * lo * (N - 1) // (M - lo + 1))       # at lo - 1
    right = -(-t * (M - hi) // ((hi + 1) * (N - 1)))  # at hi + 1
    yield t
    while left or right:
        if left >= right:
            yield left
            lo -= 1
            left = -(-left * lo * (N - 1) // (M - lo + 1))
        else:
            yield right
            hi += 1
            right = -(-right * (M - hi) // ((hi + 1) * (N - 1)))


def _block_end(N: int, M: int, t: int) -> int:
    """The last M' >= M that the top-K bound at M rejects, or less than M
    when it rejects not even M, for t >= _ONE*T/thr at the modal term T.

    K is the most of _outward's terms whose sum stays below _ONE, so the K
    largest pmf terms at M hold less than thr/N^M, and by the lemma
    (find_M) any K consecutive terms at M' >= M hold less than thr'/N^M'.
    A window of radius u has at most floor(2u/N) + 1 terms and u never
    falls as M grows, so every M' with M'^2 < (u+1)^3 * N^3 for the
    largest u with floor(2u/N) + 1 <= K is rejected.
    """
    total = 0
    for K, x in enumerate(_outward(N, M, t)):
        total += x
        if total >= _ONE:
            break
    u = (K * N - 1) // 2
    return isqrt((u + 1) ** 3 * N ** 3 - 1)


def _modal(N: int, M: int) -> int:
    """A bound t >= _ONE*T/thr on the modal term T at M >= N^3 in closed
    form: T/thr = N/(N-1)*P(B = m), m = floor((M+1)/N), and by Robbins'
    Stirling bounds (1955) P(B = m) <= e^(1/(12M))*sqrt(M/(2*pi*m*(M-m)));
    with e^(1/(12M)) <= 12M/(12M-1) and pi > 103993/33102, t is the ceil of
    the square root of the ceil of the bound's square, num/den."""
    m = (M + 1) // N
    num = (_ONE * N * 12 * M) ** 2 * M * 33102
    den = ((N - 1) * (12 * M - 1)) ** 2 * 2 * 103993 * m * (M - m)
    return isqrt((num - 1) // den) + 1     # ceil(sqrt(c)) = isqrt(c-1) + 1


def _gate(N: int, cap: int):
    """Each M in [N^3, cap] no block of the top-K gate rejects, in order,
    the blocks running from N^3 with no gap; a cap below N^3 is refused."""
    M = N ** 3
    if cap < M:
        raise ValueError(f"cap {cap} is below N^3 = {M}")
    while M <= cap:
        end = _block_end(N, M, _modal(N, M))
        if end < M:
            yield M
        M = max(end, M) + 1


def find_M(N: int, M_cap: int):
    """Smallest M in [N^3, M_cap] with centered_sum_tail(N, M, 1/N) <= 1/N,
    or None when no such M exists under the cap.

    The tail condition is equivalent to W >= thr = (N-1)*N^(M-1), where W
    is the binomial window mass sum_{|N*b-M| <= M^(2/3)/N} C(M,b)*(N-1)^(M-b).
    Lemma: the most mass F_M(K) that K consecutive values of
    B ~ Binomial(M, 1/N) hold never rises with M, since
    P(B_{M+1} in I) = P(B_M in I-1)/N + P(B_M in I)*(N-1)/N, and it is the
    sum of the K largest pmf terms, as the pmf is unimodal.  So the top-K
    gate (_gate) rejects a block of M by one ceil walk (_block_end) at its
    first M, in 2^64 units of thr from Robbins' bound there (_modal).  Each
    M it lets through gets its tail (_tails), one exact _sums seed over its
    window; the seed's steps must divide exactly and raise ArithmeticError
    otherwise, so every answer, None included, is exact, also under
    ``python -O``.  A gate-passed M past the seed's reach (_SEED_BITS)
    raises ValueError: no answer is guessed.
    """
    if _int("N", N) < 2:
        raise ValueError("need N >= 2")
    for M in _gate(N, _int("M_cap", M_cap)):
        (tail,) = _tails(N, M, _centered(N, M, Fraction(1, N)))
        if tail <= Fraction(1, N):
            return M
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
    # from N alone: the law, and the two bounds the construction needs
    law: dict = field(init=False)
    bound_centered: Fraction = field(init=False)  # least p_centered, 1 - 1/N
    bound_extended: Fraction = field(init=False)  # largest p_extended, 2/N

    def __post_init__(self):
        N = self.N
        for name, value in (
                ("law", {"Y": {str(N - 1): Fraction(1, N),
                               "-1": Fraction(N - 1, N)},
                         "X": "Y + M^(-1/3)",
                         "S_M": "M^(-2/3) * (X_1 + ... + X_M)"}),
                ("bound_centered", 1 - Fraction(1, N)),
                ("bound_extended", Fraction(2, N))):
            object.__setattr__(self, name, value)


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
    Without M, the report is the first at an M find_M's gate lets through
    (cap defaults to max(N^3, 100000)) whose admissible tail is at most
    1/N: that tail's window is find_M's seed, so both share one _sums walk.
    """
    if _int("N", N) < 2:
        raise ValueError("need N >= 2")
    if M is None:
        cap = max(N ** 3, 100_000) if cap is None else _int("cap", cap)
        candidates = _gate(N, cap)
    elif cap is not None:
        raise ValueError("cap bounds the scan for M, so it cannot be "
                         "given together with M")
    else:
        _law(N, M)
        candidates = (M,)
    c_star, t = Fraction(N, 3), Fraction(1, 2)
    for M in candidates:
        # one set of windows per tail; the refutation's lhs is
        # Pr(|S_M| > 1/2), the centered tail itself
        admissible, p_cent, rhs, p_ext = _tails(
            N, M, _centered(N, M, Fraction(1, N)), _normalized(N, M, t),
            _extended(N, M, t / c_star), _extended(N, M, Fraction(3, N)))
        if cap is None or admissible <= Fraction(1, N):
            return CounterexampleReport(
                N=N, M=M, found=True, cap=cap,
                admissible_tail=admissible,
                p_centered=p_cent,
                centered_holds=p_cent >= 1 - Fraction(1, N),
                p_extended=p_ext,
                extended_holds=p_ext <= Fraction(2, N),
                refutation={
                    "c": c_star, "t": t, "lhs": p_cent, "rhs_prob": rhs,
                    "rhs_total": c_star * rhs, "fails": p_cent > c_star * rhs,
                    "covers": "all c <= N/3 by monotonicity of "
                              "c * Pr(> t/c) in c",
                    # the two headline bounds alone already force failure
                    # for c <= min(N/6, (N-1)/2); the direct evaluation
                    # above extends the range to N/3
                    "bound_implied_c": min(Fraction(N, 6),
                                           Fraction(N - 1, 2)),
                })
    return CounterexampleReport(N=N, cap=cap)

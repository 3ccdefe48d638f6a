"""Exact weighted-sum counterexample computations.

The instance: Y takes value N-1 with probability 1/N and -1 otherwise, so
sum_{i<=M} Y_i = N*B - M with B ~ Binomial(M, 1/N).  The normalized sums
S_M = M^(-2/3) sum_{i<=M} (Y_i + M^(-1/3)) = 1 + (N*B - M) * M^(-2/3)
live in the field Q(M^(1/3)); every event probability below is an exact
rational because all order comparisons are decided by integer arithmetic.

One binomial law serves every tail: _pmf_numerators walks
C(M,b)*(N-1)^(M-b), b = 0..M, by exact ratio steps (a remainder raises
ArithmeticError, also under ``python -O``), and one loop sums it over the
b whose u = N*b - M lies in each tail's event; a tail states only its
event, and a report reads all its tails from one walk.  find_M walks the
same ratios outward from the binomial mode, ceil-rounded on small ints in
2^64 units to reject an M by an upper bound, and exactly where no bound
rejects it.
Thresholds, constants and sign-rule coefficients go through dists.rat, so
a float is refused as everywhere else.

Sign rule used throughout: for rational a, b, c and M not a perfect cube,

    sign(a + b*M^(1/3) + c*M^(2/3)) = sign(A^3 + B^3*M + C^3*M^2 - 3*A*B*C*M)

after clearing denominators to integers (A, B, C).  The right side is the
field norm of the left, and the two complex conjugate factors have positive
product, so the signs agree; for perfect cubes M^(1/3) is an integer and the
expression is evaluated directly.  A tail takes M's cube root and clears its
threshold's denominator once, so the rule runs on ints for every term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .dists import rat
from .reports import jsonify


def _ratio(num: int, den: int) -> int:
    """num / den for a binomial ratio step, which must divide exactly."""
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("binomial ratio step left a remainder")
    return q


_ONE = 1 << 64      # the unit of find_M's rounded bounds


def _ceil_ratio(num: int, den: int) -> int:
    """ceil(num / den): a ratio step of find_M's upper bounds."""
    return -(-num // den)


def icbrt(n: int) -> int:
    """Floor integer cube root of n >= 0 (Newton, exact)."""
    if n < 0:
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
    if M < 1:
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


def _abs_gt(sign, a: int, b: int, c: int, p: int) -> bool:
    """|a + b*M^(1/3) + c*M^(2/3)| > p*M^(2/3) for p >= 0, where sign is
    the sign rule of M."""
    return sign(a, b, c - p) > 0 or sign(a, b, c + p) < 0


def _pmf_numerators(N: int, M: int):
    """C(M,b)*(N-1)^(M-b) for b = 0..M in turn (denominator N^M)."""
    term = (N - 1) ** M          # b = 0
    yield term
    for b in range(M):
        term = _ratio(term * (M - b), (b + 1) * (N - 1))
        yield term


def _tails(N: int, M: int, *events) -> "list[Fraction]":
    """For each event (weight, per): the sum over b of
    Pr(B = b) * weight(N*b - M) / per, B ~ Binomial(M, 1/N), all from one
    walk of the pmf numerators.

    weight(u) counts, as an int or bool, the outcomes out of per that put
    the event's sum in the tail when sum_{i<=M} Y_i = u.
    """
    if N < 2 or M < 1:
        raise ValueError("need N >= 2 and M >= 1")
    weights = [weight for weight, _ in events]
    totals = [0] * len(events)
    for b, num in enumerate(_pmf_numerators(N, M)):
        u = N * b - M
        for i, weight in enumerate(weights):
            w = weight(u)
            if w:
                totals[i] += w * num
    den = N ** M
    return [Fraction(total, den * per)
            for total, (_, per) in zip(totals, events)]


def _tail(N: int, M: int, weight, per: int = 1) -> Fraction:
    """_tails for the one event (weight, per)."""
    return _tails(N, M, (weight, per))[0]


def _threshold(t) -> Fraction:
    t = rat(t)
    if t < 0:
        raise ValueError("threshold must be >= 0")
    return t


def _centered(M: int, threshold):
    """The event |sum_{i<=M} Y_i| > M^(2/3) * threshold, as (weight, per).

    Uses |N*b - M| > M^(2/3)*theta  <=>  |N*b - M|^3 * q^3 > M^2 * p^3 for
    theta = p/q, so the cube comparison never leaves the integers.
    """
    theta = _threshold(threshold)
    q3 = theta.denominator ** 3
    bound = M * M * theta.numerator ** 3
    return (lambda u: abs(u) ** 3 * q3 > bound), 1


def centered_sum_tail(N: int, M: int, threshold) -> Fraction:
    """Exact Pr(|sum_{i<=M} Y_i| > M^(2/3) * threshold)."""
    return _tail(N, M, *_centered(M, threshold))


def find_M(N: int, M_cap: int):
    """Smallest M in [N^3, M_cap] with centered_sum_tail(N, M, 1/N) <= 1/N,
    or None when no such M exists under the cap.

    The tail condition is equivalent to W >= thr = (N-1)*N^(M-1), where W
    is the binomial window mass sum_{|N*b-M| <= M^(2/3)/N} C(M,b)*(N-1)^(M-b).
    Each M is first tried against two one-sided integer bounds in 2^64
    units, each kept by ceil-rounded ratio steps on small ints:

    - R >= 2^64*T/thr for the modal term T, advanced from M-1 to M (and
      from mode m to m+1) by one ratio step each; every window term is
      <= T, so window_count * R < 2^64 rejects M;
    - S >= 2^64*W/T, the window walked outward from the mode; R*S < 2^128
      rejects M.

    Every bound rounds up, so rounding can only send an M on to the exact
    decision, never change the answer.  An M neither bound rejects is
    decided by the exact window sum from T = C(M,m)*(N-1)^(M-m), whose
    ratio steps must divide exactly and raise ArithmeticError otherwise;
    so None is an exact answer, also under ``python -O``.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    N3 = N ** 3
    if M_cap < N3:
        raise ValueError(f"cap {M_cap} is below N^3 = {N3}")
    m = (N3 + 1) // N                       # binomial mode floor((M+1)/N)
    R = _ceil_ratio(comb(N3, m) * (N - 1) ** (N3 - m) * _ONE,
                    (N - 1) * N ** (N3 - 1))
    u = N                                   # largest u with u^3*N^3 <= M^2
    for M in range(N3, M_cap + 1):
        if M > N3:
            # the modal term from M-1 to M at the old mode, over thr*N
            R = _ceil_ratio(R * (N - 1) * M, (M - m) * N)
            if (M + 1) // N != m:
                # the mode moves m -> m+1
                R = _ceil_ratio(R * (M - m), (m + 1) * (N - 1))
                m += 1
            while (u + 1) ** 3 * N3 <= M * M:
                u += 1
        lo = -(-(M - u) // N)               # ceil
        hi = (M + u) // N
        if hi < lo:
            continue                        # empty window, tail is 1
        if (hi - lo + 1) * R < _ONE:
            continue                        # window mass provably < thr
        if not _window_reaches(N, M, lo, hi, m, _ONE,
                               _ceil_ratio(_ONE * _ONE, R), _ceil_ratio):
            continue                        # R*S < 2^128
        if _window_reaches(N, M, lo, hi, m, comb(M, m) * (N - 1) ** (M - m),
                           (N - 1) * N ** (M - 1), _ratio):
            return M
    return None


def _window_reaches(N: int, M: int, lo: int, hi: int, m: int, first: int,
                    target: int, step) -> bool:
    """Does sum_{b=lo..hi} term_b reach target?  term_m = first, and the
    walk goes outward from b = m by the binomial pmf ratios, each taken by
    step(num, den): _ratio for the exact sum, _ceil_ratio for a bound."""
    total = first if lo <= m <= hi else 0
    if total >= target:
        return True
    term = first
    b = m
    while b < hi:                            # walk right
        term = step(term * (M - b), (b + 1) * (N - 1))
        b += 1
        if b >= lo:
            total += term
            if total >= target:
                return True
    term = first
    b = m
    while b > lo:                            # walk left
        term = step(term * b * (N - 1), M - b + 1)
        b -= 1
        if b <= hi:
            total += term
            if total >= target:
                return True
    return False


@dataclass(frozen=True)
class CounterexampleReport:
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
        law = {"Y": {str(self.N - 1): Fraction(1, self.N),
                     "-1": Fraction(self.N - 1, self.N)},
               "X": "Y + M^(-1/3)",
               "S_M": "M^(-2/3) * (X_1 + ... + X_M)"}
        return jsonify({
            "N": self.N, "M": self.M, "found": self.found, "cap": self.cap,
            "law": law,
            "admissible_tail": self.admissible_tail,
            "p_centered": self.p_centered,
            "bound_centered": self.bound_centered,
            "centered_holds": self.centered_holds,
            "p_extended": self.p_extended,
            "bound_extended": self.bound_extended,
            "extended_holds": self.extended_holds,
            "refutation": self.refutation,
        })


def _normalized(M: int, t):
    """The event |S_M| > t with S_M = 1 + u*M^(-2/3), as (weight, per)."""
    t, sign = _threshold(t), _sign_rule(M)
    p, q = t.numerator, t.denominator
    # q*M^(2/3)*S_M = q*u + q*M^(2/3); the threshold scales the same way
    return (lambda u: _abs_gt(sign, q * u, 0, q, p)), 1


def _extended(N: int, M: int, t):
    """The event |S_M + X_{M+1}| > t, X_{M+1} = Y_{M+1} + M^(-1/3), as
    (weight, per)."""
    t, sign = _threshold(t), _sign_rule(M)
    p, q = t.numerator, t.denominator
    # q*M^(2/3)*(S_M + X_{M+1}) = q*u + q*M^(1/3) + q*(1 + y)*M^(2/3):
    # y = N-1 in one draw out of N, y = -1 in the other N-1
    return (lambda u: _abs_gt(sign, q * u, q, q * N, p)
            + (N - 1) * _abs_gt(sign, q * u, q, 0, p)), N


def normalized_sum_tail(N: int, M: int, t) -> Fraction:
    """Exact Pr(|S_M| > t) with S_M = 1 + (N*B - M)*M^(-2/3)."""
    return _tail(N, M, *_normalized(M, t))


def extended_sum_tail(N: int, M: int, t) -> Fraction:
    """Exact Pr(|S_M + X_{M+1}| > t) with X_{M+1} = Y_{M+1} + M^(-1/3)."""
    return _tail(N, M, *_extended(N, M, t))


def refutes_constant(N: int, M: int, c, t) -> "tuple[bool, Fraction, Fraction]":
    """Does Pr(|S_M| > t) <= c * Pr(|S_M + X_{M+1}| > t/c) fail here?

    Failure at c propagates to every c' <= c because c * Pr(> t/c) is
    nondecreasing in c.
    """
    c, t = rat(c), rat(t)
    if c <= 0:
        raise ValueError("c must be positive")
    lhs, rhs = _tails(N, M, _normalized(M, t), _extended(N, M, t / c))
    return lhs > c * rhs, lhs, rhs


def verify_counterexample(N: int, M: "int | None" = None,
                          cap: "int | None" = None) -> CounterexampleReport:
    """Exact verification of the weighted-sum failure instance.

    Checks Pr(|S_M| > 1/2) >= 1 - 1/N and Pr(|S_M + X_{M+1}| > 3/N) <= 2/N,
    then evaluates the contrast at c = N/3, t = 1/2: together these show no
    universal constant c <= N/3 can relate the two weighted partial sums.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    if M is not None and cap is not None:
        raise ValueError("cap bounds the scan for M, so it cannot be "
                         "given together with M")
    used_cap = None
    if M is None:
        used_cap = cap if cap is not None else max(N ** 3, 100_000)
        M = find_M(N, used_cap)
        if M is None:
            return CounterexampleReport(N=N, cap=used_cap)
    c_star, t = Fraction(N, 3), Fraction(1, 2)
    # one walk for all four tails; the refutation's lhs is
    # Pr(|S_M| > 1/2), the centered tail itself
    admissible, p_cent, rhs, p_ext = _tails(
        N, M, _centered(M, Fraction(1, N)), _normalized(M, t),
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

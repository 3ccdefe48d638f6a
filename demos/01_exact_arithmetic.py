#!/usr/bin/env python3
"""Tour of the exact distribution engine.

Everything here is computed in rational arithmetic: laws are finite maps
from points to Fraction masses, sums of i.i.d. copies are exact
convolutions, and every tail probability comes out as a Fraction, not a
float.  Run it and read the output top to bottom.
"""

from fractions import Fraction as F

from iidtails import (
    DiscreteDist,
    Norm,
    STRICT,
    WEAK,
    delta,
    first_exceedance_probs,
    iid_sum,
    path_max_tail,
    tail,
    tail_curve,
    weighted_iid_sum,
)


def section(title):
    print()
    print(title)
    print("-" * len(title))


section("A law is a finite map point -> mass")
X = DiscreteDist({-1: F(1, 2), 1: F(1, 2)})
print(f"fair +-1 coin: {X}")
print(f"mass at 1: {X.p(1)}, mass at 7: {X.p(7)}")

# Strings and integers are accepted anywhere a rational is expected, but
# floats are rejected on purpose: 0.1 is not 1/10.
Y = DiscreteDist({"-1/3": "2/3", "2/3": "1/3"})
print(f"a mean-zero three-point-lattice law: {Y}")
try:
    DiscreteDist({0.5: 0.5, -0.5: 0.5})
except TypeError as e:
    print(f"floats are refused: {e}")

section("Sums of independent copies are exact convolutions")
S4 = iid_sum(X, 4)
print("S_4 for the coin (binomial, recentered):")
for x, p in S4.scalar_items():
    print(f"  P(S_4 = {x}) = {p}")
print(f"total mass: {sum(p for _, p in S4.scalar_items())}")

section("Tails, strictly or weakly")
t = F(2)
print(f"P(|S_4| >  {t}) = {tail(S4, Norm.ABS1D, t, STRICT)}")
print(f"P(|S_4| >= {t}) = {tail(S4, Norm.ABS1D, t, WEAK)}")

section("The whole tail function at once")
curve = tail_curve(S4, Norm.ABS1D)
print("P(|S_4| > t) is a step function; its jump points and values:")
for q in curve.criticals:
    print(f"  just below {q}: {curve.at_gauge(q, WEAK)},"
          f"  at and above: {curve.at_gauge(q, STRICT)}")

section("Weighted sums")
W = weighted_iid_sum(X, [F(1), F(1, 2), F(1, 4)])
print(f"X_1 + X_2/2 + X_3/4 has {len(W)} atoms:")
for x, p in W.scalar_items():
    print(f"  P(W = {x}) = {p}")

section("Running maxima without enumerating paths")
# P(max_{i<=k} |S_i| > t) via one dynamic programming pass over (prefix
# sum, running max) states; the number of reachable states stays small even
# though there are 2^k paths.
k = 12
t = F(3)
pm = path_max_tail(X, k, Norm.ABS1D, t)
print(f"P(max over i <= {k} of |S_i| > {t}) = {pm} ~ {float(pm):.6f}")

section("Where the maximum is first exceeded")
probs = first_exceedance_probs(X, 6, Norm.ABS1D, F(2))
total = F(0)
for i, p in enumerate(probs, start=1):
    total += p
    if p:
        print(f"  first index with |S_i| > 2 is {i}: probability {p}")
print(f"sum of first-exceedance terms: {total}")
print(f"path-max tail at the same threshold: "
      f"{path_max_tail(X, 6, Norm.ABS1D, F(2))}")
print("the two quantities above are equal: each term is a difference of "
      "path-max tails\nat consecutive horizons, so the sum telescopes by "
      "construction; the test suite\nchecks the terms against an "
      "independent absorbing DP")

section("Multidimensional laws use the squared euclidean gauge")
Z = DiscreteDist({(1, 0): F(1, 4), (-1, 0): F(1, 4),
                  (0, 1): F(1, 4), (0, -1): F(1, 4)})
S2 = iid_sum(Z, 2)
print(f"two steps of a lattice walk in the plane: {len(S2)} atoms")
print(f"P(||S_2|| > 1) = {tail(S2, Norm.EUCLIDEAN, 1)}"
      f"  (||.||^2 > 1 decided in rationals, no square roots)")

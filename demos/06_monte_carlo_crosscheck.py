#!/usr/bin/env python3
"""Monte Carlo as a cross-check, kept apart from the exact engine.

Laws with infinite support (gaussian, pareto) are outside the exact
rational machinery, so tails are estimated by sampling with exact
Clopper-Pearson confidence intervals around the counts.  The claim
checker is deliberately conservative: it reports a violation only when
the interval for the left side lies strictly above the scaled interval
for the right side, so sampling noise cannot manufacture one.
"""

from fractions import Fraction as F

from iidtails import (
    DiscreteDist,
    Norm,
    SamplerSpec,
    clopper_pearson,
    estimate_tail,
    iid_sum,
    mc_check,
    tail,
)


def section(title):
    print()
    print(title)
    print("-" * len(title))


section("Exact confidence intervals for a sampled proportion")
for count, n in ((0, 100), (7, 100), (100, 100)):
    lo, hi = clopper_pearson(count, n, delta=0.05)
    print(f"  {count:>3}/{n} hits: 95% interval [{lo:.4f}, {hi:.4f}]")

section("Estimating a tail the exact engine also knows")
coin_spec = SamplerSpec("discrete", {"atoms": [{"x": -1, "p": "1/2"},
                                               {"x": 1, "p": "1/2"}]})
est = estimate_tail(coin_spec, k=4, t=2, n_samples=200_000, seed=5,
                    delta=0.05)
exact = tail(iid_sum(DiscreteDist({-1: F(1, 2), 1: F(1, 2)}), 4),
             Norm.ABS1D, 2)
print(f"P(|S_4| > 2) for the coin:")
print(f"  sampled:  {est.estimate:.5f} in [{est.lo:.5f}, {est.hi:.5f}]"
      f"  ({est.n_samples} draws)")
print(f"  exact:    {exact} = {float(exact):.5f}")
print(f"  interval brackets the exact value:"
      f" {est.lo <= float(exact) <= est.hi}")

section("Laws the exact engine cannot touch")
gauss = SamplerSpec("gaussian", {"sigma": 1.0})
est = estimate_tail(gauss, k=3, t=2.5, n_samples=100_000, seed=5,
                    delta=0.05)
print(f"gaussian, P(|S_3| > 2.5) ~ {est.estimate:.4f}"
      f" in [{est.lo:.4f}, {est.hi:.4f}]")
pareto = SamplerSpec("shifted_pareto", {"alpha": 2.5})
est = estimate_tail(pareto, k=3, t=10, n_samples=100_000, seed=5,
                    delta=0.05)
print(f"centered pareto(2.5), P(|S_3| > 10) ~ {est.estimate:.4f}"
      f" in [{est.lo:.4f}, {est.hi:.4f}]")

section("Sampling the comparison itself")
verdict = mc_check("theorem1", gauss, j=1, k=2,
                   t_grid=[0.5, 1.0, 2.0, 4.0], n_samples=50_000, seed=5)
print("gaussian, constants (3, 10), thresholds 0.5/1/2/4:")
for row in verdict.rows:
    print(f"  t = {row['t']}: lhs <= {row['lhs'].hi:.4f},"
          f" factor*rhs >= {row['factor'] * row['rhs'].lo:.4f}"
          f"  -> {row['verdict']}")
print(f"overall status: {verdict.status}")

section("A deliberately false claim does get flagged")
# The coin violates constants (1, 1) at t = 1/2 exactly (lhs 1, rhs 1/2);
# the sampler sees the separation too.
verdict = mc_check("theorem1", coin_spec, j=1, k=2, t_grid=[0.5],
                   n_samples=50_000, seed=5, c1=1, c2=1)
row = verdict.rows[0]
print(f"coin, constants (1, 1) at t = 1/2: lhs interval"
      f" [{row['lhs'].lo:.4f}, {row['lhs'].hi:.4f}] vs"
      f" rhs interval [{row['rhs'].lo:.4f}, {row['rhs'].hi:.4f}]")
print(f"  verdict: {row['verdict']}  (the whole lhs interval sits above"
      f" the rhs interval, so noise cannot explain it)")

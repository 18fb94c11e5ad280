#!/usr/bin/env python3
"""Empirical check of the closeness and convergence guarantees.

Runs a small quadratic federation in the guaranteed regime (tied lagged
gradients, beta1 = alpha, beta2 in [alpha/2, alpha]) and verifies, round by
round, that every dispatched model stays inside its neighborhood envelope.
Then it repeats the run over several seeds and compares the averaged
optimality gap against the closed-form decay bound.
"""

from sbpu.config import FederationConfig
from sbpu.convergence import (ConvergenceConfig, final_decade_slope,
                              run_convergence_experiment)
from sbpu.federation import iter_rounds

ALPHA = 0.1
cfg = FederationConfig.from_dict({
    "objective": {"kind": "quadratic_random", "dim": 8,
                  "eig_range": [1.0, 2.0], "center_spread": 0.3,
                  "radius": 4.0, "sigma": 0.3, "layout": [[8, 1]]},
    "K": 4, "E": 2, "rounds": 200, "alpha": ALPHA,
    "beta1": ALPHA, "beta2": 0.75 * ALPHA,
    "tie_gradients": True, "seed": 13,
})

# --- per-round neighborhood check -----------------------------------------
plan = cfg.build_plan()
violations = 0
print("round  global_loss   worst dist^2 / upper-envelope ratio")
for _, rec in iter_rounds(plan):
    r = rec.round
    violations += sum(not b.holds for b in rec.bound_reports)
    if r % 40 == 0 or r == plan.rounds - 1:
        worst = max((b.dist_sq / b.upper if b.upper > 0 else 0.0)
                    for b in rec.bound_reports)
        print(f"{r:5d}  {rec.global_loss:11.6f}   {worst:.3f}")
print(f"neighborhood-envelope violations over {plan.rounds} rounds "
      f"x {len(plan.clients)} clients: {violations}")
print()

# --- averaged gap vs. the closed-form bound -------------------------------
report = run_convergence_experiment(
    ConvergenceConfig(plan=cfg.build_plan(), alpha=ALPHA, n_seeds=8))
print("T      mean gap      bound        gap/bound")
for t, gap, bound in report.series[:: len(report.series) // 8]:
    print(f"{t:5d}  {gap:.6e}  {bound:.6e}  {gap / bound:.4f}")
bad = sum(1 for _, g, b in report.series if g > b)
print(f"recorded points with gap above bound: {bad} of {len(report.series)}")
print(f"final-decade log-log slope of the gap: "
      f"{final_decade_slope(report.series):.2f}  (1/T decay is -1.0)")

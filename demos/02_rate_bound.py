# Validity and tightness of the closed-form rate lower bound.
#
# For a single shared band, evaluates the deterministic SINR lower bound
# and a Monte Carlo estimate of the true ergodic rate at several Rician
# factors.  The bound always sits below the simulated rate and the gap
# closes as the channel hardens (large Kbar).

import numpy as np

from dmimo.config import SystemConfig
from dmimo.rate import (
    RateContext,
    equal_split_allocation,
    monte_carlo_users,
    sum_rate,
)
from dmimo.scenario import build_scenario

cfg = SystemConfig(max_power=10.0, pilot_power=10.0)
base = build_scenario(cfg, np.random.default_rng(12))
K = base.num_users
trials = 2000

print(f"{'Kbar':>6} {'bound':>14} {'Monte Carlo':>14} {'rel gap':>9}")
for kbar in (1.0, 5.0, 10.0, 20.0, 50.0, 100.0):
    sc = base.with_rician(kbar)
    ctx = RateContext(sc)
    alloc = equal_split_allocation(sc, groups=[list(range(K))])
    lb = sum_rate(sc, alloc, ctx)
    rng = np.random.default_rng(99)
    mc = monte_carlo_users(sc, alloc, trials, rng, ctx).sum_rate
    print(f"{kbar:>6g} {lb:>14.1f} {mc:>14.1f} {(mc - lb) / mc:>9.4f}")

print()
print("The bound saturates once the line-of-sight part dominates: past")
print("Kbar ~ 20 extra Rician gain changes the sum rate by < 1%.")

"""Output checks for benchmark items, in plain code.

Each check returns a list of problems, empty when the output is correct.
A problem marks the item as failed; it never stops the run.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from dmimo import rate

REL_TOL = 1e-9


def _close(a, b, rel=REL_TOL):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_allocation(scenario, alloc):
    """Partition, capacity, bandwidth simplex, power caps and unit-norm
    weights on each serving set (zero off it)."""
    cfg = scenario.config
    K, M = scenario.num_users, scenario.num_satellites
    problems = []
    users = [k for g in alloc.groups for k in g]
    if sorted(users) != list(range(K)):
        problems.append(f"groups {alloc.groups} do not partition {K} users")
    for g in alloc.groups:
        if len(g) > cfg.subband_capacity:
            problems.append(f"group {g} exceeds capacity "
                            f"{cfg.subband_capacity}")
    if len(alloc.bandwidths) != len(alloc.groups):
        problems.append("one bandwidth per group expected")
    bw = [float(b) for b in alloc.bandwidths]
    if min(bw, default=0.0) < 0 or not _close(sum(bw), cfg.total_bandwidth):
        problems.append(f"bandwidths {bw} are off the simplex of "
                        f"{cfg.total_bandwidth}")
    p = np.asarray(alloc.powers, dtype=float)
    if p.shape != (K,) or np.any(p < 0) or np.any(p > cfg.max_power):
        problems.append(f"powers {p.tolist()} outside [0, {cfg.max_power}]")
    w = np.asarray(alloc.weights, dtype=float)
    if w.shape != (M, K):
        problems.append(f"weights have shape {w.shape}, expected {(M, K)}")
        return problems
    for k in range(K):
        serving = sorted(scenario.serving_sets[k])
        norm = math.sqrt(sum(w[m, k] ** 2 for m in serving))
        if not _close(norm, 1.0):
            problems.append(f"user {k} weight norm {norm!r} is not 1")
        off = [m for m in range(M) if m not in serving and w[m, k] != 0.0]
        if off:
            problems.append(f"user {k} has weight off its serving set "
                            f"on satellites {off}")
    return problems


def check_rate_floor(scenario, alloc, context):
    """Every scheduled user's closed-form rate meets the requirement."""
    req = scenario.config.rate_requirement
    problems = []
    for g in alloc.groups:
        for k in g:
            r = rate.sinr_lower_bound(scenario, alloc, k, context).rate_lb
            if r < req * (1.0 - REL_TOL):
                problems.append(f"user {k} rate {r!r} below floor {req!r}")
    return problems


def check_sum_rate(scenario, alloc, reported, context):
    """The reported sum rate matches a recomputation."""
    fresh = rate.sum_rate(scenario, alloc, context)
    if not _close(fresh, reported):
        return [f"sum rate {reported!r} != recomputed {fresh!r}"]
    return []


def check_ao_item(scenario, ao, arms):
    """Check the alternating-optimization result and the benchmark arms of
    one item against a freshly built RateContext."""
    context = rate.RateContext(scenario)
    problems = check_allocation(scenario, ao.allocation)
    problems += check_sum_rate(scenario, ao.allocation, ao.sum_rate, context)
    if scenario.config.rate_requirement > 0:
        problems += check_rate_floor(scenario, ao.allocation, context)
    for arm, (alloc, reported) in arms.items():
        problems += [f"{arm}: {p}" for p in
                     check_allocation(scenario, alloc)
                     + check_sum_rate(scenario, alloc, reported, context)]
    return problems


BOUND_COLUMNS = ("rician_factor", "rate_lb", "rate_mc", "rate_mc_se",
                 "rate_bound_mc")


def read_bound_csv(path):
    """Rows of a bound-validate CSV as {column: float} for the numeric
    columns, looked up by name."""
    with open(path, encoding="utf-8", newline="") as f:
        return [{c: float(row[c]) for c in BOUND_COLUMNS}
                for row in csv.DictReader(f)]


def check_bound_rows(rows):
    """Values are finite and the closed-form bound does not exceed the
    Monte Carlo ergodic rate by more than three standard errors."""
    if not rows:
        return ["no rows"]
    problems = []
    for row in rows:
        bad = [c for c, v in row.items() if not math.isfinite(v)]
        if bad:
            problems.append(f"non-finite {bad} at K={row['rician_factor']}")
        elif row["rate_lb"] > row["rate_mc"] + 3.0 * row["rate_mc_se"]:
            problems.append(
                f"rate_lb {row['rate_lb']!r} exceeds rate_mc "
                f"{row['rate_mc']!r} + 3 se at K={row['rician_factor']}")
    return problems

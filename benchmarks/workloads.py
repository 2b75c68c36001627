"""The benchmark's workloads: what one item is, and how its output is
checked.

Item i of a run with seed s solves the instance seeded by s + i, so the
item set is a pure function of the seed. Each workload runs its items
in one closed loop: the next item starts when the previous one returns.
"""

from __future__ import annotations

import statistics

import numpy as np

from dmimo import harness, optimizer, scenario
from dmimo.config import SystemConfig

import checks


class AoWorkload:
    """The per-seed body of the ``benchmark`` experiment: build a
    scenario, run the alternating optimization, then both fixed-weight
    benchmark arms on the same estimation stream. Each call builds its own
    RateContext, as the command line does."""

    ARMS = ("equal", "estimate")

    def __init__(self, name, why, config, items_per_second, repeats):
        self.name, self.why = name, why
        self.config = config
        self.items_per_second, self.repeats = items_per_second, repeats

    def describe(self):
        cfg = self.config
        return {"num_users": cfg.num_users, "num_antennas": cfg.num_antennas,
                "num_satellites": cfg.num_satellites,
                "rate_requirement": cfg.rate_requirement}

    def run(self, seed):
        scenario_ss, estimation_ss = np.random.SeedSequence(seed).spawn(2)
        sc = scenario.build_scenario(self.config,
                                     np.random.default_rng(scenario_ss))
        ao = optimizer.alternating_optimize(
            sc, np.random.default_rng(estimation_ss))
        arms = {arm: optimizer.benchmark_allocation(
                    sc, np.random.default_rng(estimation_ss), arm)
                for arm in self.ARMS}
        return sc, ao, arms

    def evaluate(self, output):
        """(sum rate in bit/s, problems) of one item's output."""
        sc, ao, arms = output
        return ao.sum_rate, checks.check_ao_item(sc, ao, arms)


class BoundWorkload:
    """One ``bound-validate`` experiment through ``harness.run_experiment``:
    closed-form bound against the Monte Carlo ergodic rate, written as
    CSV, gnuplot script and manifest."""

    def __init__(self, name, why, config, out_dir, trials, rician,
                 items_per_second, repeats):
        self.name, self.why = name, why
        self.config = config
        self.out_dir = out_dir
        self.trials, self.rician = trials, rician
        self.items_per_second, self.repeats = items_per_second, repeats

    def describe(self):
        cfg = self.config
        shape = (self.trials, cfg.num_satellites, cfg.num_users,
                 cfg.num_antennas)
        return {"num_users": cfg.num_users, "num_antennas": cfg.num_antennas,
                "num_satellites": cfg.num_satellites, "trials": self.trials,
                "rician_grid": list(self.rician),
                "channel_batch_shape": list(shape),
                "channel_batch_bytes_computed":
                    int(np.prod(shape)) * np.dtype(complex).itemsize}

    def run(self, seed):
        spec = harness.ExperimentSpec(
            "bound-validate", config=self.config, seed=seed,
            trials=self.trials, out_dir=self.out_dir,
            extras={"rician_grid": self.rician})
        return harness.run_experiment(spec)

    def evaluate(self, csv_path):
        rows = checks.read_bound_csv(csv_path)
        problems = checks.check_bound_rows(rows)
        rates = [r["rate_lb"] for r in rows]
        return (statistics.fmean(rates) if rates else float("nan")), problems


def _benchmark_config(base, num_users, rate_requirement=0.0):
    """The ``benchmark`` experiment's system at K users (fixed here, so a
    refactor of the harness does not change the benchmark's inputs)."""
    return base.replace(
        num_users=num_users,
        num_satellites=max(base.num_satellites, 4),
        cluster_size=3,
        num_subbands=4,
        subband_capacity=max(-(-num_users // 4), 3),
        pilot_length=num_users - 2,
        max_power=0.2,
        rate_requirement=rate_requirement,
    )


NAMES = ("ao-small", "ao-paper-floor", "mc-bound")

WHY = {
    "ao-small": "scheduler and scalar SINR bound dominate at N=16, K=8; "
                "no Monte Carlo work",
    "ao-paper-floor": "N=100, K=16 with a 5e4 bit/s floor: RateContext, "
                      "estimation statistics and the floor paths dominate",
    "mc-bound": "Monte Carlo path: channel sampling and MMSE estimation "
                "at T=2000, plus the harness's file writes",
}


def make(name, root, out_dir):
    """Build a workload's inputs from the checkout at ``root``."""
    base = SystemConfig.from_json(root / "configs" / "default.json")
    if name == "ao-small":
        return AoWorkload(name, WHY[name], _benchmark_config(base, 8),
                          items_per_second=0.8, repeats=4)
    if name == "ao-paper-floor":
        cfg = _benchmark_config(base, 16, rate_requirement=5e4)
        return AoWorkload(name, WHY[name],
                          cfg.replace(antennas_x=10, antennas_y=10),
                          items_per_second=0.4, repeats=1)
    if name == "mc-bound":
        return BoundWorkload(name, WHY[name], base, out_dir, trials=2000,
                             rician=(10.0,), items_per_second=0.8, repeats=1)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")

"""Experiment runner: seeded sweeps, CSV persistence, gnuplot script
emission, and the command-line entry point.

Every experiment is a pure function of (config, seed): re-running with the
same inputs produces byte-identical CSV. A CSV holds results only; the
build tag, versions and wall-clock times go to ``run-manifest.json``.
"""

from __future__ import annotations

import argparse
import csv
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .config import SystemConfig
from .estimation import estimate_batch, mse, nmse
from .channel import sample_channel_batch
from .optimizer import (
    InfeasibleError,
    alternating_optimize,
    benchmark_allocation,
    scheduling_estimates,
)
from .rate import (
    MIN_TRIALS,
    band_rate,
    equal_split_allocation,
    equal_weights,
    mean_se,
    monte_carlo_users,
    sum_rate,
    trial_blocks,
)
from .scenario import build_scenario
from .scheduler import exhaustive_schedule, schedule_users

RICIAN_GRID = (1.0, 5.0, 10.0, 20.0, 50.0, 100.0)
NMSE_GRID = (1.0, 5.0, 10.0, 20.0, 50.0, 100.0, 1e3, 1e4)


@dataclass
class ExperimentSpec:
    name: str
    config: SystemConfig
    seed: int
    trials: int
    out_dir: Path
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.name!r}")
        floor = EXPERIMENTS[self.name].min_trials
        if self.trials < floor:
            raise ValueError(f"{self.name} needs trials >= {floor}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, not {self.seed}")
        self.out_dir = Path(self.out_dir)


@cache
def build_identifier():
    """git-describe-style build tag of the checkout that holds this package,
    whatever the working directory, once per process (whose imported code
    cannot change); the package version outside one."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return f"v{__version__}"


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)  # RFC 4180: CRLF terminators, quote-on-demand
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".12g")
    return v


def write_manifest(spec, systems, extra=None):
    """Write run-manifest.json, with the configs `systems` that ran."""
    manifest = {
        "experiment": spec.name,
        "seed": spec.seed,
        "trials": spec.trials,
        "config": spec.config.to_dict(),
        "systems": [cfg.to_dict() for cfg in systems],
        "build": build_identifier(),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
    }
    if extra:
        manifest.update(extra)
    path = spec.out_dir / "run-manifest.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def write_outputs(spec, systems, header, rows, title, xlabel, ylabel, plots,
                  logx=False, extra=None):
    """Write the experiment's CSV, its gnuplot script and the manifest of
    the configs `systems` that ran, in row order; returns the CSV path."""
    path = spec.out_dir / f"{spec.name}.csv"
    write_csv(path, header, rows)
    write_plot_script(path.with_suffix(".gp"), path.name, title, xlabel,
                      ylabel, plots, logx)
    write_manifest(spec, systems, extra)
    return path


def write_plot_script(path, csv_name, title, xlabel, ylabel, plots,
                      logx=False):
    """Emit a gnuplot script next to the data CSV."""
    lines = [
        "set datafile separator ','",
        f"set title '{title}'",
        f"set xlabel '{xlabel}'",
        f"set ylabel '{ylabel}'",
        "set key left top",
        "set grid",
    ]
    if logx:
        lines.append("set logscale x")
    terms = ", \\\n     ".join(
        f"'{csv_name}' using {using} with linespoints title '{label}'"
        for using, label in plots
    )
    lines.append(f"plot {terms}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _spawn_rngs(seed, n):
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(n)]


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def run_nmse_sweep(spec):
    """Closed-form vs Monte Carlo estimation error across Rician factors."""
    base = build_scenario(spec.config, np.random.default_rng(spec.seed))
    rows = []
    grid = spec.extras.get("rician_grid", NMSE_GRID)
    rngs = _spawn_rngs(spec.seed, len(grid))
    for kbar, rng in zip(grid, rngs):
        sc = base.with_rician(kbar)
        M, K = sc.num_satellites, sc.num_users
        mse_cf = np.mean([mse(sc, m, k) for m in range(M) for k in range(K)])
        nmse_cf = np.mean([nmse(sc, m, k) for m in range(M) for k in range(K)])
        per_trial_mse = np.empty(spec.trials)
        for block in trial_blocks(spec.trials):
            err = sample_channel_batch(sc, rng, block.stop - block.start)[0]
            err -= estimate_batch(sc, err, rng)  # h - hhat in place
            err = np.abs(err)  # (t, M, K, N), squared in place
            err **= 2
            per_trial_mse[block] = err.sum(axis=3).mean(axis=(1, 2))
            del err  # before the next block is drawn
        mse_mc, mse_se = mean_se(per_trial_mse)
        tr_r = np.mean(sc.estimation_stats.cov.sum(axis=2))
        rows.append([spec.seed, kbar, float(mse_cf), mse_mc, mse_se,
                     float(nmse_cf), mse_mc / tr_r, mse_se / tr_r])
    header = ["seed", "rician_factor", "mse_closed", "mse_mc", "mse_se",
              "nmse_closed", "nmse_mc", "nmse_se"]
    return write_outputs(
        spec, [spec.config], header, rows,
        "Channel estimation error vs Rician factor", "Rician factor",
        "error power",
        [("2:3", "MSE closed form"), ("2:4", "MSE Monte Carlo"),
         ("2:6", "NMSE closed form"), ("2:7", "NMSE Monte Carlo")],
        logx=True,
    )


def run_bound_validation(spec):
    """Closed-form rate lower bound vs Monte Carlo ergodic rate, from one
    shared channel draw per Rician point."""
    # high-SNR data/pilot power, 10 W, so the bound's Rician saturation
    # is visible
    cfg = spec.config.replace(max_power=10.0, pilot_power=10.0)
    base = build_scenario(cfg, np.random.default_rng(spec.seed))
    grid = spec.extras.get("rician_grid", RICIAN_GRID)
    rngs = _spawn_rngs(spec.seed, len(grid))
    rows = []
    for kbar, rng in zip(grid, rngs):
        sc = base.with_rician(kbar)
        alloc = equal_split_allocation(sc, groups=[list(range(sc.num_users))])
        lb = sum_rate(sc, alloc)
        mc = monte_carlo_users(sc, alloc, spec.trials, rng)
        # bound recomputed from MC term estimates (consistency channel)
        bound_mc, bws = 0.0, alloc.bandwidths[alloc.band]
        for k, rep in mc.users.items():
            denom = sum(t[1] for t in rep.terms.values())
            bound_mc += band_rate(bws[k], rep.ds_closed, 0.0, denom)[1]
        rows.append([spec.seed, kbar, lb, mc.sum_rate, mc.sum_rate_se,
                     float(bound_mc)])
    header = ["seed", "rician_factor", "rate_lb", "rate_mc", "rate_mc_se",
              "rate_bound_mc"]
    return write_outputs(
        spec, [cfg], header, rows,
        "Achievable-rate bound vs Monte Carlo", "Rician factor",
        "sum rate (bit/s)",
        [("2:3", "closed-form lower bound"), ("2:4", "MC ergodic rate"),
         ("2:6", "bound from MC terms")],
        logx=True,
    )


def _cluster_config(base, K, **kw):
    """K users on four sub-bands, served by clusters of three of at least
    four satellites; ``kw`` sets the rest."""
    return base.replace(num_users=K,
                        num_satellites=max(base.num_satellites, 4),
                        cluster_size=3, num_subbands=4, **kw)


def run_schedule_compare(spec):
    """Heuristic scheduler vs exhaustive search vs shared-band baseline.

    Wall-clock times go to the manifest, so the CSV is reproducible."""
    grid = spec.extras.get("user_grid", (5, 6, 8))
    systems = [_cluster_config(spec.config, K, subband_capacity=3,
                               pilot_length=K - 1) for K in grid]
    rows = []
    timings = []
    for K, cfg in zip(grid, systems):
        rng = np.random.default_rng(spec.seed + K)
        sc = build_scenario(cfg, rng)
        powers = np.full(K, cfg.max_power)
        weights = equal_weights(sc)
        estimates = scheduling_estimates(sc, rng)

        t0 = time.perf_counter()
        sched = schedule_users(sc, estimates, powers, weights)
        t_alg = time.perf_counter() - t0
        alloc = equal_split_allocation(sc, groups=sched.groups,
                                       powers=powers, weights=weights)
        r_alg = sum_rate(sc, alloc)

        t0 = time.perf_counter()
        opt = exhaustive_schedule(sc, powers, weights)
        t_opt = time.perf_counter() - t0
        opt_alloc = equal_split_allocation(sc, groups=opt.groups,
                                           powers=powers, weights=weights)
        r_opt = sum_rate(sc, opt_alloc)

        shared = equal_split_allocation(sc, groups=[list(range(K))],
                                        powers=powers, weights=weights)
        r_base = sum_rate(sc, shared)
        rows.append([spec.seed, K, r_alg, r_opt, r_base, sched.colors_used])
        timings.append({"num_users": K, "time_heuristic_s": t_alg,
                        "time_exhaustive_s": t_opt})
    header = ["seed", "num_users", "rate_heuristic", "rate_exhaustive",
              "rate_shared_band", "colors_used"]
    return write_outputs(
        spec, systems, header, rows,
        "Scheduling: heuristic vs exhaustive", "number of users",
        "sum rate (bit/s)",
        [("2:3", "conflict-graph heuristic"), ("2:4", "exhaustive search"),
         ("2:5", "all users share full band")],
        extra={"timings": timings},
    )


def run_convergence(spec):
    """Iteration traces of the SCA power/weight loop and the bandwidth
    water-filling stage in the alternating optimization's first round, at
    two array sizes."""
    rows = []
    sizes = spec.extras.get("antenna_grid", ((8, 8), (10, 10)))
    systems = [spec.config.replace(antennas_x=nx, antennas_y=ny)
               for nx, ny in sizes]
    for cfg in systems:
        rng = np.random.default_rng(spec.seed)
        sc = build_scenario(cfg, rng)
        ao = alternating_optimize(sc, rng, max_rounds=1)
        first = ao.rounds[0]
        if not ao.allocation.feasible:
            raise InfeasibleError(
                f"rate requirements unattainable (phi = "
                f"{ao.allocation.phi:.4f})", ao.allocation.phi)
        n = cfg.num_antennas
        for it, obj in enumerate(first.sca.objectives):
            rows.append([spec.seed, n, "power-weights", it, obj])
        for it, obj in enumerate(first.bandwidth.objective_trace, start=1):
            rows.append([spec.seed, n, "bandwidth", it, obj])
    header = ["seed", "num_antennas", "stage", "iteration", "objective"]
    return write_outputs(
        spec, systems, header, rows,
        "Convergence of the alternating optimization stages", "iteration",
        "objective (bit/s)",
        [("4:(strcol(3) eq 'power-weights' ? $5 : 1/0)",
          "SCA power/weights"),
         ("4:(strcol(3) eq 'bandwidth' ? $5 : 1/0)", "bandwidth stage")],
    )


def _benchmark_config(config, K):
    """The ``benchmark`` experiment's system of K users."""
    return _cluster_config(config, K, pilot_length=K - 2,
                           subband_capacity=max(-(-K // 4), 3))


def benchmark_arm_rates(config, K, seed, seeds):
    """Per system s < seeds of the benchmark experiment's stream for K users
    (`config` sets the rest), the sum rates of the proposed AO and of the
    equal-weight and estimate-norm-weight arms, and whether each arm's
    allocation meets the rate floors: ((rates), (feasible))."""
    cfg = _benchmark_config(config, K)
    children = np.random.SeedSequence(seed + K).spawn(2 * seeds)
    for s in range(seeds):
        sc = build_scenario(cfg, np.random.default_rng(children[2 * s]))
        # every arm replays the same estimation stream for fairness
        est_ss = children[2 * s + 1]
        ao = alternating_optimize(sc, np.random.default_rng(est_ss))
        a1, r1 = benchmark_allocation(sc, np.random.default_rng(est_ss),
                                      "equal")
        a2, r2 = benchmark_allocation(sc, np.random.default_rng(est_ss),
                                      "estimate")
        yield ((ao.sum_rate, r1, r2),
               (ao.allocation.feasible, a1.feasible, a2.feasible))


def run_benchmark(spec):
    """Seed-averaged sum rate: proposed AO vs the two fixed-weight arms,
    with the number of systems whose allocation misses the rate floors."""
    grid = spec.extras.get("user_grid", (6, 8))
    systems = [_benchmark_config(spec.config, K) for K in grid]
    seeds = spec.trials
    rows = []
    for K in grid:
        rates, feasible = zip(*benchmark_arm_rates(spec.config, K, spec.seed,
                                                   seeds))
        arms = ("proposed", "benchmark1", "benchmark2")
        for arm, arm_rates, met in zip(arms, zip(*rates), zip(*feasible)):
            mean = float(np.mean(arm_rates))
            rows.append([spec.seed, K, arm, mean, mean / K, seeds,
                         seeds - sum(met)])
    header = ["seed", "num_users", "arm", "mean_sum_rate",
              "mean_rate_per_user", "num_seeds", "num_infeasible"]
    return write_outputs(
        spec, systems, header, rows,
        "Seed-averaged sum rate vs number of users", "number of users",
        "mean sum rate (bit/s)",
        [("2:(strcol(3) eq 'proposed' ? $4 : 1/0)", "proposed"),
         ("2:(strcol(3) eq 'benchmark1' ? $4 : 1/0)", "equal weights"),
         ("2:(strcol(3) eq 'benchmark2' ? $4 : 1/0)",
          "estimate-norm weights")],
    )


class Experiment(NamedTuple):
    run: Callable
    default_trials: int
    min_trials: int  # the fewest its estimators can use


# The Monte Carlo engine needs MIN_TRIALS, a standard error two samples.
EXPERIMENTS = {
    "nmse-sweep": Experiment(run_nmse_sweep, 10000, 2),
    "bound-validate": Experiment(run_bound_validation, 10000, MIN_TRIALS),
    "schedule-compare": Experiment(run_schedule_compare, 1, 1),
    "convergence": Experiment(run_convergence, 1, 1),
    "benchmark": Experiment(run_benchmark, 100, 1),
}


def run_experiment(spec):
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    return EXPERIMENTS[spec.name].run(spec)


def main(argv=None):
    """The ``dmimo`` command. A ``--config`` that cannot be loaded or
    validated, too few ``--trials`` or a negative ``--seed`` is a usage
    error (exit 2) naming the problem; unattainable rate floors exit 1 with
    one line on stderr."""
    parser = argparse.ArgumentParser(
        prog="dmimo",
        description="Distributed-MIMO LEO resource-allocation experiments",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON system configuration")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int,
                       default=EXPERIMENTS[name].default_trials)
        p.add_argument("--out", type=Path, default=Path("out"))
    args = parser.parse_args(argv)
    try:
        config = (SystemConfig() if args.config is None
                  else SystemConfig.from_json(args.config))
    except (OSError, ValueError) as err:  # ConfigError, bad JSON included
        parser.error(f"--config {args.config}: {err}")
    try:
        spec = ExperimentSpec(
            name=args.experiment, config=config, seed=args.seed,
            trials=args.trials, out_dir=args.out,
        )
    except ValueError as err:
        parser.error(str(err))
    try:
        path = run_experiment(spec)
    except InfeasibleError as err:
        print(f"dmimo {args.experiment}: {err}", file=sys.stderr)
        return 1
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

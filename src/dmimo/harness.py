"""Experiment runner: seeded sweeps, CSV persistence, gnuplot script
emission, and the command-line entry point.

Every experiment is a pure function of (config, seed): re-running with the
same inputs produces byte-identical CSV.
"""

from __future__ import annotations

import argparse
import csv
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import SystemConfig
from .estimation import estimate_batch, mse, nmse, scenario_estimation_stats
from .channel import sample_channel_batch
from .optimizer import (
    alternating_optimize,
    benchmark_allocation,
    optimize_bandwidth,
    optimize_power_weights,
    scheduling_estimates,
)
from .rate import (
    AllocationState,
    RateContext,
    equal_split_allocation,
    equal_weights,
    monte_carlo_users,
    sinr_lower_bound,
    sum_rate,
)
from .scenario import build_scenario
from .scheduler import exhaustive_schedule, schedule_users

EXPERIMENTS = ("nmse-sweep", "bound-validate", "schedule-compare",
               "convergence", "benchmark")

RICIAN_GRID = (1.0, 5.0, 10.0, 20.0, 50.0, 100.0)
NMSE_GRID = (1.0, 5.0, 10.0, 20.0, 50.0, 100.0, 1e3, 1e4)


@dataclass
class ExperimentSpec:
    name: str
    config: SystemConfig
    seed: int
    trials: int
    out_dir: Path
    paper_scale: bool = False
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.name!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        self.out_dir = Path(self.out_dir)


def build_identifier():
    """git-describe-style build tag, falling back to the package version."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10,
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


def write_manifest(spec, extra=None):
    manifest = {
        "experiment": spec.name,
        "seed": spec.seed,
        "trials": spec.trials,
        "paper_scale": spec.paper_scale,
        "config": spec.config.to_dict(),
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


def _paper_scale(config, flag):
    if flag:
        return config.replace(antennas_x=10, antennas_y=10)
    return config


def _spawn_rngs(seed, n):
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(n)]


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def run_nmse_sweep(spec):
    """Closed-form vs Monte Carlo estimation error across Rician factors."""
    cfg = _paper_scale(spec.config, spec.paper_scale)
    base = build_scenario(cfg, np.random.default_rng(spec.seed))
    build = build_identifier()
    rows = []
    grid = spec.extras.get("rician_grid", NMSE_GRID)
    rngs = _spawn_rngs(spec.seed, len(grid))
    for kbar, rng in zip(grid, rngs):
        sc = base.with_rician(kbar)
        M, K = sc.num_satellites, sc.num_users
        stats = scenario_estimation_stats(sc)
        mse_cf = np.mean([mse(sc, m, k) for m in range(M) for k in range(K)])
        nmse_cf = np.mean([nmse(sc, m, k) for m in range(M) for k in range(K)])
        h, _ = sample_channel_batch(sc, rng, spec.trials)
        hhat, _ = estimate_batch(sc, h, rng, stats=stats)
        err = np.abs(h - hhat) ** 2  # (T, M, K, N)
        per_trial_mse = err.sum(axis=3).mean(axis=(1, 2))
        tr_r = np.mean([
            np.trace(stats[(m, k)].R).real
            for m in range(M) for k in range(K)
        ])
        rows.append([
            spec.seed, build, kbar,
            float(mse_cf), float(per_trial_mse.mean()),
            float(per_trial_mse.std(ddof=1) / np.sqrt(spec.trials)),
            float(nmse_cf), float(per_trial_mse.mean() / tr_r),
            float(per_trial_mse.std(ddof=1) / np.sqrt(spec.trials) / tr_r),
        ])
    header = ["seed", "build", "rician_factor", "mse_closed", "mse_mc",
              "mse_se", "nmse_closed", "nmse_mc", "nmse_se"]
    path = spec.out_dir / "nmse-sweep.csv"
    write_csv(path, header, rows)
    write_plot_script(
        spec.out_dir / "nmse-sweep.gp", "nmse-sweep.csv",
        "Channel estimation error vs Rician factor", "Rician factor",
        "error power",
        [("3:4", "MSE closed form"), ("3:5", "MSE Monte Carlo"),
         ("3:7", "NMSE closed form"), ("3:8", "NMSE Monte Carlo")],
        logx=True,
    )
    write_manifest(spec)
    return path


def _single_band_allocation(scenario):
    return equal_split_allocation(
        scenario, groups=[list(range(scenario.num_users))]
    )


def run_bound_validation(spec):
    """Closed-form rate lower bound vs Monte Carlo ergodic rate, from one
    shared channel draw per Rician point."""
    cfg = _paper_scale(spec.config, spec.paper_scale)
    # high-SNR data/pilot power so the bound's Rician saturation is visible
    power = spec.extras.get("data_power", 10.0)
    cfg = cfg.replace(max_power=power, pilot_power=power)
    base = build_scenario(cfg, np.random.default_rng(spec.seed))
    build = build_identifier()
    grid = spec.extras.get("rician_grid", RICIAN_GRID)
    rngs = _spawn_rngs(spec.seed, len(grid))
    rows = []
    for kbar, rng in zip(grid, rngs):
        sc = base.with_rician(kbar)
        ctx = RateContext(sc)
        alloc = _single_band_allocation(sc)
        lb = sum_rate(sc, alloc, ctx)
        mc = monte_carlo_users(sc, alloc, spec.trials, rng, ctx)
        # bound recomputed from MC term estimates (consistency channel)
        bound_mc = 0.0
        for k, rep in mc.users.items():
            denom = sum(t[1] for t in rep.terms.values())
            bw = alloc.bandwidths[alloc.band_of(k)]
            bound_mc += bw * np.log2(1.0 + rep.ds_closed / denom)
        rows.append([spec.seed, build, kbar, lb, mc.sum_rate,
                     mc.sum_rate_se, float(bound_mc)])
    header = ["seed", "build", "rician_factor", "rate_lb", "rate_mc",
              "rate_mc_se", "rate_bound_mc"]
    path = spec.out_dir / "bound-validate.csv"
    write_csv(path, header, rows)
    write_plot_script(
        spec.out_dir / "bound-validate.gp", "bound-validate.csv",
        "Achievable-rate bound vs Monte Carlo", "Rician factor",
        "sum rate (bit/s)",
        [("3:4", "closed-form lower bound"), ("3:5", "MC ergodic rate"),
         ("3:7", "bound from MC terms")],
        logx=True,
    )
    write_manifest(spec)
    return path


def _compare_config(base, K):
    return base.replace(
        num_users=K,
        num_satellites=max(base.num_satellites, 4),
        cluster_size=3,
        num_subbands=4,
        subband_capacity=3,
        pilot_length=K - 1,
    )


def run_schedule_compare(spec):
    """Heuristic scheduler vs exhaustive search vs shared-band baseline."""
    build = build_identifier()
    grid = spec.extras.get("user_grid", (5, 6, 8))
    rows = []
    for K in grid:
        if K > 10:
            raise ValueError("exhaustive arm refused for K > 10")
        cfg = _paper_scale(_compare_config(spec.config, K), spec.paper_scale)
        rng = np.random.default_rng(spec.seed + K)
        sc = build_scenario(cfg, rng)
        ctx = RateContext(sc)
        powers = np.full(K, cfg.max_power)
        weights = equal_weights(sc)
        estimates = scheduling_estimates(sc, rng)

        t0 = time.perf_counter()
        sched = schedule_users(sc, estimates, powers, weights, context=ctx)
        t_alg = time.perf_counter() - t0
        bw = cfg.total_bandwidth / len(sched.groups)
        alloc = AllocationState(
            groups=sched.groups, bandwidths=[bw] * len(sched.groups),
            powers=powers, weights=weights,
        )
        r_alg = sum_rate(sc, alloc, ctx)

        t0 = time.perf_counter()
        opt = exhaustive_schedule(sc, powers, weights, context=ctx)
        t_opt = time.perf_counter() - t0
        bw_opt = cfg.total_bandwidth / len(opt.groups)
        opt_alloc = AllocationState(
            groups=opt.groups, bandwidths=[bw_opt] * len(opt.groups),
            powers=powers, weights=weights,
        )
        r_opt = sum_rate(sc, opt_alloc, ctx)

        shared = AllocationState(
            groups=[list(range(K))], bandwidths=[cfg.total_bandwidth],
            powers=powers, weights=weights,
        )
        r_base = sum_rate(sc, shared, ctx)
        rows.append([spec.seed, build, K, r_alg, r_opt, r_base,
                     sched.colors_used, t_alg, t_opt])
    header = ["seed", "build", "num_users", "rate_heuristic",
              "rate_exhaustive", "rate_shared_band", "colors_used",
              "time_heuristic_s", "time_exhaustive_s"]
    path = spec.out_dir / "schedule-compare.csv"
    write_csv(path, header, rows)
    write_plot_script(
        spec.out_dir / "schedule-compare.gp", "schedule-compare.csv",
        "Scheduling: heuristic vs exhaustive", "number of users",
        "sum rate (bit/s)",
        [("3:4", "conflict-graph heuristic"), ("3:5", "exhaustive search"),
         ("3:6", "all users share full band")],
    )
    write_manifest(spec)
    return path


def run_convergence(spec):
    """Iteration traces for the SCA power/weight loop and the bandwidth
    water-filling stage, at two array sizes."""
    build = build_identifier()
    rows = []
    sizes = spec.extras.get("antenna_grid", ((8, 8), (10, 10)))
    for nx, ny in sizes:
        cfg = spec.config.replace(antennas_x=nx, antennas_y=ny)
        rng = np.random.default_rng(spec.seed)
        sc = build_scenario(cfg, rng)
        ctx = RateContext(sc)
        powers = np.full(sc.num_users, cfg.max_power)
        weights = equal_weights(sc)
        estimates = scheduling_estimates(sc, rng)
        sched = schedule_users(sc, estimates, powers, weights, context=ctx)
        bw = cfg.total_bandwidth / len(sched.groups)
        alloc = AllocationState(
            groups=sched.groups, bandwidths=[bw] * len(sched.groups),
            powers=powers, weights=weights,
        )
        alloc, trace = optimize_power_weights(sc, alloc, ctx)
        n = nx * ny
        for it, obj in enumerate(trace.objectives):
            rows.append([spec.seed, build, n, "power-weights", it, obj])
        res = optimize_bandwidth(sc, alloc, ctx)
        for it, obj in enumerate(res.objective_trace, start=1):
            rows.append([spec.seed, build, n, "bandwidth", it, obj])
    header = ["seed", "build", "num_antennas", "stage", "iteration",
              "objective"]
    path = spec.out_dir / "convergence.csv"
    write_csv(path, header, rows)
    write_plot_script(
        spec.out_dir / "convergence.gp", "convergence.csv",
        "Convergence of the alternating optimization stages", "iteration",
        "objective (bit/s)",
        [("5:(strcol(4) eq 'power-weights' ? $6 : 1/0)",
          "SCA power/weights"),
         ("5:(strcol(4) eq 'bandwidth' ? $6 : 1/0)", "bandwidth stage")],
    )
    write_manifest(spec)
    return path


def _benchmark_config(base, K):
    return base.replace(
        num_users=K,
        num_satellites=max(base.num_satellites, 4),
        cluster_size=3,
        num_subbands=4,
        subband_capacity=max(-(-K // 4), 3),
        pilot_length=K - 2,
        max_power=0.2,
    )


def run_benchmark(spec):
    """Seed-averaged sum rate: proposed AO vs the two fixed-weight arms."""
    build = build_identifier()
    grid = spec.extras.get("user_grid", (6, 8))
    seeds = spec.trials
    rows = []
    for K in grid:
        cfg = _paper_scale(_benchmark_config(spec.config, K),
                           spec.paper_scale)
        totals = {"proposed": [], "benchmark1": [], "benchmark2": []}
        children = np.random.SeedSequence(spec.seed + K).spawn(2 * seeds)
        for s in range(seeds):
            sc = build_scenario(cfg, np.random.default_rng(children[2 * s]))
            # every arm replays the same estimation stream for fairness
            est_ss = children[2 * s + 1]
            ao = alternating_optimize(sc, np.random.default_rng(est_ss))
            totals["proposed"].append(ao.sum_rate)
            _, r1 = benchmark_allocation(
                sc, np.random.default_rng(est_ss), "equal"
            )
            totals["benchmark1"].append(r1)
            _, r2 = benchmark_allocation(
                sc, np.random.default_rng(est_ss), "estimate"
            )
            totals["benchmark2"].append(r2)
        for arm in ("proposed", "benchmark1", "benchmark2"):
            mean = float(np.mean(totals[arm]))
            rows.append([spec.seed, build, K, arm, mean, mean / K, seeds])
    header = ["seed", "build", "num_users", "arm", "mean_sum_rate",
              "mean_rate_per_user", "num_seeds"]
    path = spec.out_dir / "benchmark.csv"
    write_csv(path, header, rows)
    write_plot_script(
        spec.out_dir / "benchmark.gp", "benchmark.csv",
        "Seed-averaged sum rate vs number of users", "number of users",
        "mean sum rate (bit/s)",
        [("3:(strcol(4) eq 'proposed' ? $5 : 1/0)", "proposed"),
         ("3:(strcol(4) eq 'benchmark1' ? $5 : 1/0)", "equal weights"),
         ("3:(strcol(4) eq 'benchmark2' ? $5 : 1/0)",
          "estimate-norm weights")],
    )
    write_manifest(spec)
    return path


RUNNERS = {
    "nmse-sweep": run_nmse_sweep,
    "bound-validate": run_bound_validation,
    "schedule-compare": run_schedule_compare,
    "convergence": run_convergence,
    "benchmark": run_benchmark,
}

DEFAULT_TRIALS = {
    "nmse-sweep": 10000,
    "bound-validate": 10000,
    "schedule-compare": 1,
    "convergence": 1,
    "benchmark": 100,
}


def run_experiment(spec):
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    return RUNNERS[spec.name](spec)


def main(argv=None):
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
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--out", type=Path, default=Path("out"))
        p.add_argument("--paper-scale", action="store_true",
                       help="run with a 10x10 (N=100) antenna array")
    args = parser.parse_args(argv)
    if args.config is not None:
        config = SystemConfig.from_json(args.config)
    else:
        config = SystemConfig()
    trials = args.trials
    if trials is None:
        trials = DEFAULT_TRIALS[args.experiment]
    spec = ExperimentSpec(
        name=args.experiment, config=config, seed=args.seed, trials=trials,
        out_dir=args.out, paper_scale=args.paper_scale,
    )
    path = run_experiment(spec)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""dmimo benchmark: run one seeded workload and print its metrics.

    python3 benchmarks/run.py --workload ao-small --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory. ``--seconds`` sets the size of the run: the workload
solves ``round(seconds * items_per_second)`` items (at least one), with
rates set so that a run takes about ``seconds`` (``ao-paper-floor`` about
twice that) on the machine they were tuned on. The same seconds and seed
give the same items, so two commits do the same work.

With ``--trace 0`` every item runs ``repeats`` times, in separate passes,
and its time is the median of its runs; the end-to-end metrics are
reported.
With ``--trace 1`` the items run once untraced and once traced, and the
per-layer metrics are reported. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. A full record, with the machine description and every failing
item, is written under ``benchmarks/out/``.
"""

from __future__ import annotations

import time

SCRIPT_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402

# Single-threaded BLAS on both sides of every comparison; set before numpy
# is imported, and inherited by the set-up probes.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# keep git (the harness's build tag, the commit record) inside the checkout
os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)

SETUP_PROBES = 2  # fresh processes timed for setup_s, besides the run's own

END_TO_END = {  # name: unit
    "setup_s": "s",
    "item_s.p50": "s",
    "item_s.tail": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sum_rate_mbps": "Mbit/s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the set-up seconds and exit")
    return p.parse_args(argv)


def setup(name):
    """Import the library from the checkout and build the workload."""
    if not (ROOT / "src" / "dmimo" / "__init__.py").is_file():
        sys.exit(f"error: no dmimo sources under {ROOT / 'src'}; run from "
                 "the root of a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if name not in workloads.NAMES:
        sys.exit(f"error: unknown workload {name!r}; "
                 f"choose from {', '.join(workloads.NAMES)}")
    return workloads.make(name, ROOT, OUT / "items" / name)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail_percentile(n):
    """Highest whole percentile with at least ten of n items beyond it.
    Below 21 items that percentile is at or under the median; the tail is
    then the upper quartile, which a single slow item does not move."""
    if n <= 20:
        return 75
    return math.floor(100 * (n - 10) / n)


def nearest_rank(values, pct):
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# Running items
# ---------------------------------------------------------------------------


@dataclass
class Record:
    walls: dict = field(default_factory=dict)  # seed -> [wall seconds]
    rates: dict = field(default_factory=dict)  # seed -> sum rate, bit/s
    failures: list = field(default_factory=list)
    check_failures: int = 0
    attempted: int = 0


def run_item(workload, seed, rec, spans=None):
    """Run and check one item; spans, a Tracer, gets an item span around
    the run."""
    rec.attempted += 1
    span = spans.begin_item(seed) if spans else None
    t0 = time.perf_counter()
    try:
        output = workload.run(seed)
    except Exception as exc:  # a failing item is recorded, not fatal
        rec.failures.append(
            {"seed": seed, "error": f"{type(exc).__name__}: {exc}"})
        return
    finally:
        wall = time.perf_counter() - t0
        if spans:
            spans.end_item(span)
    try:
        rate, problems = workload.evaluate(output)
    except (KeyError, ValueError, OSError) as exc:  # e.g. a CSV column gone
        rec.check_failures += 1
        rec.failures.append(
            {"seed": seed, "error": f"unreadable output: {exc!r}"})
        return
    first = rec.rates.setdefault(seed, rate)
    if rate != first:
        problems.append(f"sum rate {rate!r} differs from the first run's "
                        f"{first!r}")
    rec.walls.setdefault(seed, []).append(wall)
    if problems:
        rec.check_failures += 1
        rec.failures.append(
            {"seed": seed, "error": "output check: " + "; ".join(problems)})


def timed_run(workload, seeds):
    rec = Record()
    for _ in range(workload.repeats):
        for seed in seeds:
            run_item(workload, seed, rec)
    return rec


def probe_setup(name, seed):
    """Set-up seconds of fresh processes, each importing and building the
    workload as a timed run does."""
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def end_to_end_metrics(rec, n, setup_times):
    if not rec.walls:
        raise RuntimeError("no item completed; nothing to report")
    # the median, not the fastest, of an item's runs: the host's quiet
    # phases are rare, and a run that happens to catch one would read fast
    item_s = [statistics.median(w) for w in rec.walls.values()]
    pct = tail_percentile(n)
    values = {
        "setup_s": statistics.median(setup_times),
        "item_s.p50": statistics.median(item_s),
        "item_s.tail": nearest_rank(item_s, pct),
        "items_per_s": len(item_s) / sum(item_s),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sum_rate_mbps": statistics.fmean(rec.rates.values()) / 1e6,
    }
    detail = {"items": n, "tail_percentile": pct,
              "setup_samples_s": setup_times, "item_walls_s": rec.walls}
    return values, detail


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def traced_run(workload, seeds):
    untraced, traced = Record(), Record()
    for seed in seeds:
        run_item(workload, seed, untraced)
    tr = tracer.Tracer()
    found = tr.install()
    try:
        for seed in seeds:
            run_item(workload, seed, traced, spans=tr)
    finally:
        tr.uninstall()
    OUT.mkdir(parents=True, exist_ok=True)
    tr.write(OUT / f"trace-{workload.name}-seed{seeds[0]}.json")
    return untraced, traced, layer_metrics(tr, found, untraced, traced)


def layer_metrics(tr, found, untraced, traced):
    """Per-layer metrics: {name: (value, unit)}. A layer the library no
    longer defines is left out."""
    totals = tr.layer_totals()
    out = {}
    for name in found:
        calls, self_s, _ = totals.get(name, (0, 0.0, 0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    for layer, (counter, _) in tracer.COUNTERS.items():
        if layer in found:
            out[counter] = (tr.counts.get(counter, 0), "count")
    if "gp.solve_gp" in found:
        out["gp.solve_gp.errors"] = (
            totals.get("gp.solve_gp", (0, 0.0, 0))[2], "count")
    if {"scheduler.schedule_users", "scheduler.dsatur_color"} <= set(found):
        schedules = out["scheduler.schedule_users.calls"][0]
        colorings = out["scheduler.dsatur_color.calls"][0]
        # 0 when nothing was scheduled
        out["scheduler.dsatur_per_schedule"] = (
            colorings / schedules if schedules else 0.0, "ratio")
    out["optimizer.infeasible"] = (
        tr.error_counts().get("InfeasibleError", 0), "count")
    both = set(untraced.walls) & set(traced.walls)
    base = sum(untraced.walls[s][0] for s in both)
    with_trace = sum(traced.walls[s][0] for s in both)
    out["trace_overhead_frac"] = (
        (with_trace - base) / base if base else 0.0, "ratio")
    return out


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------


def _read(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return None


def machine_record():
    import numpy as np
    import scipy

    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}  # per core for L1/L2, shared for L3 on most machines
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        size = _read(index / "size")
        if level and size and kind != "Instruction":
            caches[f"L{level}"] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None  # not a git checkout, or no git
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches_cpu0": caches,
        "blas": blas,
        "blas_threads_pinned": BLAS_THREADS,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def report(args, workload, records, metrics, detail):
    attempted = sum(r.attempted for r in records)
    failures = [f for r in records for f in r.failures]
    record = {
        "workload": workload.name, "why": workload.why,
        "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "inputs": workload.describe(), "machine": machine_record(),
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted, "failures": failures,
        "detail": detail,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / (f"result-{workload.name}-seed{args.seed}"
                  f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2)
        f.write("\n")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for key in ("machine", "inputs"):
        print(f"{key} " + json.dumps(record[key], sort_keys=True))
    print(f"items {detail['items']}  repeats {detail['repeats']}"
          + (f"  tail p{detail['tail_percentile']}"
             if "tail_percentile" in detail else ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<44} {record['failed_frac']:>14.6g} ratio"
          f"  ({len(failures)} of {attempted})")
    for f in failures:
        print(f"  failed item seed {f['seed']}: {f['error']}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not any(r.check_failures for r in records),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))


def main(argv=None):
    args = parse_args(argv)
    workload = setup(args.workload)
    setup_s = time.perf_counter() - SCRIPT_START
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    n = max(1, round(args.seconds * workload.items_per_second))
    seeds = [args.seed + i for i in range(n)]
    if args.trace:
        # each traced item runs twice; keep the run about as long as a
        # timed one
        n = max(1, min(n, round(n * workload.repeats / 2)))
        untraced, traced, metrics = traced_run(workload, seeds[:n])
        report(args, workload, [untraced, traced], metrics,
               {"items": n, "repeats": "1 untraced + 1 traced"})
        return 0
    rec = timed_run(workload, seeds)
    setup_times = [setup_s] + probe_setup(args.workload, args.seed)
    values, detail = end_to_end_metrics(rec, n, setup_times)
    detail["repeats"] = workload.repeats
    metrics = {k: (values[k], END_TO_END[k]) for k in END_TO_END}
    report(args, workload, [rec], metrics, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run each workload over several seeds and record medians and spreads.

    python3 benchmarks/baseline.py --seconds 20 --out benchmarks/seed-baseline.json

For every workload, ``run.py --trace 0`` runs once per seed; each
end-to-end metric gets its median, first and third quartile
(``statistics.quantiles(values, n=4)``) and spread, (q3 - q1) / median.
Then ``run.py --trace 1`` runs twice on the first seed: the per-layer
metrics of the second traced run are recorded, with each layer's share of
traced item time, and whether every count repeated exactly. Runs go one
after another, never in parallel. Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
SEEDS = tuple(1007 + 1000 * i for i in range(10))


def run(workload, seed, seconds, trace):
    """(result line, full record) of one run."""
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    line = json.loads(res.stdout.strip().splitlines()[-1])
    path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    return line, json.loads(path.read_text(encoding="utf-8"))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def layer_shares(workload, seed, metrics):
    """Each layer's self time over the traced items' total time."""
    trace = json.loads((OUT / f"trace-{workload}-seed{seed}.json")
                       .read_text(encoding="utf-8"))
    spans = trace["spans"]
    total = sum(s[2] - s[1] for s in spans if s[0] == "item")
    shares = {k[:-len(".self_s")]: round(m["value"] / total, 4)
              for k, m in metrics.items() if k.endswith(".self_s")}
    return dict(sorted(((k, v) for k, v in shares.items() if v > 0),
                       key=lambda kv: -kv[1]))


def measure(workload, seeds, seconds):
    lines, records = zip(*(run(workload, s, seconds, 0) for s in seeds))
    first = records[0]
    entry = {
        "seeds": list(seeds),
        "attempted": [r["attempted"] for r in lines],
        "failed": [r["failed"] for r in lines],
        "correct": [r["correct"] for r in lines],
        "inputs": first["inputs"],
        "items": first["detail"]["items"],
        "repeats": first["detail"]["repeats"],
        "tail_percentile": first["detail"]["tail_percentile"],
        "end_to_end": {
            name: {"unit": m["unit"],
                   **spread([r["metrics"][name]["value"] for r in lines])}
            for name, m in lines[0]["metrics"].items()
        },
    }
    traced = [run(workload, seeds[0], seconds, 1)[0] for _ in range(2)]
    counts = [{k: m["value"] for k, m in t["metrics"].items()
               if m["unit"] == "count"} for t in traced]
    entry["per_layer_seed"] = seeds[0]
    entry["per_layer"] = {k: m["value"]
                          for k, m in traced[1]["metrics"].items()}
    entry["per_layer_counts_repeat"] = counts[0] == counts[1]
    entry["self_time_share"] = layer_shares(workload, seeds[0],
                                            traced[1]["metrics"])
    return entry, first["machine"]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    p.add_argument("--workloads", nargs="+", default=WORKLOADS)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    result = {"run_seconds": args.seconds, "workloads": {}}
    for name in args.workloads:
        entry, machine = measure(name, args.seeds, args.seconds)
        result["machine"] = machine
        result["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            print(f"{name:<16} {metric:<16} median {s['median']:.6g} "
                  f"{s['unit']}  spread {s['spread']:.3f}", flush=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark: every named metric is emitted with its
unit, counts repeat between traced runs, and the output checker catches
broken outputs.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from dmimo import rate, scenario  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload, trace, seed=3):
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(res.stdout.strip().splitlines()[-1])


def test_spec_names_the_benchmark():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_is_emitted_with_its_unit(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        out = bench(workload, trace)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is True and out["failed"] == 0
        assert out["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        assert got == want
        for name, m in out["metrics"].items():
            assert math.isfinite(m["value"]), name
            if section == "end_to_end":
                assert m["value"] > 0, name


def test_traced_counts_repeat():
    def counts(out):
        return {k: v["value"] for k, v in out["metrics"].items()
                if v["unit"] == "count" or k.endswith("_per_schedule")}

    first, second = bench("ao-small", 1), bench("ao-small", 1)
    assert counts(first) == counts(second)
    assert counts(first)["scheduler.dsatur_color.calls"] > 0


def test_missing_layer_drops_out(monkeypatch):
    from dmimo import channel

    monkeypatch.delattr(rate, "monte_carlo_terms")
    monkeypatch.delattr(channel, "sample_channel")
    tr = tracer.Tracer()
    found = tr.install()
    try:
        assert "rate.monte_carlo_terms" not in found
        assert "channel.sample_channel" not in found
        assert "rate.sinr_lower_bound" in found
        assert rate.sinr_lower_bound.__wrapped__ is not None
    finally:
        tr.uninstall()
    assert not hasattr(rate.sinr_lower_bound, "__wrapped__")


@pytest.fixture
def small():
    wl = workloads.make("ao-small", ROOT, HERE / "out" / "items" / "test")
    sc = scenario.build_scenario(wl.config, np.random.default_rng(0))
    return sc, rate.equal_split_allocation(sc)


def test_checker_accepts_valid_allocation(small):
    sc, alloc = small
    assert checks.check_allocation(sc, alloc) == []


def test_checker_catches_power_above_cap(small):
    sc, alloc = small
    alloc.powers[2] = sc.config.max_power * 1.01
    assert any("powers" in p for p in checks.check_allocation(sc, alloc))


def test_checker_catches_non_unit_weights(small):
    sc, alloc = small
    alloc.weights[:, 1] *= 1.1
    assert any("weight norm" in p for p in checks.check_allocation(sc, alloc))


def test_checker_catches_weight_off_serving_set(small):
    sc, alloc = small
    off = next(m for m in range(sc.num_satellites)
               if m not in sc.serving_sets[0])
    alloc.weights[off, 0] = 1e-3
    assert any("off its serving set" in p
               for p in checks.check_allocation(sc, alloc))


def test_checker_catches_bandwidth_off_simplex(small):
    sc, alloc = small
    alloc.bandwidths[0] *= 1.001
    assert any("simplex" in p for p in checks.check_allocation(sc, alloc))


def test_checker_catches_broken_partition(small):
    sc, alloc = small
    alloc.groups[0] = alloc.groups[0] + [alloc.groups[1][0]]
    assert any("partition" in p for p in checks.check_allocation(sc, alloc))


def test_checker_catches_wrong_sum_rate_and_rate_floor(small):
    sc, alloc = small
    ctx = rate.RateContext(sc)
    true = rate.sum_rate(sc, alloc, ctx)
    assert checks.check_sum_rate(sc, alloc, true, ctx) == []
    assert checks.check_sum_rate(sc, alloc, true * (1 + 1e-6), ctx)
    assert checks.check_rate_floor(sc, alloc, ctx) == []
    floored = scenario.build_scenario(
        sc.config.replace(rate_requirement=1e12), np.random.default_rng(0))
    assert checks.check_rate_floor(floored, alloc,
                                   rate.RateContext(floored))


def test_bound_checker():
    row = {"rician_factor": 10.0, "rate_lb": 1.0, "rate_mc": 1.1,
           "rate_mc_se": 0.01, "rate_bound_mc": 1.0}
    assert checks.check_bound_rows([row]) == []
    assert checks.check_bound_rows([dict(row, rate_lb=1.2)])
    assert checks.check_bound_rows([dict(row, rate_mc=float("nan"))])
    assert checks.check_bound_rows([])


def test_tail_percentile_leaves_ten_items_beyond():
    for n in (21, 25, 50, 73):
        pct = run.tail_percentile(n)
        values = list(range(n))
        assert n - 1 - run.nearest_rank(values, pct) >= 10
        assert n - 1 - run.nearest_rank(values, pct + 1) < 10
    for n in (1, 5, 20):  # no such tail above the median: upper quartile
        assert run.tail_percentile(n) == 75

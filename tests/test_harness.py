import csv
import json

import numpy as np
import pytest

import dmimo.harness
from dmimo.config import SystemConfig
from dmimo.optimizer import InfeasibleError
from dmimo.harness import (
    ExperimentSpec,
    build_identifier,
    main,
    run_experiment,
    write_csv,
)


def spec_for(name, tmp_path, trials=200, seed=5, **extras):
    return ExperimentSpec(
        name=name, config=SystemConfig(), seed=seed, trials=trials,
        out_dir=tmp_path, extras=extras,
    )


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def test_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentSpec(name="bogus", config=SystemConfig(), seed=0,
                       trials=10, out_dir=tmp_path)
    with pytest.raises(ValueError):
        ExperimentSpec(name="nmse-sweep", config=SystemConfig(), seed=0,
                       trials=0, out_dir=tmp_path)


def test_write_csv_rfc4180(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1, 'x,"y"'], [2.5, "plain"]])
    raw = path.read_bytes()
    assert b"\r\n" in raw
    rows = read_rows(path)
    assert rows[1][1] == 'x,"y"'


def test_nmse_sweep_outputs(tmp_path):
    spec = spec_for("nmse-sweep", tmp_path, trials=300)
    path = run_experiment(spec)
    rows = read_rows(path)
    header, data = rows[0], rows[1:]
    assert header[:3] == ["seed", "build", "rician_factor"]
    mse = [float(r[header.index("mse_closed")]) for r in data]
    nmse = [float(r[header.index("nmse_closed")]) for r in data]
    assert all(b < a for a, b in zip(mse, mse[1:]))
    assert all(b > a for a, b in zip(nmse, nmse[1:]))
    assert (tmp_path / "nmse-sweep.gp").exists()
    manifest = json.loads((tmp_path / "run-manifest.json").read_text())
    assert manifest["experiment"] == "nmse-sweep"
    assert manifest["seed"] == 5
    assert set(manifest["versions"]) == {"python", "numpy", "scipy"}


def test_bound_validate_outputs(tmp_path):
    spec = spec_for("bound-validate", tmp_path, trials=300,
                    rician_grid=(1.0, 10.0))
    path = run_experiment(spec)
    rows = read_rows(path)
    header, data = rows[0], rows[1:]
    for r in data:
        lb = float(r[header.index("rate_lb")])
        mc = float(r[header.index("rate_mc")])
        se = float(r[header.index("rate_mc_se")])
        assert lb <= mc + 3 * se


def test_schedule_compare_outputs(tmp_path):
    spec = spec_for("schedule-compare", tmp_path, trials=1, user_grid=(5, 6))
    path = run_experiment(spec)
    rows = read_rows(path)
    header, data = rows[0], rows[1:]
    for r in data:
        heur = float(r[header.index("rate_heuristic")])
        opt = float(r[header.index("rate_exhaustive")])
        assert heur <= opt * (1 + 1e-9)
    # wall-clock times live in the manifest, keeping the CSV reproducible
    assert not [h for h in header if h.startswith("time_")]
    manifest = json.loads((tmp_path / "run-manifest.json").read_text())
    timings = manifest["timings"]
    assert [t["num_users"] for t in timings] == [5, 6]
    assert all(t["time_heuristic_s"] > 0 and t["time_exhaustive_s"] > 0
               for t in timings)


def test_convergence_outputs(tmp_path):
    spec = spec_for("convergence", tmp_path, trials=1,
                    antenna_grid=((4, 4), (6, 6)))
    path = run_experiment(spec)
    rows = read_rows(path)
    header, data = rows[0], rows[1:]
    stages = {r[header.index("stage")] for r in data}
    assert stages == {"power-weights", "bandwidth"}
    # per (antenna count, stage) the objective column is nondecreasing
    series = {}
    for r in data:
        key = (r[header.index("num_antennas")], r[header.index("stage")])
        series.setdefault(key, []).append(float(r[header.index("objective")]))
    for vals in series.values():
        assert all(b >= a - 1e-8 * abs(a) for a, b in zip(vals, vals[1:]))


# convergence.csv at seed 0 on the default 8x8 and 10x10 arrays, every
# column but the build tag, as written when the experiment still called the
# stages itself rather than reading the alternating optimization's first
# round
GOLDEN_CONVERGENCE = [
    ["0", "64", "power-weights", "0", "1391835.39446"],
    ["0", "64", "power-weights", "1", "1394331.8884"],
    ["0", "64", "bandwidth", "1", "1402433.772"],
    ["0", "64", "bandwidth", "2", "1402433.77805"],
    ["0", "64", "bandwidth", "3", "1402433.77805"],
    ["0", "64", "bandwidth", "4", "1402433.77805"],
    ["0", "100", "power-weights", "0", "1978962.89346"],
    ["0", "100", "power-weights", "1", "1987100.22813"],
    ["0", "100", "bandwidth", "1", "2000134.83922"],
    ["0", "100", "bandwidth", "2", "2000134.85795"],
    ["0", "100", "bandwidth", "3", "2000134.85795"],
    ["0", "100", "bandwidth", "4", "2000134.85795"],
]


def test_convergence_matches_golden(tmp_path):
    path = run_experiment(spec_for("convergence", tmp_path, trials=1, seed=0))
    rows = read_rows(path)
    build = rows[0].index("build")
    assert [r[:build] + r[build + 1:] for r in rows[1:]] == GOLDEN_CONVERGENCE


def test_convergence_stops_at_an_unattainable_floor(tmp_path):
    cfg = SystemConfig(rate_requirement=5e5)
    spec = ExperimentSpec(name="convergence", config=cfg, seed=5, trials=1,
                          out_dir=tmp_path,
                          extras={"antenna_grid": ((4, 4),)})
    with pytest.raises(InfeasibleError) as err:
        run_experiment(spec)
    assert err.value.phi == pytest.approx(0.0949, abs=1e-4)
    assert not (tmp_path / "convergence.csv").exists()


def test_benchmark_outputs(tmp_path):
    spec = spec_for("benchmark", tmp_path, trials=2, user_grid=(6,))
    path = run_experiment(spec)
    rows = read_rows(path)
    header, data = rows[0], rows[1:]
    arms = {r[header.index("arm")] for r in data}
    assert arms == {"proposed", "benchmark1", "benchmark2"}
    # every column but the build tag, as written before the scheduler kept
    # colorings and schedules per RateContext
    build = header.index("build")
    assert [r[:build] + r[build + 1:] for r in data] == [
        ["5", "6", "proposed", "686589.735983", "114431.622664", "2"],
        ["5", "6", "benchmark1", "685437.164682", "114239.527447", "2"],
        ["5", "6", "benchmark2", "685466.724975", "114244.454163", "2"]]


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        spec = ExperimentSpec(name="nmse-sweep", config=SystemConfig(),
                              seed=9, trials=200, out_dir=d)
        run_experiment(spec)
    assert (a / "nmse-sweep.csv").read_bytes() == \
        (b / "nmse-sweep.csv").read_bytes()


def test_cli_runs(tmp_path):
    out = tmp_path / "cli"
    rc = main(["nmse-sweep", "--seed", "3", "--trials", "200",
               "--out", str(out)])
    assert rc == 0
    assert (out / "nmse-sweep.csv").exists()
    assert (out / "run-manifest.json").exists()


def test_cli_config_roundtrip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    SystemConfig(num_users=4, pilot_length=2, subband_capacity=4).to_json(
        cfg_path
    )
    out = tmp_path / "cli2"
    rc = main(["nmse-sweep", "--config", str(cfg_path), "--seed", "1",
               "--trials", "200", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "run-manifest.json").read_text())
    assert manifest["config"]["num_users"] == 4


def test_build_identifier_stable():
    assert build_identifier() == build_identifier()
    assert build_identifier()


@pytest.mark.parametrize("name, trials, extras", [
    ("nmse-sweep", 200, {}),
    ("bound-validate", 200, {"rician_grid": (1.0,)}),
    ("schedule-compare", 1, {"user_grid": (5,)}),
    ("convergence", 1, {"antenna_grid": ((4, 4),)}),
    ("benchmark", 1, {"user_grid": (6,)}),
])
def test_build_identifier_runs_once_per_experiment(name, trials, extras,
                                                   tmp_path, monkeypatch):
    """One git describe per experiment: its tag reaches both the CSV rows
    and the manifest. The CSV bytes match a run without the counter, and
    the manifests match apart from wall-clock timings."""
    plain = run_experiment(spec_for(name, tmp_path / "plain", trials=trials,
                                    **extras))
    tag, calls = build_identifier(), []

    def counted():
        calls.append(tag)
        return tag

    monkeypatch.setattr(dmimo.harness, "build_identifier", counted)
    path = run_experiment(spec_for(name, tmp_path / "counted", trials=trials,
                                   **extras))
    assert calls == [tag]
    assert path.read_bytes() == plain.read_bytes()
    rows = read_rows(path)
    assert [r[rows[0].index("build")] for r in rows[1:]] == \
        [tag] * (len(rows) - 1)
    manifests = [json.loads((p.parent / "run-manifest.json").read_text())
                 for p in (plain, path)]
    assert manifests[1]["build"] == tag
    for m in manifests:
        m.pop("timings", None)  # wall-clock times differ between runs
    assert manifests[0] == manifests[1]

import csv
import json
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import dmimo.harness
from conftest import peak_traced_bytes
from dmimo.config import ConfigError, CorrelationModel, SystemConfig
from dmimo.optimizer import InfeasibleError
from dmimo.channel import sample_channel_batch
from dmimo.estimation import estimate_batch
from dmimo.rate import MC_BLOCK, MIN_TRIALS
from dmimo.scenario import build_scenario
from dmimo.harness import (
    EXPERIMENTS,
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
    # the fewest trials each experiment's estimators can use: the Monte
    # Carlo engine's floor, and two for a standard error
    for name, floor in (("bound-validate", MIN_TRIALS), ("nmse-sweep", 2),
                        ("schedule-compare", 1), ("convergence", 1),
                        ("benchmark", 1)):
        with pytest.raises(ValueError, match=f"trials >= {floor}"):
            ExperimentSpec(name=name, config=SystemConfig(), seed=0,
                           trials=floor - 1, out_dir=tmp_path)
        ExperimentSpec(name=name, config=SystemConfig(), seed=0,
                       trials=floor, out_dir=tmp_path)


@pytest.mark.parametrize("name, trials", [("bound-validate", 50),
                                          ("nmse-sweep", 1)])
def test_cli_rejects_unusable_trials(name, trials, tmp_path, capsys):
    """Too few trials end in a usage error before the output directory is
    made, not in a traceback or a nan standard error."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main([name, "--trials", str(trials), "--out", str(out)])
    assert exit_.value.code == 2
    assert "needs trials >=" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["bound-validate", "schedule-compare"])
def test_cli_rejects_a_negative_seed(name, tmp_path, capsys):
    """A negative seed ends in a usage error before the output directory
    is made, not in a traceback from numpy or a run at seed + K."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main([name, "--seed", "-1", "--out", str(out)])
    assert exit_.value.code == 2
    assert "seed must be nonnegative, not -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, trials", [("nmse-sweep", 2),
                                          ("bound-validate", MIN_TRIALS)])
def test_rician_sweep_makes_one_eigh(name, trials, tmp_path, monkeypatch):
    """A Rician sweep decomposes Delta once: it depends only on the config,
    which every swept copy of the scenario keeps."""
    eigh, calls = np.linalg.eigh, []

    def counted(a, *args, **kw):
        calls.append(a.shape)
        return eigh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    cfg = SystemConfig(correlation=CorrelationModel("exponential", 0.7))
    run_experiment(ExperimentSpec(name=name, config=cfg, seed=0,
                                  trials=trials, out_dir=tmp_path))
    assert calls == [(16, 16)]


@pytest.mark.parametrize("text, message", [
    (None, "No such file"),
    ("{\"num_users\": 4,", "Expecting"),
    ('{"num_users": 4, "max_powr": 1.0, "bogus": 0}',
     "unknown config fields: bogus, max_powr"),
    ('{"rng_seed": 0}', "unknown config fields: rng_seed"),
    ('{"num_users": 4, "pilot_length": 5}', "tau <= K"),
    ('{"correlation": {"kind": "exponential", "ratio": 0.7}}',
     "unknown correlation fields: ratio"),
    ('{"correlation": "identity"}',
     "correlation must be a JSON object, not 'identity'"),
    ('{"max_power": "20"}', "max_power must be a finite number, not '20'"),
    ('{"max_power": NaN}', "max_power must be a finite number, not nan"),
    ('{"num_users": 5.5}', "num_users must be an integer, not 5.5"),
    ('{"cluster_size": 0}', "cluster size must satisfy 0 < |M_k| <= M"),
    ('{"rician_records": [{"min_deg": 0, "max_deg": 90}]}',
     "rician_records[0] must be three finite numbers (min_deg, max_deg, "
     "k_linear), not (0, 90, None)"),
    ('{"rician_records": [{"min_deg": 0, "max_deg": 90, "k": 1}]}',
     "unknown rician_records[0] fields: k"),
    ('{"rician_records": [{"min_deg": 0, "max_deg": 90, "k_linear": "9"}]}',
     "rician_records[0] must be three finite numbers"),
    ('{"rician_records": [{"min_deg": 0, "max_deg": 10, "k_linear": 1}]}',
     "rician_records do not cover elevation 20 deg of [20, 20.1)"),
    ('{"rician_override": -0.5}', "Rician factors must be nonnegative"),
    ('{"rician_records": [{"min_deg": 0, "max_deg": 90, "k_linear": -2}]}',
     "Rician factors must be nonnegative"),
    ('{"antennas_x": 0}', "antennas_x must be strictly positive"),
    ('{"elevation_min_deg": -1, "rician_override": 1}',
     "elevation bounds must satisfy 0 <= elevation_min_deg"),
    ('{"elevation_max_deg": 91, "rician_override": 1}',
     "elevation bounds must satisfy 0 <= elevation_min_deg"),
])
def test_cli_reports_a_bad_config(text, message, tmp_path, capsys):
    """A missing file, invalid JSON, an unknown field (nested ones
    included), a wrongly typed value, a malformed or short Rician table
    and an invalid or unphysical config each end in a usage error that
    names the file and the field, not in a traceback or a run with a
    default."""
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as exit_:
        main(["nmse-sweep", "--config", str(path), "--out", str(out)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"--config {path}: " in err and message in err
    assert not out.exists()


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown config fields: x$"):
        SystemConfig.from_dict({**SystemConfig().to_dict(), "x": 1})
    assert SystemConfig.from_dict(SystemConfig().to_dict()) == SystemConfig()


def test_rician_rows_cover_the_elevation_band():
    """Gaps anywhere in [elevation_min_deg, elevation_max_deg) are refused
    at load; an override needs no table, and the default table's rows are
    its JSON records."""
    rows = ((0.0, 20.0, 5.0), (20.0, 25.0, 10.0), (26.0, 90.0, 14.0))
    with pytest.raises(ConfigError, match="cover elevation 25 deg"):
        SystemConfig(rician_records=rows, elevation_max_deg=30.0)
    cfg = SystemConfig(rician_records=rows, elevation_min_deg=10.0,
                       elevation_max_deg=25.0)
    assert [cfg.rician_factor(e) for e in (10.0, 19.9, 20.0, 24.9)] == \
        [5.0, 5.0, 10.0, 10.0]
    SystemConfig(rician_records=(), rician_override=3.0)
    assert SystemConfig().to_dict()["rician_records"][-1] == \
        {"min_deg": 80.0, "max_deg": 90.001, "k_linear": 35.0}


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
    assert header[:2] == ["seed", "rician_factor"]
    mse = [float(r[header.index("mse_closed")]) for r in data]
    nmse = [float(r[header.index("nmse_closed")]) for r in data]
    assert all(b < a for a, b in zip(mse, mse[1:]))
    assert all(b > a for a, b in zip(nmse, nmse[1:]))
    assert (tmp_path / "nmse-sweep.gp").exists()
    manifest = json.loads((tmp_path / "run-manifest.json").read_text())
    assert manifest["experiment"] == "nmse-sweep"
    assert manifest["seed"] == 5
    assert set(manifest["versions"]) == {"python", "numpy"}


def test_library_does_not_import_scipy():
    """scipy is a test dependency only: importing the harness and the
    optimizer loads no scipy module."""
    src = str(Path(dmimo.harness.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, dmimo.harness, dmimo.optimizer; print(sorted(m for m "
         "in sys.modules if m.split('.')[0] == 'scipy'))"],
        env={"PYTHONPATH": src, "PATH": ""}, check=True, capture_output=True,
        text=True, timeout=120)
    assert out.stdout.strip() == "[]"


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


def test_schedule_compare_refuses_more_than_ten_users(tmp_path):
    """The exhaustive arm's own guard refuses K = 11."""
    spec = spec_for("schedule-compare", tmp_path, trials=1, user_grid=(11,))
    with pytest.raises(ValueError, match="exhaustive search refused"):
        run_experiment(spec)


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


# convergence.csv at seed 0 on the default 8x8 and 10x10 arrays, as written
# when the experiment still called the stages itself rather than reading
# the alternating optimization's first round (and each row still carried
# the build tag, since moved to the manifest); the bandwidth rows are the
# objective after each Newton step of the bandwidth stage, and the SCA step
# is the interior-point GP solver's (the same at one and two BLAS threads)
GOLDEN_CONVERGENCE = [
    ["0", "64", "power-weights", "0", "1391835.39446"],
    ["0", "64", "power-weights", "1", "1394331.88915"],
    ["0", "64", "bandwidth", "1", "1402433.0206"],
    ["0", "64", "bandwidth", "2", "1402433.77862"],
    ["0", "64", "bandwidth", "3", "1402433.77862"],
    ["0", "100", "power-weights", "0", "1978962.89346"],
    ["0", "100", "power-weights", "1", "1987100.22818"],
    ["0", "100", "bandwidth", "1", "2000134.21466"],
    ["0", "100", "bandwidth", "2", "2000134.858"],
    ["0", "100", "bandwidth", "3", "2000134.858"],
]


def test_convergence_matches_golden(tmp_path):
    path = run_experiment(spec_for("convergence", tmp_path, trials=1, seed=0))
    assert read_rows(path)[1:] == GOLDEN_CONVERGENCE


# The Monte Carlo experiments' CSVs at seed 13, as written when the samplers
# still coloured each draw in antenna coordinates (and each row still
# carried the build tag); bound-validate's rate_mc, rate_mc_se and
# rate_bound_mc are those of the engine that draws each user's combined
# receiver noise as one scalar per trial. The same at 1 and 2 BLAS threads
GOLDEN_MC = {
    "nmse-sweep": (500, [
        ["13", "1", "2.70922873124e-15", "2.71281256367e-15",
         "7.75435669976e-18", "0.996814527356", "0.998133125872",
         "0.00285308332596"],
        ["13", "5", "9.0499650504e-16", "9.07043331638e-16",
         "2.68792388314e-18", "0.998934102219", "1.00119338288",
         "0.00296692728077"],
        ["13", "10", "4.93873628028e-16", "4.93882923596e-16",
         "1.40369222767e-18", "0.999418093725", "0.999436902203",
         "0.00284055541231"],
        ["13", "20", "2.58767396687e-16", "2.566895817e-16",
         "7.08327692699e-19", "0.999695039832", "0.991667824353",
         "0.00273647951466"],
        ["13", "50", "1.0657039663e-16", "1.06679181782e-16",
         "3.31063742542e-19", "0.999874387601", "1.00089504096",
         "0.00310613610469"],
        ["13", "100", "5.38161209002e-17", "5.37071585441e-17",
         "1.54113954682e-19", "0.999936564856", "0.997911977129",
         "0.00286353189014"],
        ["13", "1000", "5.43030792779e-18", "5.43212671258e-18",
         "1.56608307467e-20", "0.999993598794", "1.00032852879",
         "0.00288394888584"],
        ["13", "10000", "5.43522602603e-19", "5.44276952872e-19",
         "1.54923253044e-21", "0.999999359297", "1.00138724966",
         "0.00285035347272"],
    ]),
    "bound-validate": (200, [
        ["13", "1", "3305100.86686", "3579994.9079", "32310.2779573",
         "3318142.93395"],
        ["13", "5", "3552459.28435", "3686057.54818", "21690.8774333",
         "3559119.73695"],
        ["13", "10", "3615067.89555", "3743002.45629", "21134.1309348",
         "3644445.23421"],
        ["13", "20", "3652890.10184", "3758002.2181", "20137.7628174",
         "3659259.06261"],
        ["13", "50", "3678241.77178", "3795354.16621", "20277.2013708",
         "3705066.85353"],
        ["13", "100", "3687196.21034", "3752578.3535", "19956.4050767",
         "3650648.3538"],
    ]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MC))
def test_mc_experiments_match_golden(name, tmp_path):
    trials, golden = GOLDEN_MC[name]
    path = run_experiment(spec_for(name, tmp_path, trials=trials, seed=13))
    assert read_rows(path)[1:] == golden


def test_convergence_stops_at_an_unattainable_floor(tmp_path):
    cfg = SystemConfig(rate_requirement=5e5)
    spec = ExperimentSpec(name="convergence", config=cfg, seed=5, trials=1,
                          out_dir=tmp_path,
                          extras={"antenna_grid": ((4, 4),)})
    with pytest.raises(InfeasibleError) as err:
        run_experiment(spec)
    assert err.value.phi == pytest.approx(0.0949, abs=1e-4)
    assert not (tmp_path / "convergence.csv").exists()


def test_cli_reports_an_unattainable_floor_in_one_line(tmp_path, capsys):
    """`dmimo convergence` at a floor no allocation meets exits 1 with one
    line on stderr that names the experiment and the margin phi."""
    config = json.loads((Path(__file__).resolve().parents[1] / "configs"
                         / "default.json").read_text())
    config["rate_requirement"] = 1e9
    path = tmp_path / "floor.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    rc = main(["convergence", "--config", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == ("dmimo convergence: rate requirements "
                            "unattainable (phi = 0.0000)\n")
    assert not (out / "convergence.csv").exists()


def test_benchmark_outputs(tmp_path):
    spec = spec_for("benchmark", tmp_path, trials=2, user_grid=(6,))
    path = run_experiment(spec)
    rows = read_rows(path)
    header, data = rows[0], rows[1:]
    arms = {r[header.index("arm")] for r in data}
    assert arms == {"proposed", "benchmark1", "benchmark2"}
    # as written before the scheduler kept colorings and schedules per
    # RateContext (and each row still carried the build tag); the proposed
    # row is that of the bandwidth stage whose rate model is the bound and
    # of the interior-point GP solver
    assert header[-1] == "num_infeasible"
    assert data == [
        ["5", "6", "proposed", "686591.038563", "114431.83976", "2", "0"],
        ["5", "6", "benchmark1", "685437.164682", "114239.527447", "2", "0"],
        ["5", "6", "benchmark2", "685466.724975", "114244.454163", "2", "0"]]


def test_benchmark_counts_systems_that_miss_the_floor(tmp_path):
    """At a floor no system meets, every row counts all its systems, while
    the mean sum rates are still written."""
    spec = ExperimentSpec(name="benchmark",
                          config=SystemConfig(rate_requirement=1e9), seed=5,
                          trials=2, out_dir=tmp_path,
                          extras={"user_grid": (6, 8)})
    rows = read_rows(run_experiment(spec))
    header, data = rows[0], rows[1:]
    assert len(data) == 6
    for r in data:
        assert r[header.index("num_infeasible")] == \
            r[header.index("num_seeds")] == "2"
        assert float(r[header.index("mean_sum_rate")]) > 0


def test_benchmark_reads_the_config_power(tmp_path, monkeypatch):
    """Every arm of the benchmark experiment runs at the config's power."""
    seen = []

    def proposed(scenario, rng):
        seen.append(("proposed", scenario.config.max_power))
        return types.SimpleNamespace(
            sum_rate=1.0, allocation=types.SimpleNamespace(feasible=True))

    def fixed_weights(scenario, rng, kind):
        seen.append((kind, scenario.config.max_power))
        return types.SimpleNamespace(feasible=True), 1.0

    monkeypatch.setattr(dmimo.harness, "alternating_optimize", proposed)
    monkeypatch.setattr(dmimo.harness, "benchmark_allocation", fixed_weights)
    spec = ExperimentSpec(name="benchmark", config=SystemConfig(max_power=2.0),
                          seed=0, trials=2, out_dir=tmp_path,
                          extras={"user_grid": (6, 8)})
    run_experiment(spec)
    assert seen == [("proposed", 2.0), ("equal", 2.0), ("estimate", 2.0)] * 4


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
    with open(cfg_path, "w", encoding="utf-8") as f:
        json.dump(SystemConfig(num_users=4, pilot_length=2,
                               subband_capacity=4).to_dict(), f)
    out = tmp_path / "cli2"
    rc = main(["nmse-sweep", "--config", str(cfg_path), "--seed", "1",
               "--trials", "200", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "run-manifest.json").read_text())
    assert manifest["config"]["num_users"] == 4


def test_paper_scale_config_is_the_default_at_10x10():
    """The paper's N = 100 array is set by a config, as every other
    parameter is: configs/paper-scale.json is the default at 10 x 10."""
    cfg = SystemConfig.from_json(Path(__file__).resolve().parents[1]
                                 / "configs" / "paper-scale.json")
    assert cfg == SystemConfig().replace(antennas_x=10, antennas_y=10)


def test_bound_validate_manifest_records_the_powers_that_ran(tmp_path):
    """bound-validate runs at 10 W data and pilot power, and its manifest
    lists that config as the system that ran; "config" stays the caller's
    0.2 W."""
    run_experiment(spec_for("bound-validate", tmp_path, trials=MIN_TRIALS,
                            rician_grid=(10.0,)))
    manifest = json.loads((tmp_path / "run-manifest.json").read_text())
    (config,) = manifest["systems"]
    assert config["max_power"] == 10.0 and config["pilot_power"] == 10.0
    assert SystemConfig.from_dict(config) == SystemConfig().replace(
        max_power=10.0, pilot_power=10.0)
    assert SystemConfig.from_dict(manifest["config"]) == SystemConfig()


def _cluster(cfg, K, **kw):
    """K users on four sub-bands, in clusters of three of four satellites;
    ``kw`` sets the rest."""
    return cfg.replace(num_users=K, num_satellites=4, cluster_size=3,
                       num_subbands=4, **kw)


# experiment -> (trials, extras, the configs it runs from the caller's)
SYSTEMS_THAT_RUN = {
    "nmse-sweep": (200, {"rician_grid": (1.0, 10.0)}, lambda cfg: [cfg]),
    "bound-validate": (MIN_TRIALS, {"rician_grid": (10.0,)}, lambda cfg: [
        cfg.replace(max_power=10.0, pilot_power=10.0)]),
    "schedule-compare": (1, {"user_grid": (5, 6)}, lambda cfg: [
        _cluster(cfg, K, subband_capacity=3, pilot_length=K - 1)
        for K in (5, 6)]),
    "convergence": (1, {"antenna_grid": ((2, 2), (3, 2))}, lambda cfg: [
        cfg.replace(antennas_x=2, antennas_y=2),
        cfg.replace(antennas_x=3, antennas_y=2)]),
    "benchmark": (1, {"user_grid": (6, 9)}, lambda cfg: [
        _cluster(cfg, K, pilot_length=K - 2, subband_capacity=3)
        for K in (6, 9)]),
}


@pytest.mark.parametrize("name", sorted(SYSTEMS_THAT_RUN))
def test_manifest_names_the_systems_that_ran(tmp_path, name):
    """Every experiment's manifest lists the configs of the systems that
    ran, in row order, under "systems": the 10 W one of bound-validate,
    the per-K clusters of schedule-compare and benchmark, and the arrays
    of convergence. "config" stays the caller's."""
    trials, extras, systems = SYSTEMS_THAT_RUN[name]
    assert set(SYSTEMS_THAT_RUN) == set(EXPERIMENTS)
    spec = spec_for(name, tmp_path, trials=trials, **extras)
    run_experiment(spec)
    manifest = json.loads((tmp_path / "run-manifest.json").read_text())
    assert SystemConfig.from_dict(manifest["config"]) == spec.config
    assert [SystemConfig.from_dict(d) for d in manifest["systems"]] == \
        systems(spec.config)


def test_build_identifier_stable():
    assert build_identifier() == build_identifier()
    assert build_identifier()


def test_build_identifier_ignores_the_working_directory(tmp_path,
                                                        monkeypatch):
    """Run from inside another git repository, the tag still describes
    the checkout that holds the package."""
    tag = build_identifier()
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["commit", "-q", "--allow-empty", "-m", "x"]):
        subprocess.run(git + args, cwd=tmp_path, check=True,
                       capture_output=True)
    other = subprocess.run(["git", "describe", "--always", "--dirty",
                            "--tags"], cwd=tmp_path, check=True,
                           capture_output=True, text=True).stdout.strip()
    assert other and other != tag
    monkeypatch.chdir(tmp_path)
    build_identifier.cache_clear()  # run git from tmp_path, not the cache
    assert build_identifier() == tag


def test_build_identifier_runs_git_once_per_process(tmp_path, monkeypatch):
    """Two experiments in one process run git describe once between them,
    and both manifests carry its tag."""
    real, calls = subprocess.run, []

    def counted(args, **kwargs):
        calls.append(args)
        return real(args, **kwargs)

    build_identifier.cache_clear()
    monkeypatch.setattr(subprocess, "run", counted)
    tags = []
    for name in ("a", "b"):
        path = run_experiment(spec_for("nmse-sweep", tmp_path / name,
                                       trials=2, rician_grid=(1.0,)))
        manifest = json.loads((path.parent / "run-manifest.json").read_text())
        tags.append(manifest["build"])
    assert len(calls) == 1 and calls[0][:2] == ["git", "describe"]
    assert tags == [build_identifier()] * 2
    assert len(calls) == 1


def test_nmse_sweep_memory_does_not_grow_with_trials(tmp_path):
    """One Rician point of nmse-sweep peaks at no more than 0.8 of a
    T = 2000 channel batch of live arrays (0.72 measured): one block of
    MC_BLOCK trials, with its pilot observations and estimates and the
    error formed in the estimates' place, and every trial's MSE. From
    T = 2000 to 10 000 the peak grows by the added trials' float MSE alone
    (64 kB measured), with a margin of 48 kB, under one float array of the
    8000 added trials. A channel batch, or any other array of every trial,
    held beyond a block would pass the bounds."""
    peaks = {}
    for trials in (2000, 10000):
        spec = spec_for("nmse-sweep", tmp_path / str(trials), trials=trials,
                        seed=0, rician_grid=(10.0,))
        peaks[trials] = peak_traced_bytes(lambda: run_experiment(spec))
    cfg = spec.config
    batch = 2000 * cfg.num_satellites * cfg.num_users * cfg.num_antennas \
        * np.dtype(complex).itemsize
    assert peaks[2000] <= 0.8 * batch
    assert peaks[10000] - peaks[2000] <= 8000 * 8 + 48_000


def test_nmse_sweep_draw_order(tmp_path, monkeypatch):
    """Per block of at most MC_BLOCK trials, nmse-sweep draws the channel
    and then its pilot noise, and nothing else: its per-trial MSE is the
    replay's over the same draws from a fresh generator, block by block,
    and the point's generator is left where the replay leaves its own.
    T = 2 MC_BLOCK + 1 ends in a block of one trial."""
    trials, seen, rngs = 2 * MC_BLOCK + 1, [], []
    spawn, summarize = dmimo.harness._spawn_rngs, dmimo.harness.mean_se

    def spawned(seed, n):
        rngs.extend(spawn(seed, n))
        return rngs

    def spied(samples):
        seen.append(samples.copy())
        return summarize(samples)

    monkeypatch.setattr(dmimo.harness, "_spawn_rngs", spawned)
    monkeypatch.setattr(dmimo.harness, "mean_se", spied)
    spec = spec_for("nmse-sweep", tmp_path, trials=trials,
                    rician_grid=(10.0,))
    run_experiment(spec)

    sc = build_scenario(spec.config, np.random.default_rng(spec.seed)) \
        .with_rician(10.0)
    ref = spawn(spec.seed, 1)[0]
    blocks = []
    for start in range(0, trials, MC_BLOCK):
        h = sample_channel_batch(sc, ref, min(MC_BLOCK, trials - start))[0]
        err = np.abs(h - estimate_batch(sc, h, ref)) ** 2
        blocks.append(err.sum(axis=3).mean(axis=(1, 2)))
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], np.concatenate(blocks))
    assert rngs[0].standard_normal() == ref.standard_normal()


# one small run of each experiment
SMALL_RUNS = [
    ("nmse-sweep", 200, {}),
    ("bound-validate", 200, {"rician_grid": (1.0,)}),
    ("schedule-compare", 1, {"user_grid": (5,)}),
    ("convergence", 1, {"antenna_grid": ((4, 4),)}),
    ("benchmark", 1, {"user_grid": (6,)}),
]


@pytest.mark.parametrize("name, trials, extras", SMALL_RUNS)
def test_build_identifier_runs_once_per_experiment(name, trials, extras,
                                                   tmp_path, monkeypatch):
    """One git describe per experiment, and its tag reaches the manifest.
    The CSV bytes match a run without the counter, and the manifests match
    apart from wall-clock timings."""
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
    manifests = [json.loads((p.parent / "run-manifest.json").read_text())
                 for p in (plain, path)]
    assert manifests[1]["build"] == tag
    for m in manifests:
        m.pop("timings", None)  # wall-clock times differ between runs
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("name, trials, extras", SMALL_RUNS)
def test_csv_bytes_do_not_depend_on_the_build_tag(name, trials, extras,
                                                  tmp_path, monkeypatch):
    """A CSV holds results only: under two build tags its bytes are the
    same, and each run's manifest carries its own tag."""
    outputs = []
    for tag in ("v0-tag-a", "v1-tag-b-dirty"):
        monkeypatch.setattr(dmimo.harness, "build_identifier", lambda: tag)
        path = run_experiment(spec_for(name, tmp_path / tag, trials=trials,
                                       **extras))
        manifest = json.loads((path.parent / "run-manifest.json").read_text())
        assert manifest["build"] == tag
        assert tag.encode() not in path.read_bytes()
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


# each experiment's plotted columns: x by name, then the y columns' names
PLOTTED = {
    "nmse-sweep": ("rician_factor",
                   ["mse_closed", "mse_mc", "nmse_closed", "nmse_mc"]),
    "bound-validate": ("rician_factor",
                       ["rate_lb", "rate_mc", "rate_bound_mc"]),
    "schedule-compare": ("num_users", ["rate_heuristic", "rate_exhaustive",
                                       "rate_shared_band"]),
    "convergence": ("iteration", ["stage", "objective"] * 2),
    "benchmark": ("num_users", ["arm", "mean_sum_rate"] * 3),
}


@pytest.mark.parametrize("name, trials, extras", SMALL_RUNS)
def test_plot_scripts_read_existing_columns(name, trials, extras, tmp_path):
    """Every column a gnuplot ``using`` spec names (``$n``, ``strcol(n)``
    or a bare number) exists in the CSV header, x is the sweep variable,
    and the y side reads the columns it plots."""
    path = run_experiment(spec_for(name, tmp_path, trials=trials, **extras))
    header = read_rows(path)[0]
    specs = re.findall(r" using (.+?) with ",
                       path.with_suffix(".gp").read_text())
    xname, ynames = PLOTTED[name]
    seen = []
    for using in specs:
        x, y = using.split(":", 1)
        cols = [int(y)] if y.isdigit() else [
            int(a or b) for a, b in re.findall(r"strcol\((\d+)\)|\$(\d+)", y)]
        assert all(1 <= c <= len(header) for c in [int(x), *cols]), using
        assert header[int(x) - 1] == xname
        seen += [header[c - 1] for c in cols]
    assert seen == ynames

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
from dmimo.rate import MIN_TRIALS
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
])
def test_cli_reports_a_bad_config(text, message, tmp_path, capsys):
    """A missing file, invalid JSON, an unknown field (nested ones
    included), a wrongly typed value, a malformed or short Rician table
    and an invalid config each end in a usage error that names the file
    and the field, not in a traceback or a run with a default."""
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
# carried the build tag); the same at 1 and 2 BLAS threads
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
        ["13", "1", "3305100.86686", "3570623.81078", "33213.7110487",
         "3312034.52792"],
        ["13", "5", "3552459.28435", "3685570.01652", "23854.4416991",
         "3546184.96153"],
        ["13", "10", "3615067.89555", "3740743.99907", "22401.8074714",
         "3629884.42489"],
        ["13", "20", "3652890.10184", "3759853.71217", "18712.1919162",
         "3668453.51871"],
        ["13", "50", "3678241.77178", "3803458.0895", "18325.0253134",
         "3717299.29082"],
        ["13", "100", "3687196.21034", "3794932.722", "17626.7492052",
         "3706851.60068"],
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


def test_nmse_sweep_holds_a_channel_batch_and_its_estimates(tmp_path):
    """One Rician point of nmse-sweep at T = 2000 peaks at no more than 2.8
    channel batches of live arrays: the batch, its pilot observations and
    its estimates (2.65 batches), with the error formed in the estimates'
    place. One more batch-sized copy (of the draw, or a temporary of the
    error) would pass the bound."""
    spec = spec_for("nmse-sweep", tmp_path, trials=2000, seed=0,
                    rician_grid=(10.0,))
    cfg = spec.config
    batch = spec.trials * cfg.num_satellites * cfg.num_users \
        * cfg.num_antennas * np.dtype(complex).itemsize
    assert peak_traced_bytes(lambda: run_experiment(spec)) <= 2.8 * batch


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

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmimo.config import ConfigError, CorrelationModel, SystemConfig
from dmimo.scenario import (
    DomainError,
    assign_pilots_random,
    build_scenario,
    noise_power,
    path_gain,
    select_serving_satellites,
    slant_range,
)

from conftest import AO_PAPER_FLOOR, make_scenario

CFG = SystemConfig()


def test_noise_power_table_constants():
    # B=1 MHz with k_B=1.381e-23, T0=290, N_dB=9
    assert noise_power(1e6, CFG) == pytest.approx(3.1812e-14, rel=1e-4)


def test_noise_power_unit_bandwidth_no_figure():
    cfg = CFG.replace(noise_figure_db=0.0)
    assert noise_power(1.0, cfg) == pytest.approx(4.0049e-21, rel=1e-4)


def test_noise_power_linear_in_bandwidth():
    assert noise_power(2e6, CFG) == pytest.approx(2.0 * noise_power(1e6, CFG))


def test_noise_power_rejects_negative():
    assert noise_power(0.0, CFG) == 0.0
    with pytest.raises(DomainError):
        noise_power(-1.0, CFG)


def test_path_gain_reference_distance():
    beta = path_gain(550e3, CFG)
    loss_db = -10.0 * math.log10(beta)
    assert loss_db == pytest.approx(147.28, abs=0.01)
    assert beta == pytest.approx(10 ** (-14.728), rel=3e-3)


def test_path_gain_log_law():
    l1 = -10 * math.log10(path_gain(1e5, CFG))
    l2 = -10 * math.log10(path_gain(2e5, CFG))
    assert l2 - l1 == pytest.approx(20 * math.log10(2), abs=1e-9)


def test_path_gain_round_number():
    cfg = CFG.replace(rx_gain_dbi=0.0, tx_gain_dbi=0.0)
    # choose d so that 4 pi d f / c = 10
    d = 10.0 * 2.998e8 / (4 * math.pi * cfg.carrier_frequency)
    assert -10 * math.log10(path_gain(d, cfg)) == pytest.approx(20.0,
                                                                abs=1e-9)


def test_rician_lookup_and_out_of_range():
    cfg = SystemConfig(rician_records=((20.0, 30.0, 10.0),))
    assert cfg.rician_factor(20.05) == 10.0
    with pytest.raises(ConfigError):
        cfg.rician_factor(35.0)
    assert cfg.replace(rician_override=2.5).rician_factor(35.0) == 2.5


def test_select_serving_satellites():
    for betas, size, want in (([3.0, 1.0, 2.0], 2, [0, 2]),
                              ([1.0, 1.0, 1.0], 1, [0]),
                              ([1.0, 2.0, 3.0], 3, [0, 1, 2]),
                              ([1.0, 2.0, 3.0], 2, [1, 2])):
        got = select_serving_satellites(betas, size)
        assert got.dtype == np.intp and got.tolist() == want
    with pytest.raises(DomainError):
        select_serving_satellites([1.0], 2)


def test_assign_pilots_single_pilot_cohort():
    pilots = assign_pilots_random(4, 1, np.random.default_rng(0))
    assert pilots.tolist() == [0, 0, 0, 0]
    sc = replace(make_scenario(num_users=4, subband_capacity=4),
                 pilots=pilots)
    assert sc.cohort.all()


def test_cohort_is_the_shared_pilot_relation():
    sc = make_scenario(seed=5, num_users=8, pilot_length=3,
                       subband_capacity=8)
    for k in range(8):
        for kp in range(8):
            assert sc.cohort[k, kp] == (sc.pilots[k] == sc.pilots[kp])


def test_assign_pilots_deterministic():
    a = assign_pilots_random(6, 3, np.random.default_rng(42))
    b = assign_pilots_random(6, 3, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_build_scenario_deterministic():
    cfg = SystemConfig()
    a = build_scenario(cfg, np.random.default_rng(7))
    b = build_scenario(cfg, np.random.default_rng(7))
    for name in ("beta", "rician", "los", "pilots"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    for sa, sb in zip(a.serving_sets, b.serving_sets, strict=True):
        np.testing.assert_array_equal(sa, sb)


def test_rician_scale_is_beta_over_kbar_plus_one(default_scenario):
    sc = default_scenario
    for m in range(sc.num_satellites):
        for k in range(sc.num_users):
            assert sc.rician_scale[m, k] == \
                sc.beta[m, k] / (sc.rician[m, k] + 1.0)


def test_with_rician_keeps_the_rest_and_the_correlation():
    sc = make_scenario(seed=4, correlation=CorrelationModel("exponential",
                                                            0.7))
    swept = sc.with_rician(5.0)
    assert swept.rician.dtype == float and (swept.rician == 5.0).all()
    assert swept.correlation is sc.correlation
    for name in ("config", "beta", "los", "pilots", "serving_sets"):
        assert getattr(swept, name) is getattr(sc, name)
    assert (sc.rician != 5.0).any()
    # the correlation follows the config, so a replaced config builds its own
    plain = replace(sc, config=sc.config.replace(
        correlation=CorrelationModel()))
    np.testing.assert_array_equal(plain.correlation.eigvals, 1.0)


def test_config_rejects_infeasible_partition():
    with pytest.raises(ConfigError):
        SystemConfig(num_users=5, num_subbands=2, subband_capacity=2)


def test_table_one_configuration_accepted():
    cfg = SystemConfig(antennas_x=10, antennas_y=10)
    assert cfg.num_antennas == 100
    build_scenario(cfg, np.random.default_rng(0))


def test_serving_set_optimality(default_scenario):
    sc = default_scenario
    for k in range(sc.num_users):
        betas = sc.beta[:, k]
        inside = [betas[m] for m in sc.serving_sets[k]]
        outside = [betas[m] for m in range(sc.num_satellites)
                   if m not in sc.serving_sets[k]]
        if outside:
            assert min(inside) >= max(outside)


@given(st.floats(min_value=1e3, max_value=1e7),
       st.floats(min_value=1.01, max_value=5.0))
@settings(max_examples=50, deadline=None)
def test_path_gain_strictly_decreasing(d, factor):
    assert path_gain(d * factor, CFG) < path_gain(d, CFG)


@given(st.floats(min_value=0.0, max_value=math.pi / 2))
@settings(max_examples=50, deadline=None)
def test_slant_range_at_least_altitude(elev):
    assert slant_range(elev, 550e3) >= 550e3 - 1e-6


# sha256 of a built scenario's beta, Rician factors, LoS vectors, pilots and
# sorted serving sets, each as its C-order bytes (float64, complex128,
# int64). Building a scenario makes no BLAS call, so the digests do not
# depend on the thread count.
GOLDEN_SCENARIOS = {
    ("default", 0):
        "f348462d252918e55fe003403bb85de61eefe9f63dc8feaf71ac3cf6724b6464",
    ("default", 7):
        "1b9eec9ac360a1c9848fa83b5a54854e663c6a5ca09260e8227e291528cc8069",
    ("default", 13):
        "f60fa51bf2b72670eaa0e2d25d190aa68022b56d207956f6fa6ffa664aeb135c",
    ("paper-floor", 1011):
        "8e49c7899a9a2bca09c3368df4cc220a37b798db98fad2931e75333e27f34002",
    ("exponential", 3):
        "c7182c2955262704fa43d00d0ff75468074fe586bb9fc009ac10e43dcf5e45d2",
}
GOLDEN_CONFIGS = {
    "default": SystemConfig(),
    "paper-floor": AO_PAPER_FLOOR,
    "exponential": SystemConfig(
        correlation=CorrelationModel("exponential", 0.7)),
}


@pytest.mark.parametrize("name, seed", sorted(GOLDEN_SCENARIOS))
def test_scenario_matches_golden(name, seed):
    sc = build_scenario(GOLDEN_CONFIGS[name], np.random.default_rng(seed))
    digest = hashlib.sha256()
    for a in (sc.beta, sc.rician, sc.los, sc.pilots.astype(np.int64),
              *(s.astype(np.int64) for s in sc.serving_sets)):
        digest.update(np.ascontiguousarray(a).tobytes())
    assert digest.hexdigest() == GOLDEN_SCENARIOS[name, seed]

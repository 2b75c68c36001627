import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmimo.config import ConfigError, RicianTable, SystemConfig
from dmimo.scenario import (
    DomainError,
    assign_pilots_random,
    build_scenario,
    noise_power,
    path_gain,
    select_serving_satellites,
    slant_range,
)

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
    table = RicianTable.from_records(
        [{"min_deg": 20.0, "max_deg": 30.0, "k_linear": 10.0}]
    )
    assert table.lookup(20.05) == 10.0
    with pytest.raises(ConfigError):
        table.lookup(35.0)


def test_select_serving_satellites():
    assert select_serving_satellites([3.0, 1.0, 2.0], 2) == {0, 2}
    assert select_serving_satellites([1.0, 1.0, 1.0], 1) == {0}
    assert select_serving_satellites([1.0, 2.0, 3.0], 3) == {0, 1, 2}
    with pytest.raises(DomainError):
        select_serving_satellites([1.0], 2)


def test_assign_pilots_single_pilot_cohort():
    pa = assign_pilots_random(4, 1, np.random.default_rng(0))
    assert pa.cohort(2) == (0, 1, 2, 3)


def test_assign_pilots_deterministic():
    a = assign_pilots_random(6, 3, np.random.default_rng(42))
    b = assign_pilots_random(6, 3, np.random.default_rng(42))
    assert a.pilot_index == b.pilot_index


def test_build_scenario_deterministic():
    cfg = SystemConfig(rng_seed=7)
    a = build_scenario(cfg, np.random.default_rng(7))
    b = build_scenario(cfg, np.random.default_rng(7))
    assert a.pilots.pilot_index == b.pilots.pilot_index
    assert a.serving_sets == b.serving_sets
    for m in range(cfg.num_satellites):
        for k in range(cfg.num_users):
            np.testing.assert_array_equal(a.link(m, k).los_vector,
                                          b.link(m, k).los_vector)
            assert a.link(m, k).beta == b.link(m, k).beta


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
        betas = sc.link_array("beta")[:, k]
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

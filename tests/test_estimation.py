import dataclasses

import numpy as np
import pytest

from conftest import (
    UNIT_NOISE,
    cohort_psi,
    make_scenario,
    manual_link,
    manual_scenario,
)
from dmimo.channel import complex_normal, sample_channel_batch
from dmimo.config import SystemConfig
from dmimo.estimation import (
    estimate_batch,
    mse,
    nmse,
    psi_matrix,
    scenario_estimation_stats,
)


def test_psi_scalar_single_user():
    psi = psi_matrix([np.eye(1)], 1, [1.0], 1.0)
    assert psi[0, 0] == pytest.approx(0.5)


def test_psi_scalar_two_cohort_users():
    psi = psi_matrix([np.eye(1), np.eye(1)], 1, [1.0, 1.0], 1.0)
    assert psi[0, 0] == pytest.approx(1.0 / 3.0)


def test_psi_noise_dominated_limit():
    sigma2 = 1e12
    psi = psi_matrix([np.eye(3)], 1, [1.0], sigma2)
    np.testing.assert_allclose(psi, np.eye(3) / sigma2, rtol=1e-9)


def test_psi_rejects_zero_noise():
    with pytest.raises(ValueError):
        psi_matrix([np.eye(1)], 1, [1.0], 0.0)


def test_nmse_scalar_hand_case(scalar_scenario):
    # R=1, tau=1, p^p=1, sigma^2=1 -> Psi=1/2, NMSE=(1-1/2)/1=0.5
    assert scalar_scenario.fullband_noise == 1.0
    assert nmse(scalar_scenario, 0, 0) == pytest.approx(0.5)
    assert mse(scalar_scenario, 0, 0) == pytest.approx(0.5)


def test_estimation_stats_identities(default_scenario):
    stats = scenario_estimation_stats(default_scenario)
    for (m, k), st in stats.items():
        np.testing.assert_allclose(st.est_cov + st.err_cov, st.R, atol=1e-24)
        psi = cohort_psi(default_scenario, m, k)
        np.testing.assert_allclose(psi, psi.conj().T, atol=1e-12)
        for mat in (st.est_cov, st.err_cov):
            vals = np.linalg.eigvalsh(mat)
            assert vals.min() > -1e-24
        assert np.trace(st.err_cov).real <= np.trace(st.R).real + 1e-24


def test_perfect_estimation_limit():
    # orthogonal pilots, vanishing noise -> hhat ~ h (Remark 1)
    sc = make_scenario(seed=11, num_users=3, pilot_length=3,
                       num_subbands=2, subband_capacity=3,
                       pilot_power=1.0, rician_override=1.0)
    # force orthogonal pilots, at 1e-8 of the default noise temperature
    from dmimo.scenario import PilotAssignment, Scenario
    cfg = sc.config
    quiet = Scenario(config=cfg.replace(
                         noise_temperature=cfg.noise_temperature * 1e-8),
                     links=sc.links, pilots=PilotAssignment((0, 1, 2)),
                     serving_sets=sc.serving_sets)
    assert quiet.fullband_noise == pytest.approx(sc.fullband_noise * 1e-8)
    sc = quiet
    for m in range(sc.num_satellites):
        for k in range(sc.num_users):
            assert nmse(sc, m, k) < 1e-6
    h, _ = sample_channel_batch(sc, np.random.default_rng(0), 4)
    hhat, _ = estimate_batch(sc, h, np.random.default_rng(1))
    rel = np.linalg.norm(hhat - h) / np.linalg.norm(h)
    assert rel < 1e-3


def test_estimate_second_moment_matches_C():
    sc = make_scenario(seed=5)
    stats = scenario_estimation_stats(sc)
    h, _ = sample_channel_batch(sc, np.random.default_rng(2), 20000)
    hhat, _ = estimate_batch(sc, h, np.random.default_rng(3))
    m, k = 0, 1
    link = sc.link(m, k)
    mean = np.sqrt(link.rician * link.rician_scale) * link.los_vector
    centered = hhat[:, m, k, :] - mean
    emp = (np.abs(centered) ** 2).sum(axis=1)
    closed = np.trace(stats[(m, k)].est_cov).real
    se = emp.std(ddof=1) / np.sqrt(len(emp))
    assert abs(emp.mean() - closed) < 3 * se
    # estimator is unbiased: empirical mean matches the LoS mean
    emp_mean = hhat[:, m, k, :].mean(axis=0)
    tol = 4 * np.abs(centered).std() / np.sqrt(len(emp))
    assert np.abs(emp_mean - mean).max() < tol


def test_mmse_orthogonality():
    sc = make_scenario(seed=6)
    h, _ = sample_channel_batch(sc, np.random.default_rng(4), 20000)
    hhat, _ = estimate_batch(sc, h, np.random.default_rng(5))
    m, k = 1, 2
    err = h[:, m, k, :] - hhat[:, m, k, :]
    link = sc.link(m, k)
    mean = np.sqrt(link.rician * link.rician_scale) * link.los_vector
    cross = ((hhat[:, m, k, :] - mean).conj() * err).sum(axis=1)
    se = np.abs(cross).std(ddof=1) / np.sqrt(len(cross))
    assert abs(cross.mean()) < 3 * se


def test_mse_mc_agreement():
    sc = make_scenario(seed=7)
    h, _ = sample_channel_batch(sc, np.random.default_rng(6), 10000)
    hhat, _ = estimate_batch(sc, h, np.random.default_rng(7))
    m, k = 0, 0
    emp = (np.abs(h[:, m, k, :] - hhat[:, m, k, :]) ** 2).sum(axis=1)
    closed = mse(sc, m, k)
    se = emp.std(ddof=1) / np.sqrt(len(emp))
    assert abs(emp.mean() - closed) < 3 * se


def test_nmse_monotone_in_rician(default_scenario):
    grid = [1.0, 5.0, 20.0, 100.0, 1e4]
    nm = [nmse(default_scenario.with_rician(kb), 0, 0) for kb in grid]
    ms = [mse(default_scenario.with_rician(kb), 0, 0) for kb in grid]
    assert all(b > a for a, b in zip(nm, nm[1:]))
    assert all(b < a for a, b in zip(ms, ms[1:]))
    assert nm[-1] > 0.99


def test_nmse_degenerate_zero_covariance():
    cfg = SystemConfig(
        num_satellites=1, num_users=2, antennas_x=1, antennas_y=1,
        num_subbands=1, pilot_length=1, pilot_power=1.0, cluster_size=1,
        subband_capacity=2, **UNIT_NOISE,
    )
    links = [[manual_link(0.0, 1.0, [1.0]), manual_link(0.0, 1.0, [1.0])]]
    sc = manual_scenario(cfg, links, pilots=(0, 1), serving_sets=[{0}, {0}])
    assert nmse(sc, 0, 0) == 1.0


def test_scenario_caches_estimation_stats(default_scenario):
    sc = default_scenario
    cached = sc.estimation_stats
    assert sc.estimation_stats is cached
    fresh = scenario_estimation_stats(sc)
    assert cached.keys() == fresh.keys()
    for key, st in fresh.items():
        for name in ("R", "rpsi", "tau_p", "est_cov", "err_cov"):
            assert np.array_equal(getattr(cached[key], name),
                                  getattr(st, name))


def test_err_cov_is_formed_on_access(default_scenario):
    """Only R, the filter R Psi and tau p are stored; C and E are formed
    on access, with C's arithmetic that of tau p R Psi R."""
    cfg = default_scenario.config
    st = default_scenario.estimation_stats[(0, 0)]
    psi = cohort_psi(default_scenario, 0, 0)
    assert [f.name for f in dataclasses.fields(st)] == ["R", "rpsi", "tau_p"]
    assert st.tau_p == cfg.pilot_length * cfg.pilot_power
    assert np.array_equal(st.rpsi, st.R @ psi)
    assert np.array_equal(st.est_cov,
                          cfg.pilot_length * cfg.pilot_power
                          * (st.R @ psi @ st.R))
    assert np.array_equal(st.err_cov, st.R - st.est_cov)


def test_estimate_batch_defaults_to_cached_stats(default_scenario):
    """The estimator filters with the scenario's cached statistics, which
    equal freshly computed ones, and draws its pilot noise at the full-band
    noise power."""
    sc = default_scenario
    cached = sc.estimation_stats
    h, _ = sample_channel_batch(sc, np.random.default_rng(0), 8)
    hhat, noise = estimate_batch(sc, h, np.random.default_rng(1))
    assert sc.estimation_stats is cached
    ref = _estimate_per_user(sc, h, noise, scenario_estimation_stats(sc))
    assert np.array_equal(hhat, ref)
    cfg = sc.config
    shape = (8, sc.num_satellites, cfg.pilot_length, sc.num_antennas)
    assert np.array_equal(noise, np.sqrt(sc.fullband_noise) * complex_normal(
        np.random.default_rng(1), shape))


def _estimate_per_user(scenario, h_batch, noise, stats):
    """The estimator written per (m, k): each user rebuilds its pilot's
    centered observation. Reference for estimate_batch."""
    cfg = scenario.config
    sqrt_tp = np.sqrt(cfg.pilot_length * cfg.pilot_power)
    hhat = np.empty_like(h_batch)
    for m in range(scenario.num_satellites):
        for k in range(scenario.num_users):
            link = scenario.link(m, k)
            t = scenario.pilots.pilot_index[k]
            own_mean = np.sqrt(link.rician * link.rician_scale) \
                * link.los_vector
            resid = noise[:, m, t, :].copy()
            for j in scenario.pilots.cohort(k):
                lj = scenario.link(m, j)
                mean_j = np.sqrt(lj.rician * lj.rician_scale) * lj.los_vector
                resid += sqrt_tp * (h_batch[:, m, j, :] - mean_j[None])
            filt = sqrt_tp * (stats[(m, k)].R @ cohort_psi(scenario, m, k))
            hhat[:, m, k, :] = own_mean[None] + resid @ filt.T
    return hhat


@pytest.mark.parametrize("users, pilots", [(5, 3), (8, 3), (5, 5)])
def test_estimate_batch_matches_per_user_reference(users, pilots):
    sc = make_scenario(seed=users + pilots, num_users=users,
                       pilot_length=pilots, num_subbands=2,
                       subband_capacity=users)
    h, _ = sample_channel_batch(sc, np.random.default_rng(0), 16)
    hhat, noise = estimate_batch(sc, h, np.random.default_rng(1))
    ref = _estimate_per_user(sc, h, noise, sc.estimation_stats)
    assert np.array_equal(hhat, ref)

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    AO_PAPER_FLOOR,
    UNIT_NOISE,
    cohort_psi,
    complex_delta,
    dense_rate_context,
    dense_stats,
    los_mean,
    make_scenario,
    manual_scenario,
    pilot_cohort,
    psi_matrix,
    reference_channel,
    reference_estimates,
    with_correlation,
)
from dmimo.channel import complex_normal, link_arrays, sample_channel_batch
from dmimo.config import ConfigError, CorrelationModel, SystemConfig
from dmimo.estimation import (
    estimate_batch,
    link_estimates,
    mse,
    nmse,
    pilot_observations,
    scenario_estimation_stats,
)
from dmimo.rate import RateContext
from dmimo.scenario import build_scenario


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
    """Psi needs sigma^2 > 0, so a config whose full-band noise power
    underflows to 0 is rejected when it is made."""
    with pytest.raises(ConfigError, match="noise"):
        SystemConfig(boltzmann=1e-200, noise_temperature=1e-200)
    tiny = make_scenario(boltzmann=1e-150, noise_temperature=1e-150)
    assert tiny.fullband_noise > 0.0
    with pytest.raises(ValueError):  # the dense reference's own check
        psi_matrix([np.eye(1)], 1, [1.0], 0.0)


def test_nmse_scalar_hand_case(scalar_scenario):
    # R=1, tau=1, p^p=1, sigma^2=1 -> Psi=1/2, NMSE=(1-1/2)/1=0.5
    assert scalar_scenario.fullband_noise == 1.0
    assert nmse(scalar_scenario, 0, 0) == pytest.approx(0.5)
    assert mse(scalar_scenario, 0, 0) == pytest.approx(0.5)


def test_estimation_stats_identities(default_scenario):
    sc = default_scenario
    st = scenario_estimation_stats(sc)
    np.testing.assert_allclose(st.est_cov + st.err_cov, st.cov, atol=1e-24)
    for spectrum in (st.cov, st.filt, st.est_cov, st.err_cov):
        assert spectrum.min() > -1e-24
    assert np.all(st.err_cov.sum(axis=2) <= st.cov.sum(axis=2) + 1e-24)
    for m in range(sc.num_satellites):
        for k in range(sc.num_users):
            psi = cohort_psi(sc, m, k)
            np.testing.assert_allclose(psi, psi.conj().T, atol=1e-12)


def test_perfect_estimation_limit():
    # orthogonal pilots, vanishing noise -> hhat ~ h (Remark 1)
    sc = make_scenario(seed=11, num_users=3, pilot_length=3,
                       num_subbands=2, subband_capacity=3,
                       pilot_power=1.0, rician_override=1.0)
    # force orthogonal pilots, at 1e-8 of the default noise temperature
    cfg = sc.config
    quiet = dataclasses.replace(
        sc, config=cfg.replace(noise_temperature=cfg.noise_temperature * 1e-8),
        pilots=np.array([0, 1, 2]))
    assert quiet.fullband_noise == pytest.approx(sc.fullband_noise * 1e-8)
    sc = quiet
    for m in range(sc.num_satellites):
        for k in range(sc.num_users):
            assert nmse(sc, m, k) < 1e-6
    h, _ = sample_channel_batch(sc, np.random.default_rng(0), 4)
    hhat = estimate_batch(sc, h, np.random.default_rng(1))
    rel = np.linalg.norm(hhat - h) / np.linalg.norm(h)
    assert rel < 1e-3


def test_estimate_second_moment_matches_C():
    sc = make_scenario(seed=5)
    stats = scenario_estimation_stats(sc)
    h, _ = sample_channel_batch(sc, np.random.default_rng(2), 20000)
    hhat = estimate_batch(sc, h, np.random.default_rng(3))
    m, k = 0, 1
    mean = np.sqrt(sc.rician[m, k] * sc.rician_scale[m, k]) * sc.los[m, k]
    centered = hhat[:, m, k, :] - mean
    emp = (np.abs(centered) ** 2).sum(axis=1)
    closed = stats.est_cov[m, k].sum()
    se = emp.std(ddof=1) / np.sqrt(len(emp))
    assert abs(emp.mean() - closed) < 3 * se
    # estimator is unbiased: empirical mean matches the LoS mean
    emp_mean = hhat[:, m, k, :].mean(axis=0)
    tol = 4 * np.abs(centered).std() / np.sqrt(len(emp))
    assert np.abs(emp_mean - mean).max() < tol


def test_mmse_orthogonality():
    sc = make_scenario(seed=6)
    h, _ = sample_channel_batch(sc, np.random.default_rng(4), 20000)
    hhat = estimate_batch(sc, h, np.random.default_rng(5))
    m, k = 1, 2
    err = h[:, m, k, :] - hhat[:, m, k, :]
    mean = np.sqrt(sc.rician[m, k] * sc.rician_scale[m, k]) * sc.los[m, k]
    cross = ((hhat[:, m, k, :] - mean).conj() * err).sum(axis=1)
    se = np.abs(cross).std(ddof=1) / np.sqrt(len(cross))
    assert abs(cross.mean()) < 3 * se


def test_mse_mc_agreement():
    sc = make_scenario(seed=7)
    h, _ = sample_channel_batch(sc, np.random.default_rng(6), 10000)
    hhat = estimate_batch(sc, h, np.random.default_rng(7))
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
    sc = manual_scenario(cfg, beta=[[0.0, 0.0]], rician=[[1.0, 1.0]],
                         los=[[[1.0], [1.0]]], pilots=(0, 1),
                         serving_sets=[{0}, {0}])
    assert nmse(sc, 0, 0) == 1.0


STATS_ARRAYS = ("cov", "filt", "tau_p", "est_cov", "err_cov")


def test_scenario_caches_estimation_stats(default_scenario):
    sc = default_scenario
    cached = sc.estimation_stats
    assert sc.estimation_stats is cached
    fresh = scenario_estimation_stats(sc)
    for name in STATS_ARRAYS:
        assert np.array_equal(getattr(cached, name), getattr(fresh, name))


def test_err_cov_is_formed_on_access(default_scenario):
    """Only the spectra of R and of the filter R Psi, and tau p, are
    stored; C and E are formed on access, C as tau p (R Psi) R. The filter
    equals the dense R Psi rotated into the correlation's basis U."""
    cfg = default_scenario.config
    st = default_scenario.estimation_stats
    assert [f.name for f in dataclasses.fields(st)] == [
        "cov", "filt", "tau_p"]
    assert st.tau_p == cfg.pilot_length * cfg.pilot_power
    assert np.array_equal(st.est_cov, st.tau_p * (st.filt * st.cov))
    assert np.array_equal(st.err_cov, st.cov - st.est_cov)
    u = default_scenario.correlation.basis
    for m in range(default_scenario.num_satellites):
        for k in range(default_scenario.num_users):
            ref = u.conj().T @ dense_stats(default_scenario, m, k).rpsi @ u
            got = np.diag(st.filt[m, k])
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_estimate_batch_defaults_to_cached_stats(default_scenario):
    """The estimator filters with the scenario's cached statistics, which
    equal freshly computed ones, and draws its pilot noise at the full-band
    noise power."""
    sc = default_scenario
    cached = sc.estimation_stats
    h, _ = sample_channel_batch(sc, np.random.default_rng(0), 8)
    hhat = estimate_batch(sc, h, np.random.default_rng(1))
    assert sc.estimation_stats is cached
    noise = _pilot_noise(sc, 8, 1)
    ref = _estimate_per_user(sc, h, noise, scenario_estimation_stats(sc))
    assert np.array_equal(hhat, ref)


def test_link_estimates_leave_the_observations_unchanged(default_scenario):
    """link_estimates gives estimate_batch's estimates and writes nothing
    to the observations: neither with a slice of satellites, whose pick is
    a view of them, nor with an array of users, whose pick is a copy that
    it scales in place."""
    sc = default_scenario
    h, _ = sample_channel_batch(sc, np.random.default_rng(0), 8)
    hhat = estimate_batch(sc, h, np.random.default_rng(1))
    obs, mean = pilot_observations(sc, h, np.random.default_rng(1))
    before = obs.copy()
    users = np.arange(sc.num_users)
    for k, sats, ref in ((0, slice(None), hhat[:, :, 0]),
                         (users, 1, hhat[:, 1]),
                         (users[::-2], slice(1, 3), None),
                         (3, 2, hhat[:, 2, 3])):
        got = link_estimates(sc, obs, mean, k, sats)
        assert np.array_equal(obs, before)
        if ref is not None:
            assert np.array_equal(got, ref)


def _pilot_noise(scenario, trials, seed):
    """The pilot noise that ``estimate_batch`` draws from a fresh generator
    at `seed`: (T, M, tau, N) CN(0, sigma^2 I) at the full-band noise
    power, replayed by the first draw of a generator at the same seed."""
    shape = (trials, scenario.num_satellites, scenario.config.pilot_length,
             scenario.num_antennas)
    return np.sqrt(scenario.fullband_noise) * complex_normal(
        np.random.default_rng(seed), shape)


def _estimate_per_user(scenario, h_batch, noise, stats):
    """The estimator written per (m, k) in U's coordinates: each user
    rebuilds its pilot's centered observation and scales it by its
    filter's spectrum. Reference for estimate_batch's shared pilot
    observations."""
    cfg = scenario.config
    sqrt_tp = np.sqrt(cfg.pilot_length * cfg.pilot_power)
    mean, _ = link_arrays(scenario)
    hhat = np.empty_like(h_batch)
    for m in range(scenario.num_satellites):
        for k in range(scenario.num_users):
            t = scenario.pilots[k]
            resid = noise[:, m, t, :].copy()
            for j in pilot_cohort(scenario, k):
                resid += sqrt_tp * (h_batch[:, m, j, :] - mean[m, j])
            hhat[:, m, k, :] = mean[m, k] \
                + resid * (sqrt_tp * stats.filt[m, k])
    return hhat


@pytest.mark.parametrize("users, pilots", [(5, 3), (8, 3), (5, 5)])
def test_estimate_batch_matches_per_user_reference(users, pilots):
    sc = make_scenario(seed=users + pilots, num_users=users,
                       pilot_length=pilots, num_subbands=2,
                       subband_capacity=users)
    h, _ = sample_channel_batch(sc, np.random.default_rng(0), 16)
    hhat = estimate_batch(sc, h, np.random.default_rng(1))
    ref = _estimate_per_user(sc, h, _pilot_noise(sc, 16, 1),
                             sc.estimation_stats)
    assert np.array_equal(hhat, ref)


def _close(got, ref, rel=1e-12):
    """Every entry within rel of the reference's largest magnitude."""
    return np.abs(got - ref).max() <= rel * np.abs(ref).max()


@given(correlation=st.sampled_from(["identity", "exponential", "complex"]),
       r=st.floats(min_value=0.0, max_value=0.99),
       side=st.sampled_from([1, 4, 10]),
       num_users=st.integers(min_value=4, max_value=6),
       num_satellites=st.integers(min_value=1, max_value=2),
       quiet=st.booleans(),
       seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=30, deadline=None)
def test_spectral_statistics_match_dense_reference(
        correlation, r, side, num_users, num_satellites, quiet, seed):
    """On identity, exponential and complex Hermitian correlation at
    N = 1, 16 and 100, with every pilot shared by at least two users, the
    spectral statistics give the RateContext, MSE and NMSE of the dense
    MMSE reference. The channels and estimates, drawn in U's coordinates
    and rotated back by U, are the antenna-coordinate reference's for the
    draw U z and the pilot noise U n; at Delta = I the channels are the
    reference's bit for bit. A quiet system (noise at 1e-4) is limited by
    pilot contamination rather than by noise."""
    model = CorrelationModel("exponential", r) \
        if correlation == "exponential" else CorrelationModel()
    tau = num_users // 2
    cfg = SystemConfig(
        num_users=num_users, num_satellites=num_satellites, cluster_size=1,
        num_subbands=2, subband_capacity=num_users, pilot_length=tau,
        antennas_x=side, antennas_y=side, correlation=model,
        noise_temperature=290.0 * (1e-4 if quiet else 1.0))
    built = build_scenario(cfg, np.random.default_rng(seed))
    sc = dataclasses.replace(built, pilots=np.arange(num_users) % tau)
    if correlation == "complex":
        sc = with_correlation(sc, complex_delta(sc.num_antennas))
    assert min(len(pilot_cohort(sc, k)) for k in range(num_users)) >= 2

    ctx = RateContext(sc)
    for name, ref in dense_rate_context(sc).items():
        assert _close(getattr(ctx, name), ref), name

    M, K = sc.num_satellites, sc.num_users
    dense = [[dense_stats(sc, m, k) for k in range(K)] for m in range(M)]
    tr_e = np.array([[np.trace(d.E).real for d in row] for row in dense])
    tr_r = np.array([[np.trace(d.R).real for d in row] for row in dense])
    assert _close(np.array([[mse(sc, m, k) for k in range(K)]
                            for m in range(M)]), tr_e)
    assert _close(np.array([[nmse(sc, m, k) for k in range(K)]
                            for m in range(M)]), tr_e / tr_r)

    h, z = sample_channel_batch(sc, np.random.default_rng(seed), 2)
    hhat = estimate_batch(sc, h, np.random.default_rng(seed + 1))
    noise = _pilot_noise(sc, 2, seed + 1)
    u = sc.correlation.basis
    h_ref = reference_channel(sc, z @ u.T)
    assert _close(h @ u.T, h_ref)
    if correlation == "identity":
        assert np.array_equal(h @ u.T, h_ref)
    # the estimates' centred parts, each link's against its own largest
    got = hhat @ u.T - los_mean(sc)
    ref = reference_estimates(sc, h_ref, noise @ u.T) - los_mean(sc)
    for m in range(M):
        for k in range(K):
            assert _close(got[:, m, k, :], ref[:, m, k, :]), (m, k)


def test_statistics_are_spectra_without_inverses(monkeypatch):
    """At paper scale (N = 100, K = 16) the statistics and the RateContext
    are built from one eigendecomposition of Delta and no matrix inverse:
    every statistic is an (M, K, N) spectrum, the correlation's basis U is
    the only N x N array, and no RateContext array has an axis of
    length N."""
    eighs = []
    real_eigh = np.linalg.eigh

    def eigh(a):
        eighs.append(a.shape)
        return real_eigh(a)

    def inv(a):
        raise AssertionError("the statistics invert no matrix")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(np.linalg, "inv", inv)
    for model in (CorrelationModel(), CorrelationModel("exponential", 0.5)):
        eighs.clear()
        sc = build_scenario(AO_PAPER_FLOOR.replace(correlation=model),
                            np.random.default_rng(0))
        M, K, N = sc.num_satellites, sc.num_users, sc.num_antennas
        st = sc.estimation_stats
        ctx = sc.rate_context
        h, _ = sample_channel_batch(sc, np.random.default_rng(1), 2)
        estimate_batch(sc, h, np.random.default_rng(2))
        assert eighs == [(N, N)]
        assert sc.correlation.basis.shape == (N, N)
        shapes = {name: getattr(st, name).shape
                  for name in ("cov", "filt", "est_cov", "err_cov")}
        assert shapes == {"cov": (M, K, N), "filt": (M, K, N),
                          "est_cov": (M, K, N), "err_cov": (M, K, N)}
        arrays = {name: a for name, a in vars(ctx).items()
                  if isinstance(a, np.ndarray)}
        assert {"gamma", "q", "tmat", "smat"} <= arrays.keys()
        assert all(N not in a.shape for a in arrays.values()), {
            name: a.shape for name, a in arrays.items()}

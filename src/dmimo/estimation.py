"""MMSE channel estimation under pilot contamination.

Estimation always uses the full aggregate bandwidth's noise power; sub-band
noise only enters data detection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import complex_normal


def covariance_R(link):
    """Channel covariance R = a * Delta with a = beta / (Kbar + 1)."""
    return link.covariance


def psi_matrix(cohort_covs, tau, pilot_powers, sigma2):
    """Inverse of (sum_j tau p_j R_j + sigma^2 I) over the pilot cohort."""
    if sigma2 <= 0:
        raise ValueError("noise power must be strictly positive")
    n = cohort_covs[0].shape[0]
    acc = sigma2 * np.eye(n, dtype=complex)
    for cov, p in zip(cohort_covs, pilot_powers):
        acc = acc + tau * p * cov
    return np.linalg.inv(acc)


@dataclass(frozen=True)
class EstimationStats:
    """Second-order statistics of the MMSE estimate for one (m, k) link."""

    R: np.ndarray  # channel covariance
    psi: np.ndarray  # regularized inverse for the cohort
    est_cov: np.ndarray  # C = tau p R Psi R
    err_cov: np.ndarray  # E = R - C


def link_estimation_stats(scenario, m, k, sigma2=None):
    cfg = scenario.config
    if sigma2 is None:
        sigma2 = scenario.fullband_noise
    tau = cfg.pilot_length
    cohort = scenario.pilots.cohort(k)
    covs = [covariance_R(scenario.link(m, j)) for j in cohort]
    psi = psi_matrix(covs, tau, [cfg.pilot_power] * len(covs), sigma2)
    R = covariance_R(scenario.link(m, k))
    est_cov = tau * cfg.pilot_power * (R @ psi @ R)
    return EstimationStats(R=R, psi=psi, est_cov=est_cov, err_cov=R - est_cov)


def scenario_estimation_stats(scenario, sigma2=None):
    """EstimationStats for every (m, k), cohort inverses computed once."""
    M, K = scenario.num_satellites, scenario.num_users
    cfg = scenario.config
    if sigma2 is None:
        sigma2 = scenario.fullband_noise
    tau = cfg.pilot_length
    out = {}
    for m in range(M):
        psi_by_pilot = {}
        for k in range(K):
            t = scenario.pilots.pilot_index[k]
            if t not in psi_by_pilot:
                cohort = scenario.pilots.cohort(k)
                covs = [covariance_R(scenario.link(m, j)) for j in cohort]
                psi_by_pilot[t] = psi_matrix(
                    covs, tau, [cfg.pilot_power] * len(covs), sigma2
                )
            psi = psi_by_pilot[t]
            R = covariance_R(scenario.link(m, k))
            est_cov = tau * cfg.pilot_power * (R @ psi @ R)
            out[(m, k)] = EstimationStats(R=R, psi=psi, est_cov=est_cov,
                                          err_cov=R - est_cov)
    return out


def draw_pilot_noise(scenario, rng, sigma2=None, trials=None):
    """CN(0, sigma^2 I) despread pilot noise, one vector per (m, pilot)."""
    if sigma2 is None:
        sigma2 = scenario.fullband_noise
    shape = (scenario.num_satellites, scenario.config.pilot_length,
             scenario.num_antennas)
    if trials is not None:
        shape = (trials,) + shape
    return np.sqrt(sigma2) * complex_normal(rng, shape)


def estimate_batch(scenario, h_batch, rng, stats=None, sigma2=None):
    """Vectorized estimates for a (T, M, K, N) channel batch.

    Returns (hhat, pilot_noise) with hhat shaped like h_batch.
    """
    cfg = scenario.config
    tau = cfg.pilot_length
    T, M, K, N = h_batch.shape
    if stats is None:
        stats = scenario_estimation_stats(scenario, sigma2=sigma2)
    noise = draw_pilot_noise(scenario, rng, sigma2=sigma2, trials=T)
    hhat = np.empty_like(h_batch)
    sqrt_tp = np.sqrt(tau * cfg.pilot_power)
    for m in range(M):
        for k in range(K):
            link = scenario.link(m, k)
            cohort = scenario.pilots.cohort(k)
            t = scenario.pilots.pilot_index[k]
            own_mean = np.sqrt(link.rician * link.rician_scale) \
                * link.los_vector
            # centered observation: cohort NLoS parts plus pilot noise
            resid = noise[:, m, t, :].copy()
            for j in cohort:
                lj = scenario.link(m, j)
                mean_j = np.sqrt(lj.rician * lj.rician_scale) * lj.los_vector
                resid += sqrt_tp * (h_batch[:, m, j, :] - mean_j[None])
            filt = sqrt_tp * (stats[(m, k)].R @ stats[(m, k)].psi)
            hhat[:, m, k, :] = own_mean[None] + resid @ filt.T
    return hhat, noise


def mse(scenario, m, k, sigma2=None):
    """Estimation-error power tr(R - tau p R Psi R)."""
    st = link_estimation_stats(scenario, m, k, sigma2=sigma2)
    return float(np.trace(st.err_cov).real)


def nmse(scenario, m, k, sigma2=None):
    """Normalized MSE in [0, 1]; the degenerate tr(R)=0 case reports 1."""
    st = link_estimation_stats(scenario, m, k, sigma2=sigma2)
    tr_r = float(np.trace(st.R).real)
    if tr_r == 0.0:
        return 1.0
    return float(np.trace(st.err_cov).real) / tr_r

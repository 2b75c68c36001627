"""MMSE channel estimation under pilot contamination.

Estimation always uses the full aggregate bandwidth's noise power; sub-band
noise only enters data detection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import complex_normal, link_arrays


def psi_matrix(cohort_covs, tau, pilot_powers, sigma2):
    """Inverse of (sum_j tau p_j R_j + sigma^2 I) over the pilot cohort."""
    if sigma2 <= 0:
        raise ValueError("noise power must be strictly positive")
    n = cohort_covs[0].shape[0]
    acc = sigma2 * np.eye(n)
    for cov, p in zip(cohort_covs, pilot_powers):
        acc = acc + tau * p * cov
    return np.linalg.inv(acc)


@dataclass(frozen=True)
class EstimationStats:
    """Second-order statistics of the MMSE estimate for one (m, k) link."""

    R: np.ndarray  # channel covariance
    rpsi: np.ndarray  # R Psi, the estimator's filter up to sqrt(tau p)
    tau_p: float  # tau p, pilot length times pilot power

    @property
    def est_cov(self):
        """C = tau p R Psi R, formed on access rather than stored."""
        return self.tau_p * (self.rpsi @ self.R)

    @property
    def err_cov(self):
        """E = R - C, formed on access rather than stored."""
        return self.R - self.est_cov


def scenario_estimation_stats(scenario):
    """EstimationStats for every (m, k) at the full-band noise power of the
    scenario's config, cohort inverses computed once. The arrays keep the
    covariances' dtype: real for a real correlation."""
    M, K = scenario.num_satellites, scenario.num_users
    cfg = scenario.config
    sigma2 = scenario.fullband_noise
    tau = cfg.pilot_length
    out = {}
    for m in range(M):
        covs = [scenario.link(m, k).covariance for k in range(K)]
        psi_by_pilot = {}
        for k in range(K):
            t = scenario.pilots.pilot_index[k]
            if t not in psi_by_pilot:
                cohort = scenario.pilots.cohort(k)
                psi_by_pilot[t] = psi_matrix(
                    [covs[j] for j in cohort], tau,
                    [cfg.pilot_power] * len(cohort), sigma2
                )
            out[(m, k)] = EstimationStats(R=covs[k],
                                          rpsi=covs[k] @ psi_by_pilot[t],
                                          tau_p=tau * cfg.pilot_power)
    return out


def estimate_batch(scenario, h_batch, rng):
    """Vectorized estimates for a (T, M, K, N) channel batch, filtered by
    the scenario's cached statistics.

    Returns (hhat, pilot_noise) with hhat shaped like h_batch.
    """
    cfg = scenario.config
    tau = cfg.pilot_length
    T, M, K, N = h_batch.shape
    stats = scenario.estimation_stats
    # CN(0, sigma^2 I) despread pilot noise, one vector per (m, pilot)
    noise = np.sqrt(scenario.fullband_noise) \
        * complex_normal(rng, (T, M, tau, N))
    hhat = np.empty_like(h_batch)
    sqrt_tp = np.sqrt(tau * cfg.pilot_power)
    mean, _ = link_arrays(scenario)
    for m in range(M):
        # centered observation of each pilot: its cohort's NLoS parts plus
        # pilot noise, shared by every user on that pilot
        resid = {}
        for k in range(K):
            t = scenario.pilots.pilot_index[k]
            if t not in resid:
                resid[t] = noise[:, m, t, :].copy()
                for j in scenario.pilots.cohort(k):
                    resid[t] += sqrt_tp * (h_batch[:, m, j, :] - mean[m, j])
            filt = sqrt_tp * stats[(m, k)].rpsi
            hhat[:, m, k, :] = mean[m, k] + resid[t] @ filt.T
    return hhat, noise


def trace_sum(diag):
    """Re of the sum over the last axis, added as complex numbers whatever
    the dtype: numpy groups complex sums unlike real ones, and this keeps a
    real matrix's trace bit-identical to that of its complex copy."""
    return np.asarray(diag, dtype=complex).sum(axis=-1).real


def _err_trace(st):
    """tr E from the diagonals of R and of tau p (R Psi) R alone: O(N^2)."""
    diag = st.R.diagonal() - st.tau_p * np.einsum("ij,ji->i", st.rpsi, st.R)
    return float(trace_sum(diag))


def mse(scenario, m, k):
    """Estimation-error power tr(R - tau p R Psi R)."""
    return _err_trace(scenario.estimation_stats[(m, k)])


def nmse(scenario, m, k):
    """Normalized MSE in [0, 1]; the degenerate tr(R)=0 case reports 1."""
    st = scenario.estimation_stats[(m, k)]
    tr_r = float(np.trace(st.R).real)
    if tr_r == 0.0:
        return 1.0
    return _err_trace(st) / tr_r

"""MMSE channel estimation under pilot contamination.

Every link's covariance is R_{m,k} = a_{m,k} Delta with the scenario's one
Delta = U diag(lam) U^H, so R, Psi, R Psi and C are all diagonal in U and
are kept as their eigenvalues. Estimation always uses the full aggregate
bandwidth's noise power; sub-band noise only enters data detection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import complex_normal, link_arrays


@dataclass(frozen=True)
class EstimationStats:
    """Second-order statistics of every link's MMSE estimate, as spectra in
    the basis U of ``scenario.correlation``. Psi inverts
    sigma^2 I + tau p sum_j R_j over user k's pilot cohort j, so R Psi has
    eigenvalues a lam / (sigma^2 + tau p lam sum_j a_j)."""

    cov: np.ndarray  # (M, K, N) eigenvalues a lam of R
    filt: np.ndarray  # (M, K, N) eigenvalues of the filter R Psi
    tau_p: float  # tau p, pilot length times pilot power

    @property
    def est_cov(self):
        """Eigenvalues of C = tau p R Psi R, formed on access."""
        return self.tau_p * (self.filt * self.cov)

    @property
    def err_cov(self):
        """Eigenvalues of E = R - C, formed on access."""
        return self.cov - self.est_cov


def scenario_estimation_stats(scenario):
    """EstimationStats of the scenario at the full-band noise power of its
    config."""
    cfg = scenario.config
    corr = scenario.correlation
    a = scenario.rician_scale
    load = a @ scenario.cohort  # sum of a_j over k's cohort
    tau_p = cfg.pilot_length * cfg.pilot_power
    cov = a[:, :, None] * corr.eigvals
    filt = cov / (scenario.fullband_noise
                  + tau_p * load[:, :, None] * corr.eigvals)
    return EstimationStats(cov=cov, filt=filt, tau_p=tau_p)


def estimate_batch(scenario, h_batch, rng):
    """Vectorized estimates for a (T, M, K, N) channel batch in U's
    coordinates, where every user's filter R Psi is the elementwise product
    with its spectrum ``filt``.

    Returns (hhat, pilot_noise) with hhat shaped like h_batch.
    """
    cfg = scenario.config
    T, M, K, N = h_batch.shape
    # CN(0, sigma^2 I) despread pilot noise, one vector per (m, pilot); the
    # law is the same in U's coordinates as in the antennas'
    noise = np.sqrt(scenario.fullband_noise) \
        * complex_normal(rng, (T, M, cfg.pilot_length, N))
    hhat = np.empty_like(h_batch)
    sqrt_tp = np.sqrt(cfg.pilot_length * cfg.pilot_power)
    filt = sqrt_tp * scenario.estimation_stats.filt
    mean, _ = link_arrays(scenario)
    pilots = scenario.pilots
    for m in range(M):
        for t in np.unique(pilots):
            # centred observation of pilot t: its cohort's scattered parts
            # plus pilot noise, shared by all of them
            cohort = np.flatnonzero(pilots == t)
            obs = noise[:, m, t, :].copy()
            for j in cohort:
                obs += sqrt_tp * (h_batch[:, m, j, :] - mean[m, j])
            for k in cohort:
                np.multiply(obs, filt[m, k], out=hhat[:, m, k, :])
                hhat[:, m, k, :] += mean[m, k]
    return hhat, noise


def mse(scenario, m, k):
    """Estimation-error power tr(R - tau p R Psi R)."""
    return float(scenario.estimation_stats.err_cov[m, k].sum())


def nmse(scenario, m, k):
    """Normalized MSE in [0, 1]; the degenerate tr(R)=0 case reports 1."""
    tr_r = float(scenario.estimation_stats.cov[m, k].sum())
    if tr_r == 0.0:
        return 1.0
    return mse(scenario, m, k) / tr_r

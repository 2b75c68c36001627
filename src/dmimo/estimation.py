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


def pilot_observations(scenario, h_batch, rng):
    """(obs, mean): a channel batch's (T, M, P, N) centred pilot
    observations, CN(0, sigma^2 I) despread noise plus sqrt(tau p) (h - mean)
    of each user on the pilot in user order, and the ``link_arrays`` mean.
    The noise is drawn in U's coordinates: CN(0, sigma^2 I) has the same law
    in every orthonormal basis."""
    T, M, _, N = h_batch.shape
    mean, _ = link_arrays(scenario)
    obs = complex_normal(rng, (T, M, scenario.config.pilot_length, N))
    obs *= np.sqrt(scenario.fullband_noise)
    sqrt_tp = np.sqrt(scenario.estimation_stats.tau_p)
    for k, t in enumerate(scenario.pilots):
        part = h_batch[:, :, k, :] - mean[:, k]
        obs[:, :, t, :] += np.multiply(part, sqrt_tp, out=part)
    return obs, mean


def link_estimates(scenario, obs, mean, k, sats, out=None):
    """Estimates of the users `k` at the satellites `sats`, each an index,
    an index array or a slice (not both arrays): sqrt(tau p) filt times the
    user's pilot observation, plus the LoS mean."""
    st = scenario.estimation_stats
    out = np.multiply(obs[:, sats, scenario.pilots[k], :],
                      np.sqrt(st.tau_p) * st.filt[sats, k], out=out)
    out += mean[sats, k]
    return out


def estimate_batch(scenario, h_batch, rng):
    """Every link's estimate hhat, shaped like the (T, M, K, N) channel
    batch `h_batch` in U's coordinates, from its pilot observations."""
    obs, mean = pilot_observations(scenario, h_batch, rng)
    hhat = np.empty_like(h_batch)
    for k in range(h_batch.shape[2]):
        link_estimates(scenario, obs, mean, k, slice(None), hhat[:, :, k, :])
    return hhat


def mse(scenario, m, k):
    """Estimation-error power tr(R - tau p R Psi R)."""
    return float(scenario.estimation_stats.err_cov[m, k].sum())


def nmse(scenario, m, k):
    """Normalized MSE in [0, 1]; the degenerate tr(R)=0 case reports 1."""
    tr_r = float(scenario.estimation_stats.cov[m, k].sum())
    if tr_r == 0.0:
        return 1.0
    return mse(scenario, m, k) / tr_r

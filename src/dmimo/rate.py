"""Closed-form achievable-rate lower bound with maximum-ratio combining,
its pure-LoS limit, and one Monte Carlo engine for every expectation term.

The engine (``monte_carlo_users``) draws the channel, its pilot noise and
MMSE estimates once, and returns every requested user's terms and ergodic
rate from that shared draw. Because the users share it, the standard error
of the simulated sum rate comes from the per-trial sum of user rates,
std(ddof=1) / sqrt(T), not from the users' separate standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import complex_normal, sample_channel_batch
from .estimation import estimate_batch, scenario_estimation_stats

DENOM_FLOOR = 1e-30


class ContractError(ValueError):
    """Caller violated an operation contract."""


@dataclass
class AllocationState:
    """Decision variables: sub-band partition, bandwidths, powers, weights.

    groups[i] lists the users of sub-band i; bandwidths[i] is B_i in Hz;
    powers[k] is the uplink data power; weights[m, k] the combining weight
    (zero for satellites outside M_k).
    """

    groups: list
    bandwidths: list
    powers: np.ndarray
    weights: np.ndarray
    feasible: bool = True

    def band_of(self, k):
        for i, g in enumerate(self.groups):
            if k in g:
                return i
        raise ContractError(f"user {k} is not scheduled in any sub-band")

    def copy(self):
        return AllocationState(
            groups=[list(g) for g in self.groups],
            bandwidths=list(self.bandwidths),
            powers=self.powers.copy(),
            weights=self.weights.copy(),
            feasible=self.feasible,
        )


def equal_split_allocation(scenario, num_bands=None, groups=None,
                           powers=None, weights=None):
    """Convenience allocation: equal bandwidth split, max power, and
    equal-norm weights over each serving set."""
    cfg = scenario.config
    K, M = scenario.num_users, scenario.num_satellites
    if num_bands is None:
        num_bands = cfg.num_subbands
    if groups is None:
        groups = [[] for _ in range(num_bands)]
        for k in range(K):
            groups[k % num_bands].append(k)
        groups = [g for g in groups if g]
    if powers is None:
        powers = np.full(K, cfg.max_power)
    if weights is None:
        weights = equal_weights(scenario)
    bw = [cfg.total_bandwidth / max(len(groups), 1)] * len(groups)
    return AllocationState(groups=[list(g) for g in groups], bandwidths=bw,
                           powers=np.asarray(powers, dtype=float),
                           weights=weights)


def equal_weights(scenario):
    K, M = scenario.num_users, scenario.num_satellites
    w = np.zeros((M, K))
    for k in range(K):
        sset = scenario.serving_sets[k]
        for m in sset:
            w[m, k] = 1.0 / np.sqrt(len(sset))
    return w


def normalize_weights(scenario, weights):
    """Rescale each user's weights to unit squared norm over M_k."""
    w = weights.copy()
    for k in range(scenario.num_users):
        sset = sorted(scenario.serving_sets[k])
        nrm = np.sqrt(sum(w[m, k] ** 2 for m in sset))
        if nrm > 0:
            for m in sset:
                w[m, k] /= nrm
    return w


@dataclass(frozen=True)
class SinrTerms:
    """Closed-form SINR decomposition for one user."""

    ds: float  # |E{sum_m w hhat^H h}|, squared in the numerator
    numerator: float
    i_noise: float
    i1: dict  # k' -> term (includes k' = k, the leakage contribution)
    i2: dict
    i3: dict
    sinr_lb: float
    rate_lb: float  # bit/s


class RateContext:
    """Precomputed per-link and per-pair statistics behind the closed form.

    gamma[m, k]  = tau p^p tr(R Psi R) + Kbar a ||hbar||^2
    q1[m, k, k'] = Kbar' a' tau p^p  hbar'^H R Psi R hbar'
    q2[m, k, k'] = Kbar a  hbar^H R' hbar
    q3[m, k, k'] = tau p^p tr(R' R Psi R)
    tmat[m, k, k'] = tr(R_k Psi_k R_k')          (real, >= 0)
    smat[m, k, k'] = sqrt(Kbar a Kbar' a') hbar^H hbar'   (complex)
    """

    def __init__(self, scenario):
        self.scenario = scenario
        cfg = scenario.config
        M, K, N = (scenario.num_satellites, scenario.num_users,
                   scenario.num_antennas)
        stats = scenario_estimation_stats(scenario)
        self.stats = stats
        tau, pp = cfg.pilot_length, cfg.pilot_power
        self.gamma = np.zeros((M, K))
        self.q1 = np.zeros((M, K, K))
        self.q2 = np.zeros((M, K, K))
        self.q3 = np.zeros((M, K, K))
        self.tmat = np.zeros((M, K, K))
        self.smat = np.zeros((M, K, K), dtype=complex)
        los_amp = np.zeros((M, K))  # sqrt(Kbar a)
        for m in range(M):
            for k in range(K):
                link = scenario.link(m, k)
                los_amp[m, k] = np.sqrt(link.rician * link.rician_scale)
                c = stats[(m, k)].est_cov
                self.gamma[m, k] = float(np.trace(c).real) \
                    + link.rician * link.rician_scale * N
        for m in range(M):
            for k in range(K):
                ck = stats[(m, k)].est_cov
                psik = stats[(m, k)].psi
                rk = stats[(m, k)].R
                hbar_k = scenario.link(m, k).los_vector
                for kp in range(K):
                    lkp = scenario.link(m, kp)
                    rkp = stats[(m, kp)].R
                    hbar_kp = lkp.los_vector
                    self.q1[m, k, kp] = float(
                        (hbar_kp.conj() @ ck @ hbar_kp).real
                    ) * lkp.rician * lkp.rician_scale
                    self.q2[m, k, kp] = float(
                        (hbar_k.conj() @ rkp @ hbar_k).real
                    ) * scenario.link(m, k).rician \
                        * scenario.link(m, k).rician_scale
                    self.q3[m, k, kp] = float(np.trace(rkp @ ck).real)
                    self.tmat[m, k, kp] = float(
                        np.trace(rk @ psik @ rkp).real
                    )
                    self.smat[m, k, kp] = los_amp[m, k] * los_amp[m, kp] \
                        * (hbar_k.conj() @ hbar_kp)


def sinr_lower_bound(scenario, allocation, k, context=None):
    """Closed-form SINR lower bound and per-term decomposition for user k."""
    if context is None:
        context = RateContext(scenario)
    cfg = scenario.config
    band = allocation.band_of(k)
    group = allocation.groups[band]
    bw = allocation.bandwidths[band]
    sigma_i = scenario.subband_noise(bw)
    sset = sorted(scenario.serving_sets[k])
    w = allocation.weights[:, k]
    p = allocation.powers
    tau, pp = cfg.pilot_length, cfg.pilot_power
    cohort = set(scenario.pilots.cohort(k))

    ds = float(sum(w[m] * context.gamma[m, k] for m in sset))
    numerator = p[k] * ds ** 2
    i_noise = float(sum(w[m] ** 2 * context.gamma[m, k] for m in sset)) \
        * sigma_i

    i1, i2, i3 = {}, {}, {}
    denom = i_noise
    for kp in group:
        term1 = float(sum(
            w[m] ** 2 * (context.q1[m, k, kp] + context.q2[m, k, kp]
                         + context.q3[m, k, kp])
            for m in sset
        ))
        i1[kp] = term1
        denom += p[kp] * term1
        if kp != k:
            s = sum(w[m] * context.smat[m, k, kp] for m in sset)
            term2 = float(abs(s) ** 2)
            i2[kp] = term2
            denom += p[kp] * term2
            if kp in cohort:
                t = float(sum(w[m] * context.tmat[m, k, kp] for m in sset))
                term3 = (
                    2.0 * tau * np.sqrt(pp * pp) * t * float(s.real)
                    + tau ** 2 * pp * pp * t ** 2
                )
                i3[kp] = term3
                denom += p[kp] * term3
    denom = max(denom, DENOM_FLOOR)
    sinr = numerator / denom
    return SinrTerms(ds=ds, numerator=numerator, i_noise=i_noise, i1=i1,
                     i2=i2, i3=i3, sinr_lb=sinr,
                     rate_lb=bw * np.log2(1.0 + sinr))


def sum_rate(scenario, allocation, context=None):
    if context is None:
        context = RateContext(scenario)
    return sum(
        sinr_lower_bound(scenario, allocation, k, context).rate_lb
        for g in allocation.groups for k in g
    )


def sinr_los_limit(scenario, allocation, k):
    """Pure-LoS SINR limit: estimation terms vanish, Kbar a -> beta."""
    band = allocation.band_of(k)
    group = allocation.groups[band]
    bw = allocation.bandwidths[band]
    sigma_i = scenario.subband_noise(bw)
    sset = sorted(scenario.serving_sets[k])
    w = allocation.weights[:, k]
    p = allocation.powers
    N = scenario.num_antennas
    num = p[k] * N ** 2 * sum(
        w[m] * scenario.link(m, k).beta for m in sset
    ) ** 2
    denom = sum(
        w[m] ** 2 * N * sigma_i * scenario.link(m, k).beta for m in sset
    )
    for kp in group:
        if kp == k:
            continue
        s = sum(
            w[m]
            * np.sqrt(scenario.link(m, k).beta * scenario.link(m, kp).beta)
            * (scenario.link(m, k).los_vector.conj()
               @ scenario.link(m, kp).los_vector)
            for m in sset
        )
        denom += p[kp] * abs(s) ** 2
    return num / max(denom, DENOM_FLOOR)


@dataclass(frozen=True)
class McTermReport:
    """Monte Carlo estimates for one user of a shared draw."""

    user: int
    trials: int
    ds_closed: float
    ds_mc: float
    terms: dict
    # terms maps name -> (closed_form, mc_mean, mc_se); names are
    # "ls", "noise", and "ui:<k'>".
    rate: float  # sample-mean ergodic rate, bit/s
    rate_se: float


@dataclass(frozen=True)
class McResult:
    """Every requested user's report from one shared channel draw."""

    users: dict  # k -> McTermReport, in request order
    # Mean and standard error of the per-trial sum of user rates. The
    # users share each draw, so their rates are correlated and the SE of
    # the sum is not sqrt(sum of rate_se**2).
    sum_rate: float
    sum_rate_se: float


def monte_carlo_users(scenario, allocation, trials, rng, context=None,
                      users=None):
    """Estimate |DS|^2, E|LS|^2, E|UI|^2, E|N|^2 and the ergodic rate of
    each user in `users` (default: every scheduled user) by simulation.

    Draws, in this order: one (T, M, K, N) channel batch, its pilot noise
    and MMSE estimates, then one receiver-noise batch per requested user.
    The ergodic rate uses the genie decomposition: the desired-signal power
    is the deterministic |DS|^2; leakage, interference, and noise powers
    are instantaneous per realization.
    """
    if trials < 100:
        raise ContractError("need at least 100 trials")
    if context is None:
        context = RateContext(scenario)
    if users is None:
        users = [k for g in allocation.groups for k in g]
    if len(set(users)) != len(users):
        raise ContractError("each user may be requested once")

    h, _ = sample_channel_batch(scenario, rng, trials)
    hhat, _ = estimate_batch(scenario, h, rng, stats=context.stats)
    reports = {}
    sum_samples = np.zeros(trials)
    for k in users:
        reports[k], rates = _user_terms(scenario, allocation, k, h, hhat,
                                        rng, context)
        sum_samples += rates
    mean, se = _mean_se(sum_samples)
    return McResult(users=reports, sum_rate=mean, sum_rate_se=se)


def _mean_se(samples):
    """Sample mean and its standard error, std(ddof=1) / sqrt(T)."""
    return (float(samples.mean()),
            float(samples.std(ddof=1) / np.sqrt(len(samples))))


def _user_terms(scenario, allocation, k, h, hhat, rng, context):
    """User k's McTermReport and per-trial rates from a shared draw."""
    trials = h.shape[0]
    band = allocation.band_of(k)
    group = allocation.groups[band]
    bw = allocation.bandwidths[band]
    sigma_i = scenario.subband_noise(bw)
    sset = sorted(scenario.serving_sets[k])
    w = allocation.weights[:, k]
    p = allocation.powers

    # g[t, k'] = sum_m w_m hhat_{m,k}^H h_{m,k'}
    hh_k = hhat[:, sset, k, :]  # (T, |M_k|, N)
    wv = w[sset]
    g = np.einsum("tmn,m,tmjn->tj", hh_k.conj(), wv, h[:, sset, :, :])
    # receiver noise: n_m ~ CN(0, sigma_i I), independent per satellite
    noise = np.sqrt(sigma_i) * complex_normal(
        rng, (trials, len(sset), scenario.num_antennas)
    )
    n_k = np.einsum("tmn,m,tmn->t", hh_k.conj(), wv, noise)

    closed = sinr_lower_bound(scenario, allocation, k, context)
    ds_closed = np.sqrt(p[k]) * closed.ds
    # name -> (closed form, per-trial power samples)
    term_samples = {
        "ls": (p[k] * closed.i1[k],
               np.abs(np.sqrt(p[k]) * g[:, k] - ds_closed) ** 2),
        "noise": (closed.i_noise, np.abs(n_k) ** 2),
    }
    cohort = set(scenario.pilots.cohort(k))
    for kp in group:
        if kp == k:
            continue
        cf = p[kp] * (closed.i1[kp] + closed.i2[kp])
        if kp in cohort:
            cf += p[kp] * closed.i3[kp]
        term_samples[f"ui:{kp}"] = (cf,
                                    np.abs(np.sqrt(p[kp]) * g[:, kp]) ** 2)
    denom = sum(samples for _, samples in term_samples.values())
    rates = bw * np.log2(1.0 + ds_closed ** 2
                         / np.maximum(denom, DENOM_FLOOR))
    rate, rate_se = _mean_se(rates)
    report = McTermReport(
        user=k, trials=trials, ds_closed=float(abs(ds_closed) ** 2),
        ds_mc=float(abs(np.sqrt(p[k]) * g[:, k].mean()) ** 2),
        terms={name: (cf, *_mean_se(samples))
               for name, (cf, samples) in term_samples.items()},
        rate=rate, rate_se=rate_se,
    )
    return report, rates


# Single-user entry points over the engine. The benchmark's tracer and
# per-layer metric list (benchmarks/tracer.py, BENCHMARK.json) look these
# names up, so they stay until the benchmark traces monte_carlo_users.


def monte_carlo_terms(scenario, allocation, k, trials, rng, context=None):
    """User k's report alone: ``monte_carlo_users`` with ``users=(k,)``."""
    return monte_carlo_users(scenario, allocation, trials, rng, context,
                             users=(k,)).users[k]


def ergodic_rate_mc(scenario, allocation, k, trials, rng, context=None):
    """User k's (rate_mean, rate_se) in bit/s, from ``monte_carlo_terms``."""
    rep = monte_carlo_terms(scenario, allocation, k, trials, rng, context)
    return rep.rate, rep.rate_se

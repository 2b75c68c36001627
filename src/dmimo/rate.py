"""Closed-form achievable-rate lower bound with maximum-ratio combining, and
one Monte Carlo engine for every expectation term.

The engine (``monte_carlo_users``) draws the channel and its pilot
observations once, and returns every requested user's terms and ergodic
rate from that shared draw, beside their closed forms from the one
vectorized evaluator (``pair_terms``, ``sinr_in_bands``). Because the
users share the draw, the standard error of the simulated sum rate comes
from the per-trial sum of user rates, std(ddof=1) / sqrt(T), not from the
users' separate standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .channel import complex_normal, sample_channel_batch
from .estimation import link_estimates, pilot_observations

LN2 = np.log(2.0)
MIN_TRIALS = 100  # the fewest trials monte_carlo_users accepts


class ContractError(ValueError):
    """Caller violated an operation contract."""


@dataclass
class AllocationState:
    """Decision variables: sub-band partition, bandwidths, powers, weights.

    groups[i] lists the users of sub-band i, ascending; the (I,) array
    bandwidths holds B_i in Hz; powers[k] is the uplink data power;
    weights[m, k] the combining weight (zero for satellites outside M_k).
    phi is the rate floors' feasibility margin where a feasibility check
    ran (below 1: unattainable).
    """

    groups: list
    bandwidths: np.ndarray
    powers: np.ndarray
    weights: np.ndarray
    feasible: bool = True
    phi: float = np.inf

    def __setattr__(self, name, value):
        if name == "bandwidths":  # a list, when built or assigned, too
            value = np.asarray(value, dtype=float)
        super().__setattr__(name, value)

    @property
    def band(self):
        """``band_index`` of the groups, derived on each access."""
        return band_index(self.groups, len(self.powers))

    def copy(self):
        return replace(self, groups=[list(g) for g in self.groups],
                       bandwidths=self.bandwidths.copy(),
                       powers=self.powers.copy(), weights=self.weights.copy())


def band_index(groups, num_users):
    """The (num_users,) np.intp band index of the partition `groups`, the
    form every stage computes with: entry k is user k's sub-band, or -1."""
    band = np.full(num_users, -1, dtype=np.intp)
    for i, g in enumerate(groups):
        band[g] = i
    return band


def scheduled_users(band):
    """The users with a sub-band in `band`, band by band and ascending
    within one: the group order, since every group is built ascending."""
    order = np.argsort(band, kind="stable")
    return order[band[order] >= 0]


def equal_split_allocation(scenario, groups=None, powers=None, weights=None):
    """Allocation with the bandwidth split equally over the occupied bands;
    groups default to users dealt round-robin over the sub-bands, powers
    to max power and weights to equal norm over each serving set."""
    cfg = scenario.config
    if groups is None:
        groups = [list(range(i, scenario.num_users, cfg.num_subbands))
                  for i in range(cfg.num_subbands)]
    if powers is None:
        powers = np.full(scenario.num_users, cfg.max_power)
    if weights is None:
        weights = equal_weights(scenario)
    bw = np.full(len(groups), cfg.total_bandwidth / max(len(groups), 1))
    return AllocationState(groups=[list(g) for g in groups], bandwidths=bw,
                           powers=np.asarray(powers, dtype=float),
                           weights=weights)


def equal_weights(scenario):
    serving = scenario.serving
    return serving / np.sqrt(serving.sum(axis=0))


def normalize_weights(scenario, weights):
    """Rescale each user's weights to unit squared norm over M_k."""
    serving = scenario.serving
    nrm = np.sqrt((np.where(serving, weights, 0.0) ** 2).sum(axis=0))
    return np.divide(weights, nrm, out=weights.copy(),
                     where=serving & (nrm > 0))


class RateContext:
    """Precomputed per-link and per-pair statistics behind the closed form.

    gamma[m, k]  = tau p^p tr(R Psi R) + Kbar a ||hbar||^2
    q[m, k, k']  = q1 + q2 + q3, the sum of
                   q1 = Kbar' a' tau p^p  hbar'^H R Psi R hbar',
                   q2 = Kbar a  hbar^H R' hbar,
                   q3 = tau p^p tr(R' R Psi R)
    tmat[m, k, k'] = tr(R_k Psi_k R_k')          (real, >= 0)
    smat[m, k, k'] = sqrt(Kbar a Kbar' a') hbar^H hbar'   (complex)
    serving = scenario.serving, the (M, K) bool serving mask
    cohort[k, k'] = k' != k shares k's pilot

    Built from the spectra of ``scenario.estimation_stats`` in the basis U
    and from |U^H hbar|^2, every trace a sum over N eigenvalues. Every
    stage reads ``scenario.rate_context``, so it is built once per
    scenario; only the evaluators ``pair_terms``, ``sinr_all``,
    ``sum_rate`` and ``sinr_lower_bound`` also take one as an argument,
    for a recomputation from a freshly built context. It keeps no
    reference to its scenario: the scenario caches it, and a
    back-reference would make a cycle only the cyclic garbage collector
    frees.
    """

    def __init__(self, scenario):
        K, N = scenario.num_users, scenario.num_antennas
        st = scenario.estimation_stats
        los = scenario.rician * scenario.rician_scale
        hbar = scenario.los
        proj = np.abs(hbar @ scenario.correlation.basis.conj()) ** 2
        cov, c = st.cov, st.est_cov
        self.gamma = c.sum(axis=2) + los * N
        self.q = np.einsum("mkn,mjn->mkj", c, proj) * los[:, None, :] \
            + np.einsum("mjn,mkn->mkj", cov, proj) * los[:, :, None] \
            + np.einsum("mkn,mjn->mkj", c, cov)
        self.tmat = np.einsum("mkn,mjn->mkj", st.filt, cov)
        amp = np.sqrt(los)
        self.smat = amp[:, :, None] * amp[:, None, :] \
            * (hbar.conj() @ hbar.transpose(0, 2, 1))
        self.serving = scenario.serving
        self.cohort = scenario.cohort & ~np.eye(K, dtype=bool)
        tau, pp = scenario.config.pilot_length, scenario.config.pilot_power
        self._pilot_gains = (tau * pp, tau * tau * pp * pp)

    @cached_property
    def quadratics(self):
        """(K, K, n, n): w^T Q w, Q = quadratics[k, k'][:n_k, :n_k], is the
        coefficient of p_k' in user k's interference power (k' = k: leakage)
        at k's weights w over M_k in increasing order. Entries can be
        negative (LoS)."""
        K = len(self.cohort)
        ssets = [np.flatnonzero(col) for col in self.serving.T]
        n = max(len(s) for s in ssets)
        c1, c2 = self._pilot_gains
        out = np.zeros((K, K, n, n))
        for k, sset in enumerate(ssets):
            for kp in range(K):
                Q = np.diag(self.q[sset, k, kp])
                if kp != k:
                    s = self.smat[sset, k, kp]
                    Q += np.real(np.outer(s, s.conj()))
                    if self.cohort[k, kp]:
                        t = self.tmat[sset, k, kp]
                        Q += c1 * (np.outer(s.real, t) + np.outer(t, s.real))
                        Q += c2 * np.outer(t, t)
                out[k, kp, :len(sset), :len(sset)] = Q
        return out


@dataclass(frozen=True)
class SinrArrays:
    """Every user's closed-form bound from one evaluation. Entries of
    unscheduled users are zero: no rate and no interference."""

    users: np.ndarray  # scheduled users, in group order
    sinr: np.ndarray  # (K,)
    rate: np.ndarray  # (K,) bit/s
    numerator: np.ndarray  # (K,)
    i_noise: np.ndarray  # (K,)
    # interference[k, k'] = p_k' (i1 + i2 + i3) for k' in k's band (k' = k
    # is the leakage term), zero elsewhere
    interference: np.ndarray

    @property
    def sum_rate(self):
        """The scheduled users' rates added in group order."""
        return sum(self.rate[self.users])


@dataclass(frozen=True)
class PairTerms:
    """``sinr_all``'s terms at fixed powers and weights, as if all users
    shared one band."""

    ds: np.ndarray  # (K,) sum_m w Gamma, signed: E{sum_m w hhat^H h}
    signal: np.ndarray  # (K,) p_k ds_k^2, the numerator
    noise_gain: np.ndarray  # (K,) sum_m w^2 Gamma: i_noise per unit sigma_i
    # interference[k, k'] = p_k' (i1 + i2 + i3), k' = k the leakage term
    interference: np.ndarray


def pair_terms(scenario, powers, weights, context=None):
    """PairTerms at `powers` and `weights`: the sums over the serving sets
    become masked sums over all M satellites."""
    if context is None:
        context = scenario.rate_context
    tau, pp = scenario.config.pilot_length, scenario.config.pilot_power
    K = scenario.num_users
    w = weights * context.serving
    p = np.asarray(powers, dtype=float)

    ds = (w * context.gamma).sum(axis=0)
    i1 = np.einsum("mk,mkj->kj", w ** 2, context.q)
    s = np.einsum("mk,mkj->kj", w, context.smat)
    t = np.einsum("mk,mkj->kj", w, context.tmat)
    i2 = np.abs(s) ** 2 * ~np.eye(K, dtype=bool)
    i3 = (2.0 * tau * np.sqrt(pp * pp) * t * s.real
          + tau ** 2 * pp * pp * t ** 2) * context.cohort
    return PairTerms(ds=ds, signal=p * ds ** 2,
                     noise_gain=(w ** 2 * context.gamma).sum(axis=0),
                     interference=p * (i1 + i2 + i3))


def sinr_in_bands(scenario, terms, band, bandwidths=None):
    """SinrArrays of the band index `band` from the PairTerms `terms`, at
    `bandwidths` (default: the total split equally over bands 0 to max).
    A band given no bandwidth has no noise, and its users rate 0."""
    if bandwidths is None:
        n = int(band.max()) + 1
        bandwidths = [scenario.config.total_bandwidth / max(n, 1)] * n
    scheduled = band >= 0
    # per band, then the zero that an unscheduled user (band -1) reads
    bw = np.array([*bandwidths, 0.0])[band]
    sigma = np.array([*map(scenario.subband_noise, bandwidths), 0.0])[band]
    numerator = np.where(scheduled, terms.signal, 0.0)
    i_noise = terms.noise_gain * sigma
    co_band = (band[:, None] == band[None, :]) & scheduled[:, None]
    interference = np.where(co_band, terms.interference, 0.0)
    sinr, rate = band_rate(bw, numerator, terms.noise_gain
                           * scenario.config.noise_density,
                           interference.sum(axis=1))
    return SinrArrays(
        users=scheduled_users(band), sinr=sinr, rate=rate,
        numerator=numerator, i_noise=i_noise, interference=interference,
    )


# One rate expression, for arrays of users: signal power a, noise power b
# per Hz and interference plus leakage power c on bands of B Hz.


def band_rate(bandwidth, a, b, c):
    """(SINR, rate): the SINR a / (b B + c) and the rate B log1p(SINR) / ln 2
    in bit/s, which increases in B and is concave; log1p keeps the digits
    of a low SINR (Higham 2002). A user with no signal (a = 0) reads 0 for
    both. No floor is needed: in the bound, a user with signal has c >= its
    own leakage p_k i1[k, k] > 0, and a Monte Carlo denominator holds a
    receiver-noise draw."""
    sinr = a / np.where(a > 0, b * bandwidth + c, 1.0)
    return sinr, bandwidth * np.log1p(sinr) / LN2


def band_rate_derivatives(bandwidth, a, b, c):
    """``band_rate``'s first and second derivatives in B, 0 where a = 0."""
    u = np.where(a > 0, b * bandwidth + c, 1.0)
    v = u + a
    return ((np.log1p(a / u) - a * b * bandwidth / (u * v)) / LN2,
            -a * b * (a * b * bandwidth + 2 * c * v) / (LN2 * (u * v) ** 2))


def sinr_all(scenario, allocation, context=None):
    """Every user's closed-form SINR lower bound, rate and terms."""
    terms = pair_terms(scenario, allocation.powers, allocation.weights,
                       context)
    return sinr_in_bands(scenario, terms, allocation.band,
                         allocation.bandwidths)


def sum_rate(scenario, allocation, context=None):
    return sinr_all(scenario, allocation, context).sum_rate


# A one-user view of sinr_all. The library does not call it: it stays
# because the benchmark's rate-floor check, its tracer and its tests
# (benchmarks/checks.py, tracer.py, test_benchmarks.py) name it, as they
# name monte_carlo_terms below. The scalar per-term decomposition of the
# bound is the tests' reference, in tests/conftest.py.


def sinr_lower_bound(scenario, allocation, k, context=None):
    """User k's ``sinr_all`` entries as ``sinr_lb`` and ``rate_lb`` (bit/s);
    an unscheduled user is refused."""
    if allocation.band[k] < 0:
        raise ContractError(f"user {k} is not scheduled in any sub-band")
    res = sinr_all(scenario, allocation, context)
    return SimpleNamespace(sinr_lb=res.sinr[k], rate_lb=res.rate[k])


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


def monte_carlo_users(scenario, allocation, trials, rng, users=None):
    """Estimate |DS|^2, E|LS|^2, E|UI|^2, E|N|^2 and the ergodic rate of
    each user in `users` (default: every scheduled user) by simulation.

    Draws ``complex_normal`` batches in this order: the (T, M, K, N)
    channel, its (T, M, P, N) pilot noise, then each requested user's
    (T, |M_k|, N) receiver noise; it holds the channel, the pilot
    observations and one user's arrays. The ergodic rate uses the genie
    decomposition: the desired-signal power is the deterministic |DS|^2;
    leakage, interference, and noise powers are instantaneous per
    realization. An unscheduled user is refused before anything is drawn.
    """
    if trials < MIN_TRIALS:
        raise ContractError(f"need at least {MIN_TRIALS} trials")
    band = allocation.band
    if users is None:
        users = scheduled_users(band).tolist()
    if len(set(users)) != len(users):
        raise ContractError("each user may be requested once")
    for k in users:
        if band[k] < 0:
            raise ContractError(f"user {k} is not scheduled in any sub-band")

    terms = pair_terms(scenario, allocation.powers, allocation.weights)
    closed = sinr_in_bands(scenario, terms, band, allocation.bandwidths)
    h = sample_channel_batch(scenario, rng, trials)[0]
    pilot = pilot_observations(scenario, h, rng)
    reports = {}
    sum_samples = np.zeros(trials)
    for k in users:
        reports[k], rates = _user_terms(scenario, allocation, k, terms.ds[k],
                                        closed, h, pilot, rng)
        sum_samples += rates
    mean, se = _mean_se(sum_samples)
    return McResult(users=reports, sum_rate=mean, sum_rate_se=se)


def _mean_se(samples):
    """Sample mean and its standard error, std(ddof=1) / sqrt(T)."""
    return (float(samples.mean()),
            float(samples.std(ddof=1) / np.sqrt(len(samples))))


def _user_terms(scenario, allocation, k, ds, closed, h, pilot, rng):
    """User k's McTermReport and per-trial rates from a shared draw, beside
    the closed forms of its PairTerms' `ds` and the SinrArrays `closed`."""
    trials, _, K, _ = h.shape
    band = allocation.band
    bw = allocation.bandwidths[band[k]]
    sigma_i = scenario.subband_noise(bw)
    sset = scenario.serving_sets[k]
    wv = allocation.weights[sset, k]
    p = allocation.powers

    hh_k = link_estimates(scenario, *pilot, k, sset)  # (T, |M_k|, N)
    np.conjugate(hh_k, out=hh_k)
    # g[t, k'] = sum_m w_m hhat_{m,k}^H h_{m,k'} over K blocks of trials,
    # so that no block of h over M_k is larger than hh_k
    g = np.empty((trials, K), dtype=complex)
    for hb, gb, blk in zip(*(np.array_split(a, K) for a in (hh_k, g, h))):
        np.einsum("tmn,m,tmjn->tj", hb, wv, blk[:, sset], out=gb)
    # receiver noise: n_m ~ CN(0, sigma_i I), independent per satellite
    noise = complex_normal(rng, hh_k.shape)
    noise *= np.sqrt(sigma_i)
    n_k = np.einsum("tmn,m,tmn->t", hh_k, wv, noise)

    ds_closed = np.sqrt(p[k]) * ds
    row = closed.interference[k]
    # name -> (closed form, per-trial power samples)
    term_samples = {
        "ls": (row[k], np.abs(np.sqrt(p[k]) * g[:, k] - ds_closed) ** 2),
        "noise": (closed.i_noise[k], np.abs(n_k) ** 2),
    }
    for kp in np.flatnonzero(band == band[k]).tolist():  # in group order
        if kp != k:
            term_samples[f"ui:{kp}"] = (row[kp],
                                        np.abs(np.sqrt(p[kp]) * g[:, kp]) ** 2)
    denom = sum(samples for _, samples in term_samples.values())
    _, rates = band_rate(bw, ds_closed ** 2, 0.0, denom)
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


def monte_carlo_terms(scenario, allocation, k, trials, rng):
    """User k's report alone: ``monte_carlo_users`` with ``users=(k,)``."""
    return monte_carlo_users(scenario, allocation, trials, rng,
                             users=(k,)).users[k]


def ergodic_rate_mc(scenario, allocation, k, trials, rng):
    """User k's (rate_mean, rate_se) in bit/s, from ``monte_carlo_terms``."""
    rep = monte_carlo_terms(scenario, allocation, k, trials, rng)
    return rep.rate, rep.rate_se

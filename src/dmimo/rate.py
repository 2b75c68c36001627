"""Closed-form achievable-rate lower bound with maximum-ratio combining, and
one Monte Carlo engine for every expectation term.

The engine (``monte_carlo_users``) draws the channel and its pilot
observations once per block of MC_BLOCK trials, then one receiver-noise
scalar per requested user and trial, and returns every requested user's
terms and ergodic rate from that shared draw, beside their closed forms
from the one vectorized evaluator (``pair_terms``, ``sinr_in_bands``).
Every user's combining terms come from one batched product per satellite
and block. It keeps one block's arrays and every trial's scalars, so its
memory is one block's plus O(T) scalars. Because the users share the
draw, the standard error of the simulated sum rate comes from the
per-trial sum of user rates, std(ddof=1) / sqrt(T), not from the users'
separate standard errors.
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
MC_BLOCK = 512  # the most trials the Monte Carlo path draws at once


class ContractError(ValueError):
    """Caller violated an operation contract."""


@dataclass
class AllocationState:
    """Decision variables: sub-band partition, bandwidths, powers, weights.

    groups[i] lists the users of sub-band i, ascending; the (I,) array
    bandwidths holds B_i in Hz; powers[k] is the uplink data power;
    weights[m, k] the combining weight (zero for satellites outside M_k).
    phi is the rate floors' feasibility margin where a feasibility check
    ran (below 1 or nan: unattainable), which ``feasible`` reads. Groups
    that are not a partition of the users, or a bandwidth count other than
    the group count, are refused at build and at every read of ``band``.
    """

    groups: list
    bandwidths: np.ndarray
    powers: np.ndarray
    weights: np.ndarray
    phi: float = np.inf

    def __post_init__(self):
        self.band  # refuses groups and bandwidths that break the contract

    def __setattr__(self, name, value):
        if name == "bandwidths":  # a list, when built or assigned, too
            value = np.asarray(value, dtype=float)
        super().__setattr__(name, value)

    @property
    def feasible(self):
        """Whether the rate floors are attainable: phi >= 1, False at nan."""
        return bool(self.phi >= 1.0)

    @property
    def band(self):
        """``band_index`` of the groups, derived on each access so that a
        list edited in place is refused, as is a wrong bandwidth count."""
        if len(self.bandwidths) != len(self.groups):
            raise ContractError(f"{len(self.bandwidths)} bandwidths for "
                                f"{len(self.groups)} groups")
        return band_index(self.groups, len(self.powers))

    def copy(self):
        return replace(self, groups=[list(g) for g in self.groups],
                       bandwidths=self.bandwidths.copy(),
                       powers=self.powers.copy(), weights=self.weights.copy())


def band_index(groups, num_users):
    """The (num_users,) np.intp band index of the partition `groups`, the
    form every stage computes with: entry k is user k's sub-band. Raises
    ContractError unless the groups hold each of 0..num_users-1 exactly
    once; a group may be empty."""
    users = [k for g in groups for k in g]
    if sorted(users) != list(range(num_users)):
        raise ContractError(f"groups {groups!r} do not partition the users "
                            f"0..{num_users - 1}")
    band = np.empty(num_users, dtype=np.intp)
    band[users] = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    return band


def scheduled_users(band):
    """The users of `band`, band by band and ascending within one: the
    group order, since every group is built ascending."""
    return np.argsort(band, kind="stable")


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
    serving, serving_links = scenario.serving, scenario.serving_links
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
        self.serving_links = scenario.serving_links
        self.cohort = scenario.cohort & ~np.eye(K, dtype=bool)
        tau, pp = scenario.config.pilot_length, scenario.config.pilot_power
        self._pilot_gains = (tau * pp, tau * tau * pp * pp)

    @cached_property
    def quadratics(self):
        """(K, K, n, n): w^T Q w, Q = quadratics[k, k'], is the coefficient
        of p_k' in user k's interference power (k' = k: leakage) at k's
        weights w over its n serving satellites, ascending. Entries can be
        negative (LoS). One array pass adds the terms of every pair in the
        order of a per-pair sum, so each entry rounds as that sum would."""
        K, n = self.serving_links[0].shape
        q, s, t = (a[self.serving_links].transpose(0, 2, 1)[..., None]
                   for a in (self.q, self.smat, self.tmat))  # (k, k', i, 1)
        c1, c2 = self._pilot_gains
        sh, th = s.swapaxes(2, 3), t.swapaxes(2, 3)  # (k, k', 1, i)
        out = np.where(np.eye(n, dtype=bool), q, 0.0)
        cohort = self.cohort[:, :, None, None]
        np.add(out, np.real(s * sh.conj()), out=out,
               where=~np.eye(K, dtype=bool)[:, :, None, None])
        np.add(out, c1 * (s.real * th + t * sh.real), out=out, where=cohort)
        np.add(out, c2 * (t * th), out=out, where=cohort)
        return out


@dataclass(frozen=True)
class SinrArrays:
    """Every user's closed-form bound from one evaluation."""

    users: np.ndarray  # every user, in group order
    sinr: np.ndarray  # (K,)
    rate: np.ndarray  # (K,) bit/s
    numerator: np.ndarray  # (K,)
    i_noise: np.ndarray  # (K,)
    # interference[k, k'] = p_k' (i1 + i2 + i3) for k' in k's band (k' = k
    # is the leakage term), zero elsewhere
    interference: np.ndarray

    @property
    def sum_rate(self):
        """The users' rates added in group order."""
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
    c1, c2 = context._pilot_gains  # tau p and (tau p)^2
    K = scenario.num_users
    w = weights * context.serving
    p = np.asarray(powers, dtype=float)

    ds = (w * context.gamma).sum(axis=0)
    i1 = np.einsum("mk,mkj->kj", w ** 2, context.q)
    s = np.einsum("mk,mkj->kj", w, context.smat)
    t = np.einsum("mk,mkj->kj", w, context.tmat)
    i2 = np.abs(s) ** 2 * ~np.eye(K, dtype=bool)
    i3 = (2.0 * c1 * t * s.real + c2 * t ** 2) * context.cohort
    return PairTerms(ds=ds, signal=p * ds ** 2,
                     noise_gain=(w ** 2 * context.gamma).sum(axis=0),
                     interference=p * (i1 + i2 + i3))


def sinr_in_bands(scenario, terms, band, bandwidths=None):
    """SinrArrays of the band index `band` from the PairTerms `terms`, at
    `bandwidths` (default: the total split equally over bands 0 to max).
    A band given no bandwidth has no noise, and its users rate 0."""
    if bandwidths is None:
        n = int(band.max()) + 1
        bandwidths = [scenario.config.total_bandwidth / n] * n
    bw = np.asarray(bandwidths, dtype=float)[band]
    sigma = np.array([*map(scenario.subband_noise, bandwidths)])[band]
    i_noise = terms.noise_gain * sigma
    interference = np.where(band[:, None] == band, terms.interference, 0.0)
    sinr, rate = band_rate(bw, terms.signal, terms.noise_gain
                           * scenario.config.noise_density,
                           interference.sum(axis=1))
    return SinrArrays(
        users=scheduled_users(band), sinr=sinr, rate=rate,
        numerator=terms.signal, i_noise=i_noise, interference=interference,
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


def _require_user(k, num_users):
    """Refuse k unless it is a user index 0..num_users-1."""
    if not (isinstance(k, (int, np.integer)) and 0 <= k < num_users):
        raise ContractError(f"user {k!r} is not a user index")


def sinr_lower_bound(scenario, allocation, k, context=None):
    """User k's ``sinr_all`` entries as ``sinr_lb`` and ``rate_lb`` (bit/s);
    a user not in 0..K-1 is refused."""
    _require_user(k, scenario.num_users)
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
    each user in `users` (default: every user, in group order) by
    simulation.

    Draws the trials in blocks of MC_BLOCK, the last one shorter. For each
    block of t trials it draws ``complex_normal`` batches in this order:
    the (t, M, K, N) channel, its (t, M, P, N) pilot noise, then one (t, U)
    array for the U requested users, column u for the u-th in request
    order. Column u, scaled by sqrt(sigma_i v) with v = sum_m w_m^2
    ||hhat_m||^2 over the user's serving set, is its combined receiver
    noise sum_m w_m hhat_m^H n_m: given the estimates, that scalar is
    exactly CN(0, sigma_i v) when n_m ~ CN(0, sigma_i I) independently per
    satellite, since the weights are real. It keeps one block's arrays and
    every trial's scalars, so its memory does not grow with T beyond those
    scalars; T <= MC_BLOCK is one block. The ergodic rate uses the genie
    decomposition: the desired-signal power is the deterministic |DS|^2;
    leakage, interference, and noise powers are instantaneous per
    realization. A user not in 0..K-1, or an allocation that is not a
    partition with one bandwidth per band, is refused first.
    """
    if trials < MIN_TRIALS:
        raise ContractError(f"need at least {MIN_TRIALS} trials")
    band = allocation.band
    if users is None:
        users = scheduled_users(band).tolist()
    if len(set(users)) != len(users):
        raise ContractError("each user may be requested once")
    for k in users:
        _require_user(k, len(band))

    terms = pair_terms(scenario, allocation.powers, allocation.weights)
    closed = sinr_in_bands(scenario, terms, band, allocation.bandwidths)
    # per user: its band mates in group order, and per trial its g_kk and
    # its term powers, "ls", "noise", then "ui:<k'>" per mate
    mates = {k: [kp for kp in np.flatnonzero(band == band[k]).tolist()
                 if kp != k] for k in users}
    g_kk = {k: np.empty(trials, dtype=complex) for k in users}
    powers = {k: np.empty((2 + len(mates[k]), trials)) for k in users}
    sigma = np.array([scenario.subband_noise(allocation.bandwidths[band[k]])
                      for k in users])
    amp = np.sqrt(allocation.powers)
    for block in trial_blocks(trials):
        h = sample_channel_batch(scenario, rng, block.stop - block.start)[0]
        pilot = pilot_observations(scenario, h, rng)
        noise = complex_normal(rng, (len(h), len(users)))
        g, v = _block_terms(scenario, allocation.weights, users, h, pilot)
        noise *= np.sqrt(sigma * v)
        for u, k in enumerate(users):
            g_kk[k][block] = g[:, k, u]
            rows = powers[k][:, block]
            rows[0] = np.abs(amp[k] * g[:, k, u] - amp[k] * terms.ds[k]) ** 2
            rows[1] = np.abs(noise[:, u]) ** 2
            rows[2:] = np.abs(g[:, mates[k], u] * amp[mates[k]]).T ** 2
        del h, pilot, noise, g, v  # before the next block is drawn
    reports = {}
    sum_samples = np.zeros(trials)
    for k in users:
        reports[k], rates = _user_report(allocation, k, terms.ds[k],
                                         mates[k], closed, g_kk[k], powers[k])
        sum_samples += rates
    mean, se = mean_se(sum_samples)
    return McResult(users=reports, sum_rate=mean, sum_rate_se=se)


def _block_terms(scenario, weights, users, h, pilot):
    """(g, v) of one block of t trials for the requested `users`: the
    (t, K, U) g[:, k', u] = sum_m w_m hhat_m^H h_{m,k'} and the (t, U)
    v[:, u] = sum_m w_m^2 ||hhat_m||^2, with w and hhat the u-th user's
    weights and estimates (from the ``pilot_observations`` `pilot`) at its
    serving satellites m, added over m in ascending order: one batched
    product per satellite over the requested users it serves."""
    t, _, K, _ = h.shape
    users = np.asarray(users, dtype=np.intp)
    g = np.zeros((t, K, len(users)), dtype=complex)
    v = np.zeros((t, len(users)))
    for m, serves in enumerate(scenario.serving[:, users]):
        on = np.flatnonzero(serves)
        a = link_estimates(scenario, *pilot, users[on], m)  # (t, |on|, N)
        a *= weights[m, users[on], None]
        flat = a.view(float)  # real and imaginary parts, (t, |on|, 2N)
        v[:, on] += np.einsum("tui,tui->tu", flat, flat)
        np.conjugate(a, out=a)
        g[:, :, on] += h[:, m] @ a.transpose(0, 2, 1)
        del a, flat  # before the next satellite's estimates are formed
    return g, v


def trial_blocks(trials):
    """The slices of `trials` trials that the Monte Carlo path draws
    together, in order: MC_BLOCK trials each, the last one shorter."""
    for start in range(0, trials, MC_BLOCK):
        yield slice(start, min(start + MC_BLOCK, trials))


def mean_se(samples):
    """Sample mean and its standard error, std(ddof=1) / sqrt(T)."""
    return (float(samples.mean()),
            float(samples.std(ddof=1) / np.sqrt(len(samples))))


def _user_report(allocation, k, ds, mates, closed, g_kk, powers):
    """User k's McTermReport and per-trial rates from every trial's g_kk
    and term powers, beside the closed forms of its PairTerms' `ds` and
    the SinrArrays `closed`."""
    p = allocation.powers
    ds_closed = np.sqrt(p[k]) * ds
    row = closed.interference[k]
    closed_forms = [row[k], closed.i_noise[k], *row[mates]]
    names = ["ls", "noise", *(f"ui:{kp}" for kp in mates)]
    _, rates = band_rate(allocation.bandwidths[allocation.band[k]],
                         ds_closed ** 2, 0.0, sum(powers))
    rate, rate_se = mean_se(rates)
    report = McTermReport(
        user=k, trials=len(g_kk), ds_closed=float(abs(ds_closed) ** 2),
        ds_mc=float(abs(np.sqrt(p[k]) * g_kk.mean()) ** 2),
        terms={name: (cf, *mean_se(samples))
               for name, cf, samples in zip(names, closed_forms, powers)},
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

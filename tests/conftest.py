import functools
import tracemalloc
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import pytest
from scipy.optimize import minimize

from dmimo.channel import Correlation, correlation_matrix
from dmimo.config import SystemConfig
from dmimo.gp import (GpInfeasibleError, GpProblem, GpSolution,
                      GpUnboundedError)
from dmimo.optimizer import _min_bandwidth
from dmimo.rate import (ContractError, band_index, band_rate_derivatives,
                        pair_terms, sinr_all, sinr_in_bands)
from dmimo.scenario import Scenario, build_scenario
from dmimo.scheduler import PartitionScore


# Config fields that make the full-band noise power exactly 1:
# k_B T_0 10^(N_dB/10) B = 1 * 1 * 1 * 1.
UNIT_NOISE = dict(boltzmann=1.0, noise_temperature=1.0, total_bandwidth=1.0,
                  noise_figure_db=0.0)


# The system of the benchmark's ao-small workload: K = 8, four satellites in
# clusters of three, four sub-bands of three users, six pilots, no floor.
AO_SMALL = SystemConfig(
    num_users=8, num_satellites=4, cluster_size=3, num_subbands=4,
    subband_capacity=3, pilot_length=6, max_power=0.2)


# The system of the benchmark's ao-paper-floor workload: N = 100, K = 16
# and a 5e4 bit/s rate floor.
AO_PAPER_FLOOR = SystemConfig(
    num_users=16, num_satellites=4, cluster_size=3, num_subbands=4,
    subband_capacity=4, pilot_length=14, max_power=0.2, rate_requirement=5e4,
    antennas_x=10, antennas_y=10)


def peak_traced_bytes(fn):
    """The peak of the bytes that tracemalloc sees allocated while fn()
    runs, numpy's arrays included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_scenario(seed=0, **kw):
    cfg = SystemConfig(**kw)
    return build_scenario(cfg, np.random.default_rng(seed))


@dataclass(frozen=True, eq=False)
class DeltaScenario(Scenario):
    """A scenario whose links share the correlation `delta` in place of the
    config's (for a complex Hermitian Delta, which no config gives)."""

    delta: np.ndarray = None

    @cached_property
    def correlation(self):
        return Correlation.of(self.delta)


def with_correlation(scenario, delta):
    """`scenario` with every link's correlation set to `delta`."""
    return DeltaScenario(config=scenario.config, beta=scenario.beta,
                         rician=scenario.rician, los=scenario.los,
                         pilots=scenario.pilots,
                         serving_sets=scenario.serving_sets, delta=delta)


def complex_delta(n):
    """A complex Hermitian positive-definite N x N correlation."""
    a = np.random.default_rng(n).standard_normal((n, 2 * n)).view(complex)
    return a @ a.conj().T / n + np.eye(n)


def dense_delta(scenario):
    """The scenario's Delta as a dense matrix, from its definition."""
    if isinstance(scenario, DeltaScenario):
        return scenario.delta
    cfg = scenario.config
    return correlation_matrix(cfg.correlation.kind, cfg.num_antennas,
                              cfg.correlation.r)


def pilot_cohort(scenario, k):
    """The users that share user k's pilot, k included, in increasing
    order."""
    return np.flatnonzero(scenario.pilots == scenario.pilots[k])


# The dense MMSE statistics, each an N x N matrix per link: the reference
# for the spectra of dmimo.estimation.EstimationStats.


def psi_matrix(cohort_covs, tau, pilot_powers, sigma2):
    """Inverse of (sum_j tau p_j R_j + sigma^2 I) over the pilot cohort."""
    if sigma2 <= 0:
        raise ValueError("noise power must be strictly positive")
    n = cohort_covs[0].shape[0]
    acc = sigma2 * np.eye(n)
    for cov, p in zip(cohort_covs, pilot_powers):
        acc = acc + tau * p * cov
    return np.linalg.inv(acc)


def cohort_psi(scenario, m, k):
    """Psi of user k's pilot cohort at satellite m and the full-band noise
    power, as the scenario's estimation statistics use it."""
    cfg = scenario.config
    delta = dense_delta(scenario)
    covs = [scenario.rician_scale[m, j] * delta
            for j in pilot_cohort(scenario, k)]
    return psi_matrix(covs, cfg.pilot_length, [cfg.pilot_power] * len(covs),
                      scenario.fullband_noise)


DenseStats = namedtuple("DenseStats", "R rpsi C E")


def dense_stats(scenario, m, k):
    """Link (m, k)'s covariance R = a Delta, filter R Psi, estimate
    covariance C = tau p R Psi R and error covariance E = R - C."""
    cfg = scenario.config
    r = scenario.rician_scale[m, k] * dense_delta(scenario)
    rpsi = r @ cohort_psi(scenario, m, k)
    c = cfg.pilot_length * cfg.pilot_power * (rpsi @ r)
    return DenseStats(R=r, rpsi=rpsi, C=c, E=r - c)


# The Monte Carlo path in antenna coordinates, Delta^(1/2) colouring each
# draw and every link's dense R Psi filtering its estimate: the reference
# for dmimo's sampler and estimator, which work in the basis U.


def los_mean(scenario):
    """Every link's LoS mean sqrt(Kbar a) hbar, (M, K, N)."""
    kbar_a = scenario.rician * scenario.rician_scale
    return np.sqrt(kbar_a)[:, :, None] * scenario.los


def reference_channel(scenario, z):
    """The channels sqrt(Kbar a) hbar + sqrt(a) Delta^(1/2) z of the
    CN(0, I) draw z, shaped (..., M, K, N)."""
    vals, vecs = np.linalg.eigh(dense_delta(scenario))
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    scale = np.sqrt(scenario.rician_scale)[:, :, None]
    return los_mean(scenario) \
        + scale * np.einsum("ij,...j->...i", root, z)


def reference_estimates(scenario, h, noise):
    """MMSE estimates of the channels h (T, M, K, N) from the despread pilot
    noise (T, M, tau, N): each link's LoS mean plus sqrt(tau p) times its
    dense R Psi applied to the centred observation of its user's pilot."""
    cfg = scenario.config
    sqrt_tp = np.sqrt(cfg.pilot_length * cfg.pilot_power)
    mean = los_mean(scenario)
    hhat = np.empty_like(h)
    for m in range(scenario.num_satellites):
        for k in range(scenario.num_users):
            obs = noise[:, m, scenario.pilots[k], :] + sum(
                sqrt_tp * (h[:, m, j, :] - mean[m, j])
                for j in pilot_cohort(scenario, k))
            filt = sqrt_tp * dense_stats(scenario, m, k).rpsi
            hhat[:, m, k, :] = mean[m, k] + obs @ filt.T
    return hhat


def reference_monte_carlo(scenario, allocation, trials, rng):
    """Every scheduled user's per-trial term powers and rate, user -> name
    -> (trials,) array with names "ls", "noise", "ui:<k'>" (k's band mates
    in ascending order) and "rate" (bit/s), simulated in antenna
    coordinates: channels from ``reference_channel``, estimates from
    ``reference_estimates``, and receiver noise n_m ~ CN(0, sigma_i I) per
    antenna of each serving satellite, projected as sum_m w_m hhat_m^H n_m.
    The desired-signal coefficient is the scalar reference's ds; no code
    of dmimo's Monte Carlo engine is used."""
    def cn(shape):
        return (rng.standard_normal(shape)
                + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    M, K, N = (scenario.num_satellites, scenario.num_users,
               scenario.num_antennas)
    h = reference_channel(scenario, cn((trials, M, K, N)))
    pilot_noise = np.sqrt(scenario.fullband_noise) \
        * cn((trials, M, scenario.config.pilot_length, N))
    hhat = reference_estimates(scenario, h, pilot_noise)
    band, p = allocation.band, allocation.powers
    out = {}
    for k in np.flatnonzero(band >= 0).tolist():
        bw = allocation.bandwidths[band[k]]
        sset = scenario.serving_sets[k]
        w = allocation.weights[sset, k]
        hh = hhat[:, sset, k, :].conj()
        g = np.einsum("tmn,m,tmjn->tj", hh, w, h[:, sset])
        noise = np.sqrt(scenario.subband_noise(bw)) \
            * cn((trials, len(sset), N))
        ref = sinr_lower_bound(scenario, allocation, k)
        terms = {"ls": p[k] * np.abs(g[:, k] - ref.ds) ** 2,
                 "noise": np.abs(np.einsum("tmn,m,tmn->t", hh, w,
                                           noise)) ** 2}
        for kp in np.flatnonzero(band == band[k]).tolist():
            if kp != k:
                terms[f"ui:{kp}"] = p[kp] * np.abs(g[:, kp]) ** 2
        terms["rate"] = bw * np.log2(1.0 + ref.numerator
                                     / sum(terms.values()))
        out[k] = terms
    return out


def dense_rate_context(scenario):
    """RateContext's arrays built entry by entry from the dense statistics,
    one Python iteration per (m, k, k') with the traces as full matrix
    products."""
    M, K, N = (scenario.num_satellites, scenario.num_users,
               scenario.num_antennas)
    gamma = np.zeros((M, K))
    q1, q2, q3, tmat = (np.zeros((M, K, K)) for _ in range(4))
    smat = np.zeros((M, K, K), dtype=complex)
    kbar_a = scenario.rician * scenario.rician_scale
    for m in range(M):
        dense = [dense_stats(scenario, m, k) for k in range(K)]
        for k in range(K):
            ck, rpsik = dense[k].C, dense[k].rpsi
            gamma[m, k] = float(np.trace(ck).real) + kbar_a[m, k] * N
            for kp in range(K):
                rkp = dense[kp].R
                hk, hkp = scenario.los[m, k], scenario.los[m, kp]
                q1[m, k, kp] = float((hkp.conj() @ ck @ hkp).real) \
                    * kbar_a[m, kp]
                q2[m, k, kp] = float((hk.conj() @ rkp @ hk).real) \
                    * kbar_a[m, k]
                q3[m, k, kp] = float(np.trace(rkp @ ck).real)
                tmat[m, k, kp] = float(np.trace(rpsik @ rkp).real)
                smat[m, k, kp] = np.sqrt(kbar_a[m, k]) \
                    * np.sqrt(kbar_a[m, kp]) * (hk.conj() @ hkp)
    return {"gamma": gamma, "q": q1 + q2 + q3, "tmat": tmat, "smat": smat}


# The closed-form bound as a scalar per-term decomposition, one Python sum per
# term over the serving set: the reference for dmimo.rate's vectorized
# evaluator (pair_terms, sinr_in_bands) and the Monte Carlo engine's closed
# forms.


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


def sinr_lower_bound(scenario, allocation, k, context=None):
    """Closed-form SINR lower bound and per-term decomposition for user k."""
    if context is None:
        context = scenario.rate_context
    cfg = scenario.config
    band = allocation.band
    if band[k] < 0:
        raise ContractError(f"user {k} is not scheduled in any sub-band")
    bw = allocation.bandwidths[band[k]]
    sigma_i = scenario.subband_noise(bw)
    sset = scenario.serving_sets[k]
    w = allocation.weights[:, k]
    p = allocation.powers
    tau, pp = cfg.pilot_length, cfg.pilot_power

    ds = float(sum(w[m] * context.gamma[m, k] for m in sset))
    numerator = p[k] * ds ** 2
    i_noise = float(sum(w[m] ** 2 * context.gamma[m, k] for m in sset)) \
        * sigma_i

    i1, i2, i3 = {}, {}, {}
    denom = i_noise
    for kp in np.flatnonzero(band == band[k]).tolist():  # k's group
        term1 = float(sum(w[m] ** 2 * context.q[m, k, kp] for m in sset))
        i1[kp] = term1
        denom += p[kp] * term1
        if kp != k:
            s = sum(w[m] * context.smat[m, k, kp] for m in sset)
            term2 = float(abs(s) ** 2)
            i2[kp] = term2
            denom += p[kp] * term2
            if scenario.cohort[k, kp]:
                t = float(sum(w[m] * context.tmat[m, k, kp] for m in sset))
                term3 = (
                    2.0 * tau * np.sqrt(pp * pp) * t * float(s.real)
                    + tau ** 2 * pp * pp * t ** 2
                )
                i3[kp] = term3
                denom += p[kp] * term3
    sinr = numerator / denom if numerator > 0 else 0.0
    return SinrTerms(ds=ds, numerator=numerator, i_noise=i_noise, i1=i1,
                     i2=i2, i3=i3, sinr_lb=sinr,
                     rate_lb=bw * np.log2(1.0 + sinr))


def manual_scenario(config, beta, rician, los, pilots, serving_sets):
    """A Scenario given by hand: (M, K) gains and Rician factors, (M, K, N)
    LoS vectors, each user's pilot and serving set."""
    return Scenario(
        config=config, beta=np.asarray(beta, dtype=float),
        rician=np.asarray(rician, dtype=float),
        los=np.asarray(los, dtype=complex), pilots=np.asarray(pilots),
        serving_sets=tuple(np.array(sorted(s), dtype=np.intp)
                           for s in serving_sets),
    )


def clone_user(scenario, k, into):
    """`scenario` with user `into`'s links and serving set copied from
    user k's; the pilots stay."""
    arrays = [a.copy() for a in (scenario.beta, scenario.rician,
                                 scenario.los)]
    for a in arrays:
        a[:, into] = a[:, k]
    sets = list(scenario.serving_sets)
    sets[into] = sets[k]
    beta, rician, los = arrays
    return replace(scenario, beta=beta, rician=rician, los=los,
                   serving_sets=tuple(sets))


def score_partition_reference(scenario, groups, terms):
    """``scheduler.score_partition`` as it was written over lists of
    groups: the worst user is the first lowest SINR in group order, its
    interferer the first strongest of its mates in ascending order, and the
    sum rate the users' rates added in group order, or None when one misses
    a positive rate requirement."""
    res = sinr_in_bands(scenario, terms,
                        band_index(groups, len(terms.signal)))
    users = [k for g in groups for k in g]
    sinr, rate = res.sinr.tolist(), res.rate.tolist()
    worst = min(users, key=sinr.__getitem__)
    row = res.interference[worst].tolist()
    group = next(g for g in groups if worst in g)
    interferer = max(sorted(kp for kp in group if kp != worst),
                     key=row.__getitem__, default=None)
    req = scenario.config.rate_requirement
    missed = req > 0 and any(rate[k] < req for k in users)
    return PartitionScore(
        sum_rate=None if missed else sum(rate[k] for k in users),
        worst=worst, interferer=interferer)


# The bandwidth stage as a dual search: the reference that the Newton loop
# of dmimo.optimizer.optimize_bandwidth is compared against.


def bandwidth_coefficients(scenario, allocation):
    """Every user's (a, b, c), (K,) arrays each, so that band_rate(B, a, b,
    c) is the user's ``sinr_all`` SINR and rate on a band of bandwidth B: a the
    desired power, b the noise power per Hz and c the interference plus
    leakage power, which does not depend on B."""
    terms = pair_terms(scenario, allocation.powers, allocation.weights)
    res = sinr_all(scenario, allocation)
    return (res.numerator, terms.noise_gain * scenario.config.noise_density,
            res.interference.sum(axis=1))


def dual_bandwidth(scenario, allocation):
    """The sum-rate-maximizing bandwidths of `allocation`'s bands, by
    water-filling on the dual variable mu: each band solves g_i'(x) = mu
    above its rate floor by safeguarded Newton, and mu by safeguarded
    Newton on the excess spent. Returns the bandwidths, on the simplex and
    at or above the floors."""
    total = scenario.config.total_bandwidth
    req = scenario.config.rate_requirement
    a, b, c = bandwidth_coefficients(scenario, allocation)
    coeffs = [(a[g], b[g], c[g]) for g in allocation.groups]
    bands = list(range(len(allocation.groups)))
    floors = [float(_min_bandwidth(*coeffs[i], req, total).max())
              for i in bands]

    def gp(i, x):
        return float(band_rate_derivatives(x, *coeffs[i])[0].sum())

    def gpp(i, x):
        return float(band_rate_derivatives(x, *coeffs[i])[1].sum())

    def band_bw(i, mu):
        """Solve g_i'(x) = mu for x >= floor_i (g_i' decreasing)."""
        if gp(i, max(floors[i], 1e-12 * total)) <= mu:
            return floors[i]
        lo, hi = max(floors[i], 1e-12 * total), total
        while gp(i, hi) > mu:
            hi *= 2.0
        x = 0.5 * (lo + hi)
        for _ in range(200):
            val = gp(i, x) - mu
            if val > 0:
                lo = x
            else:
                hi = x
            xn = x - val / gpp(i, x)
            x = xn if lo < xn < hi else 0.5 * (lo + hi)
            if hi - lo < 1e-15 * total or abs(val) < 1e-18:
                break
        return x

    # bracket: excess > 0 as mu -> 0, excess < 0 at mu_hi (all bands clamp)
    mu_lo = 0.0
    mu_hi = max(gp(i, max(floors[i], 1e-12 * total)) for i in bands)
    eq = total / len(bands)
    mu = float(np.mean([gp(i, max(eq, floors[i])) for i in bands]))
    mu = min(max(mu, 1e-12 * mu_hi), mu_hi)
    for _ in range(60):
        x = [band_bw(i, mu) for i in bands]
        e = sum(x) - total
        if e > 0:
            mu_lo = mu
        else:
            mu_hi = mu
        if abs(e) <= 1e-10 * total:
            break
        # Newton on the dual: d(excess)/dmu = sum 1/g'' over unclamped bands
        slope = sum(1.0 / gpp(i, x[i]) for i in bands
                    if x[i] > floors[i] + 1e-15 * total)
        if slope < 0:
            mu_n = mu - e / slope
            mu = mu_n if mu_lo < mu_n < mu_hi else 0.5 * (mu_lo + mu_hi)
        else:
            mu = 0.5 * (mu_lo + mu_hi)
    bws = [band_bw(i, mu) for i in bands]
    # Spend exactly the total, taking the excess (or the shortfall) from the
    # bands above their floors in proportion, so that no band goes under
    # its floor: a band under its floor would rate above the optimum.
    excess = sum(bws) - total
    free = sum(b for i, b in enumerate(bws) if b > floors[i])
    return [b - excess * b / free if b > floors[i] else b
            for i, b in enumerate(bws)]


# GP rows written as a dense (R, n) exponent matrix: the form that tests
# write problems in, and the reference for GpProblem's nonzeros.


def dense_problem(objective, logs, exps, starts):
    """The GpProblem whose rows have the dense exponents `exps`."""
    exps = np.asarray(exps, dtype=float).reshape(len(logs), len(objective))
    row, col = np.nonzero(exps)
    return GpProblem(objective, logs, row, col, exps[row, col], starts)


def dense_exps(problem):
    """The (R, n) exponent matrix of a GpProblem's nonzeros."""
    exps = np.zeros((len(problem.logs), len(problem.objective)))
    exps[problem.row, problem.col] = problem.value
    return exps


# The GP solve by SciPy's SLSQP: the reference that the interior-point method
# of dmimo.gp.solve_gp is compared against.


def slsqp_reference(problem, x0):
    """Solve `problem` from the log-domain start x0 by SLSQP, through one
    vector-valued constraint whose values and Jacobian come from one
    log-sum-exp evaluation per distinct point. Returns a GpSolution (status
    is SLSQP's exit status, the KKT residual that of least-squares
    multipliers over the constraints within 1e-7 of active); raises
    GpInfeasibleError / GpUnboundedError as solve_gp does."""
    obj = problem.objective
    at = functools.cache(lambda key: problem.lse_softmax(np.frombuffer(key)))
    res = minimize(
        lambda x: -obj @ x, np.asarray(x0, dtype=float), jac=lambda x: -obj,
        method="SLSQP",
        constraints={"type": "ineq", "fun": lambda x: -at(x.tobytes())[0],
                     "jac": lambda x: -problem.jacobian(at(x.tobytes())[1])},
        options={"maxiter": 300, "ftol": 1e-14},
    )
    x = res.x
    if (not np.all(np.isfinite(x))
            or np.abs(x[obj != 0]).max(initial=0.0) > 80.0):
        raise GpUnboundedError("iterates diverged; problem likely unbounded")
    val, soft = at(x.tobytes())
    jac = problem.jacobian(soft)
    viol = val.max()
    if viol > 1e-6:
        raise GpInfeasibleError(f"no feasible point found (max log "
                                f"violation {viol:.2e})")
    G = jac[val > -1e-7].T
    if G.size:
        lam, *_ = np.linalg.lstsq(G, obj, rcond=None)
        kkt = np.linalg.norm(obj - G @ np.clip(lam, 0.0, None))
    else:
        kkt = np.linalg.norm(obj)
    return GpSolution(x=x, status=int(res.status), kkt_residual=float(kkt),
                      max_violation=float(np.expm1(viol)),
                      iterations=int(res.nit))


@pytest.fixture
def scalar_scenario():
    """N=1, M=1, two users sharing one pilot; user 1 contributes nothing
    (beta=0), so user 0's statistics reduce to the scalar hand case
    R=1, tau=1, p^p=1, sigma^2=1."""
    cfg = SystemConfig(
        num_satellites=1, num_users=2, antennas_x=1, antennas_y=1,
        num_subbands=1, pilot_length=1, pilot_power=1.0, cluster_size=1,
        subband_capacity=2, **UNIT_NOISE,
    )
    return manual_scenario(cfg, beta=[[2.0, 0.0]], rician=[[1.0, 1.0]],
                           los=[[[1.0], [1.0]]], pilots=(0, 0),
                           serving_sets=[{0}, {0}])


@pytest.fixture
def default_scenario():
    return make_scenario(seed=3)

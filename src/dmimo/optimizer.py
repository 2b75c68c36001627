"""Joint combining-weight and power control via SCA + geometric programming,
concave bandwidth allocation, and the outer alternating-optimization loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import sample_channel_batch
from .estimation import estimate_batch
from .gp import (GpInfeasibleError, GpProblem, GpUnboundedError, condense,
                 solve_gp)
from .rate import (
    AllocationState,
    equal_split_allocation,
    equal_weights,
    normalize_weights,
    sinr_all,
    sum_rate,
)
from .scheduler import Schedule, schedule_users

LN2 = math.log(2.0)
# The alternating optimization stops after a round that gains less than
# EPS_OUTER of its sum rate over the round before; the SCA loop after a GP
# step that gains less than EPS_SCA, or after MAX_ITER_SCA steps.
EPS_OUTER = 1e-3
EPS_SCA = 0.01
MAX_ITER_SCA = 30
# The bandwidth stage's dual search stops once the bandwidths it spends are
# within this fraction of the total.
TOL_BANDWIDTH = 1e-10


class InfeasibleError(RuntimeError):
    """Unattainable rate floors, with their feasibility margin phi (or nan)."""

    def __init__(self, message, phi=math.nan):
        super().__init__(message)
        self.phi = phi


def sca_coefficients(chi_prev):
    """Tangent-surrogate coefficients: log2(1+chi) >= psi log2(chi) + delta,
    tight at chi_prev."""
    if chi_prev <= 0:
        raise ValueError("SCA anchor must be strictly positive")
    psi = chi_prev / (1.0 + chi_prev)
    delta = math.log2(1.0 + chi_prev) - psi * math.log2(chi_prev)
    return psi, delta


def monomial_bound(coeffs, anchors):
    """Global monomial lower bound on (sum_m w_m A_m)^2, tight at the anchor.

    Returns (c, exps) with (sum w A)^2 >= c * prod w_m^{exps_m} for all
    positive w, equality at w = anchors. Derived by AM-GM on the inner sum
    and squaring, so exps_m = 2 * w^_m A_m / sum_n w^_n A_n (sums to 2).
    """
    A = np.asarray(coeffs, dtype=float)
    wh = np.asarray(anchors, dtype=float)
    if np.any(A <= 0) or np.any(wh <= 0):
        raise ValueError("coefficients and anchor weights must be positive")
    s = float((wh * A).sum())
    alpha = wh * A / s
    exps = 2.0 * alpha
    c = s ** 2 / np.prod(wh ** exps)
    return float(c), exps


# ---------------------------------------------------------------------------
# GP subproblem construction (power + combining weights)
# ---------------------------------------------------------------------------


def _gp_rows(scenario, allocation, chi, optimize_weights, floors):
    """The stacked GP rows of the power/weight problem, anchored at
    (allocation, chi).

    Columns: chi_k at k, p_k at K + k, then, with optimize_weights, each
    user's weights w_{m,k}, m in M_k increasing, user by user: the order
    of ``weights.T[serving.T]``. Constraints, in
    order: chi_k <= SINR_k^LB for each scheduled user in group order, each
    followed by the rate floor chi_k >= gamma_req when ``floors`` and a
    requirement is set; then for every user p_k <= P_max and, with
    optimize_weights, sum_m w_{m,k}^2 <= 1.

    chi_k <= SINR_k^LB is chi_k D_k(p, w) / N_k(p, w) <= 1. Each nonzero
    entry Q[i, j] of ``scenario.rate_context.quadratics[k, k']``, k' in
    k's group, is a term chi_k p_k' w_i w_j of chi_k D_k; the noise terms
    chi_k sigma Gamma_i w_i^2 follow. Without optimize_weights the weights
    are the allocation's constants. Negative terms move to the numerator
    p_k (sum w Gamma)^2, then condensed into a monomial at x0.

    Returns (x0, logs, exps, starts), x0 being the anchor in log domain.
    """
    K, serving = scenario.num_users, scenario.serving.T
    points = [np.maximum(chi, 1e-30), allocation.powers]
    if optimize_weights:
        points.append(np.maximum(allocation.weights.T[serving], 1e-12))
    x0 = np.log(np.concatenate(points))
    context = scenario.rate_context
    # Serving sets are padded to the largest, n, groups to the largest, G:
    # a padded term's coefficient is zero, so its row is dropped.
    Q = context.quadratics
    n, size = Q.shape[-1], serving.sum(axis=1)
    valid = np.arange(n) < size[:, None]
    sat, wcol = np.zeros((2, K, n), dtype=np.intp)
    sat[valid] = np.nonzero(serving)[1]
    wcol[valid] = 2 * K + np.arange(size.sum())
    gamma = np.where(valid, context.gamma[sat, np.arange(K)[:, None]], 0.0)
    w = np.where(valid, allocation.weights[sat, np.arange(K)[:, None]], 0.0)
    G = max(len(g) for g in allocation.groups)
    table = np.array([g + [-1] * (G - len(g)) for g in allocation.groups])
    band, _ = np.nonzero(table >= 0)
    users, mates = table[table >= 0], table[band]  # in group order
    bws, U = [allocation.bandwidths[i] for i in band], len(users)

    # User u's rows: n * n per group mate (Q row by row), n noise rows and
    # a last one holding gamma_req, which becomes the rate floor.
    q = np.where(mates[:, :, None, None] >= 0, Q[users[:, None], mates], 0.0)
    noise = np.array([scenario.subband_noise(b) for b in bws])[:, None] \
        * gamma[users]
    if not optimize_weights:
        wu = w[users][:, None]
        q = q * wu[:, :, :, None] * wu[:, :, None, :]
        noise = noise * w[users] ** 2
    reqs = np.array([_rate_gamma(scenario, b) if floors else 0.0
                     for b in bws])
    c = np.concatenate([q.reshape(U, -1), noise, reqs[:, None]], axis=1)
    e = np.zeros(c.shape + (len(x0),))
    e[np.arange(U), :, users] = 1.0
    e[np.arange(U), -1, users] = -1.0
    uu = np.arange(U)[:, None]
    e[uu, np.arange(G * n * n), np.repeat(K + mates, n * n, axis=1)] = 1.0
    if optimize_weights:  # w_i w_j of each Q entry, w_i^2 of each noise row
        for side in np.divmod(np.arange(n * n), n):
            side = np.append(np.tile(side, G), np.arange(n))
            e[uu, np.arange(len(side)), wcol[users][:, side]] += 1.0

    num_log = np.empty(U)
    num_e = np.zeros((U, len(x0)))
    num_e[np.arange(U), K + users] = 1.0
    for u, k in enumerate(users):
        g, wk = gamma[k, :size[k]], w[k, :size[k]]
        if optimize_weights:  # AM-GM bound on (sum w Gamma)^2
            cnum, num_e[u, wcol[k, :size[k]]] = monomial_bound(
                g, np.maximum(wk, 1e-12))
        else:
            cnum = float((wk * g).sum()) ** 2
        num_log[u] = math.log(cnum)
        neg = c[u] < 0
        if neg.any():
            num_log[u], num_e[u] = condense(
                np.append(num_log[u], np.log(-c[u][neg])),
                np.vstack([num_e[u], e[u][neg]]), x0)
    pos = c > 0
    kept, col = np.nonzero(pos)
    floor = col == c.shape[1] - 1
    logs, exps = np.log(c[pos]) - num_log[kept], e[pos] - num_e[kept]
    logs[floor] = [math.log(r) for r in reqs[reqs > 0]]
    exps[floor] = e[reqs > 0, -1]
    # per user slot: its SINR constraint, then its floor if it has one
    sizes = np.bincount(2 * kept + floor, minlength=2 * U)[
        np.column_stack([np.ones(U, dtype=bool), reqs > 0]).ravel()]

    # then per user k: the power cap p_k <= P_max and the weight norm
    tail = np.column_stack([np.ones(K, dtype=bool), valid & optimize_weights])
    cols = np.column_stack([K + np.arange(K), wcol])[tail]
    unit_e = np.zeros((len(cols), len(x0)))
    unit_e[np.arange(len(cols)), cols] = np.where(cols < 2 * K, 1.0, 2.0)
    sizes = np.concatenate([sizes, np.column_stack(
        [np.ones(K, dtype=np.intp), size])[:, :1 + optimize_weights].ravel()])
    logs = np.concatenate([logs, np.where(
        cols < 2 * K, math.log(1.0 / scenario.config.max_power), 0.0)])
    return x0, logs, np.vstack([exps, unit_e]), np.cumsum(sizes) - sizes


def _allocation_at(scenario, allocation, x, optimize_weights):
    """`allocation` with the powers (capped at P_max) and, if optimized,
    the weights of the log-domain point x = (log p, log w), the weights
    renormalized to unit squared norm."""
    K = scenario.num_users
    out = allocation.copy()
    out.powers = np.minimum(np.exp(x[:K]), scenario.config.max_power)
    if optimize_weights:
        out.weights.T[scenario.serving.T] = np.exp(x[K:])
    out.weights = normalize_weights(scenario, out.weights)
    return out


def _rate_gamma(scenario, bandwidth):
    """The SINR 2^(r_req / B) - 1 that meets the rate floor on a band of
    bandwidth B; inf where that overflows a float."""
    req = scenario.config.rate_requirement
    if req <= 0:
        return 0.0
    try:
        return 2.0 ** (req / bandwidth) - 1.0
    except OverflowError:
        return math.inf


def feasibility_check(scenario, allocation, optimize_weights=True):
    """Solve the rate-requirement feasibility problem.

    Returns (phi, allocation) where phi >= 1 means the requirements are
    attainable; the returned allocation carries the maximizing powers and
    weights. With zero requirements phi is unbounded and reported as inf;
    a floor that needs an SINR beyond float range gives phi = 0 and a copy
    of the allocation.
    """
    K = scenario.num_users
    if scenario.config.rate_requirement <= 0:
        return math.inf, allocation.copy()
    log_gamma = np.zeros(K)
    for i, g in enumerate(allocation.groups):
        gamma = _rate_gamma(scenario, allocation.bandwidths[i])
        if math.isinf(gamma):
            return 0.0, allocation.copy()
        log_gamma[g] = math.log(gamma)

    x0, logs, exps, starts = _gp_rows(scenario, allocation, np.ones(K),
                                      optimize_weights, floors=False)
    # chi_k = phi * gamma_k: fold the chi columns into one phi column
    chi = exps[:, :K]
    exps = np.hstack([chi.sum(axis=1, keepdims=True), exps[:, K:]])
    objective = np.zeros(exps.shape[1])
    objective[0] = 1.0
    problem = GpProblem(objective, logs + chi @ log_gamma, exps, starts)
    try:
        sol = solve_gp(problem, np.append(0.0, x0[K:]))
    except GpUnboundedError:
        return math.inf, allocation.copy()
    return float(np.exp(sol.x[0])), _allocation_at(
        scenario, allocation, sol.x[1:], optimize_weights)


def build_sca_subproblem(scenario, allocation, chi, optimize_weights=True):
    """One SCA iteration's GP, anchored at (allocation, chi).

    Maximizes prod chi_k^psi_hat with psi_hat = psi_k B_i / B, subject to the
    SINR, power-cap, weight-norm, and rate-floor constraints laid out as in
    ``_gp_rows``. Returns (problem, x0), x0 the anchor in log domain.
    """
    x0, logs, exps, starts = _gp_rows(scenario, allocation, chi,
                                      optimize_weights, floors=True)
    objective = np.zeros(len(x0))
    for i, group in enumerate(allocation.groups):
        for k in group:
            psi, _ = sca_coefficients(chi[k])
            objective[k] = (psi * allocation.bandwidths[i]
                            / scenario.config.total_bandwidth)
    return GpProblem(objective, logs, exps, starts), x0


@dataclass
class ScaTrace:
    objectives: list = field(default_factory=list)
    # Why the loop stopped: "converged" (relative gain below EPS_SCA),
    # "no_improvement" (a GP step lowered the sum rate, so the previous
    # iterate was kept), "gp_infeasible" (the solver found no feasible
    # point, so the previous iterate was kept) or "max_iter".
    stop_reason: str = "max_iter"

    @property
    def iterations(self):
        return max(len(self.objectives) - 1, 0)


def optimize_power_weights(scenario, allocation, optimize_weights=True):
    """SCA + GP loop for transmit powers and combining weights.

    Starts from max power (and the feasibility solution when requirements
    are active), iterates tangent surrogates with AM-GM weight bounds, and
    stops when the relative sum-rate gain drops below EPS_SCA. Weights are
    renormalized to unit squared norm on exit. Returns (allocation, trace),
    the allocation carrying the feasibility margin phi; raises
    InfeasibleError with phi when the requirements are unattainable.
    """
    cfg = scenario.config
    work = allocation.copy()
    work.powers = np.full(scenario.num_users, cfg.max_power)
    if cfg.rate_requirement > 0:
        phi, seeded = feasibility_check(scenario, work,
                                        optimize_weights=optimize_weights)
        if phi < 1.0:
            raise InfeasibleError(
                f"rate requirements unattainable (phi = {phi:.4f})", phi
            )
        work = seeded
        work.powers = np.minimum(work.powers, cfg.max_power)
        work.phi = phi

    # One SINR evaluation per iterate gives both its objective (the sum
    # rate, in sum_rate's order) and the next iteration's anchor chi.
    res = sinr_all(scenario, work)
    trace = ScaTrace()
    trace.objectives.append(res.sum_rate)
    for _ in range(MAX_ITER_SCA):
        chi = np.ones(scenario.num_users)
        chi[res.users] = np.maximum(res.sinr[res.users], 1e-30)
        problem, x0 = build_sca_subproblem(
            scenario, work, chi, optimize_weights=optimize_weights
        )
        try:
            sol = solve_gp(problem, x0)
        except GpInfeasibleError:
            trace.stop_reason = "gp_infeasible"
            break
        cand = _allocation_at(scenario, work, sol.x[scenario.num_users:],
                              optimize_weights)
        cand_res = sinr_all(scenario, cand)
        obj = cand_res.sum_rate
        if obj < trace.objectives[-1]:
            trace.stop_reason = "no_improvement"
            break
        work, res = cand, cand_res
        trace.objectives.append(obj)
        prev, cur = trace.objectives[-2], trace.objectives[-1]
        if cur > 0 and (cur - prev) / cur < EPS_SCA:
            trace.stop_reason = "converged"
            break
    return work, trace


# ---------------------------------------------------------------------------
# Bandwidth allocation
# ---------------------------------------------------------------------------


def rate_vs_bandwidth(x, a, b, c):
    """f(x) = x log2(1 + a / (b x + c))."""
    return x * math.log2(1.0 + a / (b * x + c))


def rate_vs_bandwidth_prime(x, a, b, c):
    u = b * x + c
    return math.log2(1.0 + a / u) - a * b * x / (LN2 * u * (u + a))


def rate_vs_bandwidth_second(x, a, b, c):
    u = b * x + c
    return -a * b * (a * b * x + 2 * b * c * x + 2 * c * c + 2 * a * c) \
        / (LN2 * u * u * (u + a) ** 2)


def bandwidth_coefficients(scenario, allocation):
    """Per-user (a, b, c): desired power, noise-per-Hz factor, and
    bandwidth-independent interference-plus-leakage power."""
    res = sinr_all(scenario, allocation)
    c = res.interference.sum(axis=1)
    coeffs = {}
    for i, group in enumerate(allocation.groups):
        for k in group:
            # i_noise = (sum w^2 Gamma) * sigma_i, linear in bandwidth
            b = res.i_noise[k] / allocation.bandwidths[i] if \
                allocation.bandwidths[i] > 0 else 0.0
            coeffs[k] = (max(res.numerator[k], 1e-300), max(b, 1e-300),
                         max(c[k], 1e-30))
    return coeffs


@dataclass
class BandwidthResult:
    allocation: AllocationState
    iterations: int
    kkt_residual: float
    objective_trace: list = field(default_factory=list)  # best-so-far Σf


def _min_bandwidth(a, b, c, req, total):
    """Smallest x with f(x) >= req (f increasing); bisection."""
    if req <= 0:
        return 0.0
    lo, hi = 0.0, total
    if rate_vs_bandwidth(hi, a, b, c) < req:
        raise InfeasibleError("rate floor unattainable within total bandwidth")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats: neither can move again
        if rate_vs_bandwidth(mid, a, b, c) >= req:
            hi = mid
        else:
            lo = mid
    return hi


def optimize_bandwidth(scenario, allocation):
    """Concave bandwidth allocation by water-filling on the dual variable.

    The objective is separable per band with strictly increasing concave
    summands, so the full bandwidth is spent and the optimum satisfies
    g_i'(B_i) = mu off the rate floors. mu is found by safeguarded Newton.
    """
    total = scenario.config.total_bandwidth
    req = scenario.config.rate_requirement
    coeffs = bandwidth_coefficients(scenario, allocation)
    bands = list(range(len(allocation.groups)))
    floors = [max([0.0] + [_min_bandwidth(*coeffs[k], req, total)
                           for k in group]) for group in allocation.groups]
    if sum(floors) > total:
        raise InfeasibleError("rate floors jointly exceed total bandwidth")

    def gp(i, x):
        return sum(rate_vs_bandwidth_prime(x, *coeffs[k])
                   for k in allocation.groups[i])

    def gpp(i, x):
        return sum(rate_vs_bandwidth_second(x, *coeffs[k])
                   for k in allocation.groups[i])

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
            step = val / gpp(i, x)
            xn = x - step
            x = xn if lo < xn < hi else 0.5 * (lo + hi)
            if hi - lo < 1e-15 * total or abs(val) < 1e-18:
                break
        return x

    def primal(bws):
        return sum(rate_vs_bandwidth(bws[i], *coeffs[k])
                   for i in bands for k in allocation.groups[i])

    # bracket: excess > 0 as mu -> 0, excess < 0 at mu_hi (all bands clamp)
    mu_lo = 0.0
    mu_hi = max(gp(i, max(floors[i], 1e-12 * total)) for i in bands)
    # warm start at the equal-split marginal utility (quadratic from here)
    eq = total / len(bands)
    mu = float(np.mean([gp(i, max(eq, floors[i])) for i in bands]))
    mu = min(max(mu, 1e-12 * mu_hi), mu_hi)
    iterations = 0
    trace = []
    for _ in range(60):
        iterations += 1
        x = [band_bw(i, mu) for i in bands]
        e = sum(x) - total
        cand = np.array(x)
        cand *= total / cand.sum()
        obj = primal(cand)
        trace.append(max(obj, trace[-1]) if trace else obj)
        if e > 0:
            mu_lo = mu
        else:
            mu_hi = mu
        if abs(e) <= TOL_BANDWIDTH * total:
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
    excess = sum(bws) - total
    if excess > TOL_BANDWIDTH * total:
        # The dual stalled at float resolution (a wide band's g' is too
        # flat for band_bw to place it finer) with bandwidth overspent:
        # take it from the bands above their floors, since the rescale
        # below would push the bands at their floors under them.
        free = sum(b for i, b in enumerate(bws) if b > floors[i])
        bws = [b - excess * b / free if b > floors[i] else b
               for i, b in enumerate(bws)]
    scale = total / sum(bws)  # absorb residual into an exact simplex point
    bws = [b * scale for b in bws]
    out = allocation.copy()
    out.bandwidths = bws
    kkt = abs(sum(bws) - total) / total
    for i in bands:
        if bws[i] > floors[i] + 1e-12 * total:
            kkt = max(kkt, abs(gp(i, bws[i]) - mu) / max(mu, 1e-300))
    return BandwidthResult(allocation=out, iterations=iterations,
                           kkt_residual=kkt, objective_trace=trace)


# ---------------------------------------------------------------------------
# Outer alternating optimization and benchmarks
# ---------------------------------------------------------------------------


def scheduling_estimates(scenario, rng):
    """One seeded realization's MMSE estimates (M, K, N) in U's coordinates."""
    h, _ = sample_channel_batch(scenario, rng, 1)
    hhat, _ = estimate_batch(scenario, h, rng)
    return hhat[0]


@dataclass
class AoRound:
    """One round of the alternating optimization: the scheduler's Schedule,
    the power stage's ScaTrace and the bandwidth stage's result, with the
    sum rate it reached. A stage that found the rate floors unattainable
    leaves its own and every later field None."""

    schedule: Schedule
    sca: ScaTrace | None = None
    bandwidth: BandwidthResult | None = None
    sum_rate: float | None = None


@dataclass
class AoResult:
    """The best allocation, with one AoRound per round started, the one
    that stopped the loop included. If the first round cannot meet the
    rate floors, the allocation is where that round stopped, marked
    infeasible with that stage's margin phi (nan if it measured none)."""

    allocation: AllocationState
    sum_rate: float
    rounds: list

    @property
    def round_rates(self):
        """The sum rate of every round that completed both stages."""
        return [r.sum_rate for r in self.rounds if r.bandwidth is not None]


def alternating_optimize(scenario, rng, max_rounds=20):
    """Outer loop: scheduling -> power/weights -> bandwidth, keeping the
    best allocation observed."""
    estimates = scheduling_estimates(scenario, rng)
    weights = equal_weights(scenario)
    powers = np.full(scenario.num_users, scenario.config.max_power)

    best = None
    best_rate = -np.inf
    prev_rate = 0.0
    rounds = []
    for _ in range(max_rounds):
        record = AoRound(schedule_users(scenario, estimates, powers, weights))
        rounds.append(record)
        alloc = equal_split_allocation(
            scenario, groups=record.schedule.groups, powers=powers.copy(),
            weights=weights.copy(),
        )
        try:
            alloc, record.sca = optimize_power_weights(scenario, alloc)
            record.bandwidth = optimize_bandwidth(scenario, alloc)
        except (InfeasibleError, GpInfeasibleError) as err:
            if best is not None:
                break  # the next round would repeat this schedule
            alloc.feasible, alloc.phi = False, getattr(err, "phi", math.nan)
            return AoResult(alloc, sum_rate(scenario, alloc), rounds)
        alloc = record.bandwidth.allocation
        rate = record.sum_rate = sum_rate(scenario, alloc)
        if rate > best_rate:
            best_rate = rate
            best = alloc
        powers = alloc.powers.copy()
        weights = alloc.weights.copy()
        if prev_rate > 0 and (rate - prev_rate) / rate < EPS_OUTER:
            break
        prev_rate = rate
    return AoResult(allocation=best, sum_rate=best_rate, rounds=rounds)


def estimate_magnitude_weights(scenario, estimates):
    """Combining weights proportional to estimate norms, unit squared norm."""
    M, K = scenario.num_satellites, scenario.num_users
    w = np.zeros((M, K))
    for k in range(K):
        sset = scenario.serving_sets[k]
        mags = np.array([np.linalg.norm(estimates[m, k]) for m in sset])
        w[sset, k] = mags / np.sqrt((mags ** 2).sum())
    return w


def benchmark_allocation(scenario, rng, weight_mode):
    """Benchmark arms: fixed weights, Algorithm-2 power control only, with
    the same scheduler and equal-split bandwidth. Returns (allocation,
    sum rate); when the rate floors are unattainable the allocation keeps
    its starting powers and is marked infeasible, with its margin phi."""
    cfg = scenario.config
    estimates = scheduling_estimates(scenario, rng)
    if weight_mode == "equal":
        weights = equal_weights(scenario)
    elif weight_mode == "estimate":
        weights = estimate_magnitude_weights(scenario, estimates)
    else:
        raise ValueError(f"unknown benchmark weight mode {weight_mode!r}")
    powers = np.full(scenario.num_users, cfg.max_power)
    sched = schedule_users(scenario, estimates, powers, weights)
    alloc = equal_split_allocation(scenario, groups=sched.groups,
                                   powers=powers, weights=weights)
    try:
        alloc, _ = optimize_power_weights(scenario, alloc,
                                          optimize_weights=False)
    except (InfeasibleError, GpInfeasibleError) as err:
        alloc.feasible, alloc.phi = False, getattr(err, "phi", math.nan)
    return alloc, sum_rate(scenario, alloc)

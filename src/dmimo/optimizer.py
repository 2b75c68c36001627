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
    pair_terms,
    sinr_all,
    sinr_in_bands,
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
# The bandwidth stage stops once its relative KKT residual is at most
# TOL_BANDWIDTH; a band within this fraction of the total of its rate floor
# counts as at the floor.
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
    """Per-user Python floats (a, b, c), so that rate_vs_bandwidth(B, a, b,
    c) is the user's ``sinr_all`` rate on a band of bandwidth B: a the
    desired power, b the noise power per Hz and c the interference plus
    leakage power, which does not depend on B."""
    terms = pair_terms(scenario, allocation.powers, allocation.weights)
    res = sinr_in_bands(scenario, terms, allocation.groups,
                        allocation.bandwidths)
    a, b, c = np.maximum([res.numerator,
                          terms.noise_gain * scenario.config.noise_density,
                          res.interference.sum(axis=1)], 1e-300).tolist()
    return {k: (a[k], b[k], c[k]) for group in allocation.groups
            for k in group}


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


def _band_sums(f, bandwidths, groups, coeffs):
    """Per band i, the sum of f(B_i, a, b, c) over the band's users."""
    return np.array([sum(f(x, *coeffs[k]) for k in group)
                     for x, group in zip(bandwidths, groups)])


def optimize_bandwidth(scenario, allocation):
    """Concave bandwidth allocation by Newton's method on the simplex.

    The objective sum_i g_i(B_i), g_i the rate of band i's users, is
    separable with increasing concave summands, so the optimum spends the
    whole bandwidth, with g_i'(B_i) = mu above the rate floors and
    g_i' <= mu at them. From the floors plus an equal share of the rest,
    each step moves the free bands by (g_i' - mu) / -g_i'', mu their
    1 / -g_i''-weighted mean g_i', which keeps the total. A band at its
    floor is freed when its g_i' exceeds mu. The step is cut at the first
    floor it reaches, then halved until the objective does not drop. The
    loop stops at a relative KKT residual of TOL_BANDWIDTH, or when no step
    helps.
    """
    total = scenario.config.total_bandwidth
    req = scenario.config.rate_requirement
    groups = allocation.groups
    coeffs = bandwidth_coefficients(scenario, allocation)
    floors = np.array([max([0.0] + [_min_bandwidth(*coeffs[k], req, total)
                                    for k in group]) for group in groups])
    if floors.sum() > total:
        raise InfeasibleError("rate floors jointly exceed total bandwidth")

    x = floors + (total - floors.sum()) / len(groups)
    obj = _band_sums(rate_vs_bandwidth, x, groups, coeffs).sum()
    trace = []
    while True:
        gp = _band_sums(rate_vs_bandwidth_prime, x, groups, coeffs)
        h = -_band_sums(rate_vs_bandwidth_second, x, groups, coeffs)
        # A band within rounding of its floor is at it; the band farthest
        # above its floor is free even then, so that mu is defined.
        free = x > floors + TOL_BANDWIDTH * total
        free[np.argmax(x - floors)] = True
        mu = (gp / h)[free].sum() / (1.0 / h)[free].sum()
        gap = np.where(free, np.abs(gp - mu), np.maximum(gp - mu, 0.0))
        kkt = max(gap.max() / mu, abs(x.sum() - total) / total)
        if kkt <= TOL_BANDWIDTH or len(trace) == 60:
            break
        # free the band at its floor with the largest g' if that exceeds
        # mu; mu moves towards its g', so its step is upward
        j = np.argmax(np.where(free, -np.inf, gp))
        free[j] |= gp[j] > mu
        mu = (gp / h)[free].sum() / (1.0 / h)[free].sum()
        d = np.where(free, (gp - mu) / h, 0.0)
        # ratio test: a band whose room to its floor the step uses up lands
        # exactly on the floor
        room = np.divide(x - floors, -d, out=np.full(len(x), np.inf),
                         where=d < 0)
        t = min(1.0, room.min())
        for _ in range(60):
            cand = np.where(room <= t, floors, np.maximum(x + t * d, floors))
            new = _band_sums(rate_vs_bandwidth, cand, groups, coeffs).sum()
            if new >= obj * (1.0 - 1e-15):  # no drop beyond rounding
                break
            t *= 0.5
        else:
            break  # no step helps: keep x
        x, obj = cand, new
        trace.append(max(new, trace[-1]) if trace else new)
    out = allocation.copy()
    out.bandwidths = x.tolist()
    return BandwidthResult(allocation=out, iterations=len(trace),
                           kkt_residual=float(kkt), objective_trace=trace)


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

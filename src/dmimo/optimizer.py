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
    LN2,
    AllocationState,
    band_rate,
    band_rate_derivatives,
    equal_split_allocation,
    equal_weights,
    normalize_weights,
    pair_terms,
    scheduled_users,
    sinr_all,
    sinr_in_bands,
    sum_rate,
)
from .scheduler import Schedule, schedule_users

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
    """Tangent-surrogate coefficients, elementwise over the anchors chi_prev:
    the rate per Hz log1p(chi) / ln 2 is at least psi log2(chi) + delta,
    with equality at chi_prev."""
    chi_prev = np.asarray(chi_prev, dtype=float)
    if np.any(chi_prev <= 0):
        raise ValueError("SCA anchor must be strictly positive")
    psi = chi_prev / (1.0 + chi_prev)
    return psi, np.log1p(chi_prev) / LN2 - psi * np.log2(chi_prev)


def monomial_bound(coeffs, anchors):
    """Global monomial lower bound on (sum_m w_m A_m)^2, tight at the anchor,
    over the last axis (one bound per row of 2-D arguments).

    Returns (c, exps) with (sum w A)^2 >= c * prod w_m^{exps_m} for all
    positive w, equality at w = anchors. Derived by AM-GM on the inner sum
    and squaring, so exps_m = 2 * w^_m A_m / sum_n w^_n A_n (sums to 2). A
    zero coefficient is a term that is absent: its exponent is 0.
    """
    A = np.asarray(coeffs, dtype=float)
    wh = np.asarray(anchors, dtype=float)
    s = (wh * A).sum(axis=-1, keepdims=True)
    if np.any(A < 0) or np.any(wh <= 0) or np.any(s <= 0):
        raise ValueError("coefficients must be nonnegative, not all zero, "
                         "and anchor weights positive")
    exps = 2.0 * (wh * A / s)
    return np.square(s[..., 0]) / np.prod(wh ** exps, axis=-1), exps


# ---------------------------------------------------------------------------
# GP subproblem construction (power + combining weights)
# ---------------------------------------------------------------------------


def _gp_rows(scenario, allocation, chi, optimize_weights, floors):
    """The stacked GP rows of the power/weight problem, anchored at
    (allocation, chi).

    Columns: chi_k at k, p_k at K + k, then, with optimize_weights, each
    user's weights w_{m,k}, m in M_k increasing, user by user: the order
    of ``weights.T[serving.T]``. Constraints, in order: chi_k <= SINR_k^LB
    for each scheduled user in group order, each followed by the rate floor
    chi_k >= gamma_req when ``floors`` and a requirement is set; then for
    every user p_k <= P_max and, with optimize_weights, sum_m w_{m,k}^2 <= 1.

    chi_k <= SINR_k^LB is chi_k D_k(p, w) / N_k(p, w) <= 1. Each nonzero
    entry Q[i, j] of ``scenario.rate_context.quadratics[k, k']``, k' in
    k's group, is a term chi_k p_k' w_i w_j of chi_k D_k; the noise terms
    chi_k sigma Gamma_i w_i^2 follow. Without optimize_weights the weights
    are the allocation's constants. Negative terms move to the numerator
    p_k (sum w Gamma)^2, then condensed into a monomial at x0.

    A user's rows are built over its own columns (chi_k, its band's powers,
    its weights), which map in order to the global ones. Returns (x0, logs,
    row, col, value, starts), x0 the anchor in log domain.
    """
    K, serving = scenario.num_users, scenario.serving.T
    points = [np.maximum(chi, 1e-30), allocation.powers]
    if optimize_weights:
        points.append(np.maximum(allocation.weights.T[serving], 1e-12))
    x0 = np.log(np.concatenate(points))
    context = scenario.rate_context
    # Serving sets are padded to the largest, n, bands to the largest, G:
    # a padded term's coefficient is zero, so its row is dropped.
    Q = context.quadratics
    n, size = Q.shape[-1], serving.sum(axis=1)
    valid = np.arange(n) < size[:, None]
    sat, wcol = np.zeros((2, K, n), dtype=np.intp)
    sat[valid] = np.nonzero(serving)[1]
    wcol[valid] = 2 * K + np.arange(size.sum())
    users = scheduled_users(allocation.band)  # in group order
    band, U = allocation.band[users], len(users)
    link = sat, np.arange(K)[:, None]
    gamma, w = np.where(valid, [context.gamma[link], allocation.weights[link]],
                        0.0)[:, users]
    slot = np.arange(U) - np.searchsorted(band, band)  # place in its band
    G = slot.max() + 1
    table = np.full((band[-1] + 1, G), -1)  # the bands, padded with -1
    table[band, slot] = users
    mates, nw = table[band], n * optimize_weights
    cols = np.concatenate([users[:, None], K + mates, wcol[users, :nw]], 1)

    # User u's rows: n * n per group mate (Q row by row), n noise rows and
    # a last one holding gamma_req, which becomes the rate floor; their
    # exponents over u's own columns are one pattern e for every user.
    q = np.where(mates[:, :, None, None] >= 0, Q[users[:, None], mates], 0.0)
    noise = np.array([scenario.subband_noise(b)
                      for b in allocation.bandwidths])[band, None] * gamma
    if not optimize_weights:
        q = q * w[:, None, :, None] * w[:, None, None, :]
        noise = noise * w ** 2
    reqs = np.array([_rate_gamma(scenario, b) if floors else 0.0
                     for b in allocation.bandwidths])[band]
    c = np.concatenate([q.reshape(U, -1), noise, reqs[:, None]], axis=1)
    e = np.zeros((c.shape[1], cols.shape[1]))
    e[:, 0] = 1.0
    e[np.arange(G * n * n), np.repeat(np.arange(1, G + 1), n * n)] = 1.0
    if optimize_weights:  # w_i w_j of each Q entry, w_i^2 of each noise row
        for side in np.divmod(np.arange(n * n), n):
            side = np.append(np.tile(side, G), np.arange(n))
            e[np.arange(len(side)), 1 + G + side] += 1.0

    num_e = np.zeros((U, cols.shape[1]))
    num_e[np.arange(U), 1 + slot] = 1.0
    if optimize_weights:  # AM-GM bound on (sum w Gamma)^2
        cnum, num_e[:, 1 + G:] = monomial_bound(gamma, np.maximum(w, 1e-12))
    else:
        cnum = np.square((w * gamma).sum(axis=1))
    num_log = np.log(cnum)
    for u in np.flatnonzero((c < 0).any(axis=1)):
        neg = c[u] < 0
        num_log[u], num_e[u] = condense(
            np.append(num_log[u], np.log(-c[u][neg])),
            np.vstack([num_e[u], e[neg]]), x0[cols[u]])
    # the rate floor gamma_req / chi_k has no numerator
    kept, r = np.nonzero(c > 0)
    floor = r == len(e) - 1
    logs = np.log(c[kept, r]) - np.where(floor, 0.0, num_log[kept])
    exps = np.where(floor[:, None], -e[r], e[r] - num_e[kept])
    nz_row, nz_col = np.nonzero(exps)
    # each row's constraint: per user slot its SINR constraint, then its
    # floor if it has one; then per user k p_k <= P_max and its weight norm
    k, j = np.nonzero(np.column_stack([np.ones(K, dtype=bool),
                                       valid & optimize_weights]))
    unit = np.column_stack([K + np.arange(K), wcol])[k, j]
    con = np.append(2 * kept + floor, 2 * (U + k) + (j > 0))
    logs = np.append(logs, np.where(
        j == 0, math.log(1.0 / scenario.config.max_power), 0.0))
    return (x0, logs, np.append(nz_row, len(exps) + np.arange(len(unit))),
            np.append(cols[kept[nz_row], nz_col], unit),
            np.append(exps[nz_row, nz_col], np.where(j == 0, 1.0, 2.0)),
            np.flatnonzero(np.diff(con, prepend=-1)))


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
    bandwidth B; inf where that overflows a float or B is 0."""
    req = scenario.config.rate_requirement
    if req <= 0:
        return 0.0
    try:  # in float, which overflows with an error, not a numpy warning
        return 2.0 ** (req / float(bandwidth)) - 1.0 if bandwidth > 0 \
            else math.inf
    except OverflowError:
        return math.inf


def feasibility_check(scenario, allocation, optimize_weights=True):
    """Solve the rate-requirement feasibility problem.

    Returns (phi, allocation) where phi >= 1 means the requirements are
    attainable; the returned allocation carries the maximizing powers and
    weights. With zero requirements phi is unbounded and reported as inf;
    an SINR target beyond float range gives phi = 0 and a GP without a
    feasible point phi = nan, each with a copy of the allocation.
    """
    K = scenario.num_users
    if scenario.config.rate_requirement <= 0:
        return math.inf, allocation.copy()
    gamma = [_rate_gamma(scenario, b) for b in allocation.bandwidths]
    if math.inf in gamma:
        return 0.0, allocation.copy()
    # an unscheduled user (band -1) reads the appended 0
    log_gamma = np.array([*map(math.log, gamma), 0.0])[allocation.band]

    x0, logs, row, col, value, starts = _gp_rows(
        scenario, allocation, np.ones(K), optimize_weights, floors=False)
    # chi_k = phi * gamma_k: each row's chi column becomes the phi column
    chi = col < K
    logs[row[chi]] += value[chi] * log_gamma[col[chi]]
    objective = np.zeros(len(x0) - K + 1)
    objective[0] = 1.0
    problem = GpProblem(objective, logs, row, np.where(chi, 0, col - K + 1),
                        value, starts)
    try:
        sol = solve_gp(problem, np.append(0.0, x0[K:]))
    except GpUnboundedError:
        return math.inf, allocation.copy()
    except GpInfeasibleError:
        return math.nan, allocation.copy()
    return float(np.exp(sol.x[0])), _allocation_at(
        scenario, allocation, sol.x[1:], optimize_weights)


def build_sca_subproblem(scenario, allocation, chi, optimize_weights=True):
    """One SCA iteration's GP, anchored at (allocation, chi).

    Maximizes prod chi_k^psi_hat with psi_hat = psi_k B_i / B, subject to the
    SINR, power-cap, weight-norm, and rate-floor constraints laid out as in
    ``_gp_rows``. Returns (problem, x0), x0 the anchor in log domain.
    """
    x0, *rows = _gp_rows(scenario, allocation, chi, optimize_weights,
                         floors=True)
    psi, _ = sca_coefficients(chi)
    bw = np.append(allocation.bandwidths, 0.0)[allocation.band]  # -1 reads 0
    objective = np.zeros(len(x0))
    objective[:len(chi)] = psi * bw / scenario.config.total_bandwidth
    return GpProblem(objective, *rows), x0


@dataclass
class ScaTrace:
    objectives: list = field(default_factory=list)
    # Why the loop stopped: "converged" (relative gain below EPS_SCA),
    # "max_iter", or, keeping the previous iterate, "no_improvement" (a GP
    # step lowered the sum rate), "gp_infeasible" or "gp_unbounded" (the
    # solver found no feasible point, or read the GP as unbounded).
    stop_reason: str = "max_iter"

    @property
    def iterations(self):
        return max(len(self.objectives) - 1, 0)


def optimize_power_weights(scenario, allocation, optimize_weights=True):
    """SCA + GP loop for transmit powers and combining weights.

    Starts from the allocation's powers and weights, or from the
    feasibility solution when requirements are active, iterates tangent
    surrogates with AM-GM weight bounds, and stops when the relative
    sum-rate gain drops below EPS_SCA. Weights are renormalized to unit
    squared norm on exit. Returns (allocation, trace), the allocation
    carrying the feasibility margin phi; raises InfeasibleError with phi
    (nan if unmeasured) when the requirements are unattainable.
    """
    work = allocation.copy()
    if scenario.config.rate_requirement > 0:
        phi, work = feasibility_check(scenario, work,
                                      optimize_weights=optimize_weights)
        if not phi >= 1.0:
            raise InfeasibleError(
                f"rate requirements unattainable (phi = {phi:.4f})", phi)
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
        except (GpInfeasibleError, GpUnboundedError) as err:
            trace.stop_reason = ("gp_unbounded" if isinstance(
                err, GpUnboundedError) else "gp_infeasible")
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


@dataclass
class BandwidthResult:
    allocation: AllocationState
    iterations: int
    kkt_residual: float
    objective_trace: list = field(default_factory=list)  # best-so-far Σf


def _min_bandwidth(a, b, c, req, total):
    """Per user, the smallest B whose rate band_rate(B, a, b, c)[1] is at
    least req, by bisection (the rate increases in B); 0 without a floor. Each user's bracket
    keeps rate(lo) < req <= rate(hi), so once it is two adjacent floats,
    mid is one of them and the bracket stays as it is."""
    lo, hi = np.zeros(len(a)), np.full(len(a), float(total))
    if req <= 0:
        return lo
    if (band_rate(hi, a, b, c)[1] < req).any():
        raise InfeasibleError("rate floor unattainable within total bandwidth")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not ((lo < mid) & (mid < hi)).any():
            break
        met = band_rate(mid, a, b, c)[1] >= req
        lo, hi = np.where(met, lo, mid), np.where(met, mid, hi)
    return hi


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
    cfg = scenario.config
    total, n = cfg.total_bandwidth, len(allocation.bandwidths)
    # The scheduled users' band index and (a, b, c), with which band_rate
    # gives each one's sinr_all rate on its band.
    terms = pair_terms(scenario, allocation.powers, allocation.weights)
    res = sinr_in_bands(scenario, terms, allocation.band,
                        allocation.bandwidths)
    band = allocation.band[res.users]
    coeffs = (res.numerator[res.users],
              terms.noise_gain[res.users] * cfg.noise_density,
              res.interference.sum(axis=1)[res.users])
    floors = np.zeros(n)
    np.maximum.at(floors, band, _min_bandwidth(
        *coeffs, cfg.rate_requirement, total))
    if floors.sum() > total:
        raise InfeasibleError("rate floors jointly exceed total bandwidth")

    x = floors + (total - floors.sum()) / n
    obj = band_rate(x[band], *coeffs)[1].sum()
    trace = []
    while True:
        first, second = band_rate_derivatives(x[band], *coeffs)
        gp = np.bincount(band, first, n)
        h = -np.bincount(band, second, n)
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
            new = band_rate(cand[band], *coeffs)[1].sum()
            if new >= obj * (1.0 - 1e-15):  # no drop beyond rounding
                break
            t *= 0.5
        else:
            break  # no step helps: keep x
        x, obj = cand, new
        trace.append(max(new, trace[-1]) if trace else new)
    out = allocation.copy()
    out.bandwidths = x
    return BandwidthResult(allocation=out, iterations=len(trace),
                           kkt_residual=float(kkt), objective_trace=trace)


# ---------------------------------------------------------------------------
# Outer alternating optimization and benchmarks
# ---------------------------------------------------------------------------


def scheduling_estimates(scenario, rng):
    """One seeded realization's MMSE estimates (M, K, N) in U's coordinates."""
    h = sample_channel_batch(scenario, rng, 1)[0]
    return estimate_batch(scenario, h, rng)[0]


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
    rate floors, the allocation is where that round stopped, with that
    stage's margin phi (nan if it measured none), so not ``feasible``."""

    allocation: AllocationState
    sum_rate: float
    rounds: list

    @property
    def round_rates(self):
        """The sum rate of every round that completed both stages."""
        return [r.sum_rate for r in self.rounds if r.bandwidth is not None]


def _scheduled_power_stage(scenario, estimates, powers, weights,
                           optimize_weights):
    """Schedule at (powers, weights), then run the power stage from the
    equal split at max power. Returns (allocation, AoRound); where the
    floors are unattainable, the split with the stage's margin phi."""
    record = AoRound(schedule_users(scenario, estimates, powers, weights))
    alloc = equal_split_allocation(scenario, groups=record.schedule.groups,
                                   weights=weights.copy())
    try:
        alloc, record.sca = optimize_power_weights(scenario, alloc,
                                                   optimize_weights)
    except InfeasibleError as err:
        alloc.phi = err.phi
    return alloc, record


def alternating_optimize(scenario, rng, max_rounds=20):
    """Outer loop: scheduling -> power/weights -> bandwidth, keeping the
    best allocation observed."""
    estimates = scheduling_estimates(scenario, rng)
    weights = equal_weights(scenario)
    powers = np.full(scenario.num_users, scenario.config.max_power)
    rounds = []
    for _ in range(max_rounds):
        alloc, record = _scheduled_power_stage(scenario, estimates, powers,
                                               weights, True)
        rounds.append(record)
        if alloc.feasible:
            try:  # safety: the power stage met the floors
                record.bandwidth = optimize_bandwidth(scenario, alloc)
            except InfeasibleError as err:
                alloc.phi = err.phi
        if record.bandwidth is None:
            if len(rounds) > 1:
                break  # the next round would repeat this schedule
            return AoResult(alloc, sum_rate(scenario, alloc), rounds)
        alloc = record.bandwidth.allocation
        rate = record.sum_rate = sum_rate(scenario, alloc)
        powers, weights = alloc.powers, alloc.weights
        prev = rounds[-2].sum_rate if len(rounds) > 1 else 0.0
        if prev > 0 and (rate - prev) / rate < EPS_OUTER:
            break
    best = max((r for r in rounds if r.bandwidth is not None),
               key=lambda r: r.sum_rate)
    return AoResult(best.bandwidth.allocation, best.sum_rate, rounds)


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
    its starting powers, with its margin phi, so is not ``feasible``."""
    estimates = scheduling_estimates(scenario, rng)
    if weight_mode == "equal":
        weights = equal_weights(scenario)
    elif weight_mode == "estimate":
        weights = estimate_magnitude_weights(scenario, estimates)
    else:
        raise ValueError(f"unknown benchmark weight mode {weight_mode!r}")
    powers = np.full(scenario.num_users, scenario.config.max_power)
    alloc, _ = _scheduled_power_stage(scenario, estimates, powers, weights,
                                      False)
    return alloc, sum_rate(scenario, alloc)

"""Joint combining-weight and power control via SCA + geometric programming,
concave bandwidth allocation, and the outer alternating-optimization loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import sample_channel
from .estimation import estimate_batch
from .gp import GpProblem, GpUnboundedError, Monomial, condense, divide, solve_gp
from .rate import (
    AllocationState,
    RateContext,
    equal_weights,
    normalize_weights,
    sinr_lower_bound,
    sum_rate,
)
from .scheduler import schedule_users

LN2 = math.log(2.0)


class InfeasibleError(RuntimeError):
    pass


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


def _interference_quadratics(scenario, context, k, group):
    """Per-interferer quadratic forms over the serving set of user k.

    Returns (sset, {k': Q}) with w^T Q w the closed-form interference power
    coefficient of p_{k'} (k' = k gives the leakage term). Entries of Q can
    be negative (LoS cross products); the GP builder splits signs.
    """
    cfg = scenario.config
    sset = sorted(scenario.serving_sets[k])
    n = len(sset)
    tau, pp = cfg.pilot_length, cfg.pilot_power
    cohort = set(scenario.pilots.cohort(k))
    mats = {}
    for kp in group:
        Q = np.zeros((n, n))
        for i, m in enumerate(sset):
            Q[i, i] += (context.q1[m, k, kp] + context.q2[m, k, kp]
                        + context.q3[m, k, kp])
        if kp != k:
            s = np.array([context.smat[m, k, kp] for m in sset])
            Q += np.real(np.outer(s, s.conj()))
            if kp in cohort:
                t = np.array([context.tmat[m, k, kp] for m in sset])
                re_s = s.real
                Q += tau * pp * (np.outer(re_s, t) + np.outer(t, re_s))
                Q += tau * tau * pp * pp * np.outer(t, t)
        mats[kp] = Q
    return sset, mats


def _w_name(m, k):
    return f"w{m}_{k}"


def _sinr_constraint(scenario, context, k, group, sigma_i, anchor,
                     chi_name, optimize_weights, weights):
    """Posynomial constraint encoding chi_k <= SINR_k^LB.

    Returns a list of monomial terms g with g(v) <= 1. Negative quadratic
    entries are moved to the right-hand side and the resulting posynomial
    is condensed into a monomial at the anchor.
    """
    sset, mats = _interference_quadratics(scenario, context, k, group)
    gamma = np.array([context.gamma[m, k] for m in sset])

    lhs = []  # posynomial terms of chi * D
    rhs_extra = []  # negative-sign terms moved to the RHS
    for kp, Q in mats.items():
        for i, m in enumerate(sset):
            for j, mn in enumerate(sset):
                coeff = Q[i, j]
                if coeff == 0.0:
                    continue
                exps = {chi_name: 1.0, f"p{kp}": 1.0}
                if optimize_weights:
                    exps[_w_name(m, k)] = exps.get(_w_name(m, k), 0.0) + 1.0
                    exps[_w_name(mn, k)] = exps.get(_w_name(mn, k), 0.0) + 1.0
                    c = coeff
                else:
                    c = coeff * weights[m, k] * weights[mn, k]
                if c > 0:
                    lhs.append(Monomial(coeff=c, exponents=exps))
                elif c < 0:
                    rhs_extra.append(Monomial(coeff=-c, exponents=exps))
    for i, m in enumerate(sset):
        exps = {chi_name: 1.0}
        if optimize_weights:
            exps[_w_name(m, k)] = 2.0
            c = sigma_i * gamma[i]
        else:
            c = sigma_i * gamma[i] * weights[m, k] ** 2
        lhs.append(Monomial(coeff=c, exponents=exps))

    # numerator monomial p_k * (sum w Gamma)^2, bounded via AM-GM in w
    if optimize_weights:
        wh = np.array([max(anchor[_w_name(m, k)], 1e-300) for m in sset])
        cnum, exps2 = monomial_bound(gamma, wh)
        num_exps = {f"p{k}": 1.0}
        for e, m in zip(exps2, sset):
            num_exps[_w_name(m, k)] = e
        numerator = Monomial(coeff=cnum, exponents=num_exps)
    else:
        s = float(sum(weights[m, k] * g for m, g in zip(sset, gamma)))
        numerator = Monomial(coeff=s ** 2, exponents={f"p{k}": 1.0})

    if rhs_extra:
        rhs = condense([numerator] + rhs_extra, anchor)
    else:
        rhs = numerator
    return divide(lhs, rhs)


def _anchor_from(scenario, allocation, chi):
    anchor = {}
    for k in range(scenario.num_users):
        anchor[f"p{k}"] = float(allocation.powers[k])
        anchor[f"chi{k}"] = float(max(chi[k], 1e-30))
        for m in sorted(scenario.serving_sets[k]):
            anchor[_w_name(m, k)] = float(max(allocation.weights[m, k], 1e-12))
    return anchor


def _structural_constraints(scenario, problem, optimize_weights):
    cfg = scenario.config
    for k in range(scenario.num_users):
        problem.add([Monomial(coeff=1.0 / cfg.max_power,
                              exponents={f"p{k}": 1.0})])
        if optimize_weights:
            problem.add([
                Monomial(coeff=1.0, exponents={_w_name(m, k): 2.0})
                for m in sorted(scenario.serving_sets[k])
            ])


def _rate_gamma(scenario, bandwidth):
    req = scenario.config.rate_requirement
    if req <= 0:
        return 0.0
    return 2.0 ** (req / bandwidth) - 1.0


def feasibility_check(scenario, allocation, context=None,
                      optimize_weights=True):
    """Solve the rate-requirement feasibility problem.

    Returns (phi, allocation) where phi >= 1 means the requirements are
    attainable; the returned allocation carries the maximizing powers and
    weights. With zero requirements phi is unbounded and reported as inf.
    """
    if context is None:
        context = RateContext(scenario)
    gammas = {
        k: _rate_gamma(scenario, allocation.bandwidths[i])
        for i, g in enumerate(allocation.groups) for k in g
    }
    if all(v <= 0 for v in gammas.values()):
        return math.inf, allocation.copy()

    chi = np.ones(scenario.num_users)
    anchor = _anchor_from(scenario, allocation, chi)
    anchor["phi"] = 1.0
    problem = GpProblem(objective=Monomial(coeff=1.0,
                                           exponents={"phi": 1.0}))
    for i, group in enumerate(allocation.groups):
        sigma_i = scenario.subband_noise(allocation.bandwidths[i])
        for k in group:
            # chi_k plays the role of phi * gamma_k
            terms = _sinr_constraint(
                scenario, context, k, group, sigma_i, anchor,
                chi_name=f"chi{k}", optimize_weights=optimize_weights,
                weights=allocation.weights,
            )
            swapped = []
            for t in terms:
                exps = dict(t.exponents)
                deg = exps.pop(f"chi{k}", 0.0)
                if deg:
                    exps["phi"] = exps.get("phi", 0.0) + deg
                swapped.append(
                    Monomial(coeff=t.coeff * gammas[k] ** deg, exponents=exps)
                )
            problem.add(swapped)
    _structural_constraints(scenario, problem, optimize_weights)
    try:
        sol = solve_gp(problem, start=anchor)
    except GpUnboundedError:
        return math.inf, allocation.copy()
    out = allocation.copy()
    for k in range(scenario.num_users):
        out.powers[k] = min(sol.values.get(f"p{k}", out.powers[k]),
                            scenario.config.max_power)
        if optimize_weights:
            for m in sorted(scenario.serving_sets[k]):
                out.weights[m, k] = sol.values[_w_name(m, k)]
    out.weights = normalize_weights(scenario, out.weights)
    return float(sol.values["phi"]), out


def build_sca_subproblem(scenario, allocation, context, chi,
                         optimize_weights=True):
    """One SCA iteration's GP, anchored at (allocation, chi).

    Maximizes prod chi_k^psi_hat with psi_hat = psi_k B_i / B, subject to the
    SINR, power-cap, weight-norm, and rate-floor constraints. Returns
    (problem, anchor assignment).
    """
    cfg = scenario.config
    anchor = _anchor_from(scenario, allocation, chi)
    problem = GpProblem(objective=Monomial(coeff=1.0, exponents={}))
    obj_exps = {}
    for i, group in enumerate(allocation.groups):
        bw = allocation.bandwidths[i]
        sigma_i = scenario.subband_noise(bw)
        gamma_req = _rate_gamma(scenario, bw)
        for k in group:
            psi, _ = sca_coefficients(chi[k])
            obj_exps[f"chi{k}"] = psi * bw / cfg.total_bandwidth
            problem.add(_sinr_constraint(
                scenario, context, k, group, sigma_i, anchor,
                chi_name=f"chi{k}", optimize_weights=optimize_weights,
                weights=allocation.weights,
            ))
            if gamma_req > 0:
                problem.add([Monomial(coeff=gamma_req,
                                      exponents={f"chi{k}": -1.0})])
    problem.objective = Monomial(coeff=1.0, exponents=obj_exps)
    _structural_constraints(scenario, problem, optimize_weights)
    return problem, anchor


@dataclass
class ScaTrace:
    objectives: list = field(default_factory=list)

    @property
    def iterations(self):
        return max(len(self.objectives) - 1, 0)


def optimize_power_weights(scenario, allocation, context=None, eps=0.01,
                           max_iter=30, optimize_weights=True):
    """SCA + GP loop for transmit powers and combining weights.

    Starts from max power (and the feasibility solution when requirements
    are active), iterates tangent surrogates with AM-GM weight bounds, and
    stops when the relative sum-rate gain drops below eps. Weights are
    renormalized to unit squared norm on exit. Returns (allocation, trace).
    """
    if context is None:
        context = RateContext(scenario)
    cfg = scenario.config
    work = allocation.copy()
    work.powers = np.full(scenario.num_users, cfg.max_power)
    if cfg.rate_requirement > 0:
        phi, seeded = feasibility_check(scenario, work, context,
                                        optimize_weights=optimize_weights)
        if phi < 1.0:
            raise InfeasibleError(
                f"rate requirements unattainable (phi = {phi:.4f})"
            )
        work = seeded
        work.powers = np.minimum(work.powers, cfg.max_power)

    def objective(alloc):
        return sum_rate(scenario, alloc, context)

    trace = ScaTrace()
    trace.objectives.append(objective(work))
    scheduled = [k for g in work.groups for k in g]
    for _ in range(max_iter):
        chi = np.ones(scenario.num_users)
        for k in scheduled:
            chi[k] = max(sinr_lower_bound(scenario, work, k, context).sinr_lb,
                         1e-30)
        problem, anchor = build_sca_subproblem(
            scenario, work, context, chi, optimize_weights=optimize_weights
        )
        sol = solve_gp(problem, start=anchor)

        cand = work.copy()
        for k in range(scenario.num_users):
            cand.powers[k] = min(sol.values.get(f"p{k}", cand.powers[k]),
                                 cfg.max_power)
            if optimize_weights:
                for m in sorted(scenario.serving_sets[k]):
                    cand.weights[m, k] = sol.values[_w_name(m, k)]
        cand.weights = normalize_weights(scenario, cand.weights)
        obj = objective(cand)
        if obj < trace.objectives[-1]:
            break  # solver noise; keep the previous iterate
        work = cand
        trace.objectives.append(obj)
        prev, cur = trace.objectives[-2], trace.objectives[-1]
        if cur > 0 and (cur - prev) / cur < eps:
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


def bandwidth_coefficients(scenario, allocation, context=None):
    """Per-user (a, b, c): desired power, noise-per-Hz factor, and
    bandwidth-independent interference-plus-leakage power."""
    if context is None:
        context = RateContext(scenario)
    coeffs = {}
    n0 = scenario.config.noise_density
    for i, group in enumerate(allocation.groups):
        for k in group:
            t = sinr_lower_bound(scenario, allocation, k, context)
            a = t.numerator
            b = t.i_noise / allocation.bandwidths[i] if \
                allocation.bandwidths[i] > 0 else 0.0
            # i_noise = (sum w^2 Gamma) * sigma_i, linear in bandwidth
            denom = t.numerator / max(t.sinr_lb, 1e-300)
            c = max(denom - t.i_noise, 1e-30)
            coeffs[k] = (max(a, 1e-300), max(b, 1e-300), c)
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
        if rate_vs_bandwidth(mid, a, b, c) >= req:
            hi = mid
        else:
            lo = mid
    return hi


def optimize_bandwidth(scenario, allocation, context=None, tol=1e-10):
    """Concave bandwidth allocation by water-filling on the dual variable.

    The objective is separable per band with strictly increasing concave
    summands, so the full bandwidth is spent and the optimum satisfies
    g_i'(B_i) = mu off the rate floors. mu is found by safeguarded Newton.
    """
    if context is None:
        context = RateContext(scenario)
    total = scenario.config.total_bandwidth
    req = scenario.config.rate_requirement
    coeffs = bandwidth_coefficients(scenario, allocation, context)
    bands = list(range(len(allocation.groups)))
    floors = []
    for i in bands:
        f = 0.0
        for k in allocation.groups[i]:
            f = max(f, _min_bandwidth(*coeffs[k], req, total))
        floors.append(f)
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

    def excess(mu):
        return sum(band_bw(i, mu) for i in bands) - total

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
        e = excess(mu)
        cand = np.array([band_bw(i, mu) for i in bands])
        cand *= total / cand.sum()
        obj = primal(cand)
        trace.append(max(obj, trace[-1]) if trace else obj)
        if e > 0:
            mu_lo = mu
        else:
            mu_hi = mu
        if abs(e) <= tol * total:
            break
        # Newton on the dual: d(excess)/dmu = sum 1/g'' over unclamped bands
        slope = 0.0
        for i in bands:
            x = band_bw(i, mu)
            if x > floors[i] + 1e-15 * total:
                slope += 1.0 / gpp(i, x)
        if slope < 0:
            mu_n = mu - e / slope
            mu = mu_n if mu_lo < mu_n < mu_hi else 0.5 * (mu_lo + mu_hi)
        else:
            mu = 0.5 * (mu_lo + mu_hi)

    bws = [band_bw(i, mu) for i in bands]
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
    """One seeded channel realization's MMSE estimates (M, K, N)."""
    real = sample_channel(scenario, rng)
    hhat, _ = estimate_batch(scenario, real.h[None], rng)
    return hhat[0]


@dataclass
class AoResult:
    allocation: AllocationState
    sum_rate: float
    round_rates: list
    sca_trace: ScaTrace | None = None
    bandwidth_iterations: int = 0


def alternating_optimize(scenario, rng, eps_outer=1e-3, max_rounds=20,
                         optimize_weights=True, weights=None,
                         context=None):
    """Outer loop: scheduling -> power/weights -> bandwidth, keeping the
    best allocation observed."""
    if context is None:
        context = RateContext(scenario)
    cfg = scenario.config
    K = scenario.num_users
    estimates = scheduling_estimates(scenario, rng)
    if weights is None:
        weights = equal_weights(scenario)
    powers = np.full(K, cfg.max_power)

    best = None
    best_rate = -np.inf
    prev_rate = 0.0
    trace = None
    bw_iters = 0
    round_rates = []
    for _ in range(max_rounds):
        sched = schedule_users(scenario, estimates, powers, weights,
                               context=context)
        bw = cfg.total_bandwidth / len(sched.groups)
        alloc = AllocationState(
            groups=[list(g) for g in sched.groups],
            bandwidths=[bw] * len(sched.groups),
            powers=powers.copy(), weights=weights.copy(),
            feasible=sched.feasible,
        )
        alloc, trace = optimize_power_weights(
            scenario, alloc, context, optimize_weights=optimize_weights
        )
        res = optimize_bandwidth(scenario, alloc, context)
        alloc = res.allocation
        bw_iters = res.iterations
        rate = sum_rate(scenario, alloc, context)
        round_rates.append(rate)
        if rate > best_rate:
            best_rate = rate
            best = alloc
        powers = alloc.powers.copy()
        weights = alloc.weights.copy()
        if prev_rate > 0 and (rate - prev_rate) / rate < eps_outer:
            break
        prev_rate = rate
    return AoResult(allocation=best, sum_rate=best_rate,
                    round_rates=round_rates, sca_trace=trace,
                    bandwidth_iterations=bw_iters)


def estimate_magnitude_weights(scenario, estimates):
    """Combining weights proportional to estimate norms, unit squared norm."""
    M, K = scenario.num_satellites, scenario.num_users
    w = np.zeros((M, K))
    for k in range(K):
        sset = sorted(scenario.serving_sets[k])
        mags = np.array([np.linalg.norm(estimates[m, k]) for m in sset])
        mags = mags / np.sqrt((mags ** 2).sum())
        for m, v in zip(sset, mags):
            w[m, k] = v
    return w


def benchmark_allocation(scenario, rng, weight_mode, context=None):
    """Benchmark arms: fixed weights, Algorithm-2 power control only, with
    the same scheduler and equal-split bandwidth."""
    if context is None:
        context = RateContext(scenario)
    cfg = scenario.config
    estimates = scheduling_estimates(scenario, rng)
    if weight_mode == "equal":
        weights = equal_weights(scenario)
    elif weight_mode == "estimate":
        weights = estimate_magnitude_weights(scenario, estimates)
    else:
        raise ValueError(f"unknown benchmark weight mode {weight_mode!r}")
    powers = np.full(scenario.num_users, cfg.max_power)
    sched = schedule_users(scenario, estimates, powers, weights,
                           context=context)
    bw = cfg.total_bandwidth / len(sched.groups)
    alloc = AllocationState(
        groups=[list(g) for g in sched.groups],
        bandwidths=[bw] * len(sched.groups),
        powers=powers, weights=weights, feasible=sched.feasible,
    )
    alloc, _ = optimize_power_weights(scenario, alloc, context,
                                      optimize_weights=False)
    return alloc, sum_rate(scenario, alloc, context)

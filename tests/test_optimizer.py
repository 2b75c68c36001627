import functools
import importlib.util
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dmimo.optimizer
from conftest import (
    AO_PAPER_FLOOR,
    AO_SMALL,
    bandwidth_coefficients,
    clone_user,
    dense_exps,
    dual_bandwidth,
    make_scenario,
    manual_scenario,
    sinr_lower_bound,
)
from dmimo.config import SystemConfig
from dmimo.gp import (GpInfeasibleError, GpProblem, GpUnboundedError,
                      condense)
from dmimo.optimizer import (
    InfeasibleError,
    alternating_optimize,
    benchmark_allocation,
    build_sca_subproblem,
    estimate_magnitude_weights,
    feasibility_check,
    monomial_bound,
    optimize_bandwidth,
    optimize_power_weights,
    _gp_rows,
    _min_bandwidth,
    _rate_gamma,
    sca_coefficients,
    scheduling_estimates,
)
from dmimo.rate import (
    AllocationState,
    band_rate,
    band_rate_derivatives,
    equal_split_allocation,
    equal_weights,
    normalize_weights,
    sinr_all,
    sum_rate,
)
from dmimo.scenario import build_scenario
from dmimo.scheduler import Schedule, schedule_users, validate_schedule

LN2 = math.log(2.0)


# --- SCA surrogate ---------------------------------------------------------


def test_sca_hand_cases():
    psi, delta = sca_coefficients(1.0)
    assert psi == pytest.approx(0.5)
    assert delta == pytest.approx(1.0)
    psi3, delta3 = sca_coefficients(3.0)
    surrogate = psi3 * math.log2(3.0) + delta3
    assert surrogate == pytest.approx(2.0)  # tangency at the anchor
    assert psi3 * math.log2(4.0) + delta3 <= math.log2(5.0)


def test_sca_rejects_nonpositive():
    with pytest.raises(ValueError):
        sca_coefficients(0.0)


def test_sca_global_underestimator():
    for anchor in (0.01, 1.0, 7.5, 300.0):
        psi, delta = sca_coefficients(anchor)
        assert 0 < psi < 1
        for chi in np.logspace(-3, 3, 61):
            s = psi * math.log2(chi) + delta
            assert s <= math.log2(1 + chi) + 1e-12
        assert psi * math.log2(anchor) + delta == pytest.approx(
            math.log2(1 + anchor), abs=1e-9
        )


# --- AM-GM monomial bound --------------------------------------------------


def test_monomial_bound_symmetric_anchor():
    c, exps = monomial_bound([1.0, 1.0], [1 / np.sqrt(2), 1 / np.sqrt(2)])
    np.testing.assert_allclose(exps, [1.0, 1.0])
    assert c == pytest.approx(4.0)
    # equality at the anchor: bound = (sum w A)^2 = 2
    w = np.array([1 / np.sqrt(2)] * 2)
    assert c * np.prod(w ** exps) == pytest.approx(2.0)


def test_monomial_bound_single_coefficient():
    c, exps = monomial_bound([3.0], [0.4])
    np.testing.assert_allclose(exps, [2.0])
    assert c == pytest.approx(9.0)
    for w in (0.1, 1.0, 5.0):
        assert c * w ** 2 == pytest.approx((3.0 * w) ** 2)


def test_monomial_bound_rejects_nonpositive():
    with pytest.raises(ValueError):
        monomial_bound([1.0, -1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        monomial_bound([1.0], [0.0])


def test_monomial_bound_randomized():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        A = rng.uniform(0.1, 5.0, n)
        wh = rng.uniform(0.1, 5.0, n)
        c, exps = monomial_bound(A, wh)
        assert c * np.prod(wh ** exps) == pytest.approx(
            float((wh * A).sum() ** 2), rel=1e-9
        )
        for _ in range(20):
            w = rng.uniform(0.05, 10.0, n)
            assert c * np.prod(w ** exps) <= (w * A).sum() ** 2 * (1 + 1e-9)


# --- feasibility and power/weight control ----------------------------------


def test_feasibility_zero_requirement(default_scenario):
    sc = default_scenario
    alloc = equal_split_allocation(sc)
    phi, out = feasibility_check(sc, alloc)
    assert phi == math.inf
    assert out.feasible


def single_user_scenario(rate_requirement=0.0):
    sc = make_scenario(seed=21, num_satellites=1, num_users=2, cluster_size=1,
                       num_subbands=1, pilot_length=2, subband_capacity=2)
    if rate_requirement:
        cfg = sc.config.replace(rate_requirement=rate_requirement)
        sc = replace(sc, config=cfg)
    return sc


def test_feasibility_boundary_and_violation():
    sc0 = single_user_scenario()
    w = np.zeros((1, 2))
    w[0, 0] = 1.0
    alloc = AllocationState(
        groups=[[0]], bandwidths=[sc0.config.total_bandwidth],
        powers=np.full(2, sc0.config.max_power), weights=w,
    )
    max_rate = sinr_lower_bound(sc0, alloc, 0).rate_lb

    at_cap = single_user_scenario(rate_requirement=max_rate)
    phi, _ = feasibility_check(at_cap, alloc)
    assert phi == pytest.approx(1.0, abs=1e-3)

    over = single_user_scenario(rate_requirement=10.0 * max_rate)
    phi_over, _ = feasibility_check(over, alloc)
    assert phi_over < 1.0


def test_power_weights_monotone(default_scenario):
    sc = default_scenario
    alloc, trace = optimize_power_weights(sc, equal_split_allocation(sc))
    objs = trace.objectives
    assert all(b >= a - 1e-8 * abs(a) for a, b in zip(objs, objs[1:]))
    # weights renormalized on exit
    for k in range(sc.num_users):
        nrm = sum(alloc.weights[m, k] ** 2 for m in range(sc.num_satellites))
        assert nrm == pytest.approx(1.0, abs=1e-9)
    assert np.all(alloc.powers <= sc.config.max_power + 1e-12)


def test_power_weights_single_user_max_power():
    sc = single_user_scenario()
    w = np.zeros((1, 2))
    w[0, 0] = 1.0
    w[0, 1] = 1.0
    alloc = AllocationState(
        groups=[[0]], bandwidths=[sc.config.total_bandwidth],
        powers=np.full(2, sc.config.max_power), weights=w,
    )
    out, _ = optimize_power_weights(sc, alloc)
    assert out.powers[0] == pytest.approx(sc.config.max_power, rel=1e-6)


def fig5_style_scenario(seed=31, nx=4, ny=4):
    return make_scenario(seed=seed, num_users=6, num_satellites=4,
                         cluster_size=3, num_subbands=4, pilot_length=4,
                         subband_capacity=3, antennas_x=nx, antennas_y=ny)


def test_power_weights_converges_quickly():
    sc = fig5_style_scenario()
    rng = np.random.default_rng(7)
    est = scheduling_estimates(sc, rng)
    powers = np.full(sc.num_users, sc.config.max_power)
    weights = equal_weights(sc)
    sched = schedule_users(sc, est, powers, weights)
    bw = sc.config.total_bandwidth / len(sched.groups)
    alloc = AllocationState(
        groups=sched.groups, bandwidths=[bw] * len(sched.groups),
        powers=powers, weights=weights,
    )
    _, trace = optimize_power_weights(sc, alloc)
    assert trace.iterations <= 10
    objs = trace.objectives
    assert all(b >= a - 1e-8 * abs(a) for a, b in zip(objs, objs[1:]))


def test_sca_trace_records_stop_reason(default_scenario, monkeypatch):
    sc = default_scenario
    alloc = equal_split_allocation(sc)
    assert dmimo.optimizer.EPS_SCA == 0.01
    _, trace = optimize_power_weights(sc, alloc)
    assert trace.stop_reason == "converged"
    objs = trace.objectives
    assert (objs[-1] - objs[-2]) / objs[-1] < 0.01
    # eps = 0 never converges, so the loop runs out of iterations
    monkeypatch.setattr(dmimo.optimizer, "EPS_SCA", 0.0)
    for max_iter in (0, 1, 2):
        monkeypatch.setattr(dmimo.optimizer, "MAX_ITER_SCA", max_iter)
        _, trace = optimize_power_weights(sc, alloc)
        assert trace.stop_reason == "max_iter"
        assert trace.iterations == max_iter


def test_sca_keeps_iterate_when_step_lowers_rate(default_scenario,
                                                 monkeypatch):
    sc = default_scenario
    K = sc.num_users
    solve = dmimo.optimizer.solve_gp

    def collapse_powers(problem, x0):
        sol = solve(problem, x0)
        sol.x[K:2 * K] -= 30.0  # every power down by e^30
        return sol

    monkeypatch.setattr(dmimo.optimizer, "solve_gp", collapse_powers)
    alloc = equal_split_allocation(sc)
    out, trace = optimize_power_weights(sc, alloc)
    assert trace.stop_reason == "no_improvement"
    assert trace.iterations == 0
    assert np.array_equal(out.powers, np.full(K, sc.config.max_power))
    assert out.weights == pytest.approx(alloc.weights, abs=1e-15)


def test_sca_keeps_iterate_when_gp_infeasible(default_scenario, monkeypatch):
    sc = default_scenario
    solve = dmimo.optimizer.solve_gp
    calls = []

    def fail_second(problem, x0):
        calls.append(x0)
        if len(calls) == 2:
            raise GpInfeasibleError("no feasible point found")
        return solve(problem, x0)

    monkeypatch.setattr(dmimo.optimizer, "solve_gp", fail_second)
    monkeypatch.setattr(dmimo.optimizer, "EPS_SCA", 0.0)
    out, trace = optimize_power_weights(sc, equal_split_allocation(sc))
    assert trace.stop_reason == "gp_infeasible"
    assert trace.iterations == 1
    assert sum_rate(sc, out) == trace.objectives[-1]


@functools.cache
def _rows_scenario(seed):
    return make_scenario(seed=seed, num_users=6, num_satellites=4,
                         cluster_size=3, num_subbands=2, pilot_length=3,
                         subband_capacity=4)


@given(seed=st.integers(0, 2), draw=st.integers(0, 2 ** 32 - 1),
       optimize=st.booleans())
@settings(max_examples=40, deadline=None)
def test_sca_rows_bound_reference_sinr(seed, draw, optimize):
    """The SCA GP's SINR rows against the scalar sinr_lower_bound: tight
    at the anchor, and conservative at nearby points."""
    sc = _rows_scenario(seed)
    ctx = sc.rate_context
    K, M = sc.num_users, sc.num_satellites
    rng = np.random.default_rng(draw)
    perm = rng.permutation(K)
    groups = [sorted(perm[:3].tolist()), sorted(perm[3:].tolist())]
    weights = np.where(equal_weights(sc) > 0,
                       rng.uniform(0.2, 1.0, (M, K)), 0.0)
    powers = rng.uniform(0.1, 1.0, K) * sc.config.max_power
    alloc = equal_split_allocation(sc, groups=groups, powers=powers,
                                   weights=weights)
    order = [k for g in groups for k in g]
    chi = np.ones(K)
    for k in order:
        chi[k] = sinr_lower_bound(sc, alloc, k, ctx).sinr_lb
    problem, x0 = build_sca_subproblem(sc, alloc, chi,
                                       optimize_weights=optimize)

    # columns: chi_k, p_k, then each user's weights over sorted(M_k)
    wcols, col = {}, 2 * K
    if optimize:
        for k in range(K):
            sset = sorted(sc.serving_sets[k])
            wcols[k] = (sset, slice(col, col + len(sset)))
            col += len(sset)
    assert len(x0) == col
    # no rate floor, so constraint j is the SINR row of user order[j]
    assert np.all(np.abs(problem.lse(x0)[:K]) <= 1e-9)

    for _ in range(5):
        x = x0 + rng.normal(0.0, 0.3, len(x0))
        near = alloc.copy()
        near.powers = np.exp(x[K:2 * K])
        for k, (sset, cols) in wcols.items():
            near.weights[sset, k] = np.exp(x[cols])
        lse = problem.lse(x)
        for j, k in enumerate(order):
            ratio = math.exp(x[k]) / sinr_lower_bound(sc, near, k,
                                                      ctx).sinr_lb
            # Conservative: the row is at least chi_k / SINR_k where that
            # is below 1, and violated wherever chi_k exceeds SINR_k.
            assert math.exp(lse[j]) >= min(ratio, 1.0) * (1 - 1e-9)


# --- GP rows against the per-user reference --------------------------------


def _reference_quadratics(scenario, context, k, group):
    """User k's per-interferer quadratic forms over sorted(M_k), built per
    call: {k': Q} with w^T Q w the interference power coefficient of
    p_k'."""
    sset = sorted(scenario.serving_sets[k])
    tau, pp = scenario.config.pilot_length, scenario.config.pilot_power
    mats = {}
    for kp in group:
        Q = np.diag(context.q[sset, k, kp])
        if kp != k:
            s = context.smat[sset, k, kp]
            Q += np.real(np.outer(s, s.conj()))
            if context.cohort[k, kp]:
                t = context.tmat[sset, k, kp]
                Q += tau * pp * (np.outer(s.real, t) + np.outer(t, s.real))
                Q += tau * tau * pp * pp * np.outer(t, t)
        mats[kp] = Q
    return sset, mats


def _reference_unit_rows(ncols, cols, exponent):
    e = np.zeros((len(cols), ncols))
    e[np.arange(len(cols)), cols] = exponent
    return e


def _reference_sinr_rows(scenario, context, allocation, k, group, sigma_i,
                         x0, wcols):
    """User k's SINR rows, one block per interferer, then the noise."""
    K = scenario.num_users
    sset, mats = _reference_quadratics(scenario, context, k, group)
    n = len(sset)
    gamma = context.gamma[sset, k]
    w = allocation.weights[sset, k]
    base = np.zeros((n * n, len(x0)))
    base[:, k] = 1.0
    noise_e = np.zeros((n, len(x0)))
    noise_e[:, k] = 1.0
    if wcols is not None:
        rows = np.arange(n * n)
        i, j = np.divmod(rows, n)
        base[rows, wcols[i]] += 1.0
        base[rows, wcols[j]] += 1.0
        noise_e[np.arange(n), wcols] = 2.0
    coeffs, exps = [], []
    for kp, Q in mats.items():
        e = base.copy()
        e[:, K + kp] = 1.0
        exps.append(e)
        coeffs.append((Q if wcols is not None
                       else Q * w[:, None] * w[None, :]).ravel())
    coeffs.append(sigma_i * gamma if wcols is not None
                  else sigma_i * gamma * w ** 2)
    exps.append(noise_e)
    c, e = np.concatenate(coeffs), np.vstack(exps)
    num_e = np.zeros(len(x0))
    num_e[K + k] = 1.0
    if wcols is not None:
        cnum, num_e[wcols] = monomial_bound(gamma, np.maximum(w, 1e-12))
    else:
        cnum = np.square((w * gamma).sum())
    num_log = np.log(cnum)
    neg = c < 0
    if neg.any():
        num_log, num_e = condense(np.append(num_log, np.log(-c[neg])),
                                  np.vstack([num_e, e[neg]]), x0)
    pos = c > 0
    return np.log(c[pos]) - num_log, e[pos] - num_e


def _reference_gp_rows(scenario, allocation, context, chi, optimize_weights,
                       floors):
    """The GP rows built one user and one constraint at a time: the
    reference for ``optimizer._gp_rows``. A band's users, and the mates in
    each user's rows, come in ascending order, whatever order a group lists
    them in: the order of the allocation's band index."""
    K = scenario.num_users
    points = [np.maximum(chi, 1e-30), allocation.powers]
    if optimize_weights:
        points += [np.maximum(allocation.weights[sorted(s), k], 1e-12)
                   for k, s in enumerate(scenario.serving_sets)]
    x0 = np.log(np.concatenate(points))
    offsets = 2 * K + np.cumsum([0] + [len(s)
                                       for s in scenario.serving_sets])
    wcols = [np.arange(offsets[k], offsets[k + 1]) for k in range(K)]
    blocks = []
    for i, group in enumerate(allocation.groups):
        bw, group = allocation.bandwidths[i], sorted(group)
        gamma_req = _rate_gamma(scenario, bw)
        for k in group:
            blocks.append(_reference_sinr_rows(
                scenario, context, allocation, k, group,
                scenario.subband_noise(bw), x0,
                wcols[k] if optimize_weights else None,
            ))
            if floors and gamma_req > 0:
                blocks.append(([np.log(gamma_req)],
                               _reference_unit_rows(len(x0), [k], -1.0)))
    for k in range(K):
        blocks.append(([math.log(1.0 / scenario.config.max_power)],
                       _reference_unit_rows(len(x0), [K + k], 1.0)))
        if optimize_weights:
            blocks.append((np.zeros(len(wcols[k])),
                           _reference_unit_rows(len(x0), wcols[k], 2.0)))
    sizes = [len(logs) for logs, _ in blocks]
    return (x0, np.concatenate([logs for logs, _ in blocks]),
            np.vstack([e for _, e in blocks]),
            np.cumsum([0] + sizes[:-1]))


def _assert_rows_match(sc, alloc, chi):
    """_gp_rows equals the reference bit for bit, with and without weight
    columns and rate floors. Returns whether a scheduled user had a
    negative (LoS cross) term."""
    ctx = sc.rate_context
    for optimize in (True, False):
        for floors in (True, False):
            x0, logs, *nonzeros, starts = _gp_rows(sc, alloc, chi, optimize,
                                                   floors)
            got = (x0, logs, dense_exps(GpProblem(
                np.zeros(len(x0)), logs, *nonzeros, starts)), starts)
            ref = _reference_gp_rows(sc, alloc, ctx, chi, optimize, floors)
            for name, a, b in zip(("x0", "logs", "exps", "starts"), got,
                                  ref):
                assert a.shape == b.shape and np.array_equal(a, b), \
                    (name, optimize, floors)
    return any((_reference_quadratics(sc, ctx, k, g)[1][kp] < 0).any()
               for g in alloc.groups for k in g for kp in g)


def _sca_anchor(sc, alloc):
    """chi at the allocation's SINR, as the SCA loop anchors it."""
    chi = np.ones(sc.num_users)
    res = sinr_all(sc, alloc)
    chi[res.users] = np.maximum(res.sinr[res.users], 1e-30)
    return chi


@given(seed=st.integers(0, 2), draw=st.integers(0, 2 ** 32 - 1),
       bands=st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_gp_rows_match_per_user_reference(seed, draw, bands):
    """SCA and feasibility rows (chi at the SINR, and chi = 1) at random
    schedules, powers and weights, with a rate floor set."""
    base = _rows_scenario(seed)
    sc = replace(base, config=base.config.replace(rate_requirement=2e4))
    K, M = sc.num_users, sc.num_satellites
    rng = np.random.default_rng(draw)
    groups = [sorted(g.tolist())
              for g in np.array_split(rng.permutation(K), bands)]
    weights = np.where(equal_weights(sc) > 0,
                       rng.uniform(0.2, 1.0, (M, K)), 0.0)
    powers = rng.uniform(0.1, 1.0, K) * sc.config.max_power
    alloc = equal_split_allocation(sc, groups=groups, powers=powers,
                                   weights=weights)
    _assert_rows_match(sc, alloc, _sca_anchor(sc, alloc))
    _assert_rows_match(sc, alloc, np.ones(K))


def test_gp_rows_match_reference_on_negative_terms_and_infeasible():
    """The benchmark's ao-small system at an unattainable floor, whose
    rows carry negative LoS cross terms."""
    scenario_ss, _ = np.random.SeedSequence(1007).spawn(2)
    sc = build_scenario(AO_SMALL_UNATTAINABLE,
                        np.random.default_rng(scenario_ss))
    alloc = equal_split_allocation(sc)
    assert feasibility_check(sc, alloc)[0] < 1.0
    assert _assert_rows_match(sc, alloc, np.ones(sc.num_users))
    assert _assert_rows_match(sc, alloc, _sca_anchor(sc, alloc))


def test_gp_rows_match_reference_with_unequal_serving_sets():
    """Serving sets of one, two and three satellites, two users sharing a
    pilot, and LoS vectors whose cross products are negative; the second
    schedule lists its groups out of order, and its rows come ascending."""
    cfg = SystemConfig(num_satellites=3, num_users=4, antennas_x=2,
                       antennas_y=1, num_subbands=2, pilot_length=3,
                       cluster_size=1, subband_capacity=3,
                       rate_requirement=1e4)
    los = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1j], [-1.0, 1j]])
    m, k = np.ogrid[:3, :4]
    sc = manual_scenario(cfg, beta=1e-12 * (1 + m + k),
                         rician=np.broadcast_to(2.0 + m, (3, 4)),
                         los=los[(m + k) % 4], pilots=(0, 1, 0, 2),
                         serving_sets=[{0}, {0, 1, 2}, {1, 2}, {2, 0}])
    for groups in ([[0, 1, 2], [3]], [[3, 1], [2, 0]]):
        alloc = equal_split_allocation(sc, groups=groups)
        assert _assert_rows_match(sc, alloc, np.ones(4))
        assert _assert_rows_match(sc, alloc, _sca_anchor(sc, alloc))


# --- bandwidth stage -------------------------------------------------------


def test_bandwidth_function_hand_values():
    first, second = band_rate_derivatives(1.0, 1.0, 1.0, 1.0)
    assert band_rate(1.0, 1.0, 1.0, 1.0) == pytest.approx(
        (0.5, math.log2(1.5)), abs=1e-9
    )
    assert first == pytest.approx(0.34451, abs=1e-5)
    assert second == pytest.approx(-7.0 / (36.0 * LN2), abs=1e-9)


def test_bandwidth_derivatives_match_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(50):
        a, b, c = rng.uniform(0.2, 3.0, 3)
        x = rng.uniform(0.5, 2.0)

        def f(y):
            return band_rate(y, a, b, c)[1]

        fp = (f(x + h) - f(x - h)) / (2 * h)
        fpp = (f(x + h) - 2 * f(x) + f(x - h)) / h ** 2
        first, second = band_rate_derivatives(x, a, b, c)
        assert first == pytest.approx(fp, abs=1e-6)
        assert second == pytest.approx(fpp, abs=1e-4)
        assert second < 0


def symmetric_two_band_scenario():
    """User 1 is an exact copy of user 0 (cloned links), one per band."""
    sc = make_scenario(seed=41, num_users=3, num_subbands=2, pilot_length=3,
                       subband_capacity=3)
    return clone_user(sc, 0, into=1)


def _min_bandwidth_reference(a, b, c, req, total):
    """One user's floor bisection run for all of its 200 iterations."""
    lo, hi = 0.0, total
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if band_rate(mid, a, b, c)[1] >= req:
            hi = mid
        else:
            lo = mid
    return hi


def test_min_bandwidth_stops_without_moving_the_result():
    """Per user alone, and for all users in one call, whose searches stop
    at different steps."""
    rng = np.random.default_rng(11)
    total = 1e6
    a, b, c = 10.0 ** rng.uniform(-14, -8, (3, 300))
    for k in range(300):
        req = rng.uniform(0.01, 1.0) * band_rate(total, a[k], b[k], c[k])[1]
        [got] = _min_bandwidth(a[k:k + 1], b[k:k + 1], c[k:k + 1], req,
                               total)
        assert got == _min_bandwidth_reference(a[k], b[k], c[k], req, total)
    req = 0.5 * band_rate(total, a, b, c)[1].min()
    assert _min_bandwidth(a, b, c, req, total).tolist() == [
        _min_bandwidth_reference(*abc, req, total) for abc in zip(a, b, c)]


def test_bandwidth_symmetric_equal_split():
    sc = symmetric_two_band_scenario()
    w = equal_weights(sc)
    alloc = AllocationState(
        groups=[[0], [1]],
        bandwidths=[sc.config.total_bandwidth / 2] * 2,
        powers=np.full(3, sc.config.max_power), weights=w,
    )
    res = optimize_bandwidth(sc, alloc)
    half = sc.config.total_bandwidth / 2
    assert res.allocation.bandwidths[0] == pytest.approx(
        half, abs=1e-8 * sc.config.total_bandwidth
    )
    assert res.kkt_residual <= 1e-8


def test_bandwidth_beats_equal_split():
    for seed in range(10):
        sc = make_scenario(seed=seed)
        alloc = equal_split_allocation(sc)
        base = sum_rate(sc, alloc)
        res = optimize_bandwidth(sc, alloc)
        assert sum_rate(sc, res.allocation) >= base - 1e-9 * base
        assert res.kkt_residual <= 1e-8
        assert sum(res.allocation.bandwidths) == pytest.approx(
            sc.config.total_bandwidth
        )


def test_bandwidth_objective_trace_monotone(default_scenario):
    sc = default_scenario
    res = optimize_bandwidth(sc, equal_split_allocation(sc))
    t = res.objective_trace
    assert all(b >= a for a, b in zip(t, t[1:]))
    assert res.iterations <= 5


def test_bandwidth_infeasible_floors():
    sc = make_scenario(seed=2)
    cfg = sc.config.replace(rate_requirement=1e9)  # far above capacity
    sc = replace(sc, config=cfg)
    with pytest.raises(InfeasibleError):
        optimize_bandwidth(sc, equal_split_allocation(sc))


def test_bandwidth_coefficients_positive(default_scenario):
    sc = default_scenario
    for coeff in bandwidth_coefficients(sc, equal_split_allocation(sc)):
        assert (coeff > 0).all()


def test_bandwidth_model_is_the_bound():
    """At the bandwidths the stage returns, each scheduled user's rate
    band_rate(B, a, b, c)[1] equals the scalar reference's. On this ao-small
    item some users' interference c is below 1e-30 W, so a floor on c there
    would make the rate under-read."""
    cfg = AO_SMALL_UNATTAINABLE.replace(rate_requirement=0.0)
    scenario_ss, estimation_ss = np.random.SeedSequence(0).spawn(2)
    sc = build_scenario(cfg, np.random.default_rng(scenario_ss))
    _, _, res = _hand_wired_first_round(
        sc, np.random.default_rng(estimation_ss))
    alloc = res.allocation
    a, b, c = bandwidth_coefficients(sc, alloc)
    assert c.min() < 1e-30
    for g, bw in zip(alloc.groups, alloc.bandwidths):
        for k in g:
            assert band_rate(bw, a[k], b[k], c[k])[1] == pytest.approx(
                sinr_lower_bound(sc, alloc, k).rate_lb, rel=1e-12, abs=0)


# --- outer loop and benchmarks ---------------------------------------------


def test_alternating_optimize_improves(default_scenario):
    sc = default_scenario
    base = sum_rate(sc, equal_split_allocation(sc))
    res = alternating_optimize(sc, np.random.default_rng(1))
    assert res.sum_rate >= base - 1e-9 * base
    assert res.sum_rate == pytest.approx(max(res.round_rates))
    assert res.allocation.feasible


def test_benchmark_weights_normalized(default_scenario):
    sc = default_scenario
    est = scheduling_estimates(sc, np.random.default_rng(2))
    w = estimate_magnitude_weights(sc, est)
    for k in range(sc.num_users):
        assert sum(w[m, k] ** 2 for m in range(sc.num_satellites)) == \
            pytest.approx(1.0)


def test_benchmark_arms_run(default_scenario):
    sc = default_scenario
    for mode in ("equal", "estimate"):
        alloc, rate = benchmark_allocation(sc, np.random.default_rng(3), mode)
        assert rate > 0
        assert np.all(alloc.powers <= sc.config.max_power + 1e-12)
    with pytest.raises(ValueError):
        benchmark_allocation(sc, np.random.default_rng(3), "nope")


# The benchmark's ao-small system with a floor no schedule meets.
AO_SMALL_UNATTAINABLE = AO_SMALL.replace(rate_requirement=1.5e5)


@pytest.mark.parametrize("seed", [1011, 1018])
def test_unbounded_sca_step_stops_the_loop_not_the_ao(seed, monkeypatch):
    """Items 1011 and 1018 of the ao-small system at 20 W, with the SCA
    tolerance tightened to 1e-7: the SCA drives a user's power towards 0,
    which a log-domain GP cannot reach, and a GP step reads as unbounded.
    The loop keeps its previous iterate and says why; no GpError escapes
    the alternating optimization or the fixed-weight arms."""
    monkeypatch.setattr(dmimo.optimizer, "EPS_SCA", 1e-7)
    cfg = AO_SMALL.replace(max_power=20.0)
    scenario_ss, estimation_ss = np.random.SeedSequence(seed).spawn(2)
    sc = build_scenario(cfg, np.random.default_rng(scenario_ss))
    res = alternating_optimize(sc, np.random.default_rng(estimation_ss))
    stopped = [r for r in res.rounds if r.sca.stop_reason == "gp_unbounded"]
    assert stopped and len(res.round_rates) == len(res.rounds)
    for r in stopped:
        objs = r.sca.objectives
        assert len(objs) > 1 and objs == sorted(objs)
    assert res.allocation.feasible
    assert res.sum_rate == sum_rate(sc, res.allocation)
    for mode in ("equal", "estimate"):
        alloc, rate = benchmark_allocation(
            sc, np.random.default_rng(estimation_ss), mode)
        assert alloc.feasible and rate == sum_rate(sc, alloc)


def test_unbounded_second_sca_step_returns_the_first(monkeypatch):
    """Item 1011 of the ao-small system at 20 W, with the second GP of
    every SCA loop raising GpUnboundedError whatever its rounding: the loop
    stops with "gp_unbounded" and returns the first step's iterate, as a
    loop cut after one step does, and the alternating optimization and
    both fixed-weight arms complete."""
    monkeypatch.setattr(dmimo.optimizer, "EPS_SCA", 1e-7)
    scenario_ss, estimation_ss = np.random.SeedSequence(1011).spawn(2)
    sc = build_scenario(AO_SMALL.replace(max_power=20.0),
                        np.random.default_rng(scenario_ss))
    alloc = equal_split_allocation(sc)
    with monkeypatch.context() as mp:
        mp.setattr(dmimo.optimizer, "MAX_ITER_SCA", 1)
        first, first_trace = optimize_power_weights(sc, alloc)
    assert first_trace.stop_reason == "max_iter"

    solved = []  # GPs solved by each optimize_power_weights call
    solve, power_stage = dmimo.optimizer.solve_gp, optimize_power_weights

    def counted(*args, **kwargs):
        solved.append(0)
        return power_stage(*args, **kwargs)

    def second_unbounded(problem, x0):
        solved[-1] += 1
        if solved[-1] == 2:
            raise GpUnboundedError("the second SCA step")
        return solve(problem, x0)

    monkeypatch.setattr(dmimo.optimizer, "optimize_power_weights", counted)
    monkeypatch.setattr(dmimo.optimizer, "solve_gp", second_unbounded)
    got, trace = dmimo.optimizer.optimize_power_weights(sc, alloc)
    assert trace.stop_reason == "gp_unbounded"
    objs = trace.objectives
    assert len(objs) >= 2 and objs == sorted(objs)
    assert objs == first_trace.objectives
    assert got.powers.tobytes() == first.powers.tobytes()
    assert got.weights.tobytes() == first.weights.tobytes()

    res = alternating_optimize(sc, np.random.default_rng(estimation_ss))
    assert [r.sca.stop_reason for r in res.rounds] == \
        ["gp_unbounded"] * len(res.rounds)
    assert len(res.round_rates) == len(res.rounds) and res.allocation.feasible
    for mode in ("equal", "estimate"):
        alloc, rate = benchmark_allocation(
            sc, np.random.default_rng(estimation_ss), mode)
        assert alloc.feasible and rate == sum_rate(sc, alloc)
    assert solved == [2] * len(solved)  # every loop reached its second GP


@pytest.mark.parametrize("seed, phi", [(1007, 0.6076), (1008, 0.5407)])
def test_unattainable_floor_is_reported(seed, phi):
    scenario_ss, estimation_ss = np.random.SeedSequence(seed).spawn(2)
    sc = build_scenario(AO_SMALL_UNATTAINABLE,
                        np.random.default_rng(scenario_ss))
    res = alternating_optimize(sc, np.random.default_rng(estimation_ss))
    assert not res.allocation.feasible
    assert res.allocation.phi == pytest.approx(phi, abs=1e-4)
    assert res.round_rates == []
    [first] = res.rounds
    assert (first.sca, first.bandwidth, first.sum_rate) == (None, None, None)
    assert res.allocation.groups == first.schedule.groups
    assert res.sum_rate == sum_rate(sc, res.allocation)
    assert sorted(k for g in res.allocation.groups for k in g) == \
        list(range(8))
    rates = sinr_all(sc, res.allocation).rate
    assert rates.min() < AO_SMALL_UNATTAINABLE.rate_requirement
    for mode in ("equal", "estimate"):
        alloc, rate = benchmark_allocation(
            sc, np.random.default_rng(estimation_ss), mode)
        assert not alloc.feasible and alloc.phi < 1.0
        assert rate == sum_rate(sc, alloc)


def test_attainable_floor_reports_margin(default_scenario):
    sc = default_scenario
    floored = replace(sc, config=sc.config.replace(rate_requirement=5e4))
    res = alternating_optimize(floored, np.random.default_rng(1))
    assert res.allocation.feasible and res.allocation.phi >= 1.0
    assert sinr_all(floored, res.allocation).rate.min() >= 5e4 * (1 - 1e-9)
    res = alternating_optimize(sc, np.random.default_rng(1))
    assert res.allocation.feasible and res.allocation.phi == math.inf


def test_floor_beyond_float_range_is_unattainable():
    """A floor whose SINR target 2^(r / B) - 1 overflows a float has margin
    phi = 0: the AO and both arms return an allocation marked infeasible
    rather than raising OverflowError."""
    sc = build_scenario(SystemConfig(rate_requirement=1e9),
                        np.random.default_rng(5))
    alloc = equal_split_allocation(sc)
    assert _rate_gamma(sc, alloc.bandwidths[0]) == math.inf
    phi, out = feasibility_check(sc, alloc)
    assert phi == 0.0 and np.array_equal(out.powers, alloc.powers)
    res = alternating_optimize(sc, np.random.default_rng(5))
    assert not res.allocation.feasible and res.allocation.phi == 0.0
    assert res.round_rates == [] and len(res.rounds) == 1
    assert res.sum_rate == sum_rate(sc, res.allocation)
    for mode in ("equal", "estimate"):
        alloc, rate = benchmark_allocation(sc, np.random.default_rng(5), mode)
        assert not alloc.feasible and alloc.phi == 0.0
        assert rate == sum_rate(sc, alloc)


def test_bandwidths_assigned_as_a_list_build_the_same_gp():
    """Bandwidths given as a list, at construction or by assignment, are
    stored as a float array, so the GP rows index them by band."""
    sc = build_scenario(AO_SMALL.replace(rate_requirement=5e4),
                        np.random.default_rng(1))
    alloc = equal_split_allocation(sc)
    listed = alloc.copy()
    listed.bandwidths = alloc.bandwidths.tolist()
    built = AllocationState(alloc.groups, alloc.bandwidths.tolist(),
                            alloc.powers, alloc.weights)
    chi = np.full(sc.num_users, 2.0)
    want, _ = build_sca_subproblem(sc, alloc, chi)
    for other in (listed, built):
        assert other.bandwidths.dtype == float
        got, _ = build_sca_subproblem(sc, other, chi)
        assert all(np.array_equal(getattr(got, f), getattr(want, f))
                   for f in ("objective", "logs", "row", "col", "value",
                             "starts"))
        assert feasibility_check(sc, other)[0] == feasibility_check(sc,
                                                                    alloc)[0]


def test_floor_on_a_zero_bandwidth_band_is_unattainable():
    """A band given no bandwidth cannot meet a rate floor: its SINR target
    is inf, so the feasibility margin is phi = 0 and the power stage raises
    InfeasibleError with it, rather than ZeroDivisionError."""
    sc = build_scenario(AO_SMALL.replace(rate_requirement=5e4),
                        np.random.default_rng(1))
    alloc = equal_split_allocation(sc)
    half = sc.config.total_bandwidth / 2
    alloc.bandwidths = np.array([half, half, 0.0, 0.0])
    assert _rate_gamma(sc, 0.0) == math.inf
    phi, out = feasibility_check(sc, alloc)
    assert phi == 0.0 and np.array_equal(out.powers, alloc.powers)
    with pytest.raises(InfeasibleError) as err:
        optimize_power_weights(sc, alloc)
    assert err.value.phi == 0.0


@pytest.mark.parametrize("floor, seed", [(0.0, 1007), (0.0, 1008),
                                         (1.5e5, 1007)])
def test_ao_result_keeps_one_schedule_per_round(floor, seed):
    """One well-formed round record per round started, only the last left
    unfinished; the first schedule is the equal-weight arm's, and the
    allocation is the best completed round's."""
    cfg = AO_SMALL_UNATTAINABLE.replace(rate_requirement=floor)
    scenario_ss, estimation_ss = np.random.SeedSequence(seed).spawn(2)
    sc = build_scenario(cfg, np.random.default_rng(scenario_ss))
    res = alternating_optimize(sc, np.random.default_rng(estimation_ss))
    done = len(res.round_rates)
    assert len(res.rounds) in (done, done + 1)
    assert [r.bandwidth is not None for r in res.rounds] == \
        [True] * done + [False] * (len(res.rounds) - done)
    assert res.allocation.feasible == (done > 0)
    for r in res.rounds:
        sched = r.schedule
        assert isinstance(sched, Schedule) and sched.iterations >= 1
        assert sorted(k for g in sched.groups for k in g) == list(range(8))
        assert not sched.feasible or validate_schedule(
            sched, 8, cfg.num_subbands, cfg.subband_capacity)
        if r.bandwidth is not None:
            assert r.sca.objectives and r.sca.stop_reason in (
                "converged", "no_improvement", "gp_infeasible", "max_iter")
            assert r.bandwidth.allocation.groups == sched.groups
            assert r.sum_rate == sum_rate(sc, r.bandwidth.allocation)
    fresh = build_scenario(cfg, np.random.default_rng(scenario_ss))
    est = scheduling_estimates(fresh, np.random.default_rng(estimation_ss))
    assert res.rounds[0].schedule == schedule_users(
        fresh, est, np.full(8, cfg.max_power), equal_weights(fresh))
    assert res.allocation.groups in [r.schedule.groups for r in res.rounds]
    if res.allocation.feasible:
        best = max(res.rounds[:done], key=lambda r: r.sum_rate)
        assert res.allocation is best.bandwidth.allocation
        assert res.sum_rate == best.sum_rate
    else:
        assert len(res.rounds) == 1


def _hand_wired_first_round(scenario, rng):
    """The first round's stages called one by one, as the convergence
    experiment once did: schedule at max power and equal weights, split the
    band equally, run SCA on powers and weights, then the bandwidth stage.
    Reference for the round records of alternating_optimize."""
    powers = np.full(scenario.num_users, scenario.config.max_power)
    weights = equal_weights(scenario)
    estimates = scheduling_estimates(scenario, rng)
    sched = schedule_users(scenario, estimates, powers, weights)
    alloc = equal_split_allocation(scenario, groups=sched.groups,
                                   powers=powers, weights=weights)
    alloc, trace = optimize_power_weights(scenario, alloc)
    return sched, trace, optimize_bandwidth(scenario, alloc)


@pytest.mark.parametrize("max_power", [0.2, 20.0])
def test_first_round_matches_hand_wired_stages(max_power):
    """Round 0's Schedule, SCA objectives and bandwidth trace equal, bit for
    bit, the stages called by hand on a freshly built copy of the system;
    at 20 W SCA runs more than one iterate."""
    systems = [(SystemConfig(antennas_x=8, antennas_y=8), 0),
               (SystemConfig(), 3),
               (AO_SMALL_UNATTAINABLE.replace(rate_requirement=0.0), 1012)]
    iterates = []
    for cfg, seed in systems:
        cfg = cfg.replace(max_power=max_power)
        rng = np.random.default_rng(seed)
        sc = build_scenario(cfg, rng)
        first = alternating_optimize(sc, rng, max_rounds=1).rounds[0]
        rng = np.random.default_rng(seed)
        sched, trace, bw = _hand_wired_first_round(build_scenario(cfg, rng),
                                                   rng)
        assert first.schedule == sched
        assert [x.hex() for x in first.sca.objectives] == \
            [x.hex() for x in trace.objectives]
        assert first.sca.stop_reason == trace.stop_reason
        assert [x.hex() for x in first.bandwidth.objective_trace] == \
            [x.hex() for x in bw.objective_trace]
        assert np.array_equal(first.bandwidth.allocation.bandwidths,
                              bw.allocation.bandwidths)
        assert (first.bandwidth.iterations, first.bandwidth.kkt_residual) \
            == (bw.iterations, bw.kkt_residual)
        iterates.append(first.sca.iterations)
    if max_power > 1:
        assert max(iterates) > 1


def _benchmark_checks():
    """benchmarks/checks.py: plain-code checks of the partition, capacity,
    bandwidth simplex (B >= 0), power caps, unit-norm weights, rate floors
    and the reported sum rate."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "checks.py"
    spec = importlib.util.spec_from_file_location("benchmark_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Interference-limited instances of the ao-small system (no floor) on which
# the bandwidth stage gives some band no bandwidth.
@pytest.mark.parametrize("seed, max_power", [(1012, 20.0), (1013, 200.0)])
def test_zero_bandwidth_band_does_not_stop_the_loop(seed, max_power):
    """Water-filling may give an interference-limited band nothing; its
    users then rate 0 and the loop goes on. Every allocation keeps its
    invariants, with B >= 0, and the AO beats the equal-weight arm. The
    stage run again on such an output returns the same sum rate without a
    numpy warning: its rate model does not depend on the bandwidths it is
    given."""
    cfg = AO_SMALL_UNATTAINABLE.replace(rate_requirement=0.0,
                                        max_power=max_power)
    scenario_ss, estimation_ss = np.random.SeedSequence(seed).spawn(2)
    sc = build_scenario(cfg, np.random.default_rng(scenario_ss))
    res = alternating_optimize(sc, np.random.default_rng(estimation_ss))
    assert len(res.round_rates) == len(res.rounds) > 1
    zeroed = [r for r in res.rounds
              if 0.0 in r.bandwidth.allocation.bandwidths]
    assert zeroed
    for r in zeroed:
        alloc = r.bandwidth.allocation
        rate = sinr_all(sc, alloc).rate
        for g, b in zip(alloc.groups, alloc.bandwidths):
            assert np.all(rate[g] == 0.0) == (b == 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = optimize_bandwidth(sc, alloc)
        assert sum_rate(sc, again.allocation) == pytest.approx(
            sum_rate(sc, alloc), rel=1e-12, abs=0)
    arms = {mode: benchmark_allocation(
                sc, np.random.default_rng(estimation_ss), mode)
            for mode in ("equal", "estimate")}
    assert _benchmark_checks().check_ao_item(sc, res, arms) == []
    assert res.allocation.feasible
    assert res.sum_rate >= arms["equal"][1]


@given(max_power=st.floats(min_value=0.2, max_value=200.0),
       seed=st.integers(min_value=1011, max_value=1018))
@settings(max_examples=8, deadline=None)
def test_ao_holds_its_invariants_at_any_power(max_power, seed):
    """From the noise-limited 0.2 W to the interference-limited 200 W on the
    ao-small system (no floor), the AO and both arms return allocations
    that pass the benchmark's checks, with B >= 0, and the AO's sum rate is
    at least the equal-weight arm's on the same stream."""
    cfg = AO_SMALL_UNATTAINABLE.replace(rate_requirement=0.0,
                                        max_power=max_power)
    scenario_ss, estimation_ss = np.random.SeedSequence(seed).spawn(2)
    sc = build_scenario(cfg, np.random.default_rng(scenario_ss))
    res = alternating_optimize(sc, np.random.default_rng(estimation_ss))
    arms = {mode: benchmark_allocation(
                sc, np.random.default_rng(estimation_ss), mode)
            for mode in ("equal", "estimate")}
    assert _benchmark_checks().check_ao_item(sc, res, arms) == []
    assert res.allocation.feasible
    assert res.sum_rate >= arms["equal"][1]
    assert all(r.bandwidth.kkt_residual <= 1e-8 for r in res.rounds
               if r.bandwidth is not None)


@given(max_power=st.floats(min_value=0.2, max_value=200.0),
       seed=st.integers(min_value=1011, max_value=1018))
@settings(max_examples=2, deadline=None)
# SLSQP drifted a user's weights along their free scale to ~e^-150 here
@example(max_power=46.0, seed=1014)
# a dual search for the bandwidths stalls at float resolution here, with a
# KKT residual of 0.146
@example(max_power=120.0, seed=1012)
def test_ao_holds_its_invariants_on_the_paper_floor_system(max_power, seed):
    """The same property on the ao-paper-floor system (N = 100, K = 16,
    5e4 bit/s floor): the AO and both arms pass the benchmark's checks,
    the AO meets the floor, and its sum rate is at least the equal-weight
    arm's on the same stream."""
    cfg = AO_PAPER_FLOOR.replace(max_power=max_power)
    scenario_ss, estimation_ss = np.random.SeedSequence(seed).spawn(2)
    sc = build_scenario(cfg, np.random.default_rng(scenario_ss))
    res = alternating_optimize(sc, np.random.default_rng(estimation_ss))
    arms = {mode: benchmark_allocation(
                sc, np.random.default_rng(estimation_ss), mode)
            for mode in ("equal", "estimate")}
    assert _benchmark_checks().check_ao_item(sc, res, arms) == []
    assert res.allocation.feasible
    assert res.sum_rate >= arms["equal"][1]
    assert all(r.bandwidth.kkt_residual <= 1e-8 for r in res.rounds
               if r.bandwidth is not None)


BANDWIDTH_SYSTEMS = {
    "ao-small": AO_SMALL_UNATTAINABLE.replace(rate_requirement=0.0),
    "ao-paper-floor": AO_PAPER_FLOOR,
}


@given(system=st.sampled_from(sorted(BANDWIDTH_SYSTEMS)),
       max_power=st.floats(min_value=0.2, max_value=200.0),
       seed=st.integers(min_value=1011, max_value=1018))
@settings(max_examples=4, deadline=None)
# A Newton loop that counts a band left within rounding of its floor as
# above it caps every later step near zero there. One such loop stopped
# 0.09-3.9% short of the optimum on nine calls of the first six runs; on
# the last, at one BLAS thread, a loop that neither counts such a band as
# at its floor nor puts the blocking band exactly on it ends 60 steps later
# at a KKT residual of 0.02.
@example(system="ao-small", max_power=200.0, seed=1014)
@example(system="ao-small", max_power=200.0, seed=1015)
@example(system="ao-paper-floor", max_power=20.0, seed=1011)
@example(system="ao-paper-floor", max_power=120.0, seed=1011)
@example(system="ao-paper-floor", max_power=120.0, seed=1012)
@example(system="ao-paper-floor", max_power=120.0, seed=1013)
@example(system="ao-small", max_power=150.0, seed=1026)
def test_bandwidth_stage_reaches_the_dual_optimum(system, max_power, seed):
    """On every bandwidth-stage call of an AO run, the stage's objective and
    sum rate are at least the dual water-filling reference's, its KKT
    residual is at most 1e-8 after at most 10 steps, every band is at or
    above its rate floor, and the bandwidths sum to the total."""
    cfg = BANDWIDTH_SYSTEMS[system].replace(max_power=max_power)
    scenario_ss, estimation_ss = np.random.SeedSequence(seed).spawn(2)
    sc = build_scenario(cfg, np.random.default_rng(scenario_ss))
    calls = []

    def recorded(scenario, allocation):
        calls.append((allocation, optimize_bandwidth(scenario, allocation)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dmimo.optimizer, "optimize_bandwidth", recorded)
        alternating_optimize(sc, np.random.default_rng(estimation_ss))
    assert calls
    for alloc, res in calls:
        want = sum_rate(sc, _assert_at_the_dual_optimum(sc, alloc, res))
        assert sum_rate(sc, res.allocation) >= want - 1e-12 * want
        assert res.iterations <= 10


@given(seed=st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=20, deadline=None)
# a loop that neither counts a band within rounding of its floor as at it
# nor puts the blocking band exactly on it ends here 60 steps later at a KKT
# residual of 0.28
@example(seed=503)
# a band of 278 Hz, where a floor of 1e-30 W on the SINR denominator made
# sum_rate read 1.7e-4 below the bound
@example(seed=235)
def test_bandwidth_stage_reaches_the_dual_optimum_at_any_allocation(seed):
    """The same, at random powers (down to 1e-6 of the cap) and weights on
    the ao-small system at 200 W, scheduled as the AO's first round is."""
    cfg = BANDWIDTH_SYSTEMS["ao-small"].replace(max_power=200.0)
    scenario_ss, draw_ss = np.random.SeedSequence(seed).spawn(2)
    sc = build_scenario(cfg, np.random.default_rng(scenario_ss))
    rng = np.random.default_rng(draw_ss)
    powers = cfg.max_power * rng.uniform(0.01, 1.0, cfg.num_users) ** 3
    weights = rng.uniform(0.05, 1.0, sc.serving.shape) * sc.serving
    sched = schedule_users(sc, scheduling_estimates(sc, rng),
                           np.full(cfg.num_users, cfg.max_power),
                           equal_weights(sc))
    alloc = equal_split_allocation(sc, groups=sched.groups, powers=powers,
                                   weights=normalize_weights(sc, weights))
    _assert_at_the_dual_optimum(sc, alloc, optimize_bandwidth(sc, alloc))


def _assert_at_the_dual_optimum(scenario, alloc, res):
    """The stage's result `res` on `alloc` reaches the objective of the dual
    reference, the sum of band_rate over the users, to 1e-12, and
    ``sum_rate`` reads that objective to 1e-12, with a KKT residual of at
    most 1e-8, every band at or above its rate floor and the bandwidths
    summing to the total. Returns the reference."""
    cfg = scenario.config
    a, b, c = bandwidth_coefficients(scenario, alloc)
    reference = alloc.copy()
    reference.bandwidths = dual_bandwidth(scenario, alloc)
    got, want = (sum(band_rate(bw, a[k], b[k], c[k])[1]
                     for g, bw in zip(alloc.groups, x.bandwidths) for k in g)
                 for x in (res.allocation, reference))
    assert got >= want - 1e-12 * want
    assert sum_rate(scenario, res.allocation) == pytest.approx(
        got, rel=1e-12, abs=0)
    assert res.kkt_residual <= 1e-8
    for g, bw in zip(alloc.groups, res.allocation.bandwidths):
        assert bw >= _min_bandwidth(a[g], b[g], c[g], cfg.rate_requirement,
                                    cfg.total_bandwidth).max()
    assert sum(res.allocation.bandwidths) == pytest.approx(
        cfg.total_bandwidth, rel=1e-12, abs=0)
    return reference


# The benchmark experiment's K=8 system (harness.run_benchmark at seed 0):
# per seed, the groups and sum rate of the alternating optimization and of
# the equal-weight and estimate-weight benchmark arms, as computed before
# the scheduler scored partitions from one interference table per call.
# The AO rates of seeds 0 and 2 are those of the bandwidth stage whose rate
# model is the bound itself (no floor on the interference power), and all
# three AO rates those of the interior-point GP solver (the same at one and
# two BLAS threads).
GOLDEN_AO = [
    (([[0, 2], [3, 6], [1, 7], [4, 5]], 868892.5068048103),
     ([[0, 2], [3, 6], [1, 7], [4, 5]], 866464.2394323557),
     ([[0, 2], [3, 6], [1, 7], [4, 5]], 866444.1393049555)),
    (([[1, 2], [4, 5, 7], [0, 3, 6]], 873409.4093650338),
     ([[1, 2], [4, 5, 7], [0, 3, 6]], 870270.9177190213),
     ([[1, 2], [4, 5, 7], [0, 3, 6]], 870231.015785986)),
    (([[0, 7], [2, 3, 4], [1, 5, 6]], 920420.6374657725),
     ([[0, 7], [2, 3, 4], [1, 5, 6]], 917118.3606276),
     ([[0, 7], [2, 3, 4], [1, 5, 6]], 917103.1303237763)),
]


def test_ao_outputs_match_golden():
    from dmimo.harness import _cluster_config

    cfg = _cluster_config(SystemConfig(), 8, pilot_length=6,
                          subband_capacity=3, max_power=0.2)
    # run_benchmark seeds K users at seed + K
    children = np.random.SeedSequence(0 + 8).spawn(2 * len(GOLDEN_AO))
    for s, golden in enumerate(GOLDEN_AO):
        sc = build_scenario(cfg, np.random.default_rng(children[2 * s]))
        est_ss = children[2 * s + 1]
        ao = alternating_optimize(sc, np.random.default_rng(est_ss))
        got = [(ao.allocation.groups, ao.sum_rate)]
        for mode in ("equal", "estimate"):
            alloc, rate = benchmark_allocation(
                sc, np.random.default_rng(est_ss), mode)
            got.append((alloc.groups, rate))
        for (groups, rate), (want_groups, want_rate) in zip(got, golden):
            assert groups == want_groups, s
            assert rate == pytest.approx(want_rate, rel=1e-12, abs=0), s


# Runs the golden AO system (its three seeds, the AO and both arms) and
# prints the bytes of every GP solution and sum rate, one per line.
_GOLDEN_RUN = """
import numpy as np
import dmimo.optimizer as opt
from dmimo.config import SystemConfig
from dmimo.harness import _cluster_config
from dmimo.scenario import build_scenario

solve = opt.solve_gp
def printed(problem, x0):
    sol = solve(problem, x0)
    print(sol.x.tobytes().hex())
    return sol
opt.solve_gp = printed
cfg = _cluster_config(SystemConfig(), 8, pilot_length=6, subband_capacity=3,
                      max_power=0.2)
children = np.random.SeedSequence(8).spawn(6)
for s in range(3):
    sc = build_scenario(cfg, np.random.default_rng(children[2 * s]))
    est_ss = children[2 * s + 1]
    ao = opt.alternating_optimize(sc, np.random.default_rng(est_ss))
    print(np.float64(ao.sum_rate).tobytes().hex())
    for mode in ("equal", "estimate"):
        _, rate = opt.benchmark_allocation(sc, np.random.default_rng(est_ss),
                                           mode)
        print(np.float64(rate).tobytes().hex())
"""


def test_ao_outputs_do_not_depend_on_the_blas_thread_count():
    """The golden AO system gives the same bits, every GP solution and sum
    rate, with one BLAS thread and with two."""
    src = str(Path(dmimo.optimizer.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        outputs.append(subprocess.run(
            [sys.executable, "-c", _GOLDEN_RUN], env=env, check=True,
            capture_output=True, text=True, timeout=300).stdout.split())
    assert len(outputs[0]) > 9
    assert outputs[0] == outputs[1]

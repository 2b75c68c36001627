import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmimo.optimizer
from conftest import make_scenario
from dmimo.config import SystemConfig
from dmimo.gp import GpInfeasibleError
from dmimo.optimizer import (
    InfeasibleError,
    alternating_optimize,
    benchmark_allocation,
    bandwidth_coefficients,
    build_sca_subproblem,
    estimate_magnitude_weights,
    feasibility_check,
    monomial_bound,
    optimize_bandwidth,
    optimize_power_weights,
    _min_bandwidth,
    rate_vs_bandwidth,
    rate_vs_bandwidth_prime,
    rate_vs_bandwidth_second,
    sca_coefficients,
    scheduling_estimates,
)
from dmimo.rate import (
    AllocationState,
    RateContext,
    equal_split_allocation,
    equal_weights,
    sinr_all,
    sinr_lower_bound,
    sum_rate,
)
from dmimo.scenario import Scenario, build_scenario
from dmimo.scheduler import schedule_users

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
        sc = Scenario(config=cfg, links=sc.links, pilots=sc.pilots,
                      serving_sets=sc.serving_sets)
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
    ctx = RateContext(sc)
    alloc, trace = optimize_power_weights(sc, equal_split_allocation(sc), ctx)
    objs = trace.objectives
    assert all(b >= a - 1e-8 * abs(a) for a, b in zip(objs, objs[1:]))
    # weights renormalized on exit
    for k in range(sc.num_users):
        nrm = sum(alloc.weights[m, k] ** 2 for m in range(sc.num_satellites))
        assert nrm == pytest.approx(1.0, abs=1e-9)
    assert np.all(alloc.powers <= sc.config.max_power + 1e-12)


def test_power_weights_single_user_max_power():
    sc = single_user_scenario()
    ctx = RateContext(sc)
    w = np.zeros((1, 2))
    w[0, 0] = 1.0
    w[0, 1] = 1.0
    alloc = AllocationState(
        groups=[[0]], bandwidths=[sc.config.total_bandwidth],
        powers=np.full(2, sc.config.max_power), weights=w,
    )
    out, _ = optimize_power_weights(sc, alloc, ctx)
    assert out.powers[0] == pytest.approx(sc.config.max_power, rel=1e-6)


def fig5_style_scenario(seed=31, nx=4, ny=4):
    return make_scenario(seed=seed, num_users=6, num_satellites=4,
                         cluster_size=3, num_subbands=4, pilot_length=4,
                         subband_capacity=3, antennas_x=nx, antennas_y=ny)


def test_power_weights_converges_quickly():
    sc = fig5_style_scenario()
    ctx = RateContext(sc)
    rng = np.random.default_rng(7)
    est = scheduling_estimates(sc, rng)
    powers = np.full(sc.num_users, sc.config.max_power)
    weights = equal_weights(sc)
    sched = schedule_users(sc, est, powers, weights, context=ctx)
    bw = sc.config.total_bandwidth / len(sched.groups)
    alloc = AllocationState(
        groups=sched.groups, bandwidths=[bw] * len(sched.groups),
        powers=powers, weights=weights,
    )
    _, trace = optimize_power_weights(sc, alloc, ctx)
    assert trace.iterations <= 10
    objs = trace.objectives
    assert all(b >= a - 1e-8 * abs(a) for a, b in zip(objs, objs[1:]))


def test_sca_trace_records_stop_reason(default_scenario):
    sc = default_scenario
    alloc = equal_split_allocation(sc)
    _, trace = optimize_power_weights(sc, alloc, eps=0.01)
    assert trace.stop_reason == "converged"
    objs = trace.objectives
    assert (objs[-1] - objs[-2]) / objs[-1] < 0.01
    # eps = 0 never converges, so the loop runs out of iterations
    for max_iter in (0, 1, 2):
        _, trace = optimize_power_weights(sc, alloc, eps=0.0,
                                          max_iter=max_iter)
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
    out, trace = optimize_power_weights(sc, equal_split_allocation(sc),
                                        eps=0.0)
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
    problem, x0 = build_sca_subproblem(sc, alloc, ctx, chi,
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


# --- bandwidth stage -------------------------------------------------------


def test_bandwidth_function_hand_values():
    assert rate_vs_bandwidth(1.0, 1, 1, 1) == pytest.approx(
        math.log2(1.5), abs=1e-9
    )
    assert rate_vs_bandwidth_prime(1.0, 1, 1, 1) == pytest.approx(
        0.34451, abs=1e-5
    )
    assert rate_vs_bandwidth_second(1.0, 1, 1, 1) == pytest.approx(
        -7.0 / (36.0 * LN2), abs=1e-9
    )


def test_bandwidth_derivatives_match_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(50):
        a, b, c = rng.uniform(0.2, 3.0, 3)
        x = rng.uniform(0.5, 2.0)
        fp = (rate_vs_bandwidth(x + h, a, b, c)
              - rate_vs_bandwidth(x - h, a, b, c)) / (2 * h)
        fpp = (rate_vs_bandwidth(x + h, a, b, c)
               - 2 * rate_vs_bandwidth(x, a, b, c)
               + rate_vs_bandwidth(x - h, a, b, c)) / h ** 2
        assert rate_vs_bandwidth_prime(x, a, b, c) == pytest.approx(
            fp, abs=1e-6
        )
        assert rate_vs_bandwidth_second(x, a, b, c) == pytest.approx(
            fpp, abs=1e-4
        )
        assert rate_vs_bandwidth_second(x, a, b, c) < 0


def symmetric_two_band_scenario():
    """User 1 is an exact copy of user 0 (cloned links), one per band."""
    sc = make_scenario(seed=41, num_users=3, num_subbands=2, pilot_length=3,
                       subband_capacity=3)
    links = [list(row) for row in sc.links]
    for m in range(sc.num_satellites):
        links[m][1] = links[m][0]
    sets = list(sc.serving_sets)
    sets[1] = sets[0]
    return Scenario(config=sc.config,
                    links=tuple(tuple(r) for r in links),
                    pilots=sc.pilots, serving_sets=tuple(sets))


def _min_bandwidth_reference(a, b, c, req, total):
    """The floor bisection run for all of its 200 iterations."""
    lo, hi = 0.0, total
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rate_vs_bandwidth(mid, a, b, c) >= req:
            hi = mid
        else:
            lo = mid
    return hi


def test_min_bandwidth_stops_without_moving_the_result():
    rng = np.random.default_rng(11)
    total = 1e6
    for _ in range(300):
        a, b, c = 10.0 ** rng.uniform(-14, -8, 3)
        req = rng.uniform(0.01, 1.0) * rate_vs_bandwidth(total, a, b, c)
        assert _min_bandwidth(a, b, c, req, total) == \
            _min_bandwidth_reference(a, b, c, req, total)


def test_bandwidth_symmetric_equal_split():
    sc = symmetric_two_band_scenario()
    ctx = RateContext(sc)
    w = equal_weights(sc)
    alloc = AllocationState(
        groups=[[0], [1]],
        bandwidths=[sc.config.total_bandwidth / 2] * 2,
        powers=np.full(3, sc.config.max_power), weights=w,
    )
    res = optimize_bandwidth(sc, alloc, ctx)
    half = sc.config.total_bandwidth / 2
    assert res.allocation.bandwidths[0] == pytest.approx(
        half, abs=1e-8 * sc.config.total_bandwidth
    )
    assert res.kkt_residual <= 1e-8


def test_bandwidth_beats_equal_split():
    for seed in range(10):
        sc = make_scenario(seed=seed)
        ctx = RateContext(sc)
        alloc = equal_split_allocation(sc)
        base = sum_rate(sc, alloc, ctx)
        res = optimize_bandwidth(sc, alloc, ctx)
        assert sum_rate(sc, res.allocation, ctx) >= base - 1e-9 * base
        assert res.kkt_residual <= 1e-8
        assert sum(res.allocation.bandwidths) == pytest.approx(
            sc.config.total_bandwidth
        )


def test_bandwidth_objective_trace_monotone(default_scenario):
    sc = default_scenario
    ctx = RateContext(sc)
    res = optimize_bandwidth(sc, equal_split_allocation(sc), ctx)
    t = res.objective_trace
    assert all(b >= a for a, b in zip(t, t[1:]))
    assert res.iterations <= 5


def test_bandwidth_infeasible_floors():
    sc = make_scenario(seed=2)
    cfg = sc.config.replace(rate_requirement=1e9)  # far above capacity
    sc = Scenario(config=cfg, links=sc.links, pilots=sc.pilots,
                  serving_sets=sc.serving_sets)
    ctx = RateContext(sc)
    with pytest.raises(InfeasibleError):
        optimize_bandwidth(sc, equal_split_allocation(sc), ctx)


def test_bandwidth_coefficients_positive(default_scenario):
    sc = default_scenario
    coeffs = bandwidth_coefficients(sc, equal_split_allocation(sc))
    for a, b, c in coeffs.values():
        assert a > 0 and b > 0 and c > 0


# --- outer loop and benchmarks ---------------------------------------------


def test_alternating_optimize_improves(default_scenario):
    sc = default_scenario
    ctx = RateContext(sc)
    base = sum_rate(sc, equal_split_allocation(sc), ctx)
    res = alternating_optimize(sc, np.random.default_rng(1), context=ctx)
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


# The benchmark's ao-small system (K=8, four satellites in clusters of three,
# four sub-bands of three users, six pilots) with a floor no schedule meets.
AO_SMALL_UNATTAINABLE = SystemConfig(
    num_users=8, num_satellites=4, cluster_size=3, num_subbands=4,
    subband_capacity=3, pilot_length=6, max_power=0.2,
    rate_requirement=1.5e5)


@pytest.mark.parametrize("seed, phi", [(1007, 0.6076), (1008, 0.5407)])
def test_unattainable_floor_is_reported(seed, phi):
    scenario_ss, estimation_ss = np.random.SeedSequence(seed).spawn(2)
    sc = build_scenario(AO_SMALL_UNATTAINABLE,
                        np.random.default_rng(scenario_ss))
    res = alternating_optimize(sc, np.random.default_rng(estimation_ss))
    assert not res.feasible and not res.allocation.feasible
    assert res.phi == res.allocation.phi == pytest.approx(phi, abs=1e-4)
    assert res.round_rates == []
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
    floored = Scenario(config=sc.config.replace(rate_requirement=5e4),
                       links=sc.links, pilots=sc.pilots,
                       serving_sets=sc.serving_sets)
    res = alternating_optimize(floored, np.random.default_rng(1))
    assert res.feasible and res.phi >= 1.0
    assert sinr_all(floored, res.allocation).rate.min() >= 5e4 * (1 - 1e-9)
    res = alternating_optimize(sc, np.random.default_rng(1))
    assert res.feasible and res.phi == math.inf


# The benchmark experiment's K=8 system (harness.run_benchmark at seed 0):
# per seed, the groups and sum rate of the alternating optimization and of
# the equal-weight and estimate-weight benchmark arms, as computed before
# the scheduler scored partitions from one interference table per call.
GOLDEN_AO = [
    (([[0, 2], [3, 6], [1, 7], [4, 5]], 868882.0084159614),
     ([[0, 2], [3, 6], [1, 7], [4, 5]], 866464.2394323557),
     ([[0, 2], [3, 6], [1, 7], [4, 5]], 866444.1393049555)),
    (([[1, 2], [4, 5, 7], [0, 3, 6]], 873409.4093667413),
     ([[1, 2], [4, 5, 7], [0, 3, 6]], 870270.9177190213),
     ([[1, 2], [4, 5, 7], [0, 3, 6]], 870231.015785986)),
    (([[0, 7], [2, 3, 4], [1, 5, 6]], 920416.7355867573),
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

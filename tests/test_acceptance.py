"""Acceptance suite: one test per criterion, pinned seeds and tolerances.

Each test prints "criterion N: PASS" (or FAIL before the traceback) so the
full run doubles as a checklist.
"""

import math

import numpy as np
import pytest

from conftest import make_scenario, manual_link, manual_scenario
from dmimo.config import SystemConfig
from dmimo.estimation import mse, nmse
from dmimo.gp import GpProblem, Monomial, posynomial_value, solve_gp
from dmimo.harness import ExperimentSpec, run_experiment
from dmimo.optimizer import (
    build_sca_subproblem,
    monomial_bound,
    optimize_bandwidth,
    optimize_power_weights,
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
    monte_carlo_users,
    sinr_lower_bound,
    sum_rate,
)
from dmimo.scenario import PilotAssignment, Scenario
from dmimo.scheduler import (
    dsatur_color,
    exhaustive_schedule,
    schedule_users,
    validate_schedule,
)


def _report(n, body):
    try:
        body()
    except BaseException:
        print(f"criterion {n}: FAIL")
        raise
    print(f"criterion {n}: PASS")


# -- 1. closed-form SINR terms vs Monte Carlo -------------------------------


def test_criterion_01_term_equivalence():
    def body():
        trials = 10_000
        for seed in range(10):
            sc = make_scenario(seed=100 + seed, num_users=5, pilot_length=3,
                               cluster_size=2, subband_capacity=5)
            alloc = equal_split_allocation(
                sc, groups=[list(range(sc.num_users))]
            )
            ctx = RateContext(sc)
            rng = np.random.default_rng(900 + seed)
            # a draw per user keeps the users' three-sigma checks independent
            for k in range(sc.num_users):
                rep = monte_carlo_users(sc, alloc, trials, rng, ctx,
                                        users=(k,)).users[k]
                # |DS|^2: the MC mean's error propagates through |.|^2
                se = math.sqrt(rep.terms["ls"][0] / trials)
                tol = 2.0 * math.sqrt(rep.ds_closed) * 3 * se + (3 * se) ** 2
                assert abs(rep.ds_mc - rep.ds_closed) <= tol
                for name, (closed, mc, term_se) in rep.terms.items():
                    assert abs(closed - mc) <= 3 * term_se, (seed, k, name)

    _report(1, body)


# -- 2. rate lower bound validity and Rician saturation ---------------------


def test_criterion_02_bound_validity():
    def body():
        base = make_scenario(seed=12, num_users=5, pilot_length=3,
                             cluster_size=2, subband_capacity=5,
                             max_power=10.0, pilot_power=10.0)
        grid = (1.0, 5.0, 10.0, 20.0, 50.0, 100.0)
        trials = 3000
        rngs = [np.random.default_rng(s)
                for s in np.random.SeedSequence(2).spawn(len(grid))]
        lbs, gaps = {}, {}
        for kbar, rng in zip(grid, rngs):
            sc = base.with_rician(kbar)
            ctx = RateContext(sc)
            alloc = equal_split_allocation(
                sc, groups=[list(range(sc.num_users))]
            )
            lb = sum_rate(sc, alloc, ctx)
            res = monte_carlo_users(sc, alloc, trials, rng, ctx)
            mc = res.sum_rate
            assert lb <= mc + 3 * res.sum_rate_se, kbar
            lbs[kbar] = lb
            gaps[kbar] = (mc - lb) / mc
        assert gaps[100.0] < gaps[1.0]
        assert lbs[100.0] / lbs[20.0] < 1.01

    _report(2, body)


# -- 3. estimation statistics across the Rician grid ------------------------


def test_criterion_03_estimation_statistics():
    def body():
        base = make_scenario(seed=11)
        M, K = base.num_satellites, base.num_users
        grid = (1.0, 5.0, 10.0, 20.0, 50.0, 100.0, 1e3, 1e4)
        mses, nmses = [], []
        for kbar in grid:
            sc = base.with_rician(kbar)
            mses.append(np.mean([mse(sc, m, k)
                                 for m in range(M) for k in range(K)]))
            nmses.append(np.mean([nmse(sc, m, k)
                                  for m in range(M) for k in range(K)]))
        assert all(b < a for a, b in zip(mses, mses[1:]))
        assert all(b > a for a, b in zip(nmses, nmses[1:]))
        assert nmses[-1] > 0.99

        # vanishing-noise limit with dedicated pilots
        sc = make_scenario(seed=11, pilot_length=5, pilot_power=1.0)
        sc = Scenario(config=sc.config, links=sc.links,
                      pilots=PilotAssignment(pilot_index=tuple(range(K))),
                      serving_sets=sc.serving_sets)
        assert all(len(sc.pilots.cohort(k)) == 1 for k in range(K))
        sc = sc.with_rician(1.0)
        sigma2 = sc.fullband_noise * 1e-8
        for m in range(M):
            for k in range(K):
                assert nmse(sc, m, k, sigma2=sigma2) < 1e-6

        # scalar hand case: R=1, tau=1, p^p=1, sigma^2=1 -> NMSE exactly 1/2
        cfg = SystemConfig(
            num_satellites=1, num_users=2, antennas_x=1, antennas_y=1,
            num_subbands=1, pilot_length=1, pilot_power=1.0, cluster_size=1,
            subband_capacity=2,
        )
        links = [[manual_link(2.0, 1.0, [1.0]), manual_link(0.0, 1.0, [1.0])]]
        hand = manual_scenario(cfg, links, pilots=(0, 0),
                               serving_sets=[{0}, {0}])
        assert nmse(hand, 0, 0, sigma2=1.0) == pytest.approx(0.5, abs=1e-12)

    _report(3, body)


# -- 4. scheduler optimality gap against exhaustive search ------------------


def test_criterion_04_scheduler_gap():
    def body():
        combos = [(4, 2, 2), (4, 3, 2), (6, 2, 3), (6, 3, 2), (6, 3, 3)]
        ratios = []
        for seed in range(20):
            K, I, cap = combos[seed % len(combos)]
            sc = make_scenario(
                seed=2000 + seed, num_users=K, num_satellites=3,
                cluster_size=2, num_subbands=I, subband_capacity=cap,
                pilot_length=max(K - 2, 2), max_power=10.0,
                pilot_power=10.0,
            )
            ctx = RateContext(sc)
            powers = np.full(K, sc.config.max_power)
            weights = equal_weights(sc)
            est = scheduling_estimates(
                sc, np.random.default_rng(2000 + seed)
            )
            sched = schedule_users(sc, est, powers, weights, context=ctx)
            assert validate_schedule(sched, K, I, cap)
            bw = sc.config.total_bandwidth / len(sched.groups)
            alg = sum_rate(sc, AllocationState(
                groups=sched.groups, bandwidths=[bw] * len(sched.groups),
                powers=powers, weights=weights), ctx)
            opt = exhaustive_schedule(sc, powers, weights, context=ctx)
            bwo = sc.config.total_bandwidth / len(opt.groups)
            best = sum_rate(sc, AllocationState(
                groups=opt.groups, bandwidths=[bwo] * len(opt.groups),
                powers=powers, weights=weights), ctx)
            shared = sum_rate(sc, AllocationState(
                groups=[list(range(K))],
                bandwidths=[sc.config.total_bandwidth],
                powers=powers, weights=weights), ctx)
            assert shared <= alg * (1 + 1e-9), seed
            assert alg <= best * (1 + 1e-9), seed
            ratios.append(alg / best)
        assert np.mean(ratios) >= 0.9

    _report(4, body)


# -- 5. DSatur coloring on random graphs ------------------------------------


def _is_proper(groups, adj):
    for g in groups:
        for i, u in enumerate(g):
            for v in g[i + 1:]:
                if adj[u, v]:
                    return False
    return True


def test_criterion_05_dsatur_correctness():
    def body():
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n = int(rng.integers(2, 13))
            p = rng.uniform(0.1, 0.9)
            adj = (rng.random((n, n)) < p).astype(int)
            adj = np.triu(adj, 1)
            adj = adj + adj.T
            groups, n_c = dsatur_color(adj, capacity=n)
            assert _is_proper(groups, adj)
            assert sorted(v for g in groups for v in g) == list(range(n))
            assert n_c <= int(adj.sum(axis=1).max()) + 1
            cap = int(rng.integers(1, n + 1))
            groups, _ = dsatur_color(adj, capacity=cap)
            assert _is_proper(groups, adj)
            assert all(len(g) <= cap for g in groups)
            assert sorted(v for g in groups for v in g) == list(range(n))

    _report(5, body)


# -- 6. global validity of the SCA and AM-GM bounds -------------------------


def test_criterion_06_surrogate_bounds():
    def body():
        rng = np.random.default_rng(23)
        for _ in range(10_000):
            n = int(rng.integers(1, 5))
            A = rng.uniform(0.1, 10.0, n)
            wh = rng.uniform(0.1, 10.0, n)
            c, exps = monomial_bound(A, wh)
            true_at_anchor = float((wh * A).sum()) ** 2
            bound_at_anchor = c * np.prod(wh ** exps)
            assert abs(bound_at_anchor - true_at_anchor) <= \
                1e-9 * true_at_anchor
            w = rng.uniform(0.05, 20.0, n)
            true = float((w * A).sum()) ** 2
            assert c * np.prod(w ** exps) <= true * (1 + 1e-9)
        for _ in range(10_000):
            chi0 = float(rng.uniform(0.01, 100.0))
            psi, delta = sca_coefficients(chi0)
            at_anchor = psi * math.log2(chi0) + delta
            assert abs(at_anchor - math.log2(1 + chi0)) <= \
                1e-9 * math.log2(1 + chi0)
            chi = float(rng.uniform(0.005, 200.0))
            assert psi * math.log2(chi) + delta <= \
                math.log2(1 + chi) + 1e-12

    _report(6, body)


# -- 7. GP solver vs dense grid search --------------------------------------


def _linear_sinr_coeffs(sc, alloc, ctx):
    """Per-user (numerator, noise, {k': denom coeff}) at unit powers."""
    unit = alloc.copy()
    unit.powers = np.ones(sc.num_users)
    out = {}
    for k in range(sc.num_users):
        t = sinr_lower_bound(sc, unit, k, ctx)
        d = {kp: t.i1[kp] + t.i2.get(kp, 0.0) + t.i3.get(kp, 0.0)
             for kp in t.i1}
        out[k] = (t.numerator, t.i_noise, d)
    return out


def test_criterion_07_gp_oracle():
    def body():
        # analytic KKT toys: max x s.t. x/3 <= 1 -> x = 3
        sol = solve_gp(GpProblem(
            objective=Monomial(coeff=1.0, exponents={"x": 1.0}),
            constraints=[[Monomial(coeff=1.0 / 3.0,
                                   exponents={"x": 1.0})]],
        ), start={"x": 1.0})
        assert abs(sol.values["x"] - 3.0) <= 1e-6
        # max chi s.t. 0.1 chi (1 + 1/p) <= 1, p <= 1 -> p = 1, chi = 5
        toy = GpProblem(objective=Monomial(coeff=1.0,
                                           exponents={"chi": 1.0}))
        toy.add([Monomial(coeff=0.1, exponents={"chi": 1.0}),
                 Monomial(coeff=0.1, exponents={"chi": 1.0, "p": -1.0})])
        toy.add([Monomial(coeff=1.0, exponents={"p": 1.0})])
        sol = solve_gp(toy, start={"chi": 1.0, "p": 0.5})
        assert abs(sol.values["p"] - 1.0) <= 1e-6
        assert abs(sol.values["chi"] - 5.0) <= 1e-5

        grid_n = 40
        for seed in range(20):
            sc = make_scenario(seed=700 + seed, num_satellites=1,
                               num_users=3, cluster_size=1, num_subbands=1,
                               pilot_length=2, subband_capacity=3)
            ctx = RateContext(sc)
            alloc = equal_split_allocation(sc, groups=[[0, 1, 2]])
            solved, _ = optimize_power_weights(sc, alloc, ctx,
                                               optimize_weights=False)
            got = sum_rate(sc, solved, ctx)

            coeffs = _linear_sinr_coeffs(sc, alloc, ctx)
            pmax = sc.config.max_power
            axis = np.logspace(math.log10(pmax * 1e-3), math.log10(pmax),
                               grid_n)
            P = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                         axis=-1).reshape(-1, 3)
            bw = sc.config.total_bandwidth
            total = np.zeros(P.shape[0])
            for k in range(3):
                num, noise, d = coeffs[k]
                den = noise + sum(P[:, kp] * c for kp, c in d.items())
                total += bw * np.log2(1.0 + P[:, k] * num / den)
            best = float(total.max())
            assert abs(got - best) <= 0.005 * best, seed

            # linear-domain constraint satisfaction at the returned point
            chi = np.array([
                sinr_lower_bound(sc, solved, k, ctx).sinr_lb
                for k in range(3)
            ])
            problem, anchor = build_sca_subproblem(
                sc, solved, ctx, chi, optimize_weights=False
            )
            for terms in problem.constraints:
                assert posynomial_value(terms, anchor) <= 1 + 1e-6

    _report(7, body)


# -- 8. SCA power/weight loop convergence -----------------------------------


def test_criterion_08_sca_convergence():
    def body():
        for seed in (31, 32, 33):
            sc = make_scenario(seed=seed, num_users=6, num_satellites=4,
                               cluster_size=3, num_subbands=4,
                               pilot_length=4, subband_capacity=3)
            ctx = RateContext(sc)
            powers = np.full(sc.num_users, sc.config.max_power)
            weights = equal_weights(sc)
            est = scheduling_estimates(sc, np.random.default_rng(seed))
            sched = schedule_users(sc, est, powers, weights, context=ctx)
            bw = sc.config.total_bandwidth / len(sched.groups)
            alloc = AllocationState(
                groups=sched.groups, bandwidths=[bw] * len(sched.groups),
                powers=powers, weights=weights,
            )
            _, trace = optimize_power_weights(sc, alloc, ctx, eps=0.01)
            objs = trace.objectives
            assert all(b >= a - 1e-8 * abs(a)
                       for a, b in zip(objs, objs[1:]))
            assert trace.iterations <= 10, seed

    _report(8, body)


# -- 9. bandwidth stage: derivatives, symmetry, optimality, KKT -------------


def test_criterion_09_bandwidth_stage():
    def body():
        rng = np.random.default_rng(41)
        for _ in range(50):
            a = rng.uniform(0.1, 50.0)
            b = rng.uniform(0.01, 5.0)
            c = rng.uniform(0.01, 5.0)
            x = rng.uniform(0.2, 5.0)
            h = 1e-5 * x

            def f(y):
                return y * math.log2(1.0 + a / (b * y + c))

            fp = (f(x + h) - f(x - h)) / (2 * h)
            fpp = (f(x + h) - 2 * f(x) + f(x - h)) / h ** 2
            got_p = rate_vs_bandwidth_prime(x, a, b, c)
            got_pp = rate_vs_bandwidth_second(x, a, b, c)
            assert abs(got_p - fp) <= 1e-6 * max(1.0, abs(fp))
            assert abs(got_pp - fpp) <= 1e-4 * max(1.0, abs(fpp))

        # symmetric instance: user 1 is an exact clone of user 0
        sc = make_scenario(seed=41, num_users=3, num_subbands=2,
                           pilot_length=3, subband_capacity=3)
        links = [list(row) for row in sc.links]
        for m in range(sc.num_satellites):
            links[m][1] = links[m][0]
        sets = list(sc.serving_sets)
        sets[1] = sets[0]
        sym = Scenario(config=sc.config,
                       links=tuple(tuple(r) for r in links),
                       pilots=sc.pilots, serving_sets=tuple(sets))
        ctx = RateContext(sym)
        alloc = AllocationState(
            groups=[[0], [1]],
            bandwidths=[sym.config.total_bandwidth / 2] * 2,
            powers=np.full(3, sym.config.max_power),
            weights=equal_weights(sym),
        )
        res = optimize_bandwidth(sym, alloc, ctx)
        assert res.allocation.bandwidths[0] == pytest.approx(
            sym.config.total_bandwidth / 2,
            abs=1e-8 * sym.config.total_bandwidth,
        )

        for seed in range(50):
            sc = make_scenario(seed=800 + seed)
            ctx = RateContext(sc)
            alloc = equal_split_allocation(sc)
            base = sum_rate(sc, alloc, ctx)
            res = optimize_bandwidth(sc, alloc, ctx)
            assert sum_rate(sc, res.allocation, ctx) >= base * (1 - 1e-9)
            assert res.kkt_residual <= 1e-8

        sc = make_scenario(seed=31, num_users=6, num_satellites=4,
                           cluster_size=3, num_subbands=4, pilot_length=4,
                           subband_capacity=3)
        ctx = RateContext(sc)
        powers = np.full(sc.num_users, sc.config.max_power)
        weights = equal_weights(sc)
        est = scheduling_estimates(sc, np.random.default_rng(31))
        sched = schedule_users(sc, est, powers, weights, context=ctx)
        bw = sc.config.total_bandwidth / len(sched.groups)
        alloc = AllocationState(
            groups=sched.groups, bandwidths=[bw] * len(sched.groups),
            powers=powers, weights=weights,
        )
        res = optimize_bandwidth(sc, alloc, ctx)
        assert res.iterations <= 5
        assert res.kkt_residual <= 1e-8

    _report(9, body)


# -- 10. end-to-end benchmark against fixed-weight baselines ----------------


def test_criterion_10_benchmark(tmp_path):
    def body():
        spec = ExperimentSpec(
            name="benchmark", config=SystemConfig(), seed=10, trials=100,
            out_dir=tmp_path,
        )
        path = run_experiment(spec)
        import csv

        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        header, data = rows[0], rows[1:]
        means = {}
        per_user = {}
        for r in data:
            K = int(r[header.index("num_users")])
            arm = r[header.index("arm")]
            means[(K, arm)] = float(r[header.index("mean_sum_rate")])
            per_user[(K, arm)] = float(
                r[header.index("mean_rate_per_user")]
            )
        for K in (6, 8):
            assert means[(K, "proposed")] > means[(K, "benchmark1")]
            assert means[(K, "proposed")] > means[(K, "benchmark2")]
        assert per_user[(8, "proposed")] < per_user[(6, "proposed")]

    _report(10, body)


# -- 11. byte-identical reruns ----------------------------------------------


def test_criterion_11_determinism(tmp_path):
    def body():
        extras = {"nmse-sweep": {}, "bound-validate": {},
                  "benchmark": {"user_grid": (6,)}}
        for name, trials in (("nmse-sweep", 500), ("bound-validate", 200),
                             ("benchmark", 2)):
            outs = []
            for tag in ("a", "b"):
                d = tmp_path / f"{name}-{tag}"
                spec = ExperimentSpec(
                    name=name, config=SystemConfig(), seed=13,
                    trials=trials, out_dir=d, extras=extras[name],
                )
                outs.append(run_experiment(spec).read_bytes())
            assert outs[0] == outs[1], name

    _report(11, body)

"""Acceptance suite: one test per criterion, pinned seeds and tolerances.

Each test prints "criterion N: PASS" (or FAIL before the traceback) so the
full run doubles as a checklist.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    UNIT_NOISE,
    clone_user,
    complex_delta,
    dense_problem,
    make_scenario,
    manual_scenario,
    with_correlation,
)
from dmimo.config import CorrelationModel, SystemConfig
from dmimo.estimation import mse, nmse
from dmimo.gp import solve_gp
from dmimo.harness import ExperimentSpec, benchmark_arm_rates, run_experiment
from dmimo.optimizer import (
    build_sca_subproblem,
    monomial_bound,
    optimize_bandwidth,
    optimize_power_weights,
    sca_coefficients,
    scheduling_estimates,
)
from dmimo.rate import (
    AllocationState,
    band_rate_derivatives,
    equal_split_allocation,
    equal_weights,
    monte_carlo_users,
    sinr_lower_bound,
    sum_rate,
)
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
            rng = np.random.default_rng(900 + seed)
            # a draw per user keeps the users' three-sigma checks independent
            for k in range(sc.num_users):
                rep = monte_carlo_users(sc, alloc, trials, rng,
                                        users=(k,)).users[k]
                # |DS|^2: the MC mean's error propagates through |.|^2
                se = math.sqrt(rep.terms["ls"][0] / trials)
                tol = 2.0 * math.sqrt(rep.ds_closed) * 3 * se + (3 * se) ** 2
                assert abs(rep.ds_mc - rep.ds_closed) <= tol
                for name, (closed, mc, term_se) in rep.terms.items():
                    assert abs(closed - mc) <= 3 * term_se, (seed, k, name)

    _report(1, body)


def test_criterion_01_term_equivalence_correlated():
    """Criterion 1 and the bound's validity under exponential (r = 0.7) and
    complex Hermitian correlation, each user's terms from one shared draw
    per scenario: 4 SE per check keeps the family of about 280 checks at
    a Bonferroni level near 2%."""
    def body():
        trials = 4000
        for seed in range(4):
            plain = make_scenario(seed=100 + seed, num_users=5,
                                  pilot_length=3, cluster_size=2,
                                  subband_capacity=5)
            exponential = make_scenario(
                seed=100 + seed, num_users=5, pilot_length=3, cluster_size=2,
                subband_capacity=5,
                correlation=CorrelationModel("exponential", 0.7))
            for sc in (exponential, with_correlation(
                    plain, complex_delta(plain.num_antennas))):
                alloc = equal_split_allocation(
                    sc, groups=[list(range(sc.num_users))])
                res = monte_carlo_users(sc, alloc, trials,
                                        np.random.default_rng(900 + seed))
                assert sum_rate(sc, alloc) <= res.sum_rate \
                    + 3 * res.sum_rate_se, seed
                for k, rep in res.users.items():
                    se = math.sqrt(rep.terms["ls"][0] / trials)
                    tol = 2.0 * math.sqrt(rep.ds_closed) * 4 * se \
                        + (4 * se) ** 2
                    assert abs(rep.ds_mc - rep.ds_closed) <= tol, (seed, k)
                    for name, (closed, mc, term_se) in rep.terms.items():
                        assert abs(closed - mc) <= 4 * term_se, \
                            (seed, k, name)

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
            alloc = equal_split_allocation(
                sc, groups=[list(range(sc.num_users))]
            )
            lb = sum_rate(sc, alloc)
            res = monte_carlo_users(sc, alloc, trials, rng)
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

        # vanishing-noise limit with dedicated pilots, at 1e-8 of the
        # default noise temperature
        sc = make_scenario(seed=11, pilot_length=5, pilot_power=1.0)
        cfg = sc.config
        quiet = replace(sc, config=cfg.replace(
                            noise_temperature=cfg.noise_temperature * 1e-8),
                        pilots=np.arange(K))
        assert quiet.fullband_noise == pytest.approx(sc.fullband_noise * 1e-8)
        sc = quiet
        np.testing.assert_array_equal(sc.cohort, np.eye(K, dtype=bool))
        sc = sc.with_rician(1.0)
        for m in range(M):
            for k in range(K):
                assert nmse(sc, m, k) < 1e-6

        # scalar hand case: R=1, tau=1, p^p=1, sigma^2=1 -> NMSE exactly 1/2
        cfg = SystemConfig(
            num_satellites=1, num_users=2, antennas_x=1, antennas_y=1,
            num_subbands=1, pilot_length=1, pilot_power=1.0, cluster_size=1,
            subband_capacity=2, **UNIT_NOISE,
        )
        hand = manual_scenario(cfg, beta=[[2.0, 0.0]], rician=[[1.0, 1.0]],
                               los=[[[1.0], [1.0]]], pilots=(0, 0),
                               serving_sets=[{0}, {0}])
        assert hand.fullband_noise == 1.0
        assert nmse(hand, 0, 0) == pytest.approx(0.5, abs=1e-12)

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
            powers = np.full(K, sc.config.max_power)
            weights = equal_weights(sc)
            est = scheduling_estimates(
                sc, np.random.default_rng(2000 + seed)
            )
            sched = schedule_users(sc, est, powers, weights)
            assert validate_schedule(sched, K, I, cap)
            bw = sc.config.total_bandwidth / len(sched.groups)
            alg = sum_rate(sc, AllocationState(
                groups=sched.groups, bandwidths=[bw] * len(sched.groups),
                powers=powers, weights=weights))
            opt = exhaustive_schedule(sc, powers, weights)
            bwo = sc.config.total_bandwidth / len(opt.groups)
            best = sum_rate(sc, AllocationState(
                groups=opt.groups, bandwidths=[bwo] * len(opt.groups),
                powers=powers, weights=weights))
            shared = sum_rate(sc, AllocationState(
                groups=[list(range(K))],
                bandwidths=[sc.config.total_bandwidth],
                powers=powers, weights=weights))
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
            color, n_c = dsatur_color(adj, capacity=n)
            groups = [np.flatnonzero(color == c).tolist()
                      for c in range(n_c)]
            assert _is_proper(groups, adj)
            assert sorted(v for g in groups for v in g) == list(range(n))
            assert n_c <= int(adj.sum(axis=1).max()) + 1
            cap = int(rng.integers(1, n + 1))
            color, n_c = dsatur_color(adj, capacity=cap)
            groups = [np.flatnonzero(color == c).tolist()
                      for c in range(n_c)]
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


def _linear_sinr_coeffs(sc, alloc):
    """Per-user (numerator, noise, {k': denom coeff}) at unit powers."""
    unit = alloc.copy()
    unit.powers = np.ones(sc.num_users)
    out = {}
    for k in range(sc.num_users):
        t = sinr_lower_bound(sc, unit, k)
        d = {kp: t.i1[kp] + t.i2.get(kp, 0.0) + t.i3.get(kp, 0.0)
             for kp in t.i1}
        out[k] = (t.numerator, t.i_noise, d)
    return out


def test_criterion_07_gp_oracle():
    def body():
        # analytic KKT toys: max x s.t. x/3 <= 1 -> x = 3
        sol = solve_gp(dense_problem(
            objective=[1.0], logs=[math.log(1.0 / 3.0)], exps=[[1.0]],
            starts=[0],
        ), np.zeros(1))
        assert abs(math.exp(sol.x[0]) - 3.0) <= 1e-6
        # max chi s.t. 0.1 chi (1 + 1/p) <= 1, p <= 1 -> p = 1, chi = 5
        # columns (chi, p); rows 0.1 chi, 0.1 chi / p | p
        toy = dense_problem(objective=[1.0, 0.0],
                            logs=np.log([0.1, 0.1, 1.0]),
                            exps=[[1.0, 0.0], [1.0, -1.0], [0.0, 1.0]],
                            starts=[0, 2])
        sol = solve_gp(toy, np.log([1.0, 0.5]))
        chi, p = np.exp(sol.x)
        assert abs(p - 1.0) <= 1e-6
        assert abs(chi - 5.0) <= 1e-5

        grid_n = 40
        for seed in range(20):
            sc = make_scenario(seed=700 + seed, num_satellites=1,
                               num_users=3, cluster_size=1, num_subbands=1,
                               pilot_length=2, subband_capacity=3)
            alloc = equal_split_allocation(sc, groups=[[0, 1, 2]])
            solved, _ = optimize_power_weights(sc, alloc,
                                               optimize_weights=False)
            got = sum_rate(sc, solved)

            coeffs = _linear_sinr_coeffs(sc, alloc)
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
                sinr_lower_bound(sc, solved, k).sinr_lb
                for k in range(3)
            ])
            problem, x0 = build_sca_subproblem(
                sc, solved, chi, optimize_weights=False
            )
            # every posynomial constraint g(v) <= 1 + 1e-6 at the anchor
            assert problem.lse(x0).max() <= math.log1p(1e-6)

    _report(7, body)


# -- 8. SCA power/weight loop convergence -----------------------------------


def test_criterion_08_sca_convergence():
    def body():
        for seed in (31, 32, 33):
            sc = make_scenario(seed=seed, num_users=6, num_satellites=4,
                               cluster_size=3, num_subbands=4,
                               pilot_length=4, subband_capacity=3)
            powers = np.full(sc.num_users, sc.config.max_power)
            weights = equal_weights(sc)
            est = scheduling_estimates(sc, np.random.default_rng(seed))
            sched = schedule_users(sc, est, powers, weights)
            bw = sc.config.total_bandwidth / len(sched.groups)
            alloc = AllocationState(
                groups=sched.groups, bandwidths=[bw] * len(sched.groups),
                powers=powers, weights=weights,
            )
            _, trace = optimize_power_weights(sc, alloc)
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
            got_p, got_pp = band_rate_derivatives(x, a, b, c)
            assert abs(got_p - fp) <= 1e-6 * max(1.0, abs(fp))
            assert abs(got_pp - fpp) <= 1e-4 * max(1.0, abs(fpp))

        # symmetric instance: user 1 is an exact clone of user 0
        sc = make_scenario(seed=41, num_users=3, num_subbands=2,
                           pilot_length=3, subband_capacity=3)
        sym = clone_user(sc, 0, into=1)
        alloc = AllocationState(
            groups=[[0], [1]],
            bandwidths=[sym.config.total_bandwidth / 2] * 2,
            powers=np.full(3, sym.config.max_power),
            weights=equal_weights(sym),
        )
        res = optimize_bandwidth(sym, alloc)
        assert res.allocation.bandwidths[0] == pytest.approx(
            sym.config.total_bandwidth / 2,
            abs=1e-8 * sym.config.total_bandwidth,
        )

        for seed in range(50):
            sc = make_scenario(seed=800 + seed)
            alloc = equal_split_allocation(sc)
            base = sum_rate(sc, alloc)
            res = optimize_bandwidth(sc, alloc)
            assert sum_rate(sc, res.allocation) >= base * (1 - 1e-9)
            assert res.kkt_residual <= 1e-8

        sc = make_scenario(seed=31, num_users=6, num_satellites=4,
                           cluster_size=3, num_subbands=4, pilot_length=4,
                           subband_capacity=3)
        powers = np.full(sc.num_users, sc.config.max_power)
        weights = equal_weights(sc)
        est = scheduling_estimates(sc, np.random.default_rng(31))
        sched = schedule_users(sc, est, powers, weights)
        bw = sc.config.total_bandwidth / len(sched.groups)
        alloc = AllocationState(
            groups=sched.groups, bandwidths=[bw] * len(sched.groups),
            powers=powers, weights=weights,
        )
        res = optimize_bandwidth(sc, alloc)
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


# The AO's margin over the better fixed-weight arm, proposed / max(arms) - 1,
# on configs/interference-limited.json (the default config at 20 W). Over
# the first 32 systems of the benchmark experiment's seed-0 streams it was
# at least 10.96% (median 18.6%) at K = 6 and at least 4.39% (median 22.1%)
# at K = 8; each bound sits just below that minimum. At the default 0.2 W
# the same systems gave medians of 0.09% and 0.49%.
INTERFERENCE_LIMITED_MARGIN = {6: 0.10, 8: 0.04}


def test_criterion_10_gain_where_interference_limited():
    def body():
        cfg = SystemConfig.from_json(Path(__file__).resolve().parents[1]
                                     / "configs" / "interference-limited.json")
        assert cfg == SystemConfig().replace(max_power=20.0)
        for K, margin in INTERFERENCE_LIMITED_MARGIN.items():
            for s, ((proposed, *arms), _) in enumerate(
                    benchmark_arm_rates(cfg, K, 0, 8)):
                assert proposed > (1.0 + margin) * max(arms), (K, s)

    _report(10, body)


# -- 11. byte-identical reruns ----------------------------------------------


def test_criterion_11_determinism(tmp_path):
    def body():
        extras = {"nmse-sweep": {}, "bound-validate": {},
                  "schedule-compare": {}, "convergence": {},
                  "benchmark": {"user_grid": (6,)}}
        for name, trials in (("nmse-sweep", 500), ("bound-validate", 200),
                             ("schedule-compare", 1), ("convergence", 1),
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

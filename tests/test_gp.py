import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dmimo.gp
import dmimo.optimizer
from conftest import (AO_PAPER_FLOOR, AO_SMALL, dense_exps, dense_problem,
                      make_scenario, slsqp_reference)
from dmimo.optimizer import (alternating_optimize, build_sca_subproblem,
                             feasibility_check)
from dmimo.rate import equal_split_allocation, sinr_all
from dmimo.scenario import build_scenario
from dmimo.gp import (
    GpInfeasibleError,
    GpProblem,
    GpUnboundedError,
    _boxed,
    _reach,
    condense,
    solve_gp,
)


def gp(objective, *constraints):
    """GpProblem from posynomials written as [(coeff, exponents), ...]."""
    rows = [term for g in constraints for term in g]
    return dense_problem(
        objective=objective,
        logs=np.log([c for c, _ in rows]),
        exps=[e for _, e in rows],
        starts=np.cumsum([0] + [len(g) for g in constraints[:-1]]),
    )


def posynomial(logs, exps, v):
    """Linear-domain value of the rows at the variables v."""
    return float(np.exp(logs + np.asarray(exps) @ np.log(v)).sum())


def test_monomial_rejects_nonpositive_coeff():
    # log 0 = -inf and log(-1) = nan: the problem must refuse both rows
    for coeff in (0.0, -1.0):
        with pytest.raises(ValueError), np.errstate(divide="ignore",
                                                    invalid="ignore"):
            gp([1.0], [(coeff, [1.0])])


def test_problem_rejects_empty_constraint():
    with pytest.raises(ValueError):
        dense_problem(objective=[1.0], logs=[0.0], exps=[[1.0]],
                      starts=[0, 1])
    with pytest.raises(ValueError):
        dense_problem(objective=[1.0], logs=[], exps=np.zeros((0, 1)),
                      starts=[])


@pytest.mark.parametrize("row, col", [
    ([1, 0], [0, 0]),  # rows out of order
    ([0, 0], [1, 0]),  # a row's columns out of order
    ([0, 0], [0, 0]),  # one cell twice
    ([0, 1], [0, 2]),  # a column past the last
    ([0, 1], [-1, 0]),  # a negative column
    ([0, 2], [0, 0]),  # a row past the last
])
def test_problem_rejects_misplaced_nonzeros(row, col):
    GpProblem([1.0, 1.0], [0.0, 0.0], [0, 1], [0, 1], [1.0, 1.0], [0])
    with pytest.raises(ValueError):
        GpProblem([1.0, 1.0], [0.0, 0.0], row, col, [1.0, 1.0], [0])


def test_condense_tight_at_anchor():
    logs, exps = np.log([1.0, 2.0]), np.array([[1.0], [-1.0]])
    x0 = np.log([1.7])
    log_c, e = condense(logs, exps, x0)
    assert np.exp(log_c + e @ x0) == pytest.approx(
        posynomial(logs, exps, [1.7]), rel=1e-12
    )
    # AM-GM: condensed monomial under-estimates everywhere
    for x in np.logspace(-2, 2, 50):
        assert np.exp(log_c + e @ np.log([x])) <= \
            posynomial(logs, exps, [x]) * (1 + 1e-12)


def test_lse_jacobian_matches_finite_differences():
    rng = np.random.default_rng(1)
    p = dense_problem(objective=[1.0, 0.0, -1.0], logs=rng.normal(size=6),
                      exps=rng.normal(size=(6, 3)), starts=[0, 1, 4])
    x = rng.normal(size=3)
    val, soft = p.lse_softmax(x)
    jac = p.jacobian(soft)
    assert np.array_equal(val, p.lse(x))
    for c, (lo, hi) in enumerate([(0, 1), (1, 4), (4, 6)]):
        z = p.logs[lo:hi] + dense_exps(p)[lo:hi] @ x
        assert val[c] == pytest.approx(np.log(np.exp(z).sum()), rel=1e-12)
    h = 1e-6
    for j in range(3):
        step = np.eye(3)[j] * h
        fd = (p.lse(x + step) - p.lse(x - step)) / (2 * h)
        np.testing.assert_allclose(jac[:, j], fd, rtol=1e-6, atol=1e-8)


def test_solve_minimize_with_floor():
    # maximize 1/x subject to 3/x <= 1  <=>  minimize x subject to x >= 3
    p = gp([-1.0], [(3.0, [-1.0])])
    s = solve_gp(p, np.log([10.0]))
    assert np.exp(s.x[0]) == pytest.approx(3.0, abs=1e-6)
    assert s.kkt_residual <= 1e-6
    assert s.max_violation <= 1e-6
    assert s.status == 0
    assert isinstance(s.iterations, int) and s.iterations >= 1


def test_solve_analytic_kkt_two_vars():
    # maximize chi s.t. chi (p+1)/p <= 10, p <= 1 -> p = 1, chi = 5
    # columns: chi, p
    p = gp([1.0, 0.0], [(0.1, [1.0, 0.0]), (0.1, [1.0, -1.0])],
           [(1.0, [0.0, 1.0])])
    s = solve_gp(p, np.log([1.0, 0.5]))
    chi, pw = np.exp(s.x)
    assert pw == pytest.approx(1.0, abs=1e-6)
    assert chi == pytest.approx(5.0, abs=1e-5)


def test_solve_infeasible_detected():
    # x <= 1/2 and x >= 2 simultaneously
    p = gp([1.0], [(2.0, [1.0])], [(2.0, [-1.0])])
    with pytest.raises(GpInfeasibleError):
        solve_gp(p, np.log([1.0]))


def test_solve_unbounded_detected():
    p = gp([1.0], [(1.0, [-1.0])])  # x >= 1 only
    with pytest.raises(GpUnboundedError):
        solve_gp(p, np.log([2.0]))


def test_solution_satisfies_linear_domain():
    rng = np.random.default_rng(0)
    for _ in range(10):
        # columns: a, b
        p = gp([1.0, 0.5], [(float(rng.uniform(0.1, 1.0)), [1.0, 0.0]),
                            (float(rng.uniform(0.1, 1.0)), [0.0, 1.0])])
        s = solve_gp(p, np.log([0.5, 0.5]))
        bounds = list(p.starts) + [len(p.logs)]
        for lo, hi in zip(bounds, bounds[1:]):
            assert posynomial(p.logs[lo:hi], dense_exps(p)[lo:hi],
                              np.exp(s.x)) <= 1.0 + 1e-6
        assert s.max_violation <= 1e-6


@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=50, deadline=None)
def test_condense_underestimates(c1, c2, x):
    logs, exps = np.log([c1, c2]), np.array([[1.0], [-2.0]])
    log_c, e = condense(logs, exps, np.zeros(1))
    assert np.exp(log_c + e @ np.log([x])) <= \
        posynomial(logs, exps, [x]) * (1 + 1e-9)


def _captured_problems():
    """SCA subproblems at the equal-split start (weights optimized, and
    fixed), and a feasibility problem through feasibility_check."""
    out = []
    for seed in (3, 7):
        sc = make_scenario(seed=seed)
        alloc = equal_split_allocation(sc)
        res = sinr_all(sc, alloc)
        chi = np.ones(sc.num_users)
        chi[res.users] = res.sinr[res.users]
        for optimize in (True, False):
            out.append(build_sca_subproblem(sc, alloc, chi,
                                            optimize_weights=optimize))
    return out


def _with_feasibility_problems(monkeypatch, problems):
    """`problems` and the problems that feasibility_check solves on the
    equal-split start of seed 3's scenario at a 2e5 bit/s floor."""
    sc = make_scenario(seed=3)
    floored = replace(sc, config=sc.config.replace(rate_requirement=2e5))
    captured = []
    monkeypatch.setattr(dmimo.optimizer, "solve_gp",
                        lambda p, x0: captured.append((p, x0)) or solve_gp(
                            p, x0))
    feasibility_check(floored, equal_split_allocation(floored))
    monkeypatch.undo()
    return problems + captured


def test_solve_is_repeatable_and_evaluates_each_point_once(monkeypatch):
    """Solving a problem again gives the same bits, and the path evaluates
    the stacked log-sum-exp of its problem once per trial point: one
    evaluation per Newton step, besides the start and the step cuts."""
    problems = _with_feasibility_problems(monkeypatch, _captured_problems())
    lse_softmax = GpProblem.lse_softmax
    for problem, x0 in problems:
        points = []

        def counted(self, x):
            points.append((id(self), x.tobytes()))
            return lse_softmax(self, x)

        monkeypatch.setattr(GpProblem, "lse_softmax", counted)
        sol = solve_gp(problem, x0)
        monkeypatch.undo()
        again = solve_gp(problem, x0)
        assert sol.x.tobytes() == again.x.tobytes()
        assert (sol.status, sol.iterations, sol.kkt_residual,
                sol.max_violation) == (again.status, again.iterations,
                                       again.kkt_residual,
                                       again.max_violation)
        # the path's problem is the one evaluated most
        path = max(set(p for p, _ in points),
                   key=[p for p, _ in points].count)
        seen = [x for p, x in points if p == path]
        assert len(seen) == len(set(seen))
        assert sol.iterations + 1 <= len(seen) <= 2 * sol.iterations + 1


def test_solve_keeps_unreachable_columns_at_the_start():
    """A column in no constraint and a column under its own cap only, both
    outside the objective, keep their start values exactly: neither can
    change the objective, and moving the capped one would only move it off
    the cap (an unscheduled user's power)."""
    # columns: a (objective, a <= 2), b (b <= 1, started at the cap), c
    p = gp([1.0, 0.0, 0.0], [(0.5, [1.0, 0.0, 0.0])],
           [(1.0, [0.0, 1.0, 0.0])])
    x0 = np.array([0.0, 0.0, -3.0])
    s = solve_gp(p, x0)
    assert np.exp(s.x[0]) == pytest.approx(2.0, rel=1e-9)
    assert s.x[1:].tobytes() == x0[1:].tobytes()
    assert s.status == 0


def test_solve_from_the_boundary_goes_through_phase_one():
    """From a start on the boundary of its constraints, as the SCA anchors
    its GPs, phase I finds an interior point and the solve converges."""
    # maximize chi s.t. chi (p+1)/p <= 10 and p <= 1, from chi = 2 and
    # p = 1/4, where the first constraint is active
    p = gp([1.0, 0.0], [(0.1, [1.0, 0.0]), (0.1, [1.0, -1.0])],
           [(1.0, [0.0, 1.0])])
    x0 = np.log([2.0, 0.25])
    assert abs(p.lse(x0)[0]) <= 1e-15
    s = solve_gp(p, x0)
    assert s.status == 0 and s.iterations > 0
    assert np.exp(s.x) == pytest.approx([5.0, 1.0], rel=1e-9)
    assert s.max_violation <= 0.0
    assert s.kkt_residual <= 1e-8


def test_solve_returns_an_optimal_start_as_it_is():
    """A start that meets the KKT conditions takes no Newton step: at
    chi = 5, p = 1 both constraints of the two-variable problem are active
    and their multipliers are nonnegative."""
    p = gp([1.0, 0.0], [(0.1, [1.0, 0.0]), (0.1, [1.0, -1.0])],
           [(1.0, [0.0, 1.0])])
    x0 = np.log([5.0, 1.0])
    s = solve_gp(p, x0)
    assert s.x.tobytes() == x0.tobytes()
    assert (s.status, s.iterations) == (0, 0)
    assert s.kkt_residual <= 1e-10


def _ao_gp_calls(config, seed):
    """Every GP that an AO run solves, SCA and feasibility problems alike,
    with its start and solution: (problem, x0, solution)."""
    scenario_ss, estimation_ss = np.random.SeedSequence(seed).spawn(2)
    sc = build_scenario(config, np.random.default_rng(scenario_ss))
    calls = []

    def recorded(problem, x0):
        calls.append((problem, x0, solve_gp(problem, x0)))
        return calls[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dmimo.optimizer, "solve_gp", recorded)
        alternating_optimize(sc, np.random.default_rng(estimation_ss))
    return calls


GP_SYSTEMS = {"ao-small": AO_SMALL, "ao-paper-floor": AO_PAPER_FLOOR}


@given(system=st.sampled_from(sorted(GP_SYSTEMS)),
       max_power=st.floats(min_value=0.2, max_value=200.0),
       seed=st.integers(min_value=1011, max_value=1018))
@settings(max_examples=6, deadline=None)
# a primal-dual method that kept its iterates strictly feasible stopped
# 5.3e-6 below SLSQP's objective on this run's sixth GP (174 x 40), out
# of Newton steps
@example(system="ao-small", max_power=20.0, seed=1018)
def test_gp_is_at_least_as_good_as_slsqp_on_ao_calls(system, max_power,
                                                      seed):
    """On every GP of an AO run, from the noise-limited 0.2 W to the
    interference-limited 200 W: the objective is at least SLSQP's from the
    same start minus 1e-9 relative, the worst violation at most 1e-9 and
    the KKT residual at most 1e-8."""
    calls = _ao_gp_calls(GP_SYSTEMS[system].replace(max_power=max_power),
                         seed)
    assert calls
    for problem, x0, sol in calls:
        ref = problem.objective @ slsqp_reference(problem, x0).x
        assert problem.objective @ sol.x >= ref - 1e-9 * max(1.0, abs(ref))
        assert sol.max_violation <= 1e-9
        assert sol.kkt_residual <= 1e-8


def test_weights_stay_representable_at_46_w():
    """At 46 W, seed 1014, on the ao-paper-floor system, where SLSQP drifted
    a user's weights along their free scale to about e^-150: every log
    variable a GP returns stays within BOX of its start, and above -350,
    so that the squared weights normalize without underflow."""
    calls = _ao_gp_calls(AO_PAPER_FLOOR.replace(max_power=46.0), 1014)
    assert calls
    for _, x0, sol in calls:
        assert np.abs(sol.x - x0).max() <= dmimo.gp.BOX
        assert sol.x.min() > -350.0


def _segment_lse_reference(z, starts):
    """Each segment's log-sum-exp and softmax, the segment maxima spread
    back over the rows with np.repeat."""
    counts = np.diff(np.append(starts, len(z)))
    zmax = np.repeat(np.maximum.reduceat(z, starts), counts)
    w = np.exp(z - zmax)
    sums = np.add.reduceat(w, starts)
    return zmax[starts] + np.log(sums), w / np.repeat(sums, counts)


def test_lse_softmax_matches_repeat_reference():
    """The per-row segment index gives the reference's bits."""
    for problem, x0 in _captured_problems():
        for x in (x0, x0 + 0.3, x0 - 0.2):
            got = problem.lse_softmax(x)
            z = problem.logs + np.bincount(
                problem.row, problem.value * x[problem.col],
                len(problem.logs))
            ref = _segment_lse_reference(z, problem.starts)
            for a, b in zip(got, ref):
                assert np.array_equal(a, b)


def _random_sparse_problem(seed):
    """A problem with random sparse rows, of 1 to 7 columns and 1 to 12
    rows in random constraints, and a point x."""
    rng = np.random.default_rng(seed)
    n, R = int(rng.integers(1, 8)), int(rng.integers(1, 13))
    exps = np.where(rng.random((R, n)) < 0.4, rng.normal(size=(R, n)), 0.0)
    starts = np.flatnonzero(np.append(True, rng.random(R - 1) < 0.4))
    return dense_problem(rng.normal(size=n), rng.normal(size=R), exps,
                         starts), rng.normal(size=n)


@functools.cache
def _captured_ao_problems():
    """Every GP of item 1011 of the ao-small and ao-paper-floor systems."""
    return [(problem, x0) for config in (AO_SMALL, AO_PAPER_FLOOR)
            for problem, x0, _ in _ao_gp_calls(config, 1011)]


@given(source=st.sampled_from(["random", "ao"]),
       index=st.integers(0, 2 ** 32 - 1),
       shift=st.floats(min_value=-1.0, max_value=1.0),
       seeds=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_nonzeros_match_a_dense_reference(source, index, shift, seeds):
    """lse_softmax and jacobian equal sums over each row's nonzeros in
    stored order, bit for bit; the incidence is the dense exponents' nonzero
    pattern per constraint; and a boxed problem is the dense rows it keeps,
    then the rows -I and +I of the box."""
    if source == "random":
        problem, x = _random_sparse_problem(index)
    else:
        captured = _captured_ao_problems()
        problem, x0 = captured[index % len(captured)]
        x = x0 + shift
    R, C, n = len(problem.logs), len(problem.starts), len(problem.objective)
    segment = np.repeat(np.arange(C), np.diff(np.append(problem.starts, R)))
    total = [0.0] * R
    for r, c, v in zip(problem.row, problem.col, problem.value):
        total[r] += v * x[c]
    lse, soft = problem.lse_softmax(x)
    for got, ref in zip((lse, soft), _segment_lse_reference(
            problem.logs + np.array(total), problem.starts)):
        assert np.array_equal(got, ref)
    jac = np.zeros((C, n))
    for r, c, v in zip(problem.row, problem.col, problem.value):
        jac[segment[r], c] += soft[r] * v
    assert np.array_equal(problem.jacobian(soft), jac)

    dense = dense_exps(problem)
    assert np.array_equal(problem._incidence, np.logical_or.reduceat(
        dense != 0, problem.starts, axis=0))
    rng = np.random.default_rng(seeds)
    cols, cons = _reach(problem, rng.random(n) < 0.5)
    if not cons.any():
        return
    boxed = _boxed(problem, cols, cons, x[cols])
    keep, m = cons[segment], cols.sum()
    assert np.array_equal(dense_exps(boxed), np.vstack(
        [dense[keep][:, cols], -np.eye(m), np.eye(m)]))
    assert np.array_equal(boxed.logs, np.concatenate(
        [problem.logs[keep], x[cols] - dmimo.gp.BOX, -x[cols] - dmimo.gp.BOX]))
    sizes = np.diff(np.append(problem.starts, R))[cons]
    assert np.array_equal(boxed.starts, np.append(
        np.cumsum(sizes) - sizes, keep.sum() + np.arange(2 * m)))

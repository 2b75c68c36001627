from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmimo.gp
import dmimo.optimizer
from conftest import make_scenario
from dmimo.optimizer import build_sca_subproblem, feasibility_check
from dmimo.rate import equal_split_allocation, sinr_all
from dmimo.gp import (
    GpInfeasibleError,
    GpProblem,
    GpUnboundedError,
    condense,
    solve_gp,
)


def gp(objective, *constraints):
    """GpProblem from posynomials written as [(coeff, exponents), ...]."""
    rows = [term for g in constraints for term in g]
    return GpProblem(
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
        GpProblem(objective=[1.0], logs=[0.0], exps=[[1.0]], starts=[0, 1])
    with pytest.raises(ValueError):
        GpProblem(objective=[1.0], logs=[], exps=np.zeros((0, 1)),
                  starts=[])


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
    p = GpProblem(objective=[1.0, 0.0, -1.0], logs=rng.normal(size=6),
                  exps=rng.normal(size=(6, 3)), starts=[0, 1, 4])
    x = rng.normal(size=3)
    val, soft = p.lse_softmax(x)
    jac = p.jacobian(soft)
    assert np.array_equal(val, p.lse(x))
    for c, (lo, hi) in enumerate([(0, 1), (1, 4), (4, 6)]):
        z = p.logs[lo:hi] + p.exps[lo:hi] @ x
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
            assert posynomial(p.logs[lo:hi], p.exps[lo:hi],
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


def _solve_recorded(monkeypatch, problem, x0, memoized):
    """solve_gp with its constraint callbacks recording each point they
    are called at, and a count of the stacked log-sum-exp evaluations.
    Without `memoized` the callbacks are replaced by ones evaluating the
    problem afresh at every call."""
    points, evaluations = set(), []
    lse_softmax, minimize = GpProblem.lse_softmax, dmimo.gp.minimize

    def counted(self, x):
        evaluations.append(x.tobytes())
        return lse_softmax(self, x)

    def spy(fun, x, constraints, **kw):
        fun_c, jac_c = constraints["fun"], constraints["jac"]
        if not memoized:
            fun_c = lambda x: -problem.lse(x)  # noqa: E731
            jac_c = lambda x: -problem.jacobian(  # noqa: E731
                problem.lse_softmax(x)[1])
        recorded = dict(
            constraints,
            fun=lambda x: (points.add(x.tobytes()), fun_c(x))[1],
            jac=lambda x: (points.add(x.tobytes()), jac_c(x))[1])
        return minimize(fun, x, constraints=recorded, **kw)

    monkeypatch.setattr(GpProblem, "lse_softmax", counted)
    monkeypatch.setattr(dmimo.gp, "minimize", spy)
    sol = solve_gp(problem, x0)
    monkeypatch.undo()
    return sol, points, evaluations


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


def test_memoized_solve_matches_fresh_callbacks(monkeypatch):
    """The shared evaluation changes no bit of the solution, and the
    stacked log-sum-exp is evaluated once per distinct point."""
    problems = _captured_problems()
    sc = make_scenario(seed=3)
    floored = replace(sc, config=sc.config.replace(rate_requirement=2e5))
    captured = []
    monkeypatch.setattr(dmimo.optimizer, "solve_gp",
                        lambda p, x0: captured.append((p, x0)) or solve_gp(
                            p, x0))
    feasibility_check(floored, equal_split_allocation(floored))
    monkeypatch.undo()
    problems += captured
    for problem, x0 in problems:
        sol, points, evals = _solve_recorded(monkeypatch, problem, x0, True)
        ref, ref_points, ref_evals = _solve_recorded(monkeypatch, problem,
                                                     x0, False)
        assert sol.x.tobytes() == ref.x.tobytes()
        assert (sol.status, sol.iterations) == (ref.status, ref.iterations)
        assert sol.kkt_residual == ref.kkt_residual
        assert sol.max_violation == ref.max_violation
        assert points == ref_points
        assert len(evals) == len(set(evals)) == len(points)
        assert len(ref_evals) > len(evals)


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
            ref = _segment_lse_reference(problem.logs + problem.exps @ x,
                                         problem.starts)
            for a, b in zip(got, ref):
                assert np.array_equal(a, b)

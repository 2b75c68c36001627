import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    val, jac = p.lse_jacobian(x)
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

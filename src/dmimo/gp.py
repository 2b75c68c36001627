"""A small geometric-programming layer in log-domain array form.

A GP maximizes a monomial prod v_j^{a_j} subject to posynomial constraints
g(v) <= 1. With x = log v, a posynomial term c * prod v_j^{e_j} becomes the
affine value log c + e @ x, so each constraint is log-sum-exp(rows) <= 0
and the objective is a @ x (Boyd, Kim, Vandenberghe & Hassibi, "A tutorial
on geometric programming", 2007). A problem is stored exactly so: one row
(log c, e) per term over integer variable columns, the rows of constraint
i being ``logs[starts[i]:starts[i + 1]]``. SLSQP solves the smooth convex
program through one vector-valued constraint.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

# SLSQP's iteration limit
MAX_ITER = 300


class GpError(RuntimeError):
    pass


class GpInfeasibleError(GpError):
    pass


class GpUnboundedError(GpError):
    pass


@dataclass
class GpProblem:
    """Maximize exp(objective @ x) subject to lse_i(x) <= 0 for every
    constraint i, lse_i being the log-sum-exp of ``logs[r] + exps[r] @ x``
    over the constraint's rows r.

    objective: (n,) exponents of the objective monomial.
    logs: (R,) log-coefficients of the stacked rows; all finite, since a
    posynomial term's coefficient is positive.
    exps: (R, n) exponents of the stacked rows.
    starts: (C,) first row of each constraint, strictly increasing from 0.
    """

    objective: np.ndarray
    logs: np.ndarray
    exps: np.ndarray
    starts: np.ndarray

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.logs = np.asarray(self.logs, dtype=float)
        self.exps = np.asarray(self.exps, dtype=float).reshape(
            len(self.logs), len(self.objective))
        self.starts = np.asarray(self.starts, dtype=np.intp)
        if not np.all(np.isfinite(self.logs)):
            raise ValueError("term coefficients must be positive")
        if (len(self.starts) == 0 or self.starts[0] != 0
                or np.any(np.diff(self.starts) <= 0)
                or self.starts[-1] >= len(self.logs)):
            raise ValueError("starts must begin at 0 and give every "
                             "constraint at least one row")
        # each row's constraint
        self._segment = np.repeat(np.arange(len(self.starts)), np.diff(
            np.append(self.starts, len(self.logs))))

    def lse(self, x):
        """Each constraint's log-sum-exp at x (<= 0 where satisfied)."""
        return self.lse_softmax(x)[0]

    def lse_softmax(self, x):
        """(lse, softmax): each constraint's log-sum-exp at x, and each
        row's weight within its constraint."""
        return _segment_lse(self.logs + self.exps @ x, self.starts,
                            self._segment)

    def jacobian(self, softmax):
        """d lse / dx from ``lse_softmax``'s row weights at x."""
        return np.add.reduceat(softmax[:, None] * self.exps, self.starts)


def _segment_lse(z, starts, segment):
    """Log-sum-exp of each segment of z, and the within-segment softmax;
    segment[r] is row r's segment."""
    zmax = np.maximum.reduceat(z, starts)
    w = np.exp(z - zmax[segment])
    sums = np.add.reduceat(w, starts)
    return zmax + np.log(sums), w / sums[segment]


def condense(logs, exps, x0):
    """AM-GM condensation of the posynomial with rows (logs, exps) into one
    monomial (log c, e), tight at x0 and below the posynomial everywhere.

    g(v) = sum u_t(v) >= prod (u_t(v) / eps_t)^{eps_t}, eps_t = u_t(x0)/g(x0).
    """
    val, eps = _segment_lse(logs + exps @ x0, np.zeros(1, dtype=np.intp),
                            np.zeros(len(logs), dtype=np.intp))
    e = eps @ exps
    return float(val[0] - e @ x0), e


@dataclass
class GpSolution:
    x: np.ndarray  # log of the optimal variables
    status: int  # SLSQP's exit status; 0 is success
    kkt_residual: float
    max_violation: float  # max over constraints of g(exp(x)) - 1
    iterations: int


def solve_gp(problem, x0):
    """Solve from the log-domain start x0. Returns a GpSolution; raises
    GpInfeasibleError / GpUnboundedError on detection.
    """
    obj = problem.objective
    # SLSQP asks for the constraints at a point, then for their Jacobian
    # there (and revisits points): evaluate each distinct point once
    at = functools.cache(lambda key: problem.lse_softmax(np.frombuffer(key)))
    res = minimize(
        lambda x: -obj @ x, np.asarray(x0, dtype=float), jac=lambda x: -obj,
        method="SLSQP",
        constraints={"type": "ineq", "fun": lambda x: -at(x.tobytes())[0],
                     "jac": lambda x: -problem.jacobian(at(x.tobytes())[1])},
        options={"maxiter": MAX_ITER, "ftol": 1e-14},
    )
    x = res.x
    # Only the objective's variables signal unboundedness: a variable the
    # objective ignores may drift along a flat direction of the constraints
    # (a user's combining weights, whose scale no SINR sees) at no gain.
    if (not np.all(np.isfinite(x))
            or np.abs(x[obj != 0]).max(initial=0.0) > 80.0):
        raise GpUnboundedError("iterates diverged; problem likely unbounded")
    val, soft = at(x.tobytes())
    jac = problem.jacobian(soft)
    viol = val.max()
    if viol > 1e-6:
        raise GpInfeasibleError(
            f"no feasible point found (max log violation {viol:.2e}, "
            f"status {res.status}: {res.message})"
        )

    # KKT residual: least-squares multipliers over near-active constraints
    G = jac[val > -1e-7].T
    if G.size:
        lam, *_ = np.linalg.lstsq(G, obj, rcond=None)
        kkt = np.linalg.norm(obj - G @ np.clip(lam, 0.0, None))
    else:
        kkt = np.linalg.norm(obj)
    return GpSolution(x=x, status=int(res.status), kkt_residual=float(kkt),
                      max_violation=float(np.expm1(viol)),
                      iterations=int(res.nit))

"""A small geometric-programming layer in log-domain array form.

A GP maximizes a monomial prod v_j^{a_j} subject to posynomial constraints
g(v) <= 1. With x = log v, a posynomial term c * prod v_j^{e_j} becomes the
affine value log c + e @ x, so each constraint is log-sum-exp(rows) <= 0
and the objective is a @ x (Boyd, Kim, Vandenberghe & Hassibi, "A tutorial
on geometric programming", 2007). A problem is stored exactly so: one row
(log c, e) per term, e as its nonzeros over integer variable columns, the
rows of constraint i being ``logs[starts[i]:starts[i + 1]]``. A primal-dual
interior-point method in numpy solves the smooth convex program, after a
phase I that finds a strictly feasible point or shows that there is none
(Boyd & Vandenberghe, *Convex Optimization*, 2004, sections 11.4 and 11.7).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Newton steps of one solve, phase I and phase II together
MAX_ITER = 100
# A solve stops once its dual residual, its primal residual and its
# duality gap are at most TOL (the gap relative to the objective where
# that exceeds 1)
TOL = 1e-10
# Every column the solve moves stays within BOX of its start, so that a
# direction no constraint bounds (a user's weight scale, which no SINR
# sees) leaves the barrier bounded
BOX = 100.0
# A constraint within HOLD of 0 at the start counts as active there, and
# one above HOLD as violated
HOLD = 1e-12
# Phase I runs until every constraint is below -DEPTH (or as far below 0
# as the problem allows), so that phase II starts off the boundary
DEPTH = 1e-2
# A step keeps STEP_BACK of the way to the nearest zero slack or
# multiplier, and is halved until the residual norm falls by ALPHA of it
STEP_BACK = 0.99
ALPHA = 0.01


class GpError(RuntimeError):
    pass


class GpInfeasibleError(GpError):
    pass


class GpUnboundedError(GpError):
    pass


@dataclass
class GpProblem:
    """Maximize exp(objective @ x) subject to lse_i(x) <= 0 for every
    constraint i, lse_i being the log-sum-exp of ``logs[r] + e_r @ x`` over
    the constraint's rows r, e_r the exponents of row r.

    objective: (n,) exponents of the objective monomial.
    logs: (R,) log-coefficients of the stacked rows; all finite, since a
    posynomial term's coefficient is positive.
    row, col, value: the rows' nonzero exponents, e_{row[t]} holding
    value[t] at column col[t]; in row order, a row's columns ascending.
    starts: (C,) first row of each constraint, strictly increasing from 0.
    """

    objective: np.ndarray
    logs: np.ndarray
    row: np.ndarray
    col: np.ndarray
    value: np.ndarray
    starts: np.ndarray

    def __post_init__(self):
        self.objective, self.logs, self.value = (np.asarray(
            a, dtype=float) for a in (self.objective, self.logs, self.value))
        self.row, self.col, self.starts = (np.asarray(
            a, dtype=np.intp) for a in (self.row, self.col, self.starts))
        R, n = len(self.logs), len(self.objective)
        if not np.all(np.isfinite(self.logs)):
            raise ValueError("term coefficients must be positive")
        if (len(self.starts) == 0 or self.starts[0] != 0
                or np.any(np.diff(self.starts) <= 0)
                or self.starts[-1] >= R):
            raise ValueError("starts must begin at 0 and give every "
                             "constraint at least one row")
        if (np.any((self.row < 0) | (self.row >= R))
                or np.any((self.col < 0) | (self.col >= n))
                or np.any(np.diff(self.row * n + self.col) <= 0)):
            raise ValueError("nonzeros must lie within the rows and columns, "
                             "in row order, each row's columns ascending")
        # each row's constraint, and each nonzero's cell of the Jacobian
        self._segment = np.repeat(np.arange(len(self.starts)), np.diff(
            np.append(self.starts, R)))
        self._cell = self._segment[self.row] * n + self.col

    def lse(self, x):
        """Each constraint's log-sum-exp at x (<= 0 where satisfied)."""
        return self.lse_softmax(x)[0]

    def lse_softmax(self, x):
        """(lse, softmax): each constraint's log-sum-exp at x, and each
        row's weight within its constraint. Each row's value sums its
        nonzeros in order."""
        return _segment_lse(self.logs + np.bincount(
            self.row, self.value * x[self.col], len(self.logs)),
            self.starts, self._segment)

    def jacobian(self, softmax):
        """d lse / dx, (C, n), from ``lse_softmax``'s row weights at x:
        each constraint's softmax-weighted sum of its rows, over the
        nonzero exponents in order."""
        C, n = len(self.starts), len(self.objective)
        return np.bincount(self._cell, softmax[self.row] * self.value,
                           C * n).reshape(C, n)

    @cached_property
    def _incidence(self):
        """(C, n) bool: which columns each constraint's rows touch."""
        touches = np.zeros(len(self.starts) * len(self.objective), dtype=bool)
        touches[self._cell] = True
        return touches.reshape(len(self.starts), len(self.objective))

    @cached_property
    def _hessian_pairs(self):
        """Index pairs that assemble a Hessian sum_r w_r e_r e_r^T over the
        rows, and sum_c d_c g_c g_c^T over the constraints' gradients g_c,
        from their nonzeros alone: (row, cell, product of the two
        exponents) for every pair of a row's nonzeros, and (constraint,
        Jacobian cell, Jacobian cell, Hessian cell) for every pair of
        columns that a constraint touches."""
        n = len(self.objective)
        p, q = _pairs(self.row, len(self.logs))
        rows = (self.row[p], self.col[p] * n + self.col[q], self.value[p]
                * self.value[q])
        cells = np.flatnonzero(self._incidence)
        con, col = np.divmod(cells, n)
        a, b = _pairs(con, len(self.starts))
        return rows, (con[a], cells[a], cells[b], col[a] * n + col[b])


def _pairs(group, count):
    """(p, q): every ordered pair of positions of the sorted array `group`
    that hold the same value, among `count` possible values."""
    sizes = np.bincount(group, minlength=count)
    first = np.cumsum(sizes) - sizes
    per = sizes[group]
    p = np.repeat(np.arange(len(group)), per)
    q = first[group[p]] + np.arange(len(p)) - np.repeat(
        np.cumsum(per) - per, per)
    return p, q


def _segment_lse(z, starts, segment):
    """Log-sum-exp of each segment of z, and the within-segment softmax;
    segment[r] is row r's segment."""
    zmax = np.maximum.reduceat(z, starts)
    w = np.exp(z - zmax[segment])
    sums = np.add.reduceat(w, starts)
    return zmax + np.log(sums), w / sums[segment]


def condense(logs, exps, x0):
    """AM-GM condensation of the posynomial with rows (logs, exps) into one
    monomial (log c, e), tight at x0 and below the posynomial everywhere;
    its sums skip the columns that no row touches, so those change no bit.

    g(v) = sum u_t(v) >= prod (u_t(v) / eps_t)^{eps_t}, eps_t = u_t(x0)/g(x0).
    """
    touched = np.flatnonzero(exps.any(axis=0))
    exps, x0, e = exps[:, touched], x0[touched], np.zeros(exps.shape[1])
    val, eps = _segment_lse(logs + exps @ x0, np.zeros(1, dtype=np.intp),
                            np.zeros(len(logs), dtype=np.intp))
    e[touched] = eps @ exps
    return float(val[0] - e[touched] @ x0), e


@dataclass
class GpSolution:
    x: np.ndarray  # log of the optimal variables
    status: int  # 0 converged, 1 out of Newton steps, 2 no step helped
    kkt_residual: float
    max_violation: float  # max over constraints of g(exp(x)) - 1
    iterations: int  # Newton steps, phase I included


def _reach(problem, seeds):
    """(cols, cons): the columns connected to the columns `seeds` through
    shared constraints, and the constraints that touch them."""
    touches = problem._incidence
    cols = seeds
    while True:
        cons = touches[:, cols].any(axis=1)
        grown = seeds | touches[cons].any(axis=0)
        if np.array_equal(grown, cols):
            return cols, cons
        cols = grown


def solve_gp(problem, x0):
    """Solve from the log-domain start x0. Returns a GpSolution; raises
    GpInfeasibleError / GpUnboundedError on detection.

    A start that already meets the KKT conditions is returned as it is.
    Otherwise, columns that neither the objective nor a constraint violated
    at x0 reaches through shared constraints keep their x0 values: nothing
    they touch can change the objective, and they meet their constraints at
    x0. The rest are solved within BOX of x0: a phase I from x0 finds a
    point at least DEPTH inside every constraint, or as deep as there is,
    or shows that none is strictly inside, and a phase II goes from there
    to the optimum. The KKT residual is read off the method's own
    multipliers.
    """
    x0 = np.asarray(x0, dtype=float)
    obj = problem.objective
    lse, soft = problem.lse_softmax(x0)
    x, status, steps = x0.copy(), 0, 0
    kkt = _kkt_at(problem, lse, soft)
    if kkt > TOL:  # x0 is not optimal already
        seeds = (obj != 0) | problem._incidence[lse > HOLD].any(axis=0)
        cols, cons = _reach(problem, seeds)
        if cols.any() and not cons.any():
            raise GpUnboundedError(
                "the objective's variables are unconstrained")
        kkt = 0.0
        if cons.any():
            path = _Path(_boxed(problem, cols, cons, x0[cols]), x0[cols])
            status = path.run()
            x[cols], steps, kkt = path.y, path.steps, path.kkt(cons.sum())
        lse = problem.lse(x)
    # Only the objective's variables signal unboundedness: a variable the
    # objective ignores may drift along a flat direction of the constraints
    # (a user's combining weights, whose scale no SINR sees) at no gain.
    if (not np.all(np.isfinite(x))
            or np.abs(x[obj != 0]).max(initial=0.0) > 80.0):
        raise GpUnboundedError("iterates diverged; problem likely unbounded")
    viol = lse.max()
    if viol > 1e-6:
        raise GpInfeasibleError(
            f"no feasible point found (max log violation {viol:.2e})")
    return GpSolution(x=x, status=status, kkt_residual=kkt,
                      max_violation=float(np.expm1(viol)), iterations=steps)


def _kkt_at(problem, lse, soft):
    """The KKT residual of a start that meets every constraint within HOLD:
    that of the least-squares multipliers on the constraints within HOLD
    of active, if they are nonnegative; inf otherwise."""
    active = lse >= -HOLD
    if lse.max() > HOLD or not active.any():
        return np.inf
    G = problem.jacobian(soft)[active]
    try:  # least squares by the normal equations; a wrong answer fails below
        lam = np.linalg.solve(G @ G.T, G @ problem.objective)
    except np.linalg.LinAlgError:
        return np.inf
    if lam.min() < 0:
        return np.inf
    return float(np.linalg.norm(problem.objective - G.T @ lam))


def _boxed(problem, cols, cons, x0):
    """The problem over columns `cols` and constraints `cons` (boolean
    masks; those constraints touch no other column), followed by the box
    x0 - BOX <= x <= x0 + BOX as one-row constraints."""
    keep = cons[problem._segment]
    nz, new = keep[problem.row], np.cumsum(keep) - 1  # a kept row's index
    n = len(x0)
    box = keep.sum() + np.arange(2 * n)
    return GpProblem(
        problem.objective[cols],
        np.concatenate([problem.logs[keep], x0 - BOX, -x0 - BOX]),
        np.concatenate([new[problem.row[nz]], box]),
        np.concatenate([(np.cumsum(cols) - 1)[problem.col[nz]],
                        np.tile(np.arange(n), 2)]),
        np.concatenate([problem.value[nz], np.repeat([-1.0, 1.0], n)]),
        np.concatenate([new[problem.starts[cons]], box]))


def _ratio(v, dv):
    """Largest step a with v + a dv >= 0 (v > 0); inf if dv >= 0."""
    most = (-dv / v).max()
    return 1.0 / most if most > 0 else np.inf


class _Path:
    """Primal-dual path following (Boyd & Vandenberghe, section 11.7) for
    maximizing objective @ x subject to every lse_i(x) <= 0, from x after a
    phase I unless x is DEPTH inside every constraint. It works in slack
    form: each constraint is f_i + s_i = 0, f_i = lse_i, with s_i > 0 and a
    multiplier lam_i > 0, so that a step's ratio test is linear in
    (s, lam); the primal residual f + s goes to 0 with the dual residual
    and the gap lam @ s. In phase I the variables are y = (x, z) and the
    constraints lse_i(x) - z <= 0."""

    def __init__(self, problem, x):
        self.problem, self.n, self.steps = problem, len(x), 0
        self.phase1 = False
        self._evaluate(x)
        self.phase1 = self.f.max() > -DEPTH
        if self.phase1:
            self._phase_one()
        else:
            self._start()

    @property
    def s(self):
        return self.sl[:len(self.f)]

    @property
    def lam(self):
        return self.sl[len(self.f):]

    def _objective(self):
        if self.phase1:
            return np.append(np.zeros(self.n), -1.0)
        return self.problem.objective

    def _evaluate(self, y):
        """Set y and what is read at it: each constraint's value f, the row
        weights and the Jacobian G of f in y."""
        self.y = y
        self.f, self.soft = self.problem.lse_softmax(y[:self.n])
        self.G = self.problem.jacobian(self.soft)
        if self.phase1:
            self._add_z(y[-1])

    def _add_z(self, z):
        """f and G of lse_i(x) - z, from those of lse_i(x)."""
        self.f = self.f - z
        self.G = np.concatenate([self.G, np.full((len(self.f), 1), -1.0)],
                                axis=1)

    def _start(self):
        """Slacks s = -f (f < 0 here) and multipliers on the central path,
        lam_i = mu / s_i, mu minimizing the dual residual (section
        11.3.1)."""
        s = -self.f
        v = self.G.T @ (1.0 / s)
        c = self._objective()
        mu = (c @ v) / (v @ v)
        if not mu > 0:
            mu = np.linalg.norm(c) / np.linalg.norm(v)
        self.sl = np.concatenate([s, mu / s])
        self._residual(self.sl)

    def _residual(self, sl):
        """Set the dual and primal residuals at y and the slacks and
        multipliers sl = (s, lam), and the sum of their squares."""
        m = len(self.f)
        self.rd = self.G.T @ sl[m:] - self._objective()
        self.rp = self.f + sl[:m]
        self.r2 = self.rd @ self.rd + self.rp @ self.rp

    def _newton(self):
        """The Newton direction of the residuals as a function of mu: it
        returns (dy, d(s, lam))."""
        n, G, lam, s = self.n, self.G, self.lam, self.s
        (row, cell, prod), (con, ga, gb, hcell) = \
            self.problem._hessian_pairs
        d = lam / s
        # sum_i lam_i Hess lse_i + sum_i d_i g_i g_i^T: Hess lse_i is the
        # row covariance E^T diag(soft) E - g g^T within constraint i
        w = (lam[self.problem._segment] * self.soft)[row] * prod
        Gf = (G[:, :n] if self.phase1 else G).ravel()
        cross = (d - lam)[con] * Gf[ga] * Gf[gb]
        H = (np.bincount(cell, weights=w, minlength=n * n)
             + np.bincount(hcell, weights=cross, minlength=n * n)
             ).reshape(n, n)
        if self.phase1:  # z enters every constraint linearly
            Hx, H = H, np.empty((n + 1, n + 1))
            H[:n, :n] = Hx
            H[n, :n] = H[:n, n] = -(G[:, :n].T @ d)
            H[n, n] = d.sum()
        rp = self.rp
        rhs = G.T @ np.column_stack([d * rp, 1.0 / s])
        rhs[:, 0] -= self._objective()
        dy0, dy1 = -np.linalg.solve(H, rhs).T
        u0, u1 = (G @ np.column_stack([dy0, dy1])).T
        u0 = u0 + rp

        def direction(mu):
            u = u0 + mu * u1
            return dy0 + mu * dy1, np.concatenate(
                [-u, d * u - lam + mu / s])
        return direction

    def run(self):
        """Newton steps until converged() or MAX_ITER steps in all; returns
        the status: 0 if converged, 1 out of steps, 2 if no step helped."""
        while not self.converged():
            if self.steps == MAX_ITER:
                return 1
            try:
                direction = self._newton()
            except np.linalg.LinAlgError:
                return 2  # the Newton matrix is singular to working precision
            # Mehrotra's centring: mu = sigma gap / m, sigma the cube of the
            # gap an affine step (mu = 0) would leave, relative to the gap;
            # but mu stays above a tenth of the largest lam_i (f_i + s_i),
            # since a slack driven far below its constraint's violation
            # makes the Newton matrix singular before the violation is gone
            m, sl = len(self.s), self.sl
            gap = self.lam @ self.s
            _, dsl = direction(0.0)
            a = min(1.0, _ratio(sl, dsl))
            trial = sl + a * dsl
            mu = max((trial[:m] @ trial[m:] / gap) ** 3 * gap / m,
                     0.1 * (self.lam * self.rp).max())
            dy, dsl = direction(mu)
            rc = self.lam * self.s - mu
            r0 = np.sqrt(self.r2 + rc @ rc)
            step = min(1.0, STEP_BACK * _ratio(sl, dsl))
            here = self.y, self.f, self.soft, self.G
            while True:
                self._evaluate(here[0] + step * dy)
                trial = sl + step * dsl
                # a constraint met at the trial point takes its own slack,
                # so that moving along a constraint's curve leaves no
                # primal residual
                trial[:m] = np.where(self.f < 0, -self.f, trial[:m])
                self._residual(trial)
                rc = trial[:m] * trial[m:] - mu
                if np.sqrt(self.r2 + rc @ rc) <= (1.0 - ALPHA * step) * r0:
                    break
                step *= 0.5
                if step < 1e-14:
                    self.y, self.f, self.soft, self.G = here
                    self._residual(sl)
                    return 2
            self.sl = trial
            self.steps += 1
        return 0

    def converged(self):
        if self.phase1 and (self.f + self.y[-1]).max() <= -DEPTH:
            return True  # x is DEPTH inside every constraint
        return (np.sqrt(self.rd @ self.rd) <= TOL
                and np.abs(self.rp).max() <= TOL
                and self.lam @ self.s <= TOL * max(
                    1.0, abs(self._objective() @ self.y)))

    def _phase_one(self):
        """Phase I (section 11.4): minimize z subject to lse_i(x) <= z,
        from z = max_i lse_i(x) + 1, until every lse_i(x) < -DEPTH or z is
        at its minimum; raise GpInfeasibleError if that is not below 0."""
        z = self.f.max() + 1.0
        self.y = np.append(self.y, z)
        self._add_z(z)
        self._start()
        status = self.run()
        worst = (self.f + self.y[-1]).max()
        if worst >= 0:
            raise GpInfeasibleError(
                f"no strictly feasible point: phase I ended at a max log "
                f"violation of {worst:.2e} (status {status})")
        self.phase1 = False
        self.f, self.G, self.y = (self.f + self.y[-1], self.G[:, :self.n],
                                  self.y[:-1])
        self._start()

    def kkt(self, own):
        """max(|objective - sum_i lam_i grad lse_i|, sum_i lam_i |lse_i|)
        over the first `own` constraints, those of the problem solved."""
        lam = self.lam[:own]
        r = self.problem.objective - self.G[:own].T @ lam
        return float(max(np.linalg.norm(r), lam @ np.abs(self.f[:own])))

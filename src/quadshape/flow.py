"""Riemannian Newton descent of the shape functional.

Each iteration solves the Newton system

    (H + mu G) x = psi,    G = diag(1 + A kappa^2),

on the assembled direct Hessian H of the state (``shape.direct_hessian``)
and flows the curve by -step * x.  A Cholesky factorization of W H
(W = diag(w)) comes first: where it succeeds, as at and near a minimum,
H is positive definite in the arclength product, mu = 0, and the step is
the Newton step of the paper's shape Hessian, which converges
quadratically.  Otherwise

    mu = max(0, -lambda0(G^-1/2 H G^-1/2)) + k^2 / 2,

lambda0 the lowest eigenvalue of H relative to the metric weight, from
the shared weighted spectrum solve above a Weyl floor.  Either way the
system is positive definite, so x is a descent direction whatever the
curvature of J.  The line search starts every iteration at the unit
Newton step and backtracks under an Armijo test on the half-weighted slope
-sum(psi x w) / 2 (the finite-difference calibration of the first
variation).  The stopping rule reads the metric gradient
psi / (1 + A kappa^2).  The node distribution is re-equalized by
arclength every few accepted steps so the spectral quadrature stays
healthy, and once more when a line search collapses, after which the
iteration is redone.  ``FlowConfig`` holds the stopping rule only
(``max_iters``, ``grad_tol_rel``); the line-search, shift and resampling
constants are fixed at module level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bem import SolverError
from .geometry import (Curve, GeometryError, flow_curve, metric_norm,
                       metric_weight, resample_by_arclength)
from .riemannian import riemannian_gradient
from .shape import (direct_hessian, evaluate_J, pointwise_density,
                    solve_state, symmetric_spectrum)


# Line-search and resampling constants.  Each line search starts at the
# unit Newton step and multiplies it by SHRINK after each rejected trial, at
# most MAX_BACKTRACKS times (the last trial is 0.5^30, about 9e-10); a trial
# is accepted when J drops by at least ARMIJO_C1 times the predicted
# decrease.  Every RESAMPLE_EVERY accepted steps the nodes are re-equalized
# by arclength.  GRAD_TOL is the absolute floor of the stopping tolerance.
# A shifted Newton system that fails its Cholesky factorization is retried
# with its margin over -lambda0 doubled, at most MAX_SHIFT_DOUBLINGS times.
GRAD_TOL = 1e-12
ARMIJO_C1 = 1e-4
SHRINK = 0.5
MAX_BACKTRACKS = 30
RESAMPLE_EVERY = 5
MAX_SHIFT_DOUBLINGS = 10


@dataclass(frozen=True)
class FlowConfig:
    """Stopping rule of the Newton descent.

    The run stops when the metric gradient norm falls under
    max(GRAD_TOL, grad_tol_rel * initial norm) or after ``max_iters``
    accepted steps.
    """

    max_iters: int = 500
    grad_tol_rel: float = 1e-4

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (np.isfinite(self.grad_tol_rel) and self.grad_tol_rel >= 0):
            raise ValueError("grad_tol_rel must be finite and nonnegative")


@dataclass(frozen=True)
class FlowRecord:
    """One accepted iterate of the descent."""

    iteration: int
    J: float
    grad_norm: float
    step: float
    min_kappa: float
    max_kappa: float
    circle_deviation: float


# Why a line-search trial was rejected: the trial curve failed validation
# (self-intersection, source clearance), the boundary system was singular,
# or the Armijo decrease test failed.
REJECTION_REASONS = ("geometry", "solver", "armijo")


@dataclass
class FlowResult:
    """Outcome of ``descend``.  ``rejected`` counts the rejected line-search
    trials by reason (keys ``REJECTION_REASONS``); it stays out of the
    deterministic report and trace."""

    curve: Curve
    records: list
    reason: str
    iterations: int
    resamples: int
    rejected: dict

    @property
    def grad_drop(self):
        g0 = self.records[0].grad_norm
        gN = self.records[-1].grad_norm
        return g0 / gN if gN > 0 else float("inf")


def fit_circle(points):
    """Algebraic least-squares circle fit: returns (center, radius).

    Linearizes |p - c|^2 = R^2 into p.p = 2 c.p + (R^2 - c.c) and solves the
    normal system; exact when the points lie on a circle.
    """
    pts = np.asarray(points, dtype=float)
    A = np.column_stack([2.0 * pts, np.ones(len(pts))])
    b = np.sum(pts * pts, axis=1)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    center = sol[:2]
    radius = float(np.sqrt(sol[2] + center @ center))
    return center, radius


def circle_deviation(curve):
    """Max radial distance of the nodes from their best-fit circle."""
    center, radius = fit_circle(curve.points)
    r = np.hypot(curve.points[:, 0] - center[0], curve.points[:, 1] - center[1])
    return float(np.max(np.abs(r - radius)))


def _record(i, state, grad_norm, step):
    kap = state.curve.kappa
    return FlowRecord(i, evaluate_J(state), grad_norm, step,
                      float(np.min(kap)), float(np.max(kap)),
                      circle_deviation(state.curve))


def newton_direction(state, params):
    """Solution x of the Newton system (H + mu G) x = psi.

    The system is posed in the arclength product: W H is symmetric and
    W G diagonal positive (W = diag(w)).  A Cholesky factorization of W H,
    in place in the transpose of W H (the same matrix in Fortran order),
    comes first: when it succeeds, every eigenvalue of the pencil (W H, W G)
    is positive, mu = 0, and its factor solves the unshifted system.

    Otherwise mu shifts the lowest eigenvalue lambda0 of the pencil up to a
    margin k^2 / 2, mu = -lambda0 + k^2 / 2, so W (H + mu G) is positive
    definite.  lambda0, that of G^-1 H, comes from
    ``shape.symmetric_spectrum`` in the buffer of W H, refilled with
    G^-1 H, above the Weyl floor min(d / g) - k^2 / 2.  H is diag(d),
    d = dpsi/dnu + kappa psi the ``pointwise_density``, plus 2 U L U, which
    is positive semidefinite in the arclength product, so lambda0 >=
    min(d / g).  From n = 1024 the solve is block shift-invert Lanczos above
    that floor; below that size, if the floor fails its Cholesky test, or if
    Lanczos does not converge in its restarts, it is the dense subset
    solve.  On a kinked iterate 2 U L U can fail to be positive semidefinite
    to rounding and the subset solve can misplace lambda0 by more than the
    margin; each failed factorization of the shifted system then doubles
    the margin, at most MAX_SHIFT_DOUBLINGS times, and a last failure
    raises ``scipy.linalg.LinAlgError``.
    """
    w = state.curve.weights
    H = direct_hessian(state)
    rhs = w * state.psi
    wh = w[:, None] * H
    try:
        return _cho_solve_in_place(wh, rhs)
    except scipy.linalg.LinAlgError:
        pass
    g = metric_weight(state.curve, params)
    wg = w * g
    floor = float(np.min(pointwise_density(state) / g)) - 0.5 * state.k**2
    np.divide(H, g[:, None], out=wh)
    shift = max(0.0, -float(symmetric_spectrum(wh, wg, 1, floor)[0]))
    margin = 0.5 * state.k**2
    for _ in range(MAX_SHIFT_DOUBLINGS + 1):
        np.multiply(w[:, None], H, out=wh)
        wh[np.diag_indices_from(wh)] += (shift + margin) * wg
        try:
            return _cho_solve_in_place(wh, rhs)
        except scipy.linalg.LinAlgError:
            margin *= 2.0
    raise scipy.linalg.LinAlgError("shifted Newton system not positive "
                                   f"definite with margin {margin / 2}")


def _cho_solve_in_place(a, b):
    """Solution of a x = b by a Cholesky factorization of the symmetric
    C-ordered ``a``, done in and overwriting ``a`` (LAPACK factors its
    transpose, the same matrix in Fortran order, without a copy)."""
    factor = scipy.linalg.cho_factor(a.T, overwrite_a=True,
                                     check_finite=False)
    return scipy.linalg.cho_solve(factor, b, check_finite=False)


def _line_search(state, source, params, rejected):
    """(accepted state, step) of one Armijo backtracking line search along
    the Newton direction from ``state``, or None when all MAX_BACKTRACKS + 1
    trials are rejected; ``rejected`` counts the rejections by reason."""
    J0 = evaluate_J(state)
    x = newton_direction(state, params)
    # half-weighted slope of J along -x (matches finite differences)
    slope = -0.5 * float(np.sum(state.psi * x * state.curve.weights))
    step = 1.0
    for _ in range(MAX_BACKTRACKS + 1):
        try:
            trial = flow_curve(state.curve, x, -step)
            cand = solve_state(trial, source, params.k)
        except GeometryError:
            rejected["geometry"] += 1
        except SolverError:
            rejected["solver"] += 1
        else:
            if evaluate_J(cand) <= J0 + ARMIJO_C1 * step * slope:
                return cand, step
            rejected["armijo"] += 1
        step *= SHRINK
    return None


def _resampled(state, source, k):
    """The state on the arclength resample of the curve of ``state``, or
    None when the resampled curve fails validation or its solve (the given
    state has passed both)."""
    try:
        return solve_state(resample_by_arclength(state.curve), source, k)
    except (GeometryError, SolverError):
        return None


def descend(curve, source, params, config=None, callback=None):
    """Run the Riemannian Newton descent from the given curve.

    ``params`` carries k and the curvature weight A.  Stops when the metric
    gradient norm falls under max(GRAD_TOL, grad_tol_rel * initial norm)
    (reason ``gradient``), when the iteration budget runs out
    (``max_iters``), when no positive definite Newton system is found
    (``direction_failure``, see ``newton_direction``), or when the line
    search collapses (``step_collapse``).  A line search collapses when all
    MAX_BACKTRACKS + 1 trials are rejected; the first collapse of an
    iteration re-equalizes the nodes by arclength once and redoes the
    iteration's direction and line search from the resampled state, so it
    is ``step_collapse`` only when that resample fails validation or its
    solve, or the second line search collapses too (the run then ends on
    the resampled curve).  Trial curves that self-intersect or pinch the
    source clearance, singular boundary systems and failed Armijo tests
    count as rejected trials in ``FlowResult.rejected``.  A periodic
    resample whose curve fails validation or its solve is dropped and the
    accepted state kept; ``FlowResult.resamples`` counts the resamples
    kept, the rescues included.  ``callback(record, curve)`` fires on
    every accepted iterate including the initial one.
    """
    if config is None:
        config = FlowConfig()
    state = solve_state(curve, source, params.k)
    records = []
    resamples = 0
    reason = "max_iters"

    def grad_norm(state):
        grad = riemannian_gradient(state.curve, params, state.psi)
        return metric_norm(state.curve, params, grad.values)

    records.append(_record(0, state, grad_norm(state), 0.0))
    if callback is not None:
        callback(records[-1], state.curve)
    tol = max(GRAD_TOL, config.grad_tol_rel * records[0].grad_norm)

    rejected = dict.fromkeys(REJECTION_REASONS, 0)
    for it in range(1, config.max_iters + 1):
        if records[-1].grad_norm <= tol:
            reason = "gradient"
            break
        try:
            found = _line_search(state, source, params, rejected)
            if found is None:
                resampled = _resampled(state, source, params.k)
                if resampled is not None:
                    state = resampled
                    resamples += 1
                    found = _line_search(state, source, params, rejected)
        except scipy.linalg.LinAlgError:
            reason = "direction_failure"
            break
        if found is None:
            reason = "step_collapse"
            break

        state, step = found
        if it % RESAMPLE_EVERY == 0:
            resampled = _resampled(state, source, params.k)
            if resampled is not None:
                state = resampled
                resamples += 1
        # the replaced state, which holds its DtN matrix L and its shape
        # Hessian H, must not outlive the next line search
        found = resampled = None
        records.append(_record(it, state, grad_norm(state), step))
        if callback is not None:
            callback(records[-1], state.curve)
    if records[-1].grad_norm <= tol and reason == "max_iters":
        reason = "gradient"

    return FlowResult(
        curve=state.curve,
        records=records,
        reason=reason,
        iterations=records[-1].iteration,
        resamples=resamples,
        rejected=rejected,
    )


def convergence_report(result):
    """Summary dict of a finished run (deterministic content only)."""
    first, last = result.records[0], result.records[-1]
    center, radius = fit_circle(result.curve.points)
    return {
        "reason": result.reason,
        "iterations": result.iterations,
        "resamples": result.resamples,
        "J_initial": first.J,
        "J_final": last.J,
        "grad_norm_initial": first.grad_norm,
        "grad_norm_final": last.grad_norm,
        "grad_drop": result.grad_drop,
        "fit_center": [float(center[0]), float(center[1])],
        "fit_radius": radius,
        "circle_deviation": last.circle_deviation,
        "final_min_kappa": last.min_kappa,
        "final_max_kappa": last.max_kappa,
    }

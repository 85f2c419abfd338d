"""Riemannian Newton descent of the shape functional.

Each iteration solves the regularized Newton system

    (H + mu G) x = psi,    G = diag(1 + A kappa^2),
    mu = max(0, -lambda0(G^-1/2 H G^-1/2)) + k^2 / 2,

on the assembled direct Hessian H of the state (``shape.direct_hessian``;
lambda0 is its lowest eigenvalue relative to the metric weight).  lambda0
is computed only when a Cholesky test finds W H (W = diag(w)) not positive
definite, by the shared weighted spectrum solve above a Weyl floor;
otherwise lambda0 > 0 and mu = k^2 / 2.  The iteration flows
the curve by -step * x.  H + mu G is positive definite in the arclength
product, so x is a descent direction whatever the curvature of J.  The line
search starts every iteration at the unit Newton step and backtracks under
an Armijo test on the half-weighted slope -sum(psi x w) / 2 (the
finite-difference calibration of the first variation).  The stopping rule
reads the metric gradient psi / (1 + A kappa^2), and the node distribution
is re-equalized by arclength every few accepted steps so the spectral
quadrature stays healthy.  ``FlowConfig`` holds the stopping rule only
(``max_iters``, ``grad_tol_rel``); the line-search and resampling
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
GRAD_TOL = 1e-12
ARMIJO_C1 = 1e-4
SHRINK = 0.5
MAX_BACKTRACKS = 30
RESAMPLE_EVERY = 5


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
    """Solution x of the regularized Newton system (H + mu G) x = psi.

    The system is posed in the arclength product: W H is symmetric and
    W G diagonal positive (W = diag(w)), and mu shifts the lowest
    eigenvalue lambda0 of the pencil (W H, W G) up to k^2 / 2, so
    W (H + mu G) is positive definite and its Cholesky factor exists.  A
    Cholesky factorization of W H tests the sign first: when it succeeds,
    lambda0 > 0 and mu = k^2 / 2.  Only when it fails is lambda0, that of
    G^-1 H, taken from ``shape.symmetric_spectrum`` in the array
    G^-1 H, which it consumes, above the Weyl floor min(d / g) - k^2 / 2.
    H is diag(d), d = dpsi/dnu + kappa psi the ``pointwise_density``, plus
    2 U L U, which is positive semidefinite in the arclength product, so
    lambda0 >= min(d / g); the k^2 / 2 below it absorbs rounding.  From
    n = 1024 the solve is block shift-invert Lanczos above that floor;
    below that size, if the floor fails its Cholesky test, or if Lanczos
    does not converge within its basis (the lowest eigenvalues of a
    kinked iterate can cluster), it is the dense subset solve.
    """
    w = state.curve.weights
    g = metric_weight(state.curve, params)
    wg = w * g
    H = direct_hessian(state)
    wh = w[:, None] * H
    try:
        # positive definite W H: every eigenvalue of the pencil is positive
        scipy.linalg.cho_factor(wh, check_finite=False)
        mu = 0.5 * state.k**2
    except scipy.linalg.LinAlgError:
        floor = float(np.min(pointwise_density(state) / g)) - 0.5 * state.k**2
        lam0 = symmetric_spectrum(H / g[:, None], wg, 1, floor)[0]
        mu = max(0.0, -float(lam0)) + 0.5 * state.k**2
    wh[np.diag_indices_from(wh)] += mu * wg
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(wh), w * state.psi)


def descend(curve, source, params, config=None, callback=None):
    """Run the Riemannian Newton descent from the given curve.

    ``params`` carries k and the curvature weight A.  Stops when the metric
    gradient norm falls under max(GRAD_TOL, grad_tol_rel * initial norm),
    the iteration budget runs out, or the line search collapses (all
    MAX_BACKTRACKS + 1 trials rejected).  Trial curves that self-intersect
    or pinch the source clearance, singular boundary systems and failed
    Armijo tests count as rejected trials in ``FlowResult.rejected``.  A
    resampled curve that fails validation or its solve is dropped and the
    accepted state kept; ``FlowResult.resamples`` counts the resamples kept.
    ``callback(record, curve)`` fires on every accepted iterate including
    the initial one.
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
        J0 = evaluate_J(state)
        x = newton_direction(state, params)
        # half-weighted slope of J along -x (matches finite differences)
        slope = -0.5 * float(np.sum(state.psi * x * state.curve.weights))
        step = 1.0
        trial_state = None
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
                    trial_state = cand
                    break
                rejected["armijo"] += 1
            step *= SHRINK
        if trial_state is None:
            reason = "step_collapse"
            break

        state = trial_state
        # once a resample below replaces state, these names would keep the
        # replaced state's operators alive through the next line search
        trial_state = cand = None
        if it % RESAMPLE_EVERY == 0:
            try:
                state = solve_state(resample_by_arclength(state.curve),
                                    source, params.k)
                resamples += 1
            except (GeometryError, SolverError):
                pass  # the accepted state has passed both checks
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

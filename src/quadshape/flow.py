"""Riemannian Newton descent of the shape functional.

Each iteration solves the regularized Newton system

    (H + mu G) x = psi,    G = diag(1 + A kappa^2),
    mu = max(0, -lambda0(G^-1/2 H G^-1/2)) + k^2 / 2,

on the assembled direct Hessian H of the state (``shape.direct_hessian``;
lambda0 is its lowest eigenvalue relative to the metric weight), and flows
the curve by -step * x.  H + mu G is positive definite in the arclength
product, so x is a descent direction whatever the curvature of J.  The line
search starts every iteration at the unit Newton step and backtracks under
an Armijo test on the half-weighted slope -sum(psi x w) / 2 (the
finite-difference calibration of the first variation).  The stopping rule
reads the metric gradient psi / (1 + A kappa^2), and the node distribution
is re-equalized by arclength every few accepted steps so the spectral
quadrature stays healthy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bem import SolverError
from .geometry import (Curve, GeometryError, flow_curve, metric_inner,
                       metric_weight, resample_by_arclength)
from .riemannian import riemannian_gradient
from .shape import ShapeState, direct_hessian, evaluate_J, solve_state


@dataclass(frozen=True)
class FlowConfig:
    """Stopping and line-search knobs for the Newton descent.

    The run stops when the metric gradient norm falls under
    max(grad_tol, grad_tol_rel * initial norm) or after ``max_iters``
    accepted steps.  Each line search starts at the unit Newton step,
    multiplies the step by ``shrink`` after each rejected trial and gives
    up after ``max_backtracks`` rejections or once the step would go below
    ``step_min``; a trial is accepted when J drops by at least
    ``armijo_c1`` times the predicted decrease.  ``resample_every``
    accepted steps (0: never) the nodes are re-equalized by arclength.
    """

    max_iters: int = 500
    grad_tol: float = 1e-12
    grad_tol_rel: float = 1e-4
    step_min: float = 1e-14
    armijo_c1: float = 1e-4
    shrink: float = 0.5
    max_backtracks: int = 30
    resample_every: int = 5


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
    trials by reason (keys ``REJECTION_REASONS``); like ``elapsed`` it stays
    out of the deterministic report and trace."""

    initial_curve: Curve
    curve: Curve
    state: ShapeState
    records: list
    reason: str
    iterations: int
    resamples: int
    rejected: dict
    elapsed: float

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
    eigenvalue of the pencil (W H, W G) up to k^2 / 2, so the matrix
    W (H + mu G) is positive definite and its Cholesky factor exists.
    """
    w = state.curve.weights
    wg = w * metric_weight(state.curve, params)
    wh = w[:, None] * direct_hessian(state)
    s = 1.0 / np.sqrt(wg)
    lam0 = scipy.linalg.eigh(s[:, None] * wh * s[None, :], eigvals_only=True,
                             subset_by_index=[0, 0])[0]
    mu = max(0.0, -float(lam0)) + 0.5 * state.k**2
    wh[np.diag_indices_from(wh)] += mu * wg
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(wh), w * state.psi)


def descend(curve, source, params, config=None, callback=None):
    """Run the Riemannian Newton descent from the given curve.

    ``params`` carries k and the curvature weight A.  Stops when the metric
    gradient norm falls under max(grad_tol, grad_tol_rel * initial norm),
    the iteration budget runs out, or the line search collapses: no trial
    step ever goes below ``step_min``.  Trial curves that self-intersect or
    pinch the source clearance, singular boundary systems and failed Armijo
    tests count as rejected trials in ``FlowResult.rejected``.
    ``callback(record, curve)`` fires on every accepted iterate including
    the initial one.
    """
    if config is None:
        config = FlowConfig()
    t_start = time.perf_counter()
    state = solve_state(curve, source, params.k)
    records = []
    resamples = 0
    reason = "max_iters"

    def grad_norm(state):
        grad = riemannian_gradient(state.curve, params, state.psi)
        return np.sqrt(metric_inner(state.curve, params, grad.values,
                                    grad.values))

    records.append(_record(0, state, grad_norm(state), 0.0))
    if callback is not None:
        callback(records[-1], state.curve)
    tol = max(config.grad_tol, config.grad_tol_rel * records[0].grad_norm)

    accepted = 0
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
        for _ in range(config.max_backtracks + 1):
            if step < config.step_min:
                break
            try:
                trial = flow_curve(state.curve, x, -step)
                cand = solve_state(trial, source, params.k)
            except GeometryError:
                rejected["geometry"] += 1
            except SolverError:
                rejected["solver"] += 1
            else:
                if evaluate_J(cand) <= J0 + config.armijo_c1 * step * slope:
                    trial_state = cand
                    break
                rejected["armijo"] += 1
            step *= config.shrink
        if trial_state is None:
            reason = "step_collapse"
            break

        state = trial_state
        accepted += 1
        if config.resample_every and accepted % config.resample_every == 0:
            rcurve = resample_by_arclength(state.curve)
            state = solve_state(rcurve, source, params.k)
            resamples += 1
        records.append(_record(it, state, grad_norm(state), step))
        if callback is not None:
            callback(records[-1], state.curve)
    if records[-1].grad_norm <= tol and reason == "max_iters":
        reason = "gradient"

    return FlowResult(
        initial_curve=curve,
        curve=state.curve,
        state=state,
        records=records,
        reason=reason,
        iterations=records[-1].iteration,
        resamples=resamples,
        rejected=rejected,
        elapsed=time.perf_counter() - t_start,
    )


TRACE_HEADER = "iter,J,gradnorm,step,minK,maxK,circdev"


def trace_rows(result):
    """CSV rows (no header) for the per-iteration trace."""
    rows = []
    for r in result.records:
        rows.append("%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % (
            r.iteration, r.J, r.grad_norm, r.step,
            r.min_kappa, r.max_kappa, r.circle_deviation))
    return rows


def write_trace(result, path):
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for row in trace_rows(result):
            fh.write(row + "\n")


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

"""Gradient descent of the shape functional under the weighted metric.

Each iteration flows the curve along minus the metric gradient
psi / (1 + A kappa^2) with an Armijo backtracking line search.  The
predicted slope uses the half-weighted boundary form (the finite-difference
calibration of the first variation), the accepted step doubles on success,
and the node distribution is re-equalized by arclength every few accepted
steps so the spectral quadrature stays healthy on long runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .bem import SolverError
from .geometry import (Curve, GeometryError, flow_curve, metric_inner,
                       resample_by_arclength)
from .riemannian import riemannian_gradient
from .shape import ShapeState, evaluate_J, solve_state


@dataclass(frozen=True)
class FlowConfig:
    """Line-search and stopping knobs for the descent loop."""

    max_iters: int = 500
    grad_tol: float = 1e-12
    grad_tol_rel: float = 1e-4
    step_init: float = 0.1
    step_max: float = 0.25
    step_min: float = 1e-14
    armijo_c1: float = 1e-4
    shrink: float = 0.5
    max_backtracks: int = 30
    growth: float = 2.0
    resample_every: int = 5
    # The explicit flow is stiff: the second variation acts like a first
    # order operator, so grid mode m feels a stepsize limit ~ 1/m and plain
    # gradient steps let near-grid modes grow while J still decreases.
    # With ``stabilized`` the direction is damped modewise by 1/(1 + tau m)
    # (tau matched to the stiff symbol), which caps the effective step of
    # every mode inside its stability region without freezing any of them.
    stabilized: bool = True


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


def descend(curve, source, params, config=None, callback=None):
    """Run the metric gradient descent from the given curve.

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
    step = config.step_init
    reason = "max_iters"

    grad = riemannian_gradient(state.curve, params, state.psi)
    norm2 = metric_inner(state.curve, params, grad.values, grad.values)
    records.append(_record(0, state, np.sqrt(norm2), 0.0))
    if callback is not None:
        callback(records[-1], state.curve)
    tol = max(config.grad_tol, config.grad_tol_rel * records[0].grad_norm)

    def direction(state, grad, step):
        coef = np.fft.rfft(grad.values)
        if config.stabilized:
            # stability of mode m needs step * lambda(m) < 2 with
            # lambda(m) ~ 2 u_nu^2 (2 pi m / L) / (1 + A kappa^2); damping
            # by 1/(1 + tau m) with tau = step * lambda(1) saturates the
            # effective step * lambda product at 1 for every mode
            xi = 2.0 * np.pi / state.curve.perimeter
            weight = 1.0 + params.A * float(np.min(state.curve.kappa**2))
            tau = 2.0 * step * float(np.max(state.u_nu**2)) * xi / weight
            coef = coef / (1.0 + tau * np.arange(len(coef)))
        return np.fft.irfft(coef, state.curve.n)

    accepted = 0
    rejected = dict.fromkeys(REJECTION_REASONS, 0)
    for it in range(1, config.max_iters + 1):
        if records[-1].grad_norm <= tol:
            reason = "gradient"
            break
        J0 = evaluate_J(state)
        d = direction(state, grad, step)
        # half-weighted slope of J along -d (matches finite differences)
        slope = -0.5 * float(np.sum(state.psi * d * state.curve.weights))
        if not slope < 0.0:
            # damping is not an orthogonal projection, so fall back to the
            # raw gradient (always a strict descent direction)
            d = grad.values
            slope = -0.5 * norm2
        if not slope < 0.0:
            reason = "step_collapse"
            break
        trial_state = None
        for _ in range(config.max_backtracks + 1):
            if step < config.step_min:
                break
            try:
                trial = flow_curve(state.curve, d, -step)
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
        grad = riemannian_gradient(state.curve, params, state.psi)
        norm2 = metric_inner(state.curve, params, grad.values, grad.values)
        records.append(_record(it, state, np.sqrt(norm2), step))
        if callback is not None:
            callback(records[-1], state.curve)
        step = min(step * config.growth, config.step_max)
    else:
        it = config.max_iters
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

"""Shape functional, boundary gradient, and shape Hessian routes.

The state u solves -lap(u) = f in the region bounded by the curve with
u = 0 on the boundary, where f is a disjoint union of uniform disks kept
away from the boundary.  The shape functional is

    J = -1/2 integral |grad u|^2 dx + (k^2 / 2) |Omega|,

whose critical points satisfy -du/dnu = k on the whole boundary.  J is
evaluated from boundary data only: integral |grad u|^2 = integral f u, and
Green's second identity turns the volume integral into the source's closed
form self energy plus a boundary integral of the disk potential's trace
times u_nu, so J costs O(n) once the state is solved.  The first
variation is carried by the boundary density psi = k^2 - u_nu^2; the
functions below expose its boundary integral, several independent routes to
the second variation, finite-difference arbiters for both, and spectral
stability diagnostics built on the Dirichlet-to-Neumann map.  The direct
route is one dense operator per state, ``direct_hessian``:

    H = diag(dpsi/dnu + kappa psi) + 2 U L U,    U = diag(u_nu),

with L the Dirichlet-to-Neumann matrix, symmetrized in sum(a b w) and
memoized on the state like J; the Newton descent in ``quadshape.flow``
solves with it.  The two aggregated reports, ``hessian_report`` and
``stability_controls``, return plain dicts: the ``hessian`` and
``stability`` blocks that the ``hessian`` and ``diagnose`` commands of
``quadshape.cli`` write to report.json as they are.

Conventions worth stating once: the boundary integral sum(psi * alpha * w)
is reported as printed, while finite differences of J along normal flows
consistently produce half of it; the ratio is reported, never silently
absorbed.  Likewise the pointwise second-variation density is computed in
both curvature orientation conventions, and the Steklov-type quadratic form
is kept separate from the finite-difference arbiter, from which its
curvature term differs in sign.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .bem import AccuracyWarning, BoundaryOperators
from .geometry import (Curve, GeometryError, MetricParams, NormalField,
                       field_values, flow_curve)
from .potential import (SourceTerm, clearance_margin, eval_potential,
                        eval_potential_gradient, source_energy)
from .riemannian import covariant_derivative


@dataclass
class ShapeState:
    """Solved state on one curve: layer density, boundary trace of the disk
    potential, Neumann trace, gradient density psi = k^2 - u_nu^2, and the
    operator bundle that produced them."""

    curve: Curve
    source: SourceTerm
    k: float
    ops: BoundaryOperators
    density: np.ndarray
    trace: np.ndarray
    u_nu: np.ndarray
    psi: np.ndarray
    _J: float | None = field(default=None, repr=False)
    _H: np.ndarray | None = field(default=None, repr=False)


def solve_state(curve, source, k):
    """Solve the Dirichlet state on the curve and collect boundary data.

    The particular solution is the closed-form disk potential; the harmonic
    correction comes from a single-layer solve against minus its trace, so
    u = 0 on the boundary holds by construction and u_nu is assembled from
    the closed-form gradient plus the density's jump relation.
    """
    if not np.isfinite(k) or k <= 0:
        raise ValueError("k must be positive")
    if clearance_margin(source, curve) < 0.0:
        raise GeometryError("source disks must sit inside the curve with one "
                            "radius of clearance to the boundary")
    ops = BoundaryOperators(curve)
    trace = eval_potential(source, curve.points)
    density = ops.solve_dirichlet(-trace)
    grad_p = eval_potential_gradient(source, curve.points)
    u_nu = np.sum(grad_p * curve.normal, axis=1) + ops.neumann_trace(density)
    psi = k**2 - u_nu**2
    return ShapeState(curve, source, float(k), ops, density, trace, u_nu, psi)


def evaluate_J(state):
    """Shape functional from boundary data, as a Python float.

    Integration by parts gives integral |grad u|^2 = integral f u.  Split
    u = u_p + w with u_p the disk potential and w harmonic, w = -u_p on the
    boundary.  Then integral f u_p is closed form (``source_energy``) and
    Green's second identity gives integral f w = boundary integral of
    u_p * u_nu, a trapezoid sum over the stored trace.  Computed once per
    state and memoized on it.
    """
    if state._J is None:
        boundary = float(np.sum(state.trace * state.u_nu * state.curve.weights))
        energy = source_energy(state.source) + boundary
        state._J = -0.5 * energy + 0.5 * state.k**2 * state.curve.area
    return state._J


def hadamard_derivative(state, direction):
    """Boundary form of the first variation: the raw boundary integral
    sum(psi * alpha * w).

    Finite differences of J along the same flow consistently give half of
    it (see ``fd_first_derivative``), and the ratio is surfaced in reports.
    """
    alpha = field_values(direction, state.curve.n)
    return float(np.sum(state.psi * alpha * state.curve.weights))


def _stencil(state, direction, t_step=None, source_velocity=None):
    """Solve the curves flowed by +t, -t, +t/2 and -t/2 along ``direction``.

    Returns ``(t, retries, [J at each], ((psi, weights) at +t and -t))``;
    no solved state is kept, since each one's operator bundle holds two
    n x n matrices.  t defaults to 1e-3 diam.  If a flowed curve
    self-intersects or violates source clearance, t shrinks by 4, up to 5
    times.  ``source_velocity`` translates the source with the flow.
    """
    curve, source, k = state.curve, state.source, state.k
    if t_step is None:
        t_step = 1e-3 * curve.diameter

    def solved(t):
        src = source if source_velocity is None else source.translated(
            (t * source_velocity[0], t * source_velocity[1]))
        flowed = solve_state(flow_curve(curve, direction, t), src, k)
        return evaluate_J(flowed), (flowed.psi, flowed.curve.weights)

    retries = 0
    while True:
        try:
            out = [solved(t) for t in (t_step, -t_step,
                                       0.5 * t_step, -0.5 * t_step)]
            return t_step, retries, [j for j, _ in out], (out[0][1], out[1][1])
        except GeometryError:
            retries += 1
            if retries > 5:
                raise
            t_step *= 0.25


def fd_first_derivative(state, direction, t_step=None):
    """Richardson-extrapolated central difference of t -> J(state's curve
    flowed by direction), over ``_stencil``."""
    t, _, (jp, jm, jph, jmh), _ = _stencil(state, direction, t_step)
    coarse = (jp - jm) / (2.0 * t)
    fine = (jph - jmh) / t
    return (4.0 * fine - coarse) / 3.0


# -- second variation routes ----------------------------------------------


def steklov_form(state, a, b=None):
    """Curvature-Steklov quadratic form of the second variation at a
    critical shape:  k^2 ( integral a L b ds - integral kappa a b ds ).

    L is the Dirichlet-to-Neumann matrix.  On the critical disk (R = k = 1)
    it gives -2 pi on constants and pi (m - 1) on cos m theta, where the
    finite-difference arbiter gives 2 pi and pi (m + 1): the curvature term
    has the opposite sign in every mode.  The discrepancy is reported side
    by side, not resolved.
    """
    av = field_values(a, state.curve.n)
    bv = av if b is None else field_values(b, state.curve.n)
    w = state.curve.weights
    dtn_term = float(np.sum(av * (state.ops.dtn_matrix @ bv) * w))
    curv_term = float(np.sum(state.curve.kappa * av * bv * w))
    return state.k**2 * (dtn_term - curv_term)


def psi_normal_derivative(state, method="interior"):
    """Normal derivative of the gradient density psi = k^2 - |grad u|^2.

    method "interior": closed form 2 kappa u_nu^2, from u_nunu = -kappa u_nu
    (the source vanishes near the boundary and the tangential trace of u is
    constant).
    method "mirror": -2 kappa u_nu^2, the same expression with curvature
    measured against the inward normal; kept for side-by-side reporting.
    method "sampled": one-sided second-order difference of |grad u|^2
    at depths eps and 2 eps inside along -nu, eps = 4 diam / n; a
    cross-check of the closed form, accurate only to a few percent (the
    sampling depth trades quadrature decay against stencil truncation), and
    it assumes the sample points stay outside the source disks.
    """
    kap = state.curve.kappa
    if method == "interior":
        return 2.0 * kap * state.u_nu**2
    if method == "mirror":
        return -2.0 * kap * state.u_nu**2
    if method != "sampled":
        raise ValueError("method must be 'interior', 'mirror', or 'sampled'")
    eps = 4.0 * state.curve.diameter / state.curve.n
    g0 = state.u_nu**2
    samples = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        for d in (eps, 2.0 * eps):
            pts = state.curve.points - d * state.curve.normal
            grad = eval_potential_gradient(state.source, pts)
            grad = grad + state.ops.eval_interior_gradient(state.density, pts)
            samples.append(np.sum(grad * grad, axis=1))
    # d g / d nu from values at 0, -eps, -2 eps (second order one-sided)
    dg = (3.0 * g0 - 4.0 * samples[0] + samples[1]) / (2.0 * eps)
    return -dg


def pointwise_density(state, dpsi_method="interior"):
    """Pointwise part dpsi/dnu + kappa psi of the direct Hessian, with
    dpsi/dnu from ``psi_normal_derivative(state, dpsi_method)``: the
    diagonal that ``direct_hessian`` adds to 2 U L U."""
    return (psi_normal_derivative(state, dpsi_method)
            + state.curve.kappa * state.psi)


def direct_hessian(state):
    """Assembled direct Hessian operator of the raw boundary form.

    The derivative of the boundary gradient integral along a normal flow
    splits into the state sensitivity (the harmonic extension term, carrying
    the Dirichlet-to-Neumann matrix L) and a pointwise part, so as a matrix
    on nodal values

        H = diag(dpsi/dnu + kappa psi) + 2 U L U,    U = diag(u_nu),

    with dpsi/dnu the "interior" closed form 2 kappa u_nu^2.  The discrete L
    is symmetric in the arclength product sum(a b w) only up to quadrature
    error, so H is symmetrized in that product: W H is a symmetric matrix
    to rounding (W = diag(w)).  Like J, raw-form quantities are twice the
    finite-difference ones: sum(a H a w) / 2 is J'' along the flow by a.
    Assembled once per state (one dense n x n matrix) and memoized on it,
    so it is freed with the state; it is read-only, since every later
    reader of the state sees the same array.
    """
    if state._H is None:
        w = state.curve.weights
        u = state.u_nu
        U2L = 2.0 * u[:, None] * state.ops.dtn_matrix
        U2L *= u[None, :]
        # H = (U2L + W^-1 U2L^T W) / 2 in place, in C order, which fixes
        # the summation order of the products taken with H
        H = np.ascontiguousarray(U2L.T)
        H *= w[None, :]
        H /= w[:, None]
        H += U2L
        H *= 0.5
        H[np.diag_indices_from(H)] += pointwise_density(state)
        H.setflags(write=False)
        state._H = H
    return state._H


def direct_hessian_form(state, a, b=None):
    """Direct boundary evaluation of the metric Hessian form.

    This is sum(a (H b) w) for the assembled operator
    ``direct_hessian(state)``, the harmonic-extension sensitivity
    sum 2 u_nu L(u_nu a) b w plus the pointwise density
    sum (dpsi/dnu + kappa psi) a b w; the value matches the flow route
    (``_flow_hessian``) up to the connection correction, which vanishes
    at critical shapes.  The form carries no metric parameter: it is
    independent of A by construction.
    """
    av = field_values(a, state.curve.n)
    bv = av if b is None else field_values(b, state.curve.n)
    w = state.curve.weights
    return float(np.sum(av * (direct_hessian(state) @ bv) * w))


def pointwise_hessian_form(state, a, b=None, dpsi_method="interior"):
    """The pointwise density of the direct form, without the state term.

    sum (dpsi/dnu + kappa psi) a b w, the ``pointwise_density`` for
    ``dpsi_method``.  On the critical disk this reduces to
    +/- 2 k^2 sum(kappa a b w) depending on the method.
    """
    av = field_values(a, state.curve.n)
    bv = av if b is None else field_values(b, state.curve.n)
    return float(np.sum(pointwise_density(state, dpsi_method) * av * bv
                        * state.curve.weights))


def _flow_hessian(state, second, a, b, params):
    """Flow-route Hessian form of the fields a, b from the +-t states of
    ``second = fd_second_derivative(state, a, t_step)``, at its own step."""
    t, ((psi_p, w_p), (psi_m, w_m)) = second.step, second.flowed
    beta = b.values
    # hadamard_derivative on each flowed state
    first = (float(np.sum(psi_p * beta * w_p))
             - float(np.sum(psi_m * beta * w_m))) / (2.0 * t)
    nabla = covariant_derivative(state.curve, params, a, b)
    return first - hadamard_derivative(state, nabla.values)


@dataclass(frozen=True)
class SecondDifference:
    """Result of the finite-difference second derivative of J.  ``flowed``
    holds (psi, weights) of the curves flowed by +step and -step."""

    value: float
    richardson_delta: float
    step: float
    retries: int
    flowed: tuple


def fd_second_derivative(state, direction, t_step=None, source_velocity=None):
    """Richardson-extrapolated second difference of J along a normal flow.

    Five-point stencil (``_stencil``): central second differences at steps
    t and t/2 are combined to fourth order; the gap between the result and
    the t/2 difference is reported as a convergence indicator.  If a flowed
    curve self-intersects or violates source clearance the step shrinks by
    4, up to 5 times.  ``source_velocity`` translates the source with the
    flow, which makes J exactly invariant along rigid translations
    (direction <e, nu> with velocity e).  The centre value is the state's
    own (memoized) J.  It is the only second difference of J: the flow
    route reads its +-t states.
    """
    t, retries, (jp, jm, jph, jmh), flowed = _stencil(
        state, direction, t_step, source_velocity)
    j0 = evaluate_J(state)
    coarse = (jp - 2.0 * j0 + jm) / t**2
    fine = (jph - 2.0 * j0 + jmh) / (0.5 * t)**2
    value = (4.0 * fine - coarse) / 3.0
    return SecondDifference(value, abs(value - fine), t, retries, flowed)


# -- aggregated reports ----------------------------------------------------


HESSIAN_ROUTES = ("fd", "flow", "direct", "direct_local",
                  "direct_local_mirror", "steklov")


def hessian_report(state, directions, A=1.0, t_step=1e-3):
    """Evaluate every Hessian route on all direction pairs.

    ``directions`` is a list of mode labels ('const', 'cos2', ...).  One
    ``fd_second_derivative`` per direction serves both its diagonal value
    Q(a) and the flow route of every pair.  An off-diagonal pair's finite
    difference is the bilinear identity
    B(a, b) = (Q(a + b) - (Q(a) + Q(b))) / 2, which reuses the diagonal
    values and adds one stencil along a + b: at four solves per stencil,
    d directions take 2 d (d + 1) solves.  Both sums commute, so every
    pair's value is bit for bit independent of the order of ``directions``.
    Fitted slopes regress each route against the finite-difference column.
    Returns the report's ``hessian`` block: a dict with keys directions, A,
    k, t_step, pairs, fitted_slopes and max_flow_asymmetry, in that order.
    """
    k = state.k
    fields = [NormalField.from_mode(d, state.curve.n) for d in directions]
    params = MetricParams(A=A, k=k)
    seconds = [fd_second_derivative(state, f, t_step) for f in fields]
    q = [s.value for s in seconds]

    def flow_value(i, j):
        return _flow_hessian(state, seconds[i], fields[i], fields[j], params)

    pairs = []
    asym = 0.0
    for i in range(len(fields)):
        for j in range(i, len(fields)):
            ai, aj = fields[i].values, fields[j].values
            row = {"i": i, "j": j, "pair": f"{directions[i]}*{directions[j]}"}
            if i == j:
                row["fd"] = q[i]
            else:
                qp = fd_second_derivative(state, ai + aj, t_step=t_step).value
                row["fd"] = 0.5 * (qp - (q[i] + q[j]))
            row["flow"] = flow_value(i, j)
            flow_t = flow_value(j, i)
            row["flow_transposed"] = flow_t
            asym = max(asym, abs(row["flow"] - flow_t))
            row["direct"] = direct_hessian_form(state, ai, aj)
            row["direct_local"] = pointwise_hessian_form(state, ai, aj)
            row["direct_local_mirror"] = pointwise_hessian_form(
                state, ai, aj, dpsi_method="mirror")
            row["steklov"] = steklov_form(state, ai, aj)
            pairs.append(row)

    ref = np.array([p["fd"] for p in pairs])
    fitted = {}
    denom = float(np.sum(ref * ref))
    for route in HESSIAN_ROUTES[1:]:   # every route but the fd reference
        col = np.array([p[route] for p in pairs])
        fitted[route] = float(np.sum(col * ref) / denom) if denom > 0 else float("nan")
    return {"directions": list(directions), "A": A, "k": k, "t_step": t_step,
            "pairs": pairs, "fitted_slopes": fitted,
            "max_flow_asymmetry": asym}


# -- stability diagnostics -------------------------------------------------


_SYM_BLOCK = 128

# Sizes and constants of the Lanczos route of ``symmetric_spectrum``.
# Measured with BLAS on one thread on the DtN matrix of a two-disk radial
# curve, dense subset solve against Lanczos, min of 3: 16 eigenvalues take
# 12 against 22 ms at n = 512 and 83 against 34 ms at n = 1024; 32
# eigenvalues at n = 1024 take 87 against 51 ms; at n = 2048 dense is
# faster from 64 eigenvalues on.  The basis holds n / _KRYLOV_CAP_RATIO
# vectors (0.125 n x n).  A block column that keeps _BREAKDOWN_TOL of its
# norm or less after orthogonalization has broken down; on the benchmark's
# curves such columns keep about 1.5e-14 and all others at least 5e-4.
_LANCZOS_MIN_N = 1024
_LANCZOS_N_PER_COUNT = 64
_LANCZOS_BLOCK = 2
_KRYLOV_CAP_RATIO = 8
_LANCZOS_RESTARTS = 6
_LANCZOS_TOL = 1e-12
_BREAKDOWN_TOL = 1e-10


def symmetric_spectrum(buf, weights, count, floor=None, diagonal=None):
    """Lowest ``count`` eigenvalues, ascending, of an operator symmetric in
    the weighted inner product sum(a b w), worked out in and overwriting
    the array ``buf`` that holds it.

    ``count`` is capped at the matrix order.  ``buf`` must be a writeable,
    C-ordered float64 array, whose transpose LAPACK overwrites in place;
    any other, such as the read-only ``dtn_matrix`` of a state, raises
    ``ValueError``, so callers that keep the matrix pass a copy.  The
    similarity transform diag(sqrt w) buf diag(1/sqrt w) and the
    symmetrization 0.5 (a_ij + a_ji) are done in ``buf`` by blocks; IEEE
    addition is commutative, so the result is bit for bit 0.5 (sym + sym.T)
    and exactly symmetric.  Its transpose is then the same matrix in Fortran
    order, which LAPACK takes and overwrites without another copy.

    Every solve consumes the upper triangle and the diagonal of ``buf``
    and leaves its strict lower triangle as it found it.  So one weighted,
    symmetrized ``buf`` serves several operators that differ only on the
    diagonal: given ``diagonal``, the operator's diagonal, the call skips
    the transform and the symmetrization, copies the strict lower triangle
    onto the upper one and writes the transformed ``diagonal``, bit for bit
    what a fresh copy of that operator would give.

    ``floor`` is an optional number below the lowest eigenvalue, such as a
    Weyl bound (``cli.cmd_spectrum`` passes -1 for the DtN matrix).  With
    it, n >= _LANCZOS_MIN_N and count <= n / _LANCZOS_N_PER_COUNT,
    ``_lanczos_lowest`` factors the matrix minus ``floor`` and returns
    floor + 1 / theta from the largest Ritz values theta of its inverse.
    Otherwise, or when the Cholesky factorization refutes the floor or
    Lanczos does not converge, one LAPACK subset solve (``dsyevr``) without
    eigenvectors reads the lower triangle of the Fortran-order matrix, which
    a failed Lanczos run has refilled first.  So a wrong floor or a slow
    run costs time and gives the dense values bit for bit.
    """
    if (buf.dtype != np.float64 or not buf.flags.c_contiguous
            or not buf.flags.writeable):
        raise ValueError("symmetric_spectrum works in a writeable C-ordered "
                         "float64 array")
    s = np.sqrt(weights)
    n = len(weights)
    count = min(count, n)
    if diagonal is None:
        buf *= s[:, None]
        buf /= s[None, :]
        for i0 in range(0, n, _SYM_BLOCK):
            rows = slice(i0, i0 + _SYM_BLOCK)
            for j0 in range(i0, n, _SYM_BLOCK):
                cols = slice(j0, j0 + _SYM_BLOCK)
                upper = buf[rows, cols] + buf[cols, rows].T
                upper *= 0.5
                buf[rows, cols] = upper
                buf[cols, rows] = upper.T
    else:
        _mirror_lower(buf)
        buf[np.diag_indices(n)] = diagonal * s / s
    if (floor is not None and n >= _LANCZOS_MIN_N
            and _LANCZOS_N_PER_COUNT * count <= n):
        vals = _lanczos_lowest(buf, s, count, floor)
        if vals is not None:
            return vals
    return scipy.linalg.eigh(buf.T, eigvals_only=True, overwrite_a=True,
                             check_finite=False,
                             subset_by_index=[0, count - 1], driver="evr")


def _mirror_lower(buf):
    """Copy the strict lower triangle of the square array ``buf`` onto its
    strict upper triangle, by blocks."""
    n = buf.shape[0]
    for i0 in range(0, n, _SYM_BLOCK):
        i1 = min(i0 + _SYM_BLOCK, n)
        block = buf[i0:i1, i0:i1]
        upper = np.triu_indices(i1 - i0, 1)
        block[upper] = block.T[upper]
        buf[i0:i1, i1:] = buf[i1:, i0:i1].T


def _fourier_modes(s, first, count):
    """Columns ``first`` to ``first + count - 1`` of the grid's Fourier
    modes 1, sin t, cos t, sin 2t, cos 2t, ... on t_i = 2 pi i / n, each
    scaled by s, as a Fortran-order n x count array."""
    n = len(s)
    t = (2.0 * np.pi / n) * np.arange(n)
    out = np.empty((n, count), order="F")
    for c in range(count):
        m = (first + c + 1) // 2
        out[:, c] = np.sin(m * t) if (first + c) % 2 else np.cos(m * t)
        out[:, c] *= s
    return out


def _orthonormalize(x):
    """QR factorization of the Fortran-order block ``x``: Q overwrites it,
    R is returned."""
    qr, tau, _, _ = scipy.linalg.lapack.dgeqrf(x, overwrite_a=1)
    r = np.triu(qr[:x.shape[1]])
    scipy.linalg.lapack.dorgqr(qr, tau, overwrite_a=1)
    return r


def _orthogonalize(x, basis):
    """Two Gram-Schmidt passes of the block ``x`` against the orthonormal
    columns of ``basis``, in place; returns basis^T x before them."""
    h = basis.T @ x
    scipy.linalg.blas.dgemm(-1.0, basis, h, 1.0, x, overwrite_c=1)
    h2 = basis.T @ x
    scipy.linalg.blas.dgemm(-1.0, basis, h2, 1.0, x, overwrite_c=1)
    return h + h2


def _lanczos_lowest(buf, s, count, floor):
    """Lowest ``count`` eigenvalues of the symmetric matrix ``buf`` by block
    shift-invert Lanczos, or None when ``floor`` is not below the spectrum
    or the run does not converge.

    ``dpotrf`` factors a - floor I = C C^T in the lower triangle of the
    Fortran-order view a = buf.T, the upper triangle of ``buf``; its
    failure refutes the floor.  Otherwise ``_block_lanczos`` runs on
    (a - floor I)^-1 and gives floor + 1 / theta.  When the floor is
    refuted or the run does not converge, the consumed triangle is refilled
    from the untouched one and the diagonal restored, so ``buf`` holds the
    matrix again for the dense solve.
    """
    a = buf.T
    n = a.shape[0]
    diag = np.diag_indices(n)
    saved = a[diag]
    a[diag] -= floor
    _, info = scipy.linalg.lapack.dpotrf(a, lower=1, clean=0, overwrite_a=1)
    if info == 0:
        theta = _block_lanczos(a, s, count)
        if theta is not None:
            return floor + 1.0 / theta
    _mirror_lower(buf)
    a[diag] = saved
    return None


def _block_lanczos(c, s, count):
    """The ``count`` largest eigenvalues, descending, of (C C^T)^-1 for the
    Cholesky factor C in the lower triangle of ``c``, or None.

    Block Lanczos with full reorthogonalization, in blocks of
    p = max(count, _LANCZOS_BLOCK) columns: a ``dpotrs`` with p right-hand
    sides is bound by memory traffic and costs little more than one with
    two.  On the critical disk the grid's Fourier modes are the
    eigenvectors, and on near circles they stay close, so the start block
    is the p - _LANCZOS_BLOCK lowest modes 1, sin t, cos t, ..., scaled by
    sqrt(w), then _LANCZOS_BLOCK fixed pseudo-random columns, which give
    every eigenvector a component (16 eigenvalues at n = 1024: 7 to 10
    block solves on the benchmark's curves, 2 on the disk).  A column whose
    orthogonalized residual falls to _BREAKDOWN_TOL of its norm lies in the
    basis to rounding (the constant for L, every start mode on the disk);
    it is replaced by the next Fourier mode, with zero coupling in T.

    The run stops when each of the ``count`` largest Ritz values theta has
    the residual bound |B y_last| <= _LANCZOS_TOL theta.  A full basis of
    cap = n / _KRYLOV_CAP_RATIO vectors restarts, at most _LANCZOS_RESTARTS
    times, from its k = max(p, (cap - p) / 2) largest Ritz vectors Y and
    the last block, which A^-1 Y reaches through B y_last (a thick
    restart).
    """
    n = c.shape[0]
    p = max(count, _LANCZOS_BLOCK)
    cap = n // _KRYLOV_CAP_RATIO
    V = np.empty((n, cap), order="F")
    T = np.zeros((cap, cap))
    mode = p - _LANCZOS_BLOCK
    V[:, :mode] = _fourier_modes(s, 0, mode)
    V[:, mode:p] = np.random.default_rng(0).standard_normal(
        (n, _LANCZOS_BLOCK))
    _orthonormalize(V[:, :p])
    j = 0
    for restart in range(_LANCZOS_RESTARTS + 1):
        while j + 2 * p <= cap:
            blk, nxt = slice(j, j + p), slice(j + p, j + 2 * p)
            x = V[:, nxt]
            x[...] = V[:, blk]
            scipy.linalg.lapack.dpotrs(c, x, lower=1, overwrite_b=1)
            basis = V[:, :j + p]
            norms = np.linalg.norm(x, axis=0)
            h = _orthogonalize(x, basis)
            d = h[blk]
            T[blk, blk] = 0.5 * (d + d.T)
            lost = np.linalg.norm(x, axis=0) <= _BREAKDOWN_TOL * norms
            if lost.any():
                fresh = _fourier_modes(s, mode, int(lost.sum()))
                mode += fresh.shape[1]
                _orthogonalize(fresh, basis)
                x[:, lost] = fresh
            r = _orthonormalize(x)
            r[:, lost] = 0.0
            j += p
            theta, y = np.linalg.eigh(T[:j, :j])
            bound = np.linalg.norm(r @ y[blk, -count:], axis=0)
            if np.all(bound <= _LANCZOS_TOL * theta[-count:]):
                return theta[:-count - 1:-1]
            T[nxt, blk] = r
            T[blk, nxt] = r.T
        if restart == _LANCZOS_RESTARTS:
            return None
        # thick restart: the k largest Ritz vectors, formed in place by rows,
        # then the next block, coupled to them through r y_last
        k = max(p, (cap - p) // 2)
        for i0 in range(0, n, _SYM_BLOCK):
            rows = slice(i0, i0 + _SYM_BLOCK)
            V[rows, :k] = V[rows, :j] @ y[:, -k:]
        V[:, k:k + p] = V[:, j:j + p]
        coupling = r @ y[j - p:j, -k:]
        T[:] = 0.0
        T[:k, :k] = np.diag(theta[-k:])
        T[k:k + p, :k] = coupling
        T[:k, k:k + p] = coupling.T
        j = k


def stability_controls(state, count, buf=None):
    """Curvature sign controls and the lowest ``count`` eigenvalues of
    k^2 (L -+ kappa).

    Both operator signs are assembled because they genuinely disagree and
    only the finite-difference data can adjudicate: the minus sign follows
    the Steklov quadratic form above, the plus sign is the variant whose
    spectrum matches the arbiter on the critical disk, in every mode (the
    curvature terms differ in sign).  Eigenproblems are posed in the
    arclength inner product, and only the lowest ``count`` eigenvalues of
    each are computed (``symmetric_spectrum``): by block shift-invert
    Lanczos above the Weyl floor min(-+kappa) - 1 of L -+ kappa at large n
    and small ``count``, by the dense subset solve otherwise, or if the
    floor fails its Cholesky test or Lanczos does not converge; k^2 scales
    the eigenvalues afterwards.  Both solves work in one buffer: a copy of
    L made here, or ``buf``, a copy of L that an earlier
    ``symmetric_spectrum`` call has already weighted and symmetrized (the
    DtN spectrum of ``cli.cmd_spectrum``).  A solve after the first only
    refills the triangle and the diagonal that the one before consumed.
    Returns the report's ``stability`` block as a dict.
    """
    curve, k = state.curve, state.k
    kap = curve.kappa
    w = curve.weights
    L = state.ops.dtn_matrix
    total = float(np.sum(kap * w))
    imin = int(np.argmin(kap))

    spectra = []
    for sign in (-1.0, 1.0):
        # L is positive semidefinite up to rounding, so Weyl's bound puts
        # the spectrum of L -+ diag(kappa) above min(-+kappa); one unit
        # below it is the Lanczos floor
        diagonal = np.diagonal(L) + sign * kap
        floor = float(np.min(sign * kap)) - 1.0
        if buf is None:
            buf = L.copy()
            buf[np.diag_indices_from(buf)] = diagonal
            vals = symmetric_spectrum(buf, w, count, floor)
        else:
            vals = symmetric_spectrum(buf, w, count, floor, diagonal)
        spectra.append(k**2 * vals)
    vals_m, vals_p = spectra

    verdicts = {
        "total_curvature_nonpositive": bool(total <= 0.0),
        "negative_curvature_point": bool(kap[imin] < 0.0),
        "coercive_minus": bool(vals_m[0] > 0.0),
        "coercive_plus": bool(vals_p[0] > 0.0),
    }
    remarks = {
        "total_curvature": (
            "total curvature of a simple closed planar curve is always +2 pi "
            "(rotation index one), so this control cannot certify stability "
            "in the plane"),
        "pointwise": (
            "a boundary point with negative curvature certifies a strict "
            "local minimum through the pointwise control"
            if verdicts["negative_curvature_point"] else
            "curvature is nonnegative everywhere; the pointwise control "
            "does not apply"),
    }
    return {
        "total_curvature": total,
        "min_kappa": float(kap[imin]),
        "max_kappa": float(np.max(kap)),
        "argmin_index": imin,
        "argmin_point": [float(curve.points[imin, 0]),
                         float(curve.points[imin, 1])],
        "negative_part_sup": float(max(-kap[imin], 0.0)),
        "eigenvalues_minus": vals_m.tolist(),
        "lambda0_minus": float(vals_m[0]),
        "eigenvalues_plus": vals_p.tolist(),
        "lambda0_plus": float(vals_p[0]),
        "verdicts": verdicts,
        "remarks": remarks,
    }

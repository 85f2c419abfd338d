import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from quadshape import bem
from quadshape.bem import (AccuracyWarning, BoundaryOperators, SolverError,
                           _grid_log_weights_t, _grid_sin_factor,
                           assemble_operators, get_operators,
                           log_capacity_estimate)
from quadshape.geometry import Curve
from quadshape.reports import solver_dict

TWO_PI = 2.0 * np.pi


# -- one-pass assembly against the two separate assemblers -----------------

def reference_sin_factor(n):
    """|2 sin((t_i - t_j)/2)| on the periodic n-point grid, from the integer
    offset m = (i - j) mod n as 2 sin(pi min(m, n - m) / n), so that no
    difference of two angles cancels."""
    i = np.arange(n)
    m = np.subtract.outer(i, i) % n
    return 2.0 * np.sin(0.5 * TWO_PI * np.minimum(m, n - m) / n)


def reference_single_layer(curve):
    """Dense Nystrom matrix of the single-layer operator on the curve.

    S[i, j] applies to nodal densities; row i approximates the boundary
    integral at node i with spectral accuracy for smooth densities.
    """
    n = curve.n
    pts = curve.points
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    sin_fac = reference_sin_factor(n)
    np.fill_diagonal(dist, 1.0)
    np.fill_diagonal(sin_fac, 1.0)
    smooth = -np.log(dist / sin_fac) / TWO_PI
    np.fill_diagonal(smooth, -np.log(curve.speed) / TWO_PI)
    # exact Fourier weights for -(1/2 pi) log|2 sin((t-s)/2)|: mode m maps to
    # itself times 1/(2|m|), constants to zero
    k = np.fft.fftfreq(n, d=1.0 / n)
    inv = np.zeros(n)
    inv[1:] = 0.5 / np.abs(k[1:])
    logpart = scipy.linalg.circulant(np.fft.ifft(inv).real)
    return smooth * curve.weights[None, :] + logpart * curve.speed[None, :]


def reference_neumann_jump(curve):
    """Nystrom matrix of the adjoint double-layer operator K'.

    The interior normal derivative of the single-layer potential with
    density sigma is (K' + I/2) sigma.  The kernel
    -(1/2 pi) (x - y).nu(x) / |x - y|^2 is smooth on smooth curves with
    diagonal limit -kappa(x) / (4 pi), so the plain trapezoid rule applies.
    """
    pts = curve.points
    diff = pts[:, None, :] - pts[None, :, :]
    r2 = np.sum(diff * diff, axis=-1)
    np.fill_diagonal(r2, 1.0)
    dot = diff[..., 0] * curve.normal[:, None, 0] + diff[..., 1] * curve.normal[:, None, 1]
    kern = -dot / (TWO_PI * r2)
    np.fill_diagonal(kern, -curve.kappa / (2.0 * TWO_PI))
    return kern * curve.weights[None, :]


@pytest.mark.parametrize("curve", [
    Curve.circle(1.0, n=64).scaled(4.0),
    Curve.circle(3.0, n=128),
    Curve.ellipse(1.4, 0.9, n=256),
    Curve.from_radial(1.0, cos={3: 0.25}, sin={2: 0.1}, n=32),
    Curve.from_radial(1.0, cos={3: 0.25}, sin={2: 0.1}, n=128),
    Curve.from_radial(1.0, cos={3: 0.25}, sin={2: 0.1}, n=1024),
], ids=["circle1-rescaled", "circle3", "ellipse", "radial32", "radial128",
        "radial1024"])
def test_one_pass_assembly_matches_separate_assemblers(curve):
    S, Kp = assemble_operators(curve)
    ref = reference_single_layer(curve)
    assert np.array_equal(S, ref)
    assert np.array_equal(Kp, reference_neumann_jump(curve))
    # S comes in Fortran order, so getrf factors it in its own buffer
    assert S.flags.f_contiguous
    # the bundle's 1-norm, taken without an n x n temporary, is bit for bit
    # the column-sum norm of the C-ordered reference
    assert scipy.linalg.lapack.dlange("1", S) == np.linalg.norm(ref, 1)
    # and its reported rcond is that of a C-order factorization of the
    # reference, to the 3 digits the reports keep (the raw dgecon digits
    # can vary with where the factors sit in memory)
    ops = BoundaryOperators(curve)
    work_ref = reference_single_layer(ops._work)
    lu = scipy.linalg.lu_factor(work_ref)[0]
    rcond = scipy.linalg.lapack.dgecon(lu, np.linalg.norm(work_ref, 1),
                                       norm="1")[0]
    assert solver_dict(ops)["rcond"] == float("%.3g" % rcond)


def test_assembly_peak_memory_is_bounded():
    # the one-pass assembler writes S and K' in row blocks straight into
    # their final buffers, so besides the two results it holds one
    # block-sized buffer (1/8 n x n at n = 512) and the small per-node
    # vectors; the two separate assemblers peak at eight n x n arrays.  The
    # cache starts cold, but the per-n sin factor and log weights are views
    # of 2n numbers each: 2.20 measured.
    n = 512
    c = Curve.from_radial(1.0, cos={3: 0.25}, n=n)
    _grid_sin_factor.cache_clear()
    tracemalloc.start()
    try:
        assemble_operators(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * n * n * 8


def test_sin_factor_is_cached_per_grid_size():
    _grid_sin_factor.cache_clear()
    BoundaryOperators(Curve.circle(3.0, n=64))
    BoundaryOperators(Curve.ellipse(1.5, 0.5, n=64))
    info = _grid_sin_factor.cache_info()
    assert info.hits >= 1 and info.currsize == 1
    fac = _grid_sin_factor(64)
    assert not fac.flags.writeable
    ref = reference_sin_factor(64)
    np.fill_diagonal(ref, 1.0)
    assert np.array_equal(fac, ref)
    # the assembler reads rows of S^T, so it relies on the sin factor being
    # symmetric bit for bit
    assert np.array_equal(fac, fac.T)
    # a cold build allocates a few vectors of n numbers, not an n x n array
    n = 512
    tracemalloc.start()
    try:
        _grid_sin_factor(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * 8


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is plain double here")
@pytest.mark.parametrize("n", [64, 256, 1024])
def test_sin_factor_is_accurate_to_an_ulp(n):
    # the factor against |2 sin(pi m / n)| in long double: taking the angle
    # from theta_i - theta_j instead loses up to hundreds of ulp to
    # cancellation as n grows
    i = np.arange(n)
    m = (np.subtract.outer(i, i) % n).astype(np.longdouble)
    exact = np.abs(2 * np.sin(np.arccos(np.longdouble(-1)) * m / n))
    np.fill_diagonal(exact, 1)
    ulp = np.spacing(exact.astype(float))
    err = np.abs(_grid_sin_factor(n) - exact) / ulp
    assert float(np.max(err)) <= 1.5


def test_log_weights_are_cached_per_grid_size():
    _grid_log_weights_t.cache_clear()
    BoundaryOperators(Curve.circle(3.0, n=64))
    BoundaryOperators(Curve.ellipse(1.5, 0.5, n=64))
    info = _grid_log_weights_t.cache_info()
    assert info.hits >= 1 and info.currsize == 1
    log_t = _grid_log_weights_t(64)
    assert not log_t.flags.writeable
    k = np.fft.fftfreq(64, d=1.0 / 64)
    inv = np.zeros(64)
    inv[1:] = 0.5 / np.abs(k[1:])
    ref = scipy.linalg.circulant(np.fft.ifft(inv).real)
    assert np.array_equal(log_t, ref.T)


# -- single layer closed forms on circles ----------------------------------

@pytest.mark.parametrize("radius", [0.3, 3.0])
def test_single_layer_constant_eigenvalue(radius):
    # S 1 = -R log R on a radius-R circle
    c = Curve.circle(radius, n=128)
    S = assemble_operators(c)[0]
    expected = -radius * np.log(radius)
    assert np.allclose(S @ np.ones(c.n), expected, atol=1e-13)


@pytest.mark.parametrize("mode", [1, 2, 5, 11])
def test_single_layer_fourier_eigenvalues(mode):
    # S cos(m theta) = (R / 2m) cos(m theta)
    c = Curve.circle(3.0, n=128)
    S = assemble_operators(c)[0]
    v = np.cos(mode * c.theta)
    assert np.allclose(S @ v, (3.0 / (2 * mode)) * v, atol=1e-12)


def test_single_layer_symmetric_in_arclength_product():
    c = Curve.ellipse(1.4, 0.9, n=64)
    S = assemble_operators(c)[0]
    WS = c.weights[:, None] * S
    assert np.allclose(WS, WS.T, atol=1e-13)


# -- capacity rescaling ----------------------------------------------------

def test_unit_circle_triggers_rescale():
    # log-capacity ~ 1 makes the first-kind system singular; the operator
    # bundle works on a scaled copy and maps the data back
    ops = get_operators(Curve.circle(1.0, n=64))
    assert ops.scale == 4.0
    far = get_operators(Curve.circle(3.0, n=64))
    assert far.scale == 1.0


def test_capacity_estimate_is_mean_radius_like():
    assert log_capacity_estimate(Curve.circle(2.0, n=64)) == pytest.approx(2.0)


def test_solve_without_rescale_fails_near_unit_capacity():
    c = Curve.circle(1.0, n=64)
    S = assemble_operators(c)[0]
    # the raw system carries a near-null constant mode
    vals = np.linalg.svdvals(S)
    assert vals[-1] / vals[0] < 1e-14


# -- Dirichlet-to-Neumann map ----------------------------------------------

@pytest.mark.parametrize("mode", [1, 3, 8])
def test_dtn_fourier_symbol_on_unit_circle(mode):
    # normal derivative of the harmonic extension of cos(m theta) is
    # (m / R) cos(m theta)
    ops = get_operators(Curve.circle(1.0, n=256))
    v = np.cos(mode * ops.curve.theta)
    assert np.max(np.abs(ops.dtn_matrix @ v - mode * v)) < 1e-10


def test_dtn_kills_constants():
    ops = get_operators(Curve.circle(1.0, n=256))
    assert np.max(np.abs(ops.dtn_matrix @ np.ones(256))) < 1e-10


def test_dtn_radius_scaling():
    ops = get_operators(Curve.circle(2.0, n=128))
    v = np.cos(4 * ops.curve.theta)
    assert np.max(np.abs(ops.dtn_matrix @ v - 2.0 * v)) < 1e-10


def test_dtn_matrix_matches_apply():
    # arbiter: the DtN action composed from one Dirichlet solve and one
    # Neumann trace
    ops = get_operators(Curve.ellipse(1.3, 0.7, n=64))
    v = np.sin(2 * ops.curve.theta)
    applied = ops.neumann_trace(ops.solve_dirichlet(v))
    assert np.allclose(ops.dtn_matrix @ v, applied, atol=1e-11)


@pytest.mark.parametrize("curve, scale", [
    (Curve.ellipse(1.3, 0.7, n=128), 4.0),
    (Curve.from_radial(3.0, cos={3: 0.5}, sin={2: 0.2}, n=128), 1.0),
], ids=["rescaled", "unscaled"])
def test_dtn_matrix_matches_explicit_inverse(curve, scale):
    # the transposed solve against the LU factors reproduces
    # L = scale (K' + I/2) S^-1 built from the explicit inverse
    ops = BoundaryOperators(curve)
    assert ops.scale == scale
    S, Kp = assemble_operators(ops._work)
    ref = scale * (Kp + 0.5 * np.eye(curve.n)) @ np.linalg.inv(S)
    err = np.max(np.abs(ops.dtn_matrix - ref)) / np.max(np.abs(ref))
    assert err < 1e-12


def test_operator_bundle_memory_is_bounded():
    # a bundle holds the LU factors and K' but not S, which getrf factors
    # in its own buffer; the DtN matrix's transposed solve works in K''s
    # buffer and then the factors go, so the bundle holds L alone.  The LU
    # calls make no n x n finiteness masks: 2.03, 2.22, 1.03 and 2.03
    # measured
    n = 512
    c = Curve.from_radial(1.0, cos={3: 0.25}, n=n)
    nn = n * n * 8
    tracemalloc.start()
    try:
        ops = BoundaryOperators(c)
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        ops.dtn_matrix
        held_dtn, peak_dtn = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 2.1 * nn
    assert peak <= 2.3 * nn
    assert held_dtn <= 1.1 * nn
    assert peak_dtn <= 2.1 * nn


def test_released_factors_refuse_further_solves():
    # once L is built, nothing reads the LU factors or K' again, so the
    # bundle drops them; a later solve says so instead of answering
    ops = BoundaryOperators(Curve.ellipse(1.3, 0.7, n=64))
    v = np.sin(2 * ops.curve.theta)
    sigma = ops.solve_dirichlet(v)
    applied = ops.neumann_trace(sigma)
    assert np.allclose(ops.dtn_matrix @ v, applied, atol=1e-11)
    for call, arg in ((ops.solve_dirichlet, v), (ops.neumann_trace, sigma)):
        with pytest.raises(RuntimeError, match="released") as err:
            call(arg)
        # a plain RuntimeError: SolverError would read as a singular system
        assert type(err.value) is RuntimeError
        assert "new BoundaryOperators" in str(err.value)
    # the DtN matrix and the reassembled S stay available
    assert ops.dtn_matrix is ops.dtn_matrix
    assert ops.single_layer_matrix().shape == (64, 64)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_single_layer_is_a_solver_error(monkeypatch, bad):
    # the LU calls skip scipy's finiteness check, which would allocate an
    # n x n bool array; a non-finite S still fails through the rcond guard,
    # as a SolverError and not scipy's ValueError
    def poisoned(curve):
        S, kp = assemble_operators(curve)
        S[3, 5] = bad
        return S, kp

    monkeypatch.setattr(bem, "assemble_operators", poisoned)
    with pytest.raises(SolverError, match="rcond"):
        BoundaryOperators(Curve.ellipse(1.3, 0.7, n=64))


def test_dtn_symmetric_in_arclength_product():
    ops = get_operators(Curve.ellipse(1.3, 0.7, n=64))
    WL = ops.curve.weights[:, None] * ops.dtn_matrix
    assert np.max(np.abs(WL - WL.T)) < 1e-10


def _dirichlet_energy(ops, v):
    """int |grad of the harmonic extension of v|^2 = int v L v ds."""
    return float(np.sum(v * (ops.dtn_matrix @ v) * ops.curve.weights))


def test_dirichlet_energy_closed_form():
    # int |grad of harmonic extension of cos(m theta)|^2 = m pi on the disk
    ops = get_operators(Curve.circle(1.0, n=128))
    for m in (1, 2, 3):
        v = np.cos(m * ops.curve.theta)
        assert _dirichlet_energy(ops, v) == pytest.approx(m * np.pi, abs=1e-10)


@given(st.integers(min_value=1, max_value=10))
@settings(max_examples=10, deadline=None)
def test_dirichlet_energy_nonnegative(mode):
    ops = get_operators(Curve.from_radial(1.0, cos={3: 0.25}, n=64))
    v = np.sin(mode * ops.curve.theta) + 0.7
    assert _dirichlet_energy(ops, v) > -1e-10


# -- boundary value problem / interior evaluation --------------------------

def test_solve_dirichlet_reproduces_boundary_values():
    # the bundle solves on an internally rescaled curve whose harmonic
    # extension carries the same boundary values, so the residual is checked
    # against the work-system matrix directly
    ops = get_operators(Curve.ellipse(1.3, 0.7, n=128))
    data = np.exp(np.cos(ops.curve.theta))
    sigma = ops.solve_dirichlet(data)
    assert ops.scale == 4.0
    assert np.allclose(ops.single_layer_matrix() @ sigma, data, atol=1e-12)


def test_interior_evaluation_matches_separable_solution():
    # harmonic extension of cos(m theta) on the disk is (r/R)^m cos(m phi)
    ops = get_operators(Curve.circle(1.0, n=128))
    sigma = ops.solve_dirichlet(np.cos(3 * ops.curve.theta))
    pts = np.array([[0.5, 0.0], [0.0, 0.25], [-0.3, 0.3]])
    r = np.hypot(pts[:, 0], pts[:, 1])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    expected = r**3 * np.cos(3 * phi)
    assert np.allclose(ops.eval_interior(sigma, pts), expected, atol=1e-12)


def test_interior_gradient_matches_finite_differences():
    ops = get_operators(Curve.ellipse(1.3, 0.7, n=128))
    sigma = ops.solve_dirichlet(np.cos(2 * ops.curve.theta))
    pts = np.array([[0.4, 0.1], [-0.2, -0.3]])
    grad = ops.eval_interior_gradient(sigma, pts)
    h = 1e-6
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        fd = (ops.eval_interior(sigma, pts + e)
              - ops.eval_interior(sigma, pts - e)) / (2 * h)
        assert np.allclose(grad[:, axis], fd, atol=1e-8)


def test_interior_evaluation_warns_near_boundary():
    ops = get_operators(Curve.circle(1.0, n=64))
    sigma = ops.solve_dirichlet(np.cos(ops.curve.theta))
    close = np.array([[0.9999, 0.0]])
    with pytest.warns(AccuracyWarning):
        ops.eval_interior(sigma, close)
    with pytest.warns(AccuracyWarning):
        ops.eval_interior_gradient(sigma, close)


def test_operator_cache_reuses_bundles():
    c = Curve.circle(2.0, n=64)
    assert get_operators(c) is get_operators(c)
    assert isinstance(get_operators(c), BoundaryOperators)

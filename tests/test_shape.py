import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from quadshape.bem import BoundaryOperators
from quadshape.geometry import (Curve, GeometryError, MetricParams,
                                NormalField, flow_curve, metric_inner)
from quadshape.potential import (Disk, SourceTerm, eval_potential,
                                 source_quadrature)
from quadshape.riemannian import covariant_derivative
from quadshape.shape import (direct_hessian, direct_hessian_form, evaluate_J,
                             fd_first_derivative, fd_second_derivative,
                             hadamard_derivative,
                             hessian_report, pointwise_hessian_form,
                             psi_normal_derivative, solve_state,
                             stability_controls, steklov_form,
                             symmetric_spectrum)

from arbiters import flow_hessian_form

TWO_PI = 2.0 * np.pi


# closed form for the centered configuration: a mass-m disk of radius rho
# at the center of a radius-R region,
#   J = -(m^2 / 4 pi) log(R / rho) - m^2 / (16 pi) + k^2 pi R^2 / 2
def centered_J(R, rho, mass, k):
    return (-(mass**2 / (4 * np.pi)) * np.log(R / rho)
            - mass**2 / (16 * np.pi) + 0.5 * k**2 * np.pi * R**2)


# -- state solve -----------------------------------------------------------

def test_critical_disk_neumann_trace(critical_state):
    # mass 2 pi k R makes -du/dnu = k exactly on the circle
    assert np.max(np.abs(critical_state.u_nu + 1.0)) < 1e-12
    assert np.max(np.abs(critical_state.psi)) < 1e-11


def test_neumann_trace_scales_with_mass():
    src = SourceTerm((Disk(0.0, 0.0, 0.1, 3.0),))
    state = solve_state(Curve.circle(1.0, n=128), src, 1.0)
    assert np.allclose(state.u_nu, -3.0 / TWO_PI, atol=1e-12)


def test_solve_state_rejects_bad_inputs(centered_source):
    c = Curve.circle(1.0, n=64)
    with pytest.raises(ValueError, match="k must be positive"):
        solve_state(c, centered_source, -2.0)
    tight = SourceTerm((Disk(0.85, 0.0, 0.1, 1.0),))
    with pytest.raises(GeometryError):
        solve_state(c, tight, 1.0)


@pytest.mark.parametrize("use", [
    lambda state, f: hadamard_derivative(state, f),
    lambda state, f: steklov_form(state, f),
    lambda state, f: direct_hessian_form(state, np.ones(state.curve.n), f),
    lambda state, f: metric_inner(state.curve, MetricParams(), f, f),
    lambda state, f: flow_curve(state.curve, f, 1e-3),
], ids=["hadamard_derivative", "steklov_form", "direct_hessian_form",
        "metric_inner", "flow_curve"])
@pytest.mark.parametrize("field", [np.ones(127), NormalField(np.ones(129)),
                                   np.ones((128, 1))],
                         ids=["short", "long_field", "column"])
def test_fields_off_the_curve_grid_raise(ellipse_state, use, field):
    with pytest.raises(GeometryError, match="curve grid"):
        use(ellipse_state, field)


def test_dropped_state_frees_its_operators(centered_source):
    # the operator bundle lives on the state only, so memory stays bounded
    # by the states a caller keeps
    state = solve_state(Curve.circle(1.0, n=64), centered_source, 1.0)
    ops = weakref.ref(state.ops)
    del state
    gc.collect()
    assert ops() is None


# -- functional ------------------------------------------------------------

def test_functional_matches_centered_closed_form(critical_state):
    expected = centered_J(1.0, 0.1, TWO_PI, 1.0)
    assert evaluate_J(critical_state) == pytest.approx(expected, rel=1e-10)


def test_functional_on_noncritical_circle():
    src = SourceTerm((Disk(0.0, 0.0, 0.2, 2.0),))
    state = solve_state(Curve.circle(2.0, n=128), src, 0.7)
    assert evaluate_J(state) == pytest.approx(
        centered_J(2.0, 0.2, 2.0, 0.7), rel=1e-10)


def quadrature_J(state):
    """J from the volume route: integral f u over a polar quadrature of the
    source disks, with u sampled through the layer potential."""
    pts, wts, dens = source_quadrature(state.source)
    u = eval_potential(state.source, pts) + state.ops.eval_interior(
        state.density, pts)
    energy = float(np.sum(wts * dens * u))
    return -0.5 * energy + 0.5 * state.k**2 * state.curve.area


# two disks on a radial curve with modes 2-6, as in the n = 1024 spectrum
# benchmark geometry
RADIAL_COS = {2: 0.04, 3: -0.03, 4: 0.02, 5: -0.04, 6: 0.03}
RADIAL_SIN = {2: -0.02, 3: 0.04, 4: -0.03, 5: 0.01, 6: -0.04}
TWO_DISKS = SourceTerm((Disk(0.3 * np.cos(0.7), 0.3 * np.sin(0.7), 0.08, np.pi),
                        Disk(-0.2, -0.1, 0.08, np.pi)))


@pytest.mark.parametrize("n", [64, 128, 512])
@pytest.mark.parametrize("geometry", ["ellipse_one_disk", "radial_two_disks"])
def test_boundary_functional_matches_volume_quadrature(geometry, n):
    if geometry == "ellipse_one_disk":
        curve = Curve.ellipse(1.3, 0.9, n=n)
        source = SourceTerm((Disk(0.2, -0.1, 0.1, TWO_PI),))
    else:
        curve = Curve.from_radial(1.0, cos=RADIAL_COS, sin=RADIAL_SIN, n=n)
        source = TWO_DISKS
    state = solve_state(curve, source, 1.0)
    J = evaluate_J(state)
    assert type(J) is float
    assert J == pytest.approx(quadrature_J(state), rel=1e-13, abs=0.0)


def test_functional_is_cached(critical_state):
    first = evaluate_J(critical_state)
    assert evaluate_J(critical_state) is not None
    assert critical_state._J == first


# -- first variation -------------------------------------------------------

def test_gradient_vanishes_at_critical_disk(critical_state):
    for mode in ("const", "cos1", "cos2", "sin3"):
        field = NormalField.from_mode(mode, 256)
        value = hadamard_derivative(critical_state, field)
        assert abs(value) < 1e-5 * abs(evaluate_J(critical_state))


def test_boundary_form_against_finite_differences(centered_source, ellipse_state):
    # finite differences of J consistently return half the raw boundary
    # integral
    field = NormalField.from_mode("cos2", 128)
    boundary = hadamard_derivative(ellipse_state, field)
    fd = fd_first_derivative(ellipse_state, field)
    assert fd / boundary == pytest.approx(0.5, abs=1e-9)
    assert fd == pytest.approx(0.5 * boundary, rel=1e-8)


@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=15, deadline=None)
def test_boundary_form_is_linear(ca, cb):
    src = SourceTerm((Disk(0.0, 0.0, 0.1, TWO_PI),))
    state = solve_state(Curve.ellipse(1.2, 0.8, n=64), src, 1.0)
    a = np.cos(state.curve.theta)
    b = np.sin(2 * state.curve.theta)
    lhs = hadamard_derivative(state, ca * a + cb * b)
    rhs = (ca * hadamard_derivative(state, a)
           + cb * hadamard_derivative(state, b))
    assert lhs == pytest.approx(rhs, abs=1e-10)


# -- second variation: finite-difference arbiter ---------------------------

def test_second_difference_of_breathing_mode(centered_source):
    # j''(0) along uniform expansion of the critical disk is m^2/(4 pi) +
    # k^2 pi = 2 pi for this configuration
    c = Curve.circle(1.0, n=256)
    r = fd_second_derivative(solve_state(c, centered_source, 1.0),
                             np.ones(256))
    assert r.value == pytest.approx(TWO_PI, rel=1e-6)
    assert r.richardson_delta < 1e-4
    assert r.retries == 0


def test_second_difference_translation_invariance(centered_source):
    # translating source and domain together is a rigid motion of the
    # whole problem, so the second derivative must vanish
    c = Curve.circle(1.0, n=256)
    r = fd_second_derivative(solve_state(c, centered_source, 1.0),
                             np.cos(c.theta), source_velocity=(1.0, 0.0))
    assert abs(r.value) < 1e-3


def test_second_difference_shrinks_step_on_bad_curves(centered_source):
    # a large default step can push a wiggly direction into
    # self-intersection; the stencil must retry with a smaller one
    c = Curve.from_radial(1.0, cos={4: 0.12}, n=128)
    direction = 40.0 * np.cos(8 * c.theta)
    state = solve_state(c, centered_source, 1.0)
    r = fd_second_derivative(state, direction, t_step=0.05)
    assert r.retries >= 1
    assert np.isfinite(r.value)
    # the first derivative shares the stencil, so it retries too instead of
    # failing the source clearance at t = 0.05; after two shrinks it lands
    # within 0.6% of half the boundary form
    fd = fd_first_derivative(state, direction, t_step=0.05)
    assert fd == pytest.approx(0.5 * hadamard_derivative(state, direction),
                               rel=1e-2)


# -- second variation routes -----------------------------------------------

CRITICAL_DIAGONAL = {
    "const": 4 * np.pi,
    "cos1": 4 * np.pi,
    "cos2": 6 * np.pi,
    "sin2": 6 * np.pi,
}


@pytest.mark.parametrize("mode", sorted(CRITICAL_DIAGONAL))
def test_direct_form_critical_diagonal(critical_state, mode):
    v = NormalField.from_mode(mode, 256).values
    assert direct_hessian_form(critical_state, v) == pytest.approx(
        CRITICAL_DIAGONAL[mode], rel=1e-8)


def test_direct_form_is_symmetric(ellipse_state):
    a = np.cos(2 * ellipse_state.curve.theta)
    b = 1.0 + 0.5 * np.sin(ellipse_state.curve.theta)
    ab = direct_hessian_form(ellipse_state, a, b)
    ba = direct_hessian_form(ellipse_state, b, a)
    assert ab == pytest.approx(ba, abs=1e-9)


def test_direct_form_equals_doubled_second_difference(centered_source):
    # along a straight normal flow j'' is exactly half the derivative of
    # the raw boundary form, on critical and non-critical shapes alike
    e = Curve.ellipse(1.2, 0.8, n=128)
    state = solve_state(e, centered_source, 1.0)
    v = np.cos(2 * e.theta)
    fd = fd_second_derivative(state, v)
    assert direct_hessian_form(state, v) == pytest.approx(2.0 * fd.value,
                                                          rel=1e-7)


def test_pointwise_density_conventions(critical_state):
    # without the harmonic state sensitivity only +/- 2 kappa u_nu^2 + kappa
    # psi remains; both curvature orientations are exposed
    v = np.ones(256)
    local = pointwise_hessian_form(critical_state, v)
    mirror = pointwise_hessian_form(critical_state, v, dpsi_method="mirror")
    assert local == pytest.approx(4 * np.pi, rel=1e-9)
    assert mirror == pytest.approx(-4 * np.pi, rel=1e-9)


# J'' on the critical disk (R = k = 1) along the flow by each mode
CRITICAL_SECOND_DIFFERENCE = {
    "const": 2 * np.pi,
    "cos1": 2 * np.pi,
    "cos2": 3 * np.pi,
    "cos3": 4 * np.pi,
    "cos4": 5 * np.pi,
}


@pytest.mark.parametrize("mode", sorted(CRITICAL_SECOND_DIFFERENCE))
def test_assembled_hessian_matches_the_arbiter(critical_state, mode):
    a = NormalField.from_mode(mode, 256).values
    H = direct_hessian(critical_state)
    half = 0.5 * float(np.sum(a * (H @ a) * critical_state.curve.weights))
    fd = fd_second_derivative(critical_state, a).value
    assert half == pytest.approx(fd, rel=1e-6)
    assert fd == pytest.approx(CRITICAL_SECOND_DIFFERENCE[mode], rel=1e-6)


def _dtn_apply_form(state, a, b):
    """Reference: the direct form with one LU solve per pair.  The state's
    bundle released its factors when its DtN matrix was built, so the
    arbiter solves on a fresh bundle for the same curve."""
    w = state.curve.weights
    dpsi = psi_normal_derivative(state, "interior")
    local = np.sum((dpsi + state.curve.kappa * state.psi) * a * b * w)
    ops = BoundaryOperators(state.curve)
    sens = ops.neumann_trace(ops.solve_dirichlet(state.u_nu * a))
    return float(local + 2.0 * np.sum(state.u_nu * sens * b * w))


def test_assembled_direct_form_matches_the_dtn_apply_route(ellipse_state):
    th = ellipse_state.curve.theta
    fields = [np.ones(128), np.cos(2 * th), np.sin(3 * th),
              1.0 + 0.5 * np.sin(th)]
    for a in fields:
        for b in fields:
            ref = _dtn_apply_form(ellipse_state, a, b)
            scale = np.sqrt(_dtn_apply_form(ellipse_state, a, a)
                            * _dtn_apply_form(ellipse_state, b, b))
            assert direct_hessian_form(ellipse_state, a, b) == pytest.approx(
                ref, rel=1e-12, abs=1e-12 * scale)


def test_psi_normal_derivative_methods(critical_state):
    closed = psi_normal_derivative(critical_state, "interior")
    assert np.allclose(closed, 2.0, atol=1e-10)
    mirror = psi_normal_derivative(critical_state, "mirror")
    assert np.allclose(mirror, -2.0, atol=1e-10)
    sampled = psi_normal_derivative(critical_state, "sampled")
    assert np.max(np.abs(sampled - closed)) < 0.05
    with pytest.raises(ValueError):
        psi_normal_derivative(critical_state, "upwind")


def test_sampled_density_moderate_on_noncritical_shape(ellipse_state):
    closed = psi_normal_derivative(ellipse_state, "interior")
    sampled = psi_normal_derivative(ellipse_state, "sampled")
    scale = np.max(np.abs(closed))
    assert np.max(np.abs(closed - sampled)) / scale < 0.15


# -- Steklov-type quadratic form -------------------------------------------

def test_steklov_diagonal_on_critical_disk(critical_state):
    for mode in range(1, 5):
        v = np.cos(mode * critical_state.curve.theta)
        expected = np.pi * (mode - 1)
        assert steklov_form(critical_state, v) == pytest.approx(
            expected, abs=1e-8)


@pytest.mark.parametrize("mode", sorted(CRITICAL_SECOND_DIFFERENCE))
def test_steklov_breathing_mode_disagrees_with_arbiter(critical_state, mode):
    # the quadratic form gives (m - 1) |a|^2 on mode m (-2 pi on constants,
    # pi (m - 1) on cos m) while the second difference of J gives
    # (m + 1) |a|^2: the curvature term has the opposite sign in every mode,
    # not only in the breathing mode; both are reported, neither is adjusted
    a = NormalField.from_mode(mode, 256).values
    m = 0 if mode == "const" else int(mode[3:])
    norm2 = float(np.sum(a * a * critical_state.curve.weights))
    form = steklov_form(critical_state, a)
    assert form == pytest.approx((m - 1) * norm2, abs=1e-8)
    fd = fd_second_derivative(critical_state, a)
    assert fd.value == pytest.approx((m + 1) * norm2, rel=1e-6)


def test_steklov_form_symmetric_and_scales_with_k(centered_source):
    c = Curve.circle(1.0, n=128)
    state2 = solve_state(c, centered_source, 2.0)
    a = np.cos(2 * c.theta)
    b = np.sin(3 * c.theta) + 0.2
    assert steklov_form(state2, a, b) == pytest.approx(
        steklov_form(state2, b, a), abs=1e-9)
    state1 = solve_state(c, centered_source, 1.0)
    assert steklov_form(state2, a) == pytest.approx(
        4.0 * steklov_form(state1, a), rel=1e-10)


# -- route agreement summary -----------------------------------------------

def test_hessian_report_routes_and_factors(critical_state):
    rep = hessian_report(critical_state, ["const", "cos1", "cos2", "sin2"],
                         A=1.0, t_step=1e-3)
    assert len(rep["pairs"]) == 10
    assert rep["max_flow_asymmetry"] < 1e-10
    # flow and direct both differentiate the raw boundary form, so they fit
    # twice the finite differences of J
    assert rep["fitted_slopes"]["flow"] == pytest.approx(2.0, rel=1e-4)
    assert rep["fitted_slopes"]["direct"] == pytest.approx(2.0, rel=1e-6)
    for pair in rep["pairs"]:
        assert pair["flow"] == pytest.approx(pair["direct"],
                                             abs=2e-3 * max(abs(pair["fd"]), 1.0))


def test_direct_equals_flow_plus_connection_off_criticality(
        centered_source, ellipse_state, unit_params):
    e = ellipse_state.curve
    a = NormalField.from_mode("cos2", 128)
    direct = direct_hessian_form(ellipse_state, a.values)
    flow = flow_hessian_form(ellipse_state, a.values, a.values, A=1.0,
                             t_step=1e-4)
    nabla = covariant_derivative(e, unit_params, a, a)
    corr = hadamard_derivative(ellipse_state, nabla.values)
    assert direct == pytest.approx(flow + corr, rel=1e-6)


def test_hessian_report_uses_the_single_routes(ellipse_state):
    # the report's flow and fd columns are the public routes, value for
    # value; an off-diagonal fd is the bilinear identity over the diagonals
    modes = ["const", "cos2", "sin3"]
    A, t_step = 2.0, 1e-3
    rep = hessian_report(ellipse_state, modes, A=A, t_step=t_step)
    fields = [NormalField.from_mode(m, 128) for m in modes]
    diag = [fd_second_derivative(ellipse_state, f.values, t_step=t_step).value
            for f in fields]
    for pair in rep["pairs"]:
        i, j = pair["i"], pair["j"]
        a, b = fields[i], fields[j]
        assert pair["flow"] == flow_hessian_form(ellipse_state, a, b, A,
                                                 t_step)
        if i == j:
            assert pair["fd"] == diag[i]
        else:
            both = fd_second_derivative(ellipse_state, a.values + b.values,
                                        t_step=t_step).value
            assert pair["fd"] == 0.5 * (both - (diag[i] + diag[j]))


def test_hessian_report_fd_is_independent_of_direction_order(ellipse_state):
    # every unordered pair, diagonals included, gets the same fd bits
    modes = ["const", "cos1", "cos2", "sin3"]

    def fd_by_pair(rep):
        return {tuple(sorted(p["pair"].split("*"))): p["fd"].hex()
                for p in rep["pairs"]}

    fwd = fd_by_pair(hessian_report(ellipse_state, modes))
    rev = fd_by_pair(hessian_report(ellipse_state, modes[::-1]))
    assert len(fwd) == 10
    assert fwd == rev


@pytest.mark.parametrize("which, modes", [
    ("ellipse_state", ["const", "cos1", "cos2", "sin3"]),
    ("critical_state", ["const", "cos1", "cos2", "cos3",
                        "sin1", "sin2", "sin3"]),
])
def test_hessian_report_off_diagonal_fd_matches_the_direct_form(
        request, which, modes):
    # the off-diagonal fd against half the assembled form, scaled by the
    # pair's diagonals; worst measured: 4.0e-10 on the 1.2 x 0.8 ellipse,
    # whose off-diagonal fd reach 4.1, so a wrong coefficient fails by O(1),
    # and 1.95e-9 on the critical disk at n = 256
    state = request.getfixturevalue(which)
    rep = hessian_report(state, modes)
    diag = {p["i"]: p["fd"] for p in rep["pairs"] if p["i"] == p["j"]}
    fields = [NormalField.from_mode(m, state.curve.n) for m in modes]
    for p in rep["pairs"]:
        i, j = p["i"], p["j"]
        if i == j:
            continue
        half = 0.5 * direct_hessian_form(state, fields[i].values,
                                         fields[j].values)
        scale = max(abs(diag[i]), abs(diag[j]), 1.0)
        assert abs(p["fd"] - half) <= 1e-8 * scale, p["pair"]


def test_hessian_report_solves_each_stencil_once(centered_source,
                                                monkeypatch):
    # one four-point stencil per direction serves its fd diagonal and its
    # flow route, and one more along a + b per off-diagonal pair the
    # bilinear fd: 4 d + 4 d (d - 1) / 2 = 2 d (d + 1) solves for d
    # directions.  Every stencil is a call of fd_second_derivative,
    # d (d + 1) / 2 of them, so a tracer of that layer sees them all
    import quadshape.shape as shape
    state = solve_state(Curve.circle(1.0, n=64), centered_source, 1.0)
    solves, seconds = [], []
    second = shape.fd_second_derivative

    def counting(*args):
        solves.append(args)
        return solve_state(*args)

    def counting_second(*args, **kwargs):
        seconds.append(args)
        return second(*args, **kwargs)

    monkeypatch.setattr(shape, "solve_state", counting)
    monkeypatch.setattr(shape, "fd_second_derivative", counting_second)
    hessian_report(state, ["const", "cos1", "cos2", "sin3"])
    d = 4
    assert len(solves) == 2 * d * (d + 1) == 40
    assert len(seconds) == d * (d + 1) // 2 == 10


def test_hessian_report_peak_memory_is_bounded(centered_source):
    # the flow route keeps psi of its flowed states, not their operator
    # bundles; holding all eight bundles of four directions peaks at 33
    n = 128
    state = solve_state(Curve.circle(1.0, n=n), centered_source, 1.0)
    evaluate_J(state)
    state.ops.dtn_matrix
    tracemalloc.start()
    try:
        hessian_report(state, ["const", "cos1", "cos2", "sin3"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * n * n * 8


def test_flow_route_ignores_metric_weight_at_critical_shape(critical_state):
    v = np.cos(2 * critical_state.curve.theta)
    f1 = flow_hessian_form(critical_state, v, v, A=1.0)
    f2 = flow_hessian_form(critical_state, v, v, A=6.0)
    assert abs(f1 - f2) < 1e-12


# -- stability diagnostics -------------------------------------------------

def test_stability_spectra_on_critical_disk(critical_state):
    rep = stability_controls(critical_state, 7)
    assert len(rep["eigenvalues_minus"]) == len(rep["eigenvalues_plus"]) == 7
    assert np.allclose(rep["eigenvalues_minus"][:7], [-1, 0, 0, 1, 1, 2, 2],
                       atol=1e-8)
    assert np.allclose(rep["eigenvalues_plus"][:7], [1, 2, 2, 3, 3, 4, 4],
                       atol=1e-8)
    assert rep["lambda0_minus"] == pytest.approx(-1.0, abs=1e-8)
    assert rep["lambda0_plus"] == pytest.approx(1.0, abs=1e-8)
    assert not rep["verdicts"]["coercive_minus"]
    assert rep["verdicts"]["coercive_plus"]


def test_total_curvature_control_never_passes(critical_state):
    rep = stability_controls(critical_state, 1)
    assert rep["total_curvature"] == pytest.approx(TWO_PI, abs=1e-10)
    assert not rep["verdicts"]["total_curvature_nonpositive"]
    assert "2 pi" in rep["remarks"]["total_curvature"]


def test_negative_curvature_pointwise_control(centered_source):
    # this radial profile dips to negative curvature on three arcs
    c = Curve.from_radial(1.0, cos={3: 0.3}, n=128)
    state = solve_state(c, centered_source, 1.0)
    rep = stability_controls(state, 1)
    assert rep["min_kappa"] < 0.0
    assert rep["verdicts"]["negative_curvature_point"]
    assert rep["negative_part_sup"] == pytest.approx(-rep["min_kappa"])
    x, y = rep["argmin_point"]
    assert np.hypot(x, y) == pytest.approx(
        np.hypot(*c.points[rep["argmin_index"]]), rel=1e-12)


def test_symmetric_spectrum_ascending_and_deterministic():
    c = Curve.circle(1.0, n=64)
    rng = np.random.default_rng(3)
    sym = rng.standard_normal((64, 64))
    w = c.weights
    # symmetrize in the weighted product so the helper's assumption holds
    mat = (sym + (w[:, None] * sym.T) / w[None, :]) * 0.5
    vals = symmetric_spectrum(mat.copy(), w, 16)
    assert vals.shape == (16,)
    assert np.all(np.diff(vals) > -1e-12)
    assert np.array_equal(vals, symmetric_spectrum(mat.copy(), w, 16))
    # count is capped at the matrix order
    assert symmetric_spectrum(mat, w, 100).shape == (64,)


@pytest.mark.parametrize("n", [64, 200, 1024])
def test_symmetric_spectrum_matches_out_of_place_solve(n):
    # the blocked in-place symmetrization and the Fortran-order solve give
    # the eigenvalues of the out-of-place weighted symmetrization bit for
    # bit, on orders below, between and at multiples of the block
    rng = np.random.default_rng(n)
    mat = rng.standard_normal((n, n))
    w = rng.uniform(0.5, 2.0, n) * (TWO_PI / n)
    count = 12
    vals = symmetric_spectrum(mat.copy(), w, count)
    s = np.sqrt(w)
    sym = (mat * s[:, None]) / s[None, :]
    ref = scipy.linalg.eigh(0.5 * (sym + sym.T), eigvals_only=True,
                            subset_by_index=[0, count - 1], driver="evr")
    assert np.array_equal(vals, ref)


def test_state_matrices_are_read_only(centered_source):
    # L and the memoized H are read by every later route on the state
    state = solve_state(Curve.ellipse(1.2, 0.8, n=64), centered_source, 1.0)
    assert not state.ops.dtn_matrix.flags.writeable
    assert not direct_hessian(state).flags.writeable


def test_symmetric_spectrum_refuses_a_matrix_it_cannot_consume(
        centered_source):
    # the solve works in its input: a state's own L raises instead of being
    # overwritten, and so does an array in another layout
    state = solve_state(Curve.ellipse(1.2, 0.8, n=64), centered_source, 1.0)
    L, w = state.ops.dtn_matrix, state.curve.weights
    before = L.tobytes()
    with pytest.raises(ValueError):
        symmetric_spectrum(L, w, 4)
    assert L.tobytes() == before
    for other in (np.asfortranarray(L), L.astype(np.float32)):
        with pytest.raises(ValueError):
            symmetric_spectrum(other, w, 4)
    assert np.array_equal(symmetric_spectrum(L.copy(), w, 4),
                          symmetric_spectrum(np.array(L), w, 4))


def test_stability_controls_peak_memory_is_bounded(centered_source):
    # both signs' solves work in one copy of L
    n = 512
    c = Curve.from_radial(1.0, cos={3: 0.1}, n=n)
    state = solve_state(c, centered_source, 1.0)
    L = state.ops.dtn_matrix
    before = L.copy()
    tracemalloc.start()
    try:
        stability_controls(state, 8)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * n * n * 8
    assert np.array_equal(L, before)


def test_spectrum_state_peak_memory_at_n1024_is_bounded(centered_source):
    # the spectrum command's whole life of one state at n = 1024: the solve
    # holds the LU factors and K', the DtN solve turns K''s buffer into L
    # and releases the factors, and each spectrum then works in one copy of
    # L.  Holding the factors and K' next to L and the eigen buffer peaked
    # at 4.07 n x n arrays; 2.07 measured from a cold cache
    n = 1024
    c = Curve.from_radial(1.0, cos={3: 0.1}, n=n)
    tracemalloc.start()
    try:
        state = solve_state(c, centered_source, 1.0)
        symmetric_spectrum(state.ops.dtn_matrix.copy(), c.weights, 8)
        stability_controls(state, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * n * n * 8


def _full_spectrum(matrix, weights):
    """Reference: every eigenvalue from a full ``np.linalg.eigvalsh`` of
    the same weighted symmetrization."""
    s = np.sqrt(weights)
    sym = (matrix * s[:, None]) / s[None, :]
    return np.linalg.eigvalsh(0.5 * (sym + sym.T))


def check_spectra_against_full_eigh(state, count):
    """The DtN spectrum with floor -1 and both stability spectra, which
    pass their Weyl floors, against ``_full_spectrum`` (k = 1)."""
    L, w, kap = state.ops.dtn_matrix, state.curve.weights, state.curve.kappa
    rep = stability_controls(state, count)
    cases = [(L, symmetric_spectrum(L.copy(), w, count, floor=-1.0))]
    for mat, key, floor in ((L - np.diag(kap), "eigenvalues_minus",
                             float(np.min(-kap)) - 1.0),
                            (L + np.diag(kap), "eigenvalues_plus",
                             float(np.min(kap)) - 1.0)):
        vals = symmetric_spectrum(mat.copy(), w, count, floor=floor)
        # the report's eigenvalues are those of the same matrix, bit for bit
        assert np.array_equal(vals, rep[key])
        cases.append((mat, vals))
    for mat, vals in cases:
        ref_vals = _full_spectrum(mat, w)
        scale = float(np.max(np.abs(ref_vals)))
        assert len(vals) == count
        assert np.max(np.abs(vals - ref_vals[:count])) <= 1e-12 * scale
    return cases


def two_disk_radial_state(n):
    """Two disks in a perturbed radial curve, as in the spectrum
    benchmark."""
    c = Curve.from_radial(1.0, cos={2: 0.03, 3: -0.02, 5: 0.01},
                          sin={2: -0.01, 4: 0.03, 6: -0.02}, n=n)
    src = SourceTerm((Disk(0.25, 0.05, 0.08, np.pi),
                      Disk(-0.2, -0.1, 0.08, np.pi)))
    return solve_state(c, src, 1.0)


@pytest.fixture(scope="module")
def radial_state_1024():
    return two_disk_radial_state(1024)


@pytest.mark.parametrize("n", [256, 1024])
def test_subset_spectrum_matches_full_eigh(n, dense_solve_orders):
    # n = 256 takes the dense subset solve, n = 1024 block Lanczos
    check_spectra_against_full_eigh(two_disk_radial_state(n), 16)
    assert dense_solve_orders == ([] if n == 1024 else [n] * 5)


@pytest.fixture(scope="module")
def critical_state_1024(centered_source):
    return solve_state(Curve.circle(1.0, n=1024), centered_source, 1.0)


@pytest.fixture
def block_solves(monkeypatch):
    """Block solves (``dpotrs`` calls) made by each call of
    ``symmetric_spectrum`` during the test, in call order."""
    import quadshape.shape as shape
    counts = []
    potrs, spectrum = scipy.linalg.lapack.dpotrs, shape.symmetric_spectrum

    def counted_potrs(*args, **kwargs):
        counts[-1] += 1
        return potrs(*args, **kwargs)

    def counted_spectrum(*args, **kwargs):
        counts.append(0)
        return spectrum(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpotrs", counted_potrs)
    monkeypatch.setattr(shape, "symmetric_spectrum", counted_spectrum)
    monkeypatch.setitem(globals(), "symmetric_spectrum", counted_spectrum)
    return counts


def test_lanczos_takes_few_block_solves_per_spectrum(
        radial_state_1024, block_solves, dense_solve_orders):
    # the spectrum command's three solves, 16 eigenvalues each: the start
    # block of 14 Fourier modes and 2 pseudo-random columns converges in 8
    # block solves (7 to 10 on the benchmark's curves), where a random
    # block of two takes 37 to 40
    state = radial_state_1024
    buf = state.ops.dtn_matrix.copy()
    symmetric_spectrum(buf, state.curve.weights, 16, floor=-1.0)
    stability_controls(state, 16, buf)
    assert dense_solve_orders == []
    assert len(block_solves) == 3
    assert max(block_solves) <= 10


def test_lanczos_that_restarts_matches_full_eigh(
        radial_state_1024, monkeypatch, block_solves, dense_solve_orders):
    # a basis of n / 10 vectors holds 5 steps of 16 columns, too few for
    # any of the spectra, so every run restarts from its Ritz vectors
    import quadshape.shape as shape
    monkeypatch.setattr(shape, "_KRYLOV_CAP_RATIO", 10)
    check_spectra_against_full_eigh(radial_state_1024, 16)
    assert dense_solve_orders == []
    assert len(block_solves) == 5
    assert min(block_solves) > 5


@pytest.mark.parametrize("count", [1, 2, 16])
def test_lanczos_start_block(radial_state_1024, monkeypatch, count):
    # the two pseudo-random columns of default_rng(0), alone for count <= 2,
    # after count - 2 grid Fourier modes 1, sin t, cos t, ... scaled by
    # sqrt(w) otherwise
    import quadshape.shape as shape
    blocks = []
    orthonormalize = shape._orthonormalize

    def recorded(x):
        blocks.append(x.copy())
        return orthonormalize(x)

    monkeypatch.setattr(shape, "_orthonormalize", recorded)
    state = radial_state_1024
    n, t, w = state.curve.n, state.curve.theta, state.curve.weights
    symmetric_spectrum(state.ops.dtn_matrix.copy(), w, count, floor=-1.0)
    start = blocks[0]
    assert start.shape == (n, max(count, 2))
    assert np.array_equal(start[:, -2:],
                          np.random.default_rng(0).standard_normal((n, 2)))
    modes = [np.sin((c + 1) // 2 * t) if c % 2 else np.cos((c + 1) // 2 * t)
             for c in range(count - 2)]
    for col, mode in zip(start.T, modes):
        assert np.allclose(col, mode * np.sqrt(w), rtol=0.0, atol=1e-14)


def test_lanczos_breakdown_on_the_critical_disk(
        critical_state_1024, block_solves, dense_solve_orders):
    # the start block's 14 Fourier modes are eigenvectors of all three
    # operators on the disk, so one step leaves of them only rounding
    # noise; each is replaced by the next Fourier mode, uncoupled, and the
    # next step converges, long before the basis of 7 steps would restart
    cases = check_spectra_against_full_eigh(critical_state_1024, 16)
    assert dense_solve_orders == []
    assert len(block_solves) == 5
    assert max(block_solves) <= 2
    w = critical_state_1024.curve.weights
    ladder = np.repeat(np.arange(9), 2)[1:17]
    for (mat, vals), offset in zip(cases, (0, -1, 1)):
        # no eigenvalue is duplicated or missed
        assert np.array_equal(np.round(vals), ladder + offset)
        ref = _full_spectrum(mat, w)
        scale = float(np.max(np.abs(ref)))
        # a random start block of two comes within 4.802e-15 of the scale
        # at worst
        assert np.max(np.abs(vals - ref[:16])) <= 4.802e-15 * scale


@pytest.mark.parametrize("n, dtn_floor", [(256, -1.0), (1024, -1.0),
                                          (1024, 0.5)])
def test_stability_spectra_reuse_the_symmetrized_dtn_buffer(
        n, dtn_floor, radial_state_1024, dense_solve_orders):
    # the spectrum command's order: the DtN solve (dense, by Lanczos, or
    # dense after a refuted floor), then both stability solves in the same
    # buffer.  Every solve leaves the strict lower triangle of the weighted
    # symmetrization as it was, the later ones refill the rest, and the
    # eigenvalues are bit for bit those of separate copies (k = 1)
    state = radial_state_1024 if n == 1024 else two_disk_radial_state(n)
    L, w, kap = state.ops.dtn_matrix, state.curve.weights, state.curve.kappa
    s = np.sqrt(w)
    sym = (L * s[:, None]) / s[None, :]
    lower = np.tril(0.5 * (sym + sym.T), -1)
    buf = L.copy()
    dtn = symmetric_spectrum(buf, w, 16, floor=dtn_floor)
    assert np.array_equal(np.tril(buf, -1), lower)
    assert np.array_equal(dtn, symmetric_spectrum(L.copy(), w, 16,
                                                  floor=dtn_floor))
    shared = stability_controls(state, 16, buf)
    assert np.array_equal(np.tril(buf, -1), lower)
    for key, sign in (("eigenvalues_minus", -1.0), ("eigenvalues_plus", 1.0)):
        separate = symmetric_spectrum(L + np.diag(sign * kap), w, 16,
                                      float(np.min(sign * kap)) - 1.0)
        assert np.array_equal(shared[key], separate)
    dense = {256: [256] * 6, 1024: []}[n] if dtn_floor < 0 else [1024] * 2
    assert dense_solve_orders == dense


def test_lanczos_spectrum_finds_both_copies_on_the_critical_disk(
        critical_state_1024, dense_solve_orders):
    # on the circle every eigenvalue after the first is double (cos m and
    # sin m): L gives 0, 1, 1, 2, 2, ..., and a missed copy would shift
    # every later value by one place
    (_, dtn), _, (_, plus) = check_spectra_against_full_eigh(
        critical_state_1024, 16)
    assert dense_solve_orders == []
    assert np.allclose(dtn, [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8],
                       atol=1e-8)
    assert np.allclose(plus, [1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9],
                       atol=1e-8)


def test_a_floor_not_below_the_spectrum_falls_back_to_dense(
        critical_state_1024, dense_solve_orders):
    # L has eigenvalue 0, so the Cholesky test of L - floor fails for both
    # floors: the solve refills the factored triangle and the diagonal, and
    # the dense subset solve gives the values bit for bit
    L, w = critical_state_1024.ops.dtn_matrix, critical_state_1024.curve.weights
    dense = symmetric_spectrum(L.copy(), w, 16)
    for floor in (0.5, 1e3):
        assert np.array_equal(
            symmetric_spectrum(L.copy(), w, 16, floor=floor), dense)
    assert dense_solve_orders == [1024] * 3


def test_lanczos_that_fills_its_basis_falls_back_to_dense(
        critical_state_1024, monkeypatch, dense_solve_orders):
    # no residual bound meets a zero tolerance, so the basis fills up in
    # every restart; the solve then refills the factored triangle and the
    # diagonal and gives the dense values bit for bit
    import quadshape.shape as shape
    L, w = critical_state_1024.ops.dtn_matrix, critical_state_1024.curve.weights
    dense = symmetric_spectrum(L.copy(), w, 16)
    monkeypatch.setattr(shape, "_LANCZOS_TOL", 0.0)
    assert np.array_equal(symmetric_spectrum(L.copy(), w, 16, floor=-1.0),
                          dense)
    assert dense_solve_orders == [1024] * 2


@pytest.mark.parametrize("n, count", [(512, 8), (1024, 32)])
def test_dense_route_below_the_lanczos_sizes(n, count, dense_solve_orders):
    # below n = 1024, or above n / 64 eigenvalues, the dense solve is the
    # faster one and runs whatever the floor
    c = Curve.from_radial(1.0, cos={3: 0.1}, n=n)
    # 1 + kappa > 0 here, so the floor 0 is below the spectrum
    mat, w = np.eye(n) + np.diag(c.kappa), c.weights
    vals = symmetric_spectrum(mat, w, count, floor=0.0)
    assert dense_solve_orders == [n]
    assert np.allclose(vals, np.sort(1.0 + c.kappa)[:count], rtol=0.0,
                       atol=1e-13)

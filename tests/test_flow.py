import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from quadshape import flow
from quadshape.flow import (MAX_BACKTRACKS, REJECTION_REASONS, FlowConfig,
                            circle_deviation, convergence_report, descend,
                            fit_circle, newton_direction)
from quadshape.geometry import (Curve, GeometryError, MetricParams, flow_curve,
                                metric_weight)
from quadshape.potential import Disk, SourceTerm, clearance_margin
from quadshape.reports import write_trace
from quadshape.shape import (direct_hessian, psi_normal_derivative,
                             solve_state, symmetric_spectrum)

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def small_flow(centered_source):
    curve = Curve.ellipse(1.1, 0.9, n=64)
    params = MetricParams(A=1.0, k=1.0)
    cfg = FlowConfig(grad_tol_rel=1e-4)
    return descend(curve, centered_source, params, cfg)


def test_fit_circle_recovers_center_and_radius():
    th = TWO_PI * np.arange(64) / 64
    points = np.column_stack([0.3 + 2.0 * np.cos(th), -1.1 + 2.0 * np.sin(th)])
    center, radius = fit_circle(points)
    assert np.allclose(center, [0.3, -1.1], atol=1e-12)
    assert radius == pytest.approx(2.0, abs=1e-12)


def test_circle_deviation_zero_on_circle_positive_on_ellipse():
    assert circle_deviation(Curve.circle(1.0, n=64)) < 1e-12
    assert circle_deviation(Curve.ellipse(1.2, 0.8, n=64)) > 0.1


def test_descent_reaches_the_critical_circle(small_flow):
    res = small_flow
    assert res.reason == "gradient"
    assert res.iterations < 200
    radii = np.hypot(res.curve.points[:, 0], res.curve.points[:, 1])
    assert np.max(np.abs(radii - 1.0)) < 1e-3
    assert res.grad_drop > 1e3


def test_descent_J_never_increases_between_solves(small_flow):
    # resampling re-interpolates the curve, so allow spectral-size slack
    J = np.array([r.J for r in small_flow.records])
    assert np.all(np.diff(J) < 1e-9)


def test_descent_records_are_complete(small_flow):
    first = small_flow.records[0]
    assert first.iteration == 0
    assert first.step == 0.0
    iters = [r.iteration for r in small_flow.records]
    assert iters == sorted(iters)
    assert small_flow.records[-1].iteration == small_flow.iterations


def test_callback_sees_every_accepted_iterate(centered_source):
    curve = Curve.ellipse(1.1, 0.9, n=64)
    params = MetricParams(A=1.0, k=1.0)
    seen = []
    descend(curve, centered_source, params,
            FlowConfig(max_iters=5, grad_tol_rel=0.0),
            callback=lambda rec, cv: seen.append((rec.iteration, cv.n)))
    assert [it for it, _ in seen] == [0, 1, 2, 3, 4, 5]
    assert all(n == 64 for _, n in seen)


def test_loose_tolerance_stops_early(centered_source):
    curve = Curve.ellipse(1.1, 0.9, n=64)
    params = MetricParams(A=1.0, k=1.0)
    res = descend(curve, centered_source, params, FlowConfig(grad_tol_rel=0.5))
    assert res.reason == "gradient"
    assert res.iterations <= 10


def test_collapsed_line_search_is_reported():
    # the circle shrinks onto the off-centre disk's clearance limit until
    # every trial of a line search pinches it
    curve = Curve.circle(1.0, n=64)
    source = SourceTerm((Disk(0.5, 0.0, 0.1, 1.0),))
    params = MetricParams(A=1.0, k=2.0)
    res = descend(curve, source, params, FlowConfig())
    assert res.reason == "step_collapse"
    assert res.rejected["geometry"] >= MAX_BACKTRACKS + 1
    assert res.rejected["armijo"] == 0


def test_failed_resample_keeps_the_accepted_state(centered_source,
                                                  monkeypatch):
    def fail(curve):
        raise GeometryError("resampled curve self-intersects")

    monkeypatch.setattr(flow, "resample_by_arclength", fail)
    curve = Curve.ellipse(1.1, 0.9, n=64)
    params = MetricParams(A=1.0, k=1.0)
    res = descend(curve, centered_source, params,
                  FlowConfig(max_iters=6, grad_tol_rel=0.0))
    assert res.iterations == 6
    assert res.resamples == 0
    assert res.curve.n == 64


def test_line_search_after_a_resample_holds_one_state(centered_source):
    # after the resample at the fifth accepted step, the replaced state,
    # which holds its DtN matrix L and its shape Hessian H, is freed before
    # the next line search: 6.56 n x n arrays measured, and kept, those two
    # arrays would lift the peak past the bound
    n = 128
    curve = Curve.ellipse(1.1, 0.9, n=n)
    params = MetricParams(A=1.0, k=1.0)
    tracemalloc.start()
    try:
        res = descend(curve, centered_source, params,
                      FlowConfig(max_iters=7, grad_tol_rel=0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.iterations == 7 and res.resamples == 1
    assert peak <= 7 * n * n * 8


def test_clearance_violating_trial_is_rejected_as_geometry():
    # with k = 2 the Newton direction is about 1/2 everywhere, so the unit
    # first trial shrinks the circle to a simple curve that pinches the
    # off-centre disk's clearance; the halved step is accepted
    curve = Curve.circle(1.0, n=64)
    source = SourceTerm((Disk(0.5, 0.0, 0.1, 1.0),))
    params = MetricParams(A=1.0, k=2.0)
    x = newton_direction(solve_state(curve, source, params.k), params)
    first_trial = flow_curve(curve, x, -1.0)
    assert clearance_margin(source, first_trial) < 0.0
    cfg = FlowConfig(max_iters=1, grad_tol_rel=0.0)
    res = descend(curve, source, params, cfg)
    assert res.iterations == 1
    assert res.records[-1].step == 0.5
    assert res.rejected == {"geometry": 1, "solver": 0, "armijo": 0}
    assert tuple(res.rejected) == REJECTION_REASONS


def test_rejections_stay_out_of_the_report(small_flow):
    assert set(small_flow.rejected) == set(REJECTION_REASONS)
    assert not set(REJECTION_REASONS) & set(convergence_report(small_flow))


@pytest.mark.parametrize("n", [128, 256, 512])
def test_newton_descent_iterations_are_mesh_independent(centered_source, n):
    # criterion 8's ellipse reaches the critical circle in a number of
    # Newton steps that does not grow with the grid
    curve = Curve.ellipse(1.2, 0.8, n=n)
    params = MetricParams(A=1.0, k=1.0)
    res = descend(curve, centered_source, params, FlowConfig())
    assert res.reason == "gradient"
    assert res.iterations <= 20
    radii = np.hypot(res.curve.points[:, 0], res.curve.points[:, 1])
    assert np.max(np.abs(radii - 1.0)) <= 1e-3


def test_newton_direction_solves_the_shifted_system(centered_source):
    # (H + mu G) x = psi with mu >= k^2 / 2, and x descends: sum(psi x w) > 0
    state = solve_state(Curve.ellipse(1.2, 0.8, n=64), centered_source, 1.0)
    params = MetricParams(A=1.0, k=1.0)
    x = newton_direction(state, params)
    g = 1.0 + params.A * state.curve.kappa**2
    mu = (state.psi - direct_hessian(state) @ x) / (g * x)
    assert np.ptp(mu) < 1e-9 * np.max(np.abs(mu))
    assert mu[0] >= 0.5 * state.k**2
    assert np.sum(state.psi * x * state.curve.weights) > 0.0


def count_eigen_solves(monkeypatch):
    calls = []

    def counted(buf, weights, count, floor=None):
        calls.append(count)
        return symmetric_spectrum(buf, weights, count, floor)

    monkeypatch.setattr(flow, "symmetric_spectrum", counted)
    return calls


def shifted_solve(state, params, mu):
    # the Newton system W (H + mu G) x = W psi, assembled in the order
    # newton_direction uses, so the solution compares bit for bit
    w = state.curve.weights
    wh = w[:, None] * direct_hessian(state)
    wh[np.diag_indices_from(wh)] += mu * (w * metric_weight(state.curve,
                                                              params))
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(wh), w * state.psi)


def test_newton_direction_skips_the_eigen_solve_when_positive_definite(
        ellipse_state, unit_params, monkeypatch):
    # criterion 8's ellipse has a positive definite W H: the Cholesky test
    # passes, mu is k^2 / 2 and no eigenvalue is computed
    calls = count_eigen_solves(monkeypatch)
    x = newton_direction(ellipse_state, unit_params)
    assert calls == []
    expected = shifted_solve(ellipse_state, unit_params,
                             0.5 * ellipse_state.k**2)
    assert np.array_equal(x, expected)


def test_newton_direction_shifts_an_indefinite_hessian(centered_source,
                                                       unit_params,
                                                       monkeypatch):
    # a diagonal shift H - c G keeps W H symmetric and moves every pencil
    # eigenvalue down by c, below zero for c above lambda0: the Cholesky
    # test fails and one eigen-solve sets mu = -lambda0 + k^2 / 2
    state = solve_state(Curve.ellipse(1.2, 0.8, n=128), centered_source, 1.0)
    g = metric_weight(state.curve, unit_params)
    wg = state.curve.weights * g
    H = direct_hessian(state)
    lam0 = symmetric_spectrum(H / g[:, None], wg, 1)[0]
    assert lam0 > 0.0
    state._H = H - (lam0 + 1.0) * np.diag(g)
    calls = count_eigen_solves(monkeypatch)
    x = newton_direction(state, unit_params)
    assert calls == [1]
    lam0 = symmetric_spectrum(state._H / g[:, None], wg, 1)[0]
    assert lam0 < 0.0
    mu = max(0.0, -float(lam0)) + 0.5 * state.k**2
    assert mu >= 0.5 * state.k**2
    assert np.array_equal(x, shifted_solve(state, unit_params, mu))


def test_newton_shift_at_n1024_comes_from_lanczos_above_the_weyl_floor(
        monkeypatch, dense_solve_orders):
    # a three-lobed curve around an off-centre disk at k = 2 has an
    # indefinite W H.  At n = 1024 its shift comes from block Lanczos above
    # min(d / g) - k^2 / 2, d = dpsi/dnu + kappa psi the pointwise part of
    # H: the only dense eigen-solve is the arbiter's
    n, k = 1024, 2.0
    state = solve_state(Curve.from_radial(1.0, cos={3: 0.3}, n=n),
                        SourceTerm((Disk(0.3, 0.0, 0.1, 2 * np.pi),)), k)
    params = MetricParams(A=1.0, k=k)
    g = metric_weight(state.curve, params)
    H = direct_hessian(state)
    lam0 = symmetric_spectrum(H / g[:, None], state.curve.weights * g, 1)[0]
    assert lam0 < 0.0
    d = psi_normal_derivative(state) + state.curve.kappa * state.psi
    floors = []

    def recorded(buf, weights, count, floor=None):
        floors.append(floor)
        return symmetric_spectrum(buf, weights, count, floor)

    monkeypatch.setattr(flow, "symmetric_spectrum", recorded)
    x = newton_direction(state, params)
    assert floors == [pytest.approx(np.min(d / g) - 0.5 * k**2, rel=1e-15)]
    assert floors[0] < lam0
    assert dense_solve_orders == [n]
    expected = shifted_solve(state, params, -lam0 + 0.5 * k**2)
    assert np.max(np.abs(x - expected)) <= 1e-10 * np.max(np.abs(expected))


def test_newton_direction_memory_is_bounded(centered_source):
    # with H built, W H and the Cholesky test's copy of it are alive (the
    # eigen-solve of an indefinite H consumes one scaled copy of H in
    # its place), then W (H + mu G) and cho_factor's copy of it: about two
    # n x n arrays, 2.14 measured on criterion 8's ellipse
    n = 256
    state = solve_state(Curve.ellipse(1.2, 0.8, n=n), centered_source, 1.0)
    params = MetricParams(A=1.0, k=1.0)
    direct_hessian(state)
    tracemalloc.start()
    try:
        newton_direction(state, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * n * n * 8


def test_flow_step_memory_at_n1024_is_bounded(centered_source):
    # one Newton step on criterion 8's ellipse at n = 1024: the accepted
    # state holds L and H (its bundle released the LU factors and K' when
    # L was built), and both the Newton solve (W H with the copy of its
    # positive definiteness test, then W (H + mu G) with cho_factor's copy
    # of it) and the trial state's bundle (S, factored in its own buffer,
    # K' and block-sized assembly buffers) add about two n x n arrays, 4.15
    # measured from a cold cache
    n = 1024
    curve = Curve.ellipse(1.2, 0.8, n=n)
    params = MetricParams(A=1.0, k=1.0)
    tracemalloc.start()
    try:
        res = descend(curve, centered_source, params, FlowConfig(max_iters=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.iterations == 1
    assert peak <= 4.3 * n * n * 8


def test_trace_csv_matches_the_per_row_formatter(small_flow, tmp_path):
    # reference: the iteration with %d, every other field with %.17g
    path = tmp_path / "trace.csv"
    write_trace(small_flow, path)
    rows = ["%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (
        r.iteration, r.J, r.grad_norm, r.step, r.min_kappa, r.max_kappa,
        r.circle_deviation) for r in small_flow.records]
    assert path.read_text() == (
        "iter,J,gradnorm,step,minK,maxK,circdev\n" + "".join(rows))
    assert len(rows) == len(small_flow.records) > 1


def test_convergence_report_contents(small_flow):
    rep = convergence_report(small_flow)
    assert rep["reason"] == "gradient"
    assert rep["grad_drop"] > 1e3
    assert rep["fit_radius"] == pytest.approx(1.0, abs=1e-3)
    assert rep["J_final"] <= rep["J_initial"]

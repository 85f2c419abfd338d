import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from quadshape import flow
from quadshape.flow import (MAX_BACKTRACKS, REJECTION_REASONS, FlowConfig,
                            circle_deviation, convergence_report, descend,
                            fit_circle, newton_direction)
from quadshape.geometry import (Curve, GeometryError, MetricParams, flow_curve,
                                metric_weight, resample_by_arclength)
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


@pytest.mark.parametrize("rejects, resample_fails, reason, resamples", [
    (MAX_BACKTRACKS + 1, False, "max_iters", 1),
    (MAX_BACKTRACKS + 1, True, "step_collapse", 0),
    (2 * (MAX_BACKTRACKS + 1), False, "step_collapse", 1),
])
def test_collapsed_line_search_is_redone_once_after_a_resample(
        centered_source, monkeypatch, rejects, resample_fails, reason,
        resamples):
    # the first `rejects` trials are rejected, so the first line search
    # collapses: the iterate is resampled once and its direction and line
    # search are redone from the unit step.  The line search has collapsed
    # only when that resample fails validation or the second line search
    # collapses too
    steps = []

    def flow_or_reject(curve, x, t):
        steps.append(-t)
        if len(steps) <= rejects:
            raise GeometryError("trial rejected")
        return flow_curve(curve, x, t)

    def resample(curve):
        if resample_fails:
            raise GeometryError("resampled curve self-intersects")
        return resample_by_arclength(curve)

    monkeypatch.setattr(flow, "flow_curve", flow_or_reject)
    monkeypatch.setattr(flow, "resample_by_arclength", resample)
    params = MetricParams(A=1.0, k=1.0)
    res = descend(Curve.ellipse(1.2, 0.8, n=64), centered_source, params,
                  FlowConfig(max_iters=1))
    assert (res.reason, res.resamples) == (reason, resamples)
    searches = 1 if resample_fails else 2
    assert res.rejected == {"geometry": min(rejects, searches * (
        MAX_BACKTRACKS + 1)), "solver": 0, "armijo": 0}
    if reason == "max_iters":
        assert res.iterations == 1
        assert steps[MAX_BACKTRACKS + 1] == res.records[1].step == 1.0
    else:
        assert res.iterations == 0
        assert len(steps) == searches * (MAX_BACKTRACKS + 1)


def test_failed_resample_keeps_the_accepted_state(centered_source,
                                                  monkeypatch):
    def fail(curve):
        raise GeometryError("resampled curve self-intersects")

    monkeypatch.setattr(flow, "resample_by_arclength", fail)
    # criterion 8's ellipse is still far above GRAD_TOL after the fifth
    # accepted step (2.9e-6), so the run goes on from the kept state
    curve = Curve.ellipse(1.2, 0.8, n=64)
    params = MetricParams(A=1.0, k=1.0)
    res = descend(curve, centered_source, params,
                  FlowConfig(max_iters=6, grad_tol_rel=0.0))
    assert res.iterations == 6
    assert res.resamples == 0
    assert res.curve.n == 64


def test_line_search_after_a_resample_holds_one_state(centered_source):
    # after the resample at the fifth accepted step, the replaced state,
    # which holds its DtN matrix L and its shape Hessian H, is freed before
    # the sixth line search (criterion 8's ellipse needs six steps to reach
    # GRAD_TOL): 6.48 n x n arrays measured, and kept, those two arrays lift
    # the peak to 8.67, past the bound
    n = 128
    curve = Curve.ellipse(1.2, 0.8, n=n)
    params = MetricParams(A=1.0, k=1.0)
    tracemalloc.start()
    try:
        res = descend(curve, centered_source, params,
                      FlowConfig(max_iters=6, grad_tol_rel=0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.iterations == 6 and res.resamples == 1
    assert peak <= 7 * n * n * 8


def test_clearance_violating_trial_is_rejected_as_geometry():
    # with k = 1.5 and mass 2 the Newton direction runs from about 0.4
    # near the off-centre disk to 1 across from it, so the unit first trial
    # shrinks the circle to a simple curve that pinches the disk's
    # clearance; the halved step is accepted
    curve = Curve.circle(1.0, n=64)
    source = SourceTerm((Disk(0.5, 0.0, 0.1, 2.0),))
    params = MetricParams(A=1.0, k=1.5)
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
    assert res.iterations <= 5      # 4 measured at each n
    radii = np.hypot(res.curve.points[:, 0], res.curve.points[:, 1])
    assert np.max(np.abs(radii - 1.0)) <= 1e-3


def test_newton_descent_converges_quadratically(centered_source):
    # near the critical circle W H is positive definite and the step is the
    # unshifted Newton step: the metric gradient norm g obeys
    # g[k+1] <= C g[k]^2 over the first five steps (1.77, 0.52, 0.061,
    # 1.8e-3, 2.9e-6, 9.5e-12 measured, g[k+1] / g[k]^2 at most 1.17).  A
    # shift mu G converges linearly instead, and that ratio grows like
    # 1 / g[k] (124 at the fifth step with mu = k^2 / 2).  The sixth
    # gradient is the discretization floor
    curve = Curve.ellipse(1.2, 0.8, n=256)
    params = MetricParams(A=1.0, k=1.0)
    res = descend(curve, centered_source, params,
                  FlowConfig(max_iters=5, grad_tol_rel=0.0))
    g = np.array([r.grad_norm for r in res.records])
    assert res.iterations == 5
    assert np.all(g[1:] / g[:-1]**2 <= 2.0)
    assert g[-1] < 1e-10


def test_newton_direction_solves_the_unshifted_system(centered_source):
    # W H is positive definite on criterion 8's ellipse, so x solves the
    # Newton system H x = psi itself (mu = 0, residual 3.1e-15 relative
    # measured), and x descends: sum(psi x w) > 0
    state = solve_state(Curve.ellipse(1.2, 0.8, n=64), centered_source, 1.0)
    params = MetricParams(A=1.0, k=1.0)
    H = direct_hessian(state)
    g = metric_weight(state.curve, params)
    assert symmetric_spectrum(H / g[:, None], state.curve.weights * g,
                              1)[0] > 0.0
    x = newton_direction(state, params)
    residual = H @ x - state.psi
    assert np.max(np.abs(residual)) < 1e-12 * np.max(np.abs(state.psi))
    assert np.sum(state.psi * x * state.curve.weights) > 0.0


def count_eigen_solves(monkeypatch):
    calls = []

    def counted(buf, weights, count, floor=None):
        calls.append(count)
        return symmetric_spectrum(buf, weights, count, floor)

    monkeypatch.setattr(flow, "symmetric_spectrum", counted)
    return calls


def shifted_solve(state, params, mu):
    # the Newton system W (H + mu G) x = W psi, assembled and factored in
    # the order newton_direction uses (the transpose of W H + mu W G, in
    # Fortran order), so the solution compares bit for bit; mu = 0 adds
    # nothing to the diagonal
    w = state.curve.weights
    wh = w[:, None] * direct_hessian(state)
    if mu:
        wh[np.diag_indices_from(wh)] += mu * (w * metric_weight(state.curve,
                                                                  params))
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(wh.T),
                                  w * state.psi)


def test_newton_direction_skips_the_eigen_solve_when_positive_definite(
        ellipse_state, unit_params, monkeypatch):
    # criterion 8's ellipse has a positive definite W H: the Cholesky test
    # passes, its factor solves the unshifted system (mu = 0) and no
    # eigenvalue is computed
    calls = count_eigen_solves(monkeypatch)
    x = newton_direction(ellipse_state, unit_params)
    assert calls == []
    assert np.array_equal(x, shifted_solve(ellipse_state, unit_params, 0.0))


def shifted_ellipse_state(source, params, lowest, n=128):
    # criterion 8's ellipse with H replaced by H - c G, which keeps W H
    # symmetric and moves every pencil eigenvalue down by c, so that the
    # lowest is `lowest`
    state = solve_state(Curve.ellipse(1.2, 0.8, n=n), source, params.k)
    g = metric_weight(state.curve, params)
    H = direct_hessian(state)
    lam0 = symmetric_spectrum(H / g[:, None], state.curve.weights * g, 1)[0]
    assert lam0 > 0.0
    state._H = H - (lam0 - lowest) * np.diag(g)
    return state


def test_newton_direction_shifts_an_indefinite_hessian(centered_source,
                                                       unit_params,
                                                       monkeypatch):
    # with lambda0 = -1 the Cholesky test fails and one eigen-solve sets
    # mu = -lambda0 + k^2 / 2
    state = shifted_ellipse_state(centered_source, unit_params, -1.0)
    g = metric_weight(state.curve, unit_params)
    wg = state.curve.weights * g
    calls = count_eigen_solves(monkeypatch)
    x = newton_direction(state, unit_params)
    assert calls == [1]
    lam0 = symmetric_spectrum(state._H / g[:, None], wg, 1)[0]
    assert lam0 < 0.0
    mu = max(0.0, -float(lam0)) + 0.5 * state.k**2
    assert mu >= 0.5 * state.k**2
    assert np.array_equal(x, shifted_solve(state, unit_params, mu))


def test_newton_direction_doubles_the_margin_over_a_misplaced_lambda0(
        centered_source, unit_params, monkeypatch):
    # on a kinked iterate the subset solve can misplace lambda0 by more than
    # the k^2 / 2 margin.  Here it reads lambda0 = -1.5 as 0.5, so the shift
    # is 0: margins 1/2 and 1 leave the shifted system indefinite, and the
    # doubled margin 2 makes it positive definite
    state = shifted_ellipse_state(centered_source, unit_params, -1.5)
    with pytest.raises(scipy.linalg.LinAlgError):
        shifted_solve(state, unit_params, 1.0)

    def misplaced(buf, weights, count, floor=None):
        return symmetric_spectrum(buf, weights, count, floor) + 2.0

    monkeypatch.setattr(flow, "symmetric_spectrum", misplaced)
    x = newton_direction(state, unit_params)
    assert np.array_equal(x, shifted_solve(state, unit_params, 2.0))


def test_newton_direction_raises_when_no_margin_makes_it_definite(
        centered_source, unit_params, monkeypatch):
    # lambda0 = -1e4 read as 0: the largest margin, k^2 / 2 doubled
    # MAX_SHIFT_DOUBLINGS times (512), is too small, and the failure is
    # raised, not solved around
    state = shifted_ellipse_state(centered_source, unit_params, -1e4)
    monkeypatch.setattr(flow, "symmetric_spectrum",
                        lambda buf, weights, count, floor=None: np.zeros(1))
    assert 0.5 * 2**flow.MAX_SHIFT_DOUBLINGS < 1e4
    with pytest.raises(scipy.linalg.LinAlgError):
        newton_direction(state, unit_params)


def test_failed_newton_direction_stops_the_descent(centered_source,
                                                   monkeypatch):
    # a Newton system that no margin makes positive definite ends the run
    # with its own reason, after the iterates accepted so far
    directions = []

    def fail_second(state, params):
        directions.append(state)
        if len(directions) == 2:
            raise scipy.linalg.LinAlgError("not positive definite")
        return newton_direction(state, params)

    monkeypatch.setattr(flow, "newton_direction", fail_second)
    res = descend(Curve.ellipse(1.2, 0.8, n=64), centered_source,
                  MetricParams(A=1.0, k=1.0), FlowConfig())
    assert (res.reason, res.iterations) == ("direction_failure", 1)
    assert len(res.records) == 2


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
    # with H built, W H is the one n x n array on criterion 8's ellipse,
    # where it is positive definite: the Cholesky test factors it in place
    # and its factor solves the system, 1.13 measured
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
    assert peak <= 1.3 * n * n * 8


def test_indefinite_newton_direction_memory_is_bounded(centered_source,
                                                        unit_params):
    # with H built and lambda0 = -1, the failed Cholesky test leaves W H's
    # buffer for G^-1 H, which the eigen-solve reads into a buffer of its
    # own, and then for the shifted system: two n x n arrays, 2.197
    # measured
    n = 512
    state = shifted_ellipse_state(centered_source, unit_params, -1.0, n=n)
    tracemalloc.start()
    try:
        newton_direction(state, unit_params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * n * n * 8


def test_flow_step_memory_at_n1024_is_bounded(centered_source):
    # one Newton step on criterion 8's ellipse at n = 1024: the accepted
    # state holds L and H (its bundle released the LU factors and K' when
    # L was built), the Newton solve adds W H, factored in place, and the
    # trial state's bundle (S, factored in its own buffer, K' and
    # block-sized assembly buffers) adds about two n x n arrays, 4.09
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

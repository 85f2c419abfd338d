"""Acceptance criteria for the whole toolbox, one test per criterion.

Each test measures its quantities, records a single PASS/FAIL line in
``RESULTS`` (printed in the terminal summary by conftest), and then asserts.
Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion lines.
"""

import time

import numpy as np
import pytest

from quadshape.bem import get_operators
from quadshape.cli import main
from quadshape.flow import FlowConfig, descend
from quadshape.geometry import Curve, MetricParams, NormalField
from quadshape.potential import Disk, SourceTerm
from quadshape.riemannian import check_metric_compatibility, torsion
from quadshape.shape import (evaluate_J, fd_second_derivative,
                             hadamard_derivative, hessian_report,
                             solve_state, steklov_form)

from arbiters import flow_hessian_form

RESULTS = {}

MASS = 2 * np.pi
RHO = 0.1


def _record(num, label, ok, detail):
    RESULTS[num] = {"label": label, "ok": bool(ok), "detail": detail}
    line = f"criterion {num} [{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    assert ok, line


def _critical_source():
    return SourceTerm([Disk(0.0, 0.0, RHO, MASS)])


def _critical_state():
    return solve_state(Curve.circle(1.0, n=256), _critical_source(), 1.0)


def _closed_form_J(R, rho, mass, k):
    return (-mass**2 / (4 * np.pi) * np.log(R / rho)
            - mass**2 / (16 * np.pi) + k**2 * np.pi * R**2 / 2)


def test_criterion_1_dtn_circle_symbol():
    start = time.perf_counter()
    curve = Curve.circle(1.0, n=256)
    ops = get_operators(curve)
    worst = 0.0
    for n in range(1, 9):
        values = np.cos(n * curve.theta)
        err = float(np.max(np.abs(ops.dtn_matrix @ values - n * values)))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    _record(1, "DtN symbol on the unit circle (modes 1..8, 256 nodes)", ok,
            f"max error {worst:.3e} (tol 1e-06), {elapsed:.2f}s (limit 5s)")


def test_criterion_2_gauss_bonnet():
    shapes = {
        "circle": Curve.circle(1.0, n=128),
        "ellipse(2,1)": Curve.ellipse(2.0, 1.0, n=128),
        "flower": Curve.from_radial(1.0, cos={3: 0.3}, n=128),
    }
    gaps = {name: abs(float(np.sum(c.kappa * c.weights)) - 2 * np.pi)
            for name, c in shapes.items()}
    worst = max(gaps.values())
    ok = worst <= 1e-8
    detail = ", ".join(f"{k} {v:.2e}" for k, v in gaps.items())
    _record(2, "total curvature equals 2 pi", ok,
            f"gaps {detail} (tol 1e-08)")


def test_criterion_3_critical_disk():
    state = _critical_state()
    J = evaluate_J(state)
    J_exact = _closed_form_J(1.0, RHO, MASS, 1.0)
    flux_err = float(np.max(np.abs(state.u_nu + 1.0)))
    J_rel = abs(J - J_exact) / abs(J_exact)
    grads = {}
    for mode in ("const", "cos1", "cos2", "sin3"):
        d = NormalField.from_mode(mode, state.curve.n)
        grads[mode] = abs(hadamard_derivative(state, d))
    grad_worst = max(grads.values())
    ok = (flux_err <= 1e-5 and J_rel <= 1e-5
          and grad_worst <= 1e-5 * abs(J))
    _record(3, "unit disk with matched source is critical", ok,
            f"max|u_nu+1| {flux_err:.2e} (tol 1e-05), "
            f"|J-J_exact|/|J| {J_rel:.2e} (tol 1e-05), "
            f"max first variation {grad_worst:.2e} "
            f"(tol {1e-5 * abs(J):.1e})")


def _fd_calibration():
    if "fd_calibration" not in RESULTS:
        curve = Curve.circle(1.0, n=256)
        source = _critical_source()
        state = solve_state(curve, source, 1.0)
        breathing = fd_second_derivative(
            state, NormalField.constant(1.0, curve.n)).value
        translation = fd_second_derivative(
            state, NormalField.from_mode("cos1", curve.n),
            source_velocity=(1.0, 0.0)).value
        RESULTS["fd_calibration"] = (breathing, translation)
    return RESULTS["fd_calibration"]


def test_criterion_4_second_derivative_calibration():
    breathing, translation = _fd_calibration()
    b_rel = abs(breathing - 2 * np.pi) / (2 * np.pi)
    ok = b_rel <= 1e-2 and abs(translation) <= 1e-3
    _record(4, "finite-difference second derivative calibration", ok,
            f"breathing {breathing:.6f} vs 2pi (rel {b_rel:.2e}, tol 1e-02), "
            f"translation {translation:.2e} (tol 1e-03)")


def test_criterion_5_hessian_routes_agree():
    state = _critical_state()
    modes = ["const", "cos1", "cos2", "sin2"]
    rep = hessian_report(state, modes, A=1.0)
    worst = 0.0
    for row in rep["pairs"]:
        scale = max(abs(row["fd"]), 1.0)
        worst = max(worst, abs(row["flow"] - row["direct"]) / (2 * scale))
    fields = [NormalField.from_mode(m, state.curve.n) for m in modes[:2]]
    a_dep = max(
        abs(flow_hessian_form(state, a, b, A=0.5)
            - flow_hessian_form(state, a, b, A=2.0))
        for a in fields for b in fields)
    ok = (len(rep["pairs"]) == 10 and worst <= 2e-3
          and rep["max_flow_asymmetry"] <= 1e-4 and a_dep <= 1e-12)
    _record(5, "flow and direct Hessian routes agree at the critical disk",
            ok,
            f"{len(rep['pairs'])} pairs, max rel gap {worst:.2e} (tol 2e-03), "
            f"asymmetry {rep['max_flow_asymmetry']:.2e} (tol 1e-04), "
            f"A-dependence {a_dep:.2e} (tol 1e-12)")


def test_criterion_6_connection_structure():
    params = MetricParams(A=1.0, k=1.0)
    flower = Curve.from_radial(1.0, cos={3: 0.2}, sin={2: 0.1}, n=128)
    v = NormalField.from_mode("cos2", flower.n)
    w = NormalField.from_mode("sin3", flower.n)
    tor = float(np.max(np.abs(torsion(flower, params, v, w))))

    circle = Curve.circle(1.0, n=128)
    h = NormalField.constant(1.0, circle.n)
    m = NormalField.from_mode("cos2", circle.n)
    compat_circle = check_metric_compatibility(circle, params, h, m, m,
                                               t_step=1e-4)
    r1 = check_metric_compatibility(flower, params, h, m, m, t_step=1e-3)
    r2 = check_metric_compatibility(flower, params, h, m, m, t_step=5e-4)
    ratio = r1 / r2
    ok = (tor <= 1e-14 and compat_circle <= 1e-6 and 3.5 <= ratio <= 4.5)
    _record(6, "connection is torsion-free and metric-compatible", ok,
            f"max torsion {tor:.2e} (tol 1e-14), circle residual "
            f"{compat_circle:.2e} (tol 1e-06), residual decay ratio "
            f"{ratio:.2f} for half step (expect ~4)")


def test_criterion_7_steklov_spectrum():
    state = _critical_state()
    worst = 0.0
    values = []
    for n in range(1, 5):
        a = NormalField.from_mode(f"cos{n}", state.curve.n)
        q = steklov_form(state, a)
        values.append(q)
        worst = max(worst, abs(q - np.pi * (n - 1)))
    const = NormalField.constant(1.0, state.curve.n)
    q0 = steklov_form(state, const)
    fd0 = _fd_calibration()[0]
    ok = worst <= 1e-4
    vals = ", ".join(f"{v:.6f}" for v in values)
    _record(7, "quadratic boundary form spectrum at the critical disk", ok,
            f"modes 1..4 give {vals} vs (n-1) pi (tol 1e-04); the "
            f"curvature term has the opposite sign to the finite difference "
            f"in every mode, pi (m-1) against pi (m+1) on cos m and "
            f"{q0:.4f} against {fd0:.4f} on the constant mode (known sign "
            f"discrepancy, reported not resolved)")


def test_criterion_8_gradient_flow_reaches_circle():
    breathing, translation = _fd_calibration()
    calibrated = (abs(breathing - 2 * np.pi) / (2 * np.pi) <= 1e-2
                  and abs(translation) <= 1e-3)
    if not calibrated:
        _record(8, "gradient flow drives an ellipse to the critical circle",
                False, "gated on criterion 4: calibration failed")
    start = time.perf_counter()
    curve = Curve.ellipse(1.2, 0.8, n=128)
    params = MetricParams(A=1.0, k=1.0)
    result = descend(curve, _critical_source(), params, FlowConfig())
    elapsed = time.perf_counter() - start
    radii = np.hypot(result.curve.points[:, 0], result.curve.points[:, 1])
    band = float(np.max(np.abs(radii - 1.0)))
    ok = (result.grad_drop >= 1e3 and band <= 1e-2
          and result.iterations <= 500 and elapsed < 60.0)
    _record(8, "gradient flow drives an ellipse to the critical circle", ok,
            f"gradient drop {result.grad_drop:.2e} (need 1e+03), "
            f"max radius error {band:.2e} (tol 1e-02), "
            f"{result.iterations} iterations (limit 500), "
            f"{elapsed:.1f}s (limit 60s)")


def test_criterion_9_deterministic_reports(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
[geometry]
kind = circle
radius = 1.0
n = 128

[source]
rho = 0.1
mass = 6.283185307179586
""")
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["evaluate", str(cfg), "--out", str(out), "--quiet"])
        assert code == 0
        blobs.append((out / "report.json").read_bytes())
    ok = blobs[0] == blobs[1]
    _record(9, "repeated runs produce byte-identical reports", ok,
            f"report.json identical across two runs: {ok} "
            f"({len(blobs[0])} bytes)")

import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import quadshape
from quadshape.bem import BoundaryOperators, assemble_operators
from quadshape.cli import main
from quadshape.config import load_config
from quadshape.geometry import Curve
from quadshape.reports import (_CSV_BLOCK_VALUES, TRACE_HEADER, curves_svg,
                               format_float, solver_dict, to_json, write_csv,
                               write_matrix_csv, write_trace)
from quadshape.shape import solve_state

CRITICAL_CFG = """
[geometry]
kind = circle
radius = 1.0
n = 128

[source]
x = 0.0
y = 0.0
rho = 0.1
mass = 6.283185307179586

[params]
A = 1.0
k = 1.0

[directions]
modes = const, cos1
"""

# Off-center source so no direction is killed by symmetry.
ELLIPSE_CFG = """
[geometry]
kind = ellipse
rx = 1.2
ry = 0.8
n = 128

[source]
x = 0.3
y = 0.1
rho = 0.1
mass = 6.283185307179586
"""

FLOW_CFG = """
[geometry]
kind = ellipse
rx = 1.1
ry = 0.9
n = 64

[source]
rho = 0.1
mass = 6.283185307179586

[flow]
grad_tol_rel = 1e-3

[output]
snapshot_every = 5
"""


def centered_J(R, rho, mass, k):
    return (-mass**2 / (4 * np.pi) * np.log(R / rho)
            - mass**2 / (16 * np.pi) + k**2 * np.pi * R**2 / 2)


def run_cli(tmp_path, cfg_text, command, *extra, name="run.cfg"):
    cfg = tmp_path / name
    cfg.write_text(cfg_text)
    out = tmp_path / "out"
    code = main([command, str(cfg), "--out", str(out), "--quiet", *extra])
    return code, out


def load_report(out):
    text = (out / "report.json").read_text()
    return json.loads(text)


# ---------------------------------------------------------------------------
# report formatting


def test_format_float_round_trips_doubles():
    for x in (1.0, -0.1, math.pi, 1e-300, 2**53 + 1.0, 3.0):
        assert float(format_float(x)) == x
    assert format_float(2.0) == "2.0"
    assert format_float(float("nan")) == "NaN"
    assert format_float(float("inf")) == "Infinity"
    assert format_float(float("-inf")) == "-Infinity"


def test_to_json_layout_and_types():
    doc = {
        "a": 1,
        "b": [1.5, "x", None, True],
        "c": {"nested": np.float64(0.25)},
        "arr": np.arange(3.0),
        "empty": {},
    }
    text = to_json(doc)
    assert text.endswith("}\n")
    assert '"b": [\n' in text
    assert '"empty": {}' in text
    parsed = json.loads(text)
    assert parsed["c"]["nested"] == 0.25
    assert parsed["arr"] == [0.0, 1.0, 2.0]


def test_to_json_escapes_strings():
    assert json.loads(to_json({"s": 'a"b\n\t'}))["s"] == 'a"b\n\t'


def test_to_json_rejects_unknown_types():
    with pytest.raises(TypeError, match="deterministically"):
        to_json({"bad": object()})


def test_to_json_is_deterministic():
    doc = {"x": [math.pi, 1 / 3], "y": {"z": -0.0}}
    assert to_json(doc) == to_json(doc)


def test_write_csv(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, "a,b", np.column_stack([[1.0, 2.0], [0.5, -0.25]]))
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,0.5"
    assert len(lines) == 3


def test_write_csv_of_no_rows_keeps_the_header(tmp_path):
    # a table with no rows, as an array or as an empty list of rows, is its
    # header line alone; without a header it is an empty file
    path = tmp_path / "t.csv"
    write_csv(path, "a,b", np.empty((0, 2)))
    assert path.read_text() == "a,b\n"
    write_csv(path, None, np.empty((0, 2)))
    assert path.read_text() == ""
    write_trace(SimpleNamespace(records=[]), path)
    assert path.read_text() == TRACE_HEADER + "\n"


def test_write_csv_matches_the_per_row_formatter(tmp_path):
    # reference: every value through format(v, ".17g"), row by row, on a
    # table of several formatting blocks with non-finite values and -0.0
    rng = np.random.default_rng(3)
    table = rng.standard_normal((3 * _CSV_BLOCK_VALUES // 7 + 5, 7))
    table[::50] *= 1e300
    table[1, :6] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 2.0]
    table[-1, :3] = [np.nan, -0.0, 1e-300]
    path = tmp_path / "t.csv"
    write_csv(path, "a,b,c,d,e,f,g", table)
    rows = [",".join(format(v, ".17g") for v in row) + "\n" for row in table]
    assert path.read_text() == "a,b,c,d,e,f,g\n" + "".join(rows)
    write_csv(path, None, table[:3])
    assert path.read_text() == "".join(rows[:3])
    assert "nan,inf,-inf,-0,0,2," in rows[1]


def test_matrix_dump_streams_and_round_trips(tmp_path):
    # n = 1024 matrix: the formatted text never lives whole in memory
    n = 1024
    matrix = np.random.default_rng(4).standard_normal((n, n))
    path = tmp_path / "m.csv"
    tracemalloc.start()
    try:
        write_matrix_csv(matrix, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.3 * n * n * 8
    assert np.array_equal(np.loadtxt(path, delimiter=","), matrix)


def per_point_polylines(curves):
    # reference: each point's panel coordinates through "%.2f,%.2f" alone,
    # the first point repeated to close the polyline
    size, pad = 220, 12
    out = []
    for idx, curve in enumerate(curves):
        lo, hi = curve.points.min(axis=0), curve.points.max(axis=0)
        span = float(np.max(hi - lo))
        scale = (size - 2 * pad) / span if span > 0 else 1.0
        cx, cy = 0.5 * (lo[0] + hi[0]), 0.5 * (lo[1] + hi[1])
        x0 = idx * size + size / 2
        coords = ["%.2f,%.2f" % (x0 + (px - cx) * scale,
                                 size / 2 - (py - cy) * scale)
                  for px, py in curve.points]
        out.append(" ".join(coords + coords[:1]))
    return out


def test_curves_svg_polylines_match_the_per_point_formatter():
    curves = [Curve.circle(1.0, n=16), Curve.ellipse(1.2, 0.8, n=128),
              Curve.from_radial(1.0, cos={2: 0.15}, sin={5: 0.05}, n=256),
              Curve(Curve.circle(0.3, n=32).points + [5.0, -2.0])]
    svg = curves_svg(curves)
    assert re.findall(r'points="([^"]*)"', svg) == per_point_polylines(curves)


def test_curves_svg_structure():
    svg = curves_svg([Curve.circle(1.0, n=32), Curve.circle(2.0, n=32)],
                     ["a", "b"])
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2
    assert ">a</text>" in svg and ">b</text>" in svg


# ---------------------------------------------------------------------------
# commands


def test_reported_rcond_is_deterministic():
    # LAPACK's estimate varies in its last digits between builds of the
    # same n = 256 circle; the report rounds it to 3 significant digits
    values = {solver_dict(BoundaryOperators(Curve.circle(1.0, n=256)))["rcond"]
              for _ in range(30)}
    assert len(values) == 1
    rcond = values.pop()
    assert rcond == float("%.3g" % rcond) > 0.0


def test_evaluate_writes_report_and_artifacts(tmp_path):
    code, out = run_cli(tmp_path, CRITICAL_CFG, "evaluate")
    assert code == 0
    report = load_report(out)
    assert report["command"] == "evaluate"
    expected = centered_J(1.0, 0.1, 2 * np.pi, 1.0)
    assert report["J"] == pytest.approx(expected, rel=1e-8)
    assert report["u_nu"]["mean"] == pytest.approx(-1.0, abs=1e-10)
    assert report["psi"]["max_abs"] < 1e-9
    # margin is dist(center, boundary) - 2 rho, so ~0.9997 - 0.2 at n=128
    assert report["clearance_margin"] == pytest.approx(0.8, abs=5e-3)
    assert report["config"]["curve"]["n"] == 128
    assert (out / "curve.csv").exists()
    state_lines = (out / "state.csv").read_text().splitlines()
    assert state_lines[0] == "theta,x,y,u_nu,psi,kappa,w"
    assert len(state_lines) == 129


def test_reports_are_byte_identical_across_runs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CRITICAL_CFG)
    outs = []
    for name in ("out1", "out2"):
        out = tmp_path / name
        assert main(["evaluate", str(cfg), "--out", str(out), "--quiet"]) == 0
        outs.append(out)
    for fname in ("report.json", "state.csv", "curve.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_dump_operators_flag(tmp_path):
    code, out = run_cli(tmp_path, CRITICAL_CFG, "evaluate", "--dump-operators")
    assert code == 0
    # the bundle keeps only the LU factors of S, so the dump reassembles S
    # on the bundle's working (here rescaled) curve: value for value the
    # matrix that was factored
    dumped = np.loadtxt(out / "single_layer.csv", delimiter=",")
    ops = BoundaryOperators(load_config(tmp_path / "run.cfg").build_curve())
    assert ops.scale == 4.0
    assert dumped.shape == (128, 128)
    assert np.array_equal(dumped, assemble_operators(ops._work)[0])
    assert (out / "dtn.csv").exists()


def test_quiet_suppresses_summary(tmp_path, capsys):
    run_cli(tmp_path, CRITICAL_CFG, "evaluate")
    assert capsys.readouterr().out == ""
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "loud"
    assert main(["evaluate", str(cfg), "--out", str(out)]) == 0
    assert "J = " in capsys.readouterr().out


def test_gradient_ratio_near_half(tmp_path):
    code, out = run_cli(tmp_path, ELLIPSE_CFG, "gradient")
    assert code == 0
    report = load_report(out)
    assert report["fitted_fd_over_boundary"] == pytest.approx(0.5, rel=1e-5)
    for entry in report["directions"]:
        assert entry["ratio"] == pytest.approx(0.5, rel=1e-3)
    assert report["gradient_norm"] > 0.0


def test_hessian_command(tmp_path):
    code, out = run_cli(tmp_path, CRITICAL_CFG, "hessian")
    assert code == 0
    rep = load_report(out)["hessian"]
    assert len(rep["pairs"]) == 3
    assert rep["fitted_slopes"]["flow"] == pytest.approx(2.0, rel=1e-3)
    assert rep["fitted_slopes"]["direct"] == pytest.approx(2.0, rel=1e-3)
    assert rep["max_flow_asymmetry"] < 1e-8
    labels = rep["directions"]
    diag = {labels[p["i"]]: p for p in rep["pairs"] if p["i"] == p["j"]}
    assert diag["const"]["fd"] == pytest.approx(2 * np.pi, rel=1e-4)
    assert diag["cos1"]["fd"] == pytest.approx(2 * np.pi, rel=1e-4)


@pytest.mark.parametrize("dump", [False, True])
@pytest.mark.parametrize("command",
                         ["evaluate", "gradient", "hessian", "diagnose",
                          "spectrum"])
def test_state_commands_write_the_common_artifacts(tmp_path, command, dump):
    code, out = run_cli(tmp_path, CRITICAL_CFG, command,
                        *(["--dump-operators"] if dump else []))
    assert code == 0
    report = load_report(out)
    assert list(report)[:2] == ["command", "config"]
    assert report["command"] == command
    assert (out / "curve.csv").exists()
    assert (out / "state.csv").exists()
    for name in ("single_layer.csv", "dtn.csv"):
        assert (out / name).exists() == dump


def test_flow_command_artifacts(tmp_path):
    code, out = run_cli(tmp_path, FLOW_CFG, "flow")
    assert code == 0
    report = load_report(out)
    assert list(report) == ["command", "config", "flow", "final_curve"]
    assert not (out / "state.csv").exists()
    conv = report["flow"]
    assert conv["reason"] == "gradient"
    assert conv["grad_drop"] > 1e3
    assert report["final_curve"]["max_kappa"] == pytest.approx(1.0, abs=1e-2)
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == TRACE_HEADER
    assert len(trace) == conv["iterations"] + 2
    snaps = sorted((out / "snapshots").iterdir())
    assert snaps[0].name == "iter0000.csv"
    assert snaps[-1].name == f"iter{conv['iterations']:04d}.csv"
    svg = (out / "flow.svg").read_text()
    assert svg.startswith("<svg") and "iter 0" in svg


def test_flow_with_svg_off_writes_the_other_artifacts(tmp_path):
    code, out = run_cli(tmp_path, FLOW_CFG + "svg = false\n", "flow")
    assert code == 0
    assert {p.name for p in out.iterdir()} == {
        "report.json", "trace.csv", "curve.csv", "snapshots"}


# The circle shrinks onto the off-centre disk's clearance limit until the
# line search collapses; on the way a resampled curve pinches the clearance.
CLEARANCE_COLLAPSE_CFG = """
[geometry]
kind = circle
radius = 1
n = 64

[source]
x = 0.5
y = 0
rho = 0.1
mass = 1

[params]
k = 2
"""


def test_collapsed_flow_exits_3_after_writing_artifacts(tmp_path, capsys):
    code, out = run_cli(tmp_path, CLEARANCE_COLLAPSE_CFG, "flow")
    assert code == 3
    assert "line search collapsed" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == TRACE_HEADER
    assert (out / "curve.csv").exists()
    assert (out / "flow.svg").exists()
    assert (out / "snapshots" / "iter0000.csv").exists()


def test_failed_newton_direction_exits_3_after_writing_artifacts(
        tmp_path, capsys, monkeypatch):
    # the run stops with reason direction_failure before its first step
    import quadshape.flow as flow

    def fail(state, params):
        raise scipy.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(flow, "newton_direction", fail)
    code, out = run_cli(tmp_path, ELLIPSE_CFG, "flow")
    assert code == 3
    assert ("no positive definite Newton system after 0 iterations"
            in capsys.readouterr().err)
    assert not (out / "report.json").exists()
    assert len((out / "trace.csv").read_text().splitlines()) == 2
    assert (out / "curve.csv").exists()
    assert (out / "snapshots" / "iter0000.csv").exists()


def test_diagnose_command(tmp_path):
    # Constant carrier with a self-paired field: the compatibility residual
    # is then pure central-difference truncation and must decay at order 2.
    cfg = ELLIPSE_CFG + "\n[directions]\nmodes = const, cos2, cos2\n"
    code, out = run_cli(tmp_path, cfg, "diagnose")
    assert code == 0
    report = load_report(out)
    assert report["connection"]["torsion_max"] < 1e-12
    assert report["connection"]["compatibility_order"] == pytest.approx(2.0, abs=0.3)
    assert report["psi_normal_derivative"]["rel_diff_sampled"] < 0.2
    kd = report["curvature_normal_derivative"]
    assert kd["max_diff_outward_vs_fd"] < kd["max_diff_inward_vs_fd"]
    assert report["stability"]["total_curvature"] == pytest.approx(2 * np.pi)


def test_spectrum_command(tmp_path):
    code, out = run_cli(tmp_path, CRITICAL_CFG, "spectrum")
    assert code == 0
    report = load_report(out)
    dtn = report["dtn_eigenvalues"]
    assert dtn[0] == pytest.approx(0.0, abs=1e-8)
    assert dtn[1] == pytest.approx(1.0, abs=1e-8)
    assert dtn[2] == pytest.approx(1.0, abs=1e-8)
    assert report["stability_minus"][0] == pytest.approx(-1.0, abs=1e-6)
    assert report["lambda0_plus"] == pytest.approx(1.0, abs=1e-6)


def test_spectrum_solves_every_spectrum_through_one_route(tmp_path,
                                                         monkeypatch):
    # L, L - kappa and L + kappa all go through shape.symmetric_spectrum,
    # which only reads L, so the dumped L is the state's L untouched by the
    # three solves
    import quadshape.cli as cli
    import quadshape.shape as shape
    calls = []
    spectrum = shape.symmetric_spectrum

    def counting(*args, **kwargs):
        calls.append(args)
        return spectrum(*args, **kwargs)

    for module in (shape, cli):
        monkeypatch.setattr(module, "symmetric_spectrum", counting)
    code, out = run_cli(tmp_path, ELLIPSE_CFG, "spectrum", "--dump-operators")
    assert code == 0
    assert len(calls) == 3
    run = load_config(tmp_path / "run.cfg")
    fresh = solve_state(run.build_curve(), run.source, run.params.k)
    dumped = np.loadtxt(out / "dtn.csv", delimiter=",")
    assert np.array_equal(dumped, fresh.ops.dtn_matrix)


def test_spectrum_at_n1024_makes_no_dense_eigen_solve(tmp_path,
                                                      dense_solve_orders):
    # the spectrum benchmark's geometry, two disks in a radial curve at
    # n = 1024: all three spectra take block Lanczos above their Weyl
    # floors, and the report stays byte-identical across runs
    cfg = "\n".join([
        "[geometry]", "kind = radial", "base_radius = 1.0", "n = 1024",
        "cos2 = 0.03", "cos3 = -0.02", "sin4 = 0.03",
        "[source]", "x = 0.25", "y = 0.05", "rho = 0.08",
        "mass = 3.141592653589793",
        "[source]", "x = -0.2", "y = -0.1", "rho = 0.08",
        "mass = 3.141592653589793", ""])
    texts = []
    for _ in range(2):
        code, out = run_cli(tmp_path, cfg, "spectrum")
        assert code == 0
        texts.append((out / "report.json").read_bytes())
    assert dense_solve_orders == []
    assert texts[0] == texts[1]
    report = json.loads(texts[0])
    assert abs(report["dtn_eigenvalues"][0]) <= 1e-8
    assert len(report["stability_plus"]) == 16


SMALL_RADIAL_CFG = """
[geometry]
kind = radial
base_radius = 1.0
cos3 = 0.05
n = 32

[source]
rho = 0.1
mass = 6.283185307179586
"""


@pytest.mark.parametrize("max_eigs, expected", [(4, 4), (64, 32)])
def test_max_eigs_sets_the_reported_spectrum_length(tmp_path, max_eigs,
                                                    expected):
    # capped at n = 32 nodes
    cfg = SMALL_RADIAL_CFG + f"\n[output]\nmax_eigs = {max_eigs}\n"
    code, out = run_cli(tmp_path, cfg, "spectrum")
    assert code == 0
    report = load_report(out)
    for key in ("dtn_eigenvalues", "stability_minus", "stability_plus"):
        assert len(report[key]) == expected
    assert report["lambda0_minus"] == report["stability_minus"][0]
    code, out = run_cli(tmp_path, cfg, "diagnose")
    assert code == 0
    stab = load_report(out)["stability"]
    assert len(stab["eigenvalues_minus"]) == len(stab["eigenvalues_plus"]) \
        == expected


@pytest.mark.parametrize("max_eigs", [0, -3])
def test_nonpositive_max_eigs_exits_2(tmp_path, capsys, max_eigs):
    cfg = SMALL_RADIAL_CFG + f"\n[output]\nmax_eigs = {max_eigs}\n"
    code, out = run_cli(tmp_path, cfg, "spectrum")
    assert code == 2
    assert "max_eigs must be at least 1" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command, section, key, value", [
    ("gradient", "fd", "t_step", "0"),
    ("hessian", "fd", "t_step", "-1e-3"),
    ("diagnose", "fd", "t_step", "nan"),
    ("gradient", "fd", "t_step", "inf"),
    ("flow", "output", "snapshot_every", "0"),
    ("flow", "output", "snapshot_every", "-4"),
    ("flow", "flow", "max_iters", "0"),
    ("flow", "flow", "max_iters", "-3"),
    ("flow", "flow", "grad_tol_rel", "nan"),
    ("flow", "flow", "grad_tol_rel", "-1"),
    ("flow", "flow", "grad_tol_rel", "inf"),
])
def test_bad_step_or_snapshot_spacing_exits_2(tmp_path, capsys, command,
                                              section, key, value):
    cfg = SMALL_RADIAL_CFG + f"\n[{section}]\n{key} = {value}\n"
    code, out = run_cli(tmp_path, cfg, command)
    assert code == 2
    assert f"error: {key} must be" in capsys.readouterr().err
    assert not (out / "report.json").exists()


# ---------------------------------------------------------------------------
# exit codes


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CRITICAL_CFG + "\nk = -1.0\n")
    assert main(["evaluate", str(cfg), "--out", str(tmp_path / "o")]) == 2
    # parser error: key lands in [directions] which does not accept 'k'
    assert "error:" in capsys.readouterr().err


def test_nonpositive_k_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CRITICAL_CFG.replace("k = 1.0", "k = -1.0"))
    assert main(["evaluate", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "k must be positive" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["evaluate", str(tmp_path / "nope.cfg")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_no_config_argument_exits_2(capsys):
    assert main(["evaluate"]) == 2
    assert "no config file given" in capsys.readouterr().err


def test_source_touching_boundary_exits_3(tmp_path, capsys):
    bad = CRITICAL_CFG.replace("rho = 0.1", "rho = 1.05")
    code, _ = run_cli(tmp_path, bad, "evaluate")
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# BLAS thread pin

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SRC = pathlib.Path(quadshape.__file__).resolve().parent.parent
SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_python(*args, **env):
    """A fresh interpreter on this checkout's sources, BLAS variables unset
    unless given."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    base["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, *args], env={**base, **env},
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_runs_once(tmp_path):
    # the package root must not import quadshape.cli, or runpy warns that
    # the module is already loaded and then executes it a second time
    proc = run_python("-W", "error::RuntimeWarning", "-m", "quadshape.cli",
                      "evaluate", str(SCRIPTS / "critical_disk.cfg"),
                      "--out", str(tmp_path), "--quiet")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report.json").exists()


@pytest.mark.parametrize("env, expected", [({}, "1"),
                                           ({"OPENBLAS_NUM_THREADS": "2"},
                                            "2")])
def test_import_pins_blas_unless_set(env, expected):
    proc = run_python("-c", "import os, quadshape; "
                      "print(os.environ['OPENBLAS_NUM_THREADS'])", **env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected

"""Every script in scripts/ imports against the current API, and the
solver convergence table runs end to end."""

import importlib
import json
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
NAMES = sorted(p.stem for p in SCRIPTS.glob("*.py"))


@pytest.fixture
def scripts_path(monkeypatch):
    # scripts import each other by module name, as when run from scripts/
    monkeypatch.syspath_prepend(str(SCRIPTS))


@pytest.mark.parametrize("name", NAMES)
def test_script_imports(scripts_path, name):
    module = importlib.import_module(name)
    assert callable(module.main)


def test_dtn_convergence_runs(scripts_path, capsys):
    importlib.import_module("dtn_convergence").main()
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split()[0] == "n"
    # one row per resolution, every error column at roundoff level
    assert len(rows) == 7
    for row in rows[1:]:
        assert all(float(v) < 1e-10 for v in row.split()[1:])


def test_compare_outputs_configs_resolve_from_the_run_directory(
        scripts_path, tmp_path, monkeypatch):
    # each tree runs its jobs in OUTDIR/old or OUTDIR/new, so config paths
    # made from a relative OUTDIR must still point at the written configs
    compare = importlib.import_module("compare_outputs")
    monkeypatch.chdir(tmp_path)
    job_list = compare.jobs(pathlib.Path("cmp") / "configs", [7])
    rundir = tmp_path / "cmp" / "old"
    rundir.mkdir()
    monkeypatch.chdir(rundir)
    configs = [argv[1] for _, argv in job_list]
    assert configs
    for path in configs:
        assert pathlib.Path(path).is_file(), path


def test_compare_outputs_lists_the_largest_change_per_report_field(
        scripts_path, tmp_path):
    compare = importlib.import_module("compare_outputs")
    old = {"command": "hessian", "hessian": {
        "k": 1.0, "directions": ["const", "cos1"],
        "pairs": [{"pair": "const*const", "steklov": -2.0, "fd": 2.0},
                  {"pair": "const*cos1", "steklov": 0.5, "fd": 0.0}],
        "fitted_slopes": {"steklov": float("nan")}}}
    new = json.loads(json.dumps(old))
    new["hessian"]["pairs"][0]["steklov"] = -2.0 + 4e-14
    new["hessian"]["pairs"][1]["steklov"] = 0.5 - 1e-14
    new["hessian"]["pairs"][1]["fd"] = 1e-15
    new["hessian"]["directions"] = ["const", "cos2"]
    paths = []
    for name, report in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(report))
    changes = compare.report_changes(*paths)
    assert set(changes) == {"hessian.pairs[].steklov", "hessian.pairs[].fd",
                            "hessian.directions[]"}
    # relative to the largest magnitude on the path, so a rounding move of
    # an entry that is zero at the parent stays finite
    abs_change, rel_change = changes["hessian.pairs[].steklov"]
    assert abs_change == pytest.approx(4e-14, rel=1e-2)
    assert rel_change == pytest.approx(2e-14, rel=1e-2)
    assert changes["hessian.pairs[].fd"] == (1e-15, 5e-16)
    assert changes["hessian.directions[]"] is None


def test_compare_outputs_flow_starts_read_outcomes(scripts_path, tmp_path):
    # the sweep runs flow on the seeded flow_descent start of each seed and
    # compares exit code, reason, iterations and stderr
    compare = importlib.import_module("compare_outputs")
    job_list = compare.flow_start_jobs(tmp_path / "configs", 2)
    assert [name for name, _ in job_list] == ["start0", "start1"]
    for _, (command, config) in job_list:
        assert command == "flow"
        assert "[flow]" in pathlib.Path(config).read_text()
    run = tmp_path / "old"
    (run / "start0").mkdir(parents=True)
    (run / "start0" / "report.json").write_text(json.dumps(
        {"flow": {"reason": "gradient", "iterations": 6}}))
    (run / "start1").mkdir()
    for name, code, err in (("start0", 0, ""),
                            ("start1", 3, "numerical failure: collapsed\n")):
        (run / f"{name}.exit").write_text(f"{code}\n")
        (run / f"{name}.stderr").write_text(err)
    assert compare.flow_outcome(run, "start0") == {
        "exit": "0", "reason": "gradient", "iterations": 6, "stderr": ""}
    assert compare.flow_outcome(run, "start1") == {
        "exit": "3", "reason": None, "iterations": None,
        "stderr": "numerical failure: collapsed\n"}


def test_compare_outputs_compares_csv_cells_as_doubles(scripts_path, tmp_path):
    compare = importlib.import_module("compare_outputs")
    old = tmp_path / "old.csv"
    new = tmp_path / "new.csv"
    old.write_text("theta,x\n0.0,1.5\nNaN,-Infinity\n")
    new.write_text("theta,x\n0,1.5\nnan,-inf\n")
    assert compare.csv_changes(old, new) == (0, 0.0)
    new.write_text("theta,x\n-0,1.5000000000000002\nnan,-inf\n")
    count, change = compare.csv_changes(old, new)
    assert count == 2
    assert change == pytest.approx(2.2e-16, rel=1e-2)
    new.write_text("theta,x\n0,1.5\nnan,1\n")
    assert compare.csv_changes(old, new) == (1, float("inf"))
    for text in ("theta,y\n0,1.5\nnan,-inf\n", "theta,x\n0,1.5\n"):
        new.write_text(text)
        assert compare.csv_changes(old, new) is None

"""Every script in scripts/ imports against the current API, and the
solver convergence table runs end to end."""

import importlib
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

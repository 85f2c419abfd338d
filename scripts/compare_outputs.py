"""Byte-compare the command line outputs of two source trees.

Runs ``python -m quadshape.cli`` from each tree on the same configs and
lists every output file, stdout, stderr or exit code that differs:

- every command on ``scripts/*.cfg`` and on the ``*_CFG`` configs of
  ``tests/test_cli.py`` (read as literals, not imported), with
  ``--dump-operators`` on ``evaluate``, ``diagnose`` and ``spectrum``, so
  the operator matrices are compared too, also after the spectra have
  read L;
- each operation of every ``perfbench/workloads.py`` workload, warm-ups
  included, on the configs it generates for each seed.

Each tree runs every command once, in ``OUTDIR/old`` and ``OUTDIR/new``;
the configs go to ``OUTDIR/configs`` and every run reads them by absolute
path.  Under each ``report.json`` that differs, the largest absolute
change of every numeric field path (``hessian.pairs[].steklov``) is listed,
also relative to the field's largest magnitude in that report.  Under each
``.csv`` that differs, it says whether every cell parses to the same
double, or else how many cells differ and the largest change of a cell.
The exit
status is 2 when a run could not read its config (the comparison would
then only compare two identical error messages), else 1 when anything
differs.

``--flow-starts N`` runs an outcome sweep instead: ``flow`` on the seeded
starts of the ``flow_descent`` workload for seeds 0 to N-1, in
``OUTDIR/flow-starts``.  Flow iteration counts are chaotic in the start,
so a sweep shows whether a change that moves bytes at rounding level also
moves outcomes.  It lists only the starts whose exit code, flow ``reason``,
``iterations`` or stderr differ, then their count; the exit status is 1 if
any differ.

Usage: python scripts/compare_outputs.py OLD_SRC NEW_SRC OUTDIR
           [--seeds 7 8 | --flow-starts N]
"""

import argparse
import ast
import filecmp
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
COMMANDS = ("evaluate", "gradient", "hessian", "flow", "diagnose", "spectrum")
DUMP_COMMANDS = ("evaluate", "diagnose", "spectrum")


def _cli_test_configs():
    """The ``NAME_CFG = "..."`` string constants of tests/test_cli.py."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    out = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id.endswith("_CFG")):
            out[node.targets[0].id.lower()] = ast.literal_eval(node.value)
    return out


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def jobs(config_dir, seeds):
    """(name, argv after ``quadshape.cli``) for every run, writing the
    configs they read into ``config_dir``.  Config paths are absolute, since
    the runs happen in other directories."""
    config_dir = config_dir.resolve()
    config_dir.mkdir(parents=True, exist_ok=True)
    configs = {p.stem: p.resolve() for p in sorted(ROOT.glob("scripts/*.cfg"))}
    for name, text in _cli_test_configs().items():
        path = config_dir / f"{name}.cfg"
        path.write_text(text)
        configs[name] = path
    out = []
    for stem, path in configs.items():
        for command in COMMANDS:
            extra = (["--dump-operators"] if command in DUMP_COMMANDS
                     else [])
            out.append((f"{stem}-{command}", [command, str(path), *extra]))

    workloads = _load_workloads()
    for seed in seeds:
        for wname, build in sorted(workloads.WORKLOADS.items()):
            workdir = config_dir / f"{wname}-s{seed}"
            workdir.mkdir(exist_ok=True)
            load = build(seed, str(workdir))
            for path, text in load.files.items():
                pathlib.Path(path).write_text(text)
            ops = [op for ops in load.passes for op in ops]
            for op in [load.warmup, *ops, *load.checked_only]:
                out.append((f"{wname}-s{seed}-{op.key}", [op.command, op.config]))
    return out


def flow_start_jobs(config_dir, count):
    """(name, argv after ``quadshape.cli``) of ``flow`` on the seeded start
    of the ``flow_descent`` workload for seeds 0 to count-1, writing their
    configs into ``config_dir``."""
    config_dir = config_dir.resolve()
    workloads = _load_workloads()
    out = []
    for seed in range(count):
        workdir = config_dir / f"start{seed}"
        workdir.mkdir(parents=True, exist_ok=True)
        load = workloads.flow_descent(seed, str(workdir))
        (op,) = load.checked_only
        pathlib.Path(op.config).write_text(load.files[op.config])
        out.append((f"start{seed}", [op.command, op.config]))
    return out


def run_tree(src, workdir, job_list):
    """Run every job with ``src`` first on the import path and return the
    names of the jobs that could not read their config.  Output directories
    are relative to ``workdir`` so stdout is the same for both trees."""
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(src).resolve()))
    unread = []
    for name, argv in job_list:
        proc = subprocess.run(
            [sys.executable, "-m", "quadshape.cli", *argv, "--out", name],
            cwd=workdir, env=env, capture_output=True, text=True)
        (workdir / f"{name}.stdout").write_text(proc.stdout)
        (workdir / f"{name}.stderr").write_text(proc.stderr)
        (workdir / f"{name}.exit").write_text(f"{proc.returncode}\n")
        if "cannot read config file" in proc.stderr:
            unread.append(name)
    return unread


def flow_outcome(workdir, name):
    """Exit code, flow ``reason`` and ``iterations`` (None without a
    report) and stderr of one run of ``run_tree``."""
    report = workdir / name / "report.json"
    flow = json.loads(report.read_text())["flow"] if report.is_file() else {}
    return {"exit": (workdir / f"{name}.exit").read_text().strip(),
            "reason": flow.get("reason"),
            "iterations": flow.get("iterations"),
            "stderr": (workdir / f"{name}.stderr").read_text()}


def compare_flow_starts(old_src, new_src, outdir, count):
    """Run the first ``count`` seeded flow starts under both trees and print
    the starts whose outcome differs; return the exit status."""
    job_list = flow_start_jobs(outdir / "configs", count)
    unread = {side: run_tree(src, outdir / side, job_list)
              for side, src in (("old", old_src), ("new", new_src))}
    ndiff = 0
    for name, _ in job_list:
        old, new = (flow_outcome(outdir / side, name) for side in unread)
        if old != new:
            ndiff += 1
            print(f"{name}: " + ", ".join(
                f"{key} {old[key]!r} -> {new[key]!r}"
                for key in old if old[key] != new[key]))
    for side, names in unread.items():
        for name in names:
            print(f"cannot read config: {side}/{name}")
    print(f"{len(job_list)} flow starts per tree, {ndiff} outcomes differ")
    if any(unread.values()):
        return 2
    return 1 if ndiff else 0


def differences(old, new):
    """Relative paths of files that differ or exist on one side only."""
    files_old = {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
    files_new = {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    diff = sorted(files_old ^ files_new)
    for rel in sorted(files_old & files_new):
        if not filecmp.cmp(old / rel, new / rel, shallow=False):
            diff.append(rel)
    return sorted(diff), len(files_old | files_new)


def _number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and not math.isnan(value))


def _field_sizes(old, new, path, sizes):
    """Record ``(largest change, largest |old|)`` of every numeric field
    path in ``sizes``, or None for a path whose values cannot be compared
    as numbers."""
    if (isinstance(old, dict) and isinstance(new, dict)
            and old.keys() == new.keys()):
        for key in old:
            _field_sizes(old[key], new[key], f"{path}.{key}" if path else key,
                         sizes)
    elif (isinstance(old, list) and isinstance(new, list)
            and len(old) == len(new)):
        for a, b in zip(old, new):
            _field_sizes(a, b, path + "[]", sizes)
    elif _number(old) and _number(new):
        if sizes.get(path, ()) is not None:
            change, size = sizes.get(path, (0.0, 0.0))
            change = max(change, abs(new - old) if old != new else 0.0)
            sizes[path] = (change, max(size, abs(old)))
    elif json.dumps(old) != json.dumps(new):     # NaN dumps equal to NaN
        sizes[path] = None


def field_changes(old, new):
    """``{path: (largest absolute change, that change over the largest
    |old value| on the path)}`` for the fields that differ between two
    parsed reports.  Entries of a list share one path, ``name[]``; a
    non-numeric field that differs, or a dict or list whose keys or length
    differ, maps to None."""
    sizes = {}
    _field_sizes(old, new, "", sizes)
    return {path: size if size is None
            else (size[0], size[0] / size[1] if size[1] else math.inf)
            for path, size in sizes.items() if size is None or size[0] > 0}


def report_changes(old_path, new_path):
    """``field_changes`` of two report.json files."""
    with open(old_path) as fo, open(new_path) as fn:
        return field_changes(json.load(fo), json.load(fn))


def _cells(path):
    """The cells of a CSV file, row by row: a float where the cell parses
    as one, else its text."""
    rows = []
    for line in path.read_text().splitlines():
        row = []
        for cell in line.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return rows


def _same_double(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def csv_changes(old_path, new_path):
    """``(cells that differ, largest absolute change of a cell)`` between
    two CSV files, comparing cells as doubles, so ``0.0`` and ``0`` are
    equal and ``0`` and ``-0`` are not.  None when the row lengths or a
    text cell differ."""
    old, new = _cells(old_path), _cells(new_path)
    if [len(row) for row in old] != [len(row) for row in new]:
        return None
    count, change = 0, 0.0
    for row_old, row_new in zip(old, new):
        for a, b in zip(row_old, row_new):
            if isinstance(a, str) or isinstance(b, str):
                if a != b:
                    return None
            elif not _same_double(a, b):
                count += 1
                d = abs(b - a)
                change = max(change, d if d == d else math.inf)
    return count, change


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", help="src/ directory of the old tree")
    parser.add_argument("new_src", help="src/ directory of the new tree")
    parser.add_argument("outdir", type=pathlib.Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 8],
                        help="workload seeds (default: 7 8)")
    parser.add_argument("--flow-starts", type=int, metavar="N",
                        help="instead of the byte comparison, compare the "
                             "outcomes of flow on the seeded flow_descent "
                             "starts of seeds 0 to N-1")
    args = parser.parse_args(argv)

    outdir = args.outdir.resolve()
    if args.flow_starts is not None:
        return compare_flow_starts(args.old_src, args.new_src,
                                   outdir / "flow-starts", args.flow_starts)
    job_list = jobs(outdir / "configs", args.seeds)
    unread = {side: run_tree(src, outdir / side, job_list)
              for side, src in (("old", args.old_src), ("new", args.new_src))}
    diff, total = differences(outdir / "old", outdir / "new")
    for rel in diff:
        print(f"differs: {rel}")
        old, new = outdir / "old" / rel, outdir / "new" / rel
        if rel.name == "report.json" and old.is_file() and new.is_file():
            for path, change in report_changes(old, new).items():
                if change is None:
                    print(f"    {path}: changed")
                else:
                    print(f"    {path}: abs {change[0]:.2e}, "
                          f"rel {change[1]:.2e}")
        if rel.suffix == ".csv" and old.is_file() and new.is_file():
            cells = csv_changes(old, new)
            if cells is None:
                print("    cells: rows or text cells differ")
            elif cells[0] == 0:
                print("    cells: all equal as doubles")
            else:
                print(f"    cells: {cells[0]} differ, largest change "
                      f"abs {cells[1]:.2e}")
    for side, names in unread.items():
        for name in names:
            print(f"cannot read config: {side}/{name}")
    print(f"{len(job_list)} runs per tree, {total} files compared, "
          f"{len(diff)} differ")
    if any(unread.values()):
        return 2
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())

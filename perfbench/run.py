"""Seeded end-to-end benchmark of the quadshape command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, and the run stops with exit status 1 when
it is missing.  One process, one client in a closed loop: each CLI command
(``quadshape.cli.main``) starts after the previous one returned, with BLAS
pinned to one thread before numpy loads and no worker pools.

Set-up is importing quadshape with numpy and scipy, writing the seeded
configs and one warm-up command on a reduced config.  After it, whole cycles
of passes (see workloads.py) run until ``--seconds`` have passed.  Every
report is checked; a config that runs again must give a byte-identical
``report.json``.  Then SETUP_SAMPLES - 1 fresh interpreters repeat the
set-up alone (``--setup-only``), and ``setup_s`` is the median of all
set-ups.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics: ``wall_s`` (median time of a pass), ``peak_rss_mb`` (peak resident
set of this process after set-up and the first cycle, a fixed amount of
work) and ``setup_s``.  With ``--trace 1`` cycles alternate untraced and
traced, and the last line carries the per-layer metrics of tracing.py per
traced pass plus ``trace.overhead_frac``.  The line before it holds details:
quartiles, sample counts, iterations, ``failed_frac``, failures by kind,
report digests and the environment.  Outputs go to ``.bench_out/`` in the
checkout.

Every operation after set-up counts in ``attempted``; one that fails a check
counts in ``failed``.  ``correct`` is false when an operation returned a
wrong result or a repeated config changed bytes; a flow that reports that it
did not converge counts in ``failed`` only.
"""

import os
import sys
import time

START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "QUADSHAPE_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and exit")
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import quadshape from this checkout's src/, never from elsewhere."""
    if not (SRC / "quadshape" / "__init__.py").is_file():
        raise SystemExit(f"error: no quadshape sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import quadshape
    import quadshape.bem
    import quadshape.cli
    if Path(quadshape.__file__).resolve().parent != SRC / "quadshape":
        raise SystemExit(f"error: quadshape imported from {quadshape.__file__}")
    return quadshape


def blas_threads():
    """Thread count reported by each OpenBLAS loaded into this process."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return found
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def summary(values):
    """Median, quartiles, sample count and the highest percentile that has
    at least ten samples above it (nearest rank; None when too few)."""
    vals = sorted(values)
    n = len(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if n > 1 else vals * 3
    high = None
    for p in (99.9, 99, 95, 90, 75, 50):
        idx = max(math.ceil(p / 100 * n) - 1, 0)
        if n - idx - 1 >= 10:
            high = {"percentile": p, "value": vals[idx]}
            break
    return {"median": statistics.median(vals), "q1": q1, "q3": q3,
            "high": high, "samples": n}


class Ledger:
    """Runs CLI operations and checks what they write."""

    def __init__(self, cli):
        self.cli = cli
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = {}

    def run(self, op):
        """Run one command; return its time, exit code and report path."""
        report_path = Path(op.out) / "report.json"
        if report_path.exists():
            report_path.unlink()
        argv = [op.command, op.config, "--out", op.out, "--quiet"]
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception:
            # an exception the CLI does not map to an exit code: count the
            # operation as failed and go on with the run
            traceback.print_exc()
            rc = "raised"
        return time.perf_counter() - t0, rc, report_path

    def record(self, op, rc, report_path):
        """Check one finished operation and count it."""
        self.attempted += 1
        labels = []
        report = None
        if rc != 0:
            labels.append(f"{op.command}.exit_{rc}")
        else:
            data = report_path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if self.digests.setdefault(op.key, digest) != digest:
                labels.append("digest")
            report = json.loads(data)
            labels += op.check(report)
        return self.count(labels), report

    def count(self, labels):
        if labels:
            self.failed += 1
            for label in labels:
                self.failures[label] = self.failures.get(label, 0) + 1
            if "digest" in labels or not any(
                    lab in workloads.NON_CONVERGENCE for lab in labels):
                self.wrong += 1
        return not labels


def prepare(args, workdir):
    """Set-up: import, generate the inputs, run the warm-up once."""
    quadshape = import_program()
    work = workloads.WORKLOADS[args.workload](args.seed, str(workdir),
                                              args.tiny)
    workdir.mkdir(parents=True, exist_ok=True)
    for path, text in work.files.items():
        Path(path).write_text(text)
    ledger = Ledger(quadshape.cli)
    _, rc, report_path = ledger.run(work.warmup)
    if rc != 0:
        raise SystemExit(f"error: warm-up command exited with {rc}")
    ledger.digests[work.warmup.key] = hashlib.sha256(
        report_path.read_bytes()).hexdigest()
    return quadshape, work, ledger


def setup_probes(args):
    """Time SETUP_SAMPLES - 1 set-ups in fresh interpreters, one at a time."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run(args):
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        quadshape, work, ledger = prepare(args, workdir)
        setup_self = time.perf_counter() - START
        if args.setup_only:
            print(repr(setup_self))
            return 0
        # the warm-up runs again as a checked operation: same config, same bytes
        _, rc, path = ledger.run(work.warmup)
        ledger.record(work.warmup, rc, path)
        result = measure(args, quadshape, work, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups = [setup_self] + setup_probes(args)
    result["detail"]["setup_s"] = summary(setups)
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, _ in tracing.per_layer_metrics()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(result["walls"]),
                       "unit": "s"},
            "peak_rss_mb": {"value": result["rss_first_cycle"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    print(json.dumps(result["detail"]))
    print(json.dumps({"correct": ledger.wrong == 0,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def measure(args, quadshape, work, ledger):
    """Closed loop over whole cycles until ``--seconds`` have passed."""
    import numpy
    import scipy
    cache = quadshape.bem.get_operators.cache_info
    tracer = tracing.Tracer()
    walls, traced_walls, iterations, checked_only = [], [], [], []
    pass_log = []
    cycle_times = {False: [], True: []}
    hits = misses = traced_passes = 0
    rss_first_cycle = None
    t_loop = time.perf_counter()
    cycle = 0
    while True:
        traced = bool(args.trace) and cycle % 2 == 1
        if traced:
            tracer.install("quadshape")
        cycle_time = 0.0
        for ops in work.passes:
            tracer.pass_id = len(walls) + len(traced_walls)
            before = cache()
            wall = 0.0
            for op in ops:
                seconds, rc, path = ledger.run(op)
                wall += seconds
                _, report = ledger.record(op, rc, path)
                if report is not None and op.command == "flow":
                    iterations.append(report["flow"]["iterations"])
            after = cache()
            cycle_time += wall
            pass_log.append([ops[0].key, wall, traced])
            if traced:
                traced_walls.append(wall)
                traced_passes += 1
                hits += after.hits - before.hits
                misses += after.misses - before.misses
            else:
                walls.append(wall)
        if traced:
            tracer.uninstall()
        else:
            for op in work.checked_only:
                seconds, rc, path = ledger.run(op)
                _, report = ledger.record(op, rc, path)
                checked_only.append(seconds)
        cycle_times[traced].append(cycle_time)
        if rss_first_cycle is None:
            rss_first_cycle = peak_rss_mb()
        cycle += 1
        if (time.perf_counter() - t_loop >= args.seconds
                and (not args.trace or cycle >= 2)):
            break

    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "cycles": cycle,
        "wall_s": summary(walls),
        "iterations": summary(iterations) if iterations else None,
        "checked_only_s": summary(checked_only) if checked_only else None,
        "passes": pass_log,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "failed_frac": ledger.failed / ledger.attempted,
        "failures": ledger.failures, "digests": ledger.digests,
        "peak_rss_first_cycle_mb": rss_first_cycle,
        "peak_rss_end_mb": peak_rss_mb(),
        "env": {"nproc": len(os.sched_getaffinity(0)),
                "python": sys.version.split()[0],
                "numpy": numpy.__version__, "scipy": scipy.__version__,
                "blas_threads": blas_threads()},
    }
    layers = None
    if args.trace:
        layers = tracing.summarize(tracer, traced_passes, (hits, misses))
        layers["trace.overhead_frac"] = (
            statistics.mean(cycle_times[True])
            / statistics.mean(cycle_times[False]) - 1.0)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        detail["traced_wall_s"] = summary(traced_walls)
    return {"walls": walls, "rss_first_cycle": rss_first_cycle,
            "layers": layers, "detail": detail}


def main(argv=None):
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs and output checks for the three benchmark workloads.

Each workload turns a seed into quadshape config files and a list of passes;
a pass is a list of CLI operations, and one cycle runs every pass once.  The
program sees only the generated config files.

flow_descent
    ``quadshape flow`` at n = 128 from near-ellipse radial starts: cos2 in
    [0.15, 0.25], cos/sin modes 3-5 in +-0.03, a centred disk.  A pass runs
    a fixed panel: the first PANEL_STARTS draws of that family with
    PANEL_SEED, kept whatever they do, failures included; the seed only
    orders them.  Each cycle also runs one start drawn from the family
    with the run's seed; it is checked and counted like every operation but
    kept out of ``wall_s``.  The reason: the iteration count is chaotic in
    the start.  Rotating one start by a seeded angle, which leaves the
    continuous problem unchanged, moved it between 164 and 406 iterations,
    so seeded timed starts would measure the draw, not the program.
hessian_routes
    ``quadshape hessian`` on the critical disk (circle R = 1, n = 256, centred
    source) with four direction modes drawn by the seed.
spectrum_n1024
    ``quadshape spectrum`` on SPECTRUM_CURVES seeded radial curves at
    n = 1024 (modes 2-6 in +-0.04) with two seeded disks each.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

PANEL_SEED = 0
PANEL_STARTS = 3
SPECTRUM_CURVES = 8
HESSIAN_MODES = ("const", "cos1", "cos2", "cos3", "sin1", "sin2", "sin3")

# Sizes of the real workloads and of the smoke test's tiny runs.
SIZES = {
    False: {"flow_n": 128, "flow_iters": 500, "starts": PANEL_STARTS,
            "hessian_n": 256, "spectrum_n": 1024, "curves": SPECTRUM_CURVES},
    True: {"flow_n": 32, "flow_iters": 8, "starts": 1,
           "hessian_n": 32, "spectrum_n": 64, "curves": 2},
}
WARMUP = {"flow_iters": 10, "hessian_n": 32, "spectrum_n": 128}

TWO_PI = 2.0 * math.pi


@dataclass
class Op:
    """One CLI command on one generated config."""

    key: str                 # stable per config; repeats must match bytes
    command: str
    config: str
    out: str
    check: object            # report dict -> list of failure labels


@dataclass
class Workload:
    passes: list             # list of lists of Op; a cycle runs them all
    warmup: Op
    files: dict              # path -> config text
    checked_only: list = field(default_factory=list)  # Ops outside wall_s


# -- checks ---------------------------------------------------------------

# Failure labels that mean "the program reported that it did not reach a
# solution", as opposed to a wrong result.
NON_CONVERGENCE = ("flow.exit_3", "flow.reason")


def check_flow(report):
    flow = report["flow"]
    fails = []
    if flow["reason"] != "gradient":
        fails.append("flow.reason")
    if not abs(flow["fit_radius"] - 1.0) <= 1e-2:
        fails.append("flow.fit_radius")
    if not flow["circle_deviation"] <= 1e-2:
        fails.append("flow.circle_deviation")
    if not flow["grad_drop"] >= 1e3:
        fails.append("flow.grad_drop")
    return fails


def closed_form_J(R, rho, mass, k):
    """J of a disk of radius R around a centred source disk."""
    return (-mass**2 / (4 * math.pi) * math.log(R / rho)
            - mass**2 / (16 * math.pi) + k**2 * math.pi * R**2 / 2)


def check_hessian(report):
    """Criterion 5's tolerances and the closed-form energy of the disk."""
    hess = report["hessian"]
    fails = []
    gap = max(abs(p["flow"] - p["direct"]) / (2 * max(abs(p["fd"]), 1.0))
              for p in hess["pairs"])
    if len(hess["pairs"]) != 10 or not gap <= 2e-3:
        fails.append("hessian.flow_vs_direct")
    if not hess["max_flow_asymmetry"] <= 1e-4:
        fails.append("hessian.asymmetry")
    J_exact = closed_form_J(1.0, 0.1, TWO_PI, 1.0)
    if not abs(report["J"] - J_exact) / abs(report["J"]) <= 1e-5:
        fails.append("hessian.J_closed_form")
    return fails


def check_spectrum(report):
    fails = []
    for key in ("dtn_eigenvalues", "stability_minus", "stability_plus"):
        vals = report[key]
        if not vals or not all(math.isfinite(v) for v in vals) or any(
                b < a for a, b in zip(vals, vals[1:])):
            fails.append(f"spectrum.{key}")
    # constants are the kernel of the Dirichlet-to-Neumann map
    if not abs(report["dtn_eigenvalues"][0]) <= 1e-8:
        fails.append("spectrum.dtn_kernel")
    return fails


def check_none(report):
    return []


# -- config generation ----------------------------------------------------


def _source_lines(disks):
    lines = []
    for x, y, rho, mass in disks:
        lines += ["[source]", f"x = {x!r}", f"y = {y!r}", f"rho = {rho!r}",
                  f"mass = {mass!r}"]
    return lines


def _radial_lines(n, cos, sin):
    lines = ["[geometry]", "kind = radial", f"n = {n}", "base_radius = 1.0"]
    lines += [f"cos{m} = {v!r}" for m, v in sorted(cos.items())]
    lines += [f"sin{m} = {v!r}" for m, v in sorted(sin.items())]
    return lines


def _text(lines):
    return "\n".join(lines) + "\n"


def flow_start(rng):
    """One draw of the flow start family, as (cos, sin) amplitudes."""
    cos, sin = {2: rng.uniform(0.15, 0.25)}, {}
    for m in (3, 4, 5):
        cos[m] = rng.uniform(-0.03, 0.03)
        sin[m] = rng.uniform(-0.03, 0.03)
    return cos, sin


def _flow_text(n, start, max_iters):
    return _text(_radial_lines(n, *start) + _source_lines(
        [(0.0, 0.0, 0.1, TWO_PI)]) + [
        "[params]", "k = 1.0", "A = 1.0",
        "[flow]", f"max_iters = {max_iters}", "grad_tol_rel = 1e-4",
        "[output]", "snapshot_every = 25", "svg = true"])


def flow_descent(seed, workdir, tiny=False):
    size = SIZES[tiny]
    panel_rng = random.Random(PANEL_SEED)
    panel = [flow_start(panel_rng) for _ in range(size["starts"])]
    rng = random.Random(seed)
    order = rng.sample(range(len(panel)), len(panel))
    files = {}

    def op(key, start, max_iters, check):
        cfg = f"{workdir}/{key}.cfg"
        files[cfg] = _flow_text(size["flow_n"], start, max_iters)
        return Op(key, "flow", cfg, f"{workdir}/{key}", check)

    panel_pass = [op(f"panel{i}", panel[i], size["flow_iters"], check_flow)
                  for i in order]
    seeded = op("seeded", flow_start(rng), size["flow_iters"], check_flow)
    warm = op("warmup", panel[0], WARMUP["flow_iters"], check_none)
    return Workload([panel_pass], warm, files, [seeded])


def _hessian_text(n, modes):
    return _text(["[geometry]", "kind = circle", "radius = 1.0", f"n = {n}"]
                 + _source_lines([(0.0, 0.0, 0.1, TWO_PI)])
                 + ["[params]", "k = 1.0", "A = 1.0",
                    "[directions]", "modes = " + ", ".join(modes)])


def hessian_routes(seed, workdir, tiny=False):
    rng = random.Random(seed)
    picks = set(rng.sample(HESSIAN_MODES, 4))
    modes = [m for m in HESSIAN_MODES if m in picks]
    cfg = f"{workdir}/hessian.cfg"
    warm_cfg = f"{workdir}/warmup.cfg"
    files = {cfg: _hessian_text(SIZES[tiny]["hessian_n"], modes),
             warm_cfg: _hessian_text(WARMUP["hessian_n"], modes)}
    passes = [[Op("hessian", "hessian", cfg, f"{workdir}/hessian",
                  check_hessian)]]
    warm = Op("warmup", "hessian", warm_cfg, f"{workdir}/warmup", check_none)
    return Workload(passes, warm, files)


def _spectrum_curve(rng):
    """Radial modes 2-6 in +-0.04 and two disks of radius 0.08.

    The radius stays above 1 - 10 * 0.04 = 0.6, so a centre at distance
    <= 0.35 from the origin keeps 0.25 >= 2 rho to the boundary; centres
    on roughly opposite sides at >= 0.15 are >= 0.29 apart (disjoint)."""
    cos = {m: rng.uniform(-0.04, 0.04) for m in range(2, 7)}
    sin = {m: rng.uniform(-0.04, 0.04) for m in range(2, 7)}
    angle = rng.uniform(0.0, TWO_PI)
    disks = []
    for turn in (0.0, math.pi + rng.uniform(-0.5, 0.5)):
        r = rng.uniform(0.15, 0.35)
        disks.append((r * math.cos(angle + turn), r * math.sin(angle + turn),
                      0.08, math.pi))
    return cos, sin, disks


def _spectrum_text(n, cos, sin, disks):
    return _text(_radial_lines(n, cos, sin) + _source_lines(disks)
                 + ["[params]", "k = 1.0", "A = 1.0"])


def spectrum_n1024(seed, workdir, tiny=False):
    size = SIZES[tiny]
    rng = random.Random(seed)
    curves = [_spectrum_curve(rng) for _ in range(size["curves"])]
    files, ops = {}, []
    for i, (cos, sin, disks) in enumerate(curves):
        cfg = f"{workdir}/spectrum{i}.cfg"
        files[cfg] = _spectrum_text(size["spectrum_n"], cos, sin, disks)
        ops.append(Op(f"spectrum{i}", "spectrum", cfg,
                      f"{workdir}/spectrum{i}", check_spectrum))
    cfg = f"{workdir}/warmup.cfg"
    files[cfg] = _spectrum_text(WARMUP["spectrum_n"], *curves[0])
    warm = Op("warmup", "spectrum", cfg, f"{workdir}/warmup", check_none)
    return Workload([ops], warm, files)


WORKLOADS = {
    "flow_descent": flow_descent,
    "hessian_routes": hessian_routes,
    "spectrum_n1024": spectrum_n1024,
}

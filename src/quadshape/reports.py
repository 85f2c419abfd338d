"""Deterministic report writers.

Downstream tooling diffs report files byte-for-byte between runs, so all
serialization here is hand-rolled, with no timestamps, hostnames, or other
run-dependent noise.  Every CSV goes through ``csv_blocks``, which writes
each cell with %.17g (round-trippable doubles).  The JSON writer covers
exactly the types the reports use: dict, list/tuple, str, bool, None, int,
and float (including numpy scalars and arrays); its floats alone go
through ``format_float``, which adds JSON's NaN and Infinity literals.
"""

from __future__ import annotations

import math

import numpy as np


def format_float(x):
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    if x == int(x) and abs(x) < 1e16:
        return "%.1f" % x
    return "%.17g" % x


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _json_string(s):
    out = ['"']
    for ch in s:
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _json_value(value, level):
    pad = "  " * (level + 1)
    close_pad = "  " * level
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{pad}{_json_string(str(k))}: {_json_value(v, level + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + close_pad + "}"
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{pad}{_json_value(v, level + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + close_pad + "]"
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    raise TypeError(f"cannot serialize {type(value).__name__} deterministically")


def to_json(value):
    return _json_value(value, 0) + "\n"


def write_json(value, path):
    with open(path, "w", newline="\n") as fh:
        fh.write(to_json(value))


# values formatted per %-format call: the block's text, float list and
# tuple peak at 0.12 n x n arrays when an n = 1024 matrix is written
_CSV_BLOCK_VALUES = 1 << 14


def csv_blocks(table, header=None):
    """CSV text of the rows of a 2-D table, every cell with %.17g, as
    consecutive blocks of rows, each formatted by one %-format call.  A
    ``header`` line, if given, comes first, also when the table has no
    rows (an empty sequence of rows included)."""
    if header is not None:
        yield header + "\n"
    table = np.asarray(table, dtype=float)
    if len(table) == 0:
        return
    rows, cols = table.shape
    line = ",".join(["%.17g"] * cols) + "\n"
    step = max(1, _CSV_BLOCK_VALUES // cols)
    for i in range(0, rows, step):
        block = table[i:i + step]
        yield (line * len(block)) % tuple(block.ravel().tolist())


def write_csv(path, header, table):
    """Write the rows of a 2-D table under a header line (None for none)."""
    with open(path, "w", newline="\n") as fh:
        fh.writelines(csv_blocks(table, header))


STATE_CSV_HEADER = "theta,x,y,u_nu,psi,kappa,w"


def write_state_csv(state, path):
    c = state.curve
    write_csv(path, STATE_CSV_HEADER,
              np.column_stack((c.theta, c.points, state.u_nu, state.psi,
                               c.kappa, c.weights)))


def write_matrix_csv(matrix, path):
    write_csv(path, None, matrix)


TRACE_HEADER = "iter,J,gradnorm,step,minK,maxK,circdev"


def write_trace(result, path):
    """The per-iteration trace of a ``flow.FlowResult``, one row per record."""
    write_csv(path, TRACE_HEADER,
              [(r.iteration, r.J, r.grad_norm, r.step, r.min_kappa,
                r.max_kappa, r.circle_deviation) for r in result.records])


def curves_svg(curves, labels=None):
    """A horizontal strip of curve snapshots as a standalone SVG string."""
    size, pad = 220, 12   # square panel per snapshot and its margin, in px
    if labels is None:
        labels = [""] * len(curves)
    width = size * len(curves)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{size + 18}" viewBox="0 0 {width} {size + 18}">',
    ]
    for idx, (curve, label) in enumerate(zip(curves, labels)):
        lo, hi = curve.points.min(axis=0), curve.points.max(axis=0)
        span = float(np.max(hi - lo))
        scale = (size - 2 * pad) / span if span > 0 else 1.0
        cx, cy = 0.5 * (lo + hi)
        x0 = idx * size + size / 2
        pts = np.vstack((curve.points, curve.points[:1]))   # closed polyline
        xy = np.column_stack((x0 + (pts[:, 0] - cx) * scale,
                              size / 2 - (pts[:, 1] - cy) * scale))
        coords = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
        parts.append(
            f'<polyline points="{coords}" fill="none" '
            f'stroke="black" stroke-width="1.2"/>')
        if label:
            parts.append(
                f'<text x="{x0:.1f}" y="{size + 13}" font-size="11" '
                f'text-anchor="middle" font-family="monospace">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_curves_svg(curves, labels, path):
    with open(path, "w", newline="\n") as fh:
        fh.write(curves_svg(curves, labels))


def metric_params_dict(params):
    return {"A": params.A, "k": params.k}


def source_dict(source):
    return {
        "disks": [
            {"x": d.cx, "y": d.cy, "rho": d.rho, "mass": d.mass}
            for d in source.disks
        ],
        "total_mass": source.total_mass,
    }


def solver_dict(ops):
    """Solver block shared by the evaluate and diagnose reports.

    LAPACK's condition estimate returns last-digit variations for identical
    LU factors depending on where the arrays sit in memory, so rcond is
    reported to 3 significant digits; the singularity guard in ``bem``
    keeps the raw value.
    """
    return {"scale": ops.scale, "rcond": float("%.3g" % ops.rcond)}


def curve_dict(curve):
    return {
        "n": curve.n,
        "area": curve.area,
        "perimeter": curve.perimeter,
        "diameter": curve.diameter,
        "min_kappa": float(np.min(curve.kappa)),
        "max_kappa": float(np.max(curve.kappa)),
        "total_curvature": float(np.sum(curve.kappa * curve.weights)),
        "total_curvature_gap": float(np.sum(curve.kappa * curve.weights) - 2.0 * np.pi),
    }

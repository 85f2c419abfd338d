"""Newtonian potentials of uniform disk sources.

The right-hand side f of the state problem -lap(u) = f is a finite sum of
uniform densities on disjoint closed disks.  Everything here is closed form:
a disk of mass m and radius rho centered at c generates

    u(x) = -(m / 2 pi) log|x - c|                              |x - c| >= rho
    u(x) = -(m / 2 pi) log(rho) + (m / 4 pi) (1 - |x-c|^2/rho^2)   otherwise

which matches the point-charge potential outside the disk and solves
-lap(u) = m / (pi rho^2) inside it, with value and gradient continuous at
the rim.  The energy of the source against its own potential is closed
form too (``source_energy``), which lets the shape functional stay on the
boundary.  ``source_quadrature`` (per-disk polar quadrature, Gauss-Legendre
in radius crossed with a uniform angular grid) integrates against f in the
volume; the solver does not use it, and it stays as the tests' reference
for the boundary energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Disk:
    """Uniform source disk: center (cx, cy), radius rho, total mass."""

    cx: float
    cy: float
    rho: float
    mass: float

    def __post_init__(self):
        vals = (self.cx, self.cy, self.rho, self.mass)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("disk parameters must be finite")
        if self.rho <= 0:
            raise ValueError("disk radius rho must be positive")
        if self.mass <= 0:
            raise ValueError("disk mass must be positive")

    @property
    def center(self):
        return np.array([self.cx, self.cy])

    @property
    def density(self):
        return self.mass / (np.pi * self.rho**2)


@dataclass(frozen=True)
class SourceTerm:
    """A finite family of pairwise disjoint uniform source disks."""

    disks: tuple

    def __post_init__(self):
        disks = tuple(self.disks)
        if not disks:
            raise ValueError("source term needs at least one disk")
        for d in disks:
            if not isinstance(d, Disk):
                raise ValueError("source disks must be Disk instances")
        for i in range(len(disks)):
            for j in range(i + 1, len(disks)):
                gap = np.hypot(disks[i].cx - disks[j].cx, disks[i].cy - disks[j].cy)
                if gap <= disks[i].rho + disks[j].rho:
                    raise ValueError("source disks must be pairwise disjoint")
        object.__setattr__(self, "disks", disks)

    @property
    def total_mass(self):
        return sum(d.mass for d in self.disks)

    def translated(self, shift):
        sx, sy = float(shift[0]), float(shift[1])
        return SourceTerm(tuple(Disk(d.cx + sx, d.cy + sy, d.rho, d.mass)
                                for d in self.disks))


def eval_potential(source, x):
    """Potential of the source at points x of shape (..., 2)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1])
    for d in source.disks:
        dx = x[..., 0] - d.cx
        dy = x[..., 1] - d.cy
        r2 = dx * dx + dy * dy
        pref = d.mass / TWO_PI
        outside = -pref * 0.5 * np.log(np.maximum(r2, d.rho**2))
        inside = -pref * np.log(d.rho) + 0.5 * pref * (1.0 - r2 / d.rho**2)
        out += np.where(r2 >= d.rho**2, outside, inside)
    return out


def eval_potential_gradient(source, x):
    """Gradient of the potential at points x of shape (..., 2)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for d in source.disks:
        diff = x - d.center
        r2 = np.sum(diff * diff, axis=-1)
        pref = d.mass / TWO_PI
        denom = np.where(r2 >= d.rho**2, r2, d.rho**2)
        out += -pref * diff / denom[..., None]
    return out


def source_quadrature(source, n_radial=32, n_angular=64):
    """Polar product quadrature over each source disk.

    Returns (points, weights, density) flattened over all disks, with
    Gauss-Legendre nodes in radius and a uniform angular grid, so that
    sum(weights * density * g(points)) approximates integral f g dx with
    spectral angular and Gauss radial accuracy.  A reference for tests: the
    shape functional is evaluated on the boundary instead.
    """
    gl_x, gl_w = np.polynomial.legendre.leggauss(n_radial)
    phi = TWO_PI * np.arange(n_angular) / n_angular
    pts = []
    wts = []
    dens = []
    for d in source.disks:
        r = 0.5 * d.rho * (gl_x + 1.0)
        wr = 0.5 * d.rho * gl_w * r
        px = d.cx + r[:, None] * np.cos(phi)[None, :]
        py = d.cy + r[:, None] * np.sin(phi)[None, :]
        w = np.broadcast_to(wr[:, None] * (TWO_PI / n_angular), px.shape)
        pts.append(np.column_stack([px.ravel(), py.ravel()]))
        wts.append(w.ravel())
        dens.append(np.full(px.size, d.density))
    return np.concatenate(pts), np.concatenate(wts), np.concatenate(dens)


def self_energy(disk):
    """Closed form of integral f u over a single disk against its own
    potential: m^2 (1/(8 pi) - log(rho)/(2 pi))."""
    return disk.mass**2 * (1.0 / (8.0 * np.pi) - np.log(disk.rho) / TWO_PI)


def source_energy(source):
    """Closed form of integral f u dx for the whole source against its own
    potential: the disks' self energies plus the cross terms.

    The disks are disjoint, so each disk's potential is harmonic on the
    others and the mean value property turns a cross term into
    m_i u_j(c_i) = -(m_i m_j / 2 pi) log|c_i - c_j|.
    """
    disks = source.disks
    total = sum(self_energy(d) for d in disks)
    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            gap = np.hypot(disks[i].cx - disks[j].cx, disks[i].cy - disks[j].cy)
            total -= disks[i].mass * disks[j].mass * np.log(gap) / np.pi
    return float(total)


def _winding_contains(curve, p):
    """Even-odd point-in-polygon test against the sampled boundary."""
    a = curve.points
    b = np.roll(a, -1, axis=0)
    ya, yb = a[:, 1] - p[1], b[:, 1] - p[1]
    straddle = (ya > 0) != (yb > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        xcross = a[:, 0] + np.where(straddle, ya / (ya - yb), 0.0) * (b[:, 0] - a[:, 0])
    return int(np.sum(straddle & (xcross > p[0]))) % 2 == 1


def _distance_to_polygon(curve, p):
    a = curve.points
    b = np.roll(a, -1, axis=0)
    e = b - a
    t = np.clip(np.sum((p - a) * e, axis=1) / np.sum(e * e, axis=1), 0.0, 1.0)
    proj = a + t[:, None] * e
    return float(np.min(np.hypot(proj[:, 0] - p[0], proj[:, 1] - p[1])))


def clearance_margin(source, curve):
    """Smallest slack of the support condition over all disks.

    Each disk must sit strictly inside the curve with a protective gap of
    one radius between its rim and the boundary, so the state has no source
    within distance rho of the boundary.  The margin is
    min_i (dist(center_i, boundary) - 2 rho_i), negative (or -inf when a
    center is outside) when the condition fails.
    """
    margin = np.inf
    for d in source.disks:
        p = d.center
        if not _winding_contains(curve, p):
            return -np.inf
        margin = min(margin, _distance_to_polygon(curve, p) - 2.0 * d.rho)
    return float(margin)

"""Spectral geometry of smooth closed planar curves.

A curve is sampled at N equispaced parameter values theta_j = 2*pi*j/N and
every derivative is taken through the FFT, so all geometric quantities
(outward normal, curvature, arclength weights) inherit spectral
accuracy for smooth curves.  Orientation is counterclockwise throughout: the
signed area is positive, the normal points outward, and the curvature of a
counterclockwise convex curve is positive (a circle of radius R has
curvature 1/R everywhere).

The module also carries the scalar normal fields that represent tangent
vectors to the manifold of curves, the curvature-weighted metric

    G(h, m) = integral (1 + A*kappa^2) * alpha * beta ds,   h = alpha*nu,

and the basic operations on them: inner products, normal flows, and
resampling to uniform arclength.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .reports import csv_blocks

TWO_PI = 2.0 * np.pi

MIN_SAMPLES = 16


class GeometryError(ValueError):
    """A curve failed validation: bad grid, orientation, or self-intersection."""


def _check_even(n):
    if n < MIN_SAMPLES or n % 2 != 0:
        raise GeometryError(f"need an even sample count >= {MIN_SAMPLES}, got {n}")


def _trig_table(theta, n):
    """cos and sin of m * theta, for modes m = 0 .. n/2, as (len(theta), n/2 + 1)."""
    phase = theta[:, None] * np.arange(n // 2 + 1)[None, :]
    return np.cos(phase), np.sin(phase)


def _trig_series(cos, sin, values):
    """The interpolant of the (n,) samples ``values`` on a ``_trig_table``."""
    n = values.shape[0]
    coef = np.fft.rfft(values)
    amp = np.full(n // 2 + 1, 2.0)
    amp[0] = 1.0
    amp[-1] = 1.0
    return (cos @ (amp * coef.real) - sin @ (amp * coef.imag)) / n


def trig_interpolate(values, theta):
    """Evaluate the trigonometric interpolant of real equispaced samples.

    ``values`` is (n,), or (n, c) for c series on one cos/sin table, each
    column evaluated as the (n,) column alone would be.  The Nyquist mode
    is kept as a pure cosine, which is the unique real symmetric choice on
    an even grid.  Cost O(len(theta) * n); the grids in this package are
    small enough that no fast transform is needed.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    _check_even(n)
    cos, sin = _trig_table(np.atleast_1d(np.asarray(theta, dtype=float)), n)
    if values.ndim == 1:
        return _trig_series(cos, sin, values)
    return np.column_stack([_trig_series(cos, sin, col) for col in values.T])


_INTERSECT_BLOCK = 32
_DIAMETER_BLOCK = 64


def _segments_intersect_any(points):
    """True if any two non-adjacent edges of the closed polygon cross properly.

    Edge i pairs with edges j >= i + 2 (the upper triangle of the edge pair
    matrix); edge 0 skips edge n - 1, its neighbour across the wrap-around.
    A pair counts when the cross products report a crossing and the two
    edges' axis-aligned bounding boxes meet.  A proper crossing lies in both
    edges' boxes, so the box comparisons are inclusive and no crossing is
    lost.  The pair boxes matter for nearly collinear edges: the cross
    products of two separated edges on one line are rounding noise and can
    report a crossing, but such edges are apart along at least one axis.

    The pairs are found without a Python loop.  The row edges are cut into
    blocks of ``_INTERSECT_BLOCK``; one (blocks x edges) mask keeps the
    later edges whose box meets a block's box, the rows of each kept
    (block, edge) candidate are paired with it, and only the pairs whose own
    boxes meet get the cross-product test.  On a smooth curve a block's box
    meets a few neighbouring blocks, so the pair arrays grow about linearly
    in n, and only the mask scans every later edge.
    """
    n = len(points)
    m = n - 2                       # edges n - 2 and n - 1 have no later partner
    if m < 1:
        return False
    ax = np.ascontiguousarray(points[:, 0])
    ay = np.ascontiguousarray(points[:, 1])
    bx = np.roll(ax, -1)
    by = np.roll(ay, -1)
    lox, hix = np.minimum(ax, bx), np.maximum(ax, bx)
    loy, hiy = np.minimum(ay, by), np.maximum(ay, by)

    block = _INTERSECT_BLOCK
    starts = np.arange(0, m, block)
    near = np.arange(n) >= starts[:, None] + 2
    near &= lox <= np.maximum.reduceat(hix[:m], starts)[:, None]
    near &= hix >= np.minimum.reduceat(lox[:m], starts)[:, None]
    near &= loy <= np.maximum.reduceat(hiy[:m], starts)[:, None]
    near &= hiy >= np.minimum.reduceat(loy[:m], starts)[:, None]
    blk, cols = np.nonzero(near)

    # pair (k, r) is row edge starts[blk[k]] + r against edge cols[k]; the
    # masks stay boolean (candidates x block) and only the pairs left at the
    # end get indices.  Row boxes are laid out as (blocks x block) with the
    # rows past m - 1 given empty boxes, which meet nothing.
    pair = (cols - starts[blk])[:, None] >= np.arange(block) + 2
    pair[(blk == 0) & (cols == n - 1), 0] = False
    pad = len(starts) * block - m
    for lo, hi in ((lox, hix), (loy, hiy)):
        row_lo = np.concatenate([lo[:m], np.full(pad, np.inf)]).reshape(-1, block)
        row_hi = np.concatenate([hi[:m], np.full(pad, -np.inf)]).reshape(-1, block)
        pair &= lo[cols, None] <= row_hi[blk]
        pair &= hi[cols, None] >= row_lo[blk]
    k, r = np.nonzero(pair)
    ri, cj = starts[blk[k]] + r, cols[k]

    aix, aiy, bix, biy = ax[ri], ay[ri], bx[ri], by[ri]
    cx, cy, dx, dy = ax[cj], ay[cj], bx[cj], by[cj]
    eix, eiy = bix - aix, biy - aiy
    fx, fy = dx - cx, dy - cy
    d1 = eix * (cy - aiy) - eiy * (cx - aix)
    d2 = eix * (dy - aiy) - eiy * (dx - aix)
    d3 = fx * (aiy - cy) - fy * (aix - cx)
    d4 = fx * (biy - cy) - fy * (bix - cx)
    return bool(np.any((d1 * d2 < 0.0) & (d3 * d4 < 0.0)))


class Curve:
    """Closed counterclockwise curve with spectrally computed geometry.

    Parameters
    ----------
    points : (n, 2) array
        Samples c(theta_j) at theta_j = 2*pi*j/n; n must be a power of two.
    validate : bool
        Run orientation, regularity, and simplicity checks (default True).

    Attributes computed once at construction: ``theta``, ``speed`` (|c'|,
    the length of the first parameter derivative), ``normal`` (outward
    unit), ``kappa`` (curvature), ``weights`` (arclength quadrature weights
    speed * 2*pi/n), ``area`` and ``perimeter``.
    """

    def __init__(self, points, validate=True):
        points = np.array(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2:
            raise GeometryError("points must have shape (n, 2)")
        n = points.shape[0]
        _check_even(n)
        if n & (n - 1):
            raise GeometryError(f"sample count must be a power of two, got {n}")
        if not np.all(np.isfinite(points)):
            raise GeometryError("curve points must be finite")

        self.points = points
        self.n = n
        self.theta = TWO_PI * np.arange(n) / n

        z = points[:, 0] + 1j * points[:, 1]
        zh = np.fft.fft(z)
        k = np.fft.fftfreq(n, d=1.0 / n)
        k1 = k.copy()
        k1[n // 2] = 0.0
        zp = np.fft.ifft(zh * 1j * k1)
        zpp = np.fft.ifft(zh * (1j * k) ** 2)

        self.speed = np.abs(zp)
        tang = zp / self.speed if np.all(self.speed > 0) else zp
        nrm = -1j * tang
        self.normal = np.column_stack([nrm.real, nrm.imag])
        self.kappa = (np.conj(zp) * zpp).imag / self.speed**3
        self.weights = self.speed * (TWO_PI / n)
        # signed area via the shoelace integral 0.5 * integral (x y' - y x')
        self.area = 0.5 * (TWO_PI / n) * float(np.sum((np.conj(z) * zp).imag))
        self.perimeter = float(np.sum(self.weights))

        for arr in (self.points, self.normal, self.kappa, self.weights,
                    self.theta, self.speed):
            arr.setflags(write=False)

        if validate:
            self._validate()

    def _validate(self):
        smax = float(np.max(self.speed))
        if smax == 0.0 or float(np.min(self.speed)) < 1e-12 * smax:
            raise GeometryError("parametrization is degenerate (vanishing speed)")
        if self.area <= 0.0:
            raise GeometryError("curve must be counterclockwise (signed area > 0)")
        if _segments_intersect_any(self.points):
            raise GeometryError("curve is not simple (self-intersection detected)")

    # -- constructors ------------------------------------------------------

    @classmethod
    def circle(cls, radius=1.0, n=256):
        if radius <= 0:
            raise GeometryError("radius must be positive")
        th = TWO_PI * np.arange(n) / n
        return cls(np.column_stack([radius * np.cos(th), radius * np.sin(th)]))

    @classmethod
    def ellipse(cls, a, b, n=256):
        if a <= 0 or b <= 0:
            raise GeometryError("semi-axes must be positive")
        th = TWO_PI * np.arange(n) / n
        return cls(np.column_stack([a * np.cos(th), b * np.sin(th)]))

    @classmethod
    def from_radial(cls, r0=1.0, cos=None, sin=None, n=256):
        """Star-shaped curve r(theta) = r0 + sum a_j cos(j theta) + b_j sin(j theta).

        ``cos`` and ``sin`` are mappings from mode number to amplitude.
        """
        th = TWO_PI * np.arange(n) / n
        r = np.full(n, float(r0))
        for j, amp in (cos or {}).items():
            r += amp * np.cos(int(j) * th)
        for j, amp in (sin or {}).items():
            r += amp * np.sin(int(j) * th)
        if np.any(r <= 0):
            raise GeometryError("radial profile must stay positive")
        return cls(np.column_stack([r * np.cos(th), r * np.sin(th)]))

    # -- derived quantities ------------------------------------------------

    @property
    def diameter(self):
        """Largest distance between two nodes, computed once.

        Squared distances are taken in row blocks of ``_DIAMETER_BLOCK``
        nodes against all nodes, so the Python loop runs n / block times;
        the maximum is the same float as a node-by-node loop gives.
        """
        d = getattr(self, "_diameter", None)
        if d is None:
            x, y = self.points[:, 0], self.points[:, 1]
            d = 0.0
            for i0 in range(0, self.n, _DIAMETER_BLOCK):
                dx = x[None, :] - x[i0:i0 + _DIAMETER_BLOCK, None]
                dy = y[None, :] - y[i0:i0 + _DIAMETER_BLOCK, None]
                d = max(d, float(np.max(dx * dx + dy * dy)))
            d = float(np.sqrt(d))
            self._diameter = d
        return d

    def scaled(self, factor):
        if factor <= 0:
            raise GeometryError("scale factor must be positive")
        return Curve(self.points * factor, validate=False)

    def interpolate_points(self, theta):
        """Trigonometric interpolation of the curve at arbitrary parameters."""
        return trig_interpolate(self.points, theta)

    def __repr__(self):
        return (f"Curve(n={self.n}, area={self.area:.6g}, "
                f"perimeter={self.perimeter:.6g})")


@dataclass(frozen=True)
class NormalField:
    """Scalar field alpha on a curve grid, representing the flow alpha * nu.

    ``normal_derivative`` holds d(alpha)/d(nu) for fields that come with an
    ambient extension; it defaults to zero, which means values are carried
    node-to-node when the curve moves (Lagrangian transport).
    """

    values: np.ndarray
    normal_derivative: np.ndarray = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise GeometryError("field values must be one-dimensional")
        if not np.all(np.isfinite(values)):
            raise GeometryError("field values must be finite")
        nd = self.normal_derivative
        nd = np.zeros_like(values) if nd is None else np.asarray(nd, dtype=float)
        if nd.shape != values.shape or not np.all(np.isfinite(nd)):
            raise GeometryError("normal_derivative must match values and be finite")
        values.setflags(write=False)
        nd.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "normal_derivative", nd)

    @property
    def n(self):
        return self.values.shape[0]

    @classmethod
    def constant(cls, value, n):
        return cls(np.full(n, float(value)))

    @classmethod
    def from_mode(cls, spec, n):
        """Build a Fourier direction from a label: 'const', 'cos3', 'sin2'.

        The numeral is the angular mode; 'const' (or '1') is the unit field.
        """
        th = TWO_PI * np.arange(n) / n
        s = spec.strip().lower()
        if s in ("const", "1"):
            return cls(np.ones(n))
        for prefix, fn in (("cos", np.cos), ("sin", np.sin)):
            if s.startswith(prefix) and s[len(prefix):].isdigit():
                j = int(s[len(prefix):])
                if j < 1:
                    break
                return cls(fn(j * th))
        raise GeometryError(f"unknown direction spec {spec!r}")


@dataclass(frozen=True)
class MetricParams:
    """Parameters of the curvature-weighted metric and the Neumann target.

    A >= 0 scales the kappa^2 weight (A = 0 degenerates to the plain L^2
    arclength metric and is accepted with a diagnostic warning); k > 0 is the
    prescribed magnitude of the normal derivative on the free boundary.
    """

    A: float = 1.0
    k: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.A) or self.A < 0:
            raise ValueError("A must be a finite number >= 0")
        if not np.isfinite(self.k) or self.k <= 0:
            raise ValueError("k must be positive")
        if self.A == 0:
            warnings.warn("A = 0 gives the plain L^2 metric; curvature weighting "
                          "is disabled", stacklevel=2)


def field_values(field, n):
    """Values of a NormalField or array field, checked to be (n,)."""
    values = (field.values if isinstance(field, NormalField)
              else np.asarray(field, dtype=float))
    if values.shape != (n,):
        raise GeometryError("field must live on the curve grid")
    return values


def metric_weight(curve, params):
    """Pointwise metric density 1 + A * kappa^2."""
    return 1.0 + params.A * curve.kappa**2


def metric_inner(curve, params, a, b):
    """Curvature-weighted inner product integral (1 + A kappa^2) a b ds."""
    av = field_values(a, curve.n)
    bv = field_values(b, curve.n)
    return float(np.sum(metric_weight(curve, params) * av * bv * curve.weights))


def metric_norm(curve, params, a):
    return float(np.sqrt(max(metric_inner(curve, params, a, a), 0.0)))


def flow_curve(curve, field, t, validate=True):
    """Move the curve by t along the normal field: c + t * alpha * nu."""
    av = field_values(field, curve.n)
    return Curve(curve.points + t * av[:, None] * curve.normal, validate=validate)


def resample_by_arclength(curve):
    """Redistribute the nodes to uniform arclength spacing.

    The cumulative arclength of the trigonometric interpolant is inverted
    with Newton's method (to 1e-13 * 2 pi in theta, at most 50 steps) and
    the curve is re-sampled at the preimages of a uniform arclength grid.
    The basepoint theta = 0 is kept fixed.  For smooth curves the enclosed
    area changes only at the level of the interpolation error.
    """
    n = curve.n
    coef = np.fft.rfft(curve.speed)
    sbar = coef[0].real / n
    m = np.arange(n // 2 + 1)
    amp = np.full(n // 2 + 1, 2.0)
    amp[0] = 0.0
    amp[-1] = 1.0
    cr = np.where(m > 0, coef.real / np.maximum(m, 1), 0.0)
    ci = np.where(m > 0, coef.imag / np.maximum(m, 1), 0.0)

    def arclen(th):
        # cumulative arclength s(theta) = sbar*theta + periodic part, s(0) = 0;
        # the periodic part is the termwise antiderivative of speed - sbar.
        # Its derivative, the speed, is evaluated on the same table.
        cos, sin = _trig_table(th, n)
        anti = (sin @ (amp * cr) + (cos - 1.0) @ (amp * ci)) / n
        return sbar * th + anti, _trig_series(cos, sin, curve.speed)

    total = curve.perimeter
    targets = total * np.arange(n) / n
    th = targets / sbar
    for _ in range(50):
        s_val, s_der = arclen(th)
        step = (s_val - targets) / s_der
        th = th - step
        if float(np.max(np.abs(step))) < 1e-13 * TWO_PI:
            break
    th[0] = 0.0
    return Curve(curve.interpolate_points(th))


# -- serialization ---------------------------------------------------------

CURVE_CSV_HEADER = "theta,x,y,nx,ny,kappa,w"


def curve_to_csv(curve):
    """Serialize the curve grid and its derived geometry to CSV text, every
    value with 17 significant digits (``reports.csv_blocks``)."""
    table = np.column_stack((curve.theta, curve.points, curve.normal,
                             curve.kappa, curve.weights))
    return "".join(csv_blocks(table, CURVE_CSV_HEADER))

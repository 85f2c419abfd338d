from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadshape.geometry import (Curve, GeometryError, MetricParams,
                                NormalField, curve_to_csv, flow_curve,
                                metric_inner, metric_norm, metric_weight,
                                resample_by_arclength, trig_interpolate)
from quadshape.geometry import _segments_intersect_any

TWO_PI = 2.0 * np.pi


# -- spectral helpers ------------------------------------------------------

def test_trig_interpolate_columns_match_single_series():
    # an (n, 2) call evaluates each column as the (n,) call does, bit for bit
    c = Curve.from_radial(1.0, cos={2: 0.15}, sin={5: 0.05}, n=128)
    theta = np.random.default_rng(2).uniform(-1.0, 7.0, 97)
    both = trig_interpolate(c.points, theta)
    assert both.shape == (97, 2)
    for j in range(2):
        assert np.array_equal(both[:, j], trig_interpolate(c.points[:, j], theta))
    assert np.array_equal(c.interpolate_points(theta), both)


def test_trig_interpolate_reproduces_samples():
    c = Curve.ellipse(1.5, 0.7, n=64)
    vals = c.points[:, 0]
    assert np.allclose(trig_interpolate(vals, c.theta), vals, atol=1e-12)


# -- curve construction and invariants -------------------------------------

def test_circle_geometry_closed_forms():
    c = Curve.circle(2.0, n=64)
    assert np.allclose(c.kappa, 0.5, atol=1e-12)
    assert c.area == pytest.approx(4.0 * np.pi, rel=1e-14)
    assert c.perimeter == pytest.approx(4.0 * np.pi, rel=1e-14)
    assert c.diameter == pytest.approx(4.0, rel=1e-4)


def test_ellipse_curvature_at_vertex():
    # kappa = a / b^2 at the end of the major axis
    c = Curve.ellipse(2.0, 1.0, n=128)
    assert c.kappa[0] == pytest.approx(2.0, abs=1e-10)


def test_outward_normal_points_away_from_origin():
    c = Curve.circle(1.0, n=32)
    assert np.all(np.sum(c.normal * c.points, axis=1) > 0.99)


def test_normal_is_unit_length():
    c = Curve.from_radial(1.0, cos={2: 0.2}, sin={3: 0.1}, n=128)
    assert np.allclose(np.sum(c.normal**2, axis=1), 1.0, atol=1e-12)


@given(st.floats(min_value=0.2, max_value=3.0),
       st.floats(min_value=0.2, max_value=3.0))
@settings(max_examples=25, deadline=None)
def test_ellipse_area_matches_closed_form(a, b):
    c = Curve.ellipse(a, b, n=64)
    assert c.area == pytest.approx(np.pi * a * b, rel=1e-12)


# n = 256 resolves every draw: the largest gap over a 101 x 5 grid of the
# (amp, mode) range is 1.8e-15.  At n = 128 the draw amp = +-0.25, mode = 4
# misses by 2.4e-8, which the test below pins.
@given(st.floats(min_value=-0.25, max_value=0.25),
       st.integers(min_value=2, max_value=6))
@example(0.25, 4)
@example(-0.25, 4)
@settings(max_examples=25, deadline=None)
def test_total_curvature_is_one_turn(amp, mode):
    c = Curve.from_radial(1.0, cos={mode: amp}, n=256)
    assert np.sum(c.kappa * c.weights) == pytest.approx(TWO_PI, abs=1e-8)


@pytest.mark.parametrize("amp", [0.25, -0.25])
def test_total_curvature_gap_at_n128_is_the_trapezoid_error(amp):
    # r = 1 + amp cos(4 theta) at n = 128: kappa is right at every node, and
    # the Gauss-Bonnet gap is the trapezoid error of the exact integrand
    # kappa * speed, not a curvature error
    n = 128
    c = Curve.from_radial(1.0, cos={4: amp}, n=n)
    th = c.theta
    r = 1.0 + amp * np.cos(4 * th)
    dr = -4.0 * amp * np.sin(4 * th)
    ddr = -16.0 * amp * np.cos(4 * th)
    speed = np.sqrt(r * r + dr * dr)
    kappa = (r * r + 2.0 * dr * dr - r * ddr) / speed**3
    assert np.allclose(c.kappa, kappa, rtol=0.0, atol=1e-11)
    gap = np.sum(c.kappa * c.weights) - TWO_PI
    trapezoid_gap = np.sum(kappa * speed) * (TWO_PI / n) - TWO_PI
    assert gap == pytest.approx(trapezoid_gap, abs=1e-13)
    assert abs(gap) > 1e-8


def test_rejects_clockwise_orientation():
    c = Curve.circle(1.0, n=32)
    with pytest.raises(GeometryError, match="counterclockwise"):
        Curve(c.points[::-1])


def test_rejects_self_intersection():
    th = TWO_PI * np.arange(64) / 64
    r = 1.0 + 1.4 * np.cos(2 * th)  # figure-eight-like radial profile
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    with pytest.raises(GeometryError):
        Curve(pts)


def _cross2(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def reference_segments_intersect_any(points):
    """Edge-by-edge loop: edge i against every later non-adjacent edge."""
    n = len(points)
    a = points
    b = np.roll(points, -1, axis=0)
    edge = b - a
    for i in range(n - 2):
        j0 = i + 2
        j1 = n if i > 0 else n - 1
        if j0 >= j1:
            continue
        c = a[j0:j1]
        d = b[j0:j1]
        e = edge[i]
        d1 = _cross2(e, c - a[i])
        d2 = _cross2(e, d - a[i])
        f = d - c
        d3 = _cross2(f, a[i] - c)
        d4 = _cross2(f, b[i] - c)
        if np.any((d1 * d2 < 0.0) & (d3 * d4 < 0.0)):
            return True
    return False


def _random_polygon(rng, n, trial):
    """Star-shaped about the origin (simple) unless a radius goes negative;
    every fourth one is a cloud of random vertices."""
    if trial % 4 == 0:
        return rng.standard_normal((n, 2))
    th = np.sort(rng.uniform(0.0, TWO_PI, n))
    r = 1.0 + rng.uniform(0.0, 1.2) * rng.standard_normal(n)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def test_blocked_intersection_check_matches_edge_loop():
    rng = np.random.default_rng(11)
    seen = set()
    for trial in range(400):
        pts = _random_polygon(rng, int(rng.integers(3, 140)), trial)
        expected = reference_segments_intersect_any(pts)
        assert _segments_intersect_any(pts) == expected
        seen.add(expected)
    assert seen == {True, False}
    # the fewest edges, and sizes with several blocks and a full or partial
    # last block
    for n in (3, 4, 200, 257, 1000, 1024):
        seen = set()
        for trial in range(24):
            pts = _random_polygon(rng, n, trial)
            expected = reference_segments_intersect_any(pts)
            assert _segments_intersect_any(pts) == expected
            seen.add(expected)
        assert seen == ({False} if n == 3 else {True, False})


@pytest.mark.parametrize("n", [5, 32, 33, 64, 100])
def test_intersection_check_across_the_seam(n):
    th = TWO_PI * np.arange(n) / n
    ring = np.column_stack([np.cos(th), np.sin(th)])
    # edges 0 and n - 1 meet at node 0 and never count as a crossing
    assert not _segments_intersect_any(ring)
    assert not reference_segments_intersect_any(ring)
    for swap in ((0, 1), (n - 1, 0)):
        # swapping nodes across the seam makes edges 1 and n - 1, or edges
        # 0 and n - 2, cross
        pts = ring.copy()
        pts[list(swap)] = pts[list(swap[::-1])]
        assert reference_segments_intersect_any(pts)
        assert _segments_intersect_any(pts)


def _radial_points(n, amp):
    th = TWO_PI * np.arange(n) / n
    r = 1.0 + amp * np.cos(2 * th)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("amp,crosses", [(0.3, False), (1.4, True)])
def test_pruned_intersection_check_on_fine_grids(n, amp, crosses):
    # many 32-edge blocks, so most later edges are pruned by their boxes;
    # amp = 1.4 makes r negative near theta = pi/2 and the curve cross itself
    pts = _radial_points(n, amp)
    assert reference_segments_intersect_any(pts) == crosses
    assert _segments_intersect_any(pts) == crosses


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("half_gap,crosses", [(5e-10, False), (-5e-10, True)])
def test_pruned_intersection_check_on_a_pinch(n, half_gap, crosses):
    # y = sin(t) (cos(t)^2 + half_gap): the nodes at t = pi/2 and 3 pi/2 sit
    # at y = +-half_gap, so the upper and lower sides come within 1e-9 of
    # each other at x = 0, or pass each other by as much
    th = TWO_PI * np.arange(n) / n
    pts = np.column_stack([np.cos(th), np.sin(th) * (np.cos(th) ** 2 + half_gap)])
    assert reference_segments_intersect_any(pts) == crosses
    assert _segments_intersect_any(pts) == crosses


def _rectilinear(corners, pieces=16):
    """Closed polygon through the corners, each side cut into equal pieces."""
    corners = np.asarray(corners, dtype=float)
    ends = np.roll(corners, -1, axis=0)
    t = np.arange(pieces)[:, None] / pieces
    return np.concatenate([a + t * (b - a) for a, b in zip(corners, ends)])


@pytest.mark.parametrize("corners,crosses", [
    # two squares that touch only at the node (16, 16): the edge boxes on
    # either side of it touch exactly, and no pair crosses properly
    ([(0, 0), (16, 0), (16, 16), (32, 16), (32, 32), (16, 32), (16, 16),
      (0, 16)], False),
    # the horizontal side at y = 8.5 crosses the vertical side x = 16
    # between nodes; both edges have boxes of zero width
    ([(0, 0), (16, 0), (16, 16), (32, 16), (32, 32), (8.5, 32), (8.5, 8.5),
      (24.5, 8.5), (24.5, -8), (0, -8)], True),
])
def test_pruned_intersection_check_on_axis_aligned_edges(corners, crosses):
    pts = _rectilinear(corners)
    assert reference_segments_intersect_any(pts) == crosses
    assert _segments_intersect_any(pts) == crosses


def _stadium(n, angle):
    """Stadium with straight sides of length 4 joined by unit half circles,
    sampled at uniform arclength from a corner and rotated by ``angle``."""
    s = (8.0 + TWO_PI) * np.arange(n) / n
    x = np.where(s < 4.0, s - 2.0, 2.0 - (s - 4.0 - np.pi))
    y = np.where(s < 4.0, -1.0, 1.0)
    for lo, cx, t0 in ((4.0, 2.0, -0.5 * np.pi),
                       (8.0 + np.pi, -2.0, 0.5 * np.pi)):
        arc = (s >= lo) & (s < lo + np.pi)
        t = s[arc] - lo + t0
        x[arc], y[arc] = cx + np.cos(t), np.sin(t)
    c, sn = np.cos(angle), np.sin(angle)
    return np.column_stack([c * x - sn * y, sn * x + c * y])


def test_intersection_check_accepts_rotated_stadiums():
    # separated edges on one straight side are nearly collinear, and their
    # cross products are rounding noise that the edge loop reads as a
    # crossing at some angles; the edge boxes rule those pairs out
    angles = np.pi * np.arange(300) / 300
    assert any(reference_segments_intersect_any(_stadium(256, a))
               for a in angles)
    for a in angles:
        assert not _segments_intersect_any(_stadium(256, a))
        Curve(_stadium(256, a))


def reference_diameter(points):
    """Node-by-node loop over the squared distances."""
    d = 0.0
    for i in range(len(points)):
        d = max(d, float(np.max(np.sum((points - points[i]) ** 2, axis=1))))
    return float(np.sqrt(d))


def test_blocked_diameter_matches_node_loop():
    rng = np.random.default_rng(5)
    for trial in range(40):
        n = 2 ** int(rng.integers(4, 10))
        pts = rng.standard_normal((n, 2)) * rng.uniform(0.1, 10.0, 2)
        curve = Curve(pts, validate=False)
        assert curve.diameter == reference_diameter(curve.points)
    for n in (64, 128, 256, 512, 1024):
        th = TWO_PI * np.arange(n) / n
        curve = Curve(np.column_stack([0.3 + 1.2 * np.cos(th),
                                       -0.1 + 0.8 * np.sin(th)]))
        assert curve.diameter == reference_diameter(curve.points)
        assert curve.diameter == pytest.approx(2.4, rel=1e-12)


def test_rejects_tiny_grids():
    th = TWO_PI * np.arange(8) / 8
    pts = np.column_stack([np.cos(th), np.sin(th)])
    with pytest.raises(GeometryError):
        Curve(pts)


def test_points_are_read_only():
    c = Curve.circle(1.0, n=32)
    with pytest.raises(ValueError):
        c.points[0, 0] = 5.0


def test_scaled_and_translated():
    c = Curve.circle(1.0, n=32)
    assert c.scaled(2.0).area == pytest.approx(4.0 * np.pi, rel=1e-12)
    t = Curve(c.points + np.array([3.0, -1.0]), validate=False)
    assert t.area == pytest.approx(c.area, rel=1e-14)
    assert np.allclose(t.points.mean(axis=0), [3.0, -1.0], atol=1e-12)


# -- resampling ------------------------------------------------------------

def test_resample_equalizes_speed():
    c = Curve.ellipse(1.5, 0.7, n=128)
    r = resample_by_arclength(c)
    spread = (r.speed.max() - r.speed.min()) / r.speed.mean()
    assert spread < 1e-7


def test_resample_keeps_basepoint_and_area():
    c = Curve.ellipse(1.5, 0.7, n=128)
    r = resample_by_arclength(c)
    assert np.allclose(r.points[0], c.points[0], atol=1e-12)
    assert r.area == pytest.approx(c.area, rel=1e-12)
    assert r.perimeter == pytest.approx(c.perimeter, rel=1e-12)


def test_resample_fixed_point_on_circle():
    c = Curve.circle(1.0, n=64)
    r = resample_by_arclength(c)
    assert np.allclose(r.points, c.points, atol=1e-12)


# -- normal fields and flows -----------------------------------------------

def test_normal_field_mode_parsing():
    n = 32
    th = TWO_PI * np.arange(n) / n
    assert np.allclose(NormalField.from_mode("const", n).values, 1.0)
    assert np.allclose(NormalField.from_mode("cos3", n).values, np.cos(3 * th))
    assert np.allclose(NormalField.from_mode("sin2", n).values, np.sin(2 * th))
    with pytest.raises(GeometryError):
        NormalField.from_mode("tan1", n)


def test_flow_circle_changes_radius():
    c = Curve.circle(1.0, n=64)
    moved = flow_curve(c, NormalField.constant(1.0, 64), 0.25)
    assert np.allclose(np.hypot(*moved.points.T), 1.25, atol=1e-12)


def test_flow_validates_result():
    # pushing one lobe through the center makes the radial profile change
    # sign, so the flowed curve must be rejected as self-intersecting
    c = Curve.circle(1.0, n=64)
    field = NormalField(np.cos(2 * c.theta))
    with pytest.raises(GeometryError):
        flow_curve(c, field, 1.5)
    assert flow_curve(c, field, 1.5, validate=False).n == 64


# -- metric ----------------------------------------------------------------

def test_metric_params_validation():
    with pytest.raises(ValueError, match="k must be positive"):
        MetricParams(A=1.0, k=0.0)
    with pytest.raises(ValueError):
        MetricParams(A=-0.5, k=1.0)
    with pytest.warns(UserWarning):
        MetricParams(A=0.0, k=1.0)


def test_metric_inner_circle_closed_form():
    # int (1 + A kappa^2) cos^2(2 theta) ds = (1 + A / R^2) pi R
    c = Curve.circle(1.0, n=64)
    p = MetricParams(A=1.0, k=1.0)
    v = np.cos(2 * c.theta)
    assert metric_inner(c, p, v, v) == pytest.approx(2.0 * np.pi, rel=1e-12)
    assert metric_weight(c, p) == pytest.approx(2.0, rel=1e-12)


@given(st.floats(min_value=0.01, max_value=4.0))
@settings(max_examples=20, deadline=None)
def test_metric_norm_positive_definite(A):
    c = Curve.from_radial(1.0, cos={3: 0.2}, n=64)
    p = MetricParams(A=A, k=1.0)
    v = np.sin(2 * c.theta) + 0.3
    assert metric_norm(c, p, v) > 0.0
    assert metric_inner(c, p, v, 2.0 * v) == pytest.approx(
        2.0 * metric_inner(c, p, v, v), rel=1e-12)


# -- serialization ---------------------------------------------------------

def test_curve_csv_round_trip():
    # every column reads back bit for bit (17 significant digits)
    c = Curve.from_radial(1.0, cos={2: 0.15}, sin={5: 0.05}, n=64)
    header, *rows = curve_to_csv(c).splitlines()
    assert header == "theta,x,y,nx,ny,kappa,w"
    data = np.array([[float(v) for v in row.split(",")] for row in rows])
    expected = np.column_stack([c.theta, c.points, c.normal, c.kappa,
                                c.weights])
    assert np.array_equal(data, expected)


def per_row_curve_csv(curve):
    # reference serializer: every value through format(v, ".17g"), row by row
    cols = (curve.theta, curve.points[:, 0], curve.points[:, 1],
            curve.normal[:, 0], curve.normal[:, 1], curve.kappa, curve.weights)
    rows = [",".join(format(v, ".17g") for v in row) for row in zip(*cols)]
    return "theta,x,y,nx,ny,kappa,w\n" + "".join(r + "\n" for r in rows)


def test_curve_csv_matches_the_per_row_formatter():
    curves = [Curve.circle(1.0, n=16), Curve.ellipse(1.2, 0.8, n=128),
              Curve.from_radial(1.0, cos={2: 0.15}, sin={5: 0.05}, n=1024)]
    # non-finite values and signed zeros in the normal and curvature columns
    c = Curve.ellipse(2.0, 1.0, n=32)
    kappa = c.kappa.copy()
    kappa[:5] = [np.nan, np.inf, -np.inf, 0.0, -0.0]
    normal = c.normal.copy()
    normal[0] = [-0.0, 0.0]
    curves.append(SimpleNamespace(n=c.n, theta=c.theta, points=c.points,
                                  normal=normal, kappa=kappa,
                                  weights=c.weights))
    for curve in curves:
        assert curve_to_csv(curve) == per_row_curve_csv(curve)
    assert ",nan," in curve_to_csv(curves[-1])
    assert ",-0," in curve_to_csv(curves[-1])

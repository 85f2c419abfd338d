import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadshape.geometry import Curve
from quadshape.potential import (Disk, SourceTerm, clearance_margin,
                                 eval_potential, eval_potential_gradient,
                                 self_energy, source_energy,
                                 source_quadrature)

TWO_PI = 2.0 * np.pi


def test_disk_validation():
    with pytest.raises(ValueError):
        Disk(0.0, 0.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        Disk(0.0, 0.0, 0.1, 0.0)


def test_source_rejects_overlapping_disks():
    with pytest.raises(ValueError):
        SourceTerm((Disk(0.0, 0.0, 0.3, 1.0), Disk(0.5, 0.0, 0.3, 1.0)))


def test_potential_outside_is_point_mass():
    d = SourceTerm((Disk(0.0, 0.0, 0.2, 3.0),))
    x = np.array([[2.0, 0.0], [0.0, -1.5]])
    r = np.array([2.0, 1.5])
    expected = -3.0 / TWO_PI * np.log(r)
    assert np.allclose(eval_potential(d, x), expected, rtol=1e-14)


def test_potential_inside_solves_poisson():
    # -lap u = f inside the disk: radial finite differences of the profile
    d = SourceTerm((Disk(0.0, 0.0, 0.5, 2.0),))
    f = 2.0 / (np.pi * 0.25)
    h = 1e-5
    for r in (0.1, 0.3, 0.45):
        pts = np.array([[r - h, 0.0], [r, 0.0], [r + h, 0.0]])
        u = eval_potential(d, pts)
        lap = (u[0] - 2 * u[1] + u[2]) / h**2 + (u[2] - u[0]) / (2 * h * r)
        assert lap == pytest.approx(-f, rel=1e-4)


def test_potential_continuous_at_rim():
    d = SourceTerm((Disk(0.3, -0.2, 0.25, 1.7),))
    inner = eval_potential(d, np.array([[0.3 + 0.25 - 1e-9, -0.2]]))[0]
    outer = eval_potential(d, np.array([[0.3 + 0.25 + 1e-9, -0.2]]))[0]
    assert inner == pytest.approx(outer, abs=1e-8)


def test_gradient_matches_finite_differences():
    d = SourceTerm((Disk(0.1, 0.2, 0.3, 2.5),))
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.0, 1.0, size=(20, 2))
    g = eval_potential_gradient(d, pts)
    h = 1e-6
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        fd = (eval_potential(d, pts + e) - eval_potential(d, pts - e)) / (2 * h)
        assert np.allclose(g[:, axis], fd, atol=1e-8)


def test_superposition_of_disks():
    d1 = Disk(0.4, 0.0, 0.1, 1.0)
    d2 = Disk(-0.4, 0.0, 0.1, 2.0)
    both = SourceTerm((d1, d2))
    x = np.array([[0.0, 0.7], [1.2, -0.3]])
    split = (eval_potential(SourceTerm((d1,)), x)
             + eval_potential(SourceTerm((d2,)), x))
    assert np.allclose(eval_potential(both, x), split, rtol=1e-14)


@given(st.floats(min_value=0.05, max_value=0.5),
       st.floats(min_value=0.1, max_value=5.0))
@settings(max_examples=20, deadline=None)
def test_quadrature_integrates_density_to_mass(rho, mass):
    src = SourceTerm((Disk(0.2, -0.1, rho, mass),))
    pts, w, dens = source_quadrature(src)
    assert np.sum(w * dens) == pytest.approx(mass, rel=1e-12)
    assert np.all(np.hypot(pts[:, 0] - 0.2, pts[:, 1] + 0.1) < rho)


def test_self_energy_matches_quadrature():
    # int f u for a single disk against the closed form
    disk = Disk(0.0, 0.0, 0.15, 2.0)
    src = SourceTerm((disk,))
    pts, w, dens = source_quadrature(src, n_radial=48, n_angular=96)
    u = eval_potential(src, pts)
    assert np.sum(w * dens * u) == pytest.approx(self_energy(disk), rel=1e-12)


def test_source_energy_matches_quadrature():
    # two disks: self energies plus the mean-value cross term
    src = SourceTerm((Disk(0.3, 0.1, 0.08, np.pi), Disk(-0.2, -0.1, 0.12, 2.0)))
    pts, w, dens = source_quadrature(src, n_radial=48, n_angular=96)
    u = eval_potential(src, pts)
    assert source_energy(src) == pytest.approx(np.sum(w * dens * u), rel=1e-12)
    single = SourceTerm((Disk(0.0, 0.0, 0.15, 2.0),))
    assert source_energy(single) == self_energy(single.disks[0])


def test_translated_source():
    src = SourceTerm((Disk(0.0, 0.1, 0.2, 1.5),))
    moved = src.translated((0.5, -0.3))
    assert moved.disks[0].cx == pytest.approx(0.5)
    assert moved.disks[0].cy == pytest.approx(-0.2)
    x = np.array([[2.0, 2.0]])
    assert eval_potential(moved, x) == pytest.approx(
        eval_potential(src, x - np.array([0.5, -0.3])), rel=1e-14)


def test_clearance_margin_signs():
    c = Curve.circle(1.0, n=64)
    inside = SourceTerm((Disk(0.0, 0.0, 0.1, 1.0),))
    # the boundary is treated as a polygon, so allow a chord-sagitta slack
    assert clearance_margin(inside, c) == pytest.approx(0.8, abs=5e-3)
    tight = SourceTerm((Disk(0.85, 0.0, 0.1, 1.0),))
    assert clearance_margin(tight, c) < 0.0
    outside = SourceTerm((Disk(2.0, 0.0, 0.1, 1.0),))
    assert clearance_margin(outside, c) == -np.inf

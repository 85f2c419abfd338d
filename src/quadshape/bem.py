"""First-kind single-layer boundary solver on spectral curve grids.

Dirichlet problems for the Laplacian are solved with a single-layer ansatz

    u(x) = integral -(1/2 pi) log|x - y| sigma(y) ds(y),

discretized by a Nystrom rule that splits the log singularity Kress-style:
the kernel is written as a smooth part (handled by the plain trapezoid rule,
which is spectrally accurate on periodic grids) plus log|2 sin((t-s)/2)|,
whose product quadrature weights are known exactly in Fourier space.  The
resulting dense system is LU-factorized once per curve; the
Dirichlet-to-Neumann map reuses that factorization for all of its columns.

The first-kind operator degenerates when the logarithmic capacity
(transfinite diameter) of the curve approaches one, where the constant
density lies in its kernel.  Curves whose capacity estimate falls in
(1/2, 2) are therefore scaled internally by a fixed factor of 4; scaling is
transparent to callers because boundary data transports unchanged, interior
evaluation points are scaled alongside, and Neumann data gains the factor
back by the chain rule.

``BoundaryOperators`` is the whole interface: the state solve in
``quadshape.shape`` constructs one bundle per curve and keeps it on the
returned state, so the bundle is freed with the state.  ``get_operators``
is a separate identity-keyed cache that the solver does not use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import warnings

import numpy as np
import scipy.linalg

from .geometry import TWO_PI, GeometryError

RESCALE_FACTOR = 4.0
RCOND_LIMIT = 1e-13


class SolverError(RuntimeError):
    """The boundary system could not be solved reliably."""


class AccuracyWarning(UserWarning):
    """An evaluation point is too close to the boundary for full accuracy."""


def log_capacity_estimate(curve):
    """Cheap transfinite-diameter proxy: perimeter / 2 pi.

    Exact for circles and within a few percent for moderate ellipses, which
    is all the rescale guard needs.
    """
    return curve.perimeter / TWO_PI


def assemble_single_layer(curve):
    """Dense Nystrom matrix of the single-layer operator on the curve.

    S[i, j] applies to nodal densities; row i approximates the boundary
    integral at node i with spectral accuracy for smooth densities.
    """
    n = curve.n
    pts = curve.points
    th = curve.theta
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    # |2 sin((t_i - t_j)/2)| on the periodic grid
    sin_fac = np.abs(2.0 * np.sin(0.5 * (th[:, None] - th[None, :])))
    np.fill_diagonal(dist, 1.0)
    np.fill_diagonal(sin_fac, 1.0)
    smooth = -np.log(dist / sin_fac) / TWO_PI
    np.fill_diagonal(smooth, -np.log(curve.speed) / TWO_PI)
    # exact Fourier weights for -(1/2 pi) log|2 sin((t-s)/2)|: mode m maps to
    # itself times 1/(2|m|), constants to zero
    k = np.fft.fftfreq(n, d=1.0 / n)
    inv = np.zeros(n)
    inv[1:] = 0.5 / np.abs(k[1:])
    logpart = scipy.linalg.circulant(np.fft.ifft(inv).real)
    return smooth * curve.weights[None, :] + logpart * curve.speed[None, :]


def assemble_neumann_jump(curve):
    """Nystrom matrix of the adjoint double-layer operator K'.

    The interior normal derivative of the single-layer potential with
    density sigma is (K' + I/2) sigma.  The kernel
    -(1/2 pi) (x - y).nu(x) / |x - y|^2 is smooth on smooth curves with
    diagonal limit -kappa(x) / (4 pi), so the plain trapezoid rule applies.
    """
    pts = curve.points
    diff = pts[:, None, :] - pts[None, :, :]
    r2 = np.sum(diff * diff, axis=-1)
    np.fill_diagonal(r2, 1.0)
    dot = diff[..., 0] * curve.normal[:, None, 0] + diff[..., 1] * curve.normal[:, None, 1]
    kern = -dot / (TWO_PI * r2)
    np.fill_diagonal(kern, -curve.kappa / (2.0 * TWO_PI))
    return kern * curve.weights[None, :]


@dataclass(frozen=True)
class LayerDensity:
    """Single-layer density tied to a solver's (possibly rescaled) grid."""

    values: np.ndarray
    scale: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


class BoundaryOperators:
    """All dense boundary operators for one curve, factored once.

    Construction assembles the single-layer matrix (on the internally
    rescaled curve when the capacity guard triggers) together with its LU
    factorization and the Neumann jump matrix.  The Dirichlet-to-Neumann
    matrix is assembled lazily, column by column, on the shared
    factorization.
    """

    def __init__(self, curve):
        self.curve = curve
        cap = log_capacity_estimate(curve)
        self.capacity_estimate = cap
        self.scale = RESCALE_FACTOR if 0.5 < cap < 2.0 else 1.0
        self._work = curve if self.scale == 1.0 else curve.scaled(self.scale)
        self.single_layer = assemble_single_layer(self._work)
        anorm = np.linalg.norm(self.single_layer, 1)
        self._lu = scipy.linalg.lu_factor(self.single_layer)
        rcond = scipy.linalg.lapack.dgecon(self._lu[0], anorm, norm="1")[0]
        self.rcond = float(rcond)
        if not np.isfinite(rcond) or rcond < RCOND_LIMIT:
            raise SolverError(
                f"single-layer system is numerically singular (rcond={rcond:.2e}); "
                "the curve's logarithmic capacity is likely too close to one")
        self.neumann_jump = assemble_neumann_jump(self._work)
        self._dtn = None

    @property
    def n(self):
        return self.curve.n

    def solve_dirichlet(self, data):
        """Density whose single-layer potential matches the boundary data."""
        data = np.asarray(data, dtype=float)
        if data.shape != (self.n,):
            raise GeometryError("boundary data must live on the curve grid")
        sigma = scipy.linalg.lu_solve(self._lu, data)
        return LayerDensity(sigma, self.scale)

    def neumann_trace(self, density):
        """Interior normal derivative of the density's potential, on the
        original curve (the chain rule restores the internal scale)."""
        sigma = density.values
        return self.scale * (self.neumann_jump @ sigma + 0.5 * sigma)

    def dtn_apply(self, values):
        """Dirichlet-to-Neumann map: normal derivative of the harmonic
        extension of the given boundary values."""
        return self.neumann_trace(self.solve_dirichlet(values))

    @property
    def dtn_matrix(self):
        if self._dtn is None:
            inv = scipy.linalg.lu_solve(self._lu, np.eye(self.n))
            self._dtn = self.scale * (self.neumann_jump @ inv + 0.5 * inv)
        return self._dtn

    def dirichlet_energy(self, values):
        """integral |grad Lambda(values)|^2 dx = integral values * L values ds."""
        values = np.asarray(values, dtype=float)
        return float(np.sum(values * self.dtn_apply(values) * self.curve.weights))

    def _interior_offsets(self, x):
        """Offsets x - y from the boundary nodes y to the (scaled) points x
        and their squared lengths.  The plain trapezoid sum loses accuracy
        within a few grid spacings of the boundary, so points closer than
        2*pi*diam/n trigger an AccuracyWarning."""
        x = np.atleast_2d(np.asarray(x, dtype=float)) * self.scale
        diff = x[:, None, :] - self._work.points[None, :, :]
        r2 = np.sum(diff * diff, axis=-1)
        if np.any(r2 < (TWO_PI * self._work.diameter / self.n) ** 2):
            warnings.warn("interior evaluation point within one accuracy band "
                          "(2 pi diam / n) of the boundary", AccuracyWarning,
                          stacklevel=3)
        return diff, r2

    def eval_interior(self, density, x):
        """Evaluate the density's harmonic potential at interior points."""
        _, r2 = self._interior_offsets(x)
        kern = -0.5 * np.log(r2) / TWO_PI
        return kern @ (density.values * self._work.weights)

    def eval_interior_gradient(self, density, x):
        """Gradient of the density's harmonic potential at interior points.

        The kernel gradient decays like 1/r, so the near-boundary band is
        wider in practice than the warning's.
        """
        diff, r2 = self._interior_offsets(x)
        kern = -diff / (TWO_PI * r2[..., None])
        coef = density.values * self._work.weights
        return self.scale * np.einsum("mjd,j->md", kern, coef)


@lru_cache(maxsize=32)
def get_operators(curve):
    """Memoized operator bundle per curve (curves hash by identity).

    The solver does not use this cache: ``shape.solve_state`` builds a fresh
    ``BoundaryOperators`` that lives only as long as the state holding it.
    The cache keeps up to 32 dense bundles alive, so prefer constructing
    ``BoundaryOperators`` directly.
    """
    return BoundaryOperators(curve)

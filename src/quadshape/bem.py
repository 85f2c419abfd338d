"""First-kind single-layer boundary solver on spectral curve grids.

Dirichlet problems for the Laplacian are solved with a single-layer ansatz

    u(x) = integral -(1/2 pi) log|x - y| sigma(y) ds(y),

discretized by a Nystrom rule that splits the log singularity Kress-style:
the kernel is written as a smooth part (handled by the plain trapezoid rule,
which is spectrally accurate on periodic grids) plus log|2 sin((t-s)/2)|,
whose product quadrature weights are known exactly in Fourier space.  The
resulting dense system is LU-factorized once per curve and S itself is not
kept, so a bundle holds the LU factors and K'; the Dirichlet-to-Neumann map
reuses that factorization in one transposed solve for all of its columns.

``assemble_operators`` builds the single-layer matrix S and the adjoint
double-layer matrix K' in one pass over the node pairs: the coordinate
offsets, as contiguous per-coordinate arrays, and their squared lengths
are shared by both kernels, and every later step works in place.  The log|2 sin((t-s)/2)| split divides by a matrix that
depends only on the grid size, ``_grid_sin_factor(n)``; it is cached per n,
built on the first assembly at that size (never at import) and then kept
for the life of the process: one read-only n x n array per distinct n,
8 MB at n = 1024.  Counting that array, a bundle's assembly holds at most
four n x n arrays.

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


@lru_cache(maxsize=None)
def _grid_sin_factor(n):
    """Read-only matrix |2 sin((theta_i - theta_j)/2)| with unit diagonal on
    the grid theta_j = 2 pi j / n of every n-point ``Curve``.

    It depends on n alone, so it is built the first time a curve of that
    size is assembled and kept: one n x n array per distinct n.
    """
    th = TWO_PI * np.arange(n) / n
    sin_fac = th[:, None] - th[None, :]
    sin_fac *= 0.5
    np.sin(sin_fac, out=sin_fac)
    sin_fac *= 2.0
    np.abs(sin_fac, out=sin_fac)
    np.fill_diagonal(sin_fac, 1.0)
    sin_fac.setflags(write=False)
    return sin_fac


def assemble_operators(curve):
    """Dense Nystrom matrices ``(S, Kp)`` of the single-layer operator and of
    the adjoint double-layer operator K' on the curve, in one pass over the
    node pairs.

    S[i, j] applies to nodal densities; row i approximates the boundary
    integral at node i with spectral accuracy for smooth densities.  The
    interior normal derivative of the single-layer potential with density
    sigma is (K' + I/2) sigma; the K' kernel -(1/2 pi) (x - y).nu(x) / |x - y|^2
    is smooth on smooth curves with diagonal limit -kappa(x) / (4 pi), so
    the plain trapezoid rule applies.

    Both kernels read the per-coordinate offsets ``dx``, ``dy`` and their
    squared length ``r2``.  K' is finished first, in three n x n buffers,
    and S is then built in place on ``r2``; with the cached
    ``_grid_sin_factor(n)`` counted, at most four n x n arrays are alive at
    once.
    """
    n = curve.n
    x, y = curve.points[:, 0], curve.points[:, 1]
    # kp = dx nx + dy ny and r2 = dx^2 + dy^2 in three buffers: dx is formed
    # twice, once per sum (IEEE addition commutes, so the order of the two
    # terms does not change a bit)
    r2 = y[:, None] - y[None, :]
    kp = r2 * curve.normal[:, None, 1]
    r2 *= r2
    tmp = x[:, None] - x[None, :]
    tmp *= curve.normal[:, None, 0]
    kp += tmp
    np.subtract(x[:, None], x[None, :], out=tmp)
    r2 += np.multiply(tmp, tmp, out=tmp)
    np.fill_diagonal(r2, 1.0)
    np.negative(kp, out=kp)
    kp /= np.multiply(TWO_PI, r2, out=tmp)
    del tmp
    np.fill_diagonal(kp, -curve.kappa / (2.0 * TWO_PI))
    kp *= curve.weights[None, :]

    # S = -(1/2 pi) log(|x_i - x_j| / |2 sin((t_i - t_j)/2)|) * w_j plus the
    # log|2 sin| part on exact Fourier weights: mode m maps to itself times
    # 1/(2|m|), constants to zero
    smooth = np.sqrt(r2, out=r2)
    smooth /= _grid_sin_factor(n)
    np.log(smooth, out=smooth)
    np.negative(smooth, out=smooth)
    smooth /= TWO_PI
    np.fill_diagonal(smooth, -np.log(curve.speed) / TWO_PI)
    smooth *= curve.weights[None, :]
    k = np.fft.fftfreq(n, d=1.0 / n)
    inv = np.zeros(n)
    inv[1:] = 0.5 / np.abs(k[1:])
    logpart = scipy.linalg.circulant(np.fft.ifft(inv).real)
    logpart *= curve.speed[None, :]
    smooth += logpart
    return smooth, kp


class BoundaryOperators:
    """All dense boundary operators for one curve, factored once.

    Construction assembles the single-layer matrix S and the Neumann jump
    matrix K' (on the internally rescaled curve when the capacity guard
    triggers), LU-factors S and drops it: a bundle holds two n x n arrays,
    the LU factors and K'.  ``single_layer_matrix`` reassembles S on
    request.  The Dirichlet-to-Neumann matrix is formed lazily, on first
    use, from one transposed solve of the shared factorization against
    (K' + I/2)^T, and adds a third n x n array.
    """

    def __init__(self, curve):
        self.curve = curve
        cap = log_capacity_estimate(curve)
        self.capacity_estimate = cap
        self.scale = RESCALE_FACTOR if 0.5 < cap < 2.0 else 1.0
        self._work = curve if self.scale == 1.0 else curve.scaled(self.scale)
        S, self.neumann_jump = assemble_operators(self._work)
        anorm = np.linalg.norm(S, 1)
        # S is not kept (--dump-operators reassembles it).  It is C-ordered,
        # so getrf factors a Fortran copy even with overwrite_a, and S is
        # freed when __init__ returns
        self._lu = scipy.linalg.lu_factor(S, overwrite_a=True)
        rcond = scipy.linalg.lapack.dgecon(self._lu[0], anorm, norm="1")[0]
        self.rcond = float(rcond)
        if not np.isfinite(rcond) or rcond < RCOND_LIMIT:
            raise SolverError(
                f"single-layer system is numerically singular (rcond={rcond:.2e}); "
                "the curve's logarithmic capacity is likely too close to one")
        self._dtn = None

    @property
    def n(self):
        return self.curve.n

    def solve_dirichlet(self, data):
        """Density whose single-layer potential matches the boundary data,
        as a read-only array on the solver's (possibly rescaled) grid."""
        data = np.asarray(data, dtype=float)
        if data.shape != (self.n,):
            raise GeometryError("boundary data must live on the curve grid")
        sigma = scipy.linalg.lu_solve(self._lu, data)
        sigma.setflags(write=False)
        return sigma

    def neumann_trace(self, sigma):
        """Interior normal derivative of the density's potential, on the
        original curve (the chain rule restores the internal scale)."""
        return self.scale * (self.neumann_jump @ sigma + 0.5 * sigma)

    def single_layer_matrix(self):
        """The single-layer matrix S on the solver's (possibly rescaled)
        grid, reassembled on each call: the bundle keeps only its LU
        factors."""
        return assemble_operators(self._work)[0]

    @property
    def dtn_matrix(self):
        """The Dirichlet-to-Neumann map L = scale (K' + I/2) S^-1 as a
        matrix, built on first access and kept; it is the map's only route.

        L^T solves S^T X = (K' + I/2)^T, so one transposed solve of the
        shared factorization, in place on one Fortran-order right-hand
        side, gives L without forming S^-1.
        """
        if self._dtn is None:
            rhs = np.array(self.neumann_jump.T, order="F")
            rhs[np.diag_indices(self.n)] += 0.5
            dtn = scipy.linalg.lu_solve(self._lu, rhs, trans=1,
                                        overwrite_b=True).T
            dtn *= self.scale
            self._dtn = dtn
        return self._dtn

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

    def eval_interior(self, sigma, x):
        """Evaluate the density's harmonic potential at interior points."""
        _, r2 = self._interior_offsets(x)
        kern = -0.5 * np.log(r2) / TWO_PI
        return kern @ (sigma * self._work.weights)

    def eval_interior_gradient(self, sigma, x):
        """Gradient of the density's harmonic potential at interior points.

        The kernel gradient decays like 1/r, so the near-boundary band is
        wider in practice than the warning's.
        """
        diff, r2 = self._interior_offsets(x)
        kern = -diff / (TWO_PI * r2[..., None])
        coef = sigma * self._work.weights
        return self.scale * np.einsum("mjd,j->md", kern, coef)


@lru_cache(maxsize=32)
def get_operators(curve):
    """Memoized operator bundle per curve (curves hash by identity).

    The solver does not use this cache: ``shape.solve_state`` builds a fresh
    ``BoundaryOperators`` that lives only as long as the state holding it.
    The cache keeps up to 32 dense bundles alive, each two n x n arrays, or
    three once its DtN matrix is built, so prefer constructing
    ``BoundaryOperators`` directly.
    """
    return BoundaryOperators(curve)

"""First-kind single-layer boundary solver on spectral curve grids.

Dirichlet problems for the Laplacian are solved with a single-layer ansatz

    u(x) = integral -(1/2 pi) log|x - y| sigma(y) ds(y),

discretized by a Nystrom rule that splits the log singularity Kress-style:
the kernel is written as a smooth part (handled by the plain trapezoid rule,
which is spectrally accurate on periodic grids) plus log|2 sin((t-s)/2)|,
whose product quadrature weights are known exactly in Fourier space.  The
resulting dense system is LU-factorized once per curve, in S's own buffer,
so a bundle holds the LU factors and K'.  The Dirichlet-to-Neumann map
reuses that factorization in one transposed solve for all of its columns,
in K''s buffer; nothing reads the factors or K' after that, so they are
released and the bundle keeps L alone.

``assemble_operators`` builds the single-layer matrix S, in Fortran order,
and the adjoint double-layer matrix K' in one pass over the node pairs,
by blocks of rows written straight into the two results: a block's
coordinate offsets and squared lengths are shared by both kernels.  The
log|2 sin((t-s)/2)| split divides by a matrix that depends only on the grid
size, ``_grid_sin_factor(n)``, and the exact Fourier weights of that log
part depend on n alone too.  Both are circulant, so each is cached per n as
a read-only strided view of 2n numbers, built on the first assembly at that
size (never at import); no n x n array outlives a bundle.  A bundle's
construction peaks at about 2.2 n x n arrays at n = 512.

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
# node pairs per row block of ``assemble_operators``
_ASSEMBLY_BLOCK = 1 << 15


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


def _circulant_t(col):
    """Read-only n x n view C^T of the circulant C[i, j] = col[(i - j) mod n]
    over 2n numbers: row j of C^T is a window of col repeated twice."""
    n = len(col)
    return np.lib.stride_tricks.sliding_window_view(
        np.concatenate((col, col)), n)[n:0:-1]


@lru_cache(maxsize=None)
def _grid_sin_factor(n):
    """Read-only matrix |2 sin((theta_i - theta_j)/2)| with unit diagonal on
    the grid theta_j = 2 pi j / n of every n-point ``Curve``.

    Entry (i, j) is 2 sin(pi min(m, n - m) / n) with m = (i - j) mod n, so
    the matrix is circulant and symmetric bit for bit, and it is a strided
    view of 2n numbers, cached per n.  Taking the angle from the integer m,
    not from the difference theta_i - theta_j (which cancels), keeps every
    entry within about one ulp of the exact value.
    """
    m = np.arange(n)
    col = 2.0 * np.sin(0.5 * TWO_PI * np.minimum(m, n - m) / n)
    col[0] = 1.0
    return _circulant_t(col)


@lru_cache(maxsize=None)
def _grid_log_weights_t(n):
    """Read-only n x n matrix of the exact Fourier weights of the
    log|2 sin((t-s)/2)| part on the n-point grid, transposed: mode m maps
    to itself times 1/(2|m|), constants to zero.

    The weights form a circulant matrix, so this is a strided view of 2n
    numbers, cached per n.
    """
    k = np.fft.fftfreq(n, d=1.0 / n)
    inv = np.zeros(n)
    inv[1:] = 0.5 / np.abs(k[1:])
    return _circulant_t(np.fft.ifft(inv).real)


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

    S is returned in Fortran order, so that ``lu_factor`` can work in its
    buffer, and K' in C order.  Both are written block of rows by block of
    rows, straight into their final buffers: a block's coordinate offsets
    and squared lengths ``r2`` serve the K' rows and the same rows of S^T,
    because ``r2`` and ``_grid_sin_factor(n)`` are symmetric bit for bit.
    Besides the two results, one block-sized buffer is alive: the rows of
    S^T hold the block's other intermediates until S is formed in them; the
    sin factor and the log weights are circulant views of 2n numbers.
    """
    n = curve.n
    x, y = curve.points[:, 0], curve.points[:, 1]
    nx, ny = curve.normal[:, 0], curve.normal[:, 1]
    w, speed = curve.weights, curve.speed
    sin_fac = _grid_sin_factor(n)
    log_t = _grid_log_weights_t(n)
    S = np.empty((n, n), order="F")
    kp = np.empty((n, n))
    step = min(n, max(1, _ASSEMBLY_BLOCK // n))
    r2_buf = np.empty((step, n))
    for i0 in range(0, n, step):
        rows = slice(i0, min(i0 + step, n))
        r2 = r2_buf[:rows.stop - i0]
        # the block's rows of S^T serve as scratch until S is formed in them
        sb = S.T[rows]
        # kp = dx nx + dy ny and r2 = dx^2 + dy^2 (IEEE addition commutes,
        # so the order of the two terms does not change a bit)
        np.subtract(y[rows, None], y[None, :], out=r2)
        kb = np.multiply(r2, ny[rows, None], out=kp[rows])
        r2 *= r2
        np.subtract(x[rows, None], x[None, :], out=sb)
        sb *= nx[rows, None]
        kb += sb
        np.subtract(x[rows, None], x[None, :], out=sb)
        r2 += np.multiply(sb, sb, out=sb)
        # a block's diagonal entries start at column i0
        np.fill_diagonal(r2[:, i0:], 1.0)
        np.negative(kb, out=kb)
        kb /= np.multiply(TWO_PI, r2, out=sb)
        np.fill_diagonal(kb[:, i0:], -curve.kappa[rows] / (2.0 * TWO_PI))
        kb *= w[None, :]

        # row j of S^T is column j of S: -(1/2 pi) w_j times
        # log(|x_i - x_j| / |2 sin((t_i - t_j)/2)|), plus the log|2 sin| part
        np.sqrt(r2, out=sb)
        sb /= sin_fac[rows]
        np.log(sb, out=sb)
        np.negative(sb, out=sb)
        sb /= TWO_PI
        np.fill_diagonal(sb[:, i0:], -np.log(speed[rows]) / TWO_PI)
        sb *= w[rows, None]
        sb += np.multiply(log_t[rows], speed[rows, None], out=r2)
    return S, kp


class BoundaryOperators:
    """All dense boundary operators for one curve, factored once.

    Construction assembles the single-layer matrix S and the Neumann jump
    matrix K' (on the internally rescaled curve when the capacity guard
    triggers) and LU-factors S in its own buffer: a bundle holds two n x n
    arrays, the LU factors and K'.  ``single_layer_matrix`` reassembles S
    on request.  The Dirichlet-to-Neumann matrix is formed lazily, on first
    use, from one transposed solve of the factorization against
    (K' + I/2)^T in K''s buffer; the factors are then released, so a bundle
    whose DtN matrix is built holds that one n x n array, and
    ``solve_dirichlet`` and ``neumann_trace`` raise ``RuntimeError``.
    """

    def __init__(self, curve):
        self.curve = curve
        cap = log_capacity_estimate(curve)
        self.capacity_estimate = cap
        self.scale = RESCALE_FACTOR if 0.5 < cap < 2.0 else 1.0
        self._work = curve if self.scale == 1.0 else curve.scaled(self.scale)
        S, self._neumann_jump = assemble_operators(self._work)
        # the 1-norm without an n x n temporary; S is Fortran-ordered, so
        # getrf factors it in place and S is not kept (--dump-operators
        # reassembles it)
        anorm = scipy.linalg.lapack.dlange("1", S)
        # no finiteness check (it would allocate an n x n bool array): a
        # non-finite S gives a non-finite or zero rcond, refused below
        self._lu = scipy.linalg.lu_factor(S, overwrite_a=True,
                                          check_finite=False)
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

    def _check_factors(self):
        if self._lu is None:
            raise RuntimeError(
                "the LU factors and K' were released when the DtN matrix was "
                "built; construct a new BoundaryOperators to solve on this "
                "curve")

    def solve_dirichlet(self, data):
        """Density whose single-layer potential matches the boundary data,
        as a read-only array on the solver's (possibly rescaled) grid."""
        self._check_factors()
        data = np.asarray(data, dtype=float)
        if data.shape != (self.n,):
            raise GeometryError("boundary data must live on the curve grid")
        sigma = scipy.linalg.lu_solve(self._lu, data, check_finite=False)
        sigma.setflags(write=False)
        return sigma

    def neumann_trace(self, sigma):
        """Interior normal derivative of the density's potential, on the
        original curve (the chain rule restores the internal scale)."""
        self._check_factors()
        return self.scale * (self._neumann_jump @ sigma + 0.5 * sigma)

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
        factorization gives L without forming S^-1.  K' is C-ordered, so its
        transpose is the Fortran-order right-hand side the solve overwrites,
        and L ends up in K''s buffer.  Nothing reads the LU factors or K'
        after this, so they are released: ``solve_dirichlet`` and
        ``neumann_trace`` raise ``RuntimeError`` from then on.  L is
        returned read-only, since every later reader of the state sees the
        same array.
        """
        if self._dtn is None:
            rhs = self._neumann_jump.T
            rhs[np.diag_indices(self.n)] += 0.5
            dtn = scipy.linalg.lu_solve(self._lu, rhs, trans=1,
                                        overwrite_b=True,
                                        check_finite=False).T
            dtn *= self.scale
            dtn.setflags(write=False)
            self._dtn = dtn
            self._lu = self._neumann_jump = None
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
    one once its DtN matrix is built (and then no longer able to solve), so
    prefer constructing ``BoundaryOperators`` directly.
    """
    return BoundaryOperators(curve)

"""Blur-kernel estimation from gradient statistics projected onto the
null-side basis, plus surface-regularized shape optimization of the
spectrum coefficients.

The kernel estimate is h = sum_j v_j * W_j where W_j are the squared
null-basis grids; the coefficients come from the diagonal of two K x K
projections of the image-gradient statistics (a cross-flipped correlation
matrix and an averaged-shift matrix).  Optimization re-solves a small
K x K system per iteration, trading data fidelity against the surface
area of the kernel.
"""

from __future__ import annotations

import numpy as np

from .config import STOP_GATE, OptimizerConfig, RunReport, gated_iterate
from .errors import DegenerateKernelError, DimensionError
from .grid import KERNEL_SUM_TOL, gradient, normalize_kernel, window_gram
from .nullspace import CnsBasis


def _shift_average_matrix(field: np.ndarray, l: int, m: int) -> np.ndarray:
    """Matrix of mean field values over all mutual shifts: entry
    ((i,lc),(j,mc)) is the mean of field[i+j+k+1, lc+mc+n+1] over the
    (rows-2l) x (cols-2m) position grid."""
    rows, cols = field.shape
    kx, ky = rows - 2 * l, cols - 2 * m
    # box sums over rows a+1 .. a+kx for every a < 2l-1: one band sum, then
    # the band slid one row at a time; then the same along the columns
    band = np.empty((2 * l - 1, cols))
    band[0] = field[1:1 + kx].sum(axis=0)
    for a in range(1, 2 * l - 1):
        band[a] = band[a - 1] + (field[a + kx] - field[a])
    box = np.empty((2 * l - 1, 2 * m - 1))
    box[:, 0] = band[:, 1:1 + ky].sum(axis=1)
    for b in range(1, 2 * m - 1):
        box[:, b] = box[:, b - 1] + (band[:, b + ky] - band[:, b])
    t2 = box / (kx * ky)
    ii = np.repeat(np.arange(l), m)
    ll = np.tile(np.arange(m), l)
    return t2[ii[:, None] + ii[None, :], ll[:, None] + ll[None, :]]


def gradient_moments(image, l: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The image-only half of :func:`gradient_stats` for an l x m kernel:
    (window Gram, shift-average matrix) of the gradient field, both
    (l*m) x (l*m).  It reads no basis, so it can run beside the model fit."""
    img = np.asarray(image, dtype=np.float64)
    if img.shape[0] < 2 * l + 1 or img.shape[1] < 2 * m + 1:
        raise DimensionError(
            f"image {img.shape} too small for {l}x{m} gradient statistics")
    grad = gradient(img)
    # window positions limited to (rows-l) x (cols-m), as in the
    # extended-matrix layout
    return window_gram(grad[:-1, :-1], l, m), _shift_average_matrix(grad, l, m)


def gradient_stats(image, basis: CnsBasis,
                   moments: tuple[np.ndarray, np.ndarray] | None = None
                   ) -> np.ndarray:
    """The K spectrum coefficients: the signed square root of
    diag(V^T (Gram . J) V) + diag(V^T S V)^2, with V the null vectors and
    S the shift-average matrix of the gradient field (sign(0) is +1).
    ``moments`` is ``gradient_moments(image, basis.l, basis.m)``, computed
    here when not given."""
    if moments is None:
        moments = gradient_moments(image, basis.l, basis.m)
    gram, shift_average = moments
    cross = gram[:, ::-1]                      # columns reversed: Gram . J
    v_ns = basis.null_vectors
    d = (np.diag(v_ns.T @ cross @ v_ns)
         + np.diag(v_ns.T @ shift_average @ v_ns) ** 2)
    return np.where(d < 0, -1.0, 1.0) * np.sqrt(np.abs(d))


def estimate_psf(coeffs: np.ndarray, basis: CnsBasis) -> np.ndarray:
    """Assemble the normalized kernel from the spectrum coefficients."""
    if len(coeffs) != basis.null_dim:
        raise DimensionError(
            f"{len(coeffs)} coefficients != basis K {basis.null_dim}")
    flat = basis.squared_flat @ coeffs
    return normalize_kernel(flat.reshape(basis.l, basis.m))


def lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """numpy's minimum-norm least-squares solution of a x = b, or
    DegenerateKernelError when LAPACK's SVD does not converge."""
    try:
        return np.linalg.lstsq(a, b)[0]
    except np.linalg.LinAlgError as exc:
        raise DegenerateKernelError(
            f"least-squares solve failed: {exc}") from exc


def basis_derivative_products(basis: CnsBasis) -> tuple[np.ndarray, np.ndarray]:
    """(l*m, K) matrices of Vx*V and Vy*V for each null vector: the
    half-derivatives of the squared grids (replicate central differences)."""
    n, k = basis.l * basis.m, basis.null_dim
    grids = basis.null_vectors.T.reshape(k, basis.l, basis.m)
    p = np.pad(grids, ((0, 0), (1, 1), (1, 1)), mode="edge")
    dx = 0.5 * (p[:, 2:, 1:-1] - p[:, :-2, 1:-1]) * grids
    dy = 0.5 * (p[:, 1:-1, 2:] - p[:, 1:-1, :-2]) * grids
    # row-major like the per-vector columns were: BLAS rounds a product
    # with a transposed operand differently
    return (np.ascontiguousarray(dx.reshape(k, n).T),
            np.ascontiguousarray(dy.reshape(k, n).T))


def surface_penalty_matrix(v: np.ndarray, dx: np.ndarray, dy: np.ndarray
                           ) -> np.ndarray:
    """K x K matrix of the linearized surface-area term at spectrum v:
    sum over taps of the derivative products weighted by the inverse local
    surface element sqrt(1 + hx^2 + hy^2)."""
    gx = dx @ v
    gy = dy @ v
    den = np.sqrt(1.0 + 4.0 * gx * gx + 4.0 * gy * gy)
    w = 1.0 / den
    return (dx * w[:, None]).T @ dx + (dy * w[:, None]).T @ dy


def iterate_spectrum(h: np.ndarray, basis: CnsBasis, system_gram: np.ndarray,
                     anchor: np.ndarray, cfg: OptimizerConfig
                     ) -> tuple[np.ndarray, RunReport]:
    """Surface-penalty smoothing of a kernel in the spectrum space of the
    squared null-basis grids, shared by the spectral kernel optimizers.

    Starts from the least-squares spectrum of ``h``, fitted on the folded
    taps (:attr:`CnsBasis.fold`), and per step solves
    (system_gram + 2*lambda*penalty(v)) v_next = anchor, renormalizing the
    kernel each time; the weight is gated by :func:`gated_iterate` on the
    summed squared tap change.  If no weight passes, ``h`` is returned
    with the gate-failed report.
    """
    squared = basis.squared_flat
    dx, dy = basis_derivative_products(basis)

    def step(state, lam):
        v, flat = state
        system = system_gram + 2.0 * lam * surface_penalty_matrix(v, dx, dy)
        try:
            v_new = np.linalg.solve(system, anchor)
        except np.linalg.LinAlgError:
            return None
        flat_new = squared @ v_new
        s = float(flat_new.sum())
        if abs(s) <= KERNEL_SUM_TOL or not np.all(np.isfinite(flat_new)):
            return None
        flat_new /= s
        return (v_new / s, flat_new), float(np.sum((flat_new - flat) ** 2))

    fold = basis.fold
    v0 = lstsq(fold @ squared, fold @ h.ravel())
    (_, flat), report = gated_iterate((v0, squared @ v0), step, cfg)
    if report.stop_reason == STOP_GATE:
        return h, report
    return flat.reshape(basis.l, basis.m), report


def optimize_psf(h0, basis: CnsBasis, cfg: OptimizerConfig | None = None
                 ) -> tuple[np.ndarray, RunReport]:
    """Smooth the kernel estimate in its spectrum space.

    Each step solves the K x K system with data term Gram(W)^2 and the
    surface penalty, then reassembles and renormalizes the kernel.  Stops
    when the summed squared tap change drops below cfg.eps.
    """
    cfg = cfg or OptimizerConfig()
    h = normalize_kernel(h0)
    if h.shape != (basis.l, basis.m):
        raise DimensionError(
            f"kernel {h.shape} does not match basis {(basis.l, basis.m)}")
    squared = basis.squared_flat
    # data term: projections of the estimate being smoothed
    return iterate_spectrum(h, basis, squared.T @ squared,
                            squared.T @ h.ravel(), cfg)

"""Blur-kernel estimation from gradient statistics projected onto the
null-side basis, plus surface-regularized shape optimization of the
spectrum coefficients.

The kernel estimate is h = sum_j v_j * W_j where W_j are the squared
null-basis grids; the coefficients come from the diagonal of two K x K
projections of the image-gradient statistics (a cross-flipped correlation
matrix and an averaged-shift matrix).  Optimization re-solves a small
K x K system per iteration, trading data fidelity against the surface
area of the kernel.  Every null vector is exactly even or odd under the
180-degree rotation of the tap grid, so the derivative maps of the
squared grids are exactly odd, and the surface penalty is computed from
their first ceil(l*m/2) rows.
"""

from __future__ import annotations

import numpy as np

from .config import STOP_GATE, OptimizerConfig, RunReport, gated_iterate
from .errors import DegenerateKernelError, DimensionError
from .grid import (KERNEL_SUM_TOL, fold, gradient, normalize_kernel,
                   region_with_halo, statistics_region, window_gram)
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
    # gathered through (l, 1, l, 1) and (1, m, 1, m) index grids: two
    # (l*m)^2 index matrices took twice the result's memory
    i, k = np.arange(l), np.arange(m)
    return t2[(i[:, None] + i)[:, None, :, None],
              (k[:, None] + k)[None, :, None, :]].reshape(l * m, -1)


def gradient_moments(image, l: int, m: int, region=None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The image-only half of :func:`gradient_stats` for an l x m kernel:
    (window Gram, shift-average matrix) of the gradient field over
    ``region`` (top, left, rows, cols), both (l*m) x (l*m).  The gradient
    is taken with a one-pixel halo, so it is the whole image's gradient
    on the region; the default region is the image's
    :func:`nsdeblur.grid.statistics_region`, the one the model fit reads.
    It reads no basis, so it can run beside the model fit."""
    img = np.asarray(image, dtype=np.float64)
    if img.shape[0] < 2 * l + 1 or img.shape[1] < 2 * m + 1:
        raise DimensionError(
            f"image {img.shape} too small for {l}x{m} gradient statistics")
    if region is None:
        region = statistics_region(img)
    view, inner = region_with_halo(img, region, (1, 1))
    if region[2] < 2 * l + 1 or region[3] < 2 * m + 1:
        raise DimensionError(
            f"region {region} too small for {l}x{m} gradient statistics")
    grad = gradient(view)[inner]
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
    here when not given, over the image's one statistics region.  Moments
    that are not (l*m) x (l*m) for the basis raise DimensionError."""
    if moments is None:
        moments = gradient_moments(image, basis.l, basis.m)
    gram, shift_average = moments
    n = basis.l * basis.m
    if not np.shape(gram) == np.shape(shift_average) == (n, n):
        raise DimensionError(f"moments are not {n} x {n}, as basis "
                             f"{(basis.l, basis.m)} needs")
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
    """(ceil(l*m/2), K) maps to the x and y derivatives of the squared
    grids on the first ceil(l*m/2) taps: each null vector V times its
    replicate central full difference.  V is exactly even or odd, so the
    map on the full grid is exactly odd: its row l*m-1-t is minus row t and
    its centre row is zero, and :func:`surface_penalty_matrix` needs only
    these rows."""
    n, k = basis.l * basis.m, basis.null_dim
    grids = basis.null_vectors.T.reshape(k, basis.l, basis.m)
    p = np.pad(grids, ((0, 0), (1, 1), (1, 1)), mode="edge")
    dx = (p[:, 2:, 1:-1] - p[:, :-2, 1:-1]) * grids
    dy = (p[:, 1:-1, 2:] - p[:, 1:-1, :-2]) * grids
    half = (n + 1) // 2
    # row-major like the per-vector columns were: BLAS rounds a product
    # with a transposed operand differently
    return (np.ascontiguousarray(dx.reshape(k, n)[:, :half].T),
            np.ascontiguousarray(dy.reshape(k, n)[:, :half].T))


def surface_penalty_matrix(v: np.ndarray, dx: np.ndarray, dy: np.ndarray
                           ) -> np.ndarray:
    """Lagged-diffusivity matrix of the surface area at coefficients v,
    Dx^T W Dx + Dy^T W Dy with W = (1 + hx^2 + hy^2)^(-1/2) at the taps
    (Vogel & Oman, SIAM J. Sci. Comput. 17, 1996); the one penalty of
    every kernel optimizer.  ``dx`` and ``dy`` are the first ceil(n/2)
    rows of maps from v to hx and hy on an n-tap grid whose row n-1-t is
    minus row t, and whose centre row is zero for an odd n, so the sum
    over all n taps is twice the sum over these rows."""
    gx = dx @ v
    gy = dy @ v
    w = 2.0 / np.sqrt(1.0 + gx * gx + gy * gy)
    return (dx * w[:, None]).T @ dx + (dy * w[:, None]).T @ dy


def iterate_spectrum(h: np.ndarray, basis: CnsBasis, system_gram: np.ndarray,
                     anchor: np.ndarray, cfg: OptimizerConfig
                     ) -> tuple[np.ndarray, RunReport]:
    """Surface-penalty smoothing of a kernel in the spectrum space of the
    squared null-basis grids, shared by the spectral kernel optimizers.

    Starts from the least-squares spectrum of ``h``, fitted on the even
    fold of the taps (:func:`nsdeblur.grid.fold`, no dense fold), which
    keeps the minimizer: the squared grids are exactly centrosymmetric.
    Per step it solves
    (system_gram + lambda/2 * penalty(v)) v_next = anchor, renormalizing the
    kernel each time; the weight is gated by :func:`gated_iterate` on the
    summed squared tap change.  If no weight passes, ``h`` is returned
    with the gate-failed report.
    """
    squared = basis.squared_flat
    dx, dy = basis_derivative_products(basis)

    def step(state, lam):
        v, flat = state
        system = system_gram + 0.5 * lam * surface_penalty_matrix(v, dx, dy)
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

    v0 = lstsq(fold(squared), fold(h.ravel()))
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

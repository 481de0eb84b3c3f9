"""Inverse-kernel synthesis, two ways.

Spectral route: expand the inverse kernel in the same squared null-basis
grids as the forward kernel and solve for the spectrum that makes the
full convolution with the forward kernel a centered delta.  Space route:
refit the inverse directly against the image, with a re-degraded copy of
it as the regression input.  Either shape can then be smoothed by one
surface-area penalty matrix (:func:`nsdeblur.psf.surface_penalty_matrix`),
in the K-dim spectrum or on the folded tap grid.  Every inverse is
centrosymmetric, as the squared grids are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import OptimizerConfig, RunReport, check_setting, gated_iterate
from .errors import DegenerateKernelError, DimensionError
from .grid import (as_image, as_kernel, convolve, correlation_lags, fold,
                   fold_gram, full_convolutions, normalize_kernel,
                   region_with_halo, statistics_region, unfold, window_gram)
from .nullspace import CnsBasis
from .psf import iterate_spectrum, lstsq, surface_penalty_matrix

#: Ridge of the space-route system, relative to trace/rows of its window
#: statistics.
SPACE_RIDGE = 1e-8


def ipsf_spectral(h, basis: CnsBasis) -> np.ndarray:
    """Inverse kernel in the null-basis expansion.

    Least-squares kernel g, in the span of the squared grids, whose full
    convolution with h is a delta at the center of the full-convolution
    grid, normalized to unit tap sum.  K >= ceil(l*m/2) grids span every
    centrosymmetric grid, so g is then sought over the orthonormal basis
    of them that unfolds the even fold (:func:`nsdeblur.grid.unfold`);
    the delta rows stay unfolded, so any h is fitted.
    """
    hk = as_kernel(h)
    if hk.shape != (basis.l, basis.m):
        raise DimensionError(
            f"kernel {hk.shape} does not match basis {(basis.l, basis.m)}")
    # the grids g is sought over, as rows
    half = (hk.size + 1) // 2
    span = (unfold(np.eye(half), hk.size) if basis.null_dim >= half
            else basis.squared_basis.reshape(-1, hk.size))
    m0 = full_convolutions(span.reshape(-1, *hk.shape), hk)
    target = np.zeros(m0.shape[1])
    target[m0.shape[1] // 2] = 1.0
    flat = span.T @ lstsq(m0.T, target)
    return normalize_kernel(flat.reshape(basis.l, basis.m))


def optimize_ipsf_spectral(g0, h, basis: CnsBasis,
                           cfg: OptimizerConfig | None = None
                           ) -> tuple[np.ndarray, RunReport]:
    """Surface-penalty smoothing of the spectral inverse kernel: per step
    solve the K x K system with the delta-matching data term, renormalize,
    gate and stop exactly as the forward-kernel optimizer."""
    cfg = cfg or OptimizerConfig()
    g, hk = normalize_kernel(g0), as_kernel(h)
    if not g.shape == hk.shape == (basis.l, basis.m):
        raise DimensionError(f"kernels {g.shape} and {hk.shape} do not "
                             f"match basis {(basis.l, basis.m)}")
    m0 = full_convolutions(basis.squared_basis, hk)
    return iterate_spectrum(g, basis, m0 @ m0.T,
                            m0[:, m0.shape[1] // 2], cfg)


@dataclass(frozen=True)
class SpaceSystem:
    """Space-route regression system on the even fold Q of the wl x wm tap
    grid (:func:`nsdeblur.grid.fold`), its ridge already on the diagonal.
    Both arrays are read-only, so one system can serve several solves."""

    ryy: np.ndarray     # Q (window statistics + ridge * I) Q^T
    ryx: np.ndarray     # Q (products with the window centers)
    ridge: float        # the ridge on the diagonal, always > 0
    wl: int
    wm: int


def space_system(image, h, ridge_relative: float = SPACE_RIDGE,
                 region=None) -> SpaceSystem:
    """Build and fold the space-route system once, for the primary solve
    and the optimizer alike; the one place its ridge is chosen.

    The system holds the accumulated products of re-degraded-image windows
    against the original's window centers, over ``region`` (top, left,
    rows, cols), by default the image's
    :func:`nsdeblur.grid.statistics_region` for the (2l-1) x (2m-1)
    window.  The region is re-degraded with a halo of the kernel's radius,
    so it holds the whole image's re-degraded values, to rounding.  Its
    ridge is ``ridge_relative``
    (finite and > 0) times trace/rows of the window statistics, so the
    fitted taps do not depend on the image's scale.  It goes on the
    diagonal in place: ``ryy + ridge * I`` bit for bit.  Only the fold
    (:func:`nsdeblur.grid.fold_gram`) is kept, taken once the region's
    arrays are released.  A system with
    zero trace (an all-zero image) has no usable ridge and raises
    DegenerateKernelError.
    """
    check_setting("ridge_relative", ridge_relative, 0, above=True)
    x = as_image(image)
    hk = as_kernel(h)
    l, m = hk.shape
    wl, wm = 2 * l - 1, 2 * m - 1
    if region is None:
        region = statistics_region(x, wl, wm)
    if region[2] < 4 * l or region[3] < 4 * m:
        raise DimensionError(
            f"region {region} of image {x.shape} too small for a {l}x{m} "
            "space-route inverse")
    view, inner = region_with_halo(x, region, (l // 2, m // 2))
    y = convolve(view, hk)[inner]
    ni, nk = y.shape[0] - wl + 1, y.shape[1] - wm + 1
    centers = view[inner][l - 1:l - 1 + ni, m - 1:m - 1 + nk]
    # ryx[a, b] = sum_{i,k} centers[i, k] y[i+a, k+b]
    ryx = correlation_lags(centers, y, rows=wl)[:, :wm].ravel()
    ryy = window_gram(y, wl, wm)
    del view, x, y, centers
    n, trace = ryy.shape[0], float(np.trace(ryy))
    if not trace > 0.0:
        raise DegenerateKernelError(
            "space-route system has zero trace: all-zero image")
    ridge = ridge_relative * trace / n
    ryy.flat[::n + 1] += ridge
    ryy, ryx = fold_gram(ryy), fold(ryx)
    ryy.flags.writeable = ryx.flags.writeable = False
    return SpaceSystem(ryy=ryy, ryx=ryx, ridge=ridge, wl=wl, wm=wm)


def ipsf_space(image, h, system: SpaceSystem | None = None) -> np.ndarray:
    """Space-domain inverse kernel on the (2l-1) x (2m-1) grid.

    Degrades the observed image once more with h, then fits the
    centrosymmetric taps, g[i, k] = g[wl-1-i, wm-1-k], that map
    re-degraded windows back to the observed centers: g = Q^T z for the
    orthonormal even fold Q of the taps, with z one LU solve of the
    folded normal equations Q R_YY Q^T z = Q r_YX, the system as
    :func:`space_system` folded it, ceil(wl*wm/2) unknowns, on which the
    ridge * I is the same penalty ridge * ||g||^2.  ``system``, the
    :func:`space_system` of (image, h) that carries the ridge, skips the
    build; without it the default ridge applies.  A system built for
    another kernel size raises DimensionError.
    """
    system = _system_for(image, h, system)
    z = np.linalg.solve(system.ryy, system.ryx)
    return unfold(z, system.wl * system.wm).reshape(system.wl, system.wm)


def _system_for(image, h, system: SpaceSystem | None) -> SpaceSystem:
    """``system`` if it was built for h's size, else DimensionError; the
    :func:`space_system` of (image, h) when none is given."""
    if system is None:
        return space_system(image, h)
    l, m = as_kernel(h).shape
    if (system.wl, system.wm) != (2 * l - 1, 2 * m - 1):
        raise DimensionError(f"system {(system.wl, system.wm)} was built "
                             f"for another kernel than {(l, m)}")
    return system


def difference_maps(wl: int, wm: int) -> tuple[np.ndarray, np.ndarray]:
    """(ceil(wl*wm/2), ceil(wl*wm/2)) derivative maps along x and y from
    the folded taps z to the first ceil(wl*wm/2) taps: np.gradient of
    each grid Q^T e_j of the unfolded even fold
    (:func:`nsdeblur.grid.unfold`); an axis one tap long has none.  The
    gradient of a centrosymmetric grid is exactly odd, so the other rows
    are these negated, and the centre row is zero."""
    n = wl * wm
    half = (n + 1) // 2
    grids = unfold(np.eye(half), n).reshape(-1, wl, wm)
    return tuple((np.gradient(grids, axis=axis) if grids.shape[axis] > 1
                  else np.zeros_like(grids)).reshape(half, n)[:, :half].T
                 for axis in (1, 2))


def optimize_ipsf_space(g0, image, h, cfg: OptimizerConfig | None = None,
                        system: SpaceSystem | None = None
                        ) -> tuple[np.ndarray, RunReport]:
    """Surface-regularized refinement of the space-route inverse over
    centrosymmetric taps g = Q^T z, from the fold z = Q g0, the fold of
    g0's centrosymmetric part.  Each step solves
    (Q R_YY Q^T + lambda * P(z)) z_next = Q r_YX on the system as
    :func:`space_system` folded it, with R_YY carrying the system's ridge
    and P the spectral optimizers'
    :func:`nsdeblur.psf.surface_penalty_matrix` on the
    :func:`difference_maps`; ``system`` is as in :func:`ipsf_space`.
    Q^T has orthonormal columns, so the gate reads the summed squared tap
    change as sum (z_next - z)^2.  The weight is gated and halved as in
    the spectral optimizers; if no weight passes, the start is returned
    with a gate-failed report."""
    cfg = cfg or OptimizerConfig()
    g_init = as_image(g0)          # (2l-1) x (2m-1) tap grid, any sign
    system = _system_for(image, h, system)
    wl, wm, ryy, ryx = system.wl, system.wm, system.ryy, system.ryx
    if g_init.shape != (wl, wm):
        raise DimensionError(
            f"initial taps {g_init.shape} do not match system {(wl, wm)}")
    dx, dy = difference_maps(wl, wm)

    def step(z, lam):
        try:
            z_new = np.linalg.solve(
                ryy + lam * surface_penalty_matrix(z, dx, dy), ryx)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(z_new)):
            return None
        return z_new, float(np.sum((z_new - z) ** 2))

    z, report = gated_iterate(fold(g_init.ravel()), step, cfg)
    return unfold(z, wl * wm).reshape(wl, wm), report

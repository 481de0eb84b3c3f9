"""Inverse-kernel synthesis, two ways.

Spectral route: expand the inverse kernel in the same squared null-basis
grids as the forward kernel and solve for the spectrum that makes the
full convolution with the forward kernel a centered delta.  Space route:
refit the inverse directly against the image, using a re-degraded copy of
the observed image as the regression input.  Both shapes can then be
smoothed by the surface-area penalty, the spectral one in its K-dim
spectrum space and the space one through the full tap-grid system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import OptimizerConfig, RunReport, check_setting, gated_iterate
from .errors import DegenerateKernelError, DimensionError
from .grid import (as_image, as_kernel, convolve, correlation_lags,
                   normalize_kernel, shifted_taps, window_gram)
from .nullspace import CnsBasis
from .psf import iterate_spectrum, lstsq

#: Ridge of the space-route system, relative to trace/rows of its window
#: statistics.
SPACE_RIDGE = 1e-8


def ipsf_spectral(h, basis: CnsBasis) -> np.ndarray:
    """Inverse kernel in the null-basis expansion.

    Least-squares kernel g, in the span of the squared grids, whose full
    convolution with h is a delta at the center of the full-convolution
    grid, normalized to unit tap sum.  K >= ceil(l*m/2) grids span every
    centrosymmetric grid, so g is then sought over the fold's basis of
    them; the delta rows stay unfolded, so any h is fitted.
    """
    hk = as_kernel(h)
    if hk.shape != (basis.l, basis.m):
        raise DimensionError(
            f"kernel {hk.shape} does not match basis {(basis.l, basis.m)}")
    fold = basis.fold
    span = fold.T if basis.null_dim >= fold.shape[0] else basis.squared_flat
    # full convolution of each column of span with h, on the (2l-1) x (2m-1)
    # grid whose centre, N // 2 of its N taps, the delta takes
    m0 = span.T @ shifted_taps(hk, *hk.shape)
    target = np.zeros(m0.shape[1])
    target[m0.shape[1] // 2] = 1.0
    flat = span @ lstsq(m0.T, target)
    return normalize_kernel(flat.reshape(basis.l, basis.m))


def optimize_ipsf_spectral(g0, h, basis: CnsBasis,
                           cfg: OptimizerConfig | None = None
                           ) -> tuple[np.ndarray, RunReport]:
    """Surface-penalty smoothing of the spectral inverse kernel: per step
    solve the K x K system with the delta-matching data term, renormalize,
    gate and stop exactly as the forward-kernel optimizer."""
    cfg = cfg or OptimizerConfig()
    g = normalize_kernel(g0)
    if g.shape != (basis.l, basis.m):
        raise DimensionError(
            f"kernel {g.shape} does not match basis {(basis.l, basis.m)}")
    hk = as_kernel(h)
    m0 = basis.squared_flat.T @ shifted_taps(hk, *hk.shape)
    return iterate_spectrum(g, basis, m0 @ m0.T,
                            m0[:, m0.shape[1] // 2], cfg)


@dataclass(frozen=True)
class SpaceSystem:
    """Space-route regression system on the wl x wm tap grid, with its
    stabilizing ridge already on the diagonal of ``ryy``.  Both arrays are
    read-only, so one system can serve several solves."""

    ryy: np.ndarray     # (wl*wm, wl*wm) window statistics + ridge * I
    ryx: np.ndarray     # (wl*wm,) products with the window centers
    ridge: float        # the ridge on the diagonal, always > 0
    wl: int
    wm: int


def space_system(image, h, ridge_relative: float = SPACE_RIDGE
                 ) -> SpaceSystem:
    """Build the space-route system once, for the primary solve and the
    optimizer alike; the one place its ridge is chosen.

    The system holds the accumulated products of re-degraded-image windows
    against the original's window centers.  Its ridge is ``ridge_relative``
    (finite and > 0) times trace/rows of the window statistics, so the
    fitted taps do not depend on the image's scale.  It goes on the
    diagonal in place: ``ryy + ridge * I`` bit for bit.  A system with
    zero trace (an all-zero image) has no usable ridge and raises
    DegenerateKernelError.
    """
    check_setting("ridge_relative", ridge_relative, 0, above=True)
    x = as_image(image)
    hk = as_kernel(h)
    l, m = hk.shape
    wl, wm = 2 * l - 1, 2 * m - 1
    if x.shape[0] < 4 * l or x.shape[1] < 4 * m:
        raise DimensionError(
            f"image {x.shape} too small for a {l}x{m} space-route inverse")
    y = convolve(x, hk)
    ni, nk = y.shape[0] - wl + 1, y.shape[1] - wm + 1
    centers = x[l - 1:l - 1 + ni, m - 1:m - 1 + nk]
    # ryx[a, b] = sum_{i,k} centers[i, k] y[i+a, k+b]
    ryx = correlation_lags(centers, y, rows=wl)[:, :wm].ravel()
    ryy = window_gram(y, wl, wm)
    n, trace = ryy.shape[0], float(np.trace(ryy))
    if not trace > 0.0:
        raise DegenerateKernelError(
            "space-route system has zero trace: all-zero image")
    ridge = ridge_relative * trace / n
    ryy.flat[::n + 1] += ridge
    ryy.flags.writeable = ryx.flags.writeable = False
    return SpaceSystem(ryy=ryy, ryx=ryx, ridge=ridge, wl=wl, wm=wm)


def ipsf_space(image, h, system: SpaceSystem | None = None) -> np.ndarray:
    """Space-domain inverse kernel on the (2l-1) x (2m-1) grid.

    Degrades the observed image once more with h, then fits the taps that
    map re-degraded windows back to the observed centers by one LU solve
    of the ridged normal equations.  ``system``, the :func:`space_system`
    of (image, h) that carries the ridge, skips the build; without it the
    default ridge applies.
    """
    system = system or space_system(image, h)
    g = np.linalg.solve(system.ryy, system.ryx)
    return g.reshape(system.wl, system.wm)


def difference_operators(wl: int, wm: int) -> dict[str, np.ndarray]:
    """First/second/mixed difference matrices on the flattened wl x wm
    grid, matching the repeated central-difference scheme of the surface
    module (one-sided full differences at the outermost lines)."""
    eye_x, eye_y = np.eye(wl), np.eye(wm)
    # np.gradient of the identity is the matrix form of np.gradient; an
    # axis one tap long has no differences
    gx, gy = (np.gradient(e, axis=0) if len(e) > 1 else 0.0 * e
              for e in (eye_x, eye_y))
    # dx @ dx is kron(gx @ gx, I), and so on.  Every entry is a sum of at
    # most two dyadic products, so both forms are exact; + 0.0 turns the
    # -0.0 that kron makes of a negative tap times 0 into the products' 0
    return {"dx": np.kron(gx, eye_y), "dy": np.kron(eye_x, gy),
            "dxx": np.kron(gx @ gx, eye_y) + 0.0,
            "dyy": np.kron(eye_x, gy @ gy) + 0.0,
            "dxy": np.kron(gx, gy) + 0.0}


def curvature_system_matrix(g_flat: np.ndarray, ops: dict[str, np.ndarray]
                            ) -> np.ndarray:
    """Linearized surface-curvature operator at the current taps: the
    matrix whose product with g gives the pointwise curvature field."""
    gx = ops["dx"] @ g_flat
    gy = ops["dy"] @ g_flat
    w = (1.0 + gx * gx + gy * gy) ** -1.5
    lin = ((1.0 + gy * gy)[:, None] * ops["dxx"]
           + (1.0 + gx * gx)[:, None] * ops["dyy"]
           - 2.0 * (gx * gy)[:, None] * ops["dxy"])
    return w[:, None] * lin


def optimize_ipsf_space(g0, image, h, cfg: OptimizerConfig | None = None,
                        system: SpaceSystem | None = None
                        ) -> tuple[np.ndarray, RunReport]:
    """Surface-regularized refinement of the space-route inverse: per step
    solve (R_YY - lambda * curvature(g)) g_next = r_YX on the full tap
    grid, R_YY carrying the system's ridge.  ``system`` is as in
    :func:`ipsf_space`.  The weight is gated by the same leading-iteration
    contraction rule as the spectral optimizers and halved down to the
    floor; if no weight passes, g0 is returned with a gate-failed report."""
    cfg = cfg or OptimizerConfig()
    g_init = as_image(g0)          # (2l-1) x (2m-1) tap grid, any sign
    system = system or space_system(image, h)
    wl, wm = system.wl, system.wm
    if g_init.shape != (wl, wm):
        raise DimensionError(
            f"initial taps {g_init.shape} do not match system {(wl, wm)}")
    ops = difference_operators(wl, wm)

    def step(flat, lam):
        a = system.ryy - lam * curvature_system_matrix(flat, ops)
        try:
            flat_new = np.linalg.solve(a, system.ryx)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(flat_new)):
            return None
        return flat_new, float(np.sum((flat_new - flat) ** 2))

    flat, report = gated_iterate(g_init.ravel(), step, cfg)
    return flat.reshape(wl, wm), report

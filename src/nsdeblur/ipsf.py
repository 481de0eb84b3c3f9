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

import logging
from dataclasses import dataclass

import numpy as np

from .config import OptimizerConfig, RunReport, check_setting, gated_iterate
from .errors import DegenerateKernelError, DimensionError
from .grid import (as_image, as_kernel, convolve, correlation_lags,
                   normalize_kernel, shifted_taps, window_gram)
from .linalg import lstsq
from .nullspace import CnsBasis
from .psf import iterate_spectrum

_LOG = logging.getLogger("nsdeblur")


def _delta_index(l: int, m: int) -> int:
    """Center of the (2l-1) x (2m-1) full-convolution grid, row-major."""
    return (l - 1) * (2 * m - 1) + (m - 1)


def ipsf_spectral(h, basis: CnsBasis) -> np.ndarray:
    """Inverse kernel in the null-basis expansion.

    Solves (in least squares) for the spectrum u such that the kernel
    sum_j u_j W_j convolved with h equals a delta at the center of the
    full-convolution grid; the result is normalized to unit tap sum.
    """
    hk = as_kernel(h)
    if hk.shape != (basis.l, basis.m):
        raise DimensionError(
            f"kernel {hk.shape} does not match basis {(basis.l, basis.m)}")
    # (K, N): full convolution of each squared grid with h, N = (2l-1)(2m-1)
    m0 = basis.squared_flat.T @ shifted_taps(hk, *hk.shape)
    if np.abs(m0).max() <= 1e-300:
        raise DegenerateKernelError("inversion system has zero rank")
    target = np.zeros(m0.shape[1])
    target[_delta_index(basis.l, basis.m)] = 1.0
    u = lstsq(m0.T, target)
    flat = basis.squared_flat @ u
    s = float(flat.sum())
    if abs(s) <= 1e-12:
        raise DegenerateKernelError(
            "inverse kernel sums to zero; cannot normalize")
    return (flat / s).reshape(basis.l, basis.m)


def optimize_ipsf_spectral(g0, h, basis: CnsBasis,
                           cfg: OptimizerConfig | None = None
                           ) -> tuple[np.ndarray, RunReport]:
    """Surface-penalty smoothing of the spectral inverse kernel: per step
    solve the K x K system with the delta-matching data term, renormalize,
    gate and stop exactly as the forward-kernel optimizer."""
    cfg = cfg or OptimizerConfig()
    g = normalize_kernel(as_kernel(g0))
    if g.shape != (basis.l, basis.m):
        raise DimensionError(
            f"kernel {g.shape} does not match basis {(basis.l, basis.m)}")
    hk = as_kernel(h)
    m0 = basis.squared_flat.T @ shifted_taps(hk, *hk.shape)
    return iterate_spectrum(g, basis, m0 @ m0.T,
                            m0[:, _delta_index(basis.l, basis.m)], cfg)


def _space_system(image: np.ndarray, h: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Regression system for the space-route inverse: accumulated products
    of re-degraded-image windows against the original's window centers."""
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
    return window_gram(y, wl, wm), ryx, wl, wm


@dataclass(frozen=True)
class SpaceSystem:
    """Space-route regression system on the wl x wm tap grid, with its
    stabilizing ridge already on the diagonal of ``ryy``.  Both arrays are
    read-only, so one system can serve several solves."""

    ryy: np.ndarray     # (wl*wm, wl*wm) window statistics + ridge * I
    ryx: np.ndarray     # (wl*wm,) products with the window centers
    ridge: float        # 0 when the system is solved by pseudo-inverse
    wl: int
    wm: int


def space_system(image, h, ridge: float = 0.0,
                 ridge_relative: float = 0.0) -> SpaceSystem:
    """Build the space-route system once, for the primary solve and the
    optimizer alike; the one place its ridge is chosen.

    The ridge is ``ridge_relative`` times trace/rows of the window
    statistics if that is > 0, else ``ridge`` (both finite and >= 0).  If
    both are 0, a near-singular system (relative eigenvalue below 1e-8)
    gets the default 1e-8 relative ridge, logged at INFO on the
    ``nsdeblur`` logger, and any other is solved by pseudo-inverse.  The
    ridge goes on the diagonal in place: ``ryy + ridge * I`` bit for bit.
    """
    check_setting("ridge", ridge, 0)
    check_setting("ridge_relative", ridge_relative, 0)
    ryy, ryx, wl, wm = _space_system(image, h)
    n = ryy.shape[0]
    if ridge_relative > 0.0:
        ridge = ridge_relative * float(np.trace(ryy)) / n
    if ridge == 0.0:
        eigvals = np.linalg.eigvalsh(ryy)
        if eigvals[0] <= 1e-8 * max(eigvals[-1], 1e-300):
            ridge = 1e-8 * float(np.trace(ryy)) / n
            _LOG.info("space-route system is near-singular; applying "
                      "default ridge %.3e", ridge)
    if ridge > 0.0:
        ryy.flat[::n + 1] += ridge
    ryy.flags.writeable = ryx.flags.writeable = False
    return SpaceSystem(ryy=ryy, ryx=ryx, ridge=ridge, wl=wl, wm=wm)


def ipsf_space(image, h, system: SpaceSystem | None = None) -> np.ndarray:
    """Space-domain inverse kernel on the (2l-1) x (2m-1) grid.

    Degrades the observed image once more with h, then least-squares fits
    the taps that map re-degraded windows back to the observed centers,
    by pseudo-inverse when the system has no ridge.  ``system``, the
    :func:`space_system` of (image, h) that carries the ridge, skips the
    build; without it the default ridge rule applies.
    """
    system = system or space_system(image, h)
    if system.ridge > 0.0:
        g = np.linalg.solve(system.ryy, system.ryx)
    else:
        g = np.linalg.pinv(system.ryy, rcond=1e-10) @ system.ryx
    return g.reshape(system.wl, system.wm)


def difference_operators(wl: int, wm: int) -> dict[str, np.ndarray]:
    """First/second/mixed difference matrices on the flattened wl x wm
    grid, matching the repeated central-difference scheme of the surface
    module (one-sided full differences at the outermost lines)."""
    eye_x, eye_y = np.eye(wl), np.eye(wm)
    # np.gradient of the identity is the matrix form of np.gradient
    gx, gy = np.gradient(eye_x, axis=0), np.gradient(eye_y, axis=0)
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

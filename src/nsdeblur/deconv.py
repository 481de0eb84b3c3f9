"""Image restoration: single-pass deconvolution, two regularized iterative
optimizers, and the high-order denoising prefilter.

The balanced-variation optimizer (BVDR) steps with a scalar regularization
weight that is re-derived every iteration from the current and previous
step statistics, so the weight rises while the estimate reorganizes and
then decays as it settles.  The curved-space optimizer (CS) weights the
curvature correction pointwise by the squared data residual over the local
metric determinant, giving each pixel its own effective weight.  Both stop
on a small mean-squared step, on a step increase (local minimum passed),
or at the iteration cap.
"""

from __future__ import annotations

import numpy as np

from .armodel import estimate_ar, build_operator
from .config import (STOP_CAP, STOP_EPS, STOP_GATE, STOP_INCREASE,
                     OptimizerConfig, RunReport, make_report)
from .errors import DeblurError
from .grid import as_image, as_kernel, convolve
from .ipsf import ipsf_space
from .nullspace import compute_cns
from .surface import curvature_operator, metric_determinant


def _mean_abs(a: np.ndarray) -> float:
    return float(np.mean(np.abs(a)))


def deconvolve_once(image, kernel) -> np.ndarray:
    """Primary estimate: one convolution with the inverse kernel."""
    return convolve(as_image(image), kernel, "replicate")


def _seed_weight(x, g, h, s0, reg0, reg_x, alpha: float) -> float:
    """Initial regularization weight from the image/first-estimate gap."""
    num = _mean_abs(convolve(s0 - x, h))
    den = alpha * _mean_abs(convolve(reg0, g))
    if not np.isfinite(den) or den <= 0.0:
        return np.nan
    arg = _mean_abs(convolve(reg0 - reg_x, g)) / den
    with np.errstate(over="ignore"):
        grow = np.expm1(arg)
    if not np.isfinite(grow) or grow <= 0.0:
        return np.nan
    return num / den / grow


def _update_weight(lam_prev, x, g, h, s, s_prev, reg, reg_prev, delta
                   ) -> float:
    """Dynamic weight recursion from consecutive step statistics."""
    den = delta * _mean_abs(convolve(reg, g))
    if not np.isfinite(den) or den <= 0.0:
        return np.nan
    grow = _mean_abs(convolve(s - s_prev, h)) / den
    decay = _mean_abs(convolve(np.abs(reg) - np.abs(reg_prev), g)) / den
    with np.errstate(over="ignore"):
        val = (lam_prev + grow) * np.exp(-decay)
    return float(val)


def _fallback_weight(x, g, h, s, s_prev, reg, reg_prev) -> float:
    """Steady-state weight: ratio of smoothed to excited variations."""
    den = _mean_abs(convolve(np.abs(reg) - np.abs(reg_prev), g))
    num = _mean_abs(convolve(s - s_prev, h))
    if num <= 0.0:
        return 0.0
    if not np.isfinite(den) or den <= 0.0:
        return np.nan
    return num / den


def bvdr_optimize(image, h, g, cfg: OptimizerConfig | None = None
                  ) -> tuple[np.ndarray, RunReport]:
    """Balanced-variation restoration with a dynamically updated weight.

    Starts from the single-pass estimate; each step adds the data residual
    and the weighted, inverse-kernel-smoothed regularization field.  The
    scalar weight is re-derived per iteration and falls back to the
    steady-state ratio when the recursion degenerates.
    """
    cfg = cfg or OptimizerConfig()
    x = as_image(image)
    hk = as_kernel(h)
    gk = as_kernel(g)
    s_prev = x
    s = convolve(x, gk)
    reg_prev = curvature_operator(s_prev)   # regularization field of the input
    reg = curvature_operator(s)
    lam = _seed_weight(x, gk, hk, s, reg, reg_prev, cfg.alpha)
    if not np.isfinite(lam):
        lam = _fallback_weight(x, gk, hk, s, s_prev, reg, reg_prev)

    residuals: list[float] = []
    lambdas: list[float] = []
    stop = STOP_CAP
    for k in range(cfg.max_iters):
        if k > 0:
            lam = _update_weight(lam, x, gk, hk, s, s_prev, reg, reg_prev,
                                 cfg.delta_t)
            if not np.isfinite(lam):
                lam = _fallback_weight(x, gk, hk, s, s_prev, reg, reg_prev)
            if not np.isfinite(lam):
                stop = STOP_GATE
                break
        # lambda0 is the configured maximum of the dynamic weight
        lam = min(max(lam, 0.0), cfg.lambda0)
        s_next = s + cfg.delta_t * (x - convolve(s, hk)
                                    + lam * convolve(reg, gk))
        if not np.all(np.isfinite(s_next)):
            stop = STOP_GATE
            break
        d = float(np.mean((s_next - s) ** 2))
        residuals.append(d)
        lambdas.append(lam)
        if len(residuals) >= 2 and d > residuals[-2]:
            stop = STOP_INCREASE       # keep the pre-increase image
            break
        s_prev, s = s, s_next
        reg_prev, reg = reg, curvature_operator(s)
        if d <= cfg.eps:
            stop = STOP_EPS
            break
    transition = int(np.argmax(lambdas)) if lambdas else 0
    report = make_report(residuals, lambdas, stop, transition_iter=transition)
    return s, report


def cs_optimize(image, h, g, cfg: OptimizerConfig | None = None
                ) -> tuple[np.ndarray, RunReport]:
    """Curved-space restoration: per-pixel weight surface.

    The curvature correction at each pixel is scaled by the squared data
    residual over twice the local metric determinant, then smoothed with
    the inverse kernel.  Returns the best-seen iterate when the step size
    turns back up (a local minimum was passed).
    """
    cfg = cfg or OptimizerConfig()
    x = as_image(image)
    hk = as_kernel(h)
    gk = as_kernel(g)
    s = convolve(x, gk)
    best = s
    best_d = np.inf
    residuals: list[float] = []
    lambdas: list[float] = []
    dt_bounds: list[float] = []
    data_residuals: list[float] = []
    sigma_means: list[float] = []
    stop = STOP_CAP
    for _ in range(cfg.max_iters):
        r = x - convolve(s, hk)
        sigma = metric_determinant(s)
        weight = r * r / (2.0 * sigma)
        curv = curvature_operator(s)
        s_next = s + cfg.delta_t * (r + convolve(weight * curv, gk))
        if not np.all(np.isfinite(s_next)):
            raise DeblurError("curved-space step produced non-finite pixels")
        d = float(np.mean((s_next - s) ** 2))
        curv_scale = _mean_abs(curv)
        dt_bounds.append(_mean_abs(s_next - s) / curv_scale
                         if curv_scale > 0 else 0.0)
        residuals.append(d)
        lambdas.append(float(np.mean(weight)))
        data_residuals.append(float(np.mean(r * r)))
        sigma_means.append(float(np.mean(sigma)))
        if d < best_d:
            best, best_d = s_next, d
        if len(residuals) >= 2 and d > residuals[-2]:
            stop = STOP_INCREASE
            s = best                    # best-seen iterate, not the last
            break
        s = s_next
        if d <= cfg.eps:
            stop = STOP_EPS
            break
    extras = {"dt_bound_trace": np.array(dt_bounds),
              "data_residual_trace": np.array(data_residuals),
              "sigma_mean_trace": np.array(sigma_means)}
    report = make_report(residuals, lambdas, stop, extras=extras)
    return s, report


def convergence_check(report: RunReport, theta: float = 1.0) -> bool:
    """True when every consecutive residual pair after the recorded
    transition contracts by at least ``theta``."""
    res = report.residual_trace
    if res.size < 2:
        raise ValueError("report must contain at least two residuals")
    for t in range(max(report.transition_iter, 0), res.size - 1):
        if res[t + 1] * theta > res[t]:
            return False
    return True


def denoise_prefilter(image, p: int = 33, q: int = 33, l: int = 17,
                      m: int = 17, ridge_scale: float = 1e-2
                      ) -> tuple[np.ndarray, np.ndarray]:
    """High-order single-vector prefilter: a linear two-sided filter that
    removes impulsive noise without extra smoothing.

    Fits a high-order model, keeps only the single smallest-eigenvalue
    basis vector (maximum assumed blur), builds the corresponding kernel
    and its space-domain inverse, and applies that inverse once.  The
    single-vector kernel has spectral nulls, so its inverse fit needs a
    substantial ridge; the filter then acts as a weighted accumulation of
    neighborhood samples.  Returns the filtered image and the tap grid.
    """
    x = as_image(image)
    model = estimate_ar(x, p, q)
    basis = compute_cns(build_operator(model, l, m), force_single=True)
    kernel = basis.squared_basis[0]
    kernel = kernel / kernel.sum()      # squares are nonnegative
    response = ipsf_space(x, kernel, ridge_relative=ridge_scale)
    return convolve(x, response), response

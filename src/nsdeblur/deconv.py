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

Both optimizers run half of each iterate's independent work on one
module-level worker thread, started on first use and shared by every
caller, while the calling thread runs the other half; numpy's FFTs and
ufuncs release the GIL, so on two cores the halves overlap.  The surface
operators always run on the calling thread.  Every result is bit for bit
that of serial evaluation: each half is the same sequence of operations
on its own buffers, wherever it runs.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .armodel import estimate_ar, build_operator
from .config import (STOP_CAP, STOP_EPS, STOP_GATE, STOP_INCREASE,
                     OptimizerConfig, RunReport, make_report)
from .errors import DeblurError
from .grid import as_image, convolve, replicate_filter
from .ipsf import ipsf_space
from .nullspace import compute_cns
from .surface import curvature_operator, metric_determinant

#: Ridge of the prefilter's inverse fit, relative to trace/rows of its
#: window statistics.
PREFILTER_RIDGE = 1e-2


def _mean_abs(a: np.ndarray) -> float:
    return float(np.mean(np.abs(a)))


def deconvolve_once(image, kernel) -> np.ndarray:
    """Primary estimate: one convolution with the inverse kernel."""
    return convolve(image, kernel)


def _start_worker() -> None:
    """Make ``_WORKER``, the one worker thread of the image optimizers.
    Its thread starts with its first task, so importing the package
    starts none.  A forked child makes its own: the parent's thread does
    not exist there."""
    global _WORKER
    _WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="nsdeblur")


_start_worker()
os.register_at_fork(after_in_child=_start_worker)


def _beside(task, here):
    """(task(), here()), with ``task`` on the worker thread while ``here``
    runs on the calling thread.  Returns or raises only once both have
    finished; an exception of either side propagates as itself, the
    caller's first.  A task must not submit to the worker itself."""
    future = _WORKER.submit(task)
    try:
        mine = here()
    finally:
        wait((future,))
    return future.result(), mine


def _filtered(s, h_filter, g_filter, g_worker
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three filtered fields of one iterate s, with reg its
    regularization field: (conv(s, h), conv(reg, g), conv(|reg|, g)).
    conv(s, h) runs on the worker beside the curvature, then
    conv(|reg|, g) on the worker beside conv(reg, g); ``g_worker`` is a
    second filter of g, as a filter reuses its buffers."""
    hs, reg = _beside(lambda: h_filter(s), lambda: curvature_operator(s))
    ga, gr = _beside(lambda: g_worker(np.abs(reg)), lambda: g_filter(reg))
    return hs, gr, ga


def _weight(cur, prev, lam_prev, cfg: OptimizerConfig) -> float:
    """Dynamic regularization weight from the filtered fields of the
    current and previous iterates.

    Filtering is linear, so differences of the carried fields are the
    filtered step variations.  ``lam_prev`` None seeds the weight from the
    first-estimate/image gap; otherwise the recursion grows it with the
    excited (data-side) variation and decays it with the smoothed one.
    When either degenerates, the steady-state ratio of the two is used.
    """
    (hs, gr, ga), (hs0, gr0, ga0) = cur, prev
    excited = _mean_abs(hs - hs0)
    smoothed = _mean_abs(ga - ga0)
    scale = (cfg.alpha if lam_prev is None else cfg.delta_t) * _mean_abs(gr)
    lam = np.nan
    if np.isfinite(scale) and scale > 0.0:
        with np.errstate(over="ignore"):
            if lam_prev is None:
                grow = np.expm1(_mean_abs(gr - gr0) / scale)
                if np.isfinite(grow) and grow > 0.0:
                    lam = excited / scale / grow
            else:
                lam = (lam_prev + excited / scale) * np.exp(-smoothed / scale)
    if np.isfinite(lam):
        return float(lam)
    if excited <= 0.0:
        return 0.0
    if not np.isfinite(smoothed) or smoothed <= 0.0:
        return np.nan
    return excited / smoothed


def bvdr_optimize(image, h, g, cfg: OptimizerConfig | None = None
                  ) -> tuple[np.ndarray, RunReport]:
    """Balanced-variation restoration with a dynamically updated weight.

    Starts from the single-pass estimate; each step adds the data residual
    and the weighted, inverse-kernel-smoothed regularization field.  The
    scalar weight is re-derived per iteration and falls back to the
    steady-state ratio when the recursion degenerates.  Each iterate is
    filtered once (three convolutions) and its fields are carried into the
    next step and weight; the iterate before the first step is the input.
    Every convolution goes through a :func:`replicate_filter`.

    Per iterate, conv(s, h) runs on the worker thread beside the
    curvature of s, then conv(|reg|, g) beside conv(reg, g).  The second
    one needs a second filter of g, since a filter reuses its buffers:
    for a dense g, two more ~2.3 MB buffers at 512 x 512.  The result is
    bit for bit that of serial evaluation.
    """
    cfg = cfg or OptimizerConfig()
    x = as_image(image)
    h_filter = replicate_filter(h, x.shape)
    g_filter = replicate_filter(g, x.shape)
    g_worker = replicate_filter(g, x.shape)
    prev = _filtered(x, h_filter, g_filter, g_worker)
    s = g_filter(x)
    cur = _filtered(s, h_filter, g_filter, g_worker)
    lam = _weight(cur, prev, None, cfg)

    residuals: list[float] = []
    lambdas: list[float] = []
    stop = STOP_CAP
    for k in range(cfg.max_iters):
        if k > 0:
            prev, cur = cur, _filtered(s, h_filter, g_filter, g_worker)
            lam = _weight(cur, prev, lam, cfg)
            if not np.isfinite(lam):
                stop = STOP_GATE
                break
        # lambda0 is the configured maximum of the dynamic weight
        lam = min(max(lam, 0.0), cfg.lambda0)
        s_next = s + cfg.delta_t * (x - cur[0] + lam * cur[1])
        if not np.all(np.isfinite(s_next)):
            stop = STOP_GATE
            break
        d = float(np.mean((s_next - s) ** 2))
        residuals.append(d)
        lambdas.append(lam)
        if len(residuals) >= 2 and d > residuals[-2]:
            stop = STOP_INCREASE       # keep the pre-increase image
            break
        s = s_next
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
    the inverse kernel.  Keeps the pre-increase iterate when the step size
    turns back up (a local minimum was passed), as the balanced-variation
    optimizer does.  Every convolution goes through one
    :func:`replicate_filter` per kernel.

    Per iterate, conv(s, h) runs on the worker thread beside the metric
    determinant and the curvature of s; conv(weight * curv, g) depends
    on all three and runs alone.  The result is bit for bit that of
    serial evaluation, and no filter is added.
    """
    cfg = cfg or OptimizerConfig()
    x = as_image(image)
    h_filter = replicate_filter(h, x.shape)
    g_filter = replicate_filter(g, x.shape)
    s = g_filter(x)
    residuals: list[float] = []
    lambdas: list[float] = []
    dt_bounds: list[float] = []
    stop = STOP_CAP
    for _ in range(cfg.max_iters):
        hs, (sigma, curv) = _beside(
            lambda: h_filter(s),
            lambda: (metric_determinant(s), curvature_operator(s)))
        r = x - hs
        weight = r * r / (2.0 * sigma)
        s_next = s + cfg.delta_t * (r + g_filter(weight * curv))
        if not np.all(np.isfinite(s_next)):
            raise DeblurError("curved-space step produced non-finite pixels")
        d = float(np.mean((s_next - s) ** 2))
        curv_scale = _mean_abs(curv)
        dt_bounds.append(_mean_abs(s_next - s) / curv_scale
                         if curv_scale > 0 else 0.0)
        residuals.append(d)
        lambdas.append(float(np.mean(weight)))
        if len(residuals) >= 2 and d > residuals[-2]:
            stop = STOP_INCREASE       # keep the pre-increase image
            break
        s = s_next
        if d <= cfg.eps:
            stop = STOP_EPS
            break
    report = make_report(residuals, lambdas, stop,
                         extras={"dt_bound_trace": np.array(dt_bounds)})
    return s, report


def denoise_prefilter(image, p: int = 33, q: int = 33, l: int = 17,
                      m: int = 17) -> tuple[np.ndarray, np.ndarray]:
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
    response = ipsf_space(x, kernel, ridge_relative=PREFILTER_RIDGE)
    return convolve(x, response), response

"""Image restoration: single-pass deconvolution, two regularized iterative
optimizers, and the high-order denoising prefilter.

The balanced-variation optimizer (BVDR) steps with a scalar regularization
weight that is re-derived every iteration from the current and previous
step statistics, so the weight rises while the estimate reorganizes and
then decays as it settles.  The curved-space optimizer (CS) weights the
curvature correction pointwise by the squared data residual over the local
metric determinant, giving each pixel its own effective weight.  Both stop
on a small mean-squared step, on a step increase (local minimum passed),
or at the iteration cap; a diverging step raises DeblurError.

Both optimizers run half of each iterate's independent work on the
package's worker thread (:func:`nsdeblur.grid._beside`) while the calling
thread runs the other half.  The surface operators always run on the
calling thread.  Every result is bit for bit that of serial evaluation.
"""

from __future__ import annotations

import numpy as np

from .armodel import estimate_ar, build_operator
from .config import OptimizerConfig, RunReport, iterate, make_report
from .errors import DeblurError
from .grid import _beside, as_image, convolve, replicate_filter
from .ipsf import ipsf_space, space_system
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


def _increased(sizes: list[float]) -> bool:
    """Refuses a step larger than the last: a local minimum was passed."""
    return len(sizes) >= 2 and sizes[-1] > sizes[-2]


def _step_size(delta: np.ndarray, bound: float, name: str) -> float:
    """Mean square of step ``delta`` of optimizer ``name``, unless it is
    non-finite or above ``bound``, the input image's mean square."""
    size = float(np.mean(delta ** 2))
    if not size <= bound:
        raise DeblurError(f"{name} diverged: mean-square step {size:.3e}"
                          f" against the input image's {bound:.3e}")
    return size


def bvdr_optimize(image, h, g, cfg: OptimizerConfig | None = None
                  ) -> tuple[np.ndarray, RunReport]:
    """Balanced-variation restoration with a dynamically updated weight.

    Starts from the single-pass estimate; each step adds the data residual
    and the weighted, inverse-kernel-smoothed regularization field.  The
    scalar weight is re-derived per iteration, falls back to the
    steady-state ratio when the recursion degenerates, and stops the run
    with STOP_GATE when it is non-finite even so.  Each iterate is
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
    bound = float(np.mean(x ** 2))
    h_filter = replicate_filter(h, x.shape)
    g_filter = replicate_filter(g, x.shape)
    g_worker = replicate_filter(g, x.shape)
    prev = [_filtered(x, h_filter, g_filter, g_worker)]
    lambdas: list[float] = []

    def step(s):
        cur = _filtered(s, h_filter, g_filter, g_worker)
        lam = _weight(cur, prev[0], lambdas[-1] if lambdas else None, cfg)
        if not np.isfinite(lam):
            return None
        prev[0] = cur
        # lambda0 is the configured maximum of the dynamic weight
        lambdas.append(min(max(lam, 0.0), cfg.lambda0))
        s_next = s + cfg.delta_t * (x - cur[0] + lambdas[-1] * cur[1])
        return s_next, _step_size(s_next - s, bound, "bvdr")

    s, residuals, stop = iterate(g_filter(x), step, cfg, _increased)
    transition = int(np.argmax(lambdas)) if lambdas else 0
    return s, make_report(residuals, lambdas, stop, transition_iter=transition)


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
    bound = float(np.mean(x ** 2))
    h_filter = replicate_filter(h, x.shape)
    g_filter = replicate_filter(g, x.shape)
    lambdas: list[float] = []
    dt_bounds: list[float] = []

    def step(s):
        hs, (sigma, curv) = _beside(
            lambda: h_filter(s),
            lambda: (metric_determinant(s), curvature_operator(s)))
        r = x - hs
        weight = r * r / (2.0 * sigma)
        s_next = s + cfg.delta_t * (r + g_filter(weight * curv))
        delta = s_next - s
        size = _step_size(delta, bound, "cs")
        curv_scale = _mean_abs(curv)
        dt_bounds.append(_mean_abs(delta) / curv_scale
                         if curv_scale > 0 else 0.0)
        lambdas.append(float(np.mean(weight)))
        return s_next, size

    s, residuals, stop = iterate(g_filter(x), step, cfg, _increased)
    return s, make_report(residuals, lambdas, stop,
                          extras={"dt_bound_trace": np.array(dt_bounds)})


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
    response = ipsf_space(x, kernel, system=space_system(
        x, kernel, ridge_relative=PREFILTER_RIDGE))
    return convolve(x, response), response

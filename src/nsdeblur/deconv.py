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

Both optimizers cut the image at its middle row into two parts, each
read with a halo of rows past the cut, and run the whole iterate on each
part: the second on the package's worker thread
(:func:`nsdeblur.grid._beside`) while the calling thread runs the first.
The calling thread adds the parts' partial sums into the step size, the
weight and the traces.  A part calls only its filters and
:func:`nsdeblur.surface.curvature_fields`, neither of which a tracer
wraps.  Every result is bit for bit that of serial evaluation of the
parts; against whole-image filters it differs by rounding only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .armodel import build_operator, default_fit_region, estimate_ar
from .config import OptimizerConfig, RunReport, iterate, make_report
from .errors import DeblurError
from .grid import (_beside, as_image, as_kernel, check_fits, convolve,
                   normalize_kernel, replicate_filter, statistics_region)
from .ipsf import ipsf_space, space_system
from .nullspace import compute_cns
from .surface import CURVATURE_REACH, curvature_fields
# perfbench's tracer wraps these two at this module, so they stay bound
# (tests/test_benchmark_contract.py); the optimizers call neither
from .surface import curvature_operator, metric_determinant  # noqa: F401

#: Ridge of the prefilter's inverse fit, relative to trace/rows of its
#: window statistics.
PREFILTER_RIDGE = 1e-2


def deconvolve_once(image, kernel) -> np.ndarray:
    """Primary estimate: one convolution with the inverse kernel."""
    return convolve(image, kernel)


@dataclass(frozen=True)
class _Part:
    """The image rows ``rows`` of an image optimizer's iterate, evaluated
    on the ``slab`` of rows that reaches a halo past each cut: ``own``
    are its rows within the slab, and ``filters`` the
    :func:`replicate_filter` of h and of g, built for the slab's shape."""

    rows: slice
    slab: slice
    own: slice
    filters: tuple


def _parts(x: np.ndarray, h, g, halo) -> list[_Part]:
    """The image ``x`` cut at its middle row into two :class:`_Part`, each
    read with ``halo(rh, rg)`` rows past the cut, rh and rg the row radii
    of h and g.  The halo covers every row whose filtered or
    differentiated values a part's own rows read, so the replicated slab
    edge never reaches them.  An image of fewer than 2 halo + 2 rows is
    one part: there a slab would hold at least the whole other half.  A
    kernel larger than the image raises DimensionError."""
    kernels = (as_kernel(h), as_kernel(g))
    for k in kernels:
        check_fits(k.shape, x.shape)
    reach = halo(*(k.shape[0] // 2 for k in kernels))
    rows, cols = x.shape
    cuts = (0, rows // 2, rows) if rows >= 2 * reach + 2 else (0, rows)
    parts = []
    for top, bottom in zip(cuts, cuts[1:]):
        lo, hi = max(top - reach, 0), min(bottom + reach, rows)
        shape = (hi - lo, cols)
        parts.append(_Part(slice(top, bottom), slice(lo, hi),
                           slice(top - lo, bottom - lo),
                           tuple(replicate_filter(k, shape)
                                 for k in kernels)))
    return parts


def _each(work, *args) -> list:
    """[work(*a) for a in zip(*args)] over the parts: a second part runs
    on the worker thread beside the first."""
    calls = [lambda a=a: work(*a) for a in zip(*args)]
    if len(calls) == 1:
        return [calls[0]()]
    second, first = _beside(calls[1], calls[0])
    return [first, second]


def _start(parts: list[_Part], x: np.ndarray) -> np.ndarray:
    """The single-pass estimate conv(x, g), part by part."""
    start = np.empty(x.shape)

    def fill(part):
        start[part.rows] = part.filters[1](x[part.slab])[part.own]
    _each(fill, parts)
    return start


def _means(sums: list, count: int) -> list[float]:
    """Each partial sum added over the parts, over ``count``."""
    return [sum(column) / count for column in zip(*sums)]


def _sum_abs(a: np.ndarray) -> float:
    return float(np.sum(np.abs(a)))


def _sum_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """sum |a - b|, in one temporary."""
    diff = np.subtract(a, b)
    return float(np.sum(np.abs(diff, out=diff)))


def _advance(s: np.ndarray, direction: np.ndarray, delta_t: float,
             out: np.ndarray) -> tuple[float, float]:
    """(sum of squares, sum of absolute values) of the step out - s, for
    out = s + delta_t * direction written in place; the step is formed in
    ``direction``'s buffer.  An overflow makes the step infinite, which
    the caller's check refuses; it warns of nothing."""
    with np.errstate(over="ignore"):
        np.multiply(direction, delta_t, out=out)
        out += s
        step = np.abs(np.subtract(out, s, out=direction), out=direction)
        total = float(np.sum(step))
        return float(np.sum(np.square(step, out=step))), total


def _checked_size(size: float, bound: float, name: str) -> float:
    """The mean-square step ``size`` of optimizer ``name``, unless it is
    non-finite or above ``bound``, the input image's mean square."""
    if not size <= bound:
        raise DeblurError(f"{name} diverged: mean-square step {size:.3e}"
                          f" against the input image's {bound:.3e}")
    return size


def _weight(means, lam_prev, cfg: OptimizerConfig) -> float:
    """Dynamic regularization weight from the mean absolute variations of
    the filtered fields between the current and the previous iterate,
    ``means`` = (mean |d conv(s, h)|, mean |d conv(|reg|, g)|,
    mean |conv(reg, g)|, mean |d conv(reg, g)|), reg the curvature; the
    last is read for the seed only.

    Filtering is linear, so differences of the carried fields are the
    filtered step variations.  ``lam_prev`` None seeds the weight from the
    first-estimate/image gap; otherwise the recursion grows it with the
    excited (data-side) variation and decays it with the smoothed one.
    When either degenerates, the steady-state ratio of the two is used.
    """
    excited, smoothed, reg_scale, reg_change = means
    scale = (cfg.alpha if lam_prev is None else cfg.delta_t) * reg_scale
    lam = np.nan
    if np.isfinite(scale) and scale > 0.0:
        with np.errstate(over="ignore"):
            if lam_prev is None:
                grow = np.expm1(reg_change / scale)
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
    Every convolution goes through one :func:`replicate_filter` per kernel
    and part.

    Per iterate each row part (:func:`_parts`; halo max(rh, rg + reach)
    rows, for the curvature's :data:`CURVATURE_REACH` under g, or for h)
    filters its slab and takes its curvature and its partial sums of the
    weight; the caller forms the weight, and each part then takes its
    rows of the step.
    """
    cfg = cfg or OptimizerConfig()
    x = as_image(image)
    bound = float(np.mean(x ** 2))
    parts = _parts(x, h, g, lambda rh, rg: max(rh, rg + CURVATURE_REACH))

    def filtered(part, s):
        """(conv(s, h), conv(reg, g), conv(|reg|, g)) on the part's rows,
        reg the curvature of s."""
        h_filter, g_filter = part.filters
        slab = s[part.slab]
        reg = curvature_fields(slab)[0]
        gr = g_filter(reg)
        ga = g_filter(np.abs(reg, out=reg))
        return [f[part.own] for f in (h_filter(slab), gr, ga)]

    def weigh(part, prev, s, seed):
        cur = filtered(part, s)
        (hs, gr, ga), (hs0, gr0, ga0) = cur, prev
        # only the seed weight reads the change of conv(reg, g)
        return cur, (_sum_abs_diff(hs, hs0), _sum_abs_diff(ga, ga0),
                     _sum_abs(gr), _sum_abs_diff(gr, gr0) if seed else 0.0)

    def advance(part, fields, s, lam, out):
        rows = part.rows
        direction = x[rows] - fields[0]
        direction += lam * fields[1]
        return _advance(s[rows], direction, cfg.delta_t, out[rows])[:1]

    start = _start(parts, x)
    carried = _each(lambda part: filtered(part, x), parts)
    lambdas: list[float] = []

    def step(s):
        cur, sums = zip(*_each(lambda part, prev: weigh(part, prev, s,
                                                        not lambdas),
                               parts, carried))
        lam = _weight(_means(sums, x.size), lambdas[-1] if lambdas else None,
                      cfg)
        if not np.isfinite(lam):
            return None
        carried[:] = cur
        # lambda0 is the configured maximum of the dynamic weight
        lambdas.append(min(max(lam, 0.0), cfg.lambda0))
        s_next = np.empty(x.shape)
        sums = _each(lambda part, fields: advance(part, fields, s,
                                                  lambdas[-1], s_next),
                     parts, carried)
        return s_next, _checked_size(_means(sums, x.size)[0], bound, "bvdr")

    s, residuals, stop = iterate(start, step, cfg, _increased)
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
    :func:`replicate_filter` per kernel and part.

    Each row part (:func:`_parts`; halo rg + max(rh, reach) rows, as g
    reads the residual under h and the curvature, whose reach is
    :data:`CURVATURE_REACH` rows) runs the whole iterate on its slab, the
    curvature and metric determinant from one pass
    (:func:`curvature_fields`), and returns its partial sums of the step
    size, the dt bound and the mean weight.
    """
    cfg = cfg or OptimizerConfig()
    x = as_image(image)
    bound = float(np.mean(x ** 2))
    parts = _parts(x, h, g, lambda rh, rg: rg + max(rh, CURVATURE_REACH))
    lambdas: list[float] = []
    dt_bounds: list[float] = []

    # per part, the residual and the weight: each iterate reuses them
    work = [(np.empty_like(x[part.slab]), np.empty_like(x[part.slab]))
            for part in parts]

    def advance(part, buffers, s, out):
        h_filter, g_filter = part.filters
        own, slab = part.own, s[part.slab]
        r, weight = buffers
        curv, sigma = curvature_fields(slab, metric=True)
        curv_sum = _sum_abs(curv[own])
        np.subtract(x[part.slab], h_filter(slab, out=r), out=r)
        # weight = r * r / (2 sigma), and then weight * curv, in place
        np.multiply(r, r, out=weight)
        sigma *= 2.0
        weight /= sigma
        curv *= weight
        direction = g_filter(curv, out=curv)[own]
        direction += r[own]
        return _advance(s[part.rows], direction, cfg.delta_t,
                        out[part.rows]) + (curv_sum,
                                           float(np.sum(weight[own])))

    def step(s):
        s_next = np.empty(x.shape)
        size, step_scale, curv_scale, mean_weight = _means(
            _each(lambda part, buffers: advance(part, buffers, s, s_next),
                  parts, work), x.size)
        _checked_size(size, bound, "cs")
        dt_bounds.append(step_scale / curv_scale if curv_scale > 0 else 0.0)
        lambdas.append(mean_weight)
        return s_next, size

    s, residuals, stop = iterate(_start(parts, x), step, cfg, _increased)
    return s, make_report(residuals, lambdas, stop,
                          extras={"dt_bound_trace": np.array(dt_bounds)})


def denoise_prefilter(image, order: int = 33, size: int = 17
                      ) -> tuple[np.ndarray, np.ndarray]:
    """High-order single-vector prefilter: a linear two-sided filter that
    removes impulsive noise without extra smoothing.

    Fits an ``order`` x ``order`` model, keeps only the single
    smallest-eigenvalue basis vector of a ``size`` x ``size`` kernel
    (maximum assumed blur), builds the corresponding kernel and its
    space-domain inverse, and applies that inverse once.  The
    single-vector kernel has spectral nulls, so its inverse fit needs a
    substantial ridge; the filter then acts as a weighted accumulation of
    neighborhood samples.  Returns the filtered image and the tap grid.

    The kernel, a squared eigenvector, is centrosymmetric, and so are the
    model stencil (``centrosymmetric=True``) and the response (as every
    space-route inverse): both fits solve folded normal equations, 1/8
    of the LU work.  No free block is copied out of the fit's Gram: on a
    256 x 256 image the prefilter's traced allocations peak at about
    14.4 MiB, the 9.5 MB Gram and the folded 545 x 545 system with its
    work copies.  Both fits read one :func:`nsdeblur.grid.statistics_region`
    of the order x order window, the whole image up to 352 x 352 at order
    33; the filter is applied to the whole image.
    """
    x = as_image(image)
    region = statistics_region(x, order, order)
    model = estimate_ar(x, order, order,
                        default_fit_region(x.shape, order, order, region),
                        centrosymmetric=True)
    basis = compute_cns(build_operator(model, size, size), force_single=True)
    kernel = normalize_kernel(basis.squared_basis[0])
    response = ipsf_space(x, kernel, system=space_system(
        x, kernel, ridge_relative=PREFILTER_RIDGE, region=region))
    return convolve(x, response), response

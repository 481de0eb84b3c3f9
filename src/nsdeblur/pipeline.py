"""End-to-end orchestration: kernel estimation and restoration with one
configuration object, shared by the command-line front end and scripts.

The kernel estimate computes the gradient moments, which read the image
alone, on the package's worker thread (:func:`nsdeblur.grid._beside`)
while the calling thread fits the model and splits its operator; every
other stage runs on the calling thread.  The result is bit for bit that
of serial evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .armodel import ArModel, build_operator, default_fit_region, estimate_ar
from .config import OptimizerConfig, RunReport, check_integers
from .deconv import bvdr_optimize, cs_optimize, deconvolve_once, denoise_prefilter
from .errors import DimensionError, InputError
from .grid import (_beside, _fast_len, as_image, bounded_shape,
                   statistics_region)
from .ipsf import (ipsf_space, ipsf_spectral, optimize_ipsf_space,
                   optimize_ipsf_spectral, space_system)
from .nullspace import MAX_NULL_DIM, CnsBasis, compute_cns
from .psf import estimate_psf, gradient_moments, gradient_stats, optimize_psf

OPTIMIZERS = ("none", "bvdr", "cs")
IPSF_ROUTES = ("spectral", "space")

#: Bytes the dense matrices of one estimate may take (:func:`dense_bytes`).
#: On a blurred 512 x 512 texture the 61 x 61 model with a 59 x 59 kernel
#: counts 0.68 GB and peaks at 585 MB resident, and the 73 x 73 model with
#: a 71 x 71 kernel 1.37 GB and 1.14 GB (a fresh interpreter, one BLAS
#: thread): the peak is 0.83-0.86 of the count, and every array live at
#: the traced peak is counted.  On the space route, which keeps only the
#: even fold of its system, the traced peak is 51.8 MiB against a count
#: of 63.7 MiB at 23 x 23 / 21 x 21 on a blurred 256 x 256 texture, and
#: 106.0 against 140.1 MiB at 33 x 33 / 25 x 25 on 512 x 512.  The
#: budget refuses larger models before they allocate, with a typed error
#: instead of numpy's MemoryError part-way through a run.
DENSE_BUDGET = 2 << 30


@dataclass(frozen=True)
class PipelineConfig:
    """Estimation and restoration settings, checked when built (defaults
    follow the reported working regime: 17x17 model, 9x9 kernel, weight
    0.01, step 0.1, tolerance 1e-8, 20 iterations)."""

    ar_p: int = 17
    ar_q: int = 17
    psf_l: int = 9
    psf_m: int = 9
    optimizer: str = "none"
    ipsf_route: str = "spectral"
    denoise: bool = False
    denoise_order: int = 33
    denoise_size: int = 17
    solver: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self) -> None:
        for name in ("ar_p", "ar_q", "psf_l", "psf_m", "denoise_order",
                     "denoise_size"):
            check_integers(self, name)
            v = getattr(self, name)
            if v < 1 or v % 2 == 0:
                raise DimensionError(f"{name} must be odd and >= 1, got {v}")
        if self.psf_l == self.psf_m == 1:
            # one tap, one eigenvalue: no eigen/null split to take
            raise DimensionError("a 1x1 kernel cannot be estimated; "
                                 "psf_l or psf_m must be above 1")
        for kernel, model in (("psf_l", "ar_p"), ("psf_m", "ar_q"),
                              ("denoise_size", "denoise_order")):
            if getattr(self, kernel) >= getattr(self, model):
                raise DimensionError(
                    f"{kernel} = {getattr(self, kernel)} must be smaller "
                    f"than {model} = {getattr(self, model)}")
        for name, choices in (("optimizer", OPTIMIZERS),
                              ("ipsf_route", IPSF_ROUTES),
                              ("denoise", (False, True))):
            if getattr(self, name) not in choices:
                raise InputError(f"{name} must be one of {choices}")


def dense_bytes(cfg: PipelineConfig, shape: tuple[int, int]) -> int:
    """Bytes of the dense matrices that :func:`estimate_kernels` builds
    for an image of ``shape``, counted before any is built: for the model
    fit and, with ``denoise``, the prefilter's, the fit's window Gram with
    its work arrays and solve copy, the eigensystem and the inverse's
    system (the space system, or the spectral inverse's full convolutions
    with their transforms, and the rows of the unfolded even fold when K
    can reach their number); then the gradient moments.  The window
    statistics are counted over the centred
    :func:`nsdeblur.grid.statistics_region` of each chain: an image whose
    centre is flat is read whole, and its work arrays then take
    (rows + cols - h - w) * p * q more for an h x w region."""
    def system(p, q, h, w):     # p x q window Gram over h x w, LU copy
        return 2 * (p * q) ** 2 + (h + w) * p * q

    # A A^T and twice its two halves: compute_cns's traced peak, while it
    # folds, is 88 % of this at 59 x 59 and at 71 x 71
    def eigensystem(n):
        return n * n + 2 * (((n + 1) // 2) ** 2 + (n // 2) ** 2)

    def spectral(n, full):      # full_convolutions of K grids; the fold
        fold = n * (n + 1) // 2 if (n + 1) // 2 <= MAX_NULL_DIM else 0
        length = _fast_len(full)
        return fold + min(n, MAX_NULL_DIM) * (2 * (length // 2 + 1) + length)

    def chain(p, q, l, m, space):
        rows, cols = bounded_shape(shape, p, q)
        *_, h, w = default_fit_region((rows, cols), p, q)
        inverse = (system(2 * l - 1, 2 * m - 1, rows, cols) if space
                   else spectral(l * m, (2 * l - 1) * (2 * m - 1)))
        return system(p, q, h, w) + eigensystem(l * m) + inverse

    l, m = cfg.psf_l, cfg.psf_m
    total = (chain(cfg.ar_p, cfg.ar_q, l, m, cfg.ipsf_route == "space")
             + system(l, m, *bounded_shape(shape, cfg.ar_p, cfg.ar_q)))
    if cfg.denoise:
        o, k = cfg.denoise_order, cfg.denoise_size
        total += chain(o, o, k, k, True)
    return 8 * total


@dataclass
class EstimateResult:
    psf: np.ndarray
    ipsf: np.ndarray
    model: ArModel
    basis: CnsBasis
    psf_report: RunReport
    ipsf_report: RunReport
    prefiltered: np.ndarray | None = None
    prefilter_kernel: np.ndarray | None = None
    space_ridge: float | None = None    # the space system's, on that route


def estimate_kernels(image, cfg: PipelineConfig | None = None
                     ) -> EstimateResult:
    """Full estimation chain: (optional prefilter) -> model fit -> basis ->
    kernel estimate and optimization -> inverse kernel and optimization.
    Every window statistic (the model fit, the gradient moments and the
    space system) reads one :func:`nsdeblur.grid.statistics_region`,
    found once for the model's window; the fit reads the square of
    :func:`nsdeblur.armodel.default_fit_region` inside it.  A
    configuration whose :func:`dense_bytes` exceed DENSE_BUDGET raises
    DimensionError before anything is built."""
    cfg = cfg or PipelineConfig()
    x = as_image(image)
    need = dense_bytes(cfg, x.shape)
    if need > DENSE_BUDGET:
        raise DimensionError(
            f"the estimate's dense matrices need {need / 2**30:.3g} GiB, over "
            f"the {DENSE_BUDGET / 2**30:g} GiB budget: lower the model "
            "orders or the kernel size")
    prefiltered = prefilter_kernel = None
    if cfg.denoise:
        x, prefilter_kernel = denoise_prefilter(x, cfg.denoise_order,
                                                cfg.denoise_size)
        prefiltered = x

    # one region for every window statistic, sized for the model's window
    region = statistics_region(x, cfg.ar_p, cfg.ar_q)

    def fit():
        model = estimate_ar(x, cfg.ar_p, cfg.ar_q, region=default_fit_region(
            x.shape, cfg.ar_p, cfg.ar_q, region))
        return model, compute_cns(build_operator(model, cfg.psf_l, cfg.psf_m))

    # the fit chain runs on the caller, so its error wins over the moments'
    moments, (model, basis) = _beside(
        lambda: gradient_moments(x, cfg.psf_l, cfg.psf_m, region), fit)
    h0 = estimate_psf(gradient_stats(x, basis, moments), basis)
    h, psf_report = optimize_psf(h0, basis, cfg.solver)
    space_ridge = None
    if cfg.ipsf_route == "spectral":
        g0 = ipsf_spectral(h, basis)
        g, ipsf_report = optimize_ipsf_spectral(g0, h, basis, cfg.solver)
    else:
        # one system, with its ridge, serves both solves
        system = space_system(x, h, region=region)
        space_ridge = system.ridge
        g0 = ipsf_space(x, h, system=system)
        g, ipsf_report = optimize_ipsf_space(g0, x, h, cfg.solver,
                                             system=system)
    return EstimateResult(psf=h, ipsf=g, model=model, basis=basis,
                          psf_report=psf_report, ipsf_report=ipsf_report,
                          prefiltered=prefiltered,
                          prefilter_kernel=prefilter_kernel,
                          space_ridge=space_ridge)


def restore(image, ipsf, psf=None, cfg: PipelineConfig | None = None
            ) -> tuple[np.ndarray, RunReport | None]:
    """Single-pass restoration, or the configured optimizer, which starts
    from the same single pass."""
    cfg = cfg or PipelineConfig()
    x = as_image(image)
    if cfg.optimizer == "none":
        return deconvolve_once(x, ipsf), None
    if psf is None:
        raise InputError("iterative optimization needs the forward kernel")
    if cfg.optimizer == "bvdr":
        return bvdr_optimize(x, psf, ipsf, cfg.solver)
    return cs_optimize(x, psf, ipsf, cfg.solver)

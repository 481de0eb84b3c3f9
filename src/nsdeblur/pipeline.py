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

from .armodel import ArModel, estimate_ar, build_operator
from .config import OptimizerConfig, RunReport, check_integers
from .deconv import bvdr_optimize, cs_optimize, deconvolve_once, denoise_prefilter
from .errors import DimensionError, InputError
from .grid import _beside, as_image
from .ipsf import (ipsf_space, ipsf_spectral, optimize_ipsf_space,
                   optimize_ipsf_spectral, space_system)
from .nullspace import CnsBasis, compute_cns
from .psf import estimate_psf, gradient_moments, gradient_stats, optimize_psf

OPTIMIZERS = ("none", "bvdr", "cs")
IPSF_ROUTES = ("spectral", "space")


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
    kernel estimate and optimization -> inverse kernel and optimization."""
    cfg = cfg or PipelineConfig()
    x = as_image(image)
    prefiltered = prefilter_kernel = None
    if cfg.denoise:
        x, prefilter_kernel = denoise_prefilter(x, cfg.denoise_order,
                                                cfg.denoise_size)
        prefiltered = x

    def fit():
        model = estimate_ar(x, cfg.ar_p, cfg.ar_q)
        return model, compute_cns(build_operator(model, cfg.psf_l, cfg.psf_m))

    # the fit chain runs on the caller, so its error wins over the moments'
    moments, (model, basis) = _beside(
        lambda: gradient_moments(x, cfg.psf_l, cfg.psf_m), fit)
    h0 = estimate_psf(gradient_stats(x, basis, moments), basis)
    h, psf_report = optimize_psf(h0, basis, cfg.solver)
    space_ridge = None
    if cfg.ipsf_route == "spectral":
        g0 = ipsf_spectral(h, basis)
        g, ipsf_report = optimize_ipsf_spectral(g0, h, basis, cfg.solver)
    else:
        # one system, with its ridge, serves both solves
        system = space_system(x, h)
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

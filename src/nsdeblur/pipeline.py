"""End-to-end orchestration: kernel estimation and restoration with one
configuration object, shared by the command-line front end and scripts."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .armodel import ArModel, estimate_ar, build_operator
from .config import OptimizerConfig, RunReport
from .deconv import bvdr_optimize, cs_optimize, deconvolve_once, denoise_prefilter
from .errors import DimensionError, InputError
from .grid import as_image
from .ipsf import ipsf_space, ipsf_spectral, optimize_ipsf_space, optimize_ipsf_spectral
from .nullspace import CnsBasis, compute_cns
from .psf import estimate_psf, gradient_stats, optimize_psf

OPTIMIZERS = ("none", "bvdr", "cs")
IPSF_ROUTES = ("spectral", "space")


@dataclass
class PipelineConfig:
    """Estimation and restoration settings (defaults follow the reported
    working regime: 17x17 model, 9x9 kernel, weight 0.01, step 0.1,
    tolerance 1e-8, 20 iterations)."""

    ar_p: int = 17
    ar_q: int = 17
    psf_l: int = 9
    psf_m: int = 9
    optimizer: str = "none"
    ipsf_route: str = "spectral"
    denoise: bool = False
    denoise_order: int = 33
    denoise_size: int = 17
    space_ridge: float = 0.0
    solver: OptimizerConfig = field(default_factory=OptimizerConfig)

    def validate(self) -> None:
        """Check every setting :func:`estimate_kernels` and
        :func:`restore` read."""
        self.validate_restore()
        for name, v in (("ar_p", self.ar_p), ("ar_q", self.ar_q),
                        ("psf_l", self.psf_l), ("psf_m", self.psf_m)):
            if v < 1 or v % 2 == 0:
                raise DimensionError(f"{name} must be odd and >= 1, got {v}")
        if self.psf_l >= self.ar_p or self.psf_m >= self.ar_q:
            raise DimensionError(
                f"kernel {self.psf_l}x{self.psf_m} must be smaller than "
                f"model {self.ar_p}x{self.ar_q}")
        if self.ipsf_route not in IPSF_ROUTES:
            raise InputError(f"ipsf_route must be one of {IPSF_ROUTES}")
        if not self.space_ridge >= 0:     # NaN fails too
            raise InputError(
                f"space_ridge must be nonnegative, got {self.space_ridge}")

    def validate_restore(self) -> None:
        """Check the settings :func:`restore` reads: the optimizer (the
        solver settings are checked when they are built)."""
        if self.optimizer not in OPTIMIZERS:
            raise InputError(f"optimizer must be one of {OPTIMIZERS}")


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


def estimate_kernels(image, cfg: PipelineConfig | None = None
                     ) -> EstimateResult:
    """Full estimation chain: (optional prefilter) -> model fit -> basis ->
    kernel estimate and optimization -> inverse kernel and optimization."""
    cfg = cfg or PipelineConfig()
    cfg.validate()
    x = as_image(image)
    prefiltered = prefilter_kernel = None
    if cfg.denoise:
        x, prefilter_kernel = denoise_prefilter(
            x, cfg.denoise_order, cfg.denoise_order,
            cfg.denoise_size, cfg.denoise_size)
        prefiltered = x
    model = estimate_ar(x, cfg.ar_p, cfg.ar_q)
    basis = compute_cns(build_operator(model, cfg.psf_l, cfg.psf_m))
    stats = gradient_stats(x, basis)
    h0 = estimate_psf(stats, basis)
    h, psf_report = optimize_psf(h0, basis, cfg.solver)
    if cfg.ipsf_route == "spectral":
        g0 = ipsf_spectral(h, basis)
        g, ipsf_report = optimize_ipsf_spectral(g0, h, basis, cfg.solver)
    else:
        g0 = ipsf_space(x, h, ridge=cfg.space_ridge)
        g, ipsf_report = optimize_ipsf_space(g0, x, h, cfg.solver,
                                             ridge=cfg.space_ridge)
    return EstimateResult(psf=h, ipsf=g, model=model, basis=basis,
                          psf_report=psf_report, ipsf_report=ipsf_report,
                          prefiltered=prefiltered,
                          prefilter_kernel=prefilter_kernel)


def restore(image, ipsf, psf=None, cfg: PipelineConfig | None = None
            ) -> tuple[np.ndarray, RunReport | None]:
    """Single-pass restoration, or the configured optimizer, which starts
    from the same single pass."""
    cfg = cfg or PipelineConfig()
    cfg.validate_restore()
    x = as_image(image)
    if cfg.optimizer == "none":
        return deconvolve_once(x, ipsf), None
    if psf is None:
        raise InputError("iterative optimization needs the forward kernel")
    if cfg.optimizer == "bvdr":
        return bvdr_optimize(x, psf, ipsf, cfg.solver)
    return cs_optimize(x, psf, ipsf, cfg.solver)

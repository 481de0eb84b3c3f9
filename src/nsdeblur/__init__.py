"""Blind single-image deblurring.

Estimates a blur kernel from one degraded image through the null side of
an autoregressive image-model operator, synthesizes an inverse kernel
(spectral or space-domain route), restores by a single convolution, and
optionally refines the estimate with one of two regularized iterative
optimizers.  A no-reference sharpness index and a synthetic-degradation
harness round out the toolkit.
"""

from .armodel import ArModel, OperatorMatrix, build_operator, estimate_ar
from .config import OptimizerConfig, RunReport, format_report
from .deconv import (bvdr_optimize, cs_optimize, deconvolve_once,
                     denoise_prefilter)
from .errors import (DeblurError, DegenerateKernelError,
                     DegenerateOperatorError, DimensionError,
                     InputError, InsufficientDataError)
from .grid import (convolve, delta_kernel, gradient, normalize_kernel,
                   to_luminance)
from .ipsf import (ipsf_space, ipsf_spectral, optimize_ipsf_space,
                   optimize_ipsf_spectral)
from .nullspace import CnsBasis, compute_cns
from .pipeline import EstimateResult, PipelineConfig, estimate_kernels, restore
from .psf import GradientStats, estimate_psf, gradient_stats, optimize_psf
from .quality import AiConfig, anisotropy_index, psnr
from .surface import curvature_operator, metric_determinant, surface_area
from .synth import (add_impulse_noise, ar_texture, disk_kernel,
                    gaussian_kernel, motion_kernel, smooth_stencil, texture)

__version__ = "0.1.0"

"""Shared fixtures: the synthetic corpus used by the acceptance suite and
the heavier module tests.  Estimation chains are session-scoped because a
full chain takes a couple of seconds."""

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import convolve2d

import nsdeblur as nd
from nsdeblur.config import OptimizerConfig, format_report


SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(args, cwd=None) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter with the package on the
    path, its output captured as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True)


def run_probe(probe: str, cwd=None) -> str:
    """Standard output of ``python -c probe``, run as by :func:`run_python`
    and required to succeed."""
    out = run_python(["-c", probe], cwd)
    out.check_returncode()
    return out.stdout.strip()


def estimate_bits(image, cfg):
    """Bytes of everything ``estimate_kernels`` returns and reports: both
    kernels, the AR fit with its residual and ridge, the null vectors,
    both optimizer reports and the space ridge (None off that route)."""
    r = nd.estimate_kernels(image, cfg)
    arrays = (r.psf, r.ipsf, r.model.coeffs,
              np.array([r.model.residual, r.model.ridge]),
              r.basis.null_vectors)
    return ([a.tobytes() for a in arrays], format_report(r.psf_report),
            format_report(r.ipsf_report), repr(r.space_ridge))


def noisy_case_image(case):
    """The case's blurred image with white noise added: its space system
    is well conditioned, yet takes the default ridge like any other."""
    rng = np.random.default_rng(5)
    return case.blurred + 0.1 * rng.standard_normal(case.blurred.shape)


def embed(kernel, l, m):
    """Center a small kernel on an l x m grid."""
    out = np.zeros((l, m))
    ci, ck = l // 2, m // 2
    ki, kk = kernel.shape[0] // 2, kernel.shape[1] // 2
    out[ci - ki:ci + ki + 1, ck - kk:ck + kk + 1] = kernel
    return out


def ncc(a, b):
    a = a.ravel()
    b = b.ravel()
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def center_share(h, g):
    """Center-tap share of absolute mass of the full convolution h (*) g."""
    full = convolve2d(h, g)
    ci, ck = (full.shape[0] - 1) // 2, (full.shape[1] - 1) // 2
    return float(abs(full[ci, ck]) / np.abs(full).sum())


def is_smooth(n):
    """True when n has no prime factor above 5."""
    for prime in (2, 3, 5):
        while n % prime == 0:
            n //= prime
    return n == 1


def stencil_sums(image, stencil):
    """Stencil-weighted sum at every valid window position: the residual
    field of an AR fit."""
    windows = sliding_window_view(image, stencil.shape)
    return np.tensordot(windows, stencil, axes=([2, 3], [0, 1]))


def mass_center(kernel):
    w = np.abs(kernel)
    w = w / w.sum()
    i, j = np.indices(kernel.shape)
    return np.array([(w * i).sum(), (w * j).sum()])


@dataclass
class CorpusCase:
    name: str
    true_kernel: np.ndarray
    clean: np.ndarray
    blurred: np.ndarray
    order: int
    size: int
    basis: object
    psf: np.ndarray
    psf_report: object
    ipsf_spectral: np.ndarray
    ipsf_space: np.ndarray


CORPUS_SEED = 23
SPACE_CFG = OptimizerConfig(lambda0=1e-5)


@pytest.fixture(scope="session")
def corpus_texture():
    return nd.texture((128, 128), seed=CORPUS_SEED, rolloff=1.4,
                      noise_floor=0.02)


def _build_case(clean, name, kernel, order, size):
    blurred = nd.convolve(clean, kernel)
    basis = nd.compute_cns(
        nd.build_operator(nd.estimate_ar(blurred, order, order), size, size))
    h0 = nd.estimate_psf(nd.gradient_stats(blurred, basis), basis)
    h, psf_report = nd.optimize_psf(h0, basis)
    g_sp, _ = nd.optimize_ipsf_spectral(nd.ipsf_spectral(h, basis), h, basis)
    g_sf, _ = nd.optimize_ipsf_space(nd.ipsf_space(blurred, h), blurred, h,
                                     SPACE_CFG)
    return CorpusCase(name=name, true_kernel=kernel, clean=clean,
                      blurred=blurred, order=order, size=size, basis=basis,
                      psf=h, psf_report=psf_report, ipsf_spectral=g_sp,
                      ipsf_space=g_sf)


@pytest.fixture(scope="session")
def gaussian_case(corpus_texture):
    return _build_case(corpus_texture, "gaussian",
                       nd.gaussian_kernel(1.0, 5), order=13, size=9)


@pytest.fixture(scope="session")
def motion_case(corpus_texture):
    return _build_case(corpus_texture, "motion",
                       nd.motion_kernel(5, 0.0), order=13, size=7)

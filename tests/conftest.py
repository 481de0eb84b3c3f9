"""Shared fixtures: the synthetic corpus used by the acceptance suite and
the heavier module tests, and the AR-model textures some tests build on.
Estimation chains are session-scoped because a full chain takes a couple
of seconds."""

import os
import resource
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
from nsdeblur.grid import (as_kernel, correlation_lags, fold_gram, unfold,
                           window_gram)
from nsdeblur.nullspace import MAX_NULL_DIM, _pick_split, operator_gram
from nsdeblur.synth import _LUMA_EPS


SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(args, cwd=None, address_space=None
               ) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter with the package on the
    path, its output captured as text.  ``address_space`` caps the child's
    virtual memory (RLIMIT_AS, bytes), so an oversized allocation fails at
    once instead of taking the machine's memory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cap = None if address_space is None else (
        lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space,) * 2))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, preexec_fn=cap)


def run_probe(probe: str, cwd=None) -> str:
    """Standard output of ``python -c probe``, run as by :func:`run_python`
    and required to succeed."""
    out = run_python(["-c", probe], cwd)
    out.check_returncode()
    return out.stdout.strip()


def byte_mutants(valid: bytes, rng, count: int,
                 alphabet: bytes = b"0123456789+-_# \t\n\rP"):
    """``count`` copies of ``valid``, each with one to three byte edits
    drawn from the ``random.Random`` ``rng``: a byte replaced, a byte
    inserted, or a run dropped (to the end of the file, at times).  Half
    the edits land in the first 16 bytes, the header; new bytes are drawn
    mostly from ``alphabet``, by default digits, signs, whitespace, '#',
    '_' and 'P'."""
    for _ in range(count):
        data = bytearray(valid)
        for _ in range(rng.randint(1, 3)):
            end = len(data) if rng.random() < 0.5 else min(len(data), 16)
            at = rng.randint(0, end)
            byte = (rng.choice(alphabet) if rng.random() < 0.8
                    else rng.randrange(256))
            edit = rng.choice(("replace", "insert", "drop"))
            if edit == "insert":
                data.insert(at, byte)
            elif at < len(data):
                if edit == "replace":
                    data[at] = byte
                else:
                    del data[at:at + rng.choice((1, 2, len(data)))]
        yield bytes(data)


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


def unfolded_space_system(image, h, ridge=0.0, region=None):
    """The space-route system before ``ipsf.space_system`` folds it,
    rebuilt from the grid primitives: the Gram of the (2l-1) x (2m-1)
    windows of the image re-degraded by h and cut to ``region`` (top,
    left, rows, cols; by default the whole image), with ``ridge`` added to
    its diagonal in place, and those windows' products with the
    original's window centres."""
    l, m = h.shape
    wl, wm = 2 * l - 1, 2 * m - 1
    top, left, rows, cols = region or (0, 0, *image.shape)
    cut = (slice(top, top + rows), slice(left, left + cols))
    y = nd.convolve(image, h)[cut]
    ni, nk = y.shape[0] - wl + 1, y.shape[1] - wm + 1
    centers = image[cut][l - 1:l - 1 + ni, m - 1:m - 1 + nk]
    ryy = window_gram(y, wl, wm)
    ryy.flat[::ryy.shape[0] + 1] += ridge
    return ryy, correlation_lags(centers, y, rows=wl)[:, :wm].ravel()


def centrosymmetric_grids(l, m):
    """Columns e_t + e_(n-1-t) and the centre tap: a basis of every
    centrosymmetric l x m grid, built apart from the fold.  It is the
    unnormalised expansion E the folded solves used before the fold was
    orthonormal; its columns are those of Q^T (:func:`orthonormal_fold`)
    times sqrt(2), the centre column times 1."""
    n = l * m
    grids = np.zeros((n, (n + 1) // 2))
    for t in range((n + 1) // 2):
        grids[t, t] = grids[n - 1 - t, t] = 1.0
    return grids


def orthonormal_fold(n, odd=False):
    """The dense orthonormal fold Q of n taps, built apart from
    :func:`nsdeblur.grid.fold`: row t < n // 2 is (e_t + e_(n-1-t)) /
    sqrt(2), or (e_t - e_(n-1-t)) / sqrt(2) when ``odd``, and the even
    fold of an odd n ends with the centre row e_(n//2)."""
    rows = []
    for t in range(n // 2):
        row = np.zeros(n)
        row[t] = np.sqrt(0.5)
        row[n - 1 - t] = -np.sqrt(0.5) if odd else np.sqrt(0.5)
        rows.append(row)
    if n % 2 and not odd:
        rows.append(np.eye(n)[n // 2])
    return np.array(rows).reshape(-1, n)


def fold_pairs_blocks(gram):
    """The even and odd blocks ``compute_cns`` diagonalised before the
    fold had its own function, assembled as it did: the rotation-pair
    sums (B[lo,lo] + B[hi,hi]) +- (B[lo,hi] + B[hi,lo]) times 0.5, and
    the centre row and column sqrt(1/2) (B[c,lo] + B[c,hi])."""
    n = gram.shape[0]
    h = n // 2
    lo, hi = slice(0, h), slice(n - 1, (n - 1) // 2, -1)
    even, odd = np.empty((h + 1, h + 1)), np.empty((h, h))
    for out, sign in ((even[:h, :h], np.add), (odd, np.subtract)):
        np.add(gram[lo, lo], gram[hi, hi], out=out)
        sign(out, gram[lo, hi] + gram[hi, lo], out=out)
    even[:h, :h] *= 0.5
    odd *= 0.5
    even[h, :h] = even[:h, h] = np.sqrt(0.5) * (gram[h, lo] + gram[h, hi])
    even[h, h] = gram[h, h]
    return even, odd


def shifted_taps(taps, l, m):
    """(l*m) x ((a+l-1)*(b+m-1)) matrix for an a x b tap block: row
    s_i*m + s_k holds the taps placed at offset (s_i, s_k) of the
    (a+l-1) x (b+m-1) grid, flattened row-major.  Its product with a
    flattened grid u evaluates sum taps * u[s_i:s_i+a, s_k:s_k+b] at
    every offset; with the stencil it is the model operator A, and the
    product of flattened l x m grids with it the full convolutions of
    :func:`nsdeblur.grid.full_convolutions`."""
    a, b = taps.shape
    mat = np.zeros((l, m, a + l - 1, b + m - 1))
    for s_i in range(l):
        for s_k in range(m):
            mat[s_i, s_k, s_i:s_i + a, s_k:s_k + b] = taps
    return mat.reshape(l * m, -1)


def dense_eigensystem(op):
    """numpy's eigh of the dense product A A^T, built from
    :func:`shifted_taps`: eigenvalues ascending, eigenvectors in columns."""
    mat = shifted_taps(op.stencil, op.l, op.m)
    return np.linalg.eigh(mat @ mat.T)


def full_unfold_null_side(op, force_single=False):
    """(null vectors, squared grids) as ``compute_cns`` assembled them
    when it unfolded every eigenvector: the blocks' eigenvalues merged in
    descending order, each eigenvector unfolded into the column of its
    rank of an l*m x l*m column-major matrix, and the columns past the
    split sliced off it."""
    n = op.l * op.m
    gram = operator_gram(op)
    w_even, v_even = np.linalg.eigh(fold_gram(gram))
    w_odd, v_odd = np.linalg.eigh(fold_gram(gram, odd=True))
    order = np.argsort(-np.concatenate((w_even, w_odd)), kind="stable")
    lam = np.concatenate((w_even, w_odd))[order]
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    vectors = np.empty((n, n), order="F")
    vectors[:, rank[:w_even.size]] = unfold(v_even.T, n).T
    vectors[:, rank[w_even.size:]] = unfold(v_odd.T, n, odd=True).T
    split = n - 1 if force_single else max(_pick_split(lam),
                                           n - MAX_NULL_DIM)
    null = vectors[:, split:].T
    return vectors[:, split:], (null * null).reshape(n - split, op.l, op.m)


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


#: Pole of the 1D notch filters :func:`smooth_stencil` is built from.
_NOTCH_POLE = 0.996


def ar_texture(stencil, shape: tuple[int, int], noise_amp: float = 1e-3,
               seed: int = 0) -> np.ndarray:
    """Texture whose stencil-weighted sums are white noise of amplitude
    ``noise_amp``: synthesized in the frequency domain by inverting the
    stencil's symbol (the stencil acts as a correlation).

    The field is shifted and scaled into [0.05, 0.95]; through the constant
    offset the stencil sums pick up a small DC leak proportional to the
    stencil's tap sum.
    """
    st = as_kernel(stencil)
    rng = np.random.default_rng(seed)
    n = rng.standard_normal(shape) * noise_amp
    pad = np.zeros(shape)
    pad[:st.shape[0], :st.shape[1]] = st
    pad = np.roll(pad, (-(st.shape[0] // 2), -(st.shape[1] // 2)), axis=(0, 1))
    sym = np.conj(np.fft.fft2(pad))
    mag = np.abs(sym)
    sym = np.where(mag < 1e-9, 1e-9, sym)
    img = np.real(np.fft.ifft2(np.fft.fft2(n) / sym))
    img -= img.min()
    img /= max(img.max(), _LUMA_EPS)
    return 0.05 + 0.9 * img


def smooth_stencil(p: int, q: int) -> np.ndarray:
    """Symmetric separable stencil with a deep low-frequency notch: the
    outer product of 1D filters [-pole/2, 1, -pole/2] (pole
    :data:`_NOTCH_POLE`) stretched to the requested odd orders.  Its unit
    center makes it a valid model stencil; images synthesized from it are
    smooth, natural-like fields."""
    def axis_filter(n: int) -> np.ndarray:
        f = np.array([-_NOTCH_POLE / 2.0, 1.0, -_NOTCH_POLE / 2.0])
        while f.size < n:
            g = np.convolve(f, np.array([-0.25, 1.0, -0.25]))
            f = g / g[g.size // 2]
        return f

    fx = axis_filter(p)
    fy = axis_filter(q)
    st = np.outer(fx, fy)
    return st / st[p // 2, q // 2]


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

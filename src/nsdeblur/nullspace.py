"""Eigen/null split of the model operator's Gram matrix.

The Gram matrix B = A A^T is small (l*m square); its large-eigenvalue side
carries the image structure the stencil failed to cancel, while the
small-eigenvalue ("null") side spans the kernels compatible with the blur.
B is read from the stencil's autocorrelation, not from A, and it is
unchanged by a 180-degree rotation of the tap grid, so it is diagonalised
as its even and odd folds (:func:`nsdeblur.grid.fold_gram`), two blocks
of about half its size (Cantoni & Butler, Linear Algebra Appl. 13, 1976):
every eigenvector is exactly even or odd, and every squared grid exactly
centrosymmetric.  Only the null side, where the PSF is sought, is kept.
The split threshold is half the leading eigenvalue, snapped to the largest
adjacent spectral gap below it.  Null-side dimension shrinks as blur grows,
but it also moves with the image alone, so it is no blur-severity readout
on its own: on one 256 x 256 texture under one blur, brightness/contrast
remaps move it from 43 to 6, and additive noise of sigma 0.03 from 43
to 11.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .armodel import OperatorMatrix
from .errors import DegenerateOperatorError
from .grid import correlation_lags, fold_gram, unfold

#: Cap on the null-side dimension (bounds downstream K x K solves).
MAX_NULL_DIM = 128

#: Eigen/null threshold as a fraction of the leading eigenvalue.
SPLIT_FRACTION = 0.5

#: Adjacent-eigenvalue ratio that marks a numerical rank boundary.
RANK_CLIFF = 1e6

#: Relative floor applied to eigenvalues before ratios are formed.
_RATIO_FLOOR = 1e-12


@dataclass(frozen=True)
class CnsBasis:
    """Null side of the operator Gram matrix's eigensystem: every
    eigenvalue, the eigen/null split index and the K eigenvectors past it.

    ``squared_basis[j]`` is the elementwise square of null vector j
    reshaped to the l x m kernel grid (the building blocks every kernel
    estimate is expanded in).
    """

    l: int
    m: int
    eigenvalues: np.ndarray   # (l*m,), descending
    split: int
    null_vectors: np.ndarray   # (l*m, K), orthonormal columns, column-major
    squared_basis: np.ndarray  # (K, l, m), K = l*m - split

    @property
    def null_dim(self) -> int:
        return self.eigenvalues.size - self.split

    @property
    def null_gap(self) -> float:
        """lambda[split-1] / lambda[split], both floored at a 1e-12 share of
        lambda[0], the ratio :func:`_pick_split` reads: how decisive the
        gap at the split is."""
        floor = _RATIO_FLOOR * self.eigenvalues[0]
        before, after = np.maximum(
            self.eigenvalues[self.split - 1:self.split + 1], floor)
        return float(before / after)

    @property
    def squared_flat(self) -> np.ndarray:
        """(l*m, K) matrix whose columns are the flattened squared grids."""
        return self.squared_basis.reshape(self.null_dim, -1).T


def _pick_split(lam: np.ndarray) -> int:
    """First null index: below half the top eigenvalue, snapped either to
    a decisive numerical-rank cliff anywhere below the threshold or to the
    largest adjacent gap of the steep transition zone that may follow the
    threshold crossing.  Earliest index wins ties."""
    floored = np.maximum(lam, _RATIO_FLOOR * lam[0])
    ratios = floored[:-1] / floored[1:]        # ratios[i-1] = lam[i-1]/lam[i]
    threshold = SPLIT_FRACTION * lam[0]
    below = np.nonzero(lam < threshold)[0]
    below = below[below >= 1]
    if below.size == 0:
        raise DegenerateOperatorError(
            "flat operator spectrum: no eigenvalue falls below half the "
            "leading one, no eigen/null split exists")
    first = int(below[0])
    # a true rank boundary dominates any shape-based refinement
    cliff = ratios[first - 1:]
    if cliff.max() >= RANK_CLIFF:
        return first + int(np.argmax(cliff))
    # otherwise walk down while consecutive eigenvalues keep halving; the
    # null side starts where the decay flattens
    end = first
    while end < lam.size - 1 and ratios[end - 1] >= 1.0 / SPLIT_FRACTION:
        end += 1
    if end == first:
        return first
    zone = ratios[first - 1:end]
    return first + int(np.argmax(zone))


def operator_gram(op: OperatorMatrix) -> np.ndarray:
    """B = A A^T of the shifted-stencil operator, from its stencil a alone:
    B[s, s'] = R(s' - s), with R(d) = sum_u a[u] a[u + d] the stencil's
    autocorrelation (a zero past its border).

    The lags 0 <= d_i < l, |d_k| < m come from one FFT correlation
    (:func:`nsdeblur.grid.correlation_lags`), so R differs from the dot
    products of A's rows by rounding, a small multiple of eps ||a||^2.
    The lags d_i = 0, d_k < 0 and every d_i < 0 are copied from their
    mirror R(-d), so B is exactly symmetric and exactly unchanged by the
    180-degree rotation of the tap grid.
    """
    a, l, m = op.stencil, op.l, op.m
    p, q = a.shape
    field = np.zeros((p + l - 1, q + m - 1))
    field[:p, :q] = a
    lags = correlation_lags(a, field, m - 1, rows=l)
    r = np.empty((2 * l - 1, 2 * m - 1))    # r[l-1+d_i, m-1+d_k] = R(d)
    r[l - 1:, m - 1:] = lags[:, :m]
    r[l:, :m - 1] = lags[1:, lags.shape[1] - (m - 1):]
    r[l - 1, :m - 1] = r[l - 1, m:][::-1]
    r[:l - 1] = r[l:][::-1, ::-1]
    i, k = np.arange(l), np.arange(m)
    return r[(i - i[:, None])[:, None, :, None] + l - 1,
             (k - k[:, None])[None, :, None, :] + m - 1].reshape(l * m, -1)


def compute_cns(op: OperatorMatrix, force_single: bool = False) -> CnsBasis:
    """Eigendecompose A A^T, locate the eigen/null split, keep the null side.

    B = :func:`operator_gram` is folded by the orthonormal even and odd
    folds of the tap grid (:func:`nsdeblur.grid.fold_gram`), ceil(l*m/2)
    and floor(l*m/2) square (l*m is odd).  Each block is diagonalised on
    its own, the eigenvalues merged in descending order, and only the
    eigenvectors past the split unfolded (:func:`nsdeblur.grid.unfold`),
    each into an exactly even or odd column.

    ``force_single`` keeps only the single smallest-eigenvalue vector on
    the null side (the high-order denoising mode).
    """
    n = op.l * op.m                     # odd, as l and m are
    gram = operator_gram(op)
    even, odd = fold_gram(gram), fold_gram(gram, odd=True)
    del gram
    w_even, v_even = np.linalg.eigh(even)
    w_odd, v_odd = np.linalg.eigh(odd)
    del even, odd
    lam = np.concatenate((w_even, w_odd))
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    if lam[0] <= 1e-12:
        raise DegenerateOperatorError(
            f"operator Gram matrix is numerically zero (lambda_1={lam[0]:.3e})")
    split = n - 1 if force_single else max(_pick_split(lam), n - MAX_NULL_DIM)
    picks = order[split:]
    from_even = picks < w_even.size
    # column-major: on another layout the kernel estimate's BLAS products
    # round differently
    null = np.empty((n, n - split), order="F")
    null[:, from_even] = unfold(v_even[:, picks[from_even]].T, n).T
    null[:, ~from_even] = unfold(
        v_odd[:, picks[~from_even] - w_even.size].T, n, odd=True).T
    squared = (null * null).T.reshape(n - split, op.l, op.m)
    return CnsBasis(l=op.l, m=op.m, eigenvalues=lam, split=split,
                    null_vectors=null, squared_basis=squared)

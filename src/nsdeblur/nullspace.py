"""Eigen/null split of the model operator's Gram matrix.

The Gram matrix B = A A^T is small (l*m square); its large-eigenvalue side
carries the image structure the stencil failed to cancel, while the
small-eigenvalue ("null") side spans the kernels compatible with the blur.
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
from .grid import rotation_pairs

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
    """Orthonormal eigenbasis of the operator Gram matrix with the
    eigen/null split index.

    ``vectors[:, split:]`` span the null side; ``squared_basis[j]`` is the
    elementwise square of null vector j reshaped to the l x m kernel grid
    (the building blocks every kernel estimate is expanded in).
    """

    l: int
    m: int
    eigenvalues: np.ndarray   # (l*m,), descending
    vectors: np.ndarray       # (l*m, l*m), orthonormal columns
    split: int
    squared_basis: np.ndarray  # (K, l, m), K = l*m - split

    @property
    def null_dim(self) -> int:
        return self.eigenvalues.size - self.split

    @property
    def null_vectors(self) -> np.ndarray:
        """(l*m, K) eigenvector columns spanning the null side."""
        return self.vectors[:, self.split:]

    @property
    def squared_flat(self) -> np.ndarray:
        """(l*m, K) matrix whose columns are the flattened squared grids."""
        return self.squared_basis.reshape(self.null_dim, -1).T

    @property
    def fold(self) -> np.ndarray:
        """(ceil(l*m/2), l*m) orthonormal rows: one per 180-degree rotation
        pair of flattened taps (t, l*m-1-t), adding it with weight
        1/sqrt(2), and one keeping the centre tap.  A A^T is unchanged by
        the rotation, so its eigenvectors are even or odd under it (Cantoni
        & Butler, Linear Algebra Appl. 13, 1976) and the squared grids are
        centrosymmetric: the fold keeps their norms, and its transpose
        spans them all."""
        n = self.l * self.m
        fold = np.zeros(((n + 1) // 2, n))
        for taps in rotation_pairs(n):      # row t: taps t and n-1-t
            np.fill_diagonal(fold[:, taps], np.sqrt(0.5))
        fold[n // 2:, n // 2] = 1.0          # the centre row, if n is odd
        return fold


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


def compute_cns(op: OperatorMatrix, force_single: bool = False) -> CnsBasis:
    """Eigendecompose A A^T and locate the eigen/null split.

    ``force_single`` keeps only the single smallest-eigenvalue vector on
    the null side (the high-order denoising mode).
    """
    a = op.matrix
    n = a.shape[0]
    # a @ a.T is exactly symmetric (numpy computes it with one triangle)
    values, vectors = np.linalg.eigh(a @ a.T)
    lam = values[::-1]
    # column-major: on another layout the kernel estimate's BLAS products
    # round differently
    vectors = np.asfortranarray(vectors[:, ::-1])
    if lam[0] <= 1e-12:
        raise DegenerateOperatorError(
            f"operator Gram matrix is numerically zero (lambda_1={lam[0]:.3e})")
    split = n - 1 if force_single else max(_pick_split(lam), n - MAX_NULL_DIM)
    null = vectors[:, split:].T             # C-ordered (K, l*m)
    squared = (null * null).reshape(n - split, op.l, op.m)
    return CnsBasis(l=op.l, m=op.m, eigenvalues=lam, vectors=vectors,
                    split=split, squared_basis=squared)

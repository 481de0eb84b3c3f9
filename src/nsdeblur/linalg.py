"""Dense least squares and symmetric eigendecomposition.

Thin contracts over numpy.linalg: eigenvalues are always returned in
descending order, and least squares returns the minimum-norm solution
or raises a typed error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateKernelError


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectrum of a symmetric matrix, sorted by decreasing eigenvalue.

    ``vectors[:, j]`` is the unit eigenvector for ``values[j]``.
    """

    values: np.ndarray
    vectors: np.ndarray


def lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of a x = b, with singular values
    below eps * max(a.shape) * sigma_max treated as zero.

    LAPACK's divide-and-conquer SVD (gelsd) can fail to converge on
    near-singular systems; the same solution is then taken from the plain
    SVD routine (gelss) with the same cutoff.  Raises DegenerateKernelError
    when both fail.
    """
    try:
        return np.linalg.lstsq(a, b, rcond=None)[0]
    except np.linalg.LinAlgError:
        pass
    try:
        return scipy.linalg.lstsq(a, b, cond=np.finfo(np.float64).eps
                                  * max(a.shape), lapack_driver="gelss")[0]
    except np.linalg.LinAlgError as exc:
        raise DegenerateKernelError(
            f"least-squares solve failed: {exc}") from exc


def sym_eigen(matrix, rtol: float = 1e-10) -> EigenDecomposition:
    """Full spectrum of a symmetric matrix, descending order."""
    b = np.asarray(matrix, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"matrix must be square, got {b.shape}")
    scale = np.abs(b).max()
    if scale > 0 and np.abs(b - b.T).max() > rtol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    values, vectors = np.linalg.eigh(0.5 * (b + b.T))
    order = np.argsort(values)[::-1]
    return EigenDecomposition(values=values[order], vectors=vectors[:, order])

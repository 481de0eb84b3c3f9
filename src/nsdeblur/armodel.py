"""2D autoregressive image model: coefficient estimation and the
block-Toeplitz operator of the fitted stencil, held as the stencil.

The model is a P x Q stencil ``a`` with its central element pinned to 1;
for a consistent image every stencil-weighted neighborhood sum is close
to zero.  Blur does not change the stencil (filtering commutes with it),
which is what makes the operator's null side usable for kernel recovery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateOperatorError, DimensionError,
                     InsufficientDataError)
from .grid import as_image, fold_gram, statistics_region, unfold, window_gram

#: Ridge added to the normal equations, relative to their trace.
RIDGE_SCALE = 1e-8


@dataclass(frozen=True)
class ArModel:
    """Fitted stencil with its orders and fit diagnostics."""

    p: int
    q: int
    coeffs: np.ndarray      # (p, q), center element exactly 1
    residual: float         # mean squared stencil sum over the fit region
    ridge: float            # ridge actually added to the normal equations
    region: tuple[int, int, int, int] | None = None  # (top, left, rows, cols)


@dataclass(frozen=True)
class OperatorMatrix:
    """Block-Toeplitz model operator A: every row holds the same stencil,
    shifted across an extended patch.  It is kept as the stencil and the
    l x m kernel-space shifts; the eigen/null split reads A A^T from the
    stencil's autocorrelation (:func:`nsdeblur.nullspace.operator_gram`)
    and never forms A."""

    stencil: np.ndarray     # (p, q)
    l: int
    m: int

    @property
    def p(self) -> int:
        return self.stencil.shape[0]

    @property
    def q(self) -> int:
        return self.stencil.shape[1]


def default_fit_region(image_shape: tuple[int, int], p: int, q: int,
                       region: tuple[int, int, int, int] | None = None
                       ) -> tuple[int, int, int, int]:
    """Square window (top, left, rows, cols) used for the fit: of side
    min(side of ``region``, max(2*p*q, 64)), centred in ``region``, the
    whole image by default."""
    top, left, rows, cols = region or (0, 0, *image_shape)
    side = min(rows, cols, max(2 * p * q, 64))
    return top + (rows - side) // 2, left + (cols - side) // 2, side, side


def _check_order(p: int, q: int) -> None:
    if p < 1 or q < 1 or p % 2 == 0 or q % 2 == 0:
        raise DimensionError(f"model orders must be odd and >= 1, got {p}x{q}")


def estimate_ar(image, p: int, q: int, region=None, *,
                centrosymmetric: bool = False) -> ArModel:
    """Least-squares fit of the P x Q stencil with pinned unit center.

    The center term is moved to the right-hand side and the remaining
    p*q - 1 coefficients solve the resulting normal equations, with a
    small trace-relative ridge guarding near-singular texture; a region
    whose windows are zero off their centre gets no ridge and raises
    DegenerateOperatorError.  ``region`` is an optional (top, left, rows,
    cols) window; the default is a square of side min(region side,
    max(2*p*q, 64)) centred in the image's
    :func:`nsdeblur.grid.statistics_region`, which is the whole image up
    to 256 x 256.

    ``centrosymmetric``, set by the prefilter only (folded, the default
    fit scored worse on the acceptance corpus; see the README), constrains
    the stencil to a = Q^T z, Q the orthonormal even fold of the taps,
    and solves the folded normal equations of the (p*q - 1) / 2 pair
    coordinates of z, the centre one pinned to 1
    (:func:`nsdeblur.grid.fold_gram`), 1/8 of the LU work.  The ridge
    and the residual keep their definitions: Q^T has orthonormal
    columns, so ridge * ||a_free||^2 is ridge on the folded diagonal,
    and the residual is a^T G a on the full Gram.
    """
    img = as_image(image)
    _check_order(p, q)
    if region is None:
        region = default_fit_region(img.shape, p, q,
                                    statistics_region(img, p, q))
    top, left, rows, cols = region
    if (top < 0 or left < 0 or top + rows > img.shape[0]
            or left + cols > img.shape[1]):
        raise DimensionError(f"fit region {region} outside image {img.shape}")
    if rows < p or cols < q:
        raise InsufficientDataError(
            f"fit region {rows}x{cols} smaller than model {p}x{q}")
    n_eq = (rows - p + 1) * (cols - q + 1)
    n_unknown = p * q - 1
    if n_eq < n_unknown:
        raise InsufficientDataError(
            f"{n_eq} equations for {n_unknown} unknowns; enlarge the region")

    # one pass over the windows: the free block and the center column of
    # the full Gram give the normal equations, and a^T G a the residual
    gram = window_gram(img[top:top + rows, left:left + cols], p, q)
    c = (p // 2) * q + (q // 2)         # the center's column
    diagonal = np.diagonal(gram)
    # the free block's trace, summed in the order np.trace sums it
    ridge = RIDGE_SCALE * float(
        np.concatenate((diagonal[:c], diagonal[c + 1:])).sum())
    if ridge == 0.0 and n_unknown:      # else the ridged block is definite
        raise DegenerateOperatorError(
            "model fit is singular: the fit windows are zero off their centre")
    if centrosymmetric:
        folded = fold_gram(gram)        # the centre row is c, last
        pairs = folded[:c, :c]
        pairs.flat[::c + 1] += ridge
        coeffs = unfold(np.append(np.linalg.solve(pairs, -folded[:c, c]),
                                  1.0), p * q)
    else:
        keep = np.arange(p * q) != c
        # the free block in four slice copies (np.ix_ gathers element-wise)
        free = np.empty((n_unknown, n_unknown))
        free[:c, :c] = gram[:c, :c]
        free[:c, c:] = gram[:c, c + 1:]
        free[c:, :c] = gram[c + 1:, :c]
        free[c:, c:] = gram[c + 1:, c + 1:]
        free.flat[::n_unknown + 1] += ridge     # free + ridge * I, bit for bit
        coeffs = np.empty(p * q)
        coeffs[keep] = np.linalg.solve(free, -gram[keep, c])
        coeffs[c] = 1.0
    residual = float(coeffs @ gram @ coeffs) / n_eq
    return ArModel(p=p, q=q, coeffs=coeffs.reshape(p, q),
                   residual=residual, ridge=ridge,
                   region=tuple(map(int, region)))


def build_operator(model: ArModel, l: int, m: int) -> OperatorMatrix:
    """The l*m x (p+l-1)*(q+m-1) shifted-stencil operator, held as its
    stencil: no matrix is built here.

    Row (s_i * m + s_k) carries the stencil placed at offset (s_i, s_k), so
    the product with a flattened patch evaluates the model sum at every
    kernel-space shift.  Requires l < p and m < q, both odd.
    """
    if l % 2 == 0 or m % 2 == 0 or l < 1 or m < 1:
        raise DimensionError(f"kernel dims must be odd and >= 1, got {l}x{m}")
    if l >= model.p or m >= model.q:
        raise DimensionError(
            f"kernel {l}x{m} must be strictly smaller than model "
            f"{model.p}x{model.q}")
    return OperatorMatrix(stencil=np.asarray(model.coeffs), l=l, m=m)

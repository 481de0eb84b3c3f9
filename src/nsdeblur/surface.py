"""Surface-area smoothness functional and its pointwise curvature operator.

Any 2D grid (image or kernel) is treated as a height field S(x, y) with
unit cell spacing.  The surface area sum(sqrt(1 + Sx^2 + Sy^2)) is the
shared regularization functional; its variational derivative is the
metric-weighted curvature expression evaluated pointwise.  Every
derivative is a repeated application of the same central-difference
operator (one-sided full differences on the outermost rows/columns), so
affine grids have exact slopes everywhere, quadratics have exact second
derivatives, and the pointwise curvature tracks the true gradient of the
discrete functional on smooth grids ("x" is the row axis).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .grid import as_image


def _first_derivatives(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.gradient(grid, axis=0), np.gradient(grid, axis=1)


def surface_area(grid) -> float:
    """sum over grid points of sqrt(1 + Sx^2 + Sy^2); >= point count."""
    g = as_image(grid)
    if g.shape[0] < 2 or g.shape[1] < 2:
        raise DimensionError(f"surface_area needs a >=2x2 grid, got {g.shape}")
    sx, sy = _first_derivatives(g)
    return float(np.sqrt(1.0 + sx * sx + sy * sy).sum())


def metric_determinant(grid) -> np.ndarray:
    """Pointwise 1 + Sx^2 + Sy^2 (always >= 1)."""
    g = as_image(grid)
    if g.shape[0] < 2 or g.shape[1] < 2:
        raise DimensionError(
            f"metric_determinant needs a >=2x2 grid, got {g.shape}")
    sx, sy = _first_derivatives(g)
    return 1.0 + sx * sx + sy * sy


def curvature_operator(grid) -> np.ndarray:
    """Variational derivative of :func:`surface_area`:

    (1 + Sx^2 + Sy^2)^(-3/2) * ((1 + Sy^2) Sxx + (1 + Sx^2) Syy
                                - 2 Sx Sy Sxy)

    Zero at every interior point of an affine grid.  The base of the
    power is >= 1, so no division guard is needed.
    """
    g = as_image(grid)
    if g.shape[0] < 3 or g.shape[1] < 3:
        raise DimensionError(
            f"curvature_operator needs a >=3x3 grid, got {g.shape}")
    sx, sy = _first_derivatives(g)
    sxx = np.gradient(sx, axis=0)
    syy = np.gradient(sy, axis=1)
    sxy = np.gradient(sy, axis=0)
    sigma = 1.0 + sx * sx + sy * sy
    return sigma ** -1.5 * ((1.0 + sy * sy) * sxx + (1.0 + sx * sx) * syy
                            - 2.0 * sx * sy * sxy)

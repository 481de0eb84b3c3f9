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

The curvature runs over row slabs of about :data:`SLAB_BYTES` per array
(64 rows at 512 columns), so that each slab's intermediate fields stay in
cache.  Each slab is evaluated with a halo of the two rows its differences
reach and its own rows are kept, so the result is bit for bit that of the
whole field at once.  The same pass gives the metric determinant from the
same derivative fields (:func:`curvature_fields`).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .grid import as_image

#: Bytes of one float64 row slab of the curvature, which keeps five slab
#: fields live; at 256 KB each they fit a 2 MB L2 cache, where whole
#: 512 x 512 fields (2 MB each) do not.
SLAB_BYTES = 1 << 18


def _slab_rows(cols: int) -> int:
    """Rows per slab at ``cols`` columns: 64 at 512, at least 1."""
    return max(SLAB_BYTES // (8 * cols), 1)


def _diff(f: np.ndarray, axis: int) -> np.ndarray:
    """``np.gradient(f, axis=axis)`` from slices, bit for bit: half the
    central difference inside, the one-sided difference on the two
    outermost lines."""
    out = np.empty_like(f)
    g, o = (f, out) if axis == 0 else (f.T, out.T)
    np.subtract(g[2:], g[:-2], out=o[1:-1])
    o[1:-1] *= 0.5
    np.subtract(g[1], g[0], out=o[0])
    np.subtract(g[-1], g[-2], out=o[-1])
    return out


def _first_derivatives(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return _diff(grid, 0), _diff(grid, 1)


def _by_slabs(block, g: np.ndarray, halo: int, count: int
              ) -> tuple[np.ndarray, ...]:
    """The ``count`` fields of ``block(g)``, evaluated slab by slab:
    ``block`` applied to each slab with ``halo`` rows on either side
    (fewer at the field's edges), and the slab's own rows kept."""
    rows = g.shape[0]
    step = _slab_rows(g.shape[1])
    out = tuple(np.empty(g.shape) for _ in range(count))
    for a in range(0, rows, step):
        b = min(a + step, rows)
        lo, hi = max(a - halo, 0), min(b + halo, rows)
        for whole, part in zip(out, block(g[lo:hi])):
            whole[a:b] = part[a - lo:b - lo]
    return out


def surface_area(grid) -> float:
    """sum over grid points of sqrt(1 + Sx^2 + Sy^2); >= point count."""
    g = as_image(grid)
    if g.shape[0] < 2 or g.shape[1] < 2:
        raise DimensionError(f"surface_area needs a >=2x2 grid, got {g.shape}")
    return float(np.sqrt(_metric_block(g)).sum())


def metric_determinant(grid) -> np.ndarray:
    """Pointwise 1 + Sx^2 + Sy^2 (always >= 1)."""
    g = as_image(grid)
    if g.shape[0] < 2 or g.shape[1] < 2:
        raise DimensionError(
            f"metric_determinant needs a >=2x2 grid, got {g.shape}")
    return _metric_block(g)


def _metric_block(g: np.ndarray) -> np.ndarray:
    sx, sy = _first_derivatives(g)
    return 1.0 + sx * sx + sy * sy


def curvature_operator(grid) -> np.ndarray:
    """Variational derivative of :func:`surface_area`:

    (1 + Sx^2 + Sy^2)^(-3/2) * ((1 + Sy^2) Sxx + (1 + Sx^2) Syy
                                - 2 Sx Sy Sxy)

    Zero at every interior point of an affine grid.  The base of the
    power is >= 1, so no division guard is needed.  Evaluated in place on
    the derivative fields, so it agrees with the same expression written
    out to rounding, and by row slabs, which changes no bit.
    """
    g = as_image(grid)
    if g.shape[0] < 3 or g.shape[1] < 3:
        raise DimensionError(
            f"curvature_operator needs a >=3x3 grid, got {g.shape}")
    return curvature_fields(g)[0]


def curvature_fields(g: np.ndarray, metric: bool = False
                     ) -> tuple[np.ndarray, ...]:
    """(:func:`curvature_operator`,) of ``g``, by row slabs, and with
    ``metric`` its :func:`metric_determinant` after it, bit for bit, from
    the same derivative fields.  Unchecked: ``g`` must be a finite 2D
    float64 array of at least 3 x 3; validate once where it enters."""
    return _by_slabs(lambda slab: _curvature_block(slab, metric), g, 2,
                     1 + metric)


def _curvature_block(g: np.ndarray, metric: bool) -> tuple[np.ndarray, ...]:
    sx, sy = _first_derivatives(g)
    sxx, syy, sxy = _diff(sx, 0), _diff(sy, 1), _diff(sy, 0)
    sxy *= sx
    sxy *= sy
    sxy *= 2.0                          # 2 Sx Sy Sxy
    sx *= sx
    sx += 1.0                           # 1 + Sx^2
    sy *= sy
    # (1 + Sx^2) + Sy^2, as metric_determinant rounds it
    fields = (sx + sy,) if metric else ()
    sy += 1.0                           # 1 + Sy^2
    sxx *= sy
    syy *= sx
    sxx += syy
    sxx -= sxy
    sigma = np.add(sx, sy, out=syy)
    sigma -= 1.0
    root = np.sqrt(sigma, out=sxy)
    root *= sigma                       # sigma^(3/2)
    sxx /= root
    return (sxx,) + fields

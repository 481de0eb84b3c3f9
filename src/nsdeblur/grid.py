"""Images, kernels and the discrete stencil operations every other module
builds on.

Images and kernels are plain 2D float64 arrays.  Kernels have odd dimensions
so the center tap is well defined; a normalized kernel has unit tap sum and
therefore preserves constants.  Boundary handling is selected by name:
``"replicate"`` (default everywhere an image is filtered) or ``"zero"``
(used by adjoint identities and matrix builds).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from .errors import DegenerateKernelError, DimensionError

BOUNDARY_MODES = {"replicate": "nearest", "zero": "constant"}

#: Tap-sum tolerance for a normalized kernel.
KERNEL_SUM_TOL = 1e-12

#: Window rows per block in :func:`window_gram`.
_CHUNK_ROWS = 48


def _as_float64(data, copy: bool) -> np.ndarray:
    # np.array(copy=False) raises on NumPy 2 whenever a conversion is needed
    return (np.array(data, dtype=np.float64) if copy
            else np.asarray(data, dtype=np.float64))


def as_image(data, copy: bool = False) -> np.ndarray:
    """Coerce to a finite 2D float64 array."""
    img = _as_float64(data, copy)
    if img.ndim != 2:
        raise DimensionError(f"image must be 2D, got shape {img.shape}")
    if img.size == 0:
        raise DimensionError("image must be non-empty")
    if not np.all(np.isfinite(img)):
        raise DimensionError("image contains NaN or Inf")
    return img


def as_kernel(data, copy: bool = False) -> np.ndarray:
    """Coerce to a finite 2D float64 kernel with odd dimensions."""
    k = _as_float64(data, copy)
    if k.ndim != 2:
        raise DimensionError(f"kernel must be 2D, got shape {k.shape}")
    l, m = k.shape
    if l % 2 == 0 or m % 2 == 0 or l < 1 or m < 1:
        raise DimensionError(f"kernel dims must be odd and >= 1, got {l}x{m}")
    if not np.all(np.isfinite(k)):
        raise DimensionError("kernel contains NaN or Inf")
    return k


def normalize_kernel(kernel: np.ndarray) -> np.ndarray:
    """Scale taps to unit sum.  Raises if the sum is numerically zero."""
    k = as_kernel(kernel)
    s = float(k.sum())
    if abs(s) <= KERNEL_SUM_TOL:
        raise DegenerateKernelError(
            f"kernel sums to {s:.3e}; normalization impossible")
    return k / s


def delta_kernel(l: int = 1, m: int | None = None) -> np.ndarray:
    """Identity kernel: center tap 1, all others 0."""
    if m is None:
        m = l
    k = np.zeros((l, m))
    k[l // 2, m // 2] = 1.0
    return as_kernel(k)


def _check_fits(image: np.ndarray, kernel: np.ndarray) -> None:
    if kernel.shape[0] > image.shape[0] or kernel.shape[1] > image.shape[1]:
        raise DimensionError(
            f"kernel {kernel.shape} larger than image {image.shape}")


def _mode(boundary: str) -> str:
    try:
        return BOUNDARY_MODES[boundary]
    except KeyError:
        raise DimensionError(f"unknown boundary policy {boundary!r}") from None


def convolve(image, kernel, boundary: str = "replicate") -> np.ndarray:
    """Same-size filtering: out[i,k] = sum_{l,m} kernel[l,m] * image[i+dl, k+dm]
    with (dl, dm) the tap offset from the kernel center.

    Linear in both arguments; a normalized kernel preserves constants.
    """
    img = as_image(image)
    k = as_kernel(kernel)
    _check_fits(img, k)
    return ndimage.correlate(img, k, mode=_mode(boundary), cval=0.0)


def correlate(image, kernel, boundary: str = "replicate") -> np.ndarray:
    """Adjoint of :func:`convolve`: equals convolve with the kernel rotated
    180 degrees.  With zero boundary, <convolve(a, K), b> == <a, correlate(b, K)>.
    """
    img = as_image(image)
    k = as_kernel(kernel)
    _check_fits(img, k)
    return ndimage.correlate(img, k[::-1, ::-1], mode=_mode(boundary), cval=0.0)


def gradient(image) -> np.ndarray:
    """Combined central-difference field
    0.5*(x[i+1,k] - x[i-1,k] + x[i,k+1] - x[i,k-1]) with replicate edges."""
    img = as_image(image)
    if img.shape[0] < 3 or img.shape[1] < 3:
        raise DimensionError(
            f"gradient needs at least a 3x3 image, got {img.shape}")
    p = np.pad(img, 1, mode="edge")
    return 0.5 * (p[2:, 1:-1] - p[:-2, 1:-1] + p[1:-1, 2:] - p[1:-1, :-2])


def window_gram(field: np.ndarray, p: int, q: int) -> np.ndarray:
    """Sum of w w^T over every p x q window w of ``field``, each window
    flattened row-major: the covariance-method Gram of linear prediction.

    Windows are taken in blocks of rows so the copy stays small."""
    wins = sliding_window_view(field, (p, q))
    gram = np.zeros((p * q, p * q))
    for i0 in range(0, wins.shape[0], _CHUNK_ROWS):
        block = wins[i0:i0 + _CHUNK_ROWS].reshape(-1, p * q)
        gram += block.T @ block
    return gram


def shifted_taps(taps: np.ndarray, l: int, m: int) -> np.ndarray:
    """(l*m) x ((a+l-1)*(b+m-1)) matrix for an a x b tap block: row
    s_i*m + s_k holds the taps placed at offset (s_i, s_k) of the
    (a+l-1) x (b+m-1) grid, flattened row-major.  Its product with a
    flattened grid u evaluates sum taps * u[s_i:s_i+a, s_k:s_k+b] at
    every offset."""
    a, b = taps.shape
    mat = np.zeros((l, m, a + l - 1, b + m - 1))
    for s_i in range(l):
        for s_k in range(m):
            mat[s_i, s_k, s_i:s_i + a, s_k:s_k + b] = taps
    return mat.reshape(l * m, -1)


def to_luminance(rgb: np.ndarray) -> np.ndarray:
    """Collapse an (H, W, 3) array to single-channel luminance."""
    a = np.asarray(rgb, dtype=np.float64)
    if a.ndim == 2:
        return a
    if a.ndim != 3 or a.shape[2] < 3:
        raise DimensionError(f"expected (H, W, 3) color array, got {a.shape}")
    return 0.299 * a[:, :, 0] + 0.587 * a[:, :, 1] + 0.114 * a[:, :, 2]

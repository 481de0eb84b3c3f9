"""No-reference sharpness scoring from directional time-frequency entropy,
plus the reference PSNR helper used by the test harness.

For every pixel of a central fragment a short sample line is read in each
of four directions; its discrete pseudo-Wigner distribution is normalized
into a probability vector whose order-3 Renyi entropy is averaged per
direction.  The anisotropy index is the spread (standard deviation) of the
four directional means: blur evens the directions out and lowers the
index, sharpening raises it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_integers, check_setting
from .errors import DimensionError, InputError
from .grid import as_image

#: Offsets (row, col) for the four sampling directions 0/45/90/135 degrees.
_DIRECTION_STEPS = {0: (0, 1), 45: (-1, 1), 90: (-1, 0), 135: (-1, -1)}


@dataclass(frozen=True)
class AiConfig:
    """Sample-line window and central fragment side, checked when built."""

    window: int = 8
    fragment: int = 100

    def __post_init__(self) -> None:
        check_integers(self, "window", "fragment")
        if self.window % 2 != 0 or self.window < 4:
            raise InputError(
                f"window must be even and >= 4, got {self.window}")
        check_setting("fragment", self.fragment, 1)


def psnr(image, reference, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB; inf for identical images."""
    a = as_image(image)
    b = as_image(reference)
    if a.shape != b.shape:
        raise DimensionError(f"size mismatch {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak * peak / mse))


def _line_samples(img: np.ndarray, rows, cols, step, half: int) -> np.ndarray:
    """(npixels, 2*half+1) sample lines through each pixel, replicated at
    the image border."""
    n = rows.size
    out = np.empty((n, 2 * half + 1))
    for idx, off in enumerate(range(-half, half + 1)):
        rr = np.clip(rows + off * step[0], 0, img.shape[0] - 1)
        cc = np.clip(cols + off * step[1], 0, img.shape[1] - 1)
        out[:, idx] = img[rr, cc]
    return out


def _directional_entropy(lines: np.ndarray, window: int) -> np.ndarray:
    """Order-3 Renyi entropy of the pseudo-Wigner distribution of each
    sample line (rows of ``lines``, length 2*half+1, center at half)."""
    half = window // 2
    c = lines.shape[1] // 2
    # products z[c+m] * z[c-m] for m = -half .. half-1 (window values)
    ms = np.arange(-half, half)
    prod = lines[:, c + ms] * lines[:, c - ms]
    spectrum = np.fft.fft(np.fft.ifftshift(prod, axes=1), axis=1)
    power = np.real(spectrum * np.conj(spectrum))
    total = power.sum(axis=1, keepdims=True)
    safe = np.where(total <= 0.0, 1.0, total)
    prob = np.where(total > 0.0, power / safe, 0.0)
    # flat (zero) lines carry a delta distribution: entropy zero
    prob[np.squeeze(total <= 0.0, axis=1), 0] = 1.0
    cubes = (prob ** 3).sum(axis=1)
    cubes = np.maximum(cubes, 1e-300)
    return -0.5 * np.log2(cubes)


def anisotropy_index(image, cfg: AiConfig | None = None) -> float:
    """Spread of directional pseudo-Wigner entropies over the central
    fragment; zero for fully isotropic content, higher for sharper images."""
    cfg = cfg or AiConfig()
    img = as_image(image)
    frag = cfg.fragment
    if frag > min(img.shape):
        raise DimensionError(f"fragment {frag} exceeds image {img.shape}")
    top = (img.shape[0] - frag) // 2
    left = (img.shape[1] - frag) // 2
    rows, cols = np.mgrid[top:top + frag, left:left + frag]
    rows = rows.ravel()
    cols = cols.ravel()
    half = cfg.window // 2
    means = []
    for step in _DIRECTION_STEPS.values():
        lines = _line_samples(img, rows, cols, step, half)
        means.append(float(np.mean(_directional_entropy(lines, cfg.window))))
    return float(np.std(np.asarray(means)))

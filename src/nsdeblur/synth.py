"""Synthetic degradation harness: blur kernels, impulse noise and a
deterministic test texture.

Everything is seeded and pure so experiment scripts and the test suite
can reproduce cases bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .config import check_setting
from .errors import InputError
from .grid import as_image, as_kernel, delta_kernel

_LUMA_EPS = 1e-12

#: Hard-edged blocks laid over each :func:`texture`.
_EDGE_OBJECTS = 4

#: Samples per pixel side when :func:`disk_kernel` area-samples the disk.
_DISK_SUPERSAMPLE = 8


def gaussian_shape(sigma: float, size: int | None = None) -> tuple[int, int]:
    """Shape of ``gaussian_kernel(sigma, size)``, which it checks: sigma
    finite and >= 0, size odd and >= 1; else InputError."""
    check_setting("sigma", sigma, 0)
    if size is None:
        size = 2 * int(np.ceil(3.0 * sigma)) + 1
    if size % 2 == 0 or size < 1:
        raise InputError(f"kernel size must be odd and >= 1, got {size}")
    return size, size


def gaussian_kernel(sigma: float, size: int | None = None) -> np.ndarray:
    """Sampled isotropic Gaussian, unit sum.  sigma 0 gives the identity
    kernel.  ``size`` (odd) overrides the default 2*ceil(3*sigma)+1."""
    size, _ = gaussian_shape(sigma, size)
    # no weight even one tap off the centre: the delta (tested in Python
    # floats, since the squares below overflow for sigma under ~1e-154)
    inv = 1.0 / float(sigma) if sigma else math.inf
    if math.exp(-0.5 * inv * inv) == 0.0:
        return delta_kernel(size)
    r = np.arange(size) - size // 2
    g1 = np.exp(-0.5 * (r / sigma) ** 2)
    k = np.outer(g1, g1)
    return k / k.sum()


def _motion_path(length: int, angle_deg: float
                 ) -> tuple[float, float, int, int]:
    """(di, dk, ri, rk) of a motion blur: the unit step along the angle,
    components under 1e-12 set to 0, and the kernel's row and column
    radii."""
    check_setting("length", length, 1)
    check_setting("angle_deg", angle_deg, -math.inf)
    ang = np.deg2rad(angle_deg)
    di, dk = (0.0 if abs(v) < 1e-12 else v
              for v in (np.sin(ang), np.cos(ang)))
    half = (length - 1) / 2.0
    ri = max(int(np.ceil(abs(half * di) - 1e-9)), 0)
    rk = max(int(np.ceil(abs(half * dk) - 1e-9)), 0)
    return di, dk, ri, rk


def motion_shape(length: int, angle_deg: float = 0.0) -> tuple[int, int]:
    """Shape of ``motion_kernel(length, angle_deg)``, which it checks:
    length finite and >= 1, angle finite; else InputError."""
    _, _, ri, rk = _motion_path(length, angle_deg)
    return 2 * ri + 1, 2 * rk + 1


def motion_kernel(length: int, angle_deg: float = 0.0) -> np.ndarray:
    """Uniform straight-line motion: ``length`` samples splatted
    bilinearly along the given angle, unit sum.  Angle 0 moves along the
    column axis, so length 5 at 0 degrees is the 1 x 5 kernel of 0.2s."""
    di, dk, ri, rk = _motion_path(length, angle_deg)
    ts = np.linspace(-(length - 1) / 2.0, (length - 1) / 2.0, length)
    rows, cols = 2 * ri + 1, 2 * rk + 1
    k = np.zeros((rows, cols))
    w = 1.0 / length
    for t in ts:
        fi, fk = ri + t * di, rk + t * dk
        i0, k0 = int(np.floor(fi)), int(np.floor(fk))
        ai, ak = fi - i0, fk - k0
        for oi, wi in ((0, 1 - ai), (1, ai)):
            for ok, wk in ((0, 1 - ak), (1, ak)):
                # the radii forgive 1e-9, so a splat of at most that
                # weight can land just outside the kernel: it is dropped
                if (wi * wk > 0 and 0 <= i0 + oi < rows
                        and 0 <= k0 + ok < cols):
                    k[i0 + oi, k0 + ok] += w * wi * wk
    return as_kernel(k / k.sum())


def disk_shape(radius: float) -> tuple[int, int]:
    """Shape of ``disk_kernel(radius)``, which it checks: radius finite
    and >= 0, else InputError."""
    check_setting("radius", radius, 0)
    size = 2 * int(np.ceil(radius)) + 1
    return size, size


def disk_kernel(radius: float) -> np.ndarray:
    """Defocus disk: area-sampled circular top hat, unit sum."""
    size, _ = disk_shape(radius)
    half = size // 2
    ss = _DISK_SUPERSAMPLE
    coords = (np.arange(size * ss) + 0.5) / ss - half - 0.5
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    fine = (xx * xx + yy * yy <= radius * radius).astype(np.float64)
    if not fine.any():          # a disk between the centre pixel's samples
        return delta_kernel(size)
    k = fine.reshape(size, ss, size, ss).mean(axis=(1, 3))
    return as_kernel(k / k.sum())


def add_impulse_noise(image, density: float, seed: int = 0) -> np.ndarray:
    """Salt-and-pepper corruption of a fraction ``density`` of pixels."""
    img = as_image(image).copy()
    if not 0.0 <= density <= 1.0:
        raise InputError(f"density must be in [0, 1], got {density}")
    if density == 0.0:
        return img
    rng = np.random.default_rng(seed)
    mask = rng.random(img.shape) < density
    salt = rng.random(img.shape) < 0.5
    img[mask & salt] = 1.0
    img[mask & ~salt] = 0.0
    return img


def texture(shape: tuple[int, int], seed: int = 0, rolloff: float = 1.5,
            noise_floor: float = 0.02) -> np.ndarray:
    """Natural-looking test texture in [0, 1]: power-law shaped noise with
    a few hard-edged blocks for contour content and a small white floor so
    the spectrum is full-band (as camera images are).  A side below 1
    raises InputError; below 8 px, where a block has no height or width,
    no block is drawn."""
    h, w = shape
    check_setting("texture rows", h, 1)
    check_setting("texture cols", w, 1)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(shape)
    fi = np.fft.fftfreq(h)[:, None]
    fk = np.fft.fftfreq(w)[None, :]
    radius = np.sqrt(fi * fi + fk * fk)
    radius[0, 0] = 1.0
    shaped = np.real(np.fft.ifft2(np.fft.fft2(noise) * radius ** -rolloff))
    shaped[0, 0] = shaped.mean()
    shaped = shaped / max(np.abs(shaped).max(), _LUMA_EPS)
    shaped += noise_floor * rng.standard_normal(shape)
    img = shaped - shaped.min()
    img /= max(img.max(), _LUMA_EPS)
    for _ in range(_EDGE_OBJECTS if min(h, w) >= 8 else 0):
        top, left = rng.integers(0, h - h // 4), rng.integers(0, w - w // 4)
        hh, ww = rng.integers(h // 8, h // 4), rng.integers(w // 8, w // 4)
        img[top:top + hh, left:left + ww] *= 0.55
        img[top:top + hh, left:left + ww] += 0.3
    img = np.clip(img, 0.0, 1.0)
    return 0.05 + 0.9 * img

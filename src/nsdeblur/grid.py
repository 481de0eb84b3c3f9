"""Images, kernels and the discrete stencil operations every other module
builds on.

Images and kernels are plain 2D float64 arrays.  Kernels have odd dimensions
so the center tap is well defined; a normalized kernel has unit tap sum and
therefore preserves constants.  Every filter is :func:`replicate_filter`,
which replicates the image's edge pixels past its border: one
cached-spectrum FFT path, and an exact shift for a one-tap kernel.

The package's one worker thread lives here too.  :func:`_beside` runs one
task on it while the calling thread runs another: the kernel estimate
computes the gradient moments beside the AR fit and its null basis, and
the image optimizers run each iterate on the lower rows of the image
beside the upper rows.  numpy's FFTs, ufuncs and BLAS calls release the
GIL, so on two cores the halves overlap.  Every stage that a tracer
wraps at ``pipeline``'s and ``deconv``'s names runs on the calling thread,
so the tracer sees one call stack; the worker runs only plain array work
(the gradient moments, and the optimizers' filters and curvature passes),
none of which submits to the worker.  Every result is bit for bit that of
serial evaluation: each half is the same sequence of operations on its
own buffers, wherever it runs.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateKernelError, DimensionError

#: Tap-sum tolerance for a normalized kernel.
KERNEL_SUM_TOL = 1e-12

#: Largest gain (sum of |taps|) of a usable kernel file (README: exit codes).
KERNEL_GAIN_MAX = 1e4

def _start_worker() -> None:
    """Make ``_WORKER``, the package's one worker thread.  Its thread
    starts with its first task, so importing the package starts none.  A
    forked child makes its own: the parent's thread does not exist
    there."""
    global _WORKER
    _WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="nsdeblur")


_start_worker()
os.register_at_fork(after_in_child=_start_worker)


def _beside(task, here):
    """(task(), here()), with ``task`` on the worker thread while ``here``
    runs on the calling thread.  Returns or raises only once both have
    finished; an exception of either side propagates as itself, the
    caller's first.  A task must not submit to the worker itself."""
    future = _WORKER.submit(task)
    try:
        mine = here()
    finally:
        wait((future,))
    return future.result(), mine


def as_image(data) -> np.ndarray:
    """Coerce to a finite 2D float64 array."""
    img = np.asarray(data, dtype=np.float64)
    if img.ndim != 2:
        raise DimensionError(f"image must be 2D, got shape {img.shape}")
    if img.size == 0:
        raise DimensionError("image must be non-empty")
    if not np.all(np.isfinite(img)):
        raise DimensionError("image contains NaN or Inf")
    return img


def as_kernel(data) -> np.ndarray:
    """Coerce to a finite 2D float64 kernel with odd dimensions."""
    k = np.asarray(data, dtype=np.float64)
    if k.ndim != 2:
        raise DimensionError(f"kernel must be 2D, got shape {k.shape}")
    l, m = k.shape
    if l % 2 == 0 or m % 2 == 0 or l < 1 or m < 1:
        raise DimensionError(f"kernel dims must be odd and >= 1, got {l}x{m}")
    if not np.all(np.isfinite(k)):
        raise DimensionError("kernel contains NaN or Inf")
    return k


def normalize_kernel(kernel: np.ndarray) -> np.ndarray:
    """Scale taps to unit sum.  Raises if the sum is numerically zero or
    overflows, or if a scaled tap would."""
    k = as_kernel(kernel)
    with np.errstate(over="ignore"):
        s = float(k.sum())
        out = k / s if math.isfinite(s) and abs(s) > KERNEL_SUM_TOL else None
    if out is None or not np.all(np.isfinite(out)):
        raise DegenerateKernelError(
            f"kernel sums to {s:.3e}; normalization impossible")
    return out


def delta_kernel(l: int = 1) -> np.ndarray:
    """l x l identity kernel: center tap 1, all others 0."""
    k = np.zeros((l, l))
    k[l // 2, l // 2] = 1.0
    return as_kernel(k)


def check_fits(kshape: tuple[int, int], shape: tuple[int, int]) -> None:
    """Raise :class:`DimensionError` if a kernel of ``kshape`` is larger
    than an image of ``shape`` along either axis."""
    if kshape[0] > shape[0] or kshape[1] > shape[1]:
        raise DimensionError(f"kernel {kshape} larger than image {shape}")


def convolve(image, kernel) -> np.ndarray:
    """Same-size filtering: out[i,k] = sum_{l,m} kernel[l,m] * image[i+dl, k+dm]
    with (dl, dm) the tap offset from the kernel center and the image's
    edge pixels replicated past its border.

    Linear in both arguments; a normalized kernel preserves constants.  It
    is ``replicate_filter(kernel, image.shape)(image)``.
    """
    img = as_image(image)
    return replicate_filter(kernel, img.shape)(img)


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: the lengths ``numpy.fft`` is fastest at."""
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def replicate_filter(kernel, shape: tuple[int, int]
                     ) -> Callable[[np.ndarray], np.ndarray]:
    """The :func:`convolve` for float64 images of one ``shape``, with the
    work that depends on the kernel alone done here, once: a caller
    filtering many images with one kernel builds it once.

    The kernel is applied through ``numpy.fft``: the image is edge-padded
    by the kernel radius into a zero buffer of 2·3·5-smooth size,
    transformed, multiplied by the cached spectrum of the flipped kernel,
    transformed back and cropped.  The buffer is at least as large as the
    padded image, so no wrapped sample reaches the crop; the result
    differs from the direct correlation by rounding only, a small multiple
    of log2(buffer size) eps sum|kernel| max|image|.  A kernel with one
    non-zero tap w skips the transforms: its result is w times the
    edge-replicated shift of the image, exactly, so an embedded delta
    returns the image unchanged.

    The returned function reuses its work buffers between calls (it is
    not reentrant) and returns a new array each time, or writes into
    ``out`` and returns it; ``out`` may be the image itself.  Its argument
    is not validated: validate once where the image enters.
    """
    k = as_kernel(kernel)
    check_fits(k.shape, shape)
    rows, cols = shape
    rl, rm = k.shape[0] // 2, k.shape[1] // 2
    if np.count_nonzero(k) == 1:
        (a,), (b,) = np.nonzero(k)
        w = float(k[a, b])
        source = np.ix_(np.clip(np.arange(a - rl, a - rl + rows), 0, rows - 1),
                        np.clip(np.arange(b - rm, b - rm + cols), 0, cols - 1))
        return lambda image, out=None: np.multiply(image[source], w, out=out)
    pad_r, pad_c = rows + 2 * rl, cols + 2 * rm
    size = (_fast_len(pad_r), _fast_len(pad_c))
    spectrum = _padded_rfft2(k[::-1, ::-1], size)
    # the padded image and its result share one real buffer.  Past the
    # padded image it holds zeros, restored after each inverse transform:
    # the crop never reads there, but through rounding a previous result
    # left there would change the next one's bits
    padded = np.zeros(size)
    body = padded[:pad_r, :pad_c]           # the edge-padded image
    work = np.empty(spectrum.shape, dtype=complex)

    def apply(image: np.ndarray, out: np.ndarray | None = None
              ) -> np.ndarray:
        body[rl:rl + rows, rm:rm + cols] = image
        body[:rl, rm:rm + cols] = image[0]
        body[rl + rows:, rm:rm + cols] = image[-1]
        body[:, :rm] = body[:, rm:rm + 1]
        body[:, rm + cols:] = body[:, rm + cols - 1:rm + cols]
        # rfft2 and irfft2 step by step, in place: allocating the
        # intermediate arrays on every call made a call about twice as slow
        np.fft.rfft(padded, axis=1, out=work)
        np.fft.fft(work, axis=0, out=work)
        np.multiply(work, spectrum, out=work)
        np.fft.ifft(work, axis=0, out=work)
        np.fft.irfft(work, n=size[1], axis=1, out=padded)
        crop = padded[2 * rl:2 * rl + rows, 2 * rm:2 * rm + cols]
        if out is None:
            out = crop.copy()
        else:
            out[...] = crop
        padded[pad_r:] = 0.0
        padded[:pad_r, pad_c:] = 0.0
        return out

    return apply


def gradient(image) -> np.ndarray:
    """Combined central-difference field
    0.5*(x[i+1,k] - x[i-1,k] + x[i,k+1] - x[i,k-1]) with replicate edges."""
    img = as_image(image)
    if img.shape[0] < 3 or img.shape[1] < 3:
        raise DimensionError(
            f"gradient needs at least a 3x3 image, got {img.shape}")
    p = np.pad(img, 1, mode="edge")
    return 0.5 * (p[2:, 1:-1] - p[:-2, 1:-1] + p[1:-1, 2:] - p[1:-1, :-2])


#: Window positions that a window statistic of the kernel estimate reads
#: at most (:func:`statistics_region`).
WINDOW_BUDGET = 320 * 320

#: Share of the whole image's median tile gradient energy below which a
#: bounded region's median tile counts as flat (:func:`statistics_region`).
FLAT_SHARE = 0.5


def _tile_energies(x: np.ndarray, stride: int = 1) -> np.ndarray:
    """Mean squared gradient |x[i+1,k] - x[i,k]|^2 + |x[i,k+1] - x[i,k]|^2
    over tiles of 16 x 16 pixels of the image's every ``stride``-th row,
    the rows and columns past the last whole tile dropped."""
    rows = x[:-1:stride]
    energy = x[1::stride, :-1] - rows[:, :-1]
    across = np.diff(rows, axis=1)
    np.multiply(energy, energy, out=energy)
    energy += np.multiply(across, across, out=across)
    t = 16
    th, tw = energy.shape[0] // t, energy.shape[1] // t
    bands = energy[:th * t].reshape(th, t, energy.shape[1]).sum(axis=1)
    return bands[:, :tw * t].reshape(th, tw, t).sum(axis=2) / (t * t)


def bounded_shape(shape: tuple[int, int], p: int, q: int) -> tuple[int, int]:
    """(rows, cols) of a centred :func:`statistics_region` of an image of
    ``shape``: each side at most sqrt(WINDOW_BUDGET) + max(p, q) - 1."""
    side = math.isqrt(WINDOW_BUDGET) + max(p, q) - 1
    return min(shape[0], side), min(shape[1], side)


def statistics_region(image, p: int, q: int) -> tuple[int, int, int, int]:
    """Region (top, left, rows, cols) over which the kernel estimate reads
    the window statistics of a p x q window: the whole image when each
    side is at most sqrt(WINDOW_BUDGET) + max(p, q) - 1 (336 at 17 x 17),
    so any image of at most 256 x 256; else the centred rectangle of that
    side (the image's own where shorter).

    A least-squares statistic converges with its number of windows, not
    the image's area: linear prediction's covariance method fits over a
    chosen frame (Makhoul, Proc. IEEE 63, 1975), and blind kernel
    estimates read one patch (Fergus et al., SIGGRAPH 2006).  On 48
    blurred 512 x 512 textures, against the whole image, the mean kernel
    NCC changed by -0.0042, -0.0003 and -0.0006 at 256^2, 320^2 and 384^2
    windows, and the mean one-shot PSNR change rose by 2.8, 2.3 and
    1.3 dB (CHANGES.md).

    The centred region is checked against the image's content: when the
    median of its 16 x 16 tiles' mean squared gradients is below
    FLAT_SHARE of the image's median tile, taken on every k-th row (k the
    image's area over the region's, rounded up), the whole image is
    returned; the check takes 1.0-1.6 ms up to 2048 x 2048.  A median is
    not held up by the edges around a flat patch, as a mean is: with a
    constant 328 x 328 centre in a 512 x 512 texture the region's mean
    squared gradient was 0.31-0.98 of the image's, and the region alone
    gave K = 3-5 and NCC -0.71 to 0.54."""
    x = np.asarray(image)
    rows, cols = x.shape
    h, w = bounded_shape(x.shape, p, q)
    if (h, w) == (rows, cols):
        return 0, 0, rows, cols
    top, left = (rows - h) // 2, (cols - w) // 2
    centre = _tile_energies(x[top:top + h, left:left + w])
    # about as many pixels as the region, in at least one row of tiles
    stride = max(1, min(-(-rows * cols // (h * w)), (rows - 1) // 16))
    whole = _tile_energies(x, stride)
    if (centre.size and whole.size
            and np.median(centre) < FLAT_SHARE * np.median(whole)):
        return 0, 0, rows, cols
    return top, left, h, w


def region_with_halo(image: np.ndarray, region: tuple[int, int, int, int],
                     halo: tuple[int, int]
                     ) -> tuple[np.ndarray, tuple[slice, slice]]:
    """(view, inner): ``image`` cut to ``region`` (top, left, rows, cols)
    grown by halo = (rows, cols) pixels on each side as far as the image
    reaches, and the slices of the region within that view.  A filter of
    at most that radius gives the whole image's values on the region, at
    the image's own edges too.  A region outside the image raises
    DimensionError."""
    top, left, rows, cols = region
    if (min(region) < 0 or top + rows > image.shape[0]
            or left + cols > image.shape[1]):
        raise DimensionError(f"region {region} outside image {image.shape}")
    t0, l0 = max(top - halo[0], 0), max(left - halo[1], 0)
    view = image[t0:top + rows + halo[0], l0:left + cols + halo[1]]
    return view, (slice(top - t0, top - t0 + rows),
                  slice(left - l0, left - l0 + cols))


def window_gram(field: np.ndarray, p: int, q: int) -> np.ndarray:
    """Sum of w w^T over every p x q window w of ``field``, each window
    flattened row-major: the covariance-method Gram of linear prediction.

    With nR x nC window positions, entry ((a,b),(c,d)) is
    G = sum_{i<nR, k<nC} F[i+a, k+b] F[i+c, k+d].  It is not formed window
    by window (O(nR nC (pq)^2)) but from two exact shift recursions, the
    Toeplitz-block-Toeplitz structure of the covariance method (Makhoul,
    Proc. IEEE 1975).  With W(y, y') the q x q matrix
    W[b,d] = sum_{k<nC} F[y, k+b] F[y', k+d] of two field rows:

    - rows: block (a,c) = block (a-1,c-1) + U(a,c) for the update block
      U(a,c) = W(a-1+nR, c-1+nR) - W(a-1, c-1);
    - columns: W[b,d] = W[b-1,d-1] + F[y, b-1+nC] F[y', d-1+nC]
      - F[y, b-1] F[y', d-1], so each update block follows from its first
      row, one product of the top (bottom) p-1 rows with their own q-wide
      windows, and its first column, the first row of U(c,a); the steps
      for row b of every update block are one rank-4 outer product;
    - first block row: entries (0,d) and (b,0) of each block (0,u) are lags
      of one FFT correlation (:func:`correlation_lags`) of the top-left
      nR x nC block with the field, and the column recursion over the nR
      window rows fills the rest; a (b,0) entry adds the at most q-1
      column pairs the correlation cuts off at the right edge.

    Lower blocks are copied from the upper ones, so the result is exactly
    symmetric.  A first-block-row entry is an FFT lag (rounding error a
    small multiple of log2(HW) eps ||F||^2 for an H x W field with
    Frobenius norm ||F||) plus at most q-1 column steps, each rounded at
    the scale of a sum of nR products.  An entry of block row a adds a
    update entries, each an nC-term first row or column plus at most q-1
    column steps of four products, so it carries up to pq roundings, each
    at a scale below ||F||^2: |error| is below a small multiple of
    (log2(HW) + pq) eps ||F||^2.  Observed errors are far smaller:
    against a window-by-window sum, 1e-15 to 2e-15 of the largest entry.
    The work is O(HW log(HW) + nR p q^2 + nC p^2 q + (pq)^2) and the
    memory O((pq)^2 + (nR + nC) p q).
    """
    f = np.asarray(field, dtype=np.float64)
    n_r, n_c = f.shape[0] - p + 1, f.shape[1] - q + 1
    n = p * q
    gram = np.empty((n, n))
    gram[:q] = _first_block_row(f, p, q).transpose(1, 0, 2).reshape(q, n)
    if p > 1:
        _update_blocks(f[n_r:], f[:p - 1], q,
                       gram.reshape(p, q, n)[1:, :, q:])
        for a in range(1, p):
            t = (a - 1) * q
            gram[a * q:(a + 1) * q, a * q:] += gram[t:t + q, t:n - q]
    lower = np.tril_indices(q, -1)
    for a in range(p):
        rows = slice(a * q, (a + 1) * q)
        gram[rows, :a * q] = gram[:a * q, rows].T
        diag = gram[rows, rows]
        diag[lower] = diag.T[lower]
    return gram


def _update_blocks(bottom: np.ndarray, top: np.ndarray, q: int,
                   out: np.ndarray) -> None:
    """out[y, b, y'q + d] = W_bottom(y, y')[b, d] - W_top(y, y')[b, d] for
    the r rows of each set, W(y, y')[b, d] = sum_{k<nC} rows[y, k+b]
    rows[y', k+d] and nC = row length - q + 1; ``out`` is (r, q, rq)."""
    r, n_c = len(bottom), bottom.shape[1] - q + 1

    def first_rows(rows: np.ndarray) -> np.ndarray:
        # [y, y'q + d] = W(y, y')[0, d]
        wins = sliding_window_view(rows, q, axis=1).transpose(1, 0, 2)
        return rows[:, :n_c] @ wins.reshape(n_c, -1)

    out[:, 0] = first_rows(bottom) - first_rows(top)
    # first columns: W(y, y')[b, 0] = W(y', y)[0, b]
    first_cols = out[:, 0].reshape(r, r, q)[:, :, 1:].transpose(1, 2, 0)
    # W(y, y')[b, .] = W(y, y')[b-1, .] shifted one column along, plus the
    # step sum_j left[y, j, b-1] right[j, y'q + d-1] over the column pairs
    # (b-1+nC, d-1+nC) and (b-1, d-1) of each row set.  Shifting whole
    # rows of out carries entry (y'-1, q-1) into (y', 0), which is then
    # overwritten by the first column
    ends = np.zeros((4, r, q))
    ends[:, :, :-1] = (bottom[:, n_c:], bottom[:, :q - 1],
                       top[:, n_c:], top[:, :q - 1])
    right = ends.reshape(4, -1)
    left = ends.transpose(1, 0, 2) * np.array([1.0, -1.0, -1.0, 1.0])[:, None]
    for b in range(1, q):
        step = left[:, :, b - 1] @ right
        np.add(out[:, b - 1, :-1], step[:, :-1], out=out[:, b, 1:])
        out[:, b, ::q] = first_cols[:, b - 1]


def correlation_lags(template: np.ndarray, field: np.ndarray,
                     margin: int = 0, rows: int | None = None) -> np.ndarray:
    """lags[u, v] = sum_{i,k} template[i, k] field[i+u, k+v] from one FFT
    product, valid for 0 <= u <= H - h and -margin <= v <= W - w with
    (h, w) the template's and (H, W) the field's shape; a negative lag v
    is read at column index v, from the end.  With ``rows``, only the lags
    u < rows are returned, and only those rows are transformed back.

    Both operands are zero-padded to 2·3·5-smooth lengths of at least
    H x (W + margin).  Zero padding past that wraps no lag in range, so the
    lengths change the result by rounding only.  The transforms are those
    of ``numpy.fft.rfft2`` and ``irfft2``, step by step in two complex
    buffers, so the lags are theirs bit for bit, ``rows`` or not.
    """
    shape = (_fast_len(field.shape[0]), _fast_len(field.shape[1] + margin))
    spec = _padded_rfft2(field, shape)
    conj = _padded_rfft2(template, shape)
    np.conjugate(conj, out=conj)
    np.multiply(conj, spec, out=spec)
    np.fft.ifft(spec, axis=0, out=spec)
    return np.fft.irfft(spec[:rows], n=shape[1], axis=1)


def full_convolutions(grids: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """(K, (2l-1)*(2m-1)) full convolutions of a (K, l, m) stack of grids
    with an l x m kernel, flattened row-major, as a view: with rows laid
    out 2m-1 apart no product passes a row's end, so they are 1D full
    convolutions, one batched FFT product at the 2·3·5-smooth length of
    at least (2l-1)(2m-1), where nothing wraps.  Rounding error: a small
    multiple of log2(lm) eps max|grids| sum|kernel|."""
    k, l, m = grids.shape
    full = (2 * l - 1) * (2 * m - 1)
    n = _fast_len(full)
    wide = np.zeros((k + 1, l, 2 * m - 1))
    wide[:k, :, :m] = grids
    wide[k, :, :m] = kernel
    spec = np.fft.rfft(wide.reshape(k + 1, -1), n=n)
    spec[:k] *= spec[k]
    return np.fft.irfft(spec[:k], n=n)[:, :full]


def _padded_rfft2(a: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """``numpy.fft.rfft2(a, s=shape)`` in one buffer, for ``a`` no larger
    than ``shape``."""
    out = np.zeros((shape[0], shape[1] // 2 + 1), dtype=complex)
    np.fft.rfft(a, n=shape[1], axis=1, out=out[:a.shape[0]])
    return np.fft.fft(out, axis=0, out=out)


def _first_block_row(f: np.ndarray, p: int, q: int) -> np.ndarray:
    """B[u, b, d] = sum_{i<nR, k<nC} f[i, k+b] f[i+u, k+d] for u < p."""
    rows, cols = f.shape
    n_r, n_c = rows - p + 1, cols - q + 1
    lags = correlation_lags(f[:n_r, :n_c], f, q - 1, rows=p)
    block = np.empty((p, q, q))
    block[:, 0, :] = lags[:, :q]
    block[:, 1:, 0] = lags[:, -1:-q:-1]
    if q == 1:
        return block

    def pair_sums(left_cols: np.ndarray, right_cols: np.ndarray) -> np.ndarray:
        # [x, u, y] = sum_{i<nR} left_cols[i, x] right_cols[i + u, y]
        shifted = sliding_window_view(right_cols, n_r, axis=0)
        stacked = shifted.transpose(2, 0, 1).reshape(n_r, -1)
        return (left_cols[:n_r].T @ stacked).reshape(
            left_cols.shape[1], p, right_cols.shape[1])

    lo, hi = f[:, :q - 1], f[:, n_c:]
    # column recursion steps: pairs (nC+x, nC+y) minus pairs (x, y)
    steps = pair_sums(hi, hi) - pair_sums(lo, lo)
    # lag -b of the correlation misses the pairs (k+b, k) for k >= nC-b;
    # edge column j is column nC-1-j
    edge = f[:, n_c - 1::-1][:, :q - 1]
    cut = pair_sums(hi, edge)
    for b in range(1, q):
        j = np.arange(min(b, edge.shape[1]))
        block[:, b, 0] += cut[b - 1 - j, :, j].sum(axis=0)
        block[:, b, 1:] = block[:, b - 1, :-1] + steps[b - 1]
    return block


def _rotation_pairs(n: int) -> tuple[slice, slice]:
    """The taps a 180-degree rotation swaps in a flattened grid of n taps:
    (lo, hi) with lo[t] = t and hi[t] = n-1-t for t < n // 2.  An odd n
    leaves its centre tap n // 2 unpaired."""
    return slice(0, n // 2), slice(n - 1, (n - 1) // 2, -1)


def fold(a: np.ndarray, odd: bool = False) -> np.ndarray:
    """Q a along axis 0, for the orthonormal fold Q of n = len(a) taps:
    row t < n // 2 is (e_t +- e_(n-1-t)) / sqrt(2), + in the even fold and
    - in the ``odd`` one, and the even fold of an odd n ends with the
    centre row e_(n//2).  The rows of both folds are an orthonormal basis
    of the taps, even and odd under the 180-degree rotation of the tap
    grid (Cantoni & Butler, Linear Algebra Appl. 13, 1976).  A row is
    sqrt(1/2) a[t] +- sqrt(1/2) a[n-1-t], so a fold drops the part of
    ``a`` of the other parity exactly."""
    n = len(a)
    h, centre = n // 2, n % 2 and not odd
    lo, hi = _rotation_pairs(n)
    out = np.empty((h + centre,) + a.shape[1:])
    weight = np.sqrt(0.5)
    (np.subtract if odd else np.add)(weight * a[lo], weight * a[hi],
                                     out=out[:h])
    if centre:
        out[h] = a[h]
    return out


def fold_gram(matrix: np.ndarray, odd: bool = False) -> np.ndarray:
    """Q M Q^T for the fold Q of :func:`fold`: the pair block
    0.5 * ((M[lo,lo] + M[hi,hi]) +- (M[lo,hi] + M[hi,lo])) over the
    rotation pairs (lo, hi), and in the even fold of an odd n the centre
    row sqrt(1/2) (M[c,lo] + M[c,hi]), the centre column likewise and
    M[c,c].  A symmetric M folds to an exactly symmetric block.  Slices
    only, O(n^2); a dense Q M Q^T would cost more than the solve or
    eigendecomposition it halves."""
    n = matrix.shape[0]
    h, centre = n // 2, n % 2 and not odd
    lo, hi = _rotation_pairs(n)
    out = np.empty((h + centre,) * 2)
    pairs = out[:h, :h]
    np.add(matrix[lo, lo], matrix[hi, hi], out=pairs)
    cross = matrix[lo, hi] + matrix[hi, lo]
    (np.subtract if odd else np.add)(pairs, cross, out=pairs)
    pairs *= 0.5
    if centre:
        out[h, :h] = np.sqrt(0.5) * (matrix[h, lo] + matrix[h, hi])
        out[:h, h] = np.sqrt(0.5) * (matrix[lo, h] + matrix[hi, h])
        out[h, h] = matrix[h, h]
    return out


def unfold(z: np.ndarray, n: int, odd: bool = False) -> np.ndarray:
    """Q^T z along the last axis, for the fold Q of n taps of
    :func:`fold`: n-tap vectors that are exactly centrosymmetric, or
    exactly antisymmetric with a zero centre tap for the ``odd`` fold."""
    h = n // 2
    lo, hi = _rotation_pairs(n)
    out = np.empty(z.shape[:-1] + (n,))
    np.multiply(np.sqrt(0.5), z[..., :h], out=out[..., lo])
    (np.negative if odd else np.positive)(out[..., lo], out=out[..., hi])
    if n % 2:
        out[..., h] = 0.0 if odd else z[..., h]
    return out


def to_luminance(rgb: np.ndarray) -> np.ndarray:
    """Collapse an (H, W, 3) array to single-channel luminance."""
    a = np.asarray(rgb, dtype=np.float64)
    if a.ndim == 2:
        return a
    if a.ndim != 3 or a.shape[2] < 3:
        raise DimensionError(f"expected (H, W, 3) color array, got {a.shape}")
    return 0.299 * a[:, :, 0] + 0.587 * a[:, :, 1] + 0.114 * a[:, :, 2]

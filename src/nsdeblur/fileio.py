"""File formats: PGM images (P2/P5 read, P5 written, 8-bit), optional PNG
via Pillow, kernel tap files and plain-text reports.

Loading maps [0, 255] to [0, 1]; saving clamps to [0, 1] and rounds
half-to-even.  Kernel files store taps at 17 significant digits so a
write/read round trip is lossless for doubles.  A file that cannot be read
or written raises :class:`InputError`.
"""

from __future__ import annotations

import itertools
import os
import re

import numpy as np

from .errors import DimensionError, InputError
from .grid import to_luminance


#: A PGM header token, or a # comment to the end of its line.  Bytes
#: ``\s`` matches the six characters ``bytes.isspace`` does.
_TOKEN = re.compile(rb"#[^\r\n]*|\S+")


def _tokens(data: bytes):
    """PGM header tokenizer: (token, end offset) pairs, whitespace
    separated, # comments to EOL skipped."""
    for match in _TOKEN.finditer(data):
        if not match.group().startswith(b"#"):
            yield match.group(), match.end()


def _number(tok: bytes) -> int:
    """The value of a number token of a PGM or kernel file header, ASCII
    digits only: ``int`` alone also takes a sign and underscores.  Raises
    ValueError otherwise, as ``int`` does past its digit limit."""
    if not tok.isdigit():
        raise ValueError(f"not a header number: {tok!r}")
    return int(tok)


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit P2/P5 PGM into a float image in [0, 1]."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    toks = _tokens(raw)
    header = list(itertools.islice(toks, 4))
    try:
        (magic, _), (w_tok, _), (h_tok, _), (max_tok, end) = header
        width, height, maxval = map(_number, (w_tok, h_tok, max_tok))
    except ValueError as exc:       # too few tokens, or a non-number
        raise InputError(f"{path}: malformed PGM header") from exc
    if maxval != 255:
        raise InputError(f"{path}: only 8-bit PGM supported (maxval 255)")
    if width < 1 or height < 1:
        raise InputError(f"{path}: bad dimensions {width}x{height}")
    n = width * height
    if magic == b"P5":
        if len(raw) < end + 1 + n:
            raise InputError(f"{path}: truncated P5 payload")
        # 8-bit samples cannot leave [0, 255]
        samples = np.frombuffer(raw, np.uint8, count=n, offset=end + 1)
    elif magic == b"P2":
        vals = []
        for tok, _ in toks:
            try:
                vals.append(_number(tok))
            except ValueError:
                raise InputError(
                    f"{path}: bad P2 sample {tok.decode(errors='replace')!r}"
                ) from None
            # checked here: a long digit string overflows a float
            if vals[-1] > 255:
                raise InputError(f"{path}: sample out of 8-bit range")
            if len(vals) == n:
                break
        if len(vals) < n:
            raise InputError(f"{path}: truncated P2 payload")
        samples = np.array(vals, dtype=np.float64)
    else:
        raise InputError(f"{path}: not a P2/P5 PGM file")
    return (samples / 255.0).reshape(height, width)


def quantize(image: np.ndarray) -> np.ndarray:
    """Clamp to [0, 1], scale to 8 bits, round half-to-even."""
    out = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    out *= 255.0
    return np.rint(out, out=out).astype(np.uint8)


def _write(path, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def write_text(path, text: str) -> None:
    """Write a plain-text file (reports, manifests) as UTF-8."""
    _write(path, text.encode("utf-8"))


def write_pgm(path, image) -> None:
    """Write a float image in [0, 1] as an 8-bit binary (P5) PGM."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise DimensionError(f"image must be 2D, got {img.shape}")
    q = quantize(img)
    height, width = q.shape
    _write(path, f"P5\n{width} {height}\n255\n".encode("ascii") + q.tobytes())


def _png_module():
    try:
        from PIL import Image
    except ImportError as exc:
        raise InputError(
            "PNG support requires the optional pillow dependency "
            "(pip install nsdeblur[png])") from exc
    return Image


def read_image(path) -> np.ndarray:
    """Load PGM or PNG into a single-channel float image in [0, 1];
    multi-channel files collapse to luminance."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".pgm":
        return read_pgm(path)
    if ext == ".png":
        image_mod = _png_module()
        try:
            with image_mod.open(path) as im:
                arr = np.asarray(im, dtype=np.float64)
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
        if arr.ndim == 3:
            arr = to_luminance(arr)
        return arr / 255.0
    raise InputError(f"unsupported image format {ext!r} (use .pgm or .png)")


def write_image(path, image) -> None:
    """Save to PGM or PNG (by extension), 8-bit grayscale."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".pgm":
        write_pgm(path, image)
        return
    if ext == ".png":
        image_mod = _png_module()
        try:
            image_mod.fromarray(quantize(image), mode="L").save(path)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}") from exc
        return
    raise InputError(f"unsupported image format {ext!r} (use .pgm or .png)")


def write_kernel(path, kernel) -> None:
    """Kernel tap file: "L M" header then L rows of M taps, 17 significant
    digits each."""
    k = np.asarray(kernel, dtype=np.float64)
    if k.ndim != 2:
        raise DimensionError(f"kernel must be 2D, got {k.shape}")
    lines = [f"{k.shape[0]} {k.shape[1]}"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in k]
    write_text(path, "\n".join(lines) + "\n")


def read_kernel(path) -> np.ndarray:
    """Inverse of :func:`write_kernel` (bit-exact for doubles), and no
    more: L and M are ASCII digit strings of at least 1, the L rows hold M
    taps each that ``float`` reads without a PEP 515 underscore, and only
    whitespace follows the last row."""
    try:
        with open(path, "rb") as fh:
            header, *lines = fh.read().split(b"\n")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    rows = [line.split() for line in lines]
    try:
        l, m = map(_number, header.split())
        if min(l, m) < 1 or len(rows) < l or any(rows[l:]) or any(
                len(row) != m for row in rows[:l]):
            raise ValueError(f"not {l} rows of {m} taps, L and M >= 1")
        if any(b"_" in t for row in rows for t in row):
            raise ValueError("underscore in a tap")
        return np.array([[float(t) for t in row] for row in rows[:l]])
    except ValueError as exc:
        raise InputError(f"{path}: malformed kernel file: {exc}") from None

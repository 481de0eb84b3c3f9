import random

import numpy as np
import pytest

import nsdeblur as nd
from conftest import byte_mutants
from nsdeblur.config import format_report, make_report
from nsdeblur.errors import InputError
from nsdeblur.fileio import (_tokens, quantize, read_image, read_kernel,
                             read_pgm, write_image, write_kernel, write_pgm)


def test_pgm_binary_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.random((13, 17))
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    np.testing.assert_array_equal(quantize(back), quantize(img))


def test_pgm_ascii_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.random((7, 5))
    samples = quantize(img)
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n5 7\n255\n" + b"".join(
        b" ".join(b"%d" % v for v in row) + b"\n" for row in samples))
    np.testing.assert_array_equal(quantize(read_pgm(path)), samples)


def test_pgm_comment_and_errors(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P2\n# a comment\n2 2\n255\n0 128\n255 64\n")
    img = read_pgm(path)
    np.testing.assert_allclose(img, [[0, 128 / 255], [1.0, 64 / 255]])
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P7\n2 2\n255\n")
    with pytest.raises(InputError):
        read_pgm(bad)
    with pytest.raises(InputError):
        read_pgm(tmp_path / "missing.pgm")


LEVELS = np.arange(256, dtype=np.uint8).reshape(16, 16)


def texture_samples():
    return np.rint(nd.texture((512, 512), seed=6) * 255.0).astype(np.uint8)


@pytest.mark.parametrize("make", [lambda: LEVELS, texture_samples],
                         ids=["levels", "texture-512"])
def test_pgm_codec_matches_copying_form(tmp_path, make):
    """The P5 payload decoded in place, and quantize in one buffer, are
    bit for bit the expressions they replaced: a copied payload cast to
    float and then divided, and clip, scale and round each to a fresh
    array."""
    samples = make()
    rows, cols = samples.shape
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n%d %d\n255\n" % (cols, rows) + samples.tobytes())
    old = np.frombuffer(samples.tobytes(), dtype=np.uint8).astype(np.float64)
    image = read_pgm(path)
    assert image.tobytes() == (old / 255.0).reshape(rows, cols).tobytes()
    # half steps and values past both ends as well as the exact levels
    for x in (image, image + 0.5 / 255.0, image * 1.2 - 0.1):
        ref = np.rint(np.clip(x, 0.0, 1.0) * 255.0).astype(np.uint8)
        assert quantize(x).tobytes() == ref.tobytes()


@pytest.mark.parametrize("data, message", [
    (b"P5\n2 2\n255\n\x00\x01\x02", "truncated P5"),
    (b"P5\n2 2\n255", "truncated P5"),
    (b"P2\n2 2\n255\n0 1 2\n", "truncated P2"),
    (b"P2\n2 2\n255\n0 1 2 256\n", "out of 8-bit range"),
    (b"P2 2 2 255 1 2 x 4", "bad P2 sample 'x'"),
    (b"P2 2 2 255 1 2 3.5 4", "bad P2 sample '3.5'"),
], ids=["p5-short", "p5-no-payload", "p2-short", "p2-range", "p2-letter",
        "p2-fraction"])
def test_pgm_payload_errors(tmp_path, data, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(InputError, match=message):
        read_pgm(path)


@pytest.mark.parametrize("data", [b"P5 4", b"P2 2 2", b"P5\n8 8", b""],
                         ids=["one-field", "two-fields", "no-maxval",
                              "empty"])
def test_truncated_pgm_header(tmp_path, data):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(InputError, match="malformed PGM header"):
        read_pgm(path)


@pytest.mark.parametrize("token", ["1_0", "+2", "-1"],
                         ids=["underscore", "plus", "minus"])
@pytest.mark.parametrize("kind", ["width", "height", "maxval", "sample"])
def test_pgm_numbers_are_ascii_digits(tmp_path, kind, token):
    """``int`` takes signs and underscores; a PGM number is ASCII digits
    only, in the header and in a P2 payload alike."""
    fields = {"width": "2", "height": "2", "maxval": "255", "sample": "1"}
    fields[kind] = token
    path = tmp_path / "bad.pgm"
    path.write_bytes("P2 {width} {height} {maxval} {sample} 2 3 4".format(
        **fields).encode())
    message = ("bad P2 sample" if kind == "sample"
               else "malformed PGM header")
    with pytest.raises(InputError, match=message):
        read_pgm(path)


def test_p2_sample_too_long_for_a_float_is_out_of_range(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2 1 1 255 1" + b"0" * 400)
    with pytest.raises(InputError, match="out of 8-bit range"):
        read_pgm(path)


def test_mutated_pgm_is_read_or_rejected(tmp_path):
    """Seeded byte mutants of a valid 8 x 8 P5 and P2 file: each reads as
    a float image in [0, 1] or raises InputError, nothing else."""
    samples = np.arange(0, 256, 4, dtype=np.uint8).reshape(8, 8)
    p5 = b"P5\n8 8\n255\n" + samples.tobytes()
    p2 = b"P2\n8 8\n255\n" + b"\n".join(
        b" ".join(b"%d" % v for v in row) for row in samples) + b"\n"
    rng = random.Random(2026)
    path = tmp_path / "mutant.pgm"
    outcomes = {"read": 0, "rejected": 0}
    for valid in (p5, p2):
        for data in byte_mutants(valid, rng, 1500):
            path.write_bytes(data)
            try:
                image = read_pgm(path)
            except InputError:
                outcomes["rejected"] += 1
                continue
            assert image.dtype == np.float64 and image.ndim == 2, data
            assert 0.0 <= image.min() and image.max() <= 1.0, data
            outcomes["read"] += 1
    assert min(outcomes.values()) >= 300, outcomes


def scanned_tokens(data: bytes):
    """The byte-by-byte PGM header scanner that the compiled pattern
    replaced: whitespace-separated tokens, # comments to EOL."""
    pos = 0
    n = len(data)
    while pos < n:
        if data[pos:pos + 1].isspace():
            pos += 1
            continue
        if data[pos:pos + 1] == b"#":
            while pos < n and data[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        start = pos
        while pos < n and not data[pos:pos + 1].isspace():
            pos += 1
        yield data[start:pos], pos


def test_tokens_match_the_scanner():
    """Seeded random byte strings over digits, P, #, the six whitespace
    bytes and a few other characters give the scanner's token stream."""
    rng = random.Random(39)
    alphabet = b"0123456789P# \t\n\r\x0b\x0c_+-"
    for _ in range(20000):
        data = bytes(rng.choices(alphabet, k=rng.randrange(24)))
        assert list(_tokens(data)) == list(scanned_tokens(data)), data


def test_quantize_rounds_half_to_even():
    # 127.5/255 and 128.5/255 both round to 128
    img = np.array([[127.5 / 255.0, 128.5 / 255.0]])
    np.testing.assert_array_equal(quantize(img), [[128, 128]])
    np.testing.assert_array_equal(quantize(np.array([[-0.5, 1.5]])),
                                  [[0, 255]])


def test_png_round_trip(tmp_path):
    pytest.importorskip("PIL")
    rng = np.random.default_rng(2)
    img = rng.random((9, 11))
    path = tmp_path / "img.png"
    write_image(path, img)
    np.testing.assert_array_equal(quantize(read_image(path)), quantize(img))


def test_kernel_file_lossless(tmp_path):
    rng = np.random.default_rng(3)
    kernel = rng.standard_normal((5, 7)) * 1e-3
    path = tmp_path / "k.kern"
    write_kernel(path, kernel)
    np.testing.assert_array_equal(read_kernel(path), kernel)
    header = path.read_text().splitlines()[0]
    assert header == "5 7"


def test_kernel_file_errors(tmp_path):
    bad = tmp_path / "bad.kern"
    bad.write_text("3 3\n1 2 3\n4 5\n")
    with pytest.raises(InputError):
        read_kernel(bad)


#: Kernel files that write_kernel cannot write: name -> (text, message).
BAD_KERNEL_FILES = {
    "underscore-tap": ("1 1\n1_0\n", "underscore in a tap"),
    "signed-header": ("+1 1\n1\n", "not a header number: b'\\+1'"),
    "negative-header": ("-1 3\n", "not a header number: b'-1'"),
    "zero-header": ("0 3\n", "not 0 rows of 3 taps, L and M >= 1"),
    "text-after-rows": ("1 1\n1\n2 3 4\nxx\n", "not 1 rows of 1 taps"),
}


@pytest.mark.parametrize("name", list(BAD_KERNEL_FILES))
def test_kernel_file_accepts_only_what_write_kernel_writes(tmp_path, name):
    """Python's float reads PEP 515 underscores (1_0 is 10) and int a
    sign; a negative row count read no row at all; and the lines after
    the declared rows were ignored.  Each is refused instead."""
    text, message = BAD_KERNEL_FILES[name]
    bad = tmp_path / "bad.kern"
    bad.write_text(text)
    with pytest.raises(InputError, match=message):
        read_kernel(bad)


def test_kernel_file_may_end_in_whitespace(tmp_path):
    """Only whitespace may follow the last row: blank lines, CR LF line
    ends and a missing final newline read as written."""
    path = tmp_path / "k.kern"
    for text in ("1 2\n1 -2.5e-3\n\n \t\n", "1 2\r\n1 -2.5e-3\r\n",
                 "1 2\n1 -2.5e-3"):
        path.write_text(text, newline="")
        np.testing.assert_array_equal(read_kernel(path), [[1.0, -2.5e-3]])


def test_unsupported_format(tmp_path):
    with pytest.raises(InputError):
        read_image(tmp_path / "x.tiff")


def test_report_round_trip():
    """The iteration table keeps every trace value to the bit."""
    rep = make_report([1e-3, 5e-4, 1e-5], [0.01, 0.01, 0.005],
                      "eps_reached", transition_iter=0)
    lines = format_report(rep).splitlines()
    assert lines[0] == "k residual lambda"
    assert lines[-1] == "stop_reason: eps_reached"
    rows = np.array([[float(v) for v in ln.split()] for ln in lines[1:-1]])
    np.testing.assert_array_equal(rows[:, 0], [1, 2, 3])
    np.testing.assert_array_equal(rows[:, 1], rep.residual_trace)
    np.testing.assert_array_equal(rows[:, 2], rep.lambda_trace)

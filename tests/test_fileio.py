import numpy as np
import pytest

import nsdeblur as nd
from nsdeblur.config import format_report, make_report
from nsdeblur.errors import InputError
from nsdeblur.fileio import (quantize, read_image, read_kernel, read_pgm,
                             write_image, write_kernel, write_pgm)


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

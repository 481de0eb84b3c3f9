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

"""Seeded fuzzing of the kernel-file reader and the command line.

Each test draws its cases from stdlib ``random`` with a fixed seed and a
fixed count, so every run sees the same cases.  Kernel and settings files
are mutated byte by byte as tests/test_fileio.py mutates PGM files;
command lines are drawn for ``estimate``, ``deblur`` and ``quality`` over
small images with model orders of at most 9.
"""

import random
import warnings
from collections import Counter

import numpy as np
import pytest

import nsdeblur as nd
from conftest import byte_mutants
from nsdeblur.cli import main
from nsdeblur.errors import InputError
from nsdeblur.fileio import read_kernel, write_kernel, write_pgm

#: Files read_kernel once read wrongly: [[10]], [[1]], a (0,) array and
#: [[1]] with the lines after the declared row ignored.
MISREAD_KERNEL_FILES = (b"1 1\n1_0\n", b"+1 1\n1\n", b"-1 3\n",
                        b"1 1\n1\n2 3 4\nxx\n")


def valid_kernel_files(tmp_path) -> list[bytes]:
    """What write_kernel writes for a delta, a Gaussian and a random
    3 x 5 kernel with taps of both signs and exponents."""
    rng = np.random.default_rng(11)
    path = tmp_path / "valid.kern"
    files = []
    for kernel in (nd.delta_kernel(1), nd.gaussian_kernel(1.0, 3),
                   rng.standard_normal((3, 5)) * 10.0 ** rng.integers(
                       -8, 8, (3, 5))):
        write_kernel(path, kernel)
        files.append(path.read_bytes())
    return files


def test_mutated_kernel_file_is_read_or_rejected(tmp_path):
    """Seeded byte mutants of valid kernel files: each reads as a float
    array of its header's shape, from a file with digit-only header
    numbers and no underscore, or raises InputError, nothing else.  The
    files once misread are rejected."""
    rng = random.Random(2027)
    path = tmp_path / "mutant.kern"
    outcomes = {"read": 0, "rejected": 0}
    mutants = [m for valid in valid_kernel_files(tmp_path)
               for m in byte_mutants(valid, rng, 1000,
                                     b"0123456789+-_.eE \t\n\r")]
    for data in (*MISREAD_KERNEL_FILES, *mutants):
        path.write_bytes(data)
        try:
            kernel = read_kernel(path)
        except InputError:
            outcomes["rejected"] += 1
            continue
        assert data not in MISREAD_KERNEL_FILES, data
        header = data.split(b"\n", 1)[0].split()
        assert all(tok.isdigit() for tok in header) and b"_" not in data, data
        assert kernel.dtype == np.float64, data
        assert kernel.shape == tuple(int(tok) for tok in header), data
        outcomes["read"] += 1
    assert min(outcomes.values()) >= 500, outcomes


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Two small blurred textures, a 1 x 64 and a 64 x 1 image, and
    kernel files for deblur: usable ones (3 x 3, 5 x 5 and 1 x 1),
    unusable ones (zero, even-sized, absurd gain) and the files once
    misread."""
    root = tmp_path_factory.mktemp("fuzz")
    images = []
    for shape, seed in (((24, 24), 1), ((40, 32), 2)):
        images.append(str(root / f"t{seed}.pgm"))
        write_pgm(images[-1], nd.convolve(nd.texture(shape, seed=seed),
                                          nd.gaussian_kernel(1.0, 3)))
    square = nd.texture((64, 64), seed=3)
    for name, pixels in (("row", square[:1]), ("column", square[:, :1])):
        images.append(str(root / f"{name}.pgm"))
        write_pgm(images[-1], pixels)
    kernels = []
    for i, taps in enumerate((nd.delta_kernel(3), nd.gaussian_kernel(1.0, 5),
                              nd.delta_kernel(1),
                              np.zeros((3, 3)), np.full((2, 2), 0.25),
                              np.array([[-5e3, 1e4 + 1.0, -5e3]]))):
        kernels.append(str(root / f"k{i}.kern"))
        write_kernel(kernels[-1], taps)
    for i, data in enumerate(MISREAD_KERNEL_FILES):
        kernels.append(str(root / f"bad{i}.kern"))
        (root / f"bad{i}.kern").write_bytes(data)
    return images, kernels


def draw(rng: random.Random, good, bad=()):
    """Mostly one of ``good``, one time in six one of ``bad``."""
    return rng.choice(bad if bad and rng.random() < 1 / 6 else good)


def pick_flags(rng: random.Random, choices: dict) -> list[str]:
    """Flags drawn from ``choices``: flag -> (chance of the flag, its
    value as drawn by :func:`draw`, a tuple for several arguments and
    None for none)."""
    argv = []
    for flag, (chance, value) in choices.items():
        if rng.random() < chance:
            argv += [flag, *(value if isinstance(value, tuple)
                             else () if value is None else (value,))]
    return argv


def draw_argv(rng: random.Random, images, kernels, out) -> list[str]:
    """One command line; ``kernels`` holds three usable files first."""
    command = rng.choice(("estimate", "deblur", "quality"))
    image = rng.choice(images)
    iters = draw(rng, ("1", "3", "5"), ("0", "-1", "2.5"))
    if command == "estimate":
        orders = [draw(rng, ("5", "7", "9"), ("2", "0", "-3"))
                  for _ in range(2)]
        sizes = [draw(rng, ("1", "3", "5"), ("4", "9")) for _ in range(2)]
        return ["estimate", image, "--out-psf", str(out / "h.kern"),
                "--out-ipsf", str(out / "g.kern"),
                "--report", str(out / "r.txt"), *pick_flags(rng, {
                    "--ipsf": (0.5, draw(rng, ("spectral", "space"),
                                         ("other",))),
                    "--denoise": (0.05, None),
                    "--ar-order": (0.9, tuple(orders)),
                    "--psf-size": (0.9, tuple(sizes)),
                    "--theta": (0.2, draw(rng, ("1", "10"),
                                          ("0.5", "nan", "x"))),
                    "--lambda": (0.2, draw(rng, ("1e-5", "1e-2"),
                                           ("-1", "inf"))),
                    "--eps": (0.2, draw(rng, ("1e-8", "1e-3"), ("0", "-1"))),
                    "--max-iters": (0.8, iters)})]
    if command == "deblur":
        usable, unusable = kernels[:3], kernels[3:]
        return ["deblur", image, "--ipsf-file", draw(rng, usable, unusable),
                "--output", str(out / "out.pgm"), *pick_flags(rng, {
                    "--psf-file": (0.6, draw(rng, usable, unusable)),
                    "--report": (0.3, str(out / "d.txt")),
                    "--optimizer": (0.6, draw(rng, ("none", "bvdr", "cs"),
                                              ("other",))),
                    "--delta-t": (0.2, draw(rng, ("0.3", "1", "1e308"),
                                             ("0", "x"))),
                    "--alpha": (0.2, draw(rng, ("0.5", "1"), ("-1", "nan"))),
                    "--lambda": (0.2, draw(rng, ("1e-3", "1"), ("-1",))),
                    "--eps": (0.2, draw(rng, ("1e-6", "1e-3"), ("0",))),
                    "--max-iters": (0.9, iters)})]
    return ["quality", image, *pick_flags(rng, {
        "--reference": (0.3, rng.choice(images)),
        "--window": (0.5, draw(rng, ("4", "8"), ("3", "0", "-2"))),
        "--fragment": (0.9, draw(rng, ("8", "16", "24"), ("0", "100")))})]


def test_drawn_command_lines_end_in_an_exit_code(cli_inputs, tmp_path,
                                                 capsys):
    """Seeded estimate, deblur and quality command lines, valid and not:
    each exits 0, 2, 3 or 4 without a traceback, and one that fails
    writes no output file.  An argument parser error is exit 2."""
    images, kernels = cli_inputs
    rng = random.Random(2028)
    codes = []
    for _ in range(300):
        argv = draw_argv(rng, images, kernels, tmp_path)
        for written in tmp_path.iterdir():
            written.unlink()
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse: a usage error
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), argv
        assert "Traceback" not in err, argv
        assert code == 0 or not any(tmp_path.iterdir()), argv
        codes.append(code)
    assert {0, 2, 3} <= set(codes), codes


@pytest.mark.parametrize("optimizer", ["bvdr", "cs"])
def test_overflowing_delta_t_exits_4_quietly(cli_inputs, tmp_path, capsys,
                                             optimizer):
    """``--delta-t 1e308`` with a forward kernel and an optimizer, a
    combination the draws above never make: the first step overflows, and
    each textured image's run exits 4 with "diverged", writes nothing and
    shows no traceback and no RuntimeWarning."""
    images, kernels = cli_inputs
    out = tmp_path / "out.pgm"
    for image in images[:2]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["deblur", image, "--ipsf-file", kernels[0],
                         "--psf-file", kernels[1], "--optimizer", optimizer,
                         "--delta-t", "1e308", "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 4, err
        assert f"{optimizer} diverged" in err
        assert "Traceback" not in err
        assert not out.exists()
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("optimizer", ["bvdr", "cs"])
def test_a_one_pixel_wide_image_exits_3_quietly(cli_inputs, tmp_path, capsys,
                                                optimizer):
    """A 1 x 64 and a 64 x 1 image with 1 x 1 kernels: the curvature needs
    2 x 2, so each image optimizer refuses the image at stage restore with
    exit 3, writes nothing and shows no traceback."""
    images, kernels = cli_inputs
    out = tmp_path / "out.pgm"
    for image in images[2:]:
        code = main(["deblur", image, "--ipsf-file", kernels[2],
                     "--psf-file", kernels[2], "--optimizer", optimizer,
                     "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 3, err
        assert "deblur failed at stage restore" in err
        assert "Traceback" not in err
        assert not out.exists()


#: A settings file each command reads whole: every key it reads, at
#: values that run in milliseconds on the fuzz images.
VALID_SETTINGS = {
    "estimate": b"# kernel estimate\nar_p = 5\nar_q = 7\npsf_l = 3\n"
                b"psf_m = 5\nipsf_route = space\ndenoise = no\n"
                b"denoise_order = 33\ndenoise_size = 17\ntheta = 10\n"
                b"q = 3\nlambda0 = 0.01\neps = 1e-8\nmax_iters = 5\n",
    "deblur": b"optimizer = cs\ndelta_t = 0.3\nalpha = 1\n"
              b"lambda0 = 0.01\neps = 1e-6\nmax_iters = 5\n"}


def test_mutated_settings_files_end_in_an_exit_code(cli_inputs, tmp_path,
                                                    capsys):
    """Seeded byte mutants of valid estimate and deblur settings files:
    each run exits 0, 2, 3 or 4 without a traceback, and one that fails
    writes no output file.  ``--max-iters 3`` on the command line, which
    overrides the file, bounds the optimizers' runs."""
    images, kernels = cli_inputs
    rng = random.Random(2029)
    settings, out = tmp_path / "settings.txt", tmp_path / "out"
    out.mkdir()
    argv = {"estimate": ["estimate", images[0], "--out-psf",
                         str(out / "h.kern"), "--out-ipsf",
                         str(out / "g.kern"), "--report", str(out / "r.txt")],
            "deblur": ["deblur", images[0], "--ipsf-file", kernels[0],
                       "--psf-file", kernels[1], "--output",
                       str(out / "out.pgm"), "--report", str(out / "d.txt")]}
    codes = Counter()
    for command, valid in VALID_SETTINGS.items():
        for data in byte_mutants(valid, rng, 200,
                                 b"0123456789+-_.eE=# \t\n\r"):
            settings.write_bytes(data)
            for written in out.iterdir():
                written.unlink()
            code = main([*argv[command], "--config", str(settings),
                         "--max-iters", "3"])
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4), (command, data)
            assert "Traceback" not in err, (command, data)
            assert code == 0 or not any(out.iterdir()), (command, data)
            codes[command, code] += 1
    assert all(codes[command, code] for command in VALID_SETTINGS
               for code in (0, 2)), codes

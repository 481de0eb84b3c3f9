import dataclasses

import numpy as np
import pytest

import nsdeblur as nd
import nsdeblur.cli as cli
from conftest import run_python
from nsdeblur.cli import (READS, _build_config, build_parser, main,
                          read_config_file)
from nsdeblur.config import STOP_NOT_RUN, OptimizerConfig
from nsdeblur.fileio import (read_image, read_kernel, write_image, write_kernel,
                             write_pgm)
from nsdeblur.ipsf import space_system
from nsdeblur.pipeline import DENSE_BUDGET, PipelineConfig, dense_bytes


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, corpus_texture):
    root = tmp_path_factory.mktemp("cli")
    clean = root / "clean.pgm"
    write_pgm(clean, corpus_texture)
    return root


def test_defaults_match_reported_regime():
    cfg = PipelineConfig()
    assert (cfg.ar_p, cfg.ar_q) == (17, 17)
    assert (cfg.psf_l, cfg.psf_m) == (9, 9)
    solver = OptimizerConfig()
    assert solver.lambda0 == 0.01
    assert solver.eps == 1e-8
    assert solver.delta_t == 0.1
    assert solver.max_iters == 20
    assert solver.q == 3
    assert solver.theta == 10.0


def test_synth_gauss_sigma_zero_round_trips(workdir):
    out = workdir / "null.pgm"
    rc = main(["synth", str(workdir / "clean.pgm"), "--blur", "gaussian:0",
               "--output", str(out), "--kernel-out", str(workdir / "d.kern")])
    assert rc == 0
    np.testing.assert_array_equal(read_image(out),
                                  read_image(workdir / "clean.pgm"))
    np.testing.assert_array_equal(read_kernel(workdir / "d.kern"), [[1.0]])


@pytest.mark.parametrize("sigma", ["1e-300", "1e-200"])
def test_synth_tiny_gaussian_is_a_silent_delta(workdir, sigma):
    """A sigma whose Gaussian has no weight off the centre tap gives the
    delta as sigma 0 does, with no overflow warning on the way."""
    kern = workdir / f"tiny-{sigma}.kern"
    out = run_python(["-m", "nsdeblur", "synth", str(workdir / "clean.pgm"),
                      "--blur", f"gaussian:{sigma}",
                      "--output", str(workdir / f"tiny-{sigma}.pgm"),
                      "--kernel-out", str(kern)])
    assert (out.returncode, out.stderr) == (0, "")
    np.testing.assert_array_equal(read_kernel(kern), nd.delta_kernel(3))


def test_synth_motion_manifest(workdir):
    out = workdir / "m.pgm"
    kern = workdir / "m.kern"
    man = workdir / "m.txt"
    rc = main(["synth", str(workdir / "clean.pgm"), "--blur", "motion:5:0",
               "--output", str(out), "--kernel-out", str(kern),
               "--manifest", str(man), "--seed", "7"])
    assert rc == 0
    np.testing.assert_allclose(read_kernel(kern), np.full((1, 5), 0.2))
    manifest = dict(line.split(" = ", 1)
                    for line in man.read_text().splitlines())
    assert manifest["blur"] == "motion:5:0"
    assert manifest["seed"] == "7"


def test_synth_disk_kernel_unit_sum(workdir):
    kern = workdir / "disk.kern"
    rc = main(["synth", str(workdir / "clean.pgm"), "--blur", "disk:2",
               "--output", str(workdir / "disk.pgm"),
               "--kernel-out", str(kern)])
    assert rc == 0
    assert abs(read_kernel(kern).sum() - 1.0) <= 1e-12


def test_synth_bad_blur_spec_exit_2(workdir, capsys):
    rc = main(["synth", str(workdir / "clean.pgm"), "--blur", "swirl:3",
               "--output", str(workdir / "x.pgm")])
    assert rc == 2


@pytest.mark.parametrize("spec", ["gaussian:1e6", "disk:1e5",
                                  "motion:100000000:30"])
def test_synth_absurd_blur_exit_3_before_building(tmp_path, capsys, spec):
    """A kernel larger than the image is rejected from the spec alone;
    built, each of these would take terabytes."""
    image = tmp_path / "small.pgm"
    write_pgm(image, nd.texture((64, 64), seed=1))
    rc = main(["synth", str(image), "--blur", spec,
               "--output", str(tmp_path / "x.pgm")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "synth failed at stage degrade" in err
    assert "larger than image (64, 64)" in err
    assert not (tmp_path / "x.pgm").exists()


def test_oversized_model_exit_3_before_allocating(tmp_path):
    """A 201 x 201 model with a 199 x 199 kernel on a 512 x 512 image
    counts about 119 GiB of dense matrices: exit 3 from the budget before
    any is built, where it once ended in numpy's MemoryError (exit 1).
    The child's address space is capped at 4 GiB, so a run that tries the
    allocation fails at once."""
    image = tmp_path / "t512.pgm"
    write_pgm(image, nd.texture((512, 512), seed=1))
    outputs = [tmp_path / name for name in ("h.kern", "g.kern", "r.txt")]
    run = run_python(["-m", "nsdeblur", "estimate", str(image),
                      "--ar-order", "201", "201", "--psf-size", "199", "199",
                      *(arg for flag, path in zip(
                          ("--out-psf", "--out-ipsf", "--report"), outputs)
                        for arg in (flag, str(path)))],
                     address_space=4 << 30)
    assert run.returncode == 3, run.stderr
    assert "Traceback" not in run.stderr
    assert "over the 2 GiB budget" in run.stderr
    assert not any(path.exists() for path in outputs)


def test_dense_budget_admits_the_largest_known_run():
    """The 61 x 61 model with a 59 x 59 kernel (0.70 GB counted, exit 0,
    724-743 MB resident) and the denoise + space defaults stay inside the
    budget; the space route at 61/59, with its 13689-unknown system, does
    not."""
    big = PipelineConfig(ar_p=61, ar_q=61, psf_l=59, psf_m=59)
    for cfg in (big, PipelineConfig(denoise=True, ipsf_route="space")):
        assert dense_bytes(cfg, (512, 512)) <= DENSE_BUDGET
    assert dense_bytes(dataclasses.replace(big, ipsf_route="space"),
                       (512, 512)) > DENSE_BUDGET


def test_dense_bytes_counts_no_operator_matrix():
    """61/59 on 512^2, term by term: the fit's 3721-unknown window Gram
    with its LU copy and (H + W) p q work arrays over the bounded
    statistics region, 380 = 320 + 61 - 1 on a side; A A^T, then its
    vectors, plus the even and odd halves with theirs; the spectral
    inverse's full convolutions of K <= 128 grids, their complex
    transforms and real products at the length 13824 >= 117^2; the
    gradient moments over the same region.  Neither the 3481 x 119^2
    operator nor the 3481 x 117^2 shifted-taps matrix is built, and
    neither is counted.  At the default 17/9 the region is 336 on a side
    and the fold's 41 x 81 rows are counted too, as K can reach them; at
    61/59 K cannot reach its 1741."""
    def count(p, l, grids, length, fold):
        n, half = l * l, l * l // 2
        side = 320 + p - 1
        fit = 2 * (p * p) ** 2 + 2 * side * p * p
        eigensystem = n * n + 2 * ((half + 1) ** 2 + half ** 2)
        moments = 2 * n * n + 2 * side * n
        inverse = grids * (2 * (length // 2 + 1) + length) + fold
        return 8 * (fit + eigensystem + inverse + moments)

    big = PipelineConfig(ar_p=61, ar_q=61, psf_l=59, psf_m=59)
    assert dense_bytes(big, (512, 512)) == count(61, 59, 128, 13824, 0)
    assert dense_bytes(PipelineConfig(), (512, 512)) == count(
        17, 9, 81, 300, 41 * 81)


def test_synth_even_gaussian_size_exit_2(workdir, capsys):
    """An even size is a bad spec whatever sigma is: sigma 0 used to
    return a delta before the size was checked, and ended with exit 3."""
    for spec in ("gaussian:0:4", "gaussian:1:4"):
        rc = main(["synth", str(workdir / "clean.pgm"), "--blur", spec,
                   "--output", str(workdir / "x.pgm")])
        assert rc == 2
        err = capsys.readouterr().err
        assert ("synth failed at stage config: bad blur spec "
                f"'{spec}': kernel size must be odd") in err


def test_missing_input_exit_2(workdir, capsys):
    rc = main(["estimate", str(workdir / "nosuch.pgm")])
    assert rc == 2
    assert "estimate failed" in capsys.readouterr().err


def test_estimate_then_deblur_round_trip(workdir):
    blurred = workdir / "blurred.pgm"
    rc = main(["synth", str(workdir / "clean.pgm"), "--blur", "gaussian:1.0:5",
               "--output", str(blurred)])
    assert rc == 0
    h_path = workdir / "h.kern"
    g_path = workdir / "g.kern"
    rep = workdir / "report.txt"
    rc = main(["estimate", str(blurred), "--ar-order", "13", "13",
               "--psf-size", "9", "9", "--out-psf", str(h_path),
               "--out-ipsf", str(g_path), "--report", str(rep)])
    assert rc == 0
    h = read_kernel(h_path)
    assert h.shape == (9, 9)
    assert abs(h.sum() - 1.0) <= 1e-12
    assert "null_dim" in rep.read_text()

    out = workdir / "restored.pgm"
    dbrep = workdir / "deblur.txt"
    rc = main(["deblur", str(blurred), "--ipsf-file", str(g_path),
               "--output", str(out), "--report", str(dbrep)])
    assert rc == 0
    assert dbrep.read_text().splitlines()[-1] == f"stop_reason: {STOP_NOT_RUN}"
    clean = read_image(workdir / "clean.pgm")
    assert (nd.psnr(read_image(out), clean)
            > nd.psnr(read_image(blurred), clean))


def test_estimate_report_carries_ar_fit(tmp_path, corpus_texture):
    blurred = nd.convolve(corpus_texture, nd.gaussian_kernel(1.0, 5))
    image = tmp_path / "blurred.pgm"
    write_pgm(image, blurred)
    rep = tmp_path / "report.txt"
    rc = main(["estimate", str(image), "--ar-order", "13", "13",
               "--psf-size", "9", "9", "--out-psf", str(tmp_path / "h.kern"),
               "--out-ipsf", str(tmp_path / "g.kern"), "--report", str(rep)])
    assert rc == 0
    values = dict(line.split(" = ", 1) for line in rep.read_text().splitlines()
                  if " = " in line)
    model = nd.estimate_ar(read_image(image), 13, 13)
    assert float(values["ar_residual"]) == model.residual
    assert float(values["ar_ridge"]) == model.ridge
    assert "space_ridge" not in values      # spectral route
    # the floored eigenvalue ratio across the split, as _pick_split read it
    basis = nd.compute_cns(nd.build_operator(model, 9, 9))
    assert int(values["null_dim"]) == basis.null_dim
    lam = np.maximum(basis.eigenvalues, 1e-12 * basis.eigenvalues[0])
    gap = float(values["null_gap"])
    assert gap == lam[basis.split - 1] / lam[basis.split]
    assert gap >= 1.0
    keys = [line.split(" = ")[0] for line in rep.read_text().splitlines()]
    assert keys[1:5] == ["null_dim", "null_gap", "ar_residual", "ar_ridge"]


@pytest.mark.parametrize("size, region", [(128, "0 0 128 128"),
                                          (512, "88 88 336 336")])
def test_estimate_report_gives_the_fit_region(tmp_path, size, region):
    """``fit_region = top left rows cols`` follows ``ar_ridge``: the whole
    image up to 256 x 256, else the centred 336 x 336 statistics region of
    the 17 x 17 model.  It is the region the fit read."""
    image = tmp_path / "blurred.pgm"
    write_pgm(image, nd.convolve(nd.texture((size, size), seed=4),
                                 nd.gaussian_kernel(1.0, 5)))
    rep = tmp_path / "report.txt"
    rc = main(["estimate", str(image), "--out-psf", str(tmp_path / "h.kern"),
               "--out-ipsf", str(tmp_path / "g.kern"), "--report", str(rep)])
    assert rc == 0
    lines = rep.read_text().splitlines()
    assert [line.split(" = ")[0] for line in lines[1:6]] == [
        "null_dim", "null_gap", "ar_residual", "ar_ridge", "fit_region"]
    assert lines[5] == f"fit_region = {region}"
    model = nd.estimate_ar(read_image(image), 17, 17)
    assert lines[5] == "fit_region = " + " ".join(map(str, model.region))


def test_one_process_answers_as_fresh_processes(tmp_path):
    """The parser is built once per process: ``estimate``, then ``deblur``,
    then a bad command line in one process give the exit codes, standard
    error and files of three fresh processes."""
    write_pgm(tmp_path / "in.pgm", nd.convolve(nd.texture((64, 64), seed=2),
                                               nd.gaussian_kernel(1.0, 5)))
    commands = [
        ["estimate", "in.pgm", "--ar-order", "9", "9", "--psf-size", "5", "5",
         "--out-psf", "{}h.kern", "--out-ipsf", "{}g.kern",
         "--report", "{}report.txt"],
        ["deblur", "in.pgm", "--ipsf-file", "{}g.kern", "--output",
         "{}out.pgm"],
        ["deblur", "in.pgm", "--ipsf-file", "{}g.kern", "--output",
         "{}bad.pgm", "--theta", "2"]]
    fresh = []
    for argv in commands:
        run = run_python(["-m", "nsdeblur", *(a.format("fresh_")
                                              for a in argv)], cwd=tmp_path)
        fresh.append((run.returncode, run.stderr))
    in_one = [[a.format("one_") for a in argv] for argv in commands]
    probe = ("import sys\n"
             "from nsdeblur.cli import build_parser, main\n"
             "parser = build_parser()\n"
             f"for argv in {in_one}:\n"
             "    try:\n"
             "        code = main(argv)\n"
             "    except SystemExit as exc:\n"
             "        code = exc.code\n"
             "    print(code, flush=True)\n"
             "    print('<end>', file=sys.stderr, flush=True)\n"
             "assert build_parser() is parser\n")
    run = run_python(["-c", probe], cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    codes = [int(code) for code in run.stdout.split()]
    errors = run.stderr.split("<end>\n")[:3]
    assert list(zip(codes, errors)) == fresh
    assert [code for code, _ in fresh] == [0, 0, 2]
    assert "unrecognized arguments: --theta 2" in fresh[2][1]
    for name in ("h.kern", "g.kern", "report.txt", "out.pgm"):
        assert ((tmp_path / f"one_{name}").read_bytes()
                == (tmp_path / f"fresh_{name}").read_bytes())


def test_commands_are_looked_up_per_call(monkeypatch):
    """The cached parser binds no command function: one installed on the
    module after the parser was built, as a tracer does, is called."""
    build_parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_quality",
                        lambda args: calls.append(args.images) or 7)
    assert main(["quality", "x.pgm"]) == 7
    assert calls == [["x.pgm"]]


def test_space_estimate_records_its_ridge_quietly(tmp_path):
    """A denoised space-route estimate of a noisy image takes the default
    ridge: under ``-W error`` it exits 0 with nothing on stderr, and its
    report gives the ridge the space system of (prefiltered image,
    estimated kernel) applies."""
    clean = nd.texture((128, 128), seed=11)
    noisy = nd.add_impulse_noise(
        nd.convolve(clean, nd.gaussian_kernel(1.0, 5)), 0.02, 3)
    write_pgm(tmp_path / "noisy.pgm", noisy)
    (tmp_path / "small.cfg").write_text("denoise_order = 13\n"
                                        "denoise_size = 7\n")
    run = run_python(
        ["-W", "error", "-m", "nsdeblur", "estimate", "noisy.pgm",
         "--denoise", "--ipsf", "space", "--ar-order", "9", "9",
         "--psf-size", "5", "5", "--config", "small.cfg"], cwd=tmp_path)
    assert (run.returncode, run.stderr) == (0, "")
    values = dict(line.split(" = ", 1) for line in
                  (tmp_path / "report.txt").read_text().splitlines()
                  if " = " in line)
    x, _ = nd.denoise_prefilter(read_image(tmp_path / "noisy.pgm"), 13, 7)
    ridge = space_system(x, read_kernel(tmp_path / "h.kern")).ridge
    assert ridge > 0.0 and float(values["space_ridge"]) == ridge


@pytest.mark.parametrize("taps, code", [
    (np.zeros((3, 3)), 4),
    (np.full((3, 3), np.nan), 3),
    (np.full((4, 4), 1.0 / 16.0), 3),
    (np.array([[-5e3, 1e4 + 1.0, -5e3]]), 4),
], ids=["zero", "nan", "even", "gain"])
@pytest.mark.parametrize("which", ["--ipsf-file", "--psf-file"])
def test_deblur_rejects_unusable_kernel_at_load(workdir, tmp_path, capsys,
                                                taps, code, which):
    bad = tmp_path / "bad.kern"
    write_kernel(bad, taps)
    good = tmp_path / "delta.kern"
    write_kernel(good, nd.delta_kernel(3))
    files = {"--ipsf-file": good, "--psf-file": good, which: bad}
    out = tmp_path / "out.pgm"
    rc = main(["deblur", str(workdir / "clean.pgm"), "--output", str(out),
               "--optimizer", "bvdr",
               *(arg for flag, path in files.items() for arg in (flag, str(path)))])
    assert rc == code
    assert "deblur failed at stage load" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "1 1\n1_0\n", "+1 1\n1\n", "-1 3\n", "1 1\n1\n2 3 4\nxx\n"],
    ids=["underscore-tap", "signed-header", "negative-header",
         "text-after-rows"])
def test_deblur_malformed_kernel_file_exits_2(workdir, tmp_path, capsys,
                                              text):
    """Kernel files write_kernel cannot write: the first two were read as
    [[10]] and [[1]], the third failed as a shape error (exit 3), and the
    fourth's extra lines were ignored."""
    bad = tmp_path / "bad.kern"
    bad.write_text(text)
    out = tmp_path / "out.pgm"
    rc = main(["deblur", str(workdir / "clean.pgm"), "--ipsf-file", str(bad),
               "--output", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        f"deblur failed at stage load: {bad}: malformed kernel file: ")
    assert not out.exists()


def test_deblur_overflowing_kernel_exits_4_quietly(workdir, tmp_path):
    """A kernel file whose taps sum past the float range fails at load
    with its one line, under ``-W error``: no overflow warning first."""
    bad = tmp_path / "big.kern"
    bad.write_text("3 3\n1e308 1e308 1e308\n0 0 0\n0 0 0\n")
    run = run_python(["-W", "error", "-m", "nsdeblur", "deblur",
                      str(workdir / "clean.pgm"), "--ipsf-file", str(bad),
                      "--output", "out.pgm"], cwd=tmp_path)
    assert run.returncode == 4
    assert run.stderr.startswith("deblur failed at stage load: ")
    assert run.stderr.count("\n") == 1
    assert not (tmp_path / "out.pgm").exists()


@pytest.mark.parametrize("scale, optimizer, stage", [
    (1e6, "none", "load"),      # gain about 1.2e7, past KERNEL_GAIN_MAX
    (10.0, "cs", "restore"),    # gain about 120: loads, then diverges
])
def test_deblur_absurd_inverse_exits_4(tmp_path, capsys, motion_case, scale,
                                       optimizer, stage):
    image = tmp_path / "blurred.pgm"
    write_pgm(image, motion_case.blurred)
    g_path, h_path = tmp_path / "g.kern", tmp_path / "h.kern"
    write_kernel(g_path, motion_case.ipsf_spectral * scale)
    write_kernel(h_path, motion_case.psf)
    out = tmp_path / "out.pgm"
    rc = main(["deblur", str(image), "--ipsf-file", str(g_path),
               "--psf-file", str(h_path), "--optimizer", optimizer,
               "--output", str(out)])
    assert rc == 4
    assert f"deblur failed at stage {stage}" in capsys.readouterr().err
    assert not out.exists()


def test_deblur_optimizer_needs_psf(workdir, capsys):
    blurred = workdir / "blurred.pgm"
    g_path = workdir / "g.kern"
    rc = main(["deblur", str(blurred), "--ipsf-file", str(g_path),
               "--output", str(workdir / "o.pgm"), "--optimizer", "cs"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "deblur failed at stage load: iterative optimizers need "
        "--psf-file in addition to --ipsf-file\n")


def test_deblur_delta_inverse_is_byte_identical(workdir):
    delta = workdir / "delta.kern"
    write_kernel(delta, nd.delta_kernel(1))
    out = workdir / "same.pgm"
    rc = main(["deblur", str(workdir / "clean.pgm"), "--ipsf-file",
               str(delta), "--output", str(out)])
    assert rc == 0
    assert out.read_bytes() == (workdir / "clean.pgm").read_bytes()


def test_deblur_rejects_estimate_only_flags(workdir, tmp_path, capsys):
    """Restoration reads neither the model order, the kernel size nor the
    space ridge, so deblur does not offer their flags."""
    delta = tmp_path / "delta.kern"
    write_kernel(delta, nd.delta_kernel(3))
    with pytest.raises(SystemExit) as exc:
        main(["deblur", str(workdir / "clean.pgm"), "--ipsf-file",
              str(delta), "--output", str(tmp_path / "r.pgm"),
              "--ar-order", "9", "9", "--psf-size", "9", "9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --ar-order" in capsys.readouterr().err
    assert not (tmp_path / "r.pgm").exists()


def test_deblur_ignores_estimate_settings(workdir, tmp_path, gaussian_case):
    """A settings file shared with estimate may hold sizes estimate would
    reject (a 9x9 kernel with a 9x9 model); deblur restores as without
    them."""
    case = gaussian_case
    blurred, h_path, g_path = (tmp_path / name for name in (
        "blurred.pgm", "h.kern", "g.kern"))
    write_pgm(blurred, case.blurred)
    write_kernel(h_path, case.psf)
    write_kernel(g_path, case.ipsf_spectral)
    outputs = []
    for name, settings in (("plain", ""), ("shared", "ar_p = 9\npsf_l = 9\n"
                                                   "q = 0\ntheta = 0.5\n")):
        cfg_file = tmp_path / f"{name}.cfg"
        cfg_file.write_text(settings + "optimizer = bvdr\nmax_iters = 4\n")
        out, report = tmp_path / f"{name}.pgm", tmp_path / f"{name}.txt"
        assert main(["deblur", str(blurred), "--ipsf-file", str(g_path),
                     "--psf-file", str(h_path), "--config", str(cfg_file),
                     "--output", str(out), "--report", str(report)]) == 0
        outputs.append((out.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1]


def test_estimate_ignores_restore_settings(workdir, tmp_path):
    """Estimation reads neither the optimizer nor the image-schema
    settings, so a shared file's values for them change nothing."""
    outputs = []
    for name, settings in (("plain", ""),
                           ("shared", "optimizer = magic\nalpha = nan\n")):
        cfg_file = tmp_path / f"{name}.cfg"
        cfg_file.write_text(settings + "max_iters = 4\n")
        h, g, rep = (tmp_path / f"{name}.{ext}" for ext in ("h", "g", "txt"))
        assert main(["estimate", str(workdir / "clean.pgm"),
                     "--ar-order", "9", "9", "--psf-size", "5", "5",
                     "--config", str(cfg_file), "--out-psf", str(h),
                     "--out-ipsf", str(g), "--report", str(rep)]) == 0
        outputs.append([path.read_bytes() for path in (h, g, rep)])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    ["estimate", "--alpha", "7"],
    ["estimate", "--delta-t", "3"],
    ["deblur", "--ipsf-file", "g.kern", "--output", "o.pgm", "--theta", "0.5"],
    ["estimate", "--space-ridge", "1"],
], ids=["estimate-alpha", "estimate-delta-t", "deblur-theta",
        "estimate-space-ridge"])
def test_unread_setting_flags_are_unrecognized(argv, capsys):
    command, *flags = argv
    with pytest.raises(SystemExit) as exc:
        main([command, "in.pgm", *flags])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flags[-2]}" in capsys.readouterr().err


def test_space_ridge_is_an_unknown_setting(workdir, tmp_path, capsys):
    """The space route's ridge is no setting: a file that sets it is
    refused at stage config before anything is written."""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("ipsf_route = space\nspace_ridge = 1\n")
    rc = main(["estimate", str(workdir / "clean.pgm"), "--config",
               str(cfg_file), "--report", str(tmp_path / "r.txt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("estimate failed at stage config")
    assert "run.cfg:2: unknown key 'space_ridge'" in err
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("settings", ["denoise_order = 8\n",
                                      "denoise_size = 33\n"])
def test_bad_denoise_size_exits_3_at_stage_config(workdir, tmp_path, capsys,
                                                  settings):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(settings)
    rc = main(["estimate", str(workdir / "clean.pgm"), "--config",
               str(cfg_file), "--report", str(tmp_path / "r.txt")])
    assert rc == 3
    assert "estimate failed at stage config" in capsys.readouterr().err
    assert not (tmp_path / "r.txt").exists()


def test_quality_command(workdir, capsys):
    rc = main(["quality", str(workdir / "clean.pgm"),
               "--reference", str(workdir / "clean.pgm")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "AI=" in out and "PSNR=inf" in out


def test_quality_size_mismatch_exit_3(workdir, tmp_path, capsys):
    small = tmp_path / "small.pgm"
    write_image(small, np.random.default_rng(0).random((100, 100)))
    rc = main(["quality", str(small),
               "--reference", str(workdir / "clean.pgm")])
    assert rc == 3


def test_config_file_parsing_and_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# settings\nar_p = 11\nar_q = 11\npsf_l = 5\npsf_m = 5\n"
        "lambda0 = 0.005\ndenoise = true\n")
    values = read_config_file(cfg_file)
    assert values == {"ar_p": 11, "ar_q": 11, "psf_l": 5, "psf_m": 5,
                      "lambda0": 0.005, "denoise": True}
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 3\n")
    from nsdeblur.errors import InputError
    with pytest.raises(InputError):
        read_config_file(bad)


def test_every_setting_reaches_its_config(tmp_path):
    """Each command's config holds the settings it reads, from the file or
    its flags, and defaults for the rest; together the commands read every
    config field, so no setting is read by nobody."""
    cfg_file = tmp_path / "all.cfg"
    cfg_file.write_text(
        "ar_p = 11\nar_q = 13\npsf_l = 5\npsf_m = 7\noptimizer = cs\n"
        "ipsf_route = space\ndenoise = yes\ndenoise_order = 21\n"
        "denoise_size = 9\nlambda0 = 0.02\n"
        "delta_t = 0.2\ntheta = 4\nq = 2\neps = 1e-6\nmax_iters = 7\n"
        "alpha = 2.5\n")
    commands = {
        "estimate": (["estimate", "in.pgm", "--psf-size", "3", "5"],
                     PipelineConfig(
                         ar_p=11, ar_q=13, psf_l=3, psf_m=5,
                         ipsf_route="space", denoise=True, denoise_order=21,
                         denoise_size=9,
                         solver=OptimizerConfig(lambda0=0.02, theta=4.0, q=2,
                                                eps=1e-6, max_iters=9))),
        "deblur": (["deblur", "in.pgm", "--ipsf-file", "g.kern",
                    "--output", "o.pgm"],
                   PipelineConfig(
                       optimizer="cs",
                       solver=OptimizerConfig(lambda0=0.02, delta_t=0.2,
                                              eps=1e-6, max_iters=9,
                                              alpha=2.5)))}
    for argv, expected in commands.values():
        args = build_parser().parse_args(
            [*argv, "--config", str(cfg_file), "--max-iters", "9"])
        assert _build_config(args) == expected
    fields = {f.name for cls in (PipelineConfig, OptimizerConfig)
              for f in dataclasses.fields(cls)} - {"solver"}
    assert set().union(*READS.values()) == fields
    assert set(READS) == set(commands)


def test_inconsistent_sizes_exit_3(workdir):
    rc = main(["estimate", str(workdir / "clean.pgm"),
               "--ar-order", "9", "9", "--psf-size", "9", "9"])
    assert rc == 3


def test_one_tap_kernel_exits_3_at_stage_config(workdir, tmp_path, capsys):
    rc = main(["estimate", str(workdir / "clean.pgm"), "--ar-order", "3", "3",
               "--psf-size", "1", "1", "--report", str(tmp_path / "r.txt")])
    assert rc == 3
    assert "estimate failed at stage config: a 1x1 kernel" in (
        capsys.readouterr().err)
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("size", [("3", "1"), ("1", "3")])
def test_space_route_kernel_one_tap_wide_exits_0(workdir, tmp_path, size):
    rc = main(["estimate", str(workdir / "clean.pgm"), "--ipsf", "space",
               "--ar-order", "9", "9", "--psf-size", *size,
               "--out-psf", str(tmp_path / "h.kern"),
               "--out-ipsf", str(tmp_path / "g.kern"),
               "--report", str(tmp_path / "r.txt")])
    assert rc == 0
    l, m = (int(v) for v in size)
    assert read_kernel(tmp_path / "g.kern").shape == (2 * l - 1, 2 * m - 1)


def load_error(tmp_path, capsys, command, data: str) -> str:
    """Standard error of ``command`` run on a PGM file holding ``data``,
    required to exit 2 at the load stage and write no output."""
    bad = tmp_path / "bad.pgm"
    bad.write_text(data)
    kern = tmp_path / "g.kern"
    write_kernel(kern, nd.delta_kernel(3))
    argv = {"estimate": ["estimate", str(bad)],
            "deblur": ["deblur", str(bad), "--ipsf-file", str(kern),
                       "--output", str(tmp_path / "out.pgm")],
            "quality": ["quality", str(bad)]}[command]
    assert main(argv) == 2
    assert not (tmp_path / "out.pgm").exists()
    err = capsys.readouterr().err
    assert err.startswith({"quality": "quality failed: "}.get(
        command, f"{command} failed at stage load: "))
    return err


@pytest.mark.parametrize("sample", ["x", "3.5"])
@pytest.mark.parametrize("command", ["estimate", "deblur", "quality"])
def test_non_integer_p2_sample_exits_2(tmp_path, capsys, command, sample):
    err = load_error(tmp_path, capsys, command, f"P2 2 2 255 1 2 {sample} 4")
    assert f"bad.pgm: bad P2 sample '{sample}'" in err


@pytest.mark.parametrize("header", ["P5 4", "P2 2 2"])
@pytest.mark.parametrize("command", ["estimate", "deblur", "quality"])
def test_truncated_pgm_header_exits_2(tmp_path, capsys, command, header):
    """Fewer than three numbers after the magic: no traceback."""
    err = load_error(tmp_path, capsys, command, header)
    assert "bad.pgm: malformed PGM header" in err


def test_config_file_not_utf8_exits_2(workdir, tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_bytes(b"\xff\xfe")
    rc = main(["estimate", str(workdir / "clean.pgm"), "--config",
               str(cfg_file), "--report", str(tmp_path / "r.txt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("estimate failed at stage config: cannot read "
                          f"config {cfg_file}")
    assert not (tmp_path / "r.txt").exists()


def test_numerical_failure_exit_4(tmp_path, capsys):
    flat = tmp_path / "flat.pgm"
    write_pgm(flat, np.full((64, 64), 0.5))
    rc = main(["estimate", str(flat), "--ar-order", "9", "9",
               "--psf-size", "5", "5",
               "--out-psf", str(tmp_path / "h.kern"),
               "--out-ipsf", str(tmp_path / "g.kern"),
               "--report", str(tmp_path / "r.txt")])
    assert rc == 4
    assert "estimate failed" in capsys.readouterr().err


def test_least_squares_failure_exit_4(tmp_path, capsys, monkeypatch,
                                      corpus_texture):
    """A least-squares solve that does not converge has no fallback: it
    ends the estimate with the typed error."""
    def fail_to_converge(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "lstsq", fail_to_converge)
    blurred = tmp_path / "blurred.pgm"
    write_pgm(blurred, nd.convolve(corpus_texture, nd.gaussian_kernel(1.0, 5)))
    rc = main(["estimate", str(blurred), "--ar-order", "13", "13",
               "--psf-size", "9", "9",
               "--out-psf", str(tmp_path / "h.kern"),
               "--out-ipsf", str(tmp_path / "g.kern"),
               "--report", str(tmp_path / "r.txt")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "estimate failed at stage estimate" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, settings, expected", [
    (["estimate"], "max_iters = abc\n", "estimate failed at stage config"),
    (["estimate"], "denoise = ture\n", "estimate failed at stage config"),
    (["deblur", "--ipsf-file", "g.kern", "--output", "o.pgm",
      "--delta-t", "-1"], None, "deblur failed at stage config"),
    (["estimate", "--max-iters", "0"], None, "estimate failed at stage config"),
    (["estimate", "--theta", "0.5"], None, "estimate failed at stage config"),
    (["estimate", "--lambda", "nan"], None, "estimate failed at stage config"),
    (["deblur", "--ipsf-file", "g.kern", "--output", "o.pgm",
      "--max-iters", "0"], None, "deblur failed at stage config"),
    (["quality", "--window", "7"], None, "quality failed"),
    (["estimate", "--lambda", "inf"], None, "estimate failed at stage config"),
    (["estimate"], "space_ridge = inf\n", "estimate failed at stage config"),
    (["deblur", "--ipsf-file", "g.kern", "--output", "o.pgm",
      "--alpha", "nan"], None, "deblur failed at stage config"),
    (["quality", "--fragment", "0"], None, "quality failed"),
    (["quality", "--fragment", "-5"], None, "quality failed"),
    (["synth", "--blur", "gaussian:inf", "--output", "o.pgm"], None,
     "synth failed at stage config: bad blur spec"),
    (["synth", "--blur", "disk:inf", "--output", "o.pgm"], None,
     "synth failed at stage config: bad blur spec"),
    (["synth", "--blur", "gaussian:1:5:3", "--output", "o.pgm"], None,
     "bad blur spec 'gaussian:1:5:3': expected gaussian:SIGMA[:SIZE]"),
    (["synth", "--blur", "motion:7:30:1", "--output", "o.pgm"], None,
     "bad blur spec 'motion:7:30:1': expected motion:LENGTH[:ANGLE]"),
    (["synth", "--blur", "disk:2:9", "--output", "o.pgm"], None,
     "bad blur spec 'disk:2:9': expected disk:RADIUS"),
    (["synth", "--blur", "gaussian:1", "--noise", "nan", "--output", "o.pgm"],
     None, "synth failed at stage config: noise"),
    (["synth", "--blur", "gaussian:1", "--noise", "0.1", "--seed", "-1",
      "--output", "o.pgm"], None, "synth failed at stage config: seed"),
    (["synth", "--blur", "gaussian:1", "--noise", "2", "--output", "o.pgm"],
     None, "synth failed at stage config: noise"),
], ids=["file-int", "file-bool", "delta-t", "max-iters", "theta",
        "lambda-nan", "deblur-max-iters",
        "quality-window", "lambda-inf", "space-ridge-inf", "deblur-alpha-nan",
        "quality-fragment-0", "quality-fragment-negative", "synth-gaussian-inf",
        "synth-disk-inf", "synth-gaussian-extra", "synth-motion-extra",
        "synth-disk-extra", "synth-noise-nan", "synth-seed-negative",
        "synth-noise-above-1"])
def test_bad_setting_exits_2(workdir, tmp_path, capsys, argv, settings,
                             expected):
    command, *flags = argv
    if settings is not None:
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(settings)
        flags += ["--config", str(cfg_file)]
    outputs = {"estimate": ["--out-psf", str(tmp_path / "h.kern"),
                            "--out-ipsf", str(tmp_path / "g.kern"),
                            "--report", str(tmp_path / "r.txt")]}
    rc = main([command, str(workdir / "clean.pgm"), *flags,
               *outputs.get(command, [])])
    assert rc == 2
    err = capsys.readouterr().err
    assert expected in err
    assert "Traceback" not in err
    assert not any(tmp_path.glob("*.kern"))


@pytest.mark.parametrize("argv", [
    ["estimate", "--out-psf", "{missing}/h.kern"],
    ["estimate", "--report", "{missing}/r.txt"],
    ["deblur", "--ipsf-file", "{delta}", "--output", "{missing}/o.pgm"],
    ["deblur", "--ipsf-file", "{delta}", "--output", "{out}/o.pgm",
     "--report", "{missing}/r.txt"],
    ["synth", "--blur", "gaussian:1", "--output", "{missing}/o.pgm"],
    ["synth", "--blur", "gaussian:1", "--output", "{out}/o.pgm",
     "--kernel-out", "{missing}/k.kern"],
    ["synth", "--blur", "gaussian:1", "--output", "{out}/o.pgm",
     "--manifest", "{missing}/m.txt"],
], ids=["estimate-kernel", "estimate-report", "deblur-image",
        "deblur-report", "synth-image", "synth-kernel", "synth-manifest"])
def test_unwritable_output_exits_2_at_stage_write(workdir, tmp_path, capsys,
                                                  argv):
    delta = tmp_path / "delta.kern"
    write_kernel(delta, nd.delta_kernel(3))
    paths = {"missing": tmp_path / "no-such-dir", "delta": delta,
             "out": tmp_path}
    command, *flags = (a.format(**paths) for a in argv)
    defaults = {"estimate": ["--out-psf", str(tmp_path / "h.kern"),
                             "--out-ipsf", str(tmp_path / "g.kern"),
                             "--report", str(tmp_path / "r.txt"),
                             "--ar-order", "9", "9", "--psf-size", "5", "5"]}
    rc = main([command, str(workdir / "clean.pgm"),
               *defaults.get(command, []), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{command} failed at stage write: cannot write" in err
    assert "Traceback" not in err

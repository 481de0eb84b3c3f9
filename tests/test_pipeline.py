import dataclasses
import tracemalloc

import numpy as np
import pytest

import nsdeblur as nd
from conftest import estimate_bits, is_smooth, noisy_case_image
from nsdeblur import cli, ipsf, pipeline
from nsdeblur.config import OptimizerConfig, format_report
from nsdeblur.errors import (DegenerateOperatorError, DimensionError,
                             InputError)
from nsdeblur.fileio import write_pgm
from nsdeblur.grid import window_gram


def test_config_validation():
    with pytest.raises(DimensionError):
        nd.PipelineConfig(ar_p=9, ar_q=9, psf_l=9, psf_m=9)
    with pytest.raises(DimensionError):
        nd.PipelineConfig(ar_p=8, ar_q=9)
    with pytest.raises(InputError):
        nd.PipelineConfig(optimizer="magic")
    with pytest.raises(InputError):
        nd.PipelineConfig(ipsf_route="other")
    nd.PipelineConfig()


@pytest.mark.parametrize("settings, error", [
    ({"denoise_order": 8}, DimensionError),
    ({"denoise_size": 33}, DimensionError),
    ({"denoise_size": 0}, DimensionError),
    ({"denoise": "yes"}, InputError),
    ({"psf_l": 1, "psf_m": 1}, DimensionError),
    ({"ipsf_route": "space", "space_ridge": 1.0}, TypeError),
    ({"ar_p": 9.0, "psf_l": 5}, InputError),
    ({"ar_q": 17.5}, InputError),
    ({"psf_l": 9.0}, InputError),
    ({"psf_m": True}, InputError),
    ({"denoise_order": 33.0}, InputError),
    ({"denoise_size": 17.0}, InputError),
], ids=["denoise-order-even", "denoise-size-not-smaller", "denoise-size-0",
        "denoise-not-bool", "psf-1x1", "space-ridge-removed", "ar-p-float",
        "ar-q-float", "psf-l-float", "psf-m-bool", "denoise-order-float",
        "denoise-size-float"])
def test_pipeline_config_checks_every_field(settings, error):
    with pytest.raises(error):
        nd.PipelineConfig(**settings)


def test_thinnest_kernels_still_estimate():
    """A 1x3 kernel has a null split, and the prefilter's single-vector
    basis works at one tap, so both stay valid; only 1x1 is refused.  On
    the space route the 1x5 inverse grid has no differences across it."""
    x = nd.convolve(nd.texture((96, 96), seed=2), nd.gaussian_kernel(1.0, 5))
    for route, ipsf_shape in (("spectral", (1, 3)), ("space", (1, 5))):
        cfg = nd.PipelineConfig(ar_p=3, ar_q=5, psf_l=1, psf_m=3,
                                denoise=True, denoise_order=3,
                                denoise_size=1, ipsf_route=route)
        result = nd.estimate_kernels(x, cfg)
        assert result.psf.shape == (1, 3)
        assert result.ipsf.shape == ipsf_shape
        assert result.prefilter_kernel.shape == (1, 1)
        assert abs(result.psf.sum() - 1.0) <= 1e-12
        # the space fit is not normalized, but keeps the mean to ~1e-4
        assert abs(result.ipsf.sum() - 1.0) <= 1e-3


def test_pipeline_config_takes_numpy_integers():
    sizes = {"ar_p": np.int64(9), "ar_q": np.int32(9), "psf_l": np.int64(5),
             "psf_m": np.int16(5), "denoise_order": np.int64(13),
             "denoise_size": np.int64(7)}
    assert nd.PipelineConfig(**sizes) == nd.PipelineConfig(
        **{k: int(v) for k, v in sizes.items()})


def test_configs_are_frozen():
    cfg = nd.PipelineConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.ar_p = 8
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.solver.lambda0 = np.inf
    assert dataclasses.replace(cfg, optimizer="cs").optimizer == "cs"
    with pytest.raises(InputError):
        dataclasses.replace(cfg, optimizer="magic")


_I, _J = np.mgrid[0:256, 0:256]
_FLAT = (DegenerateOperatorError, DegenerateOperatorError)
#: probe image -> (image, error on the spectral route, on the space route)
PROBES = {
    "ramp": ((_I + _J) / 510.0, *_FLAT),
    "checkerboard": (((_I + _J) % 2).astype(float), *_FLAT),
    "uniform-noise": (np.random.default_rng(0).random((256, 256)), *_FLAT),
    "texture-40x40": (nd.texture((40, 40), seed=0), None, None),
    "texture-64x1024": (nd.texture((64, 1024), seed=0), None, None),
    "texture-35x35": (nd.texture((35, 35), seed=0), None, DimensionError),
}


@pytest.mark.parametrize("route", ["spectral", "space"])
@pytest.mark.parametrize("probe", list(PROBES))
def test_probe_inputs_end_typed(probe, route):
    """Each probe image gives finite kernels or its typed error at default
    settings; the space route needs an image 4x the kernel size."""
    image, spectral_error, space_error = PROBES[probe]
    error = space_error if route == "space" else spectral_error
    cfg = nd.PipelineConfig(ipsf_route=route)
    if error is not None:
        with pytest.raises(error):
            nd.estimate_kernels(image, cfg)
        return
    result = nd.estimate_kernels(image, cfg)
    assert np.all(np.isfinite(result.psf)) and np.all(np.isfinite(result.ipsf))


def test_estimate_kernels_spectral_route(gaussian_case):
    cfg = nd.PipelineConfig(ar_p=13, ar_q=13, psf_l=9, psf_m=9)
    result = nd.estimate_kernels(gaussian_case.blurred, cfg)
    assert result.psf.shape == (9, 9)
    assert result.ipsf.shape == (9, 9)
    assert abs(result.psf.sum() - 1.0) <= 1e-12
    assert abs(result.ipsf.sum() - 1.0) <= 1e-12
    assert result.prefiltered is None and result.space_ridge is None


def test_estimate_kernels_space_route(gaussian_case):
    cfg = nd.PipelineConfig(ar_p=13, ar_q=13, psf_l=7, psf_m=7,
                            ipsf_route="space",
                            solver=OptimizerConfig(lambda0=1e-5))
    result = nd.estimate_kernels(gaussian_case.blurred, cfg)
    assert result.ipsf.shape == (13, 13)
    assert np.all(np.isfinite(result.ipsf))


SPACE_ROUTE = dict(ar_p=13, ar_q=13, psf_l=7, psf_m=7, ipsf_route="space",
                   solver=OptimizerConfig(lambda0=1e-5))


def test_space_estimate_peaks_within_its_count():
    """On a blurred 256 x 256 texture the space-route estimate with a
    23 x 23 model and a 21 x 21 kernel allocates at most its dense_bytes
    at its traced peak: its space system keeps only the even fold (51.8
    MiB against a count of 58.3 MiB; 73.4 MiB while the unfolded Gram
    lived through both solves)."""
    x = nd.convolve(nd.texture((256, 256), seed=7), nd.gaussian_kernel(1.5, 7))
    cfg = nd.PipelineConfig(ar_p=23, ar_q=23, psf_l=21, psf_m=21,
                            ipsf_route="space")
    tracemalloc.start()
    try:
        nd.estimate_kernels(x, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= pipeline.dense_bytes(cfg, x.shape)


@pytest.mark.parametrize("path", ["default-ridge", "pinv"])
def test_shared_space_system_matches_standalone_calls(path, gaussian_case):
    """The estimate's one space system gives the kernel and report of a
    standalone ipsf_space then optimize_ipsf_space, each building its own
    system, bit for bit: on a near-singular system, and on a noisy,
    well-conditioned image, once solved by pseudo-inverse.  The estimate
    records the default ridge of that system."""
    x = (noisy_case_image(gaussian_case) if path == "pinv"
         else gaussian_case.blurred)
    cfg = nd.PipelineConfig(**SPACE_ROUTE)
    result = nd.estimate_kernels(x, cfg)
    h = result.psf
    g0 = nd.ipsf_space(x, h)
    g, report = nd.optimize_ipsf_space(g0, x, h, cfg.solver)
    assert result.ipsf.tobytes() == g.tobytes()
    assert format_report(result.ipsf_report) == format_report(report)
    ryy = window_gram(nd.convolve(x, h), 2 * h.shape[0] - 1,
                      2 * h.shape[1] - 1)
    default = 1e-8 * float(np.trace(ryy)) / ryy.shape[0]
    assert result.space_ridge == ipsf.space_system(x, h).ridge == default


@pytest.mark.parametrize("route, denoise, builds", [
    ("space", False, 1), ("space", True, 2), ("spectral", False, 0),
    ("spectral", True, 1)])
def test_space_system_built_once_per_route(route, denoise, builds,
                                           gaussian_case, monkeypatch):
    """One space-system build per space-route estimate, plus one for the
    prefilter's inverse when denoising, counted by the window Gram that
    each build makes."""
    calls = []
    raw = ipsf.window_gram

    def counting(*args):
        calls.append(args)
        return raw(*args)

    monkeypatch.setattr(ipsf, "window_gram", counting)
    cfg = nd.PipelineConfig(ar_p=13, ar_q=13, psf_l=7, psf_m=7,
                            ipsf_route=route, denoise=denoise,
                            denoise_order=13, denoise_size=7)
    estimate_bits(gaussian_case.blurred, cfg)
    assert len(calls) == builds


def test_restore_modes(gaussian_case):
    case = gaussian_case
    plain, rep = nd.restore(case.blurred, case.ipsf_spectral)
    assert rep is None
    np.testing.assert_array_equal(
        plain, nd.deconvolve_once(case.blurred, case.ipsf_spectral))
    for optimizer in ("bvdr", "cs"):
        cfg = nd.PipelineConfig(optimizer=optimizer)
        out, report = nd.restore(case.blurred, case.ipsf_spectral,
                                 case.psf, cfg)
        assert report is not None and report.iterations >= 1
        assert np.all(np.isfinite(out))
    with pytest.raises(InputError):
        nd.restore(case.blurred, case.ipsf_spectral, None,
                   nd.PipelineConfig(optimizer="cs"))


def test_denoise_pipeline_path(corpus_texture):
    blurred = nd.convolve(corpus_texture, nd.gaussian_kernel(1.0, 5))
    noisy = nd.add_impulse_noise(blurred, 0.02, seed=24)
    cfg = nd.PipelineConfig(ar_p=13, ar_q=13, psf_l=7, psf_m=7, denoise=True,
                            denoise_order=33, denoise_size=17)
    result = nd.estimate_kernels(noisy, cfg)
    assert result.prefiltered is not None
    assert result.prefilter_kernel.shape == (33, 33)
    assert (nd.psnr(result.prefiltered, corpus_texture)
            > nd.psnr(noisy, corpus_texture))
    assert abs(result.psf.sum() - 1.0) <= 1e-12


def test_every_fft_runs_at_a_smooth_length(monkeypatch):
    """Every forward transform of a denoised space-route estimate, of a
    spectral-route one (its batched full convolutions) and of their
    single-pass restorations on an odd-sized image runs at a 2·3·5-smooth
    length: numpy.fft is several times slower at lengths such as 519."""
    import numpy.fft._pocketfft as pocketfft
    image = nd.texture((131, 127), seed=31)
    lengths = []

    def recording(transform):
        def wrapped(a, n=None, axis=-1, *args, **kwargs):
            lengths.append(np.shape(a)[axis] if n is None else n)
            return transform(a, n, axis, *args, **kwargs)
        return wrapped

    for name in ("fft", "rfft"):
        # the public names, and the module globals rfft2/rfftn call through
        transform = recording(getattr(np.fft, name))
        monkeypatch.setattr(np.fft, name, transform)
        monkeypatch.setattr(pocketfft, name, transform)
    np.fft.rfft2(np.ones((7, 9)))
    assert lengths == [9, 7]

    for cfg in (nd.PipelineConfig(denoise=True, ipsf_route="space"),
                nd.PipelineConfig()):
        lengths.clear()
        result = nd.estimate_kernels(image, cfg)
        nd.deconvolve_once(image if result.prefiltered is None
                           else result.prefiltered, result.ipsf)
        assert len(lengths) > 10
        assert [n for n in lengths if not is_smooth(n)] == []


# --- the estimate's gradient moments on the worker thread


def _inline(task, here):
    """``pipeline._beside`` with both callables on the calling thread, the
    caller's first, as the estimate ran before the moments moved."""
    mine = here()
    return task(), mine


@pytest.mark.parametrize("denoise", [False, True], ids=["plain", "denoise"])
@pytest.mark.parametrize("route", ["spectral", "space"])
@pytest.mark.parametrize("blur", ["gaussian", "motion"])
def test_estimate_worker_gives_serial_bits(blur, route, denoise,
                                           corpus_texture, monkeypatch):
    kernel = (nd.gaussian_kernel(1.0, 5) if blur == "gaussian"
              else nd.motion_kernel(7, 30.0))
    image = nd.convolve(corpus_texture, kernel)
    if denoise:
        image = nd.add_impulse_noise(image, 0.02, seed=24)
    cfg = nd.PipelineConfig(ar_p=13, ar_q=13, psf_l=7, psf_m=7,
                            ipsf_route=route, denoise=denoise,
                            denoise_order=13, denoise_size=7)
    concurrent = estimate_bits(image, cfg)
    monkeypatch.setattr(pipeline, "_beside", _inline)
    assert estimate_bits(image, cfg) == concurrent


def test_gradient_moments_error_comes_after_the_fit_chain(tmp_path, capsys):
    """An image the fit chain accepts but the 1 x 39 gradient statistics
    do not fails as it did when they ran after the fit: the same error,
    exit 3 at stage estimate."""
    image = nd.texture((1000, 43), seed=1)
    cfg = nd.PipelineConfig(ar_p=3, ar_q=41, psf_l=1, psf_m=39)
    message = "image (1000, 43) too small for 1x39 gradient statistics"
    with pytest.raises(DimensionError) as exc:
        nd.estimate_kernels(image, cfg)
    assert str(exc.value) == message
    write_pgm(tmp_path / "t.pgm", image)
    code = cli.main(["estimate", str(tmp_path / "t.pgm"),
                     "--ar-order", "3", "41", "--psf-size", "1", "39",
                     "--out-psf", str(tmp_path / "h.kern"),
                     "--out-ipsf", str(tmp_path / "g.kern")])
    assert code == 3
    assert (capsys.readouterr().err.strip()
            == f"estimate failed at stage estimate: {message}")


def test_fit_chain_error_wins_over_the_moments(gaussian_case, monkeypatch):
    """When the null basis and the moments both fail, the basis error
    propagates, as when the moments ran after it."""
    class BasisFailed(Exception):
        pass

    def fail_basis(*args, **kwargs):
        raise BasisFailed

    def fail_moments(*args, **kwargs):
        raise DimensionError("moments")

    monkeypatch.setattr(pipeline, "compute_cns", fail_basis)
    monkeypatch.setattr(pipeline, "gradient_moments", fail_moments)
    with pytest.raises(BasisFailed):
        nd.estimate_kernels(gaussian_case.blurred,
                            nd.PipelineConfig(ar_p=13, ar_q=13))


def held_arrays(obj):
    """Every numpy array reachable from ``obj`` through dataclass fields,
    tuples, lists and dict values, each replaced by the array that owns
    its memory."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        return [obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        children = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, (tuple, list)):
        children = obj
    elif isinstance(obj, dict):
        children = obj.values()
    else:
        return []
    return [a for child in children for a in held_arrays(child)]


def test_estimate_holds_no_full_eigensystem():
    """An estimate keeps the null side of its eigensystem only: the arrays
    it holds take less than one l*m x l*m matrix (2.24 MB for a 23 x 23
    kernel; observed 1.10 MB, and 2.80 MB when the basis kept every
    eigenvector)."""
    image = nd.convolve(nd.texture((128, 128), seed=3),
                        nd.gaussian_kernel(1.0, 5))
    cfg = nd.PipelineConfig(ar_p=25, ar_q=25, psf_l=23, psf_m=23)
    result = nd.estimate_kernels(image, cfg)
    owners = {id(a): a for a in held_arrays(result)}
    held = sum(a.nbytes for a in owners.values())
    assert result.basis.null_vectors.shape == (23 * 23,
                                               result.basis.null_dim)
    assert held < (23 * 23) ** 2 * 8


def test_stages_compose_to_the_pipeline_psf():
    """The lower-level stages, each with its defaults, give
    estimate_kernels' kernel pair bit for bit on both inverse routes:
    every window statistic reads the image's one statistics region."""
    x = nd.convolve(nd.texture((512, 512), seed=7), nd.gaussian_kernel(1.0, 5))
    basis = nd.compute_cns(nd.build_operator(nd.estimate_ar(x, 17, 17), 9, 9))
    h0 = nd.estimate_psf(nd.gradient_stats(x, basis), basis)
    h, _ = nd.optimize_psf(h0, basis)
    assert np.array_equal(h, nd.estimate_kernels(x).psf)
    g, _ = nd.optimize_ipsf_space(nd.ipsf_space(x, h), x, h)
    space = nd.estimate_kernels(x, nd.PipelineConfig(ipsf_route="space"))
    assert np.array_equal(h, space.psf)
    assert np.array_equal(g, space.ipsf)

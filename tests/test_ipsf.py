import dataclasses
import logging
import warnings

import numpy as np
import pytest

import nsdeblur as nd
from conftest import SPACE_CFG, center_share, noisy_case_image
from nsdeblur.config import OptimizerConfig
from nsdeblur.errors import DegenerateKernelError, InputError
from nsdeblur.grid import correlation_lags, shifted_taps, window_gram
from nsdeblur.ipsf import (curvature_system_matrix, difference_operators,
                           space_system)
from nsdeblur.surface import surface_area


def unridged_system(image, h):
    """The space-route statistics before the ridge, rebuilt from the grid
    primitives: the Gram of the re-degraded image's (2l-1) x (2m-1)
    windows and their products with the original's window centers."""
    l, m = h.shape
    wl, wm = 2 * l - 1, 2 * m - 1
    y = nd.convolve(image, h)
    ni, nk = y.shape[0] - wl + 1, y.shape[1] - wm + 1
    centers = image[l - 1:l - 1 + ni, m - 1:m - 1 + nk]
    ryx = correlation_lags(centers, y, rows=wl)[:, :wm].ravel()
    return window_gram(y, wl, wm), ryx, wl, wm


@pytest.fixture(scope="module")
def sharp_basis(corpus_texture):
    return nd.compute_cns(
        nd.build_operator(nd.estimate_ar(corpus_texture, 13, 13), 9, 9))


def test_convolution_matrix_realizes_full_convolution():
    rng = np.random.default_rng(0)
    h = rng.random((3, 5))
    mat = shifted_taps(h, *h.shape)
    assert mat.shape == (15, 45)
    u = rng.random((5, 9))
    out = (mat @ u.ravel()).reshape(3, 5)
    ref = np.empty((3, 5))
    for i in range(3):
        for j in range(5):
            ref[i, j] = np.sum(h * u[i:i + 3, j:j + 5])
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_spectral_inverse_of_delta_is_center_dominant(sharp_basis):
    g = nd.ipsf_spectral(nd.delta_kernel(9), sharp_basis)
    assert center_share(nd.delta_kernel(9), g) >= 0.8
    assert abs(g.sum() - 1.0) <= 1e-12


def test_spectral_single_vector_closed_form(corpus_texture):
    basis = nd.compute_cns(
        nd.build_operator(nd.estimate_ar(corpus_texture, 13, 13), 9, 9),
        force_single=True)
    h = nd.delta_kernel(9)
    g = nd.ipsf_spectral(h, basis)
    m0 = basis.squared_flat.T @ shifted_taps(h, *h.shape)
    center = (17 * 17 - 1) // 2
    u_closed = float(m0[0, center] / (m0[0] @ m0[0]))
    flat = basis.squared_flat[:, 0] * u_closed
    np.testing.assert_allclose(g.ravel(), flat / flat.sum(), atol=1e-12)


def test_optimize_spectral_single_vector_fixed_point(corpus_texture):
    basis = nd.compute_cns(
        nd.build_operator(nd.estimate_ar(corpus_texture, 13, 13), 9, 9),
        force_single=True)
    h = nd.delta_kernel(9)
    g0 = nd.ipsf_spectral(h, basis)
    g1, rep = nd.optimize_ipsf_spectral(g0, h, basis)
    assert np.abs(g1 - g0).max() <= 1e-10


def test_optimize_spectral_non_increasing_surface(gaussian_case):
    case = gaussian_case
    g0 = nd.ipsf_spectral(case.psf, case.basis)
    g1, rep = nd.optimize_ipsf_spectral(g0, case.psf, case.basis)
    assert surface_area(g1) <= surface_area(g0) + 1e-9
    assert abs(g1.sum() - 1.0) <= 1e-12


def test_space_inverse_of_delta_on_rich_image(corpus_texture):
    g = nd.ipsf_space(corpus_texture, nd.delta_kernel(9))
    assert center_share(nd.delta_kernel(9), g) >= 0.8


def test_space_inverse_matches_dense_oracle():
    rng = np.random.default_rng(1)
    img = rng.random((16, 16))
    h = nd.normalize_kernel(rng.random((3, 3)))
    system = space_system(img, h, 1e-6)
    g = nd.ipsf_space(img, h, system=system)
    # dense normal equations assembled independently
    y = nd.convolve(img, h)
    rows = []
    target = []
    for pi in range(16 - 5 + 1):
        for pk in range(16 - 5 + 1):
            rows.append(y[pi:pi + 5, pk:pk + 5].ravel())
            target.append(img[pi + 2, pk + 2])
    a = np.array(rows)
    b = np.array(target)
    ridge = 1e-6 * np.trace(a.T @ a) / 25
    assert system.ridge == pytest.approx(ridge, rel=1e-12)
    ref = np.linalg.solve(a.T @ a + ridge * np.eye(25), a.T @ b)
    np.testing.assert_allclose(g.ravel(), ref, atol=1e-8)


@pytest.mark.parametrize("ridge", [np.nan, np.inf, -1e-6, -1.0, 0.0])
@pytest.mark.parametrize("call", [
    lambda img, h, r: nd.ipsf_space(
        img, h, system=space_system(img, h, r)),
    lambda img, h, r: nd.ipsf_space(
        img, h, system=space_system(img, h, ridge_relative=r)),
    lambda img, h, r: nd.optimize_ipsf_space(
        np.zeros((5, 5)), img, h, system=space_system(img, h, r)),
], ids=["ipsf_space-ridge", "ipsf_space-ridge_relative",
        "optimize_ipsf_space-ridge"])
def test_space_ridge_must_be_finite_and_nonnegative(call, ridge):
    """The one ridge rule, finite and > 0, checked where either solve's
    system is built, passed by position or by name: a NaN ridge is not
    quietly the default, an infinite one an all-NaN kernel, nor a zero
    one an unridged solve."""
    img = np.random.default_rng(1).random((16, 16))
    with pytest.raises(InputError, match="ridge"):
        call(img, nd.delta_kernel(3), ridge)


def test_space_system_takes_no_absolute_ridge(gaussian_case):
    """The absolute ridge is gone: passing one fails instead of being read
    as a relative one."""
    with pytest.raises(TypeError, match="ridge"):
        space_system(gaussian_case.blurred, gaussian_case.psf, ridge=1.0)


@pytest.mark.parametrize("path, kwargs", [
    ("default-ridge", {}), ("ridge", {"ridge_relative": 1.0}),
    ("relative-ridge", {"ridge_relative": 1e-2}), ("pinv", {})])
def test_space_system_adds_the_ridge_in_place(path, kwargs, gaussian_case):
    """The shared system is ``ryy + ridge * I`` bit for bit, the matrix
    each solve used to build for itself, and ipsf_space solves it with
    np.linalg.solve.  The "ridge" case is as large as the mean diagonal
    entry.  The "pinv" case is a noisy, well-conditioned image, once
    solved by pseudo-inverse: it takes the default ridge too."""
    h = gaussian_case.psf
    x = (noisy_case_image(gaussian_case) if path == "pinv"
         else gaussian_case.blurred)
    ryy, ryx, wl, wm = unridged_system(x, h)
    trace, n = float(np.trace(ryy)), ryy.shape[0]
    ridge = {"default-ridge": 1e-8 * trace / n, "ridge": trace / n,
             "relative-ridge": 1e-2 * trace / n,
             "pinv": 1e-8 * trace / n}[path]
    system = space_system(x, h, **kwargs)
    g = nd.ipsf_space(x, h, system=system)
    summed = ryy + ridge * np.eye(n)
    assert system.ridge == ridge and (system.wl, system.wm) == (wl, wm)
    assert system.ryy.tobytes() == summed.tobytes()
    assert system.ryx.tobytes() == ryx.tobytes()
    old = np.linalg.solve(summed, ryx)
    assert g.tobytes() == old.reshape(wl, wm).tobytes()


def test_space_system_is_read_only(gaussian_case):
    system = space_system(gaussian_case.blurred, gaussian_case.psf)
    with pytest.raises(ValueError, match="read-only"):
        system.ryy[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        system.ryx[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.ridge = 0.0


def test_space_builds_log_and_warn_nothing(gaussian_case, caplog):
    """The applied ridge is recorded on the system, not reported: no
    standalone solve, standalone optimizer, or plain or denoised
    space-route estimate (whose prefilter has its own ridge) logs a record
    or raises a warning, with the default ridge or a given one."""
    x, h = gaussian_case.blurred, gaussian_case.psf
    g0 = nd.ipsf_space(x, h, system=space_system(x, h, 1e-2))
    calls = [lambda: nd.ipsf_space(x, h),
             lambda: nd.optimize_ipsf_space(g0, x, h, SPACE_CFG)]
    for denoise in (False, True):
        cfg = nd.PipelineConfig(ar_p=13, ar_q=13, psf_l=7, psf_m=7,
                                ipsf_route="space", denoise=denoise,
                                denoise_order=13, denoise_size=7)
        calls.append(lambda cfg=cfg: nd.estimate_kernels(x, cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with caplog.at_level(logging.DEBUG):
            for call in calls:
                call()
    assert caplog.records == []


@pytest.mark.parametrize("call", [
    lambda x, h: space_system(x, h),
    lambda x, h: nd.ipsf_space(x, h),
    lambda x, h: nd.optimize_ipsf_space(np.zeros((17, 17)), x, h),
], ids=["space_system", "ipsf_space", "optimize_ipsf_space"])
def test_all_zero_image_has_no_space_inverse(call):
    """An all-zero image gives a zero-trace system, which no ridge makes
    usable: a typed error, not an all-zero inverse kernel."""
    with pytest.raises(DegenerateKernelError, match="zero trace"):
        call(np.zeros((64, 64)), nd.gaussian_kernel(1.0, 9))


def pinv_space_inverse(image, h):
    """The pseudo-inverse solve the fixed default ridge replaced, kept as
    a reference: it applied when no ridge was given and the unridged
    system's smallest eigenvalue was above 1e-8 of its largest."""
    ryy, ryx, wl, wm = unridged_system(image, h)
    eigvals = np.linalg.eigvalsh(ryy)
    assert eigvals[0] > 1e-8 * eigvals[-1], "case never took the pinv path"
    return (np.linalg.pinv(ryy, rcond=1e-10) @ ryx).reshape(wl, wm)


def estimated_case(image):
    """The image with the kernel its default space-route estimate finds."""
    return image, nd.estimate_kernels(
        image, nd.PipelineConfig(ipsf_route="space")).psf


def random_case():
    """The image and kernel of the one-step optimizer oracle below."""
    rng = np.random.default_rng(4)
    img = rng.random((24, 24))
    return img, nd.normalize_kernel(rng.random((3, 3)))


#: well-conditioned space systems: case -> (image, kernel), given fixtures
PINV_CASES = {
    "delta-on-texture": lambda f: (f("corpus_texture"), nd.delta_kernel(9)),
    "noisy-gaussian": lambda f: (noisy_case_image(f("gaussian_case")),
                                 f("gaussian_case").psf),
    "texture-40x40": lambda f: estimated_case(nd.texture((40, 40), seed=0)),
    "texture-64x1024": lambda f: estimated_case(
        nd.texture((64, 1024), seed=0)),
    "random-24x24": lambda f: random_case(),
}


@pytest.mark.parametrize("case", list(PINV_CASES))
def test_default_ridge_matches_the_pseudo_inverse(case, request):
    """On systems that were solved by pseudo-inverse, the default ridge's
    LU solve moves the inverse kernel by at most 1e-3 of its peak."""
    image, h = PINV_CASES[case](request.getfixturevalue)
    ref = pinv_space_inverse(image, h)
    g = nd.ipsf_space(image, h)
    assert np.abs(g - ref).max() <= 1e-3 * np.abs(ref).max()


def check_space_cross_correlation(image, h):
    """The FFT cross-correlation against the window centers equals the
    accumulated window-times-center products."""
    system = space_system(image, h)
    ryx, wl, wm = system.ryx, system.wl, system.wm
    y = nd.convolve(image, h)
    ni, nk = y.shape[0] - wl + 1, y.shape[1] - wm + 1
    centers = image[h.shape[0] - 1:h.shape[0] - 1 + ni,
                    h.shape[1] - 1:h.shape[1] - 1 + nk]
    ref = np.zeros(wl * wm)
    for i in range(ni):
        for k in range(nk):
            ref += y[i:i + wl, k:k + wm].ravel() * centers[i, k]
    assert np.abs(ryx - ref).max() <= 1e-12 * np.abs(ref).max()


def test_space_cross_correlation_matches_window_products(corpus_texture):
    check_space_cross_correlation(corpus_texture, nd.gaussian_kernel(1.0, 5))


def test_space_cross_correlation_at_odd_image_size():
    """129 x 131 is transformed at 135 x 135, past the image's own size,
    and the re-degrading 7 x 7 kernel goes through the FFT filter."""
    image = nd.texture((129, 131), seed=9)
    check_space_cross_correlation(image, nd.gaussian_kernel(1.5, 7))


def test_space_sharper_than_spectral(motion_case):
    """The space-domain inverse concentrates more sharply than the
    spectral one on the same input."""
    case = motion_case
    peak_sigma_space = (np.abs(case.ipsf_space).max()
                        / np.std(case.ipsf_space))
    peak_sigma_spectral = (np.abs(case.ipsf_spectral).max()
                           / np.std(case.ipsf_spectral))
    assert peak_sigma_space > peak_sigma_spectral


def product_difference_operators(wl, wm):
    """The operators as matrix products of the first differences on the
    flattened grid, the form the Kronecker one replaced."""
    eye_x, eye_y = np.eye(wl), np.eye(wm)
    dx = np.kron(np.gradient(eye_x, axis=0), eye_y)
    dy = np.kron(eye_x, np.gradient(eye_y, axis=0))
    return {"dx": dx, "dy": dy, "dxx": dx @ dx, "dyy": dy @ dy,
            "dxy": dx @ dy}


@pytest.mark.parametrize("wl, wm", [(17, 17), (13, 13), (9, 9), (17, 9),
                                    (3, 5)])
def test_difference_operators_match_matrix_products(wl, wm):
    """Bit for bit, signed zeros included."""
    ops, ref = difference_operators(wl, wm), product_difference_operators(
        wl, wm)
    assert ops.keys() == ref.keys()
    for key in ops:
        assert ops[key].tobytes() == ref[key].tobytes(), key


def test_difference_operators_match_gradient():
    rng = np.random.default_rng(2)
    g = rng.random((5, 7))
    ops = difference_operators(5, 7)
    np.testing.assert_allclose((ops["dx"] @ g.ravel()).reshape(5, 7),
                               np.gradient(g, axis=0), atol=1e-12)
    np.testing.assert_allclose((ops["dy"] @ g.ravel()).reshape(5, 7),
                               np.gradient(g, axis=1), atol=1e-12)


@pytest.mark.parametrize("wl, wm", [(1, 5), (5, 1), (1, 1)])
def test_difference_operators_one_tap_axis_has_none(wl, wm):
    """An axis one tap long has zero differences; the other axis keeps
    np.gradient's."""
    g = np.random.default_rng(3).random((wl, wm))
    ops = difference_operators(wl, wm)
    for key, axis in (("dx", 0), ("dy", 1)):
        got = (ops[key] @ g.ravel()).reshape(wl, wm)
        ref = (np.gradient(g, axis=axis) if g.shape[axis] > 1
               else np.zeros_like(g))
        np.testing.assert_allclose(got, ref, atol=1e-12)
    for key in ("dxx", "dxy") if wl == 1 else ("dyy", "dxy"):
        assert not ops[key].any()


def test_curvature_system_zero_on_affine_interior():
    plane = np.fromfunction(lambda i, k: 0.2 * i - 0.4 * k, (7, 7))
    ops = difference_operators(7, 7)
    field = (curvature_system_matrix(plane.ravel(), ops)
             @ plane.ravel()).reshape(7, 7)
    assert np.abs(field[1:-1, 1:-1]).max() <= 1e-12


def test_curvature_system_matches_pointwise_operator():
    rng = np.random.default_rng(3)
    g = rng.random((7, 7)) * 0.1
    ops = difference_operators(7, 7)
    lin = (curvature_system_matrix(g.ravel(), ops) @ g.ravel()).reshape(7, 7)
    np.testing.assert_allclose(lin, nd.curvature_operator(g), atol=1e-8)


def test_optimize_space_one_step_matches_dense_oracle():
    img, h = random_case()
    g0 = nd.ipsf_space(img, h)
    cfg = OptimizerConfig(lambda0=1e-3, max_iters=1, eps=1e-300, theta=1.0)
    g1, rep = nd.optimize_ipsf_space(g0, img, h, cfg)
    ryy, ryx, wl, wm = unridged_system(img, h)
    ryy[np.diag_indices_from(ryy)] += 1e-8 * np.trace(ryy) / ryy.shape[0]
    ops = difference_operators(wl, wm)
    system = ryy - 1e-3 * curvature_system_matrix(g0.ravel(), ops)
    ref = np.linalg.solve(system, ryx).reshape(wl, wm)
    np.testing.assert_allclose(g1, ref, atol=1e-8)


def test_optimize_space_preserves_identity(motion_case):
    case = motion_case
    assert center_share(case.psf, case.ipsf_space) >= 0.6


def test_space_route_improves_motion_restoration_direction(motion_case):
    """Deconvolution identity of both optimized routes on the motion case."""
    case = motion_case
    assert center_share(case.psf, case.ipsf_spectral) >= 0.6

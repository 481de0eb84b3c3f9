import dataclasses
import logging
import warnings

import numpy as np
import pytest

import nsdeblur as nd
from conftest import SPACE_CFG, center_share, noisy_case_image
from nsdeblur.config import OptimizerConfig
from nsdeblur.errors import InputError
from nsdeblur.grid import shifted_taps
from nsdeblur.ipsf import (_space_system, curvature_system_matrix,
                           difference_operators, space_system)
from nsdeblur.surface import surface_area


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
    g = nd.ipsf_space(img, h, system=space_system(img, h, ridge=1e-6))
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
    ref = np.linalg.solve(a.T @ a + 1e-6 * np.eye(25), a.T @ b)
    np.testing.assert_allclose(g.ravel(), ref, atol=1e-8)


@pytest.mark.parametrize("ridge", [np.nan, np.inf, -1e-6])
@pytest.mark.parametrize("call", [
    lambda img, h, r: nd.ipsf_space(
        img, h, system=space_system(img, h, ridge=r)),
    lambda img, h, r: nd.ipsf_space(
        img, h, system=space_system(img, h, ridge_relative=r)),
    lambda img, h, r: nd.optimize_ipsf_space(
        np.zeros((5, 5)), img, h, system=space_system(img, h, ridge=r)),
], ids=["ipsf_space-ridge", "ipsf_space-ridge_relative",
        "optimize_ipsf_space-ridge"])
def test_space_ridge_must_be_finite_and_nonnegative(call, ridge):
    """The space_ridge rule, checked where either solve's system is built:
    a NaN ridge is not quietly 0, nor an infinite one an all-NaN kernel."""
    img = np.random.default_rng(1).random((16, 16))
    with pytest.raises(InputError, match="ridge"):
        call(img, nd.delta_kernel(3), ridge)


@pytest.mark.parametrize("path, kwargs", [
    ("default-ridge", {}), ("ridge", {"ridge": 1.0}),
    ("relative-ridge", {"ridge_relative": 1e-2}), ("pinv", {})])
def test_space_system_adds_the_ridge_in_place(path, kwargs, gaussian_case):
    """The shared system is ``ryy + ridge * I`` bit for bit, the matrix
    each solve used to build for itself, and ipsf_space solves it as it
    did: np.linalg.solve with a ridge, pinv without."""
    h = gaussian_case.psf
    x = (noisy_case_image(gaussian_case) if path == "pinv"
         else gaussian_case.blurred)
    ryy, ryx, wl, wm = _space_system(x, h)
    trace, n = float(np.trace(ryy)), ryy.shape[0]
    ridge = {"default-ridge": 1e-8 * trace / n, "ridge": 1.0,
             "relative-ridge": 1e-2 * trace / n, "pinv": 0.0}[path]
    system = space_system(x, h, **kwargs)
    g = nd.ipsf_space(x, h, system=system)
    summed = ryy + ridge * np.eye(n)
    assert system.ridge == ridge and (system.wl, system.wm) == (wl, wm)
    assert system.ryy.tobytes() == summed.tobytes()
    assert system.ryx.tobytes() == ryx.tobytes()
    old = (np.linalg.solve(summed, ryx) if ridge > 0.0
           else np.linalg.pinv(ryy, rcond=1e-10) @ ryx)
    assert g.tobytes() == old.reshape(wl, wm).tobytes()


def test_space_system_is_read_only(gaussian_case):
    system = space_system(gaussian_case.blurred, gaussian_case.psf, ridge=1.0)
    with pytest.raises(ValueError, match="read-only"):
        system.ryy[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        system.ryx[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.ridge = 0.0


def default_ridge_records(caplog, call):
    """The levels of the default-ridge records ``call`` logs on the
    ``nsdeblur`` logger; any warning it raises fails the test."""
    caplog.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with caplog.at_level(logging.INFO, logger="nsdeblur"):
            call()
    return [r.levelname for r in caplog.records
            if r.name == "nsdeblur" and "default ridge" in r.getMessage()]


def test_default_ridge_is_logged_once_per_build(gaussian_case, caplog):
    """The default ridge is recorded, not warned: one INFO record for each
    system build that takes it (a standalone solve, a standalone
    optimizer, a plain or a denoised space-route estimate, whose
    prefilter has its own ridge) and none when a ridge is given."""
    x, h = gaussian_case.blurred, gaussian_case.psf
    given = space_system(x, h, ridge=1.0)
    g0 = nd.ipsf_space(x, h, system=given)
    assert default_ridge_records(caplog, lambda: nd.ipsf_space(x, h)) == [
        "INFO"]
    assert default_ridge_records(
        caplog, lambda: nd.optimize_ipsf_space(g0, x, h, SPACE_CFG)) == [
        "INFO"]
    assert default_ridge_records(caplog, lambda: nd.optimize_ipsf_space(
        g0, x, h, SPACE_CFG, system=given)) == []
    for denoise in (False, True):
        cfg = nd.PipelineConfig(ar_p=13, ar_q=13, psf_l=7, psf_m=7,
                                ipsf_route="space", denoise=denoise,
                                denoise_order=13, denoise_size=7)
        assert default_ridge_records(
            caplog, lambda: nd.estimate_kernels(x, cfg)) == ["INFO"]
        assert default_ridge_records(caplog, lambda: nd.estimate_kernels(
            x, dataclasses.replace(cfg, space_ridge=1.0))) == []


def check_space_cross_correlation(image, h):
    """The FFT cross-correlation against the window centers equals the
    accumulated window-times-center products."""
    ryy, ryx, wl, wm = _space_system(image, h)
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
    rng = np.random.default_rng(4)
    img = rng.random((24, 24))
    h = nd.normalize_kernel(rng.random((3, 3)))
    g0 = nd.ipsf_space(img, h)
    cfg = OptimizerConfig(lambda0=1e-3, max_iters=1, eps=1e-300, theta=1.0)
    g1, rep = nd.optimize_ipsf_space(g0, img, h, cfg)
    ryy, ryx, wl, wm = _space_system(img, h)
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

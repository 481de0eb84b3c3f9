import warnings

import numpy as np
import pytest

import nsdeblur as nd
from conftest import embed, ncc
from nsdeblur.config import STOP_GATE, OptimizerConfig
from nsdeblur.errors import DegenerateKernelError, DimensionError
from nsdeblur.psf import (_shift_average_matrix, basis_derivative_products,
                          gradient_moments)
from nsdeblur.surface import surface_area


@pytest.fixture(scope="module")
def small_basis():
    img = nd.texture((96, 96), seed=21)
    return nd.compute_cns(nd.build_operator(nd.estimate_ar(img, 9, 9), 5, 5))


def test_optimize_psf_rejects_an_overflowing_kernel(small_basis):
    """A start whose tap sum overflows is degenerate, not the all-zero
    kernel a gate failure would hand back."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateKernelError):
            nd.optimize_psf(np.full((5, 5), 1e308), small_basis)


def test_constant_image_gives_zero_stats(small_basis):
    coeffs = nd.gradient_stats(np.full((96, 96), 0.4), small_basis)
    assert coeffs.shape == (small_basis.null_dim,)
    np.testing.assert_allclose(coeffs, 0.0, atol=1e-10)


def test_coefficients_match_direct_projection(small_basis):
    img = nd.texture((96, 96), seed=22)
    coeffs = nd.gradient_stats(img, small_basis)

    # direct loop oracle for the correlation term of the first coefficient
    grad = nd.gradient(img)
    l = m = 5
    v = small_basis.null_vectors[:, 0].reshape(l, m)
    vf = v[::-1, ::-1]
    acc = 0.0
    for pi in range(img.shape[0] - l):
        for pk in range(img.shape[1] - m):
            w = grad[pi:pi + l, pk:pk + m]
            acc += np.sum(w * v) * np.sum(w * vf)
    shift = v.ravel() @ _shift_average_matrix(grad, l, m) @ v.ravel()
    d = acc + shift ** 2
    assert coeffs[0] == pytest.approx(np.sign(d) * np.sqrt(abs(d)),
                                      rel=1e-10)


def test_single_vector_stats_shape():
    img = nd.texture((96, 96), seed=23)
    basis = nd.compute_cns(
        nd.build_operator(nd.estimate_ar(img, 9, 9), 5, 5),
        force_single=True)
    assert nd.gradient_stats(img, basis).shape == (1,)


def test_image_too_small_rejected(small_basis):
    with pytest.raises(DimensionError):
        nd.gradient_stats(np.ones((8, 8)), small_basis)


def test_estimate_is_normalized_and_in_span(small_basis):
    img = nd.texture((96, 96), seed=24)
    h = nd.estimate_psf(nd.gradient_stats(img, small_basis), small_basis)
    assert abs(h.sum() - 1.0) <= 1e-12
    # expansion lives in the span of the squared-basis grids
    coeffs, *_ = np.linalg.lstsq(small_basis.squared_flat, h.ravel(),
                                 rcond=None)
    recon = small_basis.squared_flat @ coeffs
    assert np.linalg.norm(recon - h.ravel()) <= 1e-10


def test_coefficient_count_must_match_basis(small_basis):
    with pytest.raises(DimensionError):
        nd.estimate_psf(np.ones(small_basis.null_dim + 1), small_basis)


def moments_with_diagonal(basis, rho_diag, omega_diag):
    """Moments whose projections onto the basis are diagonal with the
    given entries: V diag(d) V^T with its columns reversed, since
    gradient_stats reverses them back, and V diag(w) V^T."""
    v = basis.null_vectors
    cross = (v * rho_diag) @ v.T
    return cross[:, ::-1], (v * omega_diag) @ v.T


def test_sign_rule_at_zero_is_positive(small_basis):
    k = small_basis.null_dim
    assert k >= 2
    zero = np.zeros(k)
    coeffs = nd.gradient_stats(
        None, small_basis, moments_with_diagonal(small_basis, zero, zero))
    assert coeffs.tobytes() == zero.tobytes()      # +0.0, not -0.0
    rho = np.zeros(k)
    rho[:2] = 4.0, -9.0
    omega = np.zeros(k)
    omega[2:] = 0.5
    coeffs = nd.gradient_stats(
        None, small_basis, moments_with_diagonal(small_basis, rho, omega))
    expected = np.full(k, 0.5)                     # sqrt(0 + 0.5 ** 2)
    expected[:2] = 2.0, -3.0
    np.testing.assert_allclose(coeffs, expected, rtol=1e-12)


def test_sharp_image_estimate_is_center_dominant(corpus_texture):
    basis = nd.compute_cns(
        nd.build_operator(nd.estimate_ar(corpus_texture, 13, 13), 7, 7))
    h, _ = nd.optimize_psf(
        nd.estimate_psf(nd.gradient_stats(corpus_texture, basis), basis),
        basis)
    center = (3, 3)
    assert np.unravel_index(np.abs(h).argmax(), h.shape) == center
    assert abs(h[center]) >= 0.5 * np.abs(h).sum()


def test_synthetic_blur_recovery(gaussian_case):
    case = gaussian_case
    target = embed(case.true_kernel, case.size, case.size)
    assert ncc(case.psf, target) >= 0.7


def test_optimize_psf_converges_fast(gaussian_case):
    rep = gaussian_case.psf_report
    assert rep.stop_reason == "eps_reached"
    assert rep.iterations <= 10
    assert rep.lambda_trace[0] == pytest.approx(0.01)
    assert abs(gaussian_case.psf.sum() - 1.0) <= 1e-12


def test_optimize_psf_contraction_and_surface(gaussian_case):
    rep = gaussian_case.psf_report
    res = rep.residual_trace
    ratios = [res[t] / res[t + 1] for t in range(len(res) - 1) if res[t + 1] > 0]
    assert all(r >= 10.0 for r in ratios[:3])


def test_optimize_smooth_kernel_is_fixed_point(small_basis):
    # project a centered smooth bump into the basis span, then optimize
    i, k = np.mgrid[0:5, 0:5] - 2
    bump = np.exp(-(i ** 2 + k ** 2) / 2.0)
    coeffs, *_ = np.linalg.lstsq(small_basis.squared_flat, bump.ravel(),
                                 rcond=None)
    h0 = (small_basis.squared_flat @ coeffs).reshape(5, 5)
    h0 = h0 / h0.sum()
    h1, rep = nd.optimize_psf(h0, small_basis)
    assert np.abs(h1 - h0).max() <= 1e-3
    assert surface_area(h1) <= surface_area(h0) + 1e-9


def test_optimizer_gate_failure_returns_input(small_basis, monkeypatch):
    img = nd.texture((96, 96), seed=25)
    h0 = nd.estimate_psf(nd.gradient_stats(img, small_basis), small_basis)
    cfg = OptimizerConfig(theta=1e12, eps=1e-300, max_iters=20)
    h1, rep = nd.optimize_psf(h0, small_basis, cfg)
    assert rep.stop_reason == STOP_GATE
    np.testing.assert_array_equal(h1, h0 / h0.sum())


def test_kernel_basis_mismatch_rejected(small_basis):
    with pytest.raises(DimensionError):
        nd.optimize_psf(nd.delta_kernel(7), small_basis)


def loop_derivative_products(basis):
    """One null vector at a time, each grid edge-padded on its own."""
    n, k = basis.l * basis.m, basis.null_dim
    dx, dy = np.empty((n, k)), np.empty((n, k))
    for j in range(k):
        v = basis.null_vectors[:, j].reshape(basis.l, basis.m)
        p = np.pad(v, 1, mode="edge")
        dx[:, j] = (0.5 * (p[2:, 1:-1] - p[:-2, 1:-1]) * v).ravel()
        dy[:, j] = (0.5 * (p[1:-1, 2:] - p[1:-1, :-2]) * v).ravel()
    return dx, dy


@pytest.mark.parametrize("l, m", [(5, 5), (5, 7), (9, 9)])
def test_derivative_products_bit_equal_to_loop(l, m):
    img = nd.texture((96, 96), seed=24)
    basis = nd.compute_cns(nd.build_operator(nd.estimate_ar(img, 11, 11), l, m))
    assert basis.null_dim > 1
    for got, ref in zip(basis_derivative_products(basis),
                        loop_derivative_products(basis)):
        np.testing.assert_array_equal(got, ref)
        assert got.flags.c_contiguous


@pytest.mark.parametrize("shape, l, m", [((511, 511), 9, 9),
                                         ((200, 157), 7, 5)])
def test_shift_average_matrix_matches_box_means(shape, l, m):
    """Against explicit box means of a gradient field: within 1e-12 of the
    largest one (a mean near zero has no relative accuracy to speak of)."""
    field = nd.gradient(nd.texture(shape, seed=25))
    kx, ky = field.shape[0] - 2 * l, field.shape[1] - 2 * m
    means = np.array([[field[u:u + kx, v:v + ky].mean()
                       for v in range(1, 2 * m)] for u in range(1, 2 * l)])
    got = _shift_average_matrix(field, l, m)
    scale = np.abs(means).max()
    for i in range(l):
        for lc in range(m):
            for j in range(l):
                for mc in range(m):
                    assert abs(got[i * m + lc, j * m + mc]
                               - means[i + j, lc + mc]) <= 1e-12 * scale


def projection_path(image, basis):
    """The coefficients as the two full K x K projections gave them: the
    symmetrised cross-flipped projection and the shift-average one, then
    the signed square root of their diagonal combination."""
    gram, shift_average = gradient_moments(image, basis.l, basis.m)
    v = basis.null_vectors
    rho = v.T @ gram[:, ::-1] @ v
    rho = 0.5 * (rho + rho.T)
    omega = v.T @ shift_average @ v
    d = np.diag(rho) + np.diag(omega) ** 2
    sign = np.where(d < 0, -1.0, 1.0)
    return sign * np.sqrt(np.abs(d))


@pytest.mark.parametrize("seed, blur, order, size, single", [
    (31, nd.delta_kernel(1), 9, 5, False),
    (32, nd.gaussian_kernel(1.0, 5), 11, 7, False),
    (33, nd.motion_kernel(5, 30.0), 13, 9, False),
    (34, nd.gaussian_kernel(1.4, 7), 9, 5, True),
], ids=["sharp-5x5", "gaussian-7x7", "motion-9x9", "single-vector"])
def test_gradient_stats_bit_equal_to_projection_path(seed, blur, order, size,
                                                     single):
    """Each coefficient reads one diagonal entry of the same two products,
    so the result is bit for bit that of the full projections; the
    single-vector case is the prefilter's K = 1 basis."""
    img = nd.convolve(nd.texture((128, 128), seed=seed), blur)
    basis = nd.compute_cns(
        nd.build_operator(nd.estimate_ar(img, order, order), size, size),
        force_single=single)
    assert (basis.null_dim == 1) == single
    coeffs = nd.gradient_stats(img, basis)
    assert coeffs.tobytes() == projection_path(img, basis).tobytes()
    moments = gradient_moments(img, size, size)
    assert nd.gradient_stats(img, basis, moments).tobytes() == coeffs.tobytes()

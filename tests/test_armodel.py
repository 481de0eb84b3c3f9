import numpy as np
import pytest

import nsdeblur as nd
from numpy.lib.stride_tricks import sliding_window_view

from conftest import ar_texture, smooth_stencil, stencil_sums
from nsdeblur.armodel import RIDGE_SCALE, default_fit_region
from nsdeblur.errors import (DegenerateOperatorError, DimensionError,
                             InsufficientDataError)
from nsdeblur.grid import window_gram


def test_white_noise_1x1_model():
    rng = np.random.default_rng(0)
    img = rng.random((64, 64))
    model = nd.estimate_ar(img, 1, 1)
    np.testing.assert_array_equal(model.coeffs, [[1.0]])
    top, left, side, _ = default_fit_region(img.shape, 1, 1)
    region = img[top:top + side, left:left + side]
    assert model.residual == pytest.approx(np.mean(region * region))


def two_pass_fit(image, p, q):
    """Reference fit: normal equations from the free and center columns of
    every window of the default region, then a second pass for the
    residual."""
    top, left, rows, cols = default_fit_region(image.shape, p, q)
    windows = sliding_window_view(image[top:top + rows, left:left + cols],
                                  (p, q)).reshape(-1, p * q)
    center = (p // 2) * q + q // 2
    keep = np.arange(p * q) != center
    free = windows[:, keep]
    gram = free.T @ free
    ridge = RIDGE_SCALE * np.trace(gram)
    coeffs = np.ones(p * q)
    coeffs[keep] = np.linalg.solve(gram + ridge * np.eye(p * q - 1),
                                   -free.T @ windows[:, center])
    r = windows @ coeffs
    return coeffs.reshape(p, q), float(r @ r) / r.size


@pytest.mark.parametrize("seed, shape, p, q", [
    (3, (96, 96), 5, 5), (7, (128, 100), 7, 9), (11, (160, 160), 13, 13)])
def test_one_pass_fit_matches_two_pass_reference(seed, shape, p, q):
    img = nd.convolve(nd.texture(shape, seed=seed), nd.gaussian_kernel(1.0, 5))
    model = nd.estimate_ar(img, p, q)
    coeffs, residual = two_pass_fit(img, p, q)
    assert (np.abs(model.coeffs - coeffs).max()
            <= 1e-8 * np.abs(coeffs).max())
    assert model.residual == pytest.approx(residual, rel=1e-8)


def gathered_fit(image, p, q):
    """The fit with its free block gathered by ``np.ix_`` and the ridge
    added as a separate ``ridge * I``: (coeffs, residual, ridge)."""
    top, left, rows, cols = default_fit_region(image.shape, p, q)
    gram = window_gram(image[top:top + rows, left:left + cols], p, q)
    center = (p // 2) * q + q // 2
    keep = np.arange(p * q) != center
    free = gram[np.ix_(keep, keep)]
    ridge = RIDGE_SCALE * float(np.trace(free))
    system = free + ridge * np.eye(p * q - 1)
    a_free = np.linalg.solve(system, -gram[keep, center])
    coeffs = np.empty(p * q)
    coeffs[keep] = a_free
    coeffs[center] = 1.0
    n_eq = (rows - p + 1) * (cols - q + 1)
    return coeffs.reshape(p, q), float(coeffs @ gram @ coeffs) / n_eq, ridge


def model_bytes(model):
    return model.coeffs.tobytes(), model.residual, model.ridge


@pytest.mark.parametrize("p, q", [(1, 1), (1, 5), (5, 1), (3, 3), (13, 13),
                                  (17, 17), (33, 33)])
def test_free_block_slices_match_the_gathered_fit(p, q):
    """Four slice copies and an in-place ridge give the gathered fit bit
    for bit: off the diagonal x + ridge * 0.0 is x."""
    img = nd.convolve(nd.texture((128, 128), seed=p * q),
                      nd.gaussian_kernel(1.0, 5))
    coeffs, residual, ridge = gathered_fit(img, p, q)
    assert model_bytes(nd.estimate_ar(img, p, q)) == (coeffs.tobytes(),
                                                      residual, ridge)


def test_singular_fit_falls_back_to_lstsq_unchanged():
    """An all-zero image has ridge 0 and a singular system.  The fit no
    longer falls back to least squares there: it raises the typed error
    the null split raised for such an image after the fallback."""
    with pytest.raises(DegenerateOperatorError, match="singular"):
        nd.estimate_ar(np.zeros((64, 64)), 5, 5)


def test_center_pinned_to_one():
    img = nd.texture((96, 96), seed=3)
    model = nd.estimate_ar(img, 5, 5)
    assert model.coeffs[2, 2] == 1.0


def test_ar_texture_satisfies_stencil():
    stencil = smooth_stencil(5, 5)
    img = ar_texture(stencil, (64, 64), noise_amp=1e-6, seed=6)
    res = stencil_sums(img, stencil)
    assert np.linalg.norm(res) <= 1e-3 * np.linalg.norm(img)


def test_smooth_stencil_center_is_one():
    st = smooth_stencil(7, 7)
    assert st[3, 3] == 1.0
    assert st.shape == (7, 7)


def test_recovers_known_stencil():
    f = np.array([-0.499, 1.0, -0.499])
    stencil = np.outer(f, f)
    img = ar_texture(stencil, (96, 96), noise_amp=1e-4, seed=2)
    model = nd.estimate_ar(img, 3, 3)
    np.testing.assert_allclose(model.coeffs, stencil, atol=1e-3)


def test_whitening_residual_small_on_self_synthesized():
    # the synthesis floor is ~1.5e-4 relative (normalization fixes the
    # noise-to-signal ratio regardless of the requested amplitude)
    stencil = smooth_stencil(5, 5)
    img = ar_texture(stencil, (96, 96), noise_amp=1e-5, seed=4)
    model = nd.estimate_ar(img, 5, 5)
    res = stencil_sums(img, model.coeffs)
    assert np.linalg.norm(res) <= 1e-3 * np.linalg.norm(img)


def test_insufficient_region_rejected():
    img = np.random.default_rng(1).random((32, 32))
    with pytest.raises(InsufficientDataError):
        nd.estimate_ar(img, 5, 5, region=(0, 0, 6, 6))


def test_even_order_rejected():
    with pytest.raises(DimensionError):
        nd.estimate_ar(np.ones((32, 32)), 4, 5)


def test_build_operator_single_shift_is_lexicographic_stencil():
    img = nd.texture((64, 64), seed=5)
    model = nd.estimate_ar(img, 3, 3)
    op = nd.build_operator(model, 1, 1)
    assert op.matrix.shape == (1, 9)
    np.testing.assert_array_equal(op.matrix[0], model.coeffs.ravel())


def test_build_operator_block_toeplitz_rows():
    img = nd.texture((64, 64), seed=6)
    model = nd.estimate_ar(img, 5, 5)
    op = nd.build_operator(model, 3, 3)
    assert op.matrix.shape == (9, 49)
    # consecutive rows inside a block are one-column shifts of each other
    np.testing.assert_array_equal(op.matrix[0][:-1], op.matrix[1][1:])
    # all rows carry the same multiset of values
    base = np.sort(op.matrix[0])
    for row in op.matrix[1:]:
        np.testing.assert_allclose(np.sort(row), base)


def test_operator_annihilates_self_synthesized_patches():
    # separable cosine products are annihilated exactly by a 5x5 stencil
    # whose axis factors null their frequencies, so the fitted model's
    # operator must annihilate every patch of the image
    n = 96
    i, k = np.mgrid[0:n, 0:n].astype(float)
    wa, wb = 2 * np.pi * 3 / n, 2 * np.pi * 7 / n
    va, vb = 2 * np.pi * 5 / n, 2 * np.pi * 2 / n
    img = (np.cos(wa * i) * np.cos(va * k)
           + 0.5 * np.cos(wb * i) * np.cos(vb * k)
           + 0.25 * np.cos(wa * i + 0.3) * np.cos(vb * k + 1.1))
    model = nd.estimate_ar(img, 5, 5)
    op = nd.build_operator(model, 3, 3)
    rows, cols = op.p + op.l - 1, op.q + op.m - 1
    window = img[20:20 + rows, 20:20 + cols].ravel()
    assert (np.linalg.norm(op.matrix @ window)
            <= 1e-6 * np.linalg.norm(window))


def test_build_operator_sizing_checks():
    img = nd.texture((64, 64), seed=8)
    model = nd.estimate_ar(img, 5, 5)
    with pytest.raises(DimensionError):
        nd.build_operator(model, 5, 3)
    with pytest.raises(DimensionError):
        nd.build_operator(model, 3, 4)

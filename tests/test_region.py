"""The one bounded statistics region of the kernel estimate: its size and
placement, the whole-image equivalence of every image of at most 256 x
256, the halos of the gradient and of the re-degraded image, and the
fall-back to the whole image on a flat centre."""

import math

import numpy as np
import pytest

import nsdeblur as nd
import nsdeblur.grid as grid
import nsdeblur.psf as psf
from conftest import embed, estimate_bits, ncc, unfolded_space_system
from nsdeblur.grid import (WINDOW_BUDGET, fold_gram, gradient,
                           region_with_halo, statistics_region, window_gram)
from nsdeblur.ipsf import space_system

BLURS = {"gaussian": nd.gaussian_kernel(1.0, 5),
         "motion": nd.motion_kernel(7, 30.0)}


def whole(image, p, q):
    return 0, 0, *np.shape(image)


@pytest.mark.parametrize("shape", [(256, 256), (131, 127), (256, 64),
                                   (40, 256)])
@pytest.mark.parametrize("p, q", [(1, 1), (3, 41), (17, 17), (33, 33)])
def test_images_up_to_256_are_read_whole(shape, p, q):
    image = nd.texture(shape, seed=1)
    assert statistics_region(image, p, q) == (0, 0, *shape)


@pytest.mark.parametrize("shape, p, region", [
    ((512, 512), 17, (88, 88, 336, 336)),
    ((512, 512), 33, (80, 80, 352, 352)),
    ((1000, 200), 17, (332, 0, 336, 200)),
    ((400, 350), 17, (32, 7, 336, 336))])
def test_larger_images_get_the_centred_budget(shape, p, region):
    """Each side at most sqrt(WINDOW_BUDGET) + p - 1, so WINDOW_BUDGET
    windows of p x p where both sides are cut."""
    image = nd.texture(shape, seed=2)
    assert statistics_region(image, p, p) == region
    rows, cols = region[2:]
    if min(shape) >= math.isqrt(WINDOW_BUDGET) + p - 1:
        assert (rows - p + 1) * (cols - p + 1) == WINDOW_BUDGET


@pytest.mark.parametrize("route, denoise", [("spectral", False),
                                            ("space", False),
                                            ("space", True)])
@pytest.mark.parametrize("shape", [(256, 256), (200, 256)])
def test_small_estimates_are_the_whole_image_ones(monkeypatch, shape, route,
                                                  denoise):
    """Every image of at most 256 x 256 is estimated bit for bit as with
    statistics read over the whole image, as before the region existed;
    the denoised case is the denoise-space-256 corpus builder's."""
    clean = nd.texture(shape, seed=1000 * 29 + 1)
    image = nd.add_impulse_noise(nd.convolve(clean, BLURS["motion"]), 0.02,
                                 seed=1000 * 29 + 501)
    cfg = nd.PipelineConfig(ipsf_route=route, denoise=denoise)
    bounded = estimate_bits(image, cfg)
    for module in ("grid", "pipeline", "deconv", "armodel", "psf", "ipsf"):
        monkeypatch.setattr(f"nsdeblur.{module}.statistics_region", whole)
    assert estimate_bits(image, cfg) == bounded


def test_gradient_moments_take_the_whole_image_gradient():
    """With its one-pixel halo, the region's gradient is the whole image's
    on the region, bit for bit, at the image's edges too."""
    image = nd.texture((300, 280), seed=3)
    field = gradient(image)
    for region in ((0, 0, 100, 90), (17, 31, 200, 180), (100, 101, 200, 179)):
        top, left, rows, cols = region
        expected = field[top:top + rows, left:left + cols]
        view, inner = region_with_halo(image, region, (1, 1))
        assert np.array_equal(gradient(view)[inner], expected)
        gram, _ = psf.gradient_moments(image, 5, 5, region)
        assert np.array_equal(gram, window_gram(expected[:-1, :-1], 5, 5))


def test_space_system_re_degrades_the_region_with_its_halo():
    """The region's re-degraded values are the whole image's, to rounding:
    the system over a region matches the one built from the whole image's
    re-degraded copy cut to that region, folded."""
    image = nd.texture((300, 300), seed=4)
    h = embed(nd.gaussian_kernel(1.0, 5), 7, 7)
    region = (14, 0, 256, 290)
    system = space_system(image, h, region=region)
    expected = fold_gram(
        unfolded_space_system(image, h, system.ridge, region)[0])
    np.testing.assert_allclose(system.ryy, expected, rtol=0,
                               atol=1e-12 * np.abs(expected).max())


def test_a_region_outside_the_image_is_refused():
    image = nd.texture((64, 64), seed=5)
    with pytest.raises(nd.DimensionError, match="outside image"):
        psf.gradient_moments(image, 3, 3, (10, 10, 60, 20))
    with pytest.raises(nd.DimensionError, match="outside image"):
        space_system(image, nd.gaussian_kernel(1.0, 3), region=(-1, 0, 64, 64))


def flat_centre(blur, side):
    clean = nd.texture((512, 512), seed=77)
    top = (512 - side) // 2
    clean[top:top + side, top:top + side] = 0.5
    return nd.convolve(clean, BLURS[blur])


@pytest.mark.parametrize("blur", list(BLURS))
@pytest.mark.parametrize("side", [256, 300, 328])
def test_a_flat_centre_estimates_as_the_whole_image(monkeypatch, blur, side):
    """A 512 x 512 texture whose central square is constant leaves over
    half of the centred 336 x 336 region's tiles flat, so the region falls
    back to the whole image: the estimate succeeds, its kernel within 0.01
    NCC of the whole-image fit.  Read alone, that region gave K = 3-5 and
    NCC -0.71 to 0.54 with a 328 square, although its mean squared
    gradient, edges of the square included, was 0.31-0.98 of the image's."""
    image = flat_centre(blur, side)
    assert statistics_region(image, 17, 17) == (0, 0, 512, 512)
    truth = embed(BLURS[blur], 9, 9)
    bounded = nd.estimate_kernels(image)
    monkeypatch.setattr("nsdeblur.pipeline.statistics_region", whole)
    reference = nd.estimate_kernels(image)
    assert bounded.basis.null_dim > 1
    assert abs(ncc(bounded.psf, truth) - ncc(reference.psf, truth)) <= 0.01


def test_the_flat_share_is_the_rule(monkeypatch):
    """The region is kept while its median tile energy is at least
    FLAT_SHARE of the whole image's, and dropped below it: a texture's
    ratio is near 1, a flat centre's 0."""
    texture = nd.texture((512, 512), seed=77)
    flat = flat_centre("gaussian", 256)
    bounded, whole_image = (88, 88, 336, 336), (0, 0, 512, 512)
    for share, for_texture, for_flat in ((0.0, bounded, bounded),
                                         (0.5, bounded, whole_image),
                                         (1.5, whole_image, whole_image)):
        monkeypatch.setattr(grid, "FLAT_SHARE", share)
        assert statistics_region(texture, 17, 17) == for_texture
        assert statistics_region(flat, 17, 17) == for_flat


@pytest.mark.parametrize("shape", [(200, 10000), (10, 5000), (5000, 10),
                                   (18, 2000)])
def test_thin_images_get_a_region_quietly(shape, recwarn):
    """An image too thin for a row or column of tiles keeps its centred
    region, with no warning from an empty median."""
    image = np.random.default_rng(0).random(shape)
    top, left, rows, cols = statistics_region(image, 17, 17)
    assert (rows, cols) == tuple(min(n, 336) for n in shape)
    assert not recwarn.list

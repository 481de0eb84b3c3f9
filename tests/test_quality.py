import numpy as np
import pytest

import nsdeblur as nd
from nsdeblur.errors import DimensionError, InputError
from nsdeblur.quality import AiConfig


def test_constant_image_has_zero_index():
    assert nd.anisotropy_index(np.full((120, 120), 0.5)) == 0.0


def test_horizontal_sinusoid_is_anisotropic():
    i, j = np.mgrid[0:128, 0:128]
    img = 0.5 + 0.4 * np.sin(2.0 * np.pi * j / 6.0)
    assert nd.anisotropy_index(img) > 0.0


def test_index_nonnegative_on_random():
    rng = np.random.default_rng(0)
    assert nd.anisotropy_index(rng.random((110, 110))) >= 0.0


def test_blur_ladder_monotone(corpus_texture):
    values = [nd.anisotropy_index(corpus_texture)]
    for sigma, size in ((0.6, 5), (1.0, 5), (1.6, 7)):
        values.append(nd.anisotropy_index(
            nd.convolve(corpus_texture, nd.gaussian_kernel(sigma, size))))
    assert all(values[t] > values[t + 1] for t in range(len(values) - 1))


def test_restoration_raises_index(gaussian_case):
    case = gaussian_case
    restored = nd.deconvolve_once(case.blurred, case.ipsf_spectral)
    assert (nd.anisotropy_index(restored)
            > nd.anisotropy_index(case.blurred))


def test_fragment_validation():
    with pytest.raises(DimensionError):
        nd.anisotropy_index(np.ones((64, 64)), AiConfig(fragment=100))
    for settings in ({"window": 7}, {"fragment": 0}, {"fragment": -5},
                     {"fragment": 50.5}, {"fragment": 64.0},
                     {"window": 8.0}, {"window": True}):
        with pytest.raises(InputError):
            AiConfig(**settings)
    assert AiConfig(window=np.int64(6), fragment=np.int32(64)) == AiConfig(
        window=6, fragment=64)


def test_psnr_basics():
    a = np.full((8, 8), 0.25)
    assert nd.psnr(a, a) == float("inf")
    b = a + 0.1
    assert nd.psnr(a, b) == pytest.approx(20.0, abs=1e-9)
    with pytest.raises(DimensionError):
        nd.psnr(a, np.ones((4, 4)))

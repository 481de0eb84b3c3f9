import numpy as np
import pytest

import nsdeblur as nd
from nsdeblur.errors import InputError
from nsdeblur.synth import motion_shape


def test_gaussian_sigma_zero_is_delta():
    np.testing.assert_array_equal(nd.gaussian_kernel(0.0), [[1.0]])
    k = nd.gaussian_kernel(0.0, 5)
    assert k.shape == (5, 5) and k[2, 2] == 1.0


def test_gaussian_kernel_normalized_and_symmetric():
    k = nd.gaussian_kernel(1.0)
    assert abs(k.sum() - 1.0) <= 1e-12
    np.testing.assert_allclose(k, k[::-1, ::-1])
    np.testing.assert_allclose(k, k.T)


def test_motion_axis_aligned_is_uniform_line():
    k = nd.motion_kernel(5, 0.0)
    assert k.shape == (1, 5)
    np.testing.assert_allclose(k, np.full((1, 5), 0.2))
    k90 = nd.motion_kernel(5, 90.0)
    assert k90.shape == (5, 1)
    np.testing.assert_allclose(k90.sum(), 1.0, atol=1e-12)


def test_motion_diagonal_normalized():
    k = nd.motion_kernel(5, 45.0)
    assert abs(k.sum() - 1.0) <= 1e-12
    assert k.shape[0] == k.shape[1]


def test_motion_kernel_at_every_angle():
    """Every length and angle gives a unit-sum, non-negative kernel of
    the shape ``motion_shape`` reports.  Where a path end lies within
    rounding of a grid line, e.g. length 5 at 240 degrees, a splat of
    weight 1e-16 used to index past the kernel and raise IndexError."""
    for length in range(1, 40):
        for angle in np.linspace(-360.0, 360.0, 97):
            k = nd.motion_kernel(length, angle)
            assert k.shape == motion_shape(length, angle)
            assert abs(k.sum() - 1.0) <= 1e-12 and k.min() >= 0.0


def test_disk_kernel_normalized():
    k = nd.disk_kernel(2.0)
    assert abs(k.sum() - 1.0) <= 1e-12
    assert k.shape == (5, 5)
    np.testing.assert_array_equal(nd.disk_kernel(0.0), [[1.0]])


@pytest.mark.parametrize("radius", [1e-3, 0.05, 0.3])
def test_disk_inside_the_centre_pixel_is_a_delta(radius):
    """A disk that misses every sample used to give 0/0 taps, and the
    ``synth`` command exited 3 with "kernel contains NaN or Inf"."""
    np.testing.assert_array_equal(nd.disk_kernel(radius), nd.delta_kernel(3))


def test_impulse_noise_density_and_determinism():
    img = np.full((64, 64), 0.5)
    noisy = nd.add_impulse_noise(img, 0.1, seed=3)
    changed = np.mean(noisy != img)
    assert 0.05 <= changed <= 0.15
    assert set(np.unique(noisy[noisy != img])) <= {0.0, 1.0}
    np.testing.assert_array_equal(noisy, nd.add_impulse_noise(img, 0.1, seed=3))
    clean = nd.add_impulse_noise(img, 0.0)
    assert clean is not img
    np.testing.assert_array_equal(clean, img)
    assert np.all(img == 0.5)
    with pytest.raises(InputError):
        nd.add_impulse_noise(img, 1.5)


def test_texture_range_and_determinism():
    a = nd.texture((64, 64), seed=5)
    b = nd.texture((64, 64), seed=5)
    np.testing.assert_array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 1.0
    assert a.std() > 0.05

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from nsdeblur.errors import DimensionError
from nsdeblur.surface import (curvature_operator, metric_determinant,
                              surface_area)


def smooth_field(seed, n=16, amp=0.03, flat_margin=3):
    """Random smooth field, exactly flat near the boundary, max slope amp."""
    rng = np.random.default_rng(seed)
    f = gaussian_filter(rng.standard_normal((n, n)), 2.0, mode="reflect")
    ramp = 0.5 - 0.5 * np.cos(np.linspace(0.0, np.pi, 5))
    w = np.ones(n)
    w[:flat_margin] = 0.0
    w[flat_margin:flat_margin + 5] = ramp
    w[-flat_margin:] = 0.0
    w[-(flat_margin + 5):-flat_margin] = ramp[::-1]
    f = f * np.outer(w, w)
    f *= amp / max(np.abs(np.gradient(f)).max(), 1e-12)
    return f


def test_constant_surface_area_is_cell_count():
    assert surface_area(np.full((5, 7), 2.0)) == pytest.approx(35.0)


def test_unit_slope_plane_area():
    plane = np.fromfunction(lambda i, k: i * 1.0, (6, 8))
    assert surface_area(plane) == pytest.approx(48.0 * np.sqrt(2.0))


def test_surface_area_matches_loop_oracle():
    rng = np.random.default_rng(11)
    g = rng.random((8, 8))
    sx = np.gradient(g, axis=0)
    sy = np.gradient(g, axis=1)
    ref = 0.0
    for i in range(8):
        for k in range(8):
            ref += np.sqrt(1.0 + sx[i, k] ** 2 + sy[i, k] ** 2)
    assert surface_area(g) == pytest.approx(ref, abs=1e-12)


def test_surface_area_lower_bound():
    rng = np.random.default_rng(12)
    g = rng.random((9, 9))
    assert surface_area(g) >= 81.0


def test_metric_determinant_cases():
    np.testing.assert_array_equal(metric_determinant(np.full((4, 4), 1.5)),
                                  np.ones((4, 4)))
    plane = np.fromfunction(lambda i, k: i * 1.0, (5, 5))
    np.testing.assert_allclose(metric_determinant(plane)[1:-1, 1:-1], 2.0)
    rng = np.random.default_rng(13)
    g = rng.random((6, 6))
    sx = np.gradient(g, axis=0)
    sy = np.gradient(g, axis=1)
    np.testing.assert_array_equal(metric_determinant(g),
                                  1.0 + sx * sx + sy * sy)
    assert metric_determinant(g).min() >= 1.0


def test_curvature_zero_on_affine():
    plane = np.fromfunction(lambda i, k: 0.3 * i - 0.7 * k + 2.0, (7, 7))
    assert np.abs(curvature_operator(plane)[1:-1, 1:-1]).max() <= 1e-12


def test_curvature_matches_symbolic_paraboloid():
    n = 11
    i, k = np.mgrid[0:n, 0:n] - n // 2
    s = (i ** 2 + k ** 2).astype(float)
    out = curvature_operator(s)
    # symbolic evaluation of the pointwise expression at grid coordinates;
    # repeated central differencing is exact for quadratics two cells in
    sx, sy = 2.0 * i, 2.0 * k
    sigma = 1.0 + sx * sx + sy * sy
    ref = sigma ** -1.5 * ((1.0 + sy * sy) * 2.0 + (1.0 + sx * sx) * 2.0)
    np.testing.assert_allclose(out[2:-2, 2:-2], ref[2:-2, 2:-2], atol=1e-6)


@pytest.mark.parametrize("seed", range(5))
def test_gradient_consistency_on_smooth_fields(seed):
    """Keystone check: the finite-difference gradient of the surface area
    matches minus the pointwise curvature at interior points."""
    g = smooth_field(seed)
    curv = curvature_operator(g)
    scale = np.abs(curv[1:-1, 1:-1]).max()
    eta = 1e-6
    worst = 0.0
    for i in range(1, 15):
        for k in range(1, 15):
            plus = g.copy()
            plus[i, k] += eta
            minus = g.copy()
            minus[i, k] -= eta
            fd = (surface_area(plus) - surface_area(minus)) / (2.0 * eta)
            worst = max(worst, abs(fd + curv[i, k]))
    assert worst <= 1e-3 * scale


def gradient_curvature(g):
    """The curvature expression written out on ``np.gradient`` fields."""
    sx = np.gradient(g, axis=0)
    sy = np.gradient(g, axis=1)
    sxx = np.gradient(sx, axis=0)
    syy = np.gradient(sy, axis=1)
    sxy = np.gradient(sy, axis=0)
    sigma = 1.0 + sx * sx + sy * sy
    return sigma ** -1.5 * ((1.0 + sy * sy) * sxx + (1.0 + sx * sx) * syy
                            - 2.0 * sx * sy * sxy)


@pytest.mark.parametrize("shape", [(3, 3), (3, 8), (7, 3), (17, 5),
                                   (32, 32), (64, 48)])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0])
def test_curvature_matches_gradient_formulation(shape, scale):
    g = scale * np.random.default_rng(shape[0] * shape[1]).standard_normal(
        shape)
    ref = gradient_curvature(g)
    assert np.abs(curvature_operator(g) - ref).max() <= 1e-14 * np.abs(
        ref).max()


def test_size_validation():
    with pytest.raises(DimensionError):
        surface_area(np.ones((1, 5)))
    with pytest.raises(DimensionError):
        curvature_operator(np.ones((2, 2)))

import dataclasses
import logging
import tracemalloc
import warnings

import numpy as np
import pytest

import nsdeblur as nd
from conftest import (SPACE_CFG, center_share, centrosymmetric_grids,
                      noisy_case_image, orthonormal_fold, shifted_taps,
                      unfolded_space_system)
from nsdeblur import ipsf
from nsdeblur.config import OptimizerConfig
from nsdeblur.errors import DegenerateKernelError, DimensionError, InputError
from nsdeblur.grid import (fold, fold_gram, full_convolutions,
                           normalize_kernel, unfold)
from nsdeblur.ipsf import difference_maps, space_system
from nsdeblur.psf import surface_penalty_matrix
from nsdeblur.surface import surface_area


def constrained_solve(matrix, rhs):
    """E (E^T A E)^-1 E^T b: the solve over centrosymmetric taps, with E
    the dense expansion rather than the fold's slices or its orthonormal
    rows."""
    e = centrosymmetric_grids(1, len(rhs))
    return e @ np.linalg.solve(e.T @ matrix @ e, e.T @ rhs)


@pytest.fixture(scope="module")
def sharp_basis(corpus_texture):
    return nd.compute_cns(
        nd.build_operator(nd.estimate_ar(corpus_texture, 13, 13), 9, 9))


@pytest.fixture(scope="module")
def wide_basis():
    """33 x 33 model and 31 x 31 kernel on a blurred 128 x 128 texture:
    K = 128, below the fold's 481 rows."""
    x = nd.convolve(nd.texture((128, 128), seed=3), nd.gaussian_kernel(2.0, 9))
    return nd.compute_cns(
        nd.build_operator(nd.estimate_ar(x, 33, 33), 31, 31))


@pytest.mark.parametrize("case", ["gaussian_case", "motion_case", "wide"])
def test_spectral_data_are_the_dense_products(case, request, monkeypatch):
    """The full convolutions m0 of ipsf_spectral, over the rows of the
    dense even fold Q when K reaches their number and over the squared
    grids otherwise, and the
    optimizer's Gram m0 m0^T and anchor m0[:, N // 2], against the
    products with the shifted-taps reference, to 1e-14 of the largest
    entry; the inverse kernel against the one solved from the dense m0,
    to 100 cond(m0) eps of its largest tap, the least-squares solution's
    sensitivity to a perturbation of m0 at rounding level."""
    if case == "wide":
        basis = request.getfixturevalue("wide_basis")
        h = nd.gaussian_kernel(2.0, 31)
    else:
        basis = request.getfixturevalue(case).basis
        h = request.getfixturevalue(case).psf
    convolved, data = [], []

    def recording(grids, kernel):
        convolved.append((grids, full_convolutions(grids, kernel)))
        return convolved[-1][1]

    def captured(g, basis, gram, anchor, cfg):
        data.append((gram, anchor))
        return g, None

    monkeypatch.setattr(ipsf, "full_convolutions", recording)
    monkeypatch.setattr(ipsf, "iterate_spectrum", captured)
    g = nd.ipsf_spectral(h, basis)
    nd.optimize_ipsf_spectral(g, h, basis)
    (grids, m0), (squared, _) = convolved
    (gram, anchor), = data

    def close(value, reference, tol=1e-14):
        assert np.abs(value - reference).max() <= tol * np.abs(
            reference).max()

    n, k = h.size, basis.null_dim
    span = orthonormal_fold(n) if k >= (n + 1) // 2 else basis.squared_flat.T
    assert np.array_equal(grids.reshape(len(span), n), span)
    assert np.array_equal(squared, basis.squared_basis)
    taps = shifted_taps(h, *h.shape)
    dense = span @ taps
    close(m0, dense)
    target = np.zeros(dense.shape[1])
    target[target.size // 2] = 1.0
    flat = span.T @ np.linalg.lstsq(dense.T, target)[0]
    close(g, normalize_kernel(flat.reshape(h.shape)),
          100 * np.linalg.cond(dense) * np.finfo(float).eps)
    dense = basis.squared_flat.T @ taps
    close(gram, dense @ dense.T)
    close(anchor, dense[:, dense.shape[1] // 2])


def test_spectral_inverse_builds_no_dense_matrix(wide_basis):
    """At the 33 x 33 model with a 31 x 31 kernel, the traced peak of each
    spectral-route call stays below 0.75 times the 961 x 61^2 shifted-taps
    matrix (28.6 MB) the calls once built; with it they peaked at 1.26 and
    1.13 times, and without it at 0.34."""
    h = nd.gaussian_kernel(2.0, 31)
    g = nd.ipsf_spectral(h, wide_basis)
    for call in (lambda: nd.ipsf_spectral(h, wide_basis),
                 lambda: nd.optimize_ipsf_spectral(g, h, wide_basis)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * h.size * 61 * 61 * 8


@pytest.mark.parametrize("call", [
    lambda h, g, basis: nd.ipsf_spectral(h, basis),
    lambda h, g, basis: nd.optimize_ipsf_spectral(g, h, basis),
    lambda h, g, basis: nd.optimize_ipsf_spectral(h, g, basis)],
    ids=["ipsf_spectral", "optimize-kernel", "optimize-start"])
def test_spectral_kernels_must_match_the_basis(call, sharp_basis):
    """A 7 x 7 kernel or start on a 9 x 9 basis is a DimensionError, not
    a numpy error from the full convolutions."""
    with pytest.raises(DimensionError, match="match basis"):
        call(nd.delta_kernel(7), nd.delta_kernel(9), sharp_basis)


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
    ref = constrained_solve(a.T @ a + ridge * np.eye(25), a.T @ b)
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


def test_ipsf_space_takes_no_centrosymmetric_switch(gaussian_case):
    """Every space-route inverse is centrosymmetric: the switch is gone,
    and passing it fails instead of being ignored."""
    with pytest.raises(TypeError, match="centrosymmetric"):
        nd.ipsf_space(gaussian_case.blurred, gaussian_case.psf,
                      centrosymmetric=False)


@pytest.mark.parametrize("path, kwargs", [
    ("default-ridge", {}), ("ridge", {"ridge_relative": 1.0}),
    ("relative-ridge", {"ridge_relative": 1e-2}), ("pinv", {})])
def test_space_system_adds_the_ridge_in_place(path, kwargs, gaussian_case):
    """The shared system is the fold (grid.fold_gram and grid.fold,
    checked against the dense fold in test_fold) of ``ryy + ridge * I``,
    the matrix each solve used to build for itself, bit for bit, and
    ipsf_space solves it.  The "ridge" case is as large as the mean
    diagonal entry.  The "pinv" case is a noisy, well-conditioned image,
    once solved by pseudo-inverse: it takes the default ridge too."""
    h = gaussian_case.psf
    x = (noisy_case_image(gaussian_case) if path == "pinv"
         else gaussian_case.blurred)
    ryy, ryx = unfolded_space_system(x, h)
    trace, n = float(np.trace(ryy)), ryy.shape[0]
    wl, wm = 2 * h.shape[0] - 1, 2 * h.shape[1] - 1
    ridge = {"default-ridge": 1e-8 * trace / n, "ridge": trace / n,
             "relative-ridge": 1e-2 * trace / n,
             "pinv": 1e-8 * trace / n}[path]
    system = space_system(x, h, **kwargs)
    g = nd.ipsf_space(x, h, system=system)
    summed = fold_gram(ryy + ridge * np.eye(n))
    assert system.ridge == ridge and (system.wl, system.wm) == (wl, wm)
    assert system.ryy.tobytes() == summed.tobytes()
    assert system.ryx.tobytes() == fold(ryx).tobytes()
    folded = unfold(np.linalg.solve(summed, fold(ryx)), n)
    assert g.tobytes() == folded.reshape(wl, wm).tobytes()


@pytest.mark.parametrize("size", [5, 9])
def test_space_system_holds_only_its_fold(size, gaussian_case):
    """Every array reachable from a SpaceSystem, through its fields and
    their bases, holds at most ceil(n/2)^2 + ceil(n/2) floats for the
    n = (2l-1)(2m-1) taps: the fold, and no n x n Gram."""
    system = space_system(gaussian_case.blurred, nd.gaussian_kernel(1.0, size))
    half = (system.wl * system.wm + 1) // 2
    owners = {}
    for field in dataclasses.fields(system):
        a = getattr(system, field.name)
        if isinstance(a, np.ndarray):
            while isinstance(a.base, np.ndarray):
                a = a.base
            owners[id(a)] = a.size
    assert system.ryy.shape == (half, half) and system.ryx.shape == (half,)
    assert sum(owners.values()) <= half * half + half


@pytest.mark.parametrize("solve", [
    lambda x, h, g0, system: nd.ipsf_space(x, h, system=system),
    lambda x, h, g0, system: nd.optimize_ipsf_space(g0, x, h,
                                                    system=system),
], ids=["ipsf_space", "optimize_ipsf_space"])
def test_space_solves_refuse_a_system_for_another_kernel(solve,
                                                         gaussian_case):
    """A system built for a 5 x 5 kernel, given with a 9 x 9 one, is a
    DimensionError, not a 9 x 9 inverse of the wrong statistics."""
    x, h5 = gaussian_case.blurred, nd.gaussian_kernel(1.0, 5)
    system = space_system(x, h5)
    g0 = nd.ipsf_space(x, h5, system=system)
    with pytest.raises(DimensionError, match="another kernel"):
        solve(x, nd.gaussian_kernel(1.0, 9), g0, system)


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
    system's smallest eigenvalue was above 1e-8 of its largest.  It is
    taken of the system folded by the dense expansion E, as the inverse
    is now sought over centrosymmetric taps."""
    ryy, ryx = unfolded_space_system(image, h)
    wl, wm = 2 * h.shape[0] - 1, 2 * h.shape[1] - 1
    eigvals = np.linalg.eigvalsh(ryy)
    assert eigvals[0] > 1e-8 * eigvals[-1], "case never took the pinv path"
    e = centrosymmetric_grids(wl, wm)
    half = np.linalg.pinv(e.T @ ryy @ e, rcond=1e-10) @ (e.T @ ryx)
    return (e @ half).reshape(wl, wm)


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
    accumulated window-times-center products, and the system holds its
    fold bit for bit."""
    system = space_system(image, h)
    _, ryx = unfolded_space_system(image, h)
    assert system.ryx.tobytes() == fold(ryx).tobytes()
    wl, wm = system.wl, system.wm
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


def dense_differences(wl, wm):
    """np.gradient along x and y as dense (wl*wm) x (wl*wm) matrices on the
    flattened grid; an axis one tap long has none."""
    eye_x, eye_y = np.eye(wl), np.eye(wm)
    gx, gy = (np.gradient(e, axis=0) if len(e) > 1 else 0.0 * e
              for e in (eye_x, eye_y))
    return np.kron(gx, eye_y), np.kron(eye_x, gy)


def dense_penalty(g, wl, wm):
    """Dx^T W Dx + Dy^T W Dy on the full tap grid at taps g, with
    W = (1 + gx^2 + gy^2)^(-1/2), written out with a diagonal W."""
    dx, dy = dense_differences(wl, wm)
    w = np.diag(1.0 / np.sqrt(1.0 + (dx @ g) ** 2 + (dy @ g) ** 2))
    return dx.T @ w @ dx + dy.T @ w @ dy


@pytest.mark.parametrize("wl, wm", [(17, 17), (13, 13), (9, 9), (17, 9),
                                    (3, 5)])
def test_difference_operators_match_matrix_products(wl, wm):
    """The difference operators on the folded taps, the
    :func:`difference_maps`, are the first ceil(wl*wm/2) rows of the dense
    differences times Q^T, for the dense even fold Q, exactly: every
    entry is a sum of two of 0, +-0.5 and +-1 times one of sqrt(1/2) and
    1.  The dense rows are exactly odd under the rotation, with a zero
    centre row."""
    e = orthonormal_fold(wl * wm).T
    half = e.shape[1]
    for got, dense in zip(difference_maps(wl, wm), dense_differences(wl, wm)):
        full = dense @ e
        assert got.shape == (half, half)
        np.testing.assert_array_equal(got, full[:half])
        assert np.array_equal(full[::-1], -full)
        assert not full[half - 1].any()


def test_difference_operators_match_gradient():
    """The maps applied to the folded taps are np.gradient of the unfolded
    grid Q^T y, on its first ceil(35/2) taps."""
    y = np.random.default_rng(2).random(18)
    g = (orthonormal_fold(35).T @ y).reshape(5, 7)
    dx, dy = difference_maps(5, 7)
    np.testing.assert_allclose(dx @ y, np.gradient(g, axis=0).ravel()[:18],
                               atol=1e-12)
    np.testing.assert_allclose(dy @ y, np.gradient(g, axis=1).ravel()[:18],
                               atol=1e-12)


@pytest.mark.parametrize("wl, wm", [(1, 5), (5, 1), (1, 1)])
def test_difference_operators_one_tap_axis_has_none(wl, wm):
    """An axis one tap long has zero maps; the other axis keeps
    np.gradient's."""
    n = wl * wm
    half = (n + 1) // 2
    y = np.random.default_rng(3).random(half)
    g = unfold(y, n).reshape(wl, wm)
    for d, axis in zip(difference_maps(wl, wm), (0, 1)):
        ref = (np.gradient(g, axis=axis) if g.shape[axis] > 1
               else np.zeros_like(g))
        np.testing.assert_allclose(d @ y, ref.ravel()[:half], atol=1e-12)
        assert g.shape[axis] > 1 or not d.any()


def test_penalty_is_the_surface_area_gradient():
    """P(y) y is the gradient in y of the surface area of the taps E y
    (lagged diffusivity: the weight frozen at y reproduces it), against
    central differences of :func:`nsdeblur.surface.surface_area`."""
    y = np.random.default_rng(3).random(25) * 0.3
    dx, dy = difference_maps(7, 7)
    got = surface_penalty_matrix(y, dx, dy) @ y
    step, ref = 1e-6, np.empty(y.size)
    for t in range(y.size):
        e = np.zeros(y.size)
        e[t] = step
        ref[t] = (surface_area(unfold(y + e, 49).reshape(7, 7))
                  - surface_area(unfold(y - e, 49).reshape(7, 7))) / (2 * step)
    np.testing.assert_allclose(got, ref, atol=1e-7 * np.abs(ref).max())


def test_optimize_space_one_step_matches_dense_oracle():
    img, h = random_case()
    g0 = nd.ipsf_space(img, h)
    cfg = OptimizerConfig(lambda0=1e-3, max_iters=1, eps=1e-300, theta=1.0)
    g1, rep = nd.optimize_ipsf_space(g0, img, h, cfg)
    ryy, ryx = unfolded_space_system(img, h)
    ryy[np.diag_indices_from(ryy)] += 1e-8 * np.trace(ryy) / ryy.shape[0]
    system = ryy + 1e-3 * dense_penalty(g0.ravel(), *g0.shape)
    ref = constrained_solve(system, ryx).reshape(g0.shape)
    np.testing.assert_allclose(g1, ref, atol=1e-8)


@pytest.mark.parametrize("case", ["estimated", "random"])
def test_space_solves_return_centrosymmetric_taps(case):
    """Both space solves return g[i, k] = g[wl-1-i, wm-1-k] exactly, for
    an estimated kernel and for a random asymmetric one; the optimizer
    takes at least one step from the primary solve."""
    img, h = (estimated_case(nd.texture((40, 40), seed=0))
              if case == "estimated" else random_case())
    if case == "random":
        assert not np.allclose(h, h[::-1, ::-1])
    g0 = nd.ipsf_space(img, h)
    g1, rep = nd.optimize_ipsf_space(g0, img, h, SPACE_CFG)
    assert rep.iterations >= 1
    for g in (g0, g1):
        assert np.array_equal(g, g[::-1, ::-1])


@pytest.mark.parametrize("case", ["estimated", "random"])
def test_optimize_space_reads_the_centrosymmetric_part_of_its_start(case):
    """The optimizer starts from the fold of g0, which drops g0's
    antisymmetric part exactly: from an asymmetric g0 it returns, to
    1e-14 relative, what it returns from g0's centrosymmetric part, with
    the same steps and stop reason."""
    img, h = (estimated_case(nd.texture((40, 40), seed=0))
              if case == "estimated" else random_case())
    system = space_system(img, h)
    g0 = nd.ipsf_space(img, h, system=system)
    noise = np.random.default_rng(8).standard_normal(g0.shape)
    g0 = g0 + 0.1 * np.abs(g0).max() * noise
    assert not np.allclose(g0, g0[::-1, ::-1])
    runs = [nd.optimize_ipsf_space(start, img, h, SPACE_CFG, system=system)
            for start in (g0, 0.5 * (g0 + g0[::-1, ::-1]))]
    (g1, rep1), (g2, rep2) = runs
    assert rep1.iterations >= 1
    assert (rep1.iterations, rep1.stop_reason) == (rep2.iterations,
                                                   rep2.stop_reason)
    assert np.linalg.norm(g1 - g2) <= 1e-14 * np.linalg.norm(g2)


def test_penalty_matrix_is_rotation_equivariant():
    """At centrosymmetric taps the full-grid penalty matrix is exactly
    symmetric and unchanged by the 180-degree rotation of the grid, so a
    folded optimizer step drops no part of it; at asymmetric taps it is
    not equivariant."""
    r = np.random.default_rng(6).random((7, 5)) * 0.1
    for g, equivariant in ((r + r[::-1, ::-1], True), (r, False)):
        p = dense_penalty(g.ravel(), 7, 5)
        assert np.array_equal(p, p.T)
        assert np.array_equal(p, p[::-1, ::-1]) == equivariant


def test_optimize_space_preserves_identity(motion_case):
    case = motion_case
    assert center_share(case.psf, case.ipsf_space) >= 0.6


def test_space_route_improves_motion_restoration_direction(motion_case):
    """Deconvolution identity of both optimized routes on the motion case."""
    case = motion_case
    assert center_share(case.psf, case.ipsf_spectral) >= 0.6

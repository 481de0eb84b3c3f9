import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from nsdeblur.errors import DegenerateKernelError, DimensionError
import nsdeblur as nd
from conftest import is_smooth, shifted_taps
from nsdeblur import armodel, grid, ipsf, psf
from nsdeblur.grid import (as_image, as_kernel, convolve, correlation_lags,
                           delta_kernel, full_convolutions, gradient,
                           normalize_kernel, replicate_filter, to_luminance,
                           window_gram)
from nsdeblur.pipeline import PipelineConfig


def loop_convolve(img, kernel):
    """Nested-loop oracle for the filtering contract."""
    out = np.zeros_like(img)
    cl, cm = kernel.shape[0] // 2, kernel.shape[1] // 2
    for i in range(img.shape[0]):
        for k in range(img.shape[1]):
            acc = 0.0
            for l in range(kernel.shape[0]):
                for m in range(kernel.shape[1]):
                    ii = min(max(i + l - cl, 0), img.shape[0] - 1)
                    kk = min(max(k + m - cm, 0), img.shape[1] - 1)
                    acc += kernel[l, m] * img[ii, kk]
            out[i, k] = acc
    return out


def test_identity_kernel_preserves_image():
    rng = np.random.default_rng(0)
    img = rng.random((7, 9))
    out = convolve(img, delta_kernel(1))
    np.testing.assert_array_equal(out, img)


def test_normalized_kernel_preserves_constants():
    kernel = normalize_kernel(np.random.default_rng(1).random((3, 5)))
    img = np.full((8, 8), 0.37)
    out = convolve(img, kernel)
    np.testing.assert_allclose(out, img, atol=1e-12)


def test_box_kernel_matches_neighborhood_means():
    img = np.arange(25, dtype=float).reshape(5, 5) / 25.0
    box = np.full((3, 3), 1.0 / 9.0)
    out = convolve(img, box)
    ref = loop_convolve(img, box)
    np.testing.assert_allclose(out, ref, atol=1e-14)
    # interior equals the plain 3x3 mean
    assert out[2, 2] == pytest.approx(img[1:4, 1:4].mean())


# the ids name the boundary the oracle implements
@pytest.mark.parametrize("seed", [0, 1, 2], ids="replicate-{}".format)
def test_convolve_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    img = rng.random((6, 7))
    kernel = rng.standard_normal((3, 5))
    np.testing.assert_allclose(convolve(img, kernel),
                               loop_convolve(img, kernel), atol=1e-13)


def test_convolve_linearity():
    rng = np.random.default_rng(3)
    a, b = rng.random((8, 8)), rng.random((8, 8))
    kernel = rng.standard_normal((3, 3))
    lhs = convolve(2.5 * a - 1.25 * b, kernel)
    rhs = 2.5 * convolve(a, kernel) - 1.25 * convolve(b, kernel)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_convolve_moves_delta_opposite_to_tap():
    img = np.zeros((5, 5))
    img[2, 2] = 1.0
    shifted = np.zeros((3, 3))
    shifted[1, 2] = 1.0  # one tap right of center
    expected = np.zeros((5, 5))
    expected[2, 1] = 1.0
    np.testing.assert_array_equal(convolve(img, shifted), expected)


def test_kernel_larger_than_image_rejected():
    with pytest.raises(DimensionError):
        convolve(np.ones((3, 3)), np.ones((5, 5)))


def test_even_kernel_rejected():
    with pytest.raises(DimensionError):
        as_kernel(np.ones((2, 3)))


def test_normalize_zero_sum_kernel_rejected():
    kernel = np.array([[1.0, -1.0, 0.0]])
    with pytest.raises(DegenerateKernelError):
        normalize_kernel(kernel)


@pytest.mark.parametrize("kernel", [
    np.full((3, 3), 1e308), np.array([[1e308, -1e308, 1e-5]])],
    ids=["sum-overflows", "scaled-tap-overflows"])
def test_normalize_overflowing_kernel_rejected(kernel):
    """Finite taps whose sum, or whose taps over the sum, overflow have no
    unit-sum scaling: a typed error without a warning, not all-zero or
    infinite taps."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateKernelError, match="normalization"):
            normalize_kernel(kernel)


def direct(image, kernel):
    """The direct replicate-boundary correlation, the reference of every
    filter test."""
    return ndimage.correlate(image, kernel, mode="nearest")


def check_filter(image, kernel):
    """The cached-spectrum filter against the direct correlation: within
    1e-12 of the output peak."""
    got = replicate_filter(kernel, image.shape)(image)
    ref = direct(image, kernel)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("kshape", [(n, n) for n in range(1, 35, 2)]
                         + [(3, 9), (9, 3), (1, 7), (7, 1)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_replicate_filter_matches_convolve(kshape):
    rng = np.random.default_rng(kshape[0] * 100 + kshape[1])
    check_filter(rng.random((41, 37)), rng.standard_normal(kshape))


@pytest.mark.parametrize("shape", [(9, 9), (10, 11)])
def test_replicate_filter_image_barely_larger_than_kernel(shape):
    rng = np.random.default_rng(shape[1])
    check_filter(rng.random(shape), rng.standard_normal((9, 9)))


def test_replicate_filter_embedded_delta_is_identity():
    img = np.random.default_rng(6).random((30, 20))
    np.testing.assert_array_equal(
        replicate_filter(delta_kernel(9), img.shape)(img), img)


def test_replicate_filter_repeated_calls_are_independent():
    """The work buffers carry nothing from one call into the next: the same
    image gives the same bits after a call on another, and a returned
    array is not one of the buffers."""
    rng = np.random.default_rng(8)
    a, b = rng.random((20, 20)), 1e3 * rng.random((20, 20))
    kernel = rng.standard_normal((7, 7))
    apply = replicate_filter(kernel, a.shape)
    first = apply(a)
    kept = first.copy()
    second = apply(b)
    np.testing.assert_array_equal(first, kept)
    np.testing.assert_array_equal(apply(a), kept)
    ref = direct(b, kernel)
    assert np.abs(second - ref).max() <= 1e-12 * np.abs(ref).max()


def test_replicate_filter_kernel_larger_than_image_rejected():
    with pytest.raises(DimensionError):
        replicate_filter(np.ones((5, 5)), (3, 7))


@pytest.mark.parametrize("image_shape, kshape", [
    ((256, 256), (33, 33)),              # the prefilter's response
    ((512, 511), (17, 17)),
    ((512, 512), (9, 9)),                # a dense inverse kernel
    ((41, 37), (3, 9)),
])
def test_convolve_dense_kernel_matches_direct(image_shape, kshape):
    rng = np.random.default_rng(kshape[0] * image_shape[1])
    image, kernel = rng.random(image_shape), rng.standard_normal(kshape)
    got, ref = convolve(image, kernel), direct(image, kernel)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("taps", [1, 5, 25, 26, 81])
def test_convolve_is_the_replicate_filter(taps):
    rng = np.random.default_rng(taps + 100)
    kernel = np.zeros(81)
    kernel[rng.choice(81, taps, replace=False)] = rng.standard_normal(taps)
    kernel = kernel.reshape(9, 9)
    image = rng.random((40, 33))
    np.testing.assert_array_equal(
        convolve(image, kernel), replicate_filter(kernel, image.shape)(image))


@pytest.mark.parametrize("kernel", [delta_kernel(9)], ids=["delta9"])
def test_convolve_sparse_kernel_is_direct(kernel):
    """A one-tap kernel gives the direct correlation bit for bit."""
    image = np.random.default_rng(12).random((64, 50))
    np.testing.assert_array_equal(convolve(image, kernel),
                                  direct(image, kernel))


# --- the corpus blurs and other sparse kernels, through the FFT path

SPARSE_KERNELS = {
    "gaussian5": nd.gaussian_kernel(1.0, 5),
    "motion7-30": nd.motion_kernel(7, 30.0),
    "disk2": nd.disk_kernel(2.0),
    "delta9": delta_kernel(9),
    "negative5": np.random.default_rng(40).standard_normal((5, 5)),
    "row1x25": np.random.default_rng(41).standard_normal((1, 25)),
    "col25x1": np.random.default_rng(42).standard_normal((25, 1)),
}


@pytest.mark.parametrize("shape", [(131, 127), (131, 1024), (27, 1024),
                                   (512, 512), (40, 33)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("name", list(SPARSE_KERNELS))
def test_replicate_filter_matches_direct(name, shape):
    image = np.random.default_rng(shape[0] * shape[1]).random(shape)
    check_filter(image, SPARSE_KERNELS[name])


@pytest.mark.parametrize("shape", [(9, 9), (7, 11), (1, 9), (9, 1), (5, 25)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_replicate_filter_kernel_as_large_as_image(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    taps = min(25, shape[0] * shape[1])
    kernel = np.zeros(shape[0] * shape[1])
    kernel[rng.choice(kernel.size, taps, replace=False)] = (
        rng.standard_normal(taps))
    check_filter(rng.random(shape), kernel.reshape(shape))


@pytest.mark.parametrize("image_shape, kshape, tap", [
    ((40, 33), (9, 9), (1, 7)),
    ((7, 11), (7, 11), (6, 0)),          # the kernel as large as the image
], ids=["off-centre", "as-large-as-image"])
def test_one_tap_kernel_is_the_shifted_image(image_shape, kshape, tap):
    """A single negative, non-unit tap off the centre: the direct
    correlation bit for bit, in a new array each call."""
    image = np.random.default_rng(44).random(image_shape)
    kernel = np.zeros(kshape)
    kernel[tap] = -0.37
    apply = replicate_filter(kernel, image_shape)
    first = apply(image)
    np.testing.assert_array_equal(first, direct(image, kernel))
    assert not np.shares_memory(first, image)
    assert not np.shares_memory(first, apply(image))


def test_gradient_of_constant_is_zero():
    out = gradient(np.full((6, 6), 3.0))
    np.testing.assert_array_equal(out, np.zeros((6, 6)))


def test_gradient_of_row_ramp_is_one_inside():
    img = np.fromfunction(lambda i, k: i * 1.0, (6, 6))
    out = gradient(img)
    np.testing.assert_allclose(out[1:-1, 1:-1], 1.0)


def test_gradient_matches_loop_oracle():
    rng = np.random.default_rng(7)
    img = rng.random((6, 6))
    pad = np.pad(img, 1, mode="edge")
    ref = np.empty_like(img)
    for i in range(6):
        for k in range(6):
            ref[i, k] = 0.5 * (pad[i + 2, k + 1] - pad[i, k + 1]
                               + pad[i + 1, k + 2] - pad[i + 1, k])
    np.testing.assert_array_equal(gradient(img), ref)


def test_gradient_needs_3x3():
    with pytest.raises(DimensionError):
        gradient(np.ones((2, 5)))


def check_window_gram(field, p, q, tol=1e-12):
    """The shift recursions against the product of stacked windows, one
    window row at a time: within ``tol`` of the largest entry, exactly
    symmetric, repeatable."""
    ref = np.zeros((p * q, p * q))
    for i in range(field.shape[0] - p + 1):
        rows = sliding_window_view(field[i:i + p], (p, q))[0]
        rows = rows.reshape(-1, p * q)
        ref += rows.T @ rows
    gram = window_gram(field, p, q)
    assert gram.shape == ref.shape
    assert np.abs(gram - ref).max() <= tol * np.abs(ref).max()
    np.testing.assert_array_equal(gram, gram.T)
    np.testing.assert_array_equal(window_gram(field, p, q), gram)


GRAM_SHAPES = [
    ((130, 70), 5, 7), ((48, 48), 9, 9), ((20, 31), 1, 1),
    ((5, 40), 5, 3),                     # one window row
    ((30, 7), 3, 7),                     # one window column
    ((5, 7), 5, 7),                      # a single window
    ((30, 9), 3, 9), ((9, 30), 9, 3),    # p != q both ways
    ((30, 9), 9, 3), ((9, 30), 3, 9),
    ((12, 30), 1, 7), ((30, 12), 7, 1),
]


@pytest.mark.parametrize("shape, p, q", GRAM_SHAPES)
def test_window_gram_matches_stacked_windows(shape, p, q):
    check_window_gram(np.random.default_rng(p * q).standard_normal(shape), p, q)


def test_window_gram_prefilter_order_with_dc_offset():
    field = 5.0 + np.random.default_rng(33).standard_normal((80, 80))
    check_window_gram(field, 33, 33)


@pytest.mark.parametrize("shape, p", [((511, 511), 9), ((255, 257), 17)])
def test_window_gram_at_fast_fft_lengths(shape, p):
    """Fields whose correlation runs at a 2·3·5-smooth length larger than
    the field's own (511 x 519 -> 512 x 540 for gradient_stats' 9 x 9 on
    a 512 x 512 image; 255 x 273 -> 256 x 288): the GEMM result to within
    2e-15 of its largest entry."""
    field = np.random.default_rng(shape[1]).standard_normal(shape)
    cols = shape[1] + p - 1
    assert (grid._fast_len(shape[0]), grid._fast_len(cols)) != (shape[0], cols)
    check_window_gram(field, p, p, tol=2e-15)


def test_fast_len_is_the_next_smooth_length():
    smooth = [n for n in range(1, 2200) if is_smooth(n)]
    for n in range(1, 2001):
        assert grid._fast_len(n) == min(s for s in smooth if s >= n)


def test_window_gram_memory_stays_near_its_output():
    """No N x pq window matrix: the peak traced allocation of a 33x33 Gram
    on a 256x256 field stays under three times the 9.5 MB result."""
    field = np.random.default_rng(0).standard_normal((256, 256))
    tracemalloc.start()
    try:
        gram = window_gram(field, 33, 33)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * gram.nbytes


def test_window_gram_peak_memory_at_512():
    """A 17 x 17 Gram on a 512 x 512 field (estimate_ar's at the default
    model) peaks at most at 5 MiB of traced allocations: the correlation
    keeps two complex buffers and transforms back only its 17 lag rows
    (7.0 MiB when it made the full product and inverse)."""
    field = np.random.default_rng(1).standard_normal((512, 512))
    tracemalloc.start()
    try:
        window_gram(field, 17, 17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2 ** 20


def gemm_window_gram(field, p, q):
    """Reference: the window Gram with each block row's update as one
    product of two stacked window matrices, the q-wide windows of rows
    t + nR over those of rows t, with a 2·nC inner dimension.  The first
    block row and the symmetrisation are :func:`window_gram`'s."""
    f = np.asarray(field, dtype=np.float64)
    n_r, n_c = f.shape[0] - p + 1, f.shape[1] - q + 1
    n = p * q
    gram = np.empty((n, n))
    gram[:q] = grid._first_block_row(f, p, q).transpose(1, 0, 2).reshape(q, n)

    def row_windows(rows):
        wins = sliding_window_view(rows, q, axis=1)
        return wins.transpose(1, 0, 2).reshape(wins.shape[1], -1)

    if p > 1:
        left = np.vstack((row_windows(f[n_r:]), row_windows(f[:p - 1])))
        right = left.copy()
        right[n_c:] *= -1.0
        for a in range(1, p):
            t = (a - 1) * q
            gram[a * q:(a + 1) * q, a * q:] = (
                gram[t:t + q, t:n - q] + left[:, t:t + q].T @ right[:, t:])
    lower = np.tril_indices(q, -1)
    for a in range(p):
        rows = slice(a * q, (a + 1) * q)
        gram[rows, :a * q] = gram[:a * q, rows].T
        diag = gram[rows, rows]
        diag[lower] = diag.T[lower]
    return gram


def _noisy_texture(shape, seed):
    return nd.add_impulse_noise(nd.texture(shape, seed=seed), 0.02, seed=seed)


@pytest.mark.parametrize("field, p, q", [
    pytest.param(lambda: 1.0 + _noisy_texture((256, 256), 3), 33, 33,
                 id="prefilter-256-33x33"),
    pytest.param(lambda: nd.texture((512, 512), seed=4), 17, 17,
                 id="fit-512-17x17"),
    pytest.param(lambda: gradient(nd.texture((512, 512), seed=5))[:-1, :-1],
                 9, 9, id="moments-511-9x9"),
] + [
    pytest.param(lambda s=shape, p=p, q=q:
                 np.random.default_rng(p * q).standard_normal(s), p, q,
                 id=f"{shape[0]}x{shape[1]}-{p}x{q}")
    for shape, p, q in GRAM_SHAPES
])
def test_window_gram_matches_the_gemm_recursion(field, p, q):
    """The update blocks' column recursion gives the stacked-window GEMM
    recursion's Gram to within 2e-15 of its largest entry (at most
    7.9e-16 over these fields, 4.8e-16 on the prefilter's)."""
    f = field()
    ref = gemm_window_gram(f, p, q)
    gram = window_gram(f, p, q)
    assert np.abs(gram - ref).max() <= 2e-15 * np.abs(ref).max()


@pytest.mark.parametrize("seed", [3, 7])
def test_space_estimate_with_the_gemm_gram(monkeypatch, seed):
    """The denoised space-route estimate of a noisy 128x128 texture, with
    the reference Gram put in for every caller of window_gram: the same
    null dimension K, the prefilter's response and output within 1e-10
    and both kernels within 1e-6 of their largest tap.  The kernels'
    solves are ill-conditioned: over eight seeds and one or two BLAS
    threads they moved by up to 3.4e-7, and by 1.0e-7 at seed 7 with the
    Gram summed window row by window row instead."""
    image = _noisy_texture((128, 128), seed)
    cfg = PipelineConfig(denoise=True, ipsf_route="space")
    new = nd.estimate_kernels(image, cfg)
    for module in (armodel, psf, ipsf):
        monkeypatch.setattr(module, "window_gram", gemm_window_gram)
    old = nd.estimate_kernels(image, cfg)
    assert new.basis.null_dim == old.basis.null_dim
    for attr, tol in (("prefilter_kernel", 1e-10), ("prefiltered", 1e-10),
                      ("psf", 1e-6), ("ipsf", 1e-6)):
        a, b = getattr(new, attr), getattr(old, attr)
        assert np.abs(a - b).max() <= tol * np.abs(b).max(), attr


def test_window_gram_peak_is_near_its_result():
    """Besides its 9.05 MiB result, a 33x33 Gram on a 256x256 field keeps
    only small work arrays: a traced peak under 1.5 times the result
    (11.8 MiB; 16.8 MiB with the stacked-window GEMM recursion)."""
    field = np.random.default_rng(0).standard_normal((256, 256))
    tracemalloc.start()
    try:
        gram = window_gram(field, 33, 33)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * gram.nbytes


def _space_operands(shape, l):
    """The re-degraded field and the centers of ``ipsf.space_system``
    for an l x l kernel: its ryx correlation."""
    x = nd.texture(shape, seed=l)
    y = convolve(x, nd.gaussian_kernel(1.0, l))
    wl = 2 * l - 1
    ni, nk = shape[0] - wl + 1, shape[1] - wl + 1
    return x[l - 1:l - 1 + ni, l - 1:l - 1 + nk], y, 0, wl


def _block_row_operands(shape, p):
    """The top-left window block and the field of ``_first_block_row`` for
    a p x p Gram."""
    f = np.random.default_rng(p).standard_normal(shape)
    return f[:shape[0] - p + 1, :shape[1] - p + 1], f, p - 1, p


@pytest.mark.parametrize("operands", [
    lambda: _block_row_operands((512, 512), 17),   # estimate_ar's
    lambda: _block_row_operands((511, 511), 9),    # gradient moments' at 512
    lambda: _block_row_operands((256, 256), 33),   # the prefilter's fit
    lambda: _block_row_operands((131, 127), 9),
    lambda: _space_operands((256, 256), 9),
], ids=["512-17x17", "511-9x9", "256-33x33", "131x127-9x9", "space-256-9x9"])
def test_correlation_lags_rows_are_its_first_rows(operands):
    """Transforming back only the lag rows a caller reads gives those rows
    of the full lag array bit for bit, which are numpy's rfft2/irfft2
    product bit for bit."""
    template, field, margin, rows = operands()
    full = correlation_lags(template, field, margin)
    shape = full.shape
    product = np.conj(np.fft.rfft2(template, s=shape)) * np.fft.rfft2(
        field, s=shape)
    assert full.tobytes() == np.fft.irfft2(product, s=shape).tobytes()
    part = correlation_lags(template, field, margin, rows=rows)
    assert part.shape == (rows, shape[1])
    assert part.tobytes() == full[:rows].tobytes()


def test_full_convolutions_match_loop_and_shifted_taps():
    """The batched FFT full convolutions against a direct loop over the
    kernel taps and against the flattened grids times the shifted-taps
    reference, to 1e-14 of the largest entry: a non-square grid, the
    default 9 x 9 kernel size and a 31 x 31 one, whose 61^2-tap full
    convolutions run at the length 3750.  The reference itself evaluates the tap sum at every
    offset of a grid, as a direct loop does."""
    rng = np.random.default_rng(0)
    taps = rng.random((3, 5))
    u = rng.random((5, 9))
    ref = np.array([[np.sum(taps * u[i:i + 3, j:j + 5]) for j in range(5)]
                    for i in range(3)])
    mat = shifted_taps(taps, 3, 5)
    assert mat.shape == (15, 45)
    np.testing.assert_allclose((mat @ u.ravel()).reshape(3, 5), ref,
                               atol=1e-12)
    for k, l, m in [(4, 3, 5), (41, 9, 9), (6, 31, 31)]:
        grids, kernel = rng.random((k, l, m)), rng.random((l, m))
        out = full_convolutions(grids, kernel)
        assert out.shape == (k, (2 * l - 1) * (2 * m - 1))
        loop = np.zeros((k, 2 * l - 1, 2 * m - 1))
        for i in range(l):
            for j in range(m):
                loop[:, i:i + l, j:j + m] += kernel[i, j] * grids
        dense = grids.reshape(k, -1) @ shifted_taps(kernel, l, m)
        for ref in (loop.reshape(k, -1), dense):
            assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("convert", [
    lambda a: a.tolist(),
    lambda a: a.astype(np.uint8),
    lambda a: a.astype(np.float32),
], ids=["list", "uint8", "float32"])
def test_inputs_needing_conversion(convert):
    """Lists and other dtypes go through the same path as float64 arrays
    (small integers, so every conversion is exact)."""
    rng = np.random.default_rng(5)
    img = rng.integers(0, 200, (12, 10)).astype(np.float64)
    ref = rng.integers(0, 200, (12, 10)).astype(np.float64)
    k = np.array([[0.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 0.0]])
    got = as_image(convert(img))
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, img)
    np.testing.assert_array_equal(as_kernel(convert(k)), k)
    np.testing.assert_array_equal(nd.convolve(convert(img), convert(k)),
                                  nd.convolve(img, k))
    assert nd.psnr(convert(img), convert(ref), peak=255.0) == nd.psnr(
        img, ref, peak=255.0)


def test_as_image_does_not_copy():
    img = np.zeros((4, 4))
    assert as_image(img) is img


def test_luminance_weights():
    rgb = np.zeros((2, 2, 3))
    rgb[..., 0] = 1.0
    assert to_luminance(rgb)[0, 0] == pytest.approx(0.299)

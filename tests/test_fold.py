"""The orthonormal fold of the tap grid (``grid.fold``, ``fold_gram`` and
``unfold``) against the dense fold Q, and its users: the eigen split's
blocks, the start fit and spectral inverse on the squared null grids,
with their stability under rounding-level changes of the model fit and
numpy's least squares on images where LAPACK's divide-and-conquer SVD
did not converge on the unfolded rows; and the folded normal equations
of the prefilter's model fit and of the space-route response, against
the constraint written out as a dense expansion and against the solves
over the unnormalised expansion E that the orthonormal fold replaced."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from scipy.signal import convolve2d

import nsdeblur as nd
import nsdeblur.deconv as deconv
import nsdeblur.psf as psf
from conftest import (CORPUS_SEED, SPACE_CFG, centrosymmetric_grids,
                      fold_pairs_blocks, orthonormal_fold,
                      unfolded_space_system)
from nsdeblur.armodel import RIDGE_SCALE
from nsdeblur.config import OptimizerConfig, gated_iterate
from nsdeblur.fileio import quantize
from nsdeblur.grid import (fold, fold_gram, statistics_region, unfold,
                           window_gram)
from nsdeblur.ipsf import (SPACE_RIDGE, optimize_ipsf_spectral,
                           space_system)
from nsdeblur.nullspace import operator_gram
from nsdeblur.psf import gradient_moments, surface_penalty_matrix


def basis_of(kernel):
    """9 x 9 basis of the corpus texture blurred by ``kernel``."""
    clean = nd.texture((128, 128), seed=CORPUS_SEED, rolloff=1.4,
                       noise_floor=0.02)
    return nd.compute_cns(
        nd.build_operator(nd.estimate_ar(nd.convolve(clean, kernel), 13, 13),
                          9, 9))


@pytest.fixture(scope="module")
def wide_basis():
    """K = 56 >= ceil(81 / 2): the grids span every centrosymmetric grid."""
    basis = basis_of(nd.gaussian_kernel(1.0, 5))
    assert basis.null_dim >= 41
    return basis


@pytest.fixture(scope="module")
def narrow_basis():
    """K < ceil(81 / 2): the grids span a proper subspace."""
    basis = basis_of(nd.gaussian_kernel(2.0, 9))
    assert basis.null_dim < 41
    return basis


@pytest.mark.parametrize("l, m", [(1, 1), (3, 5), (9, 9), (7, 3)])
def test_fold_has_orthonormal_rotation_pair_rows(l, m):
    """The even and odd folds of the l*m taps are the dense Q's rows, bit
    for bit; together they are an orthonormal basis of the taps, and a
    180-degree rotation of the grid keeps each even row and negates each
    odd one."""
    n = l * m
    rows = []
    for odd in (False, True):
        q = fold(np.eye(n), odd)
        assert q.shape == ((n + 1) // 2 if not odd else n // 2, n)
        assert np.array_equal(q, orthonormal_fold(n, odd))
        rotated = q.reshape(-1, l, m)[:, ::-1, ::-1].reshape(-1, n)
        np.testing.assert_array_equal(rotated, -q if odd else q)
        rows.append(q)
    both = np.concatenate(rows)
    np.testing.assert_allclose(both @ both.T, np.eye(n), rtol=0, atol=1e-15)


def test_fold_keeps_the_norms_of_the_squared_grids(wide_basis):
    """The grids are exactly centrosymmetric, so they span ceil(81/2) = 41
    dimensions, unfolded and folded alike, with no rounding-level
    directions for numpy's default rank cutoff to count; their odd fold
    is exactly zero."""
    squared = wide_basis.squared_flat
    norms = np.linalg.norm(squared, axis=0)
    rotated = wide_basis.squared_basis[:, ::-1, ::-1].reshape(
        wide_basis.null_dim, -1).T
    assert np.array_equal(squared, rotated)
    folded = fold(squared)
    np.testing.assert_allclose(np.linalg.norm(folded, axis=0), norms,
                               rtol=1e-12)
    assert np.linalg.matrix_rank(squared) == 41
    assert np.linalg.matrix_rank(folded) == 41
    assert not fold(squared, odd=True).any()


@pytest.mark.parametrize("kernel, size", [
    (nd.gaussian_kernel(1.0, 5), 9), (nd.gaussian_kernel(2.0, 9), 9),
    (nd.gaussian_kernel(1.0, 5), 3), (nd.motion_kernel(5, 0.0), 11)])
def test_folded_rows_are_the_dense_fold_product(kernel, size):
    """``grid.fold`` gives Q @ a without the dense Q: bit for bit on the
    exactly centrosymmetric squared grids, and to 1e-15 of the product's
    largest entry for an asymmetric kernel and a stack of random
    columns, in the even and the odd fold."""
    clean = nd.texture((128, 128), seed=CORPUS_SEED, rolloff=1.4,
                       noise_floor=0.02)
    basis = nd.compute_cns(nd.build_operator(
        nd.estimate_ar(nd.convolve(clean, kernel), 13, 13), size, size))
    squared = basis.squared_flat
    assert np.array_equal(fold(squared), orthonormal_fold(size * size)
                          @ squared)
    rng = np.random.default_rng(size)
    for a in (rng.random(size * size), rng.standard_normal((size * size, 7))):
        for odd in (False, True):
            dense = orthonormal_fold(size * size, odd) @ a
            assert fold(a, odd).shape == dense.shape
            assert (np.abs(fold(a, odd) - dense).max()
                    <= 1e-15 * np.abs(dense).max())


@pytest.mark.parametrize("size", [3, 9])
def test_eigen_split_blocks_are_the_pair_sums(size, monkeypatch):
    """``compute_cns`` diagonalises the even and odd blocks of the
    ``0.5 * fold_pairs`` assembly it used before ``grid.fold_gram``, bit
    for bit: the folds keep its sums."""
    clean = nd.texture((128, 128), seed=CORPUS_SEED, rolloff=1.4,
                       noise_floor=0.02)
    op = nd.build_operator(nd.estimate_ar(clean, 13, 13), size, size)
    eigh, blocks = np.linalg.eigh, []

    def recording(a, *args, **kwargs):
        blocks.append(a.copy())
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    nd.compute_cns(op)
    for got, expected in zip(blocks, fold_pairs_blocks(operator_gram(op)),
                             strict=True):
        assert got.tobytes() == expected.tobytes()


def test_start_fit_of_an_asymmetric_kernel_keeps_its_minimizer(
        narrow_basis, monkeypatch):
    """The antisymmetric part of h is orthogonal to every squared grid, so
    the start fit on the folded rows has the unfolded fit's minimizer."""
    lstsq, starts = psf.lstsq, []

    def recording(a, b):
        starts.append(lstsq(a, b))
        return starts[-1]

    h = np.random.default_rng(1).random((9, 9))
    h /= h.sum()
    monkeypatch.setattr(psf, "lstsq", recording)
    nd.optimize_psf(h, narrow_basis, OptimizerConfig(max_iters=1))
    expected = scipy.linalg.lstsq(narrow_basis.squared_flat, h.ravel())[0]
    assert len(starts) == 1
    np.testing.assert_allclose(starts[0], expected, rtol=1e-8)


def delta_fit(h, span_grids):
    """Unit-sum kernel in the span of ``span_grids`` (columns, flattened
    l x m) whose full convolution with h is nearest the centred delta,
    from scipy's convolution and least squares."""
    l, m = h.shape
    cols = np.stack([convolve2d(c.reshape(l, m), h).ravel()
                     for c in span_grids.T], axis=1)
    target = np.zeros(cols.shape[0])
    target[cols.shape[0] // 2] = 1.0
    g = span_grids @ scipy.linalg.lstsq(cols, target)[0]
    return (g / g.sum()).reshape(l, m)


@pytest.mark.parametrize("shifted", [False, True])
def test_spectral_inverse_over_every_centrosymmetric_grid(wide_basis,
                                                          shifted):
    """With K >= ceil(lm/2) the inverse is the best centrosymmetric one,
    also for an asymmetric h: its delta-matching rows are not folded."""
    h = np.zeros((9, 9))
    h[2:7, 2:7] = nd.gaussian_kernel(1.0, 5)
    if shifted:
        h = np.roll(h, (1, 2), axis=(0, 1)) + 0.05 * np.eye(9)
        h /= h.sum()
    g = nd.ipsf_spectral(h, wide_basis)
    np.testing.assert_allclose(g, delta_fit(h, centrosymmetric_grids(9, 9)),
                               rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(g, g[::-1, ::-1], rtol=0, atol=1e-15)


def test_spectral_inverse_over_the_squared_grids(narrow_basis):
    """With K < ceil(lm/2) the inverse stays in the squared grids' span."""
    h = np.zeros((9, 9))
    h[1:8, 1:8] = nd.gaussian_kernel(1.4, 7)
    g = nd.ipsf_spectral(h, narrow_basis)
    np.testing.assert_allclose(g, delta_fit(h, narrow_basis.squared_flat),
                               rtol=1e-7, atol=1e-12)


BLURS = (lambda: nd.gaussian_kernel(1.0, 5), lambda: nd.motion_kernel(7, 30.0))


def benchmark_image(seed, index, quantized):
    """Image ``index`` of the benchmark corpus of ``seed`` at 512 x 512;
    ``quantized`` to 8 bits as the command-line workload stores it."""
    image = nd.convolve(nd.texture((512, 512), seed=1000 * seed + index),
                        BLURS[index % 2]())
    return quantize(image) / 255.0 if quantized else image


def kernel_pair(image, model, moments):
    """fit -> basis -> kernel -> inverse from a given model fit."""
    basis = nd.compute_cns(nd.build_operator(model, 9, 9))
    h, _ = nd.optimize_psf(
        nd.estimate_psf(nd.gradient_stats(image, basis, moments), basis),
        basis)
    g, _ = optimize_ipsf_spectral(nd.ipsf_spectral(h, basis), h, basis)
    return h, g


@pytest.mark.parametrize("seed, index, quantized", [
    (17, 1, False), (17, 3, False), (3, 1, True), (3, 7, True)],
    ids=["iterative-17-1", "iterative-17-3", "blind-3-1", "blind-3-7"])
def test_kernels_stable_under_rounding_of_the_model_fit(seed, index,
                                                        quantized):
    """A 1e-10 relative change of the model's free coefficients moves
    both kernels by at most 1e-6 relative.  With the squared grids'
    rounding-level singular values counted as rank, the inverse moved by
    up to 30 %."""
    image = benchmark_image(seed, index, quantized)
    model = nd.estimate_ar(image, 17, 17)
    moments = gradient_moments(image, 9, 9)
    h, g = kernel_pair(image, model, moments)
    rng = np.random.default_rng(seed * 100 + index)
    for _ in range(3):
        coeffs = model.coeffs * (1.0 + 1e-10 * rng.standard_normal((17, 17)))
        coeffs[8, 8] = 1.0
        h2, g2 = kernel_pair(image, dataclasses.replace(model, coeffs=coeffs),
                             moments)
        assert np.linalg.norm(h2 - h) <= 1e-6 * np.linalg.norm(h)
        assert np.linalg.norm(g2 - g) <= 1e-6 * np.linalg.norm(g)


@pytest.mark.parametrize("seed, index", [(321, 11), (1401, 9), (1405, 3),
                                         (1408, 3)])
def test_least_squares_converges_where_gelsd_did_not(seed, index,
                                                     monkeypatch):
    """The command-line benchmark images on which LAPACK's gelsd failed to
    converge on the unfolded 81-row systems estimate with every numpy
    least-squares call succeeding."""
    lstsq = np.linalg.lstsq
    calls, failures = [], []

    def recording(a, b, *args, **kwargs):
        calls.append(a.shape)
        try:
            return lstsq(a, b, *args, **kwargs)
        except np.linalg.LinAlgError:
            failures.append(a.shape)
            raise

    monkeypatch.setattr(np.linalg, "lstsq", recording)
    nd.estimate_kernels(benchmark_image(seed, index, True))
    assert calls and not failures


# --- the folded normal equations of the prefilter's two fits

#: Relative 2-norm distance allowed between a folded solve and the dense
#: constrained solve.  Both solve the same system to rounding; on 128^2
#: and 256^2 textures (seeds 3, 5, 7, clean and impulse-noisy) the stencil
#: differed by at most 4e-11 and the response by at most 6e-12.
FOLD_RTOL = 1e-9


def prefilter_input(seed=3):
    """A blurred 128 x 128 texture with 2 % impulse noise, as the
    prefilter sees it."""
    x = nd.convolve(nd.texture((128, 128), seed=seed),
                    nd.gaussian_kernel(1.0, 5))
    return nd.add_impulse_noise(x, 0.02, seed=seed)


def assert_near(actual, expected):
    assert (np.linalg.norm(actual - expected)
            <= FOLD_RTOL * np.linalg.norm(expected))


@pytest.mark.parametrize("n", [1, 2, 5, 8, 81])
def test_fold_system_is_the_dense_expansion(n):
    """Q M Q^T, Q r and Q^T z from slices, against the dense fold Q, for
    odd and even n and both parities.  A symmetric M folds to an exactly
    symmetric matrix; an antisymmetric vector has an exactly zero even
    fold and a centrosymmetric one an exactly zero odd fold; and unfold
    returns a vector of the fold's parity from its fold to 2 ulp."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    sym, rhs = a @ a.T, rng.standard_normal(n)
    even_part, odd_part = rhs + rhs[::-1], rhs - rhs[::-1]
    for odd in (False, True):
        q = orthonormal_fold(n, odd)
        folded = fold_gram(sym, odd)
        np.testing.assert_allclose(folded, q @ sym @ q.T, rtol=1e-13,
                                   atol=1e-13)
        assert np.array_equal(folded, folded.T)
        np.testing.assert_allclose(fold(rhs, odd), q @ rhs, rtol=1e-13,
                                   atol=1e-15)
        z = rng.standard_normal(len(q))
        np.testing.assert_allclose(unfold(z, n, odd), q.T @ z, rtol=1e-15,
                                   atol=0)
        kept, dropped = (odd_part, even_part) if odd else (even_part,
                                                           odd_part)
        assert not fold(dropped, odd).any()
        assert np.all(np.abs(unfold(fold(kept, odd), n, odd) - kept)
                      <= 2 * np.spacing(np.abs(kept)))


@pytest.mark.parametrize("order", [13, 33])
def test_folded_model_fit_is_the_constrained_solve(order):
    """The fit over a[t] = a[n-1-t] with the centre pinned, solved on the
    free columns of the dense n x (n+1)/2 expansion E: ridge * ||a_free||^2
    is ridge * E_free^T E_free.  The ridge is the unfolded fit's, bit for
    bit, and the residual a^T G a / n_eq on the full Gram."""
    x = prefilter_input()
    model = nd.estimate_ar(x, order, order, centrosymmetric=True)
    top, left, rows, cols = statistics_region(x)
    gram = window_gram(x[top:top + rows, left:left + cols], order, order)
    n = order * order
    c, e = n // 2, centrosymmetric_grids(order, order)
    free = e[:, :c]
    ridge = nd.estimate_ar(x, order, order).ridge
    pairs = free.T @ gram @ free + ridge * (free.T @ free)
    expected = free @ np.linalg.solve(pairs, -free.T @ gram[:, c]) + e[:, c]
    assert model.ridge == ridge
    assert_near(model.coeffs.ravel(), expected)
    n_eq = (rows - order + 1) * (cols - order + 1)
    assert model.residual == pytest.approx(
        expected @ gram @ expected / n_eq, rel=1e-9)


@pytest.mark.parametrize("size", [7, 17], ids=["13x13", "33x33"])
def test_folded_response_is_the_constrained_solve(size):
    """The response over g[t] = g[n-1-t], from the dense expansion of the
    unfolded ridged system, whose fold the system is bit for bit; its
    ridge * I needs no change to fold."""
    x = prefilter_input()
    kernel = nd.gaussian_kernel(2.0, size)
    system = space_system(x, kernel, ridge_relative=deconv.PREFILTER_RIDGE)
    ryy, ryx = unfolded_space_system(x, kernel, system.ridge)
    assert system.ryy.tobytes() == fold_gram(ryy).tobytes()
    assert system.ryx.tobytes() == fold(ryx).tobytes()
    g = nd.ipsf_space(x, kernel, system=system)
    e = centrosymmetric_grids(2 * size - 1, 2 * size - 1)
    expected = e @ np.linalg.solve(e.T @ ryy @ e, e.T @ ryx)
    assert_near(g.ravel(), expected)


def expansion_system(matrix, rhs):
    """(E^T M E, E^T r) for the unnormalised expansion E of
    :func:`centrosymmetric_grids`, from slices, as the folded solves
    formed it before the fold was orthonormal: the pair block
    (M[lo,lo] + M[hi,hi]) + (M[lo,hi] + M[hi,lo]), the centre row
    M[c,lo] + M[c,hi], and the rotation-pair sums of r."""
    n = matrix.shape[0]
    h = n // 2
    lo, hi = slice(0, h), slice(n - 1, (n - 1) // 2, -1)
    out = np.empty(((n + 1) // 2,) * 2)
    np.add(matrix[lo, lo], matrix[hi, hi], out=out[:h, :h])
    out[:h, :h] += matrix[lo, hi] + matrix[hi, lo]
    if n % 2:
        out[h, :h] = matrix[h, lo] + matrix[h, hi]
        out[:h, h] = matrix[lo, h] + matrix[hi, h]
        out[h, h] = matrix[h, h]
    folded = rhs[:(n + 1) // 2].copy()
    folded[:h] += rhs[hi]
    return out, folded


def expansion_unfold(half, n):
    """E half along the last axis: the first ceil(n/2) taps are ``half``,
    the rest mirrored."""
    return np.concatenate((half, half[..., :n // 2][..., ::-1]), axis=-1)


def expansion_model_fit(image, order):
    """The centrosymmetric model fit over E: 2 * ridge on the folded
    diagonal is the penalty ridge * ||a_free||^2."""
    top, left, rows, cols = statistics_region(image)
    gram = window_gram(image[top:top + rows, left:left + cols], order, order)
    n = order * order
    c = n // 2
    folded, centre = expansion_system(gram, gram[:, c])
    pairs = folded[:c, :c]
    pairs.flat[::c + 1] += 2.0 * nd.estimate_ar(image, order, order).ridge
    half = np.append(np.linalg.solve(pairs, -centre[:c]), 1.0)
    return expansion_unfold(half, n).reshape(order, order)


def expansion_space_optimizer(g0, matrix, rhs, cfg):
    """The space-route optimizer over the first ceil(n/2) taps y of
    g = E y: the unfolded system (``matrix``, ``rhs``) and the derivative
    maps folded by E, its start the first taps of g0's centrosymmetric
    part, its gate reading the summed squared change of the unfolded
    taps."""
    (wl, wm), n = g0.shape, rhs.size
    half = (n + 1) // 2
    ryy, ryx = expansion_system(matrix, rhs)
    grids = expansion_unfold(np.eye(half), n).reshape(-1, wl, wm)
    dx, dy = ((np.gradient(grids, axis=axis) if grids.shape[axis] > 1
               else np.zeros_like(grids)).reshape(half, n)[:, :half].T
              for axis in (1, 2))

    def step(y, lam):
        y_new = np.linalg.solve(
            ryy + lam * surface_penalty_matrix(y, dx, dy), ryx)
        return y_new, float(np.sum(expansion_unfold(y_new - y, n) ** 2))

    flat = g0.ravel()
    y, report = gated_iterate((0.5 * (flat + flat[::-1]))[:half], step, cfg)
    return expansion_unfold(y, n).reshape(wl, wm), report


@pytest.mark.parametrize("order", [13, 33])
def test_folded_model_fit_is_the_expansion_fit(order):
    """The orthonormal fold moves the prefilter's model fit from the fit
    over E by rounding: FOLD_RTOL."""
    x = prefilter_input()
    model = nd.estimate_ar(x, order, order, centrosymmetric=True)
    assert_near(model.coeffs, expansion_model_fit(x, order))


@pytest.mark.parametrize("ridge", [deconv.PREFILTER_RIDGE, SPACE_RIDGE],
                         ids=["prefilter-ridge", "default-ridge"])
@pytest.mark.parametrize("size", [5, 9])
def test_space_solves_are_the_expansion_solves(size, ridge):
    """Both space solves over the orthonormal fold against their solves
    over E.  At the prefilter's ridge the systems are well conditioned,
    and they agree to FOLD_RTOL; at the default ridge the condition
    number of the folded system reaches 3e10, and they agree to cond *
    eps, the least-squares solution's sensitivity to rounding (observed:
    up to 0.08 of it).  The optimizer takes the same steps, reads the
    same summed squared tap changes at its gate to 1e-4 of the largest
    (observed: up to 2.3e-6), and stops for the same reason.  The
    system is the fold of the unfolded reference bit for bit."""
    x = prefilter_input()
    h = nd.gaussian_kernel(2.0, size)
    system = space_system(x, h, ridge)
    ryy, ryx = unfolded_space_system(x, h, system.ridge)
    assert system.ryy.tobytes() == fold_gram(ryy).tobytes()
    assert system.ryx.tobytes() == fold(ryx).tobytes()
    tol = (FOLD_RTOL if ridge == deconv.PREFILTER_RIDGE else
           np.linalg.cond(system.ryy) * np.finfo(float).eps)
    g0 = nd.ipsf_space(x, h, system=system)
    expected = expansion_unfold(
        np.linalg.solve(*expansion_system(ryy, ryx)), ryx.size)
    assert (np.linalg.norm(g0.ravel() - expected)
            <= tol * np.linalg.norm(expected))
    g1, report = nd.optimize_ipsf_space(g0, x, h, SPACE_CFG, system=system)
    g_ref, ref_report = expansion_space_optimizer(g0, ryy, ryx, SPACE_CFG)
    assert report.iterations >= 1
    assert (report.iterations, report.stop_reason) == (
        ref_report.iterations, ref_report.stop_reason)
    sizes, ref_sizes = report.residual_trace, ref_report.residual_trace
    assert np.abs(sizes - ref_sizes).max() <= 1e-4 * ref_sizes.max()
    assert np.linalg.norm(g1 - g_ref) <= tol * np.linalg.norm(g_ref)


def test_prefilter_stencil_and_response_are_centrosymmetric(monkeypatch):
    fits = []

    def recording(*args, **kwargs):
        fits.append(estimate_ar(*args, **kwargs))
        return fits[-1]

    estimate_ar = deconv.estimate_ar
    monkeypatch.setattr(deconv, "estimate_ar", recording)
    _, response = nd.denoise_prefilter(prefilter_input(), 33, 17)
    (model,) = fits
    assert np.array_equal(model.coeffs, model.coeffs[::-1, ::-1])
    assert np.array_equal(response, response[::-1, ::-1])


def unfolded_fit(image, p, q):
    """estimate_ar's solve before the fold, line for line: the free block
    in four slice copies, its ridge added in place, one LU solve."""
    top, left, rows, cols = statistics_region(image)
    gram = window_gram(image[top:top + rows, left:left + cols], p, q)
    c, n_unknown = (p // 2) * q + (q // 2), p * q - 1
    keep = np.arange(p * q) != c
    free = np.empty((n_unknown, n_unknown))
    free[:c, :c] = gram[:c, :c]
    free[:c, c:] = gram[:c, c + 1:]
    free[c:, :c] = gram[c + 1:, :c]
    free[c:, c:] = gram[c + 1:, c + 1:]
    ridge = RIDGE_SCALE * float(np.trace(free))
    free.flat[::n_unknown + 1] += ridge
    coeffs = np.empty(p * q)
    coeffs[keep] = np.linalg.solve(free, -gram[keep, c])
    coeffs[c] = 1.0
    n_eq = (rows - p + 1) * (cols - q + 1)
    residual = float(coeffs @ gram @ coeffs) / n_eq
    return coeffs.reshape(p, q), residual, ridge


def test_default_fits_are_unchanged_bit_for_bit():
    """Without ``centrosymmetric`` the model fit is the unfolded solve.
    The space-route inverse has no unfolded path: every one is solved
    folded (test_folded_response_is_the_constrained_solve)."""
    x = prefilter_input()
    model = nd.estimate_ar(x, 33, 33)
    coeffs, residual, ridge = unfolded_fit(x, 33, 33)
    assert (model.coeffs.tobytes(), model.residual, model.ridge) == (
        coeffs.tobytes(), residual, ridge)

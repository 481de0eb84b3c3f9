import numpy as np
import pytest

import nsdeblur as nd
from conftest import (ar_texture, dense_eigensystem, full_unfold_null_side,
                      shifted_taps, smooth_stencil)
from nsdeblur.armodel import ArModel, OperatorMatrix
from nsdeblur.errors import DegenerateOperatorError
from nsdeblur.nullspace import MAX_NULL_DIM, _pick_split, operator_gram


def test_delta_stencil_operator_is_degenerate():
    model = ArModel(p=3, q=3, coeffs=nd.delta_kernel(3), residual=0.0,
                    ridge=0.0)
    op = nd.build_operator(model, 1, 1)
    # 1x1 operator has a single eigenvalue: flat spectrum, no split
    with pytest.raises(DegenerateOperatorError):
        nd.compute_cns(op)


def test_delta_stencil_larger_grid_degenerate():
    model = ArModel(p=5, q=5, coeffs=nd.delta_kernel(5), residual=0.0,
                    ridge=0.0)
    op = nd.build_operator(model, 3, 3)
    with pytest.raises(DegenerateOperatorError):
        nd.compute_cns(op)


@pytest.mark.parametrize("rank", [3, 7, 15, 22])
def test_null_dimension_matches_rank_oracle(rank):
    """The split of a rank-deficient Gram spectrum falls at its numerical
    rank; the spectrum is that of a random 25 x 121 product of rank
    ``rank``, which no stencil operator has."""
    rng = np.random.default_rng(rank)
    mat = rng.standard_normal((25, rank)) @ rng.standard_normal((rank, 121))
    lam = np.linalg.eigvalsh(mat @ mat.T)[::-1]
    numerical_rank = int(np.sum(np.linalg.svd(mat, compute_uv=False)
                                > 1e-9 * np.linalg.norm(mat)))
    assert lam.size - _pick_split(lam) == 25 - numerical_rank


def random_operator(seed, p=9, q=9, l=5, m=5):
    """Operator of a random p x q stencil (not a fitted model)."""
    stencil = np.random.default_rng(seed).standard_normal((p, q))
    return OperatorMatrix(stencil=stencil, l=l, m=m)


def test_eigenvalues_match_squared_singulars():
    op = random_operator(31, 9, 7, 5, 3)
    basis = nd.compute_cns(op)
    sv = np.linalg.svd(shifted_taps(op.stencil, op.l, op.m),
                       compute_uv=False)
    np.testing.assert_allclose(basis.eigenvalues, sv ** 2,
                               rtol=1e-8, atol=1e-10)


def assert_null_side_eigenpairs(basis, gram, tol):
    """The null vectors are orthonormal to ``tol`` and are eigenvectors
    of ``gram`` with the eigenvalues past the split:
    ||B V - V Lambda|| <= tol ||B||."""
    vecs, lam = basis.null_vectors, basis.eigenvalues[basis.split:]
    assert vecs.shape == (gram.shape[0], basis.null_dim)
    assert np.abs(vecs.T @ vecs - np.eye(basis.null_dim)).max() <= tol
    assert (np.linalg.norm(gram @ vecs - vecs * lam)
            <= tol * np.linalg.norm(gram))


@pytest.mark.parametrize("seed", range(3))
def test_eigenbasis_rebuilds_operator_gram(seed):
    """Eigenvalues descend and sum to the trace of A A^T, and the null
    vectors are orthonormal eigenvectors of A A^T with the eigenvalues
    past the split."""
    op = random_operator(seed, 7, 7)
    basis = nd.compute_cns(op)
    mat = shifted_taps(op.stencil, op.l, op.m)
    gram = mat @ mat.T
    lam = basis.eigenvalues
    assert np.all(np.diff(lam) <= 0.0)
    assert np.sum(lam) == pytest.approx(np.trace(gram), rel=1e-8)
    assert_null_side_eigenpairs(basis, gram, 1e-10)


#: (p, q, l, m) of the operators the Gram and eigensystem tests run on:
#: square and not, a one-row kernel, the default and the prefilter sizes.
SHAPES = [(9, 9, 5, 5), (9, 7, 5, 3), (7, 11, 1, 7), (17, 17, 9, 9),
          (33, 33, 17, 17)]


def fitted_operator(p, q, l, m, seed=5):
    img = nd.convolve(nd.texture((128, 128), seed=seed),
                      nd.gaussian_kernel(1.0, 5))
    return nd.build_operator(nd.estimate_ar(img, p, q), l, m)


@pytest.mark.parametrize("fitted", [False, True], ids=["random", "fitted"])
@pytest.mark.parametrize("p, q, l, m", SHAPES)
def test_operator_gram_is_the_product(p, q, l, m, fitted):
    """B from the stencil's autocorrelation is A A^T to 1e-14 ||B||, and
    exactly symmetric and unchanged by the 180-degree rotation."""
    op = fitted_operator(p, q, l, m) if fitted else random_operator(
        p * q + l, p, q, l, m)
    gram = operator_gram(op)
    mat = shifted_taps(op.stencil, op.l, op.m)
    dense = mat @ mat.T
    assert np.linalg.norm(gram - dense) <= 1e-14 * np.linalg.norm(dense)
    assert np.array_equal(gram, gram.T)
    assert np.array_equal(gram, gram[::-1, ::-1])


@pytest.mark.parametrize("fitted", [False, True], ids=["random", "fitted"])
@pytest.mark.parametrize("p, q, l, m", SHAPES)
def test_eigensystem_matches_the_full_eigh(p, q, l, m, fitted):
    """Against numpy's eigh of the dense A A^T: eigenvalues to 1e-13
    lambda_1; the null vectors are column-major, orthonormal to 1e-13 and
    eigenvectors of A A^T to 1e-13 ||A A^T||; every null vector is exactly
    even or odd under the rotation, so every squared grid is exactly
    centrosymmetric."""
    op = fitted_operator(p, q, l, m) if fitted else random_operator(
        p * q + l, p, q, l, m)
    basis = nd.compute_cns(op)
    mat = shifted_taps(op.stencil, op.l, op.m)
    lam = dense_eigensystem(op)[0][::-1]
    assert np.abs(basis.eigenvalues - lam).max() <= 1e-13 * lam[0]
    vecs = basis.null_vectors
    assert vecs.flags.f_contiguous
    assert_null_side_eigenpairs(basis, mat @ mat.T, 1e-13)
    rotated = vecs[::-1]
    even = (vecs == rotated).all(axis=0)
    odd = (vecs == -rotated).all(axis=0)
    assert (even | odd).all()
    squared = basis.squared_basis
    assert np.array_equal(squared, squared[:, ::-1, ::-1])


@pytest.mark.parametrize("force_single", [False, True],
                         ids=["split", "single"])
@pytest.mark.parametrize("fitted", [False, True], ids=["random", "fitted"])
@pytest.mark.parametrize("p, q, l, m", SHAPES)
def test_null_side_is_the_full_unfold(p, q, l, m, fitted, force_single):
    """The null vectors and squared grids are bit for bit those sliced off
    the full unfolded eigenvector matrix, and as column-major."""
    op = fitted_operator(p, q, l, m) if fitted else random_operator(
        p * q + l, p, q, l, m)
    basis = nd.compute_cns(op, force_single=force_single)
    null, squared = full_unfold_null_side(op, force_single)
    assert basis.null_vectors.flags.f_contiguous
    assert np.array_equal(basis.null_vectors, null)
    assert np.array_equal(basis.squared_basis, squared)


def product_split(op):
    """The split as compute_cns took it from numpy's eigh of the dense
    product A A^T, with its floored gap ratio and the squared smallest
    eigenvector (the prefilter's kernel)."""
    lam, vecs = dense_eigensystem(op)
    lam = lam[::-1]
    split = max(_pick_split(lam), lam.size - MAX_NULL_DIM)
    floored = np.maximum(lam, 1e-12 * lam[0])
    return split, floored[split - 1] / floored[split], vecs[:, 0] ** 2


PROBES = [(side, blur, seed) for side in (128, 192, 256, 384, 512)
          for blur in ("gaussian", "motion") for seed in (1, 2, 3, 4)]


@pytest.mark.parametrize("side, blur, seed", PROBES,
                         ids=[f"{s}-{b}-{k}" for s, b, k in PROBES])
def test_split_is_the_dense_products(side, blur, seed):
    """On 40 probe images, the default 17 x 17 model with a 9 x 9 kernel
    and the prefilter's centrosymmetric 33 x 33 fit of the image with 2 %
    impulse noise and a 17 x 17 kernel: the split, and so K, is that of
    the dense product's eigh, the gap ratio agrees to 1e-12 and the
    prefilter's single-vector kernel to 1e-9 of its norm (observed: 2e-15
    and 1.5e-10; K ranges 8-128)."""
    kernel = (nd.gaussian_kernel(1.0, 5) if blur == "gaussian"
              else nd.motion_kernel(7, 30.0))
    image = nd.convolve(nd.texture((side, side), seed=100 + seed), kernel)
    noisy = nd.add_impulse_noise(image, 0.02, seed=seed)
    for op in (nd.build_operator(nd.estimate_ar(image, 17, 17), 9, 9),
               nd.build_operator(nd.estimate_ar(noisy, 33, 33,
                                                centrosymmetric=True),
                                 17, 17)):
        basis = nd.compute_cns(op)
        split, gap, single = product_split(op)
        assert (basis.split, basis.null_dim) == (split, op.l * op.m - split)
        assert basis.null_gap == pytest.approx(gap, rel=1e-12)
        got = nd.compute_cns(op, force_single=True).squared_flat[:, 0]
        assert np.linalg.norm(got - single) <= 1e-9 * np.linalg.norm(single)


def test_basis_orthonormal_and_squares_nonnegative():
    img = nd.texture((96, 96), seed=17)
    basis = nd.compute_cns(
        nd.build_operator(nd.estimate_ar(img, 9, 9), 5, 5))
    vecs = basis.null_vectors
    assert vecs.shape == (25, basis.null_dim)
    assert np.abs(vecs.T @ vecs - np.eye(basis.null_dim)).max() < 1e-10
    assert basis.squared_basis.min() >= 0.0
    assert 1 <= basis.split < 25


def test_force_single_mode():
    img = nd.texture((96, 96), seed=18)
    basis = nd.compute_cns(
        nd.build_operator(nd.estimate_ar(img, 9, 9), 5, 5),
        force_single=True)
    assert basis.null_dim == 1
    assert basis.squared_basis.shape == (1, 5, 5)


def test_null_dimension_tracks_blur(corpus_texture):
    sharp = nd.compute_cns(nd.build_operator(
        nd.estimate_ar(corpus_texture, 13, 13), 9, 9)).null_dim
    strong = nd.compute_cns(nd.build_operator(
        nd.estimate_ar(nd.convolve(corpus_texture,
                                   nd.gaussian_kernel(1.6, 7)), 13, 13),
        9, 9)).null_dim
    assert sharp > strong


def test_true_kernel_in_left_null_side():
    """Membership of the true blur kernel in the operator's left null side
    for a model-consistent source."""
    stencil = smooth_stencil(7, 7)
    src = ar_texture(stencil, (128, 128), noise_amp=1e-4, seed=17)
    h_true = nd.gaussian_kernel(1.3, 5)
    blurred = nd.convolve(src, h_true)
    model = nd.estimate_ar(blurred, 7, 7, region=(0, 0, 128, 128))
    op = nd.build_operator(model, 5, 5)
    mat = shifted_taps(op.stencil, op.l, op.m)
    hvec = h_true.ravel()
    resid = np.linalg.norm(hvec @ mat)
    assert resid <= 0.05 * np.linalg.norm(hvec) * np.linalg.norm(mat)
    # the null-side projection carries most of the kernel's energy (the
    # basis is orthonormal, so the eigen side carries at most a tenth)
    proj = nd.compute_cns(op).null_vectors.T @ hvec
    assert np.sum(proj ** 2) >= 0.90 * np.sum(hvec ** 2)

import numpy as np
import pytest

import nsdeblur as nd
from nsdeblur.armodel import ArModel, OperatorMatrix
from nsdeblur.errors import DegenerateOperatorError


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
    rng = np.random.default_rng(rank)
    mat = rng.standard_normal((25, rank)) @ rng.standard_normal((rank, 121))
    op = OperatorMatrix(matrix=mat, l=5, m=5, p=7, q=7)
    basis = nd.compute_cns(op)
    numerical_rank = int(np.sum(np.linalg.svd(mat, compute_uv=False)
                                > 1e-9 * np.linalg.norm(mat)))
    assert basis.null_dim == 25 - numerical_rank


def test_eigenvalues_match_squared_singulars():
    rng = np.random.default_rng(31)
    mat = rng.standard_normal((16, 80))
    op = OperatorMatrix(matrix=mat, l=4, m=4, p=9, q=9)  # dims unused here
    basis = nd.compute_cns(op)
    sv = np.linalg.svd(mat, compute_uv=False)
    np.testing.assert_allclose(basis.eigenvalues, sv ** 2,
                               rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("seed", range(3))
def test_eigenbasis_rebuilds_operator_gram(seed):
    """Eigenvalues descend, the vectors are orthonormal, and together they
    rebuild A A^T and its trace."""
    rng = np.random.default_rng(seed)
    op = OperatorMatrix(matrix=rng.standard_normal((25, 121)), l=5, m=5,
                        p=7, q=7)
    basis = nd.compute_cns(op)
    gram = op.matrix @ op.matrix.T
    lam, vecs = basis.eigenvalues, basis.vectors
    assert np.all(np.diff(lam) <= 0.0)
    assert np.abs(vecs.T @ vecs - np.eye(25)).max() < 1e-10
    recon = vecs @ np.diag(lam) @ vecs.T
    assert np.linalg.norm(recon - gram) <= 1e-8 * np.linalg.norm(gram)
    assert np.sum(lam) == pytest.approx(np.trace(gram), rel=1e-8)


def test_basis_orthonormal_and_squares_nonnegative():
    img = nd.texture((96, 96), seed=17)
    basis = nd.compute_cns(
        nd.build_operator(nd.estimate_ar(img, 9, 9), 5, 5))
    ortho = basis.vectors.T @ basis.vectors
    assert np.abs(ortho - np.eye(25)).max() < 1e-10
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
    stencil = nd.smooth_stencil(7, 7)
    src = nd.ar_texture(stencil, (128, 128), noise_amp=1e-4, seed=17)
    h_true = nd.gaussian_kernel(1.3, 5)
    blurred = nd.convolve(src, h_true)
    model = nd.estimate_ar(blurred, 7, 7, region=(0, 0, 128, 128))
    op = nd.build_operator(model, 5, 5)
    hvec = h_true.ravel()
    resid = np.linalg.norm(hvec @ op.matrix)
    assert resid <= 0.05 * np.linalg.norm(hvec) * np.linalg.norm(op.matrix)
    # the eigen-side projection carries little of the kernel's energy
    basis = nd.compute_cns(op)
    eigen_side = basis.vectors[:, :basis.split]
    proj = eigen_side.T @ hvec
    assert np.sum(proj ** 2) <= 0.10 * np.sum(hvec ** 2)

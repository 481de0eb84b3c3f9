import numpy as np
import pytest
import scipy.linalg

from conftest import run_probe

from nsdeblur.errors import DegenerateKernelError
from nsdeblur.linalg import lstsq


def fail_to_converge(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def test_identity_system_returns_rhs():
    b = np.array([3.0, -1.0, 2.0])
    np.testing.assert_allclose(lstsq(np.eye(3), b), b)


def test_overdetermined_mean():
    x = lstsq(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))
    assert x[0] == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(3))
def test_recovers_constructed_solution(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((20, 6))
    x0 = rng.standard_normal(6)
    x = lstsq(m, m @ x0)
    np.testing.assert_allclose(x, x0, atol=1e-8)


def test_residual_orthogonal_to_columns():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((15, 4))
    b = rng.standard_normal(15)
    x = lstsq(m, b)
    assert np.abs(m.T @ (m @ x - b)).max() < 1e-8


def test_rank_deficient_returns_min_norm():
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    x = lstsq(m, np.array([2.0, 2.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("seed", range(2))
def test_lstsq_falls_back_to_plain_svd(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 6))  # rank 3
    b = rng.standard_normal(12)
    gelsd = lstsq(m, b)
    gelss = scipy.linalg.lstsq(m, b, cond=np.finfo(np.float64).eps * 12,
                               lapack_driver="gelss")[0]
    monkeypatch.setattr(np.linalg, "lstsq", fail_to_converge)
    x = lstsq(m, b)
    np.testing.assert_array_equal(x, gelss)
    np.testing.assert_allclose(x, gelsd, atol=1e-10)


def test_lstsq_raises_typed_error_when_both_solvers_fail(monkeypatch):
    monkeypatch.setattr(np.linalg, "lstsq", fail_to_converge)
    monkeypatch.setattr(scipy.linalg, "lstsq", fail_to_converge)
    with pytest.raises(DegenerateKernelError):
        lstsq(np.eye(3), np.ones(3))



def test_import_leaves_scipy_linalg_to_the_fallback():
    """scipy.linalg is imported by the fallback alone, not with the module."""
    probe = ("import sys, nsdeblur.linalg; "
             "print('scipy.linalg' in sys.modules)")
    assert run_probe(probe) == "False"

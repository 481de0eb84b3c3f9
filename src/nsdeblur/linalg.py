"""Dense least squares: a thin contract over numpy.linalg that returns
the minimum-norm solution or raises a typed error.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateKernelError


def lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of a x = b, with singular values
    below eps * max(a.shape) * sigma_max treated as zero.

    LAPACK's divide-and-conquer SVD (gelsd) can fail to converge on
    near-singular systems; the same solution is then taken from the plain
    SVD routine (gelss) with the same cutoff.  Raises DegenerateKernelError
    when both fail.
    """
    try:
        return np.linalg.lstsq(a, b, rcond=None)[0]
    except np.linalg.LinAlgError:
        pass
    # imported here, not at the top: importing scipy.linalg takes about
    # 0.25 s, which every process would pay for a fallback it rarely takes
    import scipy.linalg
    try:
        return scipy.linalg.lstsq(a, b, cond=np.finfo(np.float64).eps
                                  * max(a.shape), lapack_driver="gelss")[0]
    except np.linalg.LinAlgError as exc:
        raise DegenerateKernelError(
            f"least-squares solve failed: {exc}") from exc


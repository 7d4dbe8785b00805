"""The one symmetric eigensolver.

eigenvalues() diagonalises a symmetric matrix or a stack of them with
LAPACK's symmetric eigenvalue routine (numpy.linalg.eigvalsh). The
package calls it only on the channel matrices of relations, which
make_hfpr found finite and stores exactly symmetric, so the lower
triangle the routine reads holds the same numbers as the upper one.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence


def eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of each (n, n) matrix in an (..., n, n) array, ascending."""
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolver failed: {exc}") from None

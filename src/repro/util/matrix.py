"""Dense symmetric-matrix helpers used by the communication-matrix code.

TreeMatch treats communication as undirected affinity, so matrices are
symmetrized before grouping. These helpers keep that logic in one place.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InputError

__all__ = ["symmetrize", "check_square", "zero_diagonal", "submatrix"]


def check_square(m: np.ndarray, *, name: str = "matrix") -> np.ndarray:
    """Validate that *m* is a finite, non-negative 2-D square array."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"{name} must be square 2-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InputError(f"{name} contains non-finite entries")
    if (a < 0).any():
        raise InputError(f"{name} contains negative entries")
    return a


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return ``m + m.T`` — total traffic regardless of direction."""
    a = check_square(m)
    return a + a.T


def zero_diagonal(m: np.ndarray) -> np.ndarray:
    """Copy of *m* with self-communication removed."""
    a = check_square(m).copy()
    np.fill_diagonal(a, 0.0)
    return a


def submatrix(m: np.ndarray, indices: list[int]) -> np.ndarray:
    """Rows+columns of *m* restricted to *indices* (in the given order)."""
    a = check_square(m)
    idx = np.asarray(indices, dtype=np.intp)
    return a[np.ix_(idx, idx)]

"""Dense symmetric-matrix helpers used by the communication-matrix code.

TreeMatch treats communication as undirected affinity, so matrices are
symmetrized before grouping. These helpers keep that logic in one place.

:func:`check_square` is the validation step. :func:`symmetrize`,
:func:`zero_diagonal` and :func:`submatrix` validate their input;
:func:`affinity_into` trusts it and is the build the mapping pipeline
runs on matrices that were validated once, at construction.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MatrixError

__all__ = [
    "symmetrize", "check_square", "zero_diagonal", "submatrix",
    "affinity_into",
]

#: Tile edge of :func:`affinity_into`. Two 128 x 128 float64 tiles
#: (256 KiB) stay cache-resident while one is read transposed.
AFFINITY_TILE = 128


def check_square(m: np.ndarray, *, name: str = "matrix") -> np.ndarray:
    """Validate that *m* is a finite, non-negative 2-D square array."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MatrixError(f"{name} must be square 2-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise MatrixError(f"{name} contains non-finite entries")
    if (a < 0).any():
        raise MatrixError(f"{name} contains negative entries")
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


def affinity_into(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``a + a.T`` with a zero diagonal into ``out[:n, :n]``.

    *a* is a float64 ``n x n`` array that is trusted (validate it with
    :func:`check_square` first); *out* is at least ``n x n`` and its
    other entries are left untouched, so a zeroed larger buffer comes
    back zero-padded. The sum runs over the upper triangle of
    ``AFFINITY_TILE``-square tiles, each mirrored into its lower twin;
    float addition commutes, so every entry equals
    ``zero_diagonal(symmetrize(a))`` bit for bit.
    """
    n = a.shape[0]
    tile = AFFINITY_TILE
    for i0 in range(0, n, tile):
        i1 = min(i0 + tile, n)
        for j0 in range(i0, n, tile):
            j1 = min(j0 + tile, n)
            blk = out[i0:i1, j0:j1]
            np.add(a[i0:i1, j0:j1], a[j0:j1, i0:i1].T, out=blk)
            if j0 != i0:
                out[j0:j1, i0:i1] = blk.T
    np.fill_diagonal(out[:n, :n], 0.0)
    return out


def submatrix(m: np.ndarray, indices: list[int]) -> np.ndarray:
    """Rows+columns of *m* restricted to *indices* (in the given order)."""
    a = check_square(m)
    idx = np.asarray(indices, dtype=np.intp)
    return a[np.ix_(idx, idx)]

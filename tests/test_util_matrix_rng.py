"""Tests for matrix helpers and deterministic RNG derivation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.util.matrix import check_square, submatrix, symmetrize, zero_diagonal
from repro.util.rng import derive_rng, make_rng

squareish = arrays(
    np.float64,
    (4, 4),
    elements=st.floats(min_value=0, max_value=1e6, allow_nan=False),
)


class TestMatrixHelpers:
    def test_check_square_accepts_square(self):
        m = check_square([[0, 1], [2, 3]])
        assert m.shape == (2, 2)

    def test_check_square_rejects_rect(self):
        with pytest.raises(ValueError):
            check_square(np.zeros((2, 3)))

    def test_check_square_rejects_nan(self):
        with pytest.raises(ValueError):
            check_square([[0, np.nan], [0, 0]])

    def test_check_square_rejects_negative(self):
        with pytest.raises(ValueError):
            check_square([[0, -1], [0, 0]])

    def test_check_square_errors_are_input_errors(self):
        from repro.errors import InputError, ReproError

        for bad in (np.zeros((2, 3)), [[0, np.inf], [0, 0]], [[0, -1], [0, 0]]):
            with pytest.raises(InputError) as info:
                check_square(bad)
            assert isinstance(info.value, ReproError)

    @given(squareish)
    def test_symmetrize_is_symmetric(self, m):
        s = symmetrize(m)
        assert np.allclose(s, s.T)
        assert np.allclose(s, m + m.T)

    def test_zero_diagonal(self):
        m = zero_diagonal([[5, 1], [2, 7]])
        assert m[0, 0] == 0 and m[1, 1] == 0
        assert m[0, 1] == 1 and m[1, 0] == 2

    def test_submatrix_order(self):
        m = np.arange(9).reshape(3, 3).astype(float)
        sub = submatrix(m, [2, 0])
        assert sub[0, 0] == m[2, 2]
        assert sub[0, 1] == m[2, 0]
        assert sub[1, 0] == m[0, 2]


class TestRng:
    def test_make_rng_deterministic(self):
        assert make_rng(3).integers(0, 100) == make_rng(3).integers(0, 100)

    def test_derive_rng_independent_of_draw_order(self):
        a = derive_rng(make_rng(0), "video", 1)
        b = derive_rng(make_rng(0), "video", 1)
        assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)

    def test_derive_rng_distinct_keys_differ(self):
        root = make_rng(0)
        a = derive_rng(root, "a")
        root2 = make_rng(0)
        b = derive_rng(root2, "b")
        assert a.integers(0, 1 << 30) != b.integers(0, 1 << 30)

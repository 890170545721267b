"""Unit and property tests for the hwloc-style Bitmap."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bitmap import Bitmap

index_sets = st.sets(st.integers(min_value=0, max_value=300), max_size=40)


class TestConstruction:
    def test_empty(self):
        bm = Bitmap()
        assert len(bm) == 0
        assert not bm
        assert bm.first() == -1
        assert bm.last() == -1

    def test_from_iterable(self):
        bm = Bitmap([3, 1, 2])
        assert list(bm) == [1, 2, 3]

    def test_duplicate_indices_collapse(self):
        assert Bitmap([1, 1, 1]) == Bitmap([1])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Bitmap([-1])

    def test_single(self):
        assert list(Bitmap.single(7)) == [7]
        with pytest.raises(ValueError):
            Bitmap.single(-2)

    def test_range_half_open(self):
        assert list(Bitmap.range(2, 5)) == [2, 3, 4]
        assert not Bitmap.range(5, 5)
        assert not Bitmap.range(6, 2)


class TestListSyntax:
    def test_parse_simple(self):
        assert list(Bitmap.from_list("0-2,5")) == [0, 1, 2, 5]

    def test_parse_empty(self):
        assert not Bitmap.from_list("")
        assert not Bitmap.from_list("   ")

    def test_parse_single_values(self):
        assert list(Bitmap.from_list("7")) == [7]

    def test_parse_spaces(self):
        assert list(Bitmap.from_list(" 1 , 3-4 ")) == [1, 3, 4]

    def test_descending_range_rejected(self):
        with pytest.raises(ValueError):
            Bitmap.from_list("5-2")

    def test_render_runs(self):
        assert Bitmap([0, 1, 2, 5, 7, 8]).to_list() == "0-2,5,7-8"

    @given(index_sets)
    def test_roundtrip(self, idx):
        bm = Bitmap(idx)
        assert Bitmap.from_list(bm.to_list()) == bm


class TestAlgebra:
    def test_union_intersection_difference(self):
        a, b = Bitmap([0, 1, 2]), Bitmap([2, 3])
        assert list(a | b) == [0, 1, 2, 3]
        assert list(a & b) == [2]
        assert list(a - b) == [0, 1]
        assert list(a ^ b) == [0, 1, 3]

    def test_subset_disjoint(self):
        a, b = Bitmap([1, 2]), Bitmap([0, 1, 2, 3])
        assert a.issubset(b)
        assert not b.issubset(a)
        assert a.isdisjoint(Bitmap([5]))
        assert a.intersects(Bitmap([2, 9]))

    def test_contains(self):
        bm = Bitmap([4])
        assert 4 in bm
        assert 5 not in bm
        assert -1 not in bm

    def test_hashable(self):
        assert len({Bitmap([1]), Bitmap([1]), Bitmap([2])}) == 2

    @given(index_sets, index_sets)
    def test_matches_set_semantics(self, xs, ys):
        bx, by = Bitmap(xs), Bitmap(ys)
        assert set(bx | by) == xs | ys
        assert set(bx & by) == xs & ys
        assert set(bx - by) == xs - ys
        assert set(bx ^ by) == xs ^ ys
        assert bx.issubset(by) == xs.issubset(ys)
        assert bx.isdisjoint(by) == xs.isdisjoint(ys)

    @given(index_sets)
    def test_first_last_len(self, xs):
        bm = Bitmap(xs)
        assert len(bm) == len(xs)
        assert bm.first() == (min(xs) if xs else -1)
        assert bm.last() == (max(xs) if xs else -1)


def test_bad_input_raises_input_error():
    from repro.errors import InputError, ReproError

    for build in (lambda: Bitmap([-1]), lambda: Bitmap.from_list("5-2"),
                  lambda: Bitmap.single(-3)):
        with pytest.raises(InputError) as info:
            build()
        assert isinstance(info.value, ReproError)
        assert isinstance(info.value, ValueError)

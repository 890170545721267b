"""Tests for byte-size parsing/formatting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.units import format_size, parse_size


class TestParse:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("32K", 32 * 1024),
            ("256K", 256 * 1024),
            ("20480K", 20480 * 1024),
            ("24576K", 24576 * 1024),
            ("1M", 1024**2),
            ("2G", 2 * 1024**3),
            ("1T", 1024**4),
            ("64", 64),
            ("6.5G", int(6.5 * 1024**3)),
            ("32KB", 32 * 1024),
            ("32KiB", 32 * 1024),
            ("32k", 32 * 1024),
        ],
    )
    def test_known_values(self, text, expected):
        assert parse_size(text) == expected

    def test_numbers_pass_through(self):
        assert parse_size(4096) == 4096
        assert parse_size(10.7) == 10

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_size("twelve")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            parse_size(-1)
        with pytest.raises(ValueError):
            parse_size("-5K")


class TestFormat:
    def test_exact_suffixes(self):
        assert format_size(20480 * 1024) == "20M"
        assert format_size(1024) == "1K"
        assert format_size(3 * 1024**3) == "3G"

    def test_small_values_stay_bytes(self):
        assert format_size(63) == "63"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_size(-1)

    @given(st.integers(min_value=0, max_value=2**50))
    def test_roundtrip_within_rounding(self, n):
        # format→parse must stay within 5% (inexact suffixes round).
        out = parse_size(format_size(n))
        assert abs(out - n) <= max(64, int(0.05 * n))


def test_parse_errors_are_repro_input_errors():
    from repro.errors import InputError, ReproError

    for bad in ("lots", "-4K", -1):
        with pytest.raises(InputError) as info:
            parse_size(bad)
        assert isinstance(info.value, ReproError)
        assert isinstance(info.value, ValueError)
    with pytest.raises(InputError):
        format_size(-1)

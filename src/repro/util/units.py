"""Parsing and formatting of byte sizes in hwloc/Table-I notation.

Table I of the paper gives cache sizes as ``32K``, ``256K``, ``20480K``;
hwloc uses binary units (1K = 1024 bytes). :func:`parse_size` accepts that
notation plus ``M``/``G``/``T`` suffixes with an optional ``B``/``iB`` tail.
"""

from __future__ import annotations

from repro.errors import InputError

__all__ = ["parse_size", "format_size"]

_SUFFIXES = {"": 1, "K": 1024, "M": 1024**2, "G": 1024**3, "T": 1024**4}


def parse_size(text: str | int | float) -> int:
    """Parse ``"32K"``-style sizes into bytes.

    Plain numbers pass through unchanged (floats are truncated).

    >>> parse_size("20480K")
    20971520
    >>> parse_size("6.5G")
    6979321856
    """
    if isinstance(text, (int, float)):
        if text < 0:
            raise InputError(f"size must be >= 0, got {text}")
        return int(text)
    s = text.strip().upper()
    for tail in ("IB", "B"):
        if s.endswith(tail) and len(s) > len(tail):
            s = s[: -len(tail)]
            break
    suffix = ""
    if s and s[-1] in _SUFFIXES:
        suffix = s[-1]
        s = s[:-1]
    try:
        value = float(s)
    except ValueError as exc:
        raise InputError(f"unparsable size {text!r}") from exc
    if value < 0:
        raise InputError(f"size must be >= 0, got {text!r}")
    return int(value * _SUFFIXES[suffix])


def format_size(nbytes: int) -> str:
    """Render a byte count with the largest exact-ish binary suffix.

    >>> format_size(20971520)
    '20M'
    """
    if nbytes < 0:
        raise InputError("nbytes must be >= 0")
    for suffix in ("T", "G", "M", "K"):
        unit = _SUFFIXES[suffix]
        if nbytes >= unit and nbytes % unit == 0:
            return f"{nbytes // unit}{suffix}"
    for suffix in ("T", "G", "M", "K"):
        unit = _SUFFIXES[suffix]
        if nbytes >= 10 * unit:
            return f"{nbytes / unit:.1f}{suffix}"
    return str(nbytes)

"""Shared experiment plumbing: problem scales and result containers.

The scales live in the leaf module :mod:`repro.scale` and are
re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.scale import PAPER, QUICK, TINY, Scale, current_scale

__all__ = [
    "Scale",
    "TINY",
    "QUICK",
    "PAPER",
    "current_scale",
    "Series",
    "FigureResult",
]


@dataclass
class Series:
    """One plotted line: label + x/y value lists."""

    label: str
    x: list
    y: list

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ReproError(f"series {self.label!r}: x/y length mismatch")

    def value_at(self, x):
        try:
            return self.y[self.x.index(x)]
        except ValueError:
            raise ReproError(f"series {self.label!r} has no point at {x!r}") from None


@dataclass
class FigureResult:
    """A regenerated figure: series plus identification metadata."""

    fig_id: str
    title: str
    xlabel: str
    ylabel: str
    series: list[Series] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def series_by_label(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise ReproError(
            f"{self.fig_id}: no series {label!r}; have "
            f"{[s.label for s in self.series]}"
        )

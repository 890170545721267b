"""Problem scales for the experiment harness.

The paper's problem sizes (16384² matrices, 100 iterations) simulate in
minutes; the default ``quick`` scale reproduces every qualitative shape
in seconds. Select with ``REPRO_SCALE=paper`` or by passing a
:class:`Scale` explicitly.

A leaf module: it imports nothing from :mod:`repro.experiments`, so the
job specs of :mod:`repro.parallel` can use :class:`Scale` without
importing the figure harness (which itself imports ``repro.parallel``).
:mod:`repro.experiments.runner` re-exports everything here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ReproError

__all__ = ["Scale", "TINY", "QUICK", "PAPER", "current_scale"]


@dataclass(frozen=True)
class Scale:
    """Problem sizes for the three applications."""

    name: str
    lk23_n: int
    lk23_iterations: int
    matmul_n: int
    video_frames: int
    video_frames_4k: int

    def __post_init__(self) -> None:
        if min(
            self.lk23_n,
            self.lk23_iterations,
            self.matmul_n,
            self.video_frames,
            self.video_frames_4k,
        ) < 1:
            raise ReproError("scale parameters must be >= 1")


#: Smoke-test scale (seconds for the whole harness; shapes may be noisy).
TINY = Scale("tiny", lk23_n=512, lk23_iterations=2, matmul_n=1024,
             video_frames=3, video_frames_4k=2)
#: Fast shape-preserving scale (default; CI-friendly).
QUICK = Scale("quick", lk23_n=4096, lk23_iterations=10, matmul_n=4096,
              video_frames=30, video_frames_4k=10)
#: The paper's published problem sizes.
PAPER = Scale("paper", lk23_n=16384, lk23_iterations=100, matmul_n=16384,
              video_frames=100, video_frames_4k=50)

_SCALES = {s.name: s for s in (TINY, QUICK, PAPER)}


def current_scale() -> Scale:
    """The scale selected by ``REPRO_SCALE`` (default: quick)."""
    name = os.environ.get("REPRO_SCALE", "quick")
    try:
        return _SCALES[name]
    except KeyError:
        raise ReproError(
            f"unknown REPRO_SCALE {name!r}; known: {sorted(_SCALES)}"
        ) from None

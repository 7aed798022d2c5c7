"""Forward threshold-dynamics simulation: the hard MBO step.

One step convolves the current frame with a kernel and applies a Heaviside
threshold (ties map to 1), so every frame of a rollout is binary.  The steep
sigmoid that relaxes this step for training is not here: it lives on the
autodiff tape, in `mbonet.rollout_graph`, the one soft rollout both methods
train through.

Each step equals ``conv2d_same(frame, kernel, "direct") >= threshold`` bit
for bit, exact ties included, at every kernel size.  It is decided from the
spectral correlation, and only the pixels whose spectral value lies within a
rounding bound of the threshold are recomputed with the direct sum (see
`grid._ThresholdScreen`).  A rollout transforms its kernel once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, _ThresholdScreen, as_grid
from .kernels import Kernel

Video = np.ndarray  # (n_frames, H, W)


@dataclass(frozen=True)
class DynParams:
    """The state of one dynamics: kernel and threshold."""

    kernel: Kernel
    threshold: float

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0,1), got {self.threshold}")


def step(frame: Grid, params: DynParams, screen: _ThresholdScreen | None = None) -> Grid:
    """One convolve-threshold update of a frame: pixel on iff the
    convolution is >= the threshold.  ``screen`` is the kernel's screen for
    this frame shape, when the caller already holds one."""
    frame = as_grid(frame)
    if screen is None:
        screen = _ThresholdScreen(frame.shape, params.kernel.grid)
    return screen(frame, params.threshold).astype(np.float64)


def rollout(frame0: Grid, params: DynParams, n_steps: int) -> Video:
    """Iterate ``step`` n_steps times; returns n_steps+1 frames including
    frame0 so indexing matches the 1-based frame convention."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    frames = [as_grid(frame0)]
    screen = _ThresholdScreen(frames[0].shape, params.kernel.grid)
    for _ in range(n_steps):
        frames.append(step(frames[-1], params, screen))
    return np.stack(frames)

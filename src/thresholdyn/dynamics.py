"""Forward threshold-dynamics simulation.

One step convolves the current frame with a kernel and thresholds the result,
either hard (Heaviside, ties map to 1) or soft (steep sigmoid).  Iterating
the step evolves a front; hard mode re-binarizes every step, soft mode
propagates gray values as it does during training.

The hard step always uses the direct convolution path so exact threshold
ties behave identically regardless of kernel size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .grid import Grid, as_grid, conv2d_same
from .kernels import Kernel

Video = np.ndarray  # (n_frames, H, W)


@dataclass(frozen=True)
class DynParams:
    """The learnable state of one dynamics: kernel and threshold.  The soft
    step's steepness belongs to its threshold mode (`Soft.s`)."""

    kernel: Kernel
    threshold: float

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0,1), got {self.threshold}")


@dataclass(frozen=True)
class Hard:
    """Heaviside thresholding: pixel on iff convolution >= threshold."""


@dataclass(frozen=True)
class Soft:
    """Sigmoid thresholding with steepness s (smooth training surrogate)."""

    s: float

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError(f"steepness must be positive, got {self.s}")


ThresholdMode = Hard | Soft
HARD = Hard()


def sigmoid_threshold(x, a: float, s: float):
    """Steep sigmoid 1 / (1 + exp(-s*(x - a))): value in (0,1), increasing in x."""
    if s <= 0:
        raise ValueError(f"steepness must be positive, got {s}")
    return expit(s * (np.asarray(x, dtype=np.float64) - a))


def step(frame: Grid, params: DynParams, mode: ThresholdMode = HARD) -> Grid:
    """One convolve-threshold update of a frame."""
    conv = conv2d_same(as_grid(frame), params.kernel.grid, method="direct")
    if isinstance(mode, Hard):
        return (conv >= params.threshold).astype(np.float64)
    return sigmoid_threshold(conv, params.threshold, mode.s)


def rollout(
    frame0: Grid, params: DynParams, n_steps: int, mode: ThresholdMode = HARD
) -> Video:
    """Iterate ``step`` n_steps times; returns n_steps+1 frames including
    frame0 so indexing matches the 1-based frame convention."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    frames = [as_grid(frame0)]
    for _ in range(n_steps):
        frames.append(step(frames[-1], params, mode))
    return np.stack(frames)

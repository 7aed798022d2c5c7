"""The five kernel families used to drive threshold dynamics.

All generated kernels have odd side lengths and unit-sum normalization so
thresholds in (0,1) are commensurate across families.  Kernel coordinates put
the origin at the center pixel: column offset = x (rightward), row offset = y
(downward).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, as_grid


@dataclass(frozen=True)
class Kernel:
    """A convolution kernel: a 2-D float64 grid with odd side lengths.

    The constructors below return nonnegative unit-sum kernels; a learned
    kernel holds its raw values, which may be signed and of any total mass.
    """

    grid: Grid

    def __post_init__(self):
        g = as_grid(self.grid)
        if g.shape[0] % 2 == 0 or g.shape[1] % 2 == 0:
            raise ValueError(f"kernel side lengths must be odd, got {g.shape}")
        object.__setattr__(self, "grid", g)

    @property
    def size(self) -> int:
        return self.grid.shape[0]


def normalize(grid: Grid) -> Kernel:
    """The unit-sum Kernel of a grid."""
    grid = as_grid(grid)
    total = grid.sum()
    if total <= 0 or not np.isfinite(total):
        raise ValueError("kernel sum must be positive and finite to normalize")
    return Kernel(grid / total)


def _offsets(size: int):
    if size % 2 == 0 or size < 1:
        raise ValueError(f"kernel size must be odd and positive, got {size}")
    c = size // 2
    return np.arange(size) - c


def gaussian_values(
    size: int, mu_x: float, mu_y: float, sigma_x: float, sigma_y: float
) -> Grid:
    """Sample the 2D Gaussian density at integer pixel offsets, unnormalized:
    (2*pi*sx*sy)^-1 * exp(-(x-mx)^2/(2*sx^2) - (y-my)^2/(2*sy^2))."""
    if sigma_x <= 0 or sigma_y <= 0:
        raise ValueError("sigma must be positive")
    off = _offsets(size)
    x = off[None, :].astype(float)
    y = off[:, None].astype(float)
    z = np.exp(-((x - mu_x) ** 2) / (2 * sigma_x**2) - ((y - mu_y) ** 2) / (2 * sigma_y**2))
    return z / (2 * np.pi * sigma_x * sigma_y)


def gaussian(
    size: int,
    mu_x: float = 0.0,
    mu_y: float = 0.0,
    sigma_x: float = 1.0,
    sigma_y: float | None = None,
) -> Kernel:
    """Gaussian kernel; sigma_y defaults to sigma_x (standard), differ for
    the skewed variant."""
    if sigma_y is None:
        sigma_y = sigma_x
    return normalize(gaussian_values(size, mu_x, mu_y, sigma_x, sigma_y))


def double_gaussian(
    size: int,
    mu1: tuple[float, float],
    mu2: tuple[float, float],
    sigma1: float,
    sigma2: float,
    weight: float = 0.5,
) -> Kernel:
    """Two-component Gaussian mixture: weight*G1 + (1-weight)*G2, unit-sum."""
    if not 0.0 < weight <= 1.0:
        raise ValueError("weight must be in (0, 1]")
    g1 = gaussian_values(size, mu1[0], mu1[1], sigma1, sigma1)
    g2 = gaussian_values(size, mu2[0], mu2[1], sigma2, sigma2)
    return normalize(weight * g1 + (1.0 - weight) * g2)


def disk(size: int, center: tuple[float, float] = (0.0, 0.0), radius: float = 1.0) -> Kernel:
    """Indicator of a disk, tested at pixel centers, unit-sum normalized."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    cx, cy = center
    half = size // 2 + 0.5
    if abs(cx) + radius > half or abs(cy) + radius > half:
        raise ValueError(f"disk (center={center}, radius={radius}) does not fit in size {size}")
    off = _offsets(size)
    d2 = (off[None, :] - cx) ** 2 + (off[:, None] - cy) ** 2
    ind = (d2 <= radius**2).astype(np.float64)
    if not ind.any():
        raise ValueError(f"radius {radius} covers no pixel center; kernel would be all-zero")
    return normalize(ind)


def raster(image: Grid) -> Kernel:
    """Kernel from an arbitrary grayscale raster (e.g. a digit glyph):
    nonnegative clamp then unit-sum normalization."""
    g = np.clip(as_grid(image), 0.0, None)
    if g.sum() <= 0:
        raise ValueError("raster image is all-zero; cannot normalize")
    return normalize(g)

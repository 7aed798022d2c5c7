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
# alone has moved it by 0.006.  The hard dynamics step does not read it: it
# is decided by `_ThresholdScreen`, which matches the direct path bit for bit
# at every kernel size.
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


class _ThresholdScreen:
    """The hard threshold ``_correlate(x, kernel, "direct") >= a`` of (H, W)
    frames, decided from the spectral correlation and rechecked by the direct
    sum only where the two could disagree.  The result equals the direct one
    bit for bit, ties included.  The kernel is transformed once, so one screen
    serves every step of a rollout.

    Tolerance.  With n = kh*kw, u = 2**-53 and gamma_n = n*u / (1 - n*u),
    the direct sum is within gamma_n * |K|_1 * max|x| of the exact
    correlation.  With P the number of transformed points and L = log2(P),
    the spectral value is within

        (7*L*(2 + sqrt(P)) + 2) * u * sqrt(H*W) * |K|_1 * max|x|

    of it.  Each transform has a relative 2-norm error of at most 7*u*L (the
    FFT bound of Higham, *Accuracy and Stability of Numerical Algorithms*,
    Thm 24.2).  The kernel spectrum has 2-norm sqrt(P) * |K|_2, so no kernel
    frequency is off by more than sqrt(P) * 7*u*L * |K|_2; no kernel
    frequency exceeds |K|_1 in modulus; the product adds 2*u; the inverse
    transform divides the 2-norm by sqrt(P); |x|_2 <= sqrt(H*W) * max|x|,
    |K|_2 <= |K|_1, and a 2-norm bounds every entry.  tau is the sum of the
    two bounds plus the smallest normal number, for underflow.

    A pixel whose spectral value is more than tau from ``a`` has its exact
    and its direct value on the same side of ``a`` as the spectral one;
    every other pixel is recomputed with the direct sum over row segments of
    the windows ``_correlate`` reads.  A frame or kernel that is not finite
    takes the direct path whole.
    """

    def __init__(self, image_shape, kernel):
        _check_kernel(image_shape, kernel.shape)
        self.kernel = kernel
        self.plan = _Spectral(image_shape, kernel.shape)
        self.spectrum = self.plan.kernel_rfft(kernel).conj()
        u = np.finfo(np.float64).eps / 2
        n = kernel.size
        points = float(np.prod(self.plan.size))
        fft = ((7 * np.log2(points) * (2 + np.sqrt(points)) + 2) * u
               * np.sqrt(float(np.prod(image_shape[-2:]))))
        self.scale = np.abs(kernel).sum() * (n * u / (1 - n * u) + fft)

    def value(self, x):
        """The spectral correlation of x (H, W)."""
        return self.plan.image(self.plan.rfft(x) * self.spectrum)

    def tolerance(self, x) -> float:
        """tau for x: NaN or inf when x or the kernel is not finite."""
        return float(np.abs(x).max() * self.scale + np.finfo(np.float64).tiny)

    def __call__(self, x, a: float) -> np.ndarray:
        """Boolean (H, W): is the correlation of x at least ``a``?"""
        tau = self.tolerance(x)
        if not np.isfinite(tau):
            return _correlate(x, self.kernel, "direct") >= a
        value = self.value(x)
        out = value >= a
        # a NaN value (an overflow inside the transform) fails ">" and is rechecked
        rows, cols = np.nonzero(~(np.abs(value - a) > tau))
        if rows.size:
            windows = _windows(x, self.kernel.shape)
            cuts = np.flatnonzero((np.diff(rows) != 0) | (np.diff(cols) != 1)) + 1
            for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, rows.size]):
                r, c0, c1 = rows[lo], cols[lo], cols[hi - 1] + 1
                out[r, c0:c1] = _direct(windows[r, c0:c1], self.kernel) >= a
        return out


def _windows(x, kernel_shape):
    """The zero-padded (kh, kw) window around every pixel of x (..., H, W)."""
    kh, kw = kernel_shape[-2:]
    pad = [(0, 0)] * (x.ndim - 2) + [(kh // 2, kh // 2), (kw // 2, kw // 2)]
    return sliding_window_view(np.pad(x, pad), (kh, kw), axis=(-2, -1))


def _direct(windows, kernel):
    """The direct sum over ``_windows``.  A basic slice of the windows gives
    the same bits as the whole: einsum sums each output's products in the
    same order.  A contiguous copy of the slice does not."""
    if kernel.ndim == 2:
        return np.einsum("...uv,uv->...", windows, kernel)
    return np.einsum("n...uv,nuv->n...", windows, kernel)


def _correlate(x, kernel, method: str = "auto"):
    """Batched same-size cross-correlation.

    Shapes: x (..., H, W) with kernel (kh, kw) shared, or x (N, H, W) with
    per-sample kernels (N, kh, kw).
    """
    if _use_fft(kernel.shape, method):
        plan = _Spectral(x.shape, kernel.shape)
        return plan.image(plan.rfft(x) * plan.kernel_rfft(kernel).conj())
    return _direct(_windows(x, kernel.shape), kernel)


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

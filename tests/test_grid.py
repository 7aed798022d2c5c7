"""Convolution primitive: oracle agreement, derived examples, invariants."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thresholdyn import grid
from thresholdyn.autodiff import Tape
from thresholdyn.grid import (
    _convolve,
    _correlate,
    conv2d_same,
    is_binary,
    measure,
)


def conv_oracle(image, kernel):
    """Naive quadruple-loop cross-correlation with zero padding.  Independent
    reference for conv2d_same; kept deliberately dumb."""
    h, w = image.shape
    kh, kw = kernel.shape
    cy, cx = kh // 2, kw // 2
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for u in range(kh):
                for v in range(kw):
                    ii, jj = i + u - cy, j + v - cx
                    if 0 <= ii < h and 0 <= jj < w:
                        acc += kernel[u, v] * image[ii, jj]
            out[i, j] = acc
    return out


def test_identity_kernel():
    rng = np.random.default_rng(0)
    img = rng.random((5, 5))
    np.testing.assert_array_equal(conv2d_same(img, np.array([[1.0]])), img)


def test_box_kernel_on_ones():
    img = np.ones((3, 3))
    out = conv2d_same(img, np.full((3, 3), 1.0 / 9.0))
    # zero padding: center sees all 9 pixels, edge-midpoints 6, corners 4
    assert out[1, 1] == pytest.approx(1.0, abs=1e-12)
    for r, c in [(0, 1), (1, 0), (1, 2), (2, 1)]:
        assert out[r, c] == pytest.approx(6.0 / 9.0, abs=1e-12)
    for r, c in [(0, 0), (0, 2), (2, 0), (2, 2)]:
        assert out[r, c] == pytest.approx(4.0 / 9.0, abs=1e-12)


def test_matches_oracle_random_8x8():
    rng = np.random.default_rng(1)
    img = rng.random((8, 8))
    ker = rng.random((3, 3))
    np.testing.assert_allclose(conv2d_same(img, ker), conv_oracle(img, ker), atol=1e-12)


def test_fft_path_matches_oracle():
    rng = np.random.default_rng(2)
    img = rng.random((16, 16))
    ker = rng.random((7, 7))
    np.testing.assert_allclose(
        conv2d_same(img, ker, method="fft"), conv_oracle(img, ker), atol=1e-9
    )


def test_rejects_even_kernel():
    with pytest.raises(ValueError):
        conv2d_same(np.ones((5, 5)), np.ones((2, 2)))


def test_rejects_kernel_larger_than_image():
    with pytest.raises(ValueError):
        conv2d_same(np.ones((3, 3)), np.ones((5, 5)))


def test_linearity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.random((6, 7))
        y = rng.random((6, 7))
        k = rng.random((3, 5))
        alpha, beta = rng.normal(size=2)
        lhs = conv2d_same(alpha * x + beta * y, k)
        rhs = alpha * conv2d_same(x, k) + beta * conv2d_same(y, k)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_monotonicity_nonneg_kernel():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.random((8, 8))
        y = x + rng.random((8, 8))  # y >= x elementwise
        k = rng.random((5, 3))
        assert np.all(conv2d_same(x, k) <= conv2d_same(y, k))


def test_measure():
    assert measure(np.zeros((4, 4))) == 0
    assert measure(np.ones((4, 4))) == 16
    checker = np.indices((4, 4)).sum(axis=0) % 2
    assert measure(checker.astype(float)) == 8


def test_is_binary():
    assert is_binary(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not is_binary(np.array([[0.0, 0.5]]))


# ---- adjoint identities <A x, y> = <x, A^T y>, on both paths ----


@st.composite
def correlation_cases(draw):
    """(x, kernel, y): one frame, a batch with a shared kernel, or a batch
    with per-sample kernels; odd kernel sides up to the image's."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    kh = 2 * draw(st.integers(0, (h - 1) // 2)) + 1
    kw = 2 * draw(st.integers(0, (w - 1) // 2)) + 1
    layout = draw(st.sampled_from(("frame", "shared", "per_sample")))
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x_shape = (h, w) if layout == "frame" else (n, h, w)
    k_shape = (n, kh, kw) if layout == "per_sample" else (kh, kw)
    return rng.normal(size=x_shape), rng.normal(size=k_shape), rng.normal(size=x_shape)


def _adjoint_tolerance(x, kernel, y):
    # |<x * k, y>| <= |k|_1 |x|_2 |y|_2 bounds both sides of the identity
    return 1e-12 * np.abs(kernel).sum() * np.linalg.norm(x) * np.linalg.norm(y)


@settings(max_examples=80, deadline=None)
@given(case=correlation_cases(), method=st.sampled_from(("direct", "fft")))
def test_convolve_is_the_image_adjoint_of_correlate(case, method):
    x, kernel, y = case
    lhs = np.vdot(_correlate(x, kernel, method), y)
    rhs = np.vdot(x, _convolve(y, kernel, method))
    assert abs(lhs - rhs) <= _adjoint_tolerance(x, kernel, y)


@settings(max_examples=80, deadline=None)
@given(case=correlation_cases(), crossover=st.sampled_from((1, 10**9)))
def test_tape_conv_vjp_is_the_adjoint_of_conv2d_same(case, crossover):
    # crossover 1 sends every kernel down the tape's spectral path, 10**9 none
    x, kernel, y = case
    with mock.patch.object(grid, "_FFT_KERNEL_AREA", crossover):
        tape = Tape()
        node = tape.conv2d_same(tape.leaf(x, param=True), tape.leaf(kernel, param=True))
        gx, gk = node.vjp(y)
    assert gx.shape == x.shape and gk.shape == kernel.shape
    lhs = np.vdot(node.value, y)
    tolerance = _adjoint_tolerance(x, kernel, y)
    assert abs(lhs - np.vdot(x, gx)) <= tolerance
    assert abs(lhs - np.vdot(kernel, gk)) <= tolerance

"""Kernel family constructors and normalization contracts."""

import numpy as np
import pytest

from thresholdyn.kernels import (
    Kernel,
    disk,
    double_gaussian,
    gaussian,
    gaussian_values,
    raster,
)


def gaussian_oracle(size, mu_x, mu_y, sx, sy):
    """Pointwise formula evaluation followed by division by the sampled sum."""
    c = size // 2
    out = np.zeros((size, size))
    for i in range(size):
        for j in range(size):
            x, y = j - c, i - c
            out[i, j] = (
                1.0
                / (2 * np.pi * sx * sy)
                * np.exp(-((x - mu_x) ** 2) / (2 * sx**2) - ((y - mu_y) ** 2) / (2 * sy**2))
            )
    return out / out.sum()


def test_gaussian_center_value_before_normalization():
    for sigma in (1.0, 2.0, 3.5):
        raw = gaussian_values(31, 0.0, 0.0, sigma, sigma)
        assert raw[15, 15] == pytest.approx(1.0 / (2 * np.pi * sigma**2), rel=1e-12)


def test_gaussian_symmetry():
    k = gaussian(5, 0.0, 0.0, 1.0).grid
    np.testing.assert_allclose(k, np.rot90(k), atol=1e-15)
    np.testing.assert_allclose(k, k[::-1, :], atol=1e-15)
    np.testing.assert_allclose(k, k[:, ::-1], atol=1e-15)


def test_gaussian_matches_formula_oracle():
    k = gaussian(7, mu_x=1.0, mu_y=0.0, sigma_x=1.0, sigma_y=2.0).grid
    np.testing.assert_allclose(k, gaussian_oracle(7, 1.0, 0.0, 1.0, 2.0), atol=1e-12)


def test_gaussian_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        gaussian(5, sigma_x=0.0)
    with pytest.raises(ValueError):
        gaussian(5, sigma_x=1.0, sigma_y=-2.0)


def test_double_gaussian_degenerate_weight():
    lone = gaussian(9, 1.0, -1.0, 1.5).grid
    mix = double_gaussian(9, (1.0, -1.0), (0.0, 0.0), 1.5, 1.0, weight=1.0).grid
    np.testing.assert_allclose(mix, lone, atol=1e-15)


def test_double_gaussian_point_symmetry():
    k = double_gaussian(9, (1.5, 1.0), (-1.5, -1.0), 1.2, 1.2, weight=0.5).grid
    np.testing.assert_allclose(k, k[::-1, ::-1], atol=1e-15)


def test_double_gaussian_matches_oracle():
    k = double_gaussian(9, (1.0, 0.5), (-1.5, -1.0), 1.0, 2.0, weight=0.3).grid
    raw = 0.3 * gaussian_values(9, 1.0, 0.5, 1.0, 1.0) + 0.7 * gaussian_values(
        9, -1.5, -1.0, 2.0, 2.0
    )
    np.testing.assert_allclose(k, raw / raw.sum(), atol=1e-12)


def test_disk_single_pixel():
    k = disk(5, (0.0, 0.0), 0.5).grid
    expected = np.zeros((5, 5))
    expected[2, 2] = 1.0
    np.testing.assert_array_equal(k, expected)


def test_disk_plus_sign():
    # radius 1.2 reaches the 4 axis neighbours (distance 1) but not the
    # diagonals (distance sqrt(2) > 1.2): a 5-pixel plus sign at 1/5 each
    k = disk(5, (0.0, 0.0), 1.2).grid
    expected = np.zeros((5, 5))
    for r, c in [(2, 2), (1, 2), (3, 2), (2, 1), (2, 3)]:
        expected[r, c] = 0.2
    np.testing.assert_allclose(k, expected, atol=1e-15)


def test_disk_rotation_symmetry():
    k = disk(7, (0.0, 0.0), 2.3).grid
    np.testing.assert_array_equal(k, np.rot90(k))


def test_disk_rejects_all_zero_and_misfit():
    with pytest.raises(ValueError):
        disk(5, (0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        disk(5, (2.0, 0.0), 2.0)  # sticks out of the footprint


def test_raster_delta():
    img = np.zeros((3, 3))
    img[1, 1] = 0.7
    np.testing.assert_array_equal(raster(img).grid, img / 0.7)


def test_raster_uniform():
    np.testing.assert_allclose(raster(np.ones((3, 3))).grid, np.full((3, 3), 1.0 / 9.0))


def test_raster_proportional_and_unit_sum():
    rng = np.random.default_rng(7)
    img = rng.random((9, 9))
    k = raster(img).grid
    assert abs(k.sum() - 1.0) <= 1e-9
    np.testing.assert_allclose(k / k[0, 0], img / img[0, 0], atol=1e-12)


def test_raster_rejects_all_zero():
    with pytest.raises(ValueError):
        raster(np.zeros((5, 5)))


def test_constructors_well_formed():
    rng = np.random.default_rng(9)
    ks = [
        gaussian(15, 0.5, -0.5, 2.0),
        gaussian(15, 0.0, 0.0, 1.0, 3.0),
        double_gaussian(15, (2.0, 0.0), (-2.0, 1.0), 1.5, 2.0, 0.4),
        disk(15, (1.0, -1.0), 3.3),
        raster(rng.random((15, 15))),
    ]
    for k in ks:
        # the generated-kernel contract: nonnegative, unit sum to 1e-9
        assert np.all(k.grid >= 0) and abs(k.grid.sum() - 1.0) <= 1e-9, k


def test_kernel_rejects_even_grid():
    with pytest.raises(ValueError):
        Kernel(np.ones((4, 4)))

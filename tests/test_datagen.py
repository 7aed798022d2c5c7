"""Dataset construction: shapes, videos, noise, splits, reproducibility."""

import numpy as np
import pytest

from thresholdyn import kernels
from thresholdyn.datagen import (
    Dataset,
    DatasetSpec,
    build_dataset,
    disk_frame,
    gaussian_blur,
    generate_video,
    initial_frame,
    make_rng,
    salt_pepper,
    split_indices,
)
from thresholdyn.dynamics import DynParams, step
from thresholdyn.grid import measure


def test_disk_frame_pixel_count():
    # oracle: enumerate integer offsets with dy^2+dx^2 <= 100 around the center
    count = sum(
        1
        for dy in range(-10, 11)
        for dx in range(-10, 11)
        if dy * dy + dx * dx <= 100
    )
    assert count == 317
    assert measure(disk_frame(64, 10)) == 317


def test_initial_frame_rejects_empty_and_oversize():
    with pytest.raises(ValueError):
        initial_frame(np.zeros((8, 8)), 16)
    with pytest.raises(ValueError):
        initial_frame(np.ones((20, 20)), 16)


def test_initial_frame_centers_raster():
    src = np.ones((28, 28))
    frame = initial_frame(src, 64)
    assert frame.shape == (64, 64)
    assert frame[18:46, 18:46].sum() == 28 * 28
    assert frame.sum() == 28 * 28  # nothing outside the central block


def test_generate_video_expansion_low_threshold():
    frame0 = disk_frame(64, 8)
    video = generate_video(frame0, kernels.gaussian(15, sigma_x=2.0), 0.2, 7)
    counts = [measure(f) for f in video]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] > counts[0]


def test_generate_video_thin_strokes_vanish_at_half():
    rng = make_rng(3)
    from thresholdyn._glyphs import digit_glyph

    frame0 = initial_frame(digit_glyph(3, 28, rng), 64)
    video = generate_video(frame0, kernels.gaussian(15, sigma_x=2.0), 0.5, 7)
    counts = [measure(f) for f in video]
    assert counts[-1] < counts[0]


def test_generate_video_delta_kernel_constant():
    frame0 = disk_frame(32, 6)
    video = generate_video(frame0, kernels.delta(3), 0.5, 5)
    for f in video:
        np.testing.assert_array_equal(f, frame0)


def test_blur_keeps_unit_interval_and_smooths():
    video = np.stack([disk_frame(32, 6)] * 3)
    blurred = gaussian_blur(video, 5, 1.0)
    assert blurred.min() >= 0.0 and blurred.max() <= 1.0
    inside = (blurred[0] > 0) & (blurred[0] < 1)
    assert inside.any(), "blur should produce gray values at edges"


def test_blur_delta_limit_is_identity():
    video = np.stack([disk_frame(16, 4)])
    out = gaussian_blur(video, 1, 1.0)  # 1x1 blur kernel is a delta
    np.testing.assert_allclose(out, video, atol=1e-12)


def test_blur_preserves_mass_up_to_boundary_loss():
    frame = disk_frame(32, 6)
    video = np.stack([frame])
    out = gaussian_blur(video, 5, 1.0)
    mass, blurred_mass = frame.sum(), out[0].sum()
    assert blurred_mass <= mass + 1e-9
    # only mass within the blur radius of the border can leak out
    interior = frame.copy()
    interior[2:-2, 2:-2] = 0.0
    assert mass - blurred_mass <= interior.sum() + 1e-9


def test_salt_pepper_identity_at_zero():
    video = np.stack([disk_frame(16, 4)])
    np.testing.assert_array_equal(salt_pepper(video, 0.0, seed=1), video)


def test_salt_pepper_full_replacement_statistics():
    video = np.zeros((1, 128, 128))
    out = salt_pepper(video, 1.0, seed=2)
    frac = out.mean()
    n = out.size
    sigma = 0.5 / np.sqrt(n)
    assert abs(frac - 0.5) <= 3 * sigma
    assert set(np.unique(out)) <= {0.0, 1.0}


def test_salt_pepper_deterministic():
    video = np.stack([disk_frame(24, 5)] * 4)
    a = salt_pepper(video, 0.3, seed=7)
    b = salt_pepper(video, 0.3, seed=7)
    np.testing.assert_array_equal(a, b)
    c = salt_pepper(video, 0.3, seed=8)
    assert not np.array_equal(a, c)


def test_split_small_example():
    spec = DatasetSpec(frame_size=16, kernel_size=5, n_combos=10, videos_per_combo=3,
                       thresholds=(0.2, 0.5), families=("gaussian",))
    train, test = split_indices(spec)
    assert len(train) == 27 and len(test) == 3


def test_split_explicit_test_count():
    spec = DatasetSpec(frame_size=16, kernel_size=5, n_combos=1, videos_per_combo=6,
                       thresholds=(0.2,), families=("gaussian",), n_test=5)
    train, test = split_indices(spec)
    assert train == [0]
    assert test == [1, 2, 3, 4, 5]


def test_split_round_robin_covers_combos():
    spec = DatasetSpec(frame_size=16, kernel_size=5, n_combos=10, videos_per_combo=10,
                       thresholds=(0.2, 0.3, 0.5, 0.6), families=("gaussian", "disk"))
    train, test = split_indices(spec)
    assert len(test) == 10
    combos_hit = {i // 10 for i in test}
    assert combos_hit == set(range(10))


def _tiny_spec(**kw):
    base = dict(
        frame_size=24,
        n_frames=5,
        kernel_size=7,
        thresholds=(0.2, 0.5),
        families=("gaussian", "disk"),
        n_combos=2,
        videos_per_combo=3,
        master_seed=11,
    )
    base.update(kw)
    return DatasetSpec(**base)


def test_build_dataset_counts_and_regeneration():
    ds = build_dataset(_tiny_spec())
    assert isinstance(ds, Dataset)
    assert len(ds.samples) == 6
    for sample, combo in zip(ds.samples, [ds.combos[0]] * 3 + [ds.combos[1]] * 3):
        params = DynParams(combo.kernel, combo.threshold)
        for t in range(len(sample.clean) - 1):
            np.testing.assert_array_equal(sample.clean[t + 1], step(sample.clean[t], params))


def test_build_dataset_bit_identical_reruns():
    a = build_dataset(_tiny_spec(noise="saltpepper"))
    b = build_dataset(_tiny_spec(noise="saltpepper"))
    for sa, sb in zip(a.samples, b.samples):
        np.testing.assert_array_equal(sa.clean, sb.clean)
        np.testing.assert_array_equal(sa.noisy, sb.noisy)


def test_build_dataset_noise_keeps_clean_targets():
    ds = build_dataset(_tiny_spec(noise="saltpepper"))
    for s in ds.samples:
        assert set(np.unique(s.clean)) <= {0.0, 1.0}
        assert not np.array_equal(s.clean, s.noisy)


def test_build_dataset_paper_scale_combo_structure():
    # 4 thresholds x 5 families with 100 combos: every pair sampled 5 times
    spec = DatasetSpec(n_combos=100, videos_per_combo=1, frame_size=16, kernel_size=5)
    from thresholdyn.datagen import make_combos

    combos = make_combos(spec)
    assert len(combos) == 100
    pairs = [(c.threshold, c.family) for c in combos]
    from collections import Counter

    assert all(v == 5 for v in Counter(pairs).values())


def test_dataset_spec_validation():
    with pytest.raises(ValueError):
        DatasetSpec(noise="speckle")
    with pytest.raises(ValueError):
        DatasetSpec(thresholds=(0.0,))
    with pytest.raises(ValueError):
        DatasetSpec(kernel_size=8)
    with pytest.raises(ValueError):
        DatasetSpec(families=("mystery",))
    for bad in ({"frame_size": 0}, {"kernel_size": -1}):
        with pytest.raises(ValueError):
            DatasetSpec(**bad)

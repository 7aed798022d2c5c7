"""Threshold-dynamics step/rollout behaviour and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, logit

from thresholdyn import datagen, grid, kernels, mbonet
from thresholdyn.autodiff import Tape
from thresholdyn.datagen import disk_frame
from thresholdyn.dynamics import DynParams, rollout, step
from thresholdyn.grid import conv2d_same, measure
from thresholdyn.kernels import Kernel
from thresholdyn.mbonet import MboModel


def sigmoid_threshold(x, a, s):
    """The tape's steep sigmoid, the one soft threshold, on plain values."""
    return Tape().sigmoid_threshold(x, a, s).value


def test_sigmoid_midpoint():
    assert sigmoid_threshold(0.3, a=0.3, s=7.0) == pytest.approx(0.5, abs=1e-15)


def test_sigmoid_quartile_shift():
    # sigma(s*(x-a)) = 0.75 exactly at x = a + ln(3)/s
    for s in (5.0, 100.0):
        x = 0.4 + np.log(3.0) / s
        assert sigmoid_threshold(x, a=0.4, s=s) == pytest.approx(0.75, rel=1e-12)


def test_sigmoid_steep_limit():
    assert sigmoid_threshold(0.4, a=0.5, s=100.0) < 1e-4


def test_sigmoid_rejects_bad_steepness():
    with pytest.raises(ValueError):
        sigmoid_threshold(0.5, a=0.5, s=0.0)


def test_step_delta_kernel_identity():
    frame = np.zeros((9, 9))
    frame[2:7, 2:7] = 1.0
    params = DynParams(kernels.delta(3), threshold=0.5)
    np.testing.assert_array_equal(step(frame, params), frame)


def test_step_plus_kernel_expands_point():
    frame = np.zeros((11, 11))
    frame[5, 5] = 1.0
    params = DynParams(kernels.disk(5, radius=1.2), threshold=0.1)
    out = step(frame, params)
    expected = np.zeros((11, 11))
    for r, c in [(5, 5), (4, 5), (6, 5), (5, 4), (5, 6)]:
        expected[r, c] = 1.0
    np.testing.assert_array_equal(out, expected)


def test_step_isolated_point_dies_at_high_threshold():
    frame = np.zeros((11, 11))
    frame[5, 5] = 1.0
    params = DynParams(kernels.disk(5, radius=1.2), threshold=0.6)
    assert measure(step(frame, params)) == 0


def test_step_soft_is_sigmoid_of_convolution():
    rng = np.random.default_rng(0)
    frame = (rng.random((12, 12)) > 0.5).astype(float)
    k = kernels.gaussian(5, sigma_x=1.0)
    model = MboModel(raw_kernel=k.grid, raw_threshold=float(logit(0.4)), steepness=50.0, layers=1)

    expected = expit(50.0 * (conv2d_same(frame, k.grid, method="direct") - model.threshold))
    np.testing.assert_array_equal(mbonet.forward_train(model, frame)[0], expected)


def test_rollout_base_case():
    frame = disk_frame(16, 4)
    params = DynParams(kernels.gaussian(5, sigma_x=1.0), threshold=0.5)
    video = rollout(frame, params, n_steps=1)
    assert video.shape == (2, 16, 16)
    np.testing.assert_array_equal(video[0], frame)
    np.testing.assert_array_equal(video[1], step(frame, params))


def test_rollout_delta_kernel_fixed_point():
    frame = disk_frame(16, 4)
    for a in (0.1, 0.5, 0.9):
        params = DynParams(kernels.delta(3), threshold=a)
        video = rollout(frame, params, n_steps=6)
        for t in range(7):
            np.testing.assert_array_equal(video[t], frame)


def test_rollout_mean_curvature_shrinkage_until_extinction():
    frame = disk_frame(64, 10)
    params = DynParams(kernels.gaussian(15, sigma_x=2.0), threshold=0.5)
    video = rollout(frame, params, n_steps=40)
    counts = [measure(f) for f in video]
    assert counts[-1] == 0, "disk should go extinct under curvature shrinkage"
    extinction = counts.index(0)
    for t in range(extinction):
        assert counts[t] > counts[t + 1], f"count stalled at frame {t}: {counts}"


def test_rollout_rejects_zero_steps():
    with pytest.raises(ValueError):
        rollout(disk_frame(8, 2), DynParams(kernels.delta(1), 0.5), n_steps=0)


def test_threshold_monotonicity_randomized():
    rng = np.random.default_rng(1)
    k = kernels.gaussian(5, sigma_x=1.5)
    for _ in range(50):
        frame = (rng.random((12, 12)) > 0.6).astype(float)
        a1, a2 = sorted(rng.uniform(0.05, 0.95, size=2))
        lo = step(frame, DynParams(k, a1))
        hi = step(frame, DynParams(k, a2))
        assert np.all(lo >= hi)


def test_set_monotonicity_randomized():
    rng = np.random.default_rng(2)
    k = kernels.disk(5, radius=1.8)
    for _ in range(50):
        a = (rng.random((12, 12)) > 0.7).astype(float)
        b = np.maximum(a, (rng.random((12, 12)) > 0.7).astype(float))  # A subset of B
        params = DynParams(k, float(rng.uniform(0.1, 0.9)))
        assert np.all(step(a, params) <= step(b, params))


def test_soft_approaches_hard_as_steepness_grows():
    frame = disk_frame(32, 8)
    k = kernels.gaussian(9, sigma_x=1.5)
    a = 0.5
    hard = rollout(frame, DynParams(k, a), n_steps=3)
    # require convolution values to stay clear of the threshold along the
    # hard trajectory so the sigmoid limit is well-defined
    for f in hard[:-1]:
        conv = conv2d_same(f, k.grid, method="direct")
        assert np.min(np.abs(conv - a)) >= 1e-3
    dists = []
    for s in (100.0, 1e4):
        model = MboModel(raw_kernel=k.grid, raw_threshold=float(logit(a)), steepness=s, layers=3)
        soft = mbonet.forward_train(model, frame)
        dists.append(np.max(np.abs(soft - hard[1:])))
    assert dists[1] < dists[0]
    assert dists[1] < 1e-3


def test_expansion_and_shrinkage():
    frame = disk_frame(64, 10)
    k = kernels.gaussian(15, sigma_x=2.0)
    grow = rollout(frame, DynParams(k, 0.2), n_steps=3)
    counts = [measure(f) for f in grow]
    assert counts[0] < counts[1] < counts[2] < counts[3]
    shrink = rollout(frame, DynParams(k, 0.6), n_steps=3)
    counts = [measure(f) for f in shrink]
    assert counts[0] > counts[1] > counts[2] > counts[3]


def test_half_plane_quasi_stationary():
    frame = np.zeros((64, 64))
    frame[:, :32] = 1.0
    params = DynParams(kernels.gaussian(15, sigma_x=2.0), threshold=0.5)
    out = step(frame, params)
    # interface must not move except possibly within 1 pixel of the border
    np.testing.assert_array_equal(out[2:-2, 2:-2], frame[2:-2, 2:-2])


def direct_step(frame, kernel, a):
    """The reference hard step: the direct sum, then the threshold."""
    return (conv2d_same(frame, kernel, method="direct") >= a).astype(np.float64)


@st.composite
def step_cases(draw):
    """A frame, a kernel (one of the five families, or signed and possibly
    rectangular, down to 1x1) and a threshold taken from the frame's own
    direct values, so that exact ties reach the direct recheck."""
    family = draw(st.sampled_from(datagen.FAMILIES + ("signed",)))
    if family == "signed":
        kh, kw = (2 * draw(st.integers(0, 15)) + 1 for _ in range(2))
    else:
        kh = kw = 2 * draw(st.integers(2, 15)) + 1
    h, w = draw(st.integers(kh, 48)), draw(st.integers(kw, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "signed":
        kernel = rng.standard_normal((kh, kw))
    else:
        kernel = datagen.sample_kernel(family, kh, rng).grid
    if draw(st.booleans()):
        frame = (rng.random((h, w)) < draw(st.floats(0.05, 0.95))).astype(np.float64)
    else:
        frame = rng.standard_normal((h, w))
    values = conv2d_same(frame, kernel, method="direct")
    inside = values[(values > 0) & (values < 1)]
    if inside.size:
        a = float(inside[draw(st.integers(0, inside.size - 1))])
    else:
        a = draw(st.floats(0.01, 0.99))
    return frame, kernel, a


@settings(max_examples=150, deadline=None)
@given(case=step_cases())
def test_step_is_the_direct_step_bit_for_bit(case):
    frame, kernel, a = case
    got = step(frame, DynParams(Kernel(kernel, normalized=False), a))
    np.testing.assert_array_equal(got, direct_step(frame, kernel, a))


def test_exact_ties_map_to_one():
    # a kernel of two halves gives exact sums; columns 0 (half the window in
    # the zero padding) and 8 (half on the front) tie with a = 0.5
    frame = np.zeros((16, 16))
    frame[:, :8] = 1.0
    kernel = np.zeros((3, 3))
    kernel[1, :2] = 0.5
    out = step(frame, DynParams(Kernel(kernel, normalized=False), 0.5))
    assert (conv2d_same(frame, kernel, method="direct") == 0.5).sum() == 32
    np.testing.assert_array_equal(out, direct_step(frame, kernel, 0.5))
    assert out[:, 0].all() and out[:, 8].all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_frame_or_kernel_gives_the_direct_result(bad):
    rng = np.random.default_rng(3)
    frame = (rng.random((20, 20)) > 0.5).astype(np.float64)
    frame[4, 7] = bad
    kernel = kernels.gaussian(5, sigma_x=1.0).grid
    for a in (0.2, 0.5):
        np.testing.assert_array_equal(step(frame, DynParams(Kernel(kernel), a)),
                                      direct_step(frame, kernel, a))
    frame = (rng.random((20, 20)) > 0.5).astype(np.float64)
    kernel = kernel.copy()
    kernel[0, 3] = bad
    np.testing.assert_array_equal(step(frame, DynParams(Kernel(kernel, normalized=False), 0.5)),
                                  direct_step(frame, kernel, 0.5))


def test_rollout_transforms_its_kernel_once(monkeypatch):
    calls = []
    kernel_rfft = grid._Spectral.kernel_rfft

    def counted(plan, kernel):
        calls.append(kernel.shape)
        return kernel_rfft(plan, kernel)

    monkeypatch.setattr(grid._Spectral, "kernel_rfft", counted)
    params = DynParams(kernels.gaussian(15, sigma_x=2.0), threshold=0.4)
    video = rollout(disk_frame(48, 12), params, n_steps=6)
    assert calls == [(15, 15)]
    for t in range(6):
        np.testing.assert_array_equal(video[t + 1], direct_step(video[t], params.kernel.grid, 0.4))


@pytest.mark.parametrize("kernel_size,frame_size", [(15, 48), (31, 64)])
def test_spectral_gap_is_far_inside_the_tolerance(kernel_size, frame_size):
    """On the paper's data the measured |spectral - direct| is at most
    tau/1000: the bound the screen trusts has a wide margin."""
    spec = datagen.DatasetSpec(frame_size=frame_size, kernel_size=kernel_size,
                               videos_per_combo=1, noise="blur", master_seed=5)
    worst = 0.0
    for combo in datagen.make_combos(spec):
        screen = grid._ThresholdScreen((frame_size, frame_size), combo.kernel.grid)
        for v in range(spec.videos_per_combo):
            sample = datagen.generate_sample(spec, combo, v)
            for frame in np.concatenate([sample.clean[:-1], sample.noisy]):
                gap = np.abs(screen.value(frame) - conv2d_same(frame, combo.kernel.grid, "direct"))
                worst = max(worst, gap.max() / screen.tolerance(frame))
    assert 0 < worst <= 1e-3

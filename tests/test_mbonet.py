"""Single-dynamics trainer: forward/loss contracts, determinism, checkpoints."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from thresholdyn import kernels, mbonet
from thresholdyn.datagen import DatasetSpec, SampleMeta, VideoSample, build_dataset
from thresholdyn.grid import conv2d_same
from thresholdyn.mbonet import MboModel, TrainConfig, TrainingDiverged

from support import disk_frame, gradcheck, soft_loss, soft_rollout


def make_sample(clean, noisy=None, threshold=0.2):
    meta = SampleMeta("gaussian", threshold, "none", 0, 0, 0)
    return VideoSample(clean=clean, noisy=clean.copy() if noisy is None else noisy, meta=meta)


def tiny_dataset(n_videos=4, size=16, n_frames=5, threshold=0.3, seed=3):
    spec = DatasetSpec(frame_size=size, n_frames=n_frames, kernel_size=5,
                       thresholds=(threshold,), families=("gaussian",), n_combos=1,
                       videos_per_combo=n_videos, n_test=0, master_seed=seed)
    return build_dataset(spec)


def test_forward_train_delta_kernel_is_sigmoid_of_frame():
    model = MboModel(raw_kernel=np.pad([[1.0]], 1), raw_threshold=0.0, steepness=100.0, layers=1)
    frame = disk_frame(16, 4)
    pred = soft_rollout(model, frame)[0][0]
    # delta kernel: conv == frame; ones map to sigma(50), zeros to sigma(-50)
    expected = np.where(frame == 1.0, expit(50.0), expit(-50.0))
    np.testing.assert_allclose(pred, expected, atol=1e-12)


def test_forward_train_matches_three_soft_steps():
    model = MboModel.initialize(5, seed=1, steepness=80.0, layers=3)
    frame = disk_frame(16, 5)
    preds = soft_rollout(model, frame)[0]
    x = frame
    for i in range(3):
        x = expit(80.0 * (conv2d_same(x, model.raw_kernel) - model.threshold))
        np.testing.assert_allclose(preds[i], x, atol=1e-9)


def test_loss_zero_on_perfect_predictions():
    model = MboModel(raw_kernel=np.pad([[1.0]], 1), raw_threshold=0.0, layers=3)
    frame = disk_frame(16, 4)
    preds = soft_rollout(model, frame)[0]
    video = np.concatenate([frame[None], preds])
    assert soft_loss(model, [make_sample(video)]) == pytest.approx(0.0, abs=1e-30)


def test_loss_single_pixel_arithmetic():
    # one video, L=1: a 2x2 target differing from the prediction by 1 in one
    # pixel gives loss 1/4
    model = MboModel(raw_kernel=np.ones((1, 1)), raw_threshold=0.0,
                     steepness=100.0, layers=1)
    frame = np.zeros((2, 2))
    pred = soft_rollout(model, frame)[0][0]
    target = pred.copy()
    target[0, 0] += 1.0
    video = np.stack([frame, target])
    assert soft_loss(model, [make_sample(video)]) == pytest.approx(0.25, rel=1e-12)


def test_loss_averages_over_videos():
    model = MboModel.initialize(3, seed=0, layers=2)
    rng = np.random.default_rng(0)
    videos = [
        (rng.random((3, 8, 8)) > 0.5).astype(float),
        (rng.random((3, 8, 8)) > 0.5).astype(float),
    ]
    samples = [make_sample(v) for v in videos]
    separate = [soft_loss(model, [s]) for s in samples]
    together = soft_loss(model, samples)
    assert together == pytest.approx(np.mean(separate), rel=1e-12)


def test_loss_rejects_short_or_mismatched_videos():
    model = MboModel.initialize(3, layers=3)
    short = make_sample(np.zeros((2, 8, 8)))
    with pytest.raises(ValueError):
        soft_loss(model, [short])
    a = make_sample(np.zeros((4, 8, 8)))
    b = make_sample(np.zeros((4, 6, 6)))
    with pytest.raises(ValueError):
        soft_loss(model, [a, b])


def test_training_graph_passes_gradcheck():
    ds = tiny_dataset(n_videos=2, size=8)
    from thresholdyn.mbonet import rollout_graph, stack
    from thresholdyn.autodiff import Tape

    inputs, targets = stack(ds.samples, 2, 1)

    def build(params, rng):
        k_val = kernels.gaussian(3, sigma_x=0.8).grid + rng.uniform(-1e-3, 1e-3, (3, 3))
        a_val = np.asarray(0.1)
        if params is not None:
            k_val, a_val = params["k"], params["a"]
        tape = Tape()
        k = tape.leaf(k_val, param=True, name="k")
        a = tape.leaf(a_val, param=True, name="a")
        _, loss_node = rollout_graph(tape, inputs[:, 0], k, tape.sigmoid(a), 100.0, 2, targets)
        return tape, loss_node, {"k": k, "a": a}

    report = gradcheck(build, seed=0, step=1e-6)
    assert report.passed, report.max_rel_error


def test_loss_of_initial_model_is_first_history_entry():
    # soft_loss and train() build the same rollout graph.  Full batch, so the
    # first epoch's loss is the initial model's, bit for bit.  Dataset seed 6
    # with 3 videos is one where a history of sum(v * |batch|) / n would be
    # off by the last bit, since (v * 3) / 3 need not equal v
    cfg = TrainConfig(epochs=1, kernel_size=5, seed=2)
    model = MboModel.initialize(5, seed=2, steepness=cfg.steepness, layers=cfg.layers)
    for n_videos, seed in [(4, 3), (3, 6)]:
        ds = tiny_dataset(n_videos=n_videos, size=16, seed=seed)
        assert mbonet.train(ds.samples, cfg).history == [soft_loss(model, ds.samples)]


def test_train_reduces_loss_and_stays_in_unit_interval():
    ds = tiny_dataset(n_videos=4, size=16)
    cfg = TrainConfig(epochs=30, kernel_size=5, seed=0)
    res = mbonet.train(ds.samples, cfg)
    assert res.history[-1] < res.history[0]
    assert 0.0 < res.threshold < 1.0
    assert len(res.history) == 30


def test_train_deterministic():
    ds = tiny_dataset(n_videos=3, size=16)
    cfg = TrainConfig(epochs=10, kernel_size=5, seed=7)
    r1 = mbonet.train(ds.samples, cfg)
    r2 = mbonet.train(ds.samples, cfg)
    np.testing.assert_array_equal(r1.kernel.grid, r2.kernel.grid)
    assert r1.threshold == r2.threshold
    assert r1.history == r2.history


def test_train_reports_unit_mass_gauge(monkeypatch):
    ds = tiny_dataset(n_videos=3, size=16)
    cfg = TrainConfig(epochs=20, kernel_size=5, seed=0)
    res = mbonet.train(ds.samples, cfg)
    assert abs(res.kernel.grid.sum() - 1.0) <= 1e-12
    np.testing.assert_array_equal(res.kernel.grid, res.model.raw_kernel)
    assert res.threshold == res.model.threshold
    # the raw trained pair (gauge switched off) gives the same hard rollout
    monkeypatch.setattr(mbonet, "to_unit_mass", lambda model: model)
    raw = mbonet.train(ds.samples, cfg)
    assert abs(raw.kernel.grid.sum() - 1.0) > 1e-6
    assert raw.history == res.history
    assert res.threshold == pytest.approx(raw.threshold / raw.kernel.grid.sum(), rel=1e-12)
    for sample in ds.samples:
        np.testing.assert_array_equal(mbonet.predict(res.model, sample.clean[0], 6),
                                      mbonet.predict(raw.model, sample.clean[0], 6))


def test_checkpoint_threshold_is_the_gauged_one(tmp_path):
    import json

    ds = tiny_dataset(n_videos=2, size=16)
    res = mbonet.train(ds.samples, TrainConfig(epochs=5, kernel_size=5))
    path = mbonet.save_checkpoint(res.model, tmp_path / "ckpt")
    assert json.loads((path / "manifest.json").read_text())["a"] == res.threshold
    loaded = mbonet.load_checkpoint(path)
    assert loaded.threshold == res.threshold
    assert abs(loaded.raw_kernel.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("scale, raw_threshold", [(-1.0, 0.0), (0.0, 0.0), (0.5, 1.0)])
def test_to_unit_mass_keeps_pair_without_unit_mass_form(scale, raw_threshold):
    # mass <= 0 has no positive rescaling; mass 0.5 with a = expit(1) = 0.73
    # would need a/sum(K) = 1.46, outside (0, 1)
    model = MboModel(raw_kernel=scale * kernels.gaussian(5, sigma_x=1.0).grid,
                     raw_threshold=raw_threshold)
    kernel = model.raw_kernel.copy()
    with pytest.warns(RuntimeWarning, match="unit-mass form"):
        assert mbonet.to_unit_mass(model) is model
    np.testing.assert_array_equal(model.raw_kernel, kernel)
    assert model.raw_threshold == raw_threshold


def test_train_minibatch_path():
    ds = tiny_dataset(n_videos=5, size=16)
    cfg = TrainConfig(epochs=10, kernel_size=5, seed=0, batch_size=2)
    res = mbonet.train(ds.samples, cfg)
    assert res.history[-1] < res.history[0]


def test_full_batch_training_step_holds_no_batch_sized_scratch():
    # 30 videos at the paper geometry (64x64, k31), full batch, 2 epochs.  The
    # bound lies between the tracemalloc peaks measured above the dataset when
    # backward keeps every vjp closure and intermediate gradient until the tape
    # is dropped (32.4 MB) and when it releases each once used (21.6 MB)
    spec = DatasetSpec(frame_size=64, n_frames=5, kernel_size=31, thresholds=(0.2,),
                       families=("gaussian",), n_combos=1, videos_per_combo=30, n_test=0,
                       master_seed=7)
    samples = build_dataset(spec).samples
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mbonet.train(samples, TrainConfig(epochs=2, kernel_size=31, seed=1))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 27e6, f"training peak {peak / 1e6:.1f} MB above the dataset"


def test_train_logs_each_epoch_at_debug(caplog):
    caplog.set_level("DEBUG", logger="thresholdyn.mbonet")
    ds = tiny_dataset()
    mbonet.train(ds.samples, TrainConfig(epochs=3, kernel_size=5, seed=0))
    lines = [r.getMessage() for r in caplog.records if r.name == "thresholdyn.mbonet"]
    assert len(lines) == 3 and all(" loss " in line and line.endswith(" s") for line in lines)


def test_train_divergence_aborts_with_epoch():
    ds = tiny_dataset(n_videos=2, size=16)
    model = MboModel.initialize(5, seed=0)
    model.raw_kernel *= np.inf  # poisoned state -> non-finite loss immediately
    cfg = TrainConfig(epochs=3, kernel_size=5)
    with pytest.raises(TrainingDiverged) as err:
        mbonet.train(ds.samples, cfg, model=model)
    assert err.value.epoch == 0


def test_predict_delta_kernel_constant_video():
    model = MboModel(raw_kernel=np.pad([[1.0]], 1), raw_threshold=0.0)
    frame = disk_frame(16, 4)
    video = mbonet.predict(model, frame, 6)
    assert video.shape == (7, 16, 16)
    for f in video:
        np.testing.assert_array_equal(f, frame)


def test_predict_extrapolates_beyond_training_depth():
    ds = tiny_dataset(n_videos=2, size=16)
    res = mbonet.train(ds.samples, TrainConfig(epochs=5, kernel_size=5))
    video = mbonet.predict(res.model, ds.samples[0].clean[0], 6)
    assert video.shape[0] == 7
    assert np.isfinite(video).all()


def test_predict_binarizes_when_steep_and_clear_of_threshold():
    ds = tiny_dataset(n_videos=3, size=16, threshold=0.3)
    res = mbonet.train(ds.samples, TrainConfig(epochs=60, kernel_size=5, seed=1))
    frame = ds.samples[0].clean[0]
    hard = mbonet.predict(res.model, frame, 1)[1]
    soft = soft_rollout(res.model, frame)[0][0]
    # from a shared input, hard and soft agree wherever the convolution is
    # clear of the threshold (sigma saturates)
    from thresholdyn.grid import conv2d_same

    conv = conv2d_same(frame, res.model.raw_kernel)
    clear = np.abs(conv - res.model.threshold) >= 20.0 / res.model.steepness
    assert clear.any()
    np.testing.assert_array_equal(hard[clear], np.round(soft[clear]))


def test_checkpoint_roundtrip(tmp_path):
    model = MboModel.initialize(7, seed=5, steepness=90.0, layers=4)
    model.raw_threshold = -0.3
    mbonet.save_checkpoint(model, tmp_path / "ckpt")
    loaded = mbonet.load_checkpoint(tmp_path / "ckpt")
    np.testing.assert_array_equal(loaded.raw_kernel, model.raw_kernel)
    assert loaded.raw_threshold == model.raw_threshold
    assert loaded.steepness == 90.0 and loaded.layers == 4


def test_checkpoint_write_that_fails_midway_leaves_the_old_checkpoint(tmp_path, monkeypatch):
    old = MboModel.initialize(7, seed=5)
    path = mbonet.save_checkpoint(old, tmp_path / "ckpt")
    files = sorted(p.name for p in path.iterdir())

    def write_half_then_fail(self, data):
        with open(self, "wb") as f:
            f.write(data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
    new = MboModel.initialize(7, seed=6)
    new.raw_threshold = 0.4
    with pytest.raises(OSError, match="disk full"):
        mbonet.save_checkpoint(new, path)
    monkeypatch.undo()
    assert sorted(p.name for p in path.iterdir()) == files
    loaded = mbonet.load_checkpoint(path)
    np.testing.assert_array_equal(loaded.raw_kernel, old.raw_kernel)
    assert loaded.raw_threshold == old.raw_threshold


def test_checkpoint_rejects_bad_version(tmp_path):
    model = MboModel.initialize(5)
    path = mbonet.save_checkpoint(model, tmp_path / "ckpt")
    manifest = path / "manifest.json"
    import json

    data = json.loads(manifest.read_text())
    data["format_version"] = 99
    manifest.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        mbonet.load_checkpoint(path)


@pytest.mark.parametrize("bad", [{"layers": 0}, {"batch_size": -1}, {"kernel_size": -1}])
def test_train_config_rejects_values_out_of_range(bad):
    with pytest.raises(ValueError):
        TrainConfig(**bad)

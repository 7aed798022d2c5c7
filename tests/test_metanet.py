"""Meta-learning encoder: contracts, gradients, training mechanics."""

import numpy as np
import pytest

from thresholdyn import metanet
from thresholdyn.autodiff import Tape, gradcheck
from thresholdyn.datagen import DatasetSpec, build_dataset
from thresholdyn.mbonet import TrainConfig, rollout_graph
from thresholdyn.metanet import (
    MetaEncoder,
    MetaModel,
    _encoder_graph,
    _weight_nodes,
    encode,
    forward_train,
    predict,
)

TINY = (4, 6, 6)


def tiny_dataset(n_combos=2, videos=3, size=16, seed=4, noise="none"):
    spec = DatasetSpec(frame_size=size, n_frames=5, kernel_size=5,
                       thresholds=(0.2, 0.6), families=("gaussian", "disk"),
                       n_combos=n_combos, videos_per_combo=videos, n_test=0,
                       noise=noise, master_seed=seed)
    return build_dataset(spec)


def tiny_model(size=5, seed=0):
    enc = MetaEncoder.initialize(size, seed=seed, channels=TINY)
    return MetaModel(encoder=enc, steepness=100.0, layers=3)


def test_encode_shapes_and_range():
    model = tiny_model()
    rng = np.random.default_rng(0)
    frames = (rng.random((4, 16, 16)) > 0.5).astype(float)
    kernel, a = encode(model, frames)
    assert kernel.shape == (5, 5)
    assert 0.0 < a < 1.0


def test_encode_deterministic():
    model = tiny_model()
    rng = np.random.default_rng(1)
    frames = (rng.random((4, 16, 16)) > 0.5).astype(float)
    k1, a1 = encode(model, frames)
    k2, a2 = encode(model, frames)
    np.testing.assert_array_equal(k1, k2)
    assert a1 == a2


def test_encode_rejects_missing_frames():
    model = tiny_model()
    with pytest.raises(ValueError):
        encode(model, np.zeros((3, 16, 16)))


def test_encoding_independent_of_other_samples():
    # the encoder is a per-sample function: batching videos together in
    # training order must not change any individual encoding
    ds = tiny_dataset()
    model = tiny_model()
    singles = [encode(model, s.noisy[:4]) for s in ds.samples]
    for (k_single, a_single), sample in zip(singles, ds.samples):
        k_again, a_again = encode(model, sample.noisy[:4])
        np.testing.assert_array_equal(k_single, k_again)
        assert a_single == a_again


def test_encoding_ignores_empty_background_around_the_front():
    # the features are pooled over the front's band, so embedding the same
    # video in a larger empty frame (offset by the stack's total stride of 8)
    # leaves the encoding unchanged; a whole-frame mean would dilute it
    from thresholdyn import kernels
    from thresholdyn.datagen import disk_frame, generate_video

    model = tiny_model()
    video = generate_video(disk_frame(48, 4.0), kernels.gaussian(5, sigma_x=1.0), 0.3, 4)
    assert (video[3] != video[0]).any()
    padded = np.pad(video, ((0, 0), (16, 16), (16, 16)))
    k_small, a_small = encode(model, video)
    k_big, a_big = encode(model, padded)
    np.testing.assert_allclose(k_big, k_small, rtol=0, atol=1e-14)
    assert a_big == pytest.approx(a_small, rel=1e-12)


def test_front_pool_of_a_still_video_is_uniform():
    still = np.repeat(np.pad(np.ones((4, 4)), 6)[None], 4, axis=0)
    np.testing.assert_array_equal(metanet._front_pool_weights(still[None], 3), np.ones((1, 2, 2)))


def test_initial_encoded_kernel_is_near_unit_sum():
    # the kernel head bias anchors the starting scale so early rollouts are
    # alive rather than all-zero
    model = tiny_model()
    rng = np.random.default_rng(2)
    frames = (rng.random((4, 16, 16)) > 0.5).astype(float)
    kernel, a = encode(model, frames)
    assert kernel.sum() == pytest.approx(1.0, abs=0.2)
    assert a == pytest.approx(0.5, abs=0.1)


def test_forward_train_matches_mbonet_rollout_with_encoded_params():
    from thresholdyn import mbonet

    ds = tiny_dataset()
    model = tiny_model()
    sample = ds.samples[0]
    kernel, a = encode(model, sample.noisy[:4])
    preds = forward_train(model, sample)
    raw_threshold = np.log(a / (1.0 - a))
    mbo = mbonet.MboModel(raw_kernel=kernel, raw_threshold=raw_threshold,
                          steepness=model.steepness, layers=3)
    expected = mbonet.forward_train(mbo, sample.noisy[0])
    np.testing.assert_allclose(preds, expected, atol=1e-9)


def test_loss_is_mse_of_forward_train_predictions():
    # definitional consistency: the training loss equals the summed per-frame
    # mean squared error of forward_train's soft predictions, hence exactly 0
    # whenever those predictions match the targets
    ds = tiny_dataset()
    model = tiny_model()
    sample = ds.samples[0]
    preds = forward_train(model, sample)
    expected = sum(
        float(((p - t) ** 2).mean()) for p, t in zip(preds, sample.noisy[1:4])
    )
    assert metanet.loss(model, [sample]) == pytest.approx(expected, rel=1e-12)
    zero = sum(float(((p - t) ** 2).mean()) for p, t in zip(preds, preds))
    assert zero == 0.0


def test_full_encoder_rollout_gradcheck_8x8():
    ds = DatasetSpec(frame_size=8, n_frames=4, kernel_size=3, thresholds=(0.3,),
                     families=("gaussian",), n_combos=1, videos_per_combo=2,
                     n_test=0, master_seed=6)
    data = build_dataset(ds)
    frames = np.stack([s.noisy[:4] for s in data.samples])
    targets = [np.stack([s.noisy[i + 1] for s in data.samples]) for i in range(3)]

    def build(params, rng):
        enc = MetaEncoder.initialize(3, seed=3, channels=(3, 4, 4))
        values = enc.weights if params is None else params
        tape = Tape()
        nodes = {name: tape.leaf(val, param=True, name=name) for name, val in values.items()}
        kmat, a = _encoder_graph(tape, nodes, frames, 3)
        _, loss_node = rollout_graph(tape, frames[:, 0], kmat, a, 100.0, 3, targets)
        return tape, loss_node, nodes

    report = gradcheck(build, seed=0, step=1e-6)
    assert report.passed, f"max rel err {report.max_rel_error:.2e}"


def test_train_reduces_loss_and_every_layer_moves():
    ds = tiny_dataset(videos=4)
    cfg = TrainConfig(epochs=8, kernel_size=5, seed=0, lr=1e-3,
                      threshold_lr=1e-2, encoder_lr=1e-3)
    before = {k: v.copy() for k, v in
              MetaEncoder.initialize(5, seed=0, channels=TINY).weights.items()}
    res = metanet.train(ds.samples, cfg, channels=TINY)
    assert res.history[-1] < res.history[0]
    after = res.model.encoder.weights
    for name in before:
        assert not np.array_equal(before[name], after[name]), f"{name} never moved"


def test_train_deterministic():
    ds = tiny_dataset(videos=3)
    cfg = TrainConfig(epochs=5, kernel_size=5, seed=9, lr=1e-3)
    r1 = metanet.train(ds.samples, cfg, channels=TINY)
    r2 = metanet.train(ds.samples, cfg, channels=TINY)
    assert r1.history == r2.history
    for name in r1.model.encoder.weights:
        np.testing.assert_array_equal(
            r1.model.encoder.weights[name], r2.model.encoder.weights[name]
        )


def test_warmup_freezes_only_the_kernel_mass_in_minibatch_training():
    # 6 videos in batches of 4; head_k_b is held through epoch 2 of 4, every
    # other tensor moves from the first epoch on
    ds = tiny_dataset(videos=3)
    initial = MetaEncoder.initialize(5, seed=1, channels=TINY).weights

    def run(epochs):
        cfg = TrainConfig(epochs=epochs, kernel_size=5, seed=1, lr=1e-3, batch_size=4,
                          warmup_epochs=2)
        return metanet.train(ds.samples, cfg, channels=TINY)

    one, two, three, four, again = run(1), run(2), run(3), run(4), run(4)
    for res in (one, two):
        weights = res.model.encoder.weights
        np.testing.assert_array_equal(weights["head_k_b"], initial["head_k_b"])
        for name in initial.keys() - {"head_k_b"}:
            assert not np.array_equal(weights[name], initial[name]), f"{name} never moved"
    assert not np.array_equal(three.model.encoder.weights["head_k_b"], initial["head_k_b"])
    assert three.history == four.history[:3]
    assert four.history == again.history


def test_loss_of_initial_model_is_first_history_entry():
    # loss() and train() build the same graph; see the mbonet test of the
    # same name for why a 3-video batch (dataset seed 8) is included
    cfg = TrainConfig(epochs=1, kernel_size=5, seed=3)
    model = MetaModel(encoder=MetaEncoder.initialize(5, seed=3, channels=TINY),
                      steepness=cfg.steepness, layers=cfg.layers)
    for n_combos, videos, seed in [(2, 2, 4), (3, 1, 8)]:
        ds = tiny_dataset(n_combos=n_combos, videos=videos, seed=seed)
        expected = metanet.loss(model, ds.samples)
        assert metanet.train(ds.samples, cfg, channels=TINY).history == [expected]


def test_rollout_stage_has_no_parameters():
    model = tiny_model()
    encoder_count = model.encoder.parameter_count()
    assert model.parameter_count() == encoder_count
    ds = tiny_dataset(videos=1)
    sample = ds.samples[0]
    frames = np.stack([sample.noisy[:4]])
    tape = Tape()
    nodes = _weight_nodes(tape, model.encoder.weights)
    kmat, a = _encoder_graph(tape, nodes, frames, 5)
    n_params_before = sum(1 for node in tape.nodes if node.is_param)
    rollout_graph(tape, frames[:, 0], kmat, a, model.steepness, 3,
                  [np.zeros((1, 16, 16))] * 3)
    n_params_after = sum(1 for node in tape.nodes if node.is_param)
    assert n_params_before == n_params_after == len(model.encoder.weights)


def test_predict_returns_params_and_video():
    ds = tiny_dataset()
    model = tiny_model()
    sample = ds.samples[0]
    kernel, a, video = predict(model, sample.noisy[:4], 6)
    assert video.shape == (7, 16, 16)
    assert kernel.grid.shape == (5, 5)
    assert 0.0 < a < 1.0
    np.testing.assert_array_equal(video[0], sample.noisy[0])
    assert set(np.unique(video[1:])) <= {0.0, 1.0}


def test_predict_hard_rollout_matches_training_depth_analogue():
    ds = tiny_dataset()
    model = tiny_model()
    sample = ds.samples[0]
    _, _, video3 = predict(model, sample.noisy[:4], 3)
    _, _, video6 = predict(model, sample.noisy[:4], 6)
    np.testing.assert_array_equal(video3, video6[:4])


def test_checkpoint_roundtrip(tmp_path):
    ds = tiny_dataset(videos=2)
    cfg = TrainConfig(epochs=2, kernel_size=5, seed=0, lr=1e-3)
    res = metanet.train(ds.samples, cfg, channels=TINY)
    metanet.save_checkpoint(res.model, tmp_path / "m")
    loaded = metanet.load_checkpoint(tmp_path / "m")
    assert loaded.encoder.channels == TINY
    for name, value in res.model.encoder.weights.items():
        np.testing.assert_array_equal(loaded.encoder.weights[name], value)
    sample = ds.samples[0]
    k1, a1 = encode(res.model, sample.noisy[:4])
    k2, a2 = encode(loaded, sample.noisy[:4])
    np.testing.assert_array_equal(k1, k2)
    assert a1 == a2


def test_checkpoint_rejects_wrong_kind(tmp_path):
    from thresholdyn import mbonet

    model = mbonet.MboModel.initialize(5)
    mbonet.save_checkpoint(model, tmp_path / "m")
    with pytest.raises(ValueError, match="kind"):
        metanet.load_checkpoint(tmp_path / "m")


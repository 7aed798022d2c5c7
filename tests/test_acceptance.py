"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line each (run with -s to see them).

The heavyweight trainings are shared through session-scoped fixtures; each
criterion prints its measured numbers when it passes.
"""

import time

import numpy as np
import pytest

from thresholdyn import kernels, mbonet, metanet
from thresholdyn.autodiff import Tape
from thresholdyn.datagen import DatasetSpec, build_dataset
from thresholdyn.dynamics import DynParams, step
from thresholdyn.grid import conv2d_same
from thresholdyn.mbonet import TrainConfig
from thresholdyn.metrics import evaluate

from support import disk_frame, gradcheck, measure
from test_grid import conv_oracle


def report(n, detail):
    print(f"criterion {n:2d}: PASS - {detail}")


# ---- shared desk-scale trainings ----


def desk_spec(noise, videos=25, n_test=5):
    return DatasetSpec(frame_size=64, n_frames=7, kernel_size=15, thresholds=(0.2,),
                       families=("gaussian",), n_combos=1, videos_per_combo=videos,
                       n_test=n_test, noise=noise, master_seed=42)


def train_and_eval(dataset, config):
    result = mbonet.train(dataset.train_samples, config)
    preds = [mbonet.predict(result.model, s.noisy[0], 6) for s in dataset.test_samples]
    rep = evaluate(preds, [s.clean for s in dataset.test_samples], frame_range=(2, 7))
    return result, rep


@pytest.fixture(scope="session")
def method1_runs():
    """Method-1 trainings for the three noise conditions plus timing."""
    runs = {}
    for noise in ("none", "blur", "saltpepper"):
        t0 = time.monotonic()
        dataset = build_dataset(desk_spec(noise))
        config = TrainConfig(epochs=300, kernel_size=15, seed=0)
        result, rep = train_and_eval(dataset, config)
        runs[noise] = {"result": result, "report": rep, "seconds": time.monotonic() - t0}
    return runs


def test_criterion_1_convolution_oracle():
    rng = np.random.default_rng(11)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(200):
        h, w = rng.integers(1, 17, size=2)
        kh = rng.integers(0, (h - 1) // 2 + 1) * 2 + 1
        kw = rng.integers(0, (w - 1) // 2 + 1) * 2 + 1
        kh, kw = min(kh, 7), min(kw, 7)
        img = rng.random((h, w))
        ker = rng.normal(size=(kh, kw))
        diff = np.max(np.abs(conv2d_same(img, ker) - conv_oracle(img, ker)))
        worst = max(worst, diff)
    elapsed = time.monotonic() - t0
    assert worst <= 1e-12, f"worst oracle deviation {worst:.2e}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s (budget 1s)"
    report(1, f"200 cases, worst |diff| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_gradient_checks():
    from test_autodiff import build_conv_mse, build_soft_rollout
    from test_metanet import test_full_encoder_rollout_gradcheck_8x8

    t0 = time.monotonic()
    r1 = gradcheck(build_conv_mse, seed=3)
    assert r1.passed, f"conv+mse: {r1.max_rel_error:.2e}"
    r2 = gradcheck(build_soft_rollout, seed=3, step=1e-6)
    assert r2.passed, f"soft rollout s=100: {r2.max_rel_error:.2e}"
    test_full_encoder_rollout_gradcheck_8x8()
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s (budget 30s)"
    report(2, f"conv {r1.max_rel_error:.1e}, rollout {r2.max_rel_error:.1e}, "
              f"encoder toy pass, {elapsed:.1f}s")


def test_criterion_3_dynamics_invariants():
    rng = np.random.default_rng(12)
    t0 = time.monotonic()
    k = kernels.gaussian(5, sigma_x=1.5)
    cases = 0
    for _ in range(250):  # threshold monotonicity
        frame = (rng.random((12, 12)) > rng.uniform(0.3, 0.8)).astype(float)
        a1, a2 = sorted(rng.uniform(0.05, 0.95, size=2))
        assert np.all(step(frame, DynParams(k, a1)) >= step(frame, DynParams(k, a2)))
        cases += 1
    kd = kernels.disk(5, radius=1.8)
    for _ in range(250):  # set monotonicity
        a = (rng.random((12, 12)) > 0.7).astype(float)
        b = np.maximum(a, (rng.random((12, 12)) > 0.7).astype(float))
        params = DynParams(kd, float(rng.uniform(0.1, 0.9)))
        assert np.all(step(a, params) <= step(b, params))
        cases += 1
    # expansion / shrinkage of a radius-10 disk over 3 steps
    frame = disk_frame(64, 10)
    kg = kernels.gaussian(15, sigma_x=2.0)
    for a, sign in ((0.2, +1), (0.6, -1)):
        counts = [measure(frame)]
        cur = frame
        for _ in range(3):
            cur = step(cur, DynParams(kg, a))
            counts.append(measure(cur))
        deltas = np.diff(counts) * sign
        assert np.all(deltas > 0), f"a={a}: counts {counts}"
    # half-plane quasi-stationarity
    half = np.zeros((64, 64))
    half[:, :32] = 1.0
    out = step(half, DynParams(kg, 0.5))
    np.testing.assert_array_equal(out[2:-2, 2:-2], half[2:-2, 2:-2])
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s (budget 10s)"
    report(3, f"{cases} randomized + growth/shrink/half-plane, {elapsed:.1f}s")


def test_criterion_4_metric_unit_cases():
    from thresholdyn.metrics import jaccard, relative_mse, ssim

    rng = np.random.default_rng(13)
    x = rng.random((9, 9))
    assert abs(ssim(x, x) - 1.0) <= 1e-12
    xb = (x > 0.5).astype(float)
    assert jaccard(xb, xb) == 1.0
    video = np.stack([x, x])
    assert relative_mse(video, video) == 0.0
    # derived closed forms
    c1 = 1e-4
    got = ssim(np.zeros((10, 10)), np.ones((10, 10)))
    assert abs(got - c1 / (1.0 + c1)) <= 1e-12
    block = np.zeros((6, 6))
    block[2:4, 2:4] = 1.0
    assert abs(jaccard(block, np.roll(block, 1, axis=1)) - 1.0 / 3.0) <= 1e-12
    truth = np.zeros((1, 4, 4))
    truth[0, 0, :4] = 1.0
    pred = truth.copy()
    pred[0, 0, 0] = 0.0
    assert abs(relative_mse(pred, truth) - 1.0 / (4.0 + 1e-8)) <= 1e-12
    report(4, "identities + three closed forms at 1e-12")


def test_criterion_5_method1_recovery(method1_runs):
    run = method1_runs["none"]
    rep, res = run["report"], run["result"]
    assert rep.jaccard >= 0.97, f"jaccard {rep.jaccard:.4f}"
    assert rep.ssim >= 0.95, f"ssim {rep.ssim:.4f}"
    assert 0.15 <= res.threshold <= 0.25, f"recovered a {res.threshold:.4f}"
    assert run["seconds"] < 300, f"{run['seconds']:.0f}s (budget 5min)"
    report(5, f"J {rep.jaccard:.2%}, SSIM {rep.ssim:.3f}, a {res.threshold:.3f}, "
              f"{run['seconds']:.0f}s")


def test_criterion_6_noise_robustness_ordering(method1_runs):
    j = {noise: method1_runs[noise]["report"].jaccard for noise in method1_runs}
    assert j["none"] >= j["blur"] >= j["saltpepper"], j
    assert j["saltpepper"] >= 0.75, f"salt-pepper jaccard {j['saltpepper']:.4f}"
    total = sum(run["seconds"] for run in method1_runs.values())
    assert total < 900, f"{total:.0f}s (budget 15min)"
    report(6, "jaccard " + " >= ".join(f"{j[n]:.2%} ({n})" for n in ("none", "blur", "saltpepper")))


def test_criterion_7_one_video_training():
    t0 = time.monotonic()
    dataset = build_dataset(desk_spec("none", videos=6, n_test=5))
    assert len(dataset.train_samples) == 1
    config = TrainConfig(epochs=2000, kernel_size=15, seed=0)
    result, rep = train_and_eval(dataset, config)
    elapsed = time.monotonic() - t0
    assert rep.jaccard >= 0.93, f"jaccard {rep.jaccard:.4f}"
    assert abs(result.threshold - 0.2) <= 0.07, f"recovered a {result.threshold:.4f}"
    assert elapsed < 300, f"{elapsed:.0f}s (budget 5min)"
    report(7, f"J {rep.jaccard:.2%}, a {result.threshold:.3f}, {elapsed:.0f}s")


def test_criterion_8_kernel_size_robustness(method1_runs):
    t0 = time.monotonic()
    dataset = build_dataset(desk_spec("none"))
    j = {15: method1_runs["none"]["report"].jaccard}
    for declared in (9, 25):
        config = TrainConfig(epochs=300, kernel_size=declared, seed=0)
        result, rep = train_and_eval(dataset, config)
        assert np.isfinite(result.history[-1])
        j[declared] = rep.jaccard
    elapsed = time.monotonic() - t0
    assert j[25] >= j[15] - 0.015, f"overestimated {j[25]:.4f} vs exact {j[15]:.4f}"
    assert j[9] < j[15], f"underestimated {j[9]:.4f} not worse than exact {j[15]:.4f}"
    assert elapsed < 900, f"{elapsed:.0f}s (budget 15min)"
    report(8, f"J: under(9) {j[9]:.2%} < exact(15) {j[15]:.2%}, over(25) {j[25]:.2%} "
              f"within 1.5pp, +{elapsed:.0f}s")


def test_criterion_9_meta_learning():
    t0 = time.monotonic()
    spec = DatasetSpec(frame_size=48, n_frames=7, kernel_size=15,
                       thresholds=(0.2, 0.3, 0.5, 0.6), n_combos=10,
                       videos_per_combo=10, noise="none", master_seed=100)
    dataset = build_dataset(spec)
    config = TrainConfig(epochs=300, warmup_epochs=300, lr=1e-4, threshold_lr=0.1,
                         encoder_lr=2e-3, kernel_size=15, seed=0, batch_size=10)
    result = metanet.train(dataset.train_samples, config)
    preds, truths, encoded = [], [], []
    for sample in dataset.test_samples:
        _, a, video = metanet.predict(result.model, sample.noisy[:4], 6)
        preds.append(video)
        truths.append(sample.clean)
        encoded.append((sample.meta.threshold, a))
    rep = evaluate(preds, truths, frame_range=(2, 7))
    elapsed = time.monotonic() - t0
    assert rep.jaccard >= 0.85, f"held-out jaccard {rep.jaccard:.4f}"
    high = [(true, got) for true, got in encoded if true == 0.6]
    assert high, "no held-out 0.6-combo videos in the test split"
    for true, got in high:
        assert abs(got - true) <= 0.07, f"encoded a {got:.4f} for true 0.6"
    assert elapsed < 1800, f"{elapsed:.0f}s (budget 30min)"
    report(9, f"held-out J {rep.jaccard:.2%}, 0.6-combo a "
              + ", ".join(f"{got:.3f}" for _, got in high) + f", {elapsed:.0f}s")


def test_criterion_10_averaging_effect():
    t0 = time.monotonic()
    lo = build_dataset(DatasetSpec(frame_size=64, n_frames=7, kernel_size=15,
                                   thresholds=(0.2,), families=("gaussian",), n_combos=1,
                                   videos_per_combo=10, n_test=0, master_seed=42))
    hi = build_dataset(DatasetSpec(frame_size=64, n_frames=7, kernel_size=15,
                                   thresholds=(0.6,), families=("gaussian",), n_combos=1,
                                   videos_per_combo=10, n_test=0, master_seed=42))
    np.testing.assert_array_equal(lo.combos[0].kernel.grid, hi.combos[0].kernel.grid)
    config = TrainConfig(epochs=300, kernel_size=15, seed=0, lr=1e-5)
    result = mbonet.train(lo.samples + hi.samples, config)
    elapsed = time.monotonic() - t0
    assert 0.25 < result.threshold < 0.55, f"learned a {result.threshold:.4f}"
    assert result.history[-1] < result.history[0]
    assert elapsed < 300, f"{elapsed:.0f}s (budget 5min)"
    report(10, f"mixed 0.2/0.6 training -> a {result.threshold:.3f}, {elapsed:.0f}s")


def test_criterion_11_preprocessing_fixtures(tmp_path):
    from test_ingest import _blob_frame, _ring_frame
    from thresholdyn.ingest import fire_preprocess, ice_preprocess, load_frame, save_frame

    t0 = time.monotonic()
    fire = fire_preprocess([_blob_frame(48, r) for r in (5, 8, 11, 14)])
    for t in range(len(fire) - 1):
        assert np.all(fire[t] <= fire[t + 1])
    ice = ice_preprocess([_ring_frame(48, r)[0] for r in (16, 12, 8)])
    counts = [measure(f) for f in ice]
    assert counts[0] > counts[1] > counts[2]
    rng = np.random.default_rng(14)
    grid = rng.random((12, 12))
    save_frame(grid, tmp_path / "rt.pgm")
    once = load_frame(tmp_path / "rt.pgm")
    save_frame(once, tmp_path / "rt2.pgm")
    assert (tmp_path / "rt.pgm").read_bytes() == (tmp_path / "rt2.pgm").read_bytes()
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f}s (budget 5s)"
    report(11, f"fire chain, ice counts {counts}, PGM bit-exact, {elapsed:.1f}s")


def test_criterion_12_determinism(tmp_path):
    import json

    from thresholdyn.cli import main

    config = {
        "dataset": {"frame_size": 24, "n_frames": 5, "kernel_size": 5,
                     "thresholds": [0.3], "families": ["gaussian"], "n_combos": 1,
                     "videos_per_combo": 3, "n_test": 1, "noise": "saltpepper",
                     "master_seed": 7},
        "model": {"kind": "mbo", "kernel_size": 5},
        "train": {"epochs": 5, "seed": 2},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))

    def tree(root):
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    for stage in ("gen", "train"):
        outs = []
        for rep_dir in ("a", "b"):
            out = tmp_path / f"{stage}_{rep_dir}"
            if stage == "gen":
                rc = main(["--threads", "1", "gen", "--config", str(cfg), "--out", str(out)])
            else:
                rc = main(["--threads", "1", "train", "--config", str(cfg),
                           "--dataset", str(tmp_path / "gen_a"), "--out", str(out)])
            assert rc == 0
            outs.append(tree(out))
        assert outs[0] == outs[1], f"{stage} reruns differ"
    report(12, "gen and train reruns byte-identical under --threads 1")

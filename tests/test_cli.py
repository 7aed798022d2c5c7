"""End-to-end command surface: gen -> train -> predict -> eval, plus config
validation and byte-level determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from thresholdyn.cli import (
    ConfigError,
    _dataset_spec,
    _train_config,
    load_config,
    load_dataset,
    main,
    parse_frame_range,
    resolve_config,
    save_dataset,
)


def tiny_config(tmp_path, **overrides):
    config = {
        "dataset": {
            "frame_size": 24,
            "n_frames": 5,
            "kernel_size": 5,
            "thresholds": [0.3],
            "families": ["gaussian"],
            "n_combos": 1,
            "videos_per_combo": 3,
            "n_test": 1,
            "noise": "none",
            "master_seed": 5,
        },
        "model": {"kind": "mbo", "kernel_size": 5, "layers": 3},
        "train": {"epochs": 5, "seed": 1},
    }
    for section, values in overrides.items():
        config.setdefault(section, {}).update(values)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def read_tree(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_resolve_config_fills_defaults_and_rejects_unknown():
    resolved = resolve_config({"train": {"epochs": 7}})
    assert resolved["train"]["epochs"] == 7
    assert resolved["dataset"]["frame_size"] == 64
    with pytest.raises(ConfigError, match="unknown keys"):
        resolve_config({"train": {"epoch": 7}})
    with pytest.raises(ConfigError, match="sections"):
        resolve_config({"training": {}})
    with pytest.raises(ConfigError, match="kind"):
        resolve_config({"model": {"kind": "transformer"}})


def test_resolve_config_defaults_are_pinned():
    # the [train] and [model] defaults come from TrainConfig and MetaEncoder;
    # these literals keep a change to those dataclasses from moving them
    # silently
    resolved = resolve_config({})
    assert resolved["train"] == {
        "epochs": 500, "lr": 1e-4, "threshold_lr": 0.1, "encoder_lr": 1e-3,
        "warmup_epochs": 0, "batch_size": 0, "seed": 0,
    }
    assert resolved["model"] == {
        "kind": "mbo", "kernel_size": 31, "steepness": 100.0, "layers": 3,
        "channels": [16, 32, 32],
    }


@pytest.mark.parametrize("section", ["eval", "io"])
def test_sections_no_command_reads_are_unknown(section):
    with pytest.raises(ConfigError, match="unknown config sections"):
        resolve_config({section: {}})


@pytest.mark.parametrize("raw, needle", [
    ({"train": {"epochs": True}}, "[train] 'epochs' is True, expected int"),
    ({"model": {"steepness": "100"}}, "[model] 'steepness'"),
    ({"model": {"channels": [16, 32]}}, "[model] 'channels'"),
    ({"dataset": {"n_test": 1.5}}, "[dataset] 'n_test'"),
    ({"dataset": {"families": ["gaussian", 3]}}, "[dataset] 'families'"),
    ({"preprocess": {"ice_mask": {"hue_lo": 1.0}}}, "[preprocess] 'ice_mask'"),
    ({"preprocess": {"fire_mask": {"hue_lo": 1, "hue_hi": 2, "val_hi": None}}},
     "[preprocess] 'fire_mask'"),
    ({"train": 5}, "[train] is not a JSON object"),
    ({"model": {"steepness": float("inf")}}, "[model] 'steepness' is inf, expected float"),
    ({"dataset": {"blur_sigma": float("nan")}}, "[dataset] 'blur_sigma' is nan"),
    ({"model": {"kind": "transformer"}}, "[model] 'kind' is 'transformer', expected 'mbo' or 'meta'"),
], ids=["bool-for-int", "string-for-float", "two-channels", "float-for-int",
        "family-not-a-string", "mask-without-hue-hi", "mask-value-null", "section-not-an-object",
        "infinite-float", "nan-float", "unknown-kind"])
def test_resolve_config_rejects_values_of_the_wrong_type(raw, needle):
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert needle in str(err.value)


def test_resolve_config_accepts_the_types_the_dataclasses_declare():
    resolved = resolve_config({
        "dataset": {"n_combos": None, "n_test": 2, "thresholds": [1, 0.5]},
        "model": {"steepness": 80, "channels": [4, 8, 8]},
        "preprocess": {"fire_mask": {"hue_lo": 10, "hue_hi": 40.0, "val_lo": 0.2},
                       "ice_mask": None},
    })
    assert resolved["model"]["steepness"] == 80
    assert resolved["preprocess"]["fire_mask"]["val_lo"] == 0.2


@pytest.mark.parametrize("recipe", sorted(Path(__file__).parents[1].glob("recipes/*.json")),
                         ids=lambda p: p.stem)
def test_every_recipe_loads(recipe):
    config = load_config(recipe)
    spec = _dataset_spec(config["dataset"])
    train = _train_config(config)
    assert spec.kernel_size == config["dataset"]["kernel_size"]
    assert (train.epochs, train.kernel_size) == (config["train"]["epochs"],
                                                 config["model"]["kernel_size"])


def test_parse_frame_range():
    assert parse_frame_range("2-7") == (2, 7)
    assert parse_frame_range("5") == (5, 5)
    assert parse_frame_range(None) is None
    assert parse_frame_range("all") is None
    with pytest.raises(ValueError):
        parse_frame_range("x-y")


def test_gen_writes_dataset_and_manifest(tmp_path):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "data"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["videos"]) == 3
    assert (out / "videos/vid_0000/clean/frame_0001.pgm").exists()
    assert (out / "config.resolved.json").exists()
    splits = [v["split"] for v in manifest["videos"]]
    assert splits.count("train") == 2 and splits.count("test") == 1


def test_gen_deterministic_bytes(tmp_path):
    cfg = tiny_config(tmp_path)
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["--threads", "1", "gen", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["--threads", "1", "gen", "--config", str(cfg), "--out", str(out2)]) == 0
    assert read_tree(out1) == read_tree(out2)


def test_dataset_roundtrip_preserves_split_and_meta(tmp_path):
    from thresholdyn.datagen import DatasetSpec, build_dataset

    spec = DatasetSpec(frame_size=16, n_frames=4, kernel_size=5, thresholds=(0.2, 0.6),
                       families=("gaussian", "disk"), n_combos=2, videos_per_combo=2,
                       noise="saltpepper", master_seed=9)
    ds = build_dataset(spec)
    save_dataset(ds, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert loaded.train_indices == ds.train_indices
    assert loaded.test_indices == ds.test_indices
    for a, b in zip(ds.samples, loaded.samples):
        np.testing.assert_array_equal(a.clean, b.clean)  # binary: quantization-exact
        np.testing.assert_array_equal(a.noisy, b.noisy)  # salt-pepper stays binary
        assert a.meta == b.meta


def test_full_pipeline_train_predict_eval(tmp_path):
    cfg = tiny_config(tmp_path)
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["gen", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["train", "--config", str(cfg), "--dataset", str(data),
                 "--out", str(run)]) == 0
    assert (run / "checkpoint/manifest.json").exists()
    loss_lines = (run / "loss.csv").read_text().strip().splitlines()
    assert loss_lines[0] == "epoch,loss" and len(loss_lines) == 6

    manifest = json.loads((data / "manifest.json").read_text())
    test_video = next(v for v in manifest["videos"] if v["split"] == "test")
    frames_dir = data / test_video["path"] / "noisy"
    pred = tmp_path / "pred"
    assert main(["predict", "--checkpoint", str(run / "checkpoint"),
                 "--frames", str(frames_dir), "--steps", "4", "--out", str(pred)]) == 0
    assert (pred / "frame_0005.pgm").exists()

    report_dir = tmp_path / "report"
    truth_dir = data / test_video["path"] / "clean"
    assert main(["eval", "--pred", str(pred), "--truth", str(truth_dir),
                 "--frames", "2-5", "--out", str(report_dir)]) == 0
    report = json.loads((report_dir / "report.json").read_text())
    assert 0.0 <= report["jaccard"] <= 1.0
    assert "Jaccard" in (report_dir / "report.txt").read_text()


def test_train_deterministic_checkpoint_bytes(tmp_path):
    cfg = tiny_config(tmp_path)
    data = tmp_path / "data"
    main(["gen", "--config", str(cfg), "--out", str(data)])
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["--threads", "1", "train", "--config", str(cfg),
                 "--dataset", str(data), "--out", str(r1)]) == 0
    assert main(["--threads", "1", "train", "--config", str(cfg),
                 "--dataset", str(data), "--out", str(r2)]) == 0
    assert read_tree(r1) == read_tree(r2)


def test_train_meta_smoke(tmp_path):
    cfg = tiny_config(
        tmp_path,
        model={"kind": "meta", "kernel_size": 5, "channels": [4, 6, 6]},
        train={"epochs": 3, "seed": 0},
    )
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["gen", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["train", "--config", str(cfg), "--dataset", str(data),
                 "--out", str(run)]) == 0
    manifest = json.loads((run / "checkpoint/manifest.json").read_text())
    assert manifest["kind"] == "meta"

    test_dir = next((data / "videos").iterdir()) / "noisy"
    pred = tmp_path / "pred"
    assert main(["predict", "--checkpoint", str(run / "checkpoint"),
                 "--frames", str(test_dir), "--steps", "6", "--out", str(pred)]) == 0
    assert (pred / "kernel.pgm").exists()
    assert (pred / "kernel.bin").exists()
    params = json.loads((pred / "params.json").read_text())
    assert 0.0 < params["threshold"] < 1.0
    assert (pred / "frame_0007.pgm").exists()


def test_predict_missing_checkpoint_errors(tmp_path, capsys):
    rc = main(["predict", "--checkpoint", str(tmp_path / "nope"),
               "--frames", str(tmp_path), "--steps", "2", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_eval_misaligned_errors(tmp_path, capsys):
    from thresholdyn.ingest import save_video

    a = np.zeros((3, 8, 8))
    save_video(a, tmp_path / "pred/v1")
    save_video(a, tmp_path / "truth/v1")
    save_video(a, tmp_path / "truth/v2")
    rc = main(["eval", "--pred", str(tmp_path / "pred"),
               "--truth", str(tmp_path / "truth"), "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "v2" in capsys.readouterr().err


def test_eval_mixed_sizes_names_video(tmp_path, capsys):
    from thresholdyn.ingest import save_video

    save_video(np.zeros((3, 8, 8)), tmp_path / "pred/v1")
    save_video(np.zeros((3, 6, 6)), tmp_path / "truth/v1")
    rc = main(["eval", "--pred", str(tmp_path / "pred"),
               "--truth", str(tmp_path / "truth"), "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "v1" in capsys.readouterr().err


def test_unknown_config_key_fails_before_work(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dataset": {"frame_sz": 10}}))
    rc = main(["gen", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "frame_sz" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _single_error(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


@pytest.mark.parametrize("command, section, values, needle", [
    ("gen", "dataset", {"thresholds": "0.2"}, "[dataset] 'thresholds'"),
    ("gen", "dataset", {"frame_size": "64"}, "[dataset] 'frame_size'"),
    ("gen", "dataset", {"thresholds": [0.2, "x"]}, "[dataset] 'thresholds'"),
    ("train", "train", {"epochs": "3"}, "[train] 'epochs'"),
    ("train", "train", {"epochs": True}, "[train] 'epochs'"),
    ("train", "model", {"steepness": float("inf")}, "[model] 'steepness' is inf"),
    ("preprocess", "preprocess", {"blur_size": "5"}, "[preprocess] 'blur_size'"),
    ("preprocess", "preprocess", {"fire_mask": {"bogus": 1}}, "[preprocess] 'fire_mask'"),
    ("gen", "dataset", {"frame_size": 0}, "[dataset] 'frame_size' is 0"),
    ("train", "model", {"layers": 0}, "[model] 'layers' is 0"),
    ("train", "train", {"batch_size": -1}, "[train] 'batch_size' is -1"),
    ("gen", "dataset", {"kernel_size": -1}, "[dataset] 'kernel_size' is -1"),
    ("train", "model", {"kernel_size": -3}, "[model] 'kernel_size' is -3"),
    ("gen", "dataset", {"n_combos": 2, "thresholds": []}, "thresholds and families must each"),
    ("gen", "dataset", {"n_combos": 2, "families": []}, "thresholds and families must each"),
    ("gen", "dataset", {"train_fraction": 1.5}, "train_fraction must lie in [0, 1], got 1.5"),
    ("gen", "dataset", {"n_test": -2}, "n_test must be >= 0, got -2"),
    ("train", "model", {"kind": "meta", "channels": [0, 4, 4]}, "[model] 'channels' is [0, 4, 4]"),
    ("train", "model", {"kind": "meta", "channels": [-2, 4, 4]},
     "[model] 'channels' is [-2, 4, 4]"),
], ids=["gen-thresholds-string", "gen-frame-size-string", "gen-threshold-not-a-number",
        "train-epochs-string", "train-epochs-bool", "train-steepness-infinite",
        "preprocess-blur-size-string",
        "preprocess-unknown-mask-key", "gen-frame-size-zero", "train-layers-zero",
        "train-batch-size-negative", "gen-kernel-size-negative", "train-kernel-size-negative",
        "gen-no-thresholds", "gen-no-families", "gen-train-fraction-above-one",
        "gen-n-test-negative", "train-meta-channel-zero", "train-meta-channel-negative"])
def test_config_value_of_the_wrong_type_errors(tmp_path, capsys, command, section, values,
                                               needle):
    cfg = str(tiny_config(tmp_path, **{section: values}))
    out = str(tmp_path / "out")
    argv = {
        "gen": ["gen", "--config", cfg, "--out", out],
        "train": ["train", "--config", cfg, "--dataset", str(tmp_path / "none"), "--out", out],
        "preprocess": ["preprocess", "--kind", "fire", "--input", str(tmp_path), "--config", cfg,
                       "--out", out],
    }[command]
    assert main(argv) == 1
    assert needle in _single_error(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("shape, edit, needle", [
    ((3, 8, 8), lambda m: {k: v for k, v in m.items() if k != "n_frames"}, "has no 'n_frames'"),
    ((3, 8, 8), lambda m: {**m, "n_frames": True}, "'n_frames' is True"),
    ((3, 8, 8), lambda m: {**m, "height": "8"}, "'height' is '8'"),
    ((3, 8, 8), lambda m: {**m, "width": 0}, "'width' is 0"),
    ((3, 8, 8), lambda m: {**m, "width": 9}, "frame_0001.pgm"),
    ((3, 8, 8), lambda m: [m], "not a JSON object"),
    ((1, 0, 0), lambda m: m, "'height' is 0"),  # 0x0 frames, as save_video writes them
], ids=["no-n-frames", "bool-n-frames", "height-string", "zero-width", "width-not-the-frames",
        "not-an-object", "empty-frames"])
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_malformed_video_manifest_errors(tmp_path, capsys, command, shape, edit, needle):
    from thresholdyn.ingest import save_video

    video = save_video(np.zeros(shape), tmp_path / "video")
    path = video / "manifest.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    out = str(tmp_path / "out")
    argv = {
        "eval": ["eval", "--pred", str(video), "--truth", str(video), "--out", out],
        "predict": ["predict", "--checkpoint", str(_mbo_checkpoint(tmp_path)),
                    "--frames", str(video), "--steps", "2", "--out", out],
    }[command]
    assert main(argv) == 1
    assert needle in _single_error(capsys)


def test_preprocess_fire_cli(tmp_path):
    from thresholdyn.ingest import RgbImage, save_frame

    raw = tmp_path / "raw"
    raw.mkdir()
    for i, radius in enumerate((4, 7, 10), start=1):
        img = np.zeros((32, 32, 3), dtype=np.uint8)
        img[:] = (10, 30, 10)
        yy, xx = np.indices((32, 32))
        img[(yy - 16) ** 2 + (xx - 16) ** 2 <= radius**2] = (255, 140, 0)
        save_frame(RgbImage(img), raw / f"day_{i}.ppm")
    out = tmp_path / "processed"
    assert main(["preprocess", "--kind", "fire", "--input", str(raw), "--out", str(out)]) == 0
    from thresholdyn.ingest import load_video

    video = load_video(out)
    counts = video.sum(axis=(1, 2))
    assert counts[0] < counts[1] < counts[2]


# ---- malformed dataset manifests and checkpoints: one `error:` line, exit 1 ----


def _edit_first_entry(manifest, **fields):
    return {**manifest, "videos": [{**manifest["videos"][0], **fields}] + manifest["videos"][1:]}


@pytest.mark.parametrize("edit, needle", [
    (lambda m: {"format_version": 1}, "'spec'"),
    (lambda m: {**m, "videos": [{k: v for k, v in m["videos"][0].items() if k != "path"}]},
     "'path'"),
    (lambda m: {k: v for k, v in m.items() if k != "master_seed"}, "'master_seed'"),
    (lambda m: {**m, "spec": {**m["spec"], "frame_sz": 8}}, "frame_sz"),
    (lambda m: {**m, "videos": [1]}, "video entry 0"),
    (lambda m: [1], "not a JSON object"),
    (lambda m: _edit_first_entry(m, path=5), "'path'"),
    (lambda m: _edit_first_entry(m, id="0"), "'id'"),
    (lambda m: _edit_first_entry(m, split="validation"), "'split'"),
    (lambda m: {**m, "spec": {**m["spec"], "thresholds": 0.3}}, "'thresholds'"),
    (lambda m: {**m, "spec": {**m["spec"], "families": "gaussian"}}, "'families'"),
    (lambda m: {**m, "spec": {**m["spec"], "frame_size": "24"}}, "'frame_size'"),
    (lambda m: {**m, "spec": {**m["spec"], "thresholds": [0.3, "x"]}}, "'thresholds'"),
    (lambda m: {**m, "spec": {**m["spec"], "n_frames": False}}, "'n_frames'"),
    (lambda m: _edit_first_entry(m, threshold="0.3"), "'threshold'"),
    (lambda m: _edit_first_entry(m, combo=True), "'combo'"),
    (lambda m: _edit_first_entry(m, threshold=float("nan")), "'threshold' is nan"),
    (lambda m: {**m, "spec": {**m["spec"], "blur_sigma": float("inf")}}, "'blur_sigma' is inf"),
    (lambda m: {**m, "spec": {**m["spec"], "families": []}}, "thresholds and families"),
    (lambda m: {**m, "videos": [{**v, "id": v["id"] + 5} for v in m["videos"]]},
     "manifest.json: dataset manifest video entry 0 'id' is 5"),
    (lambda m: _edit_first_entry(m, id=1), "video entry 1 'id' is 1"),
], ids=["no-spec", "entry-without-path", "no-master-seed", "unknown-spec-key",
        "entry-not-an-object", "not-an-object", "path-not-a-string", "id-not-an-integer",
        "unknown-split", "thresholds-not-a-list", "families-not-a-list",
        "spec-frame-size-string", "spec-threshold-not-a-number", "spec-n-frames-bool",
        "label-threshold-string", "label-combo-bool", "label-threshold-nan",
        "spec-blur-sigma-infinite", "spec-families-empty", "ids-shifted", "id-twice"])
def test_train_malformed_dataset_manifest_errors(tmp_path, capsys, edit, needle):
    cfg = tiny_config(tmp_path)
    data = tmp_path / "data"
    assert main(["gen", "--config", str(cfg), "--out", str(data)]) == 0
    path = data / "manifest.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()
    rc = main(["train", "--config", str(cfg), "--dataset", str(data),
               "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: ") and needle in err[0], err


def _predict_errors(tmp_path, capsys, checkpoint) -> str:
    from thresholdyn.ingest import save_video

    frames = tmp_path / "frames"
    save_video(np.zeros((4, 8, 8)), frames)
    rc = main(["predict", "--checkpoint", str(checkpoint), "--frames", str(frames),
               "--steps", "2", "--out", str(tmp_path / "pred")])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def _edit_manifest(checkpoint: Path, edit) -> None:
    path = checkpoint / "manifest.json"
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _mbo_checkpoint(tmp_path) -> Path:
    from thresholdyn.mbonet import MboModel, save_checkpoint

    return save_checkpoint(MboModel.initialize(5), tmp_path / "ckpt")


def _meta_checkpoint(tmp_path) -> Path:
    from thresholdyn.metanet import MetaEncoder, MetaModel, save_checkpoint

    encoder = MetaEncoder.initialize(5, channels=(2, 3, 3))
    return save_checkpoint(MetaModel(encoder=encoder), tmp_path / "ckpt")


@pytest.mark.parametrize("field", ["kernel_size", "raw_threshold", "s", "layers"])
def test_predict_mbo_manifest_missing_field_errors(tmp_path, capsys, field):
    ckpt = _mbo_checkpoint(tmp_path)
    _edit_manifest(ckpt, lambda d: d.pop(field))
    assert repr(field) in _predict_errors(tmp_path, capsys, ckpt)


@pytest.mark.parametrize("field,value", [
    ("kernel_size", 4), ("kernel_size", "5"), ("raw_threshold", None), ("s", -1.0),
    ("layers", 0), ("layers", True), ("raw_threshold", float("nan")), ("s", float("inf")),
])
def test_predict_mbo_manifest_bad_field_errors(tmp_path, capsys, field, value):
    ckpt = _mbo_checkpoint(tmp_path)
    _edit_manifest(ckpt, lambda d: d.update({field: value}))
    assert repr(field) in _predict_errors(tmp_path, capsys, ckpt)


def test_predict_checkpoint_manifest_not_an_object_errors(tmp_path, capsys):
    ckpt = _mbo_checkpoint(tmp_path)
    (ckpt / "manifest.json").write_text("[1, 2]")
    assert "checkpoint manifest is not a JSON object" in _predict_errors(tmp_path, capsys, ckpt)


@pytest.mark.parametrize("make", [_mbo_checkpoint, _meta_checkpoint])
def test_predict_nan_payload_errors(tmp_path, capsys, make):
    ckpt = make(tmp_path)
    payload = next(ckpt.glob("*.bin"))
    values = np.frombuffer(payload.read_bytes(), dtype="<f8").copy()
    values[1] = np.nan
    payload.write_bytes(values.tobytes())
    assert "non-finite" in _predict_errors(tmp_path, capsys, ckpt)


@pytest.mark.parametrize("kind", ["config", "dataset manifest", "video manifest",
                                  "checkpoint manifest"])
def test_json_that_does_not_parse_names_its_file(tmp_path, capsys, kind):
    cfg = tiny_config(tmp_path)
    data, out = tmp_path / "data", str(tmp_path / "out")
    assert main(["gen", "--config", str(cfg), "--out", str(data)]) == 0
    video = data / "videos/vid_0000/clean"
    ckpt = _mbo_checkpoint(tmp_path)
    path, argv = {
        "config": (cfg, ["gen", "--config", str(cfg), "--out", out]),
        "dataset manifest": (data / "manifest.json",
                             ["train", "--config", str(cfg), "--dataset", str(data), "--out", out]),
        "video manifest": (video / "manifest.json",
                           ["eval", "--pred", str(video), "--truth", str(video), "--out", out]),
        "checkpoint manifest": (ckpt / "manifest.json",
                                ["predict", "--checkpoint", str(ckpt), "--frames", str(video),
                                 "--steps", "2", "--out", out]),
    }[kind]
    path.write_text("{")
    capsys.readouterr()
    assert main(argv) == 1
    assert f"error: {path}: {kind} is not valid JSON" in _single_error(capsys)


def _shape_of(name, shape):
    def edit(data):
        next(t for t in data["tensors"] if t["name"] == name)["shape"] = shape
    return edit


@pytest.mark.parametrize("edit,needle", [
    (_shape_of("conv2_w", [3, 3, 3, 3]), "conv2_w"),                 # wrong shape
    (lambda d: d["tensors"].pop(0), "do not match"),                 # missing tensor
    (lambda d: d["tensors"][0].update(name="conv9_w"), "do not match"),  # unknown name
    (lambda d: d.update(channels=[2, 3]), "do not match"),           # channels disagree
    (lambda d: d.update(kernel_size=7), "head_k_b"),                 # kernel_size disagrees
    (lambda d: d.pop("channels"), "'channels'"),
    (lambda d: d.update(tensors={"conv1_w": [2, 4, 3, 3]}), "'tensors'"),
])
def test_predict_meta_manifest_mismatch_errors(tmp_path, capsys, edit, needle):
    ckpt = _meta_checkpoint(tmp_path)
    _edit_manifest(ckpt, edit)
    assert needle in _predict_errors(tmp_path, capsys, ckpt)


# ---- --threads says when it cannot take effect ----


@pytest.mark.parametrize("preset,expected", [
    ({}, ["warning: --threads 1 has no effect: numpy is already loaded"]),
    ({"OMP_NUM_THREADS": "1"}, ["warning: --threads 1 has no effect: numpy is already loaded"]),
    # numpy was loaded under the requested count, so the flag holds
    ({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, []),
])
def test_threads_warns_when_numpy_is_loaded(tmp_path, capsys, monkeypatch, preset, expected):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in preset.items():
        monkeypatch.setenv(var, value)
    cfg = tiny_config(tmp_path)
    assert main(["--threads", "1", "gen", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
    assert warnings == expected


@pytest.mark.parametrize("preset,expected", [
    ({}, ""),
    ({"OMP_NUM_THREADS": "2"}, ""),
    ({"OPENBLAS_NUM_THREADS": "3"},
     "warning: --threads 2 does not override OPENBLAS_NUM_THREADS=3 from the environment"),
])
def test_threads_in_a_fresh_process(tmp_path, preset, expected):
    import os
    import subprocess
    import sys

    import thresholdyn

    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(preset)
    env["PYTHONPATH"] = str(Path(thresholdyn.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "thresholdyn.cli", "--threads", "2", "eval",
         "--pred", str(tmp_path / "none"), "--truth", str(tmp_path / "none"),
         "--out", str(tmp_path / "r")],
        env=env, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 1
    warnings = [line for line in proc.stderr.splitlines() if line.startswith("warning")]
    assert warnings == ([expected] if expected else [])

"""Command-line surface: dataset generation, training, prediction,
evaluation, preprocessing.

`train` trains the method the config's model.kind names: "mbo" (Method 1)
or "meta" (Method 2).  Every JSON file a command reads (config, dataset or
video manifest, checkpoint manifest) goes through `_records`, so a malformed
one fails with one `error:` line naming the file or the field.

All commands are reproducible: outputs are a pure function of (inputs,
resolved config, seed); manifests carry no timestamps so reruns are
byte-identical.  `--threads N` sets OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
MKL_NUM_THREADS to N where they are unset.  The numeric libraries read those
variables once, when numpy is first imported, so the flag only works on a
fresh process (the `thresholdyn` command, `python -m thresholdyn.cli`).  It
cannot take effect when `main()` runs in a process that has already imported
numpy (unless all three variables already hold N), or for a variable the
environment already sets to another value; a one-line warning on stderr then
says so.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import typing
from pathlib import Path

from ._records import check, hints, read_object

log = logging.getLogger("thresholdyn")

DATASET_MANIFEST_VERSION = 1

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# the TrainConfig fields a config sets in [model]; the rest go in [train]
_MODEL_FIELDS = ("kernel_size", "steepness", "layers")


class ConfigError(ValueError):
    """Invalid run configuration."""


def _field_defaults(cls) -> dict:
    """A dataclass's field defaults, tuples as lists; fields without a plain
    default are left out."""
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}


def _sections() -> dict:
    """Each section's defaults and the type hints of its keys, taken from
    the dataclasses it configures."""
    from .datagen import DatasetSpec
    from .ingest import PreprocessConfig
    from .mbonet import TrainConfig
    from .metanet import MetaEncoder

    train = _field_defaults(TrainConfig)
    model = {"kind": "mbo", **{k: train.pop(k) for k in _MODEL_FIELDS},
             **_field_defaults(MetaEncoder)}
    return {
        "dataset": (_field_defaults(DatasetSpec), hints(DatasetSpec)),
        "model": (model, {"kind": typing.Literal["mbo", "meta"], **hints(TrainConfig),
                          **hints(MetaEncoder)}),
        "train": (train, hints(TrainConfig)),
        "preprocess": (_field_defaults(PreprocessConfig), hints(PreprocessConfig)),
    }


def resolve_config(raw: dict) -> dict:
    """Validate a raw config document and fill defaults for every field."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    sections = _sections()
    unknown = set(raw) - set(sections)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    return {name: {**defaults, **check(raw.get(name, {}), {k: declared[k] for k in defaults},
                                       f"[{name}]", ConfigError, closed=True)}
            for name, (defaults, declared) in sections.items()}


def load_config(path) -> dict:
    return resolve_config(read_object(path, "config", ConfigError))


def _write_resolved(config: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.resolved.json").write_text(
        json.dumps(config, indent=2, sort_keys=True) + "\n"
    )


def _dataset_spec(section: dict):
    """A DatasetSpec from a [dataset] section or a manifest's spec: lists
    (thresholds, families) become tuples."""
    from .datagen import DatasetSpec

    return DatasetSpec(**{k: tuple(v) if isinstance(v, list) else v for k, v in section.items()})


def _train_config(config: dict):
    from .mbonet import TrainConfig

    return TrainConfig(**{
        f.name: config["model" if f.name in _MODEL_FIELDS else "train"][f.name]
        for f in dataclasses.fields(TrainConfig)
    })


# ---- dataset persistence ----


def save_dataset(dataset, out_dir) -> Path:
    from .ingest import save_video

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = dataset.spec
    split = {i: "train" for i in dataset.train_indices}
    split.update({i: "test" for i in dataset.test_indices})
    videos = []
    for i, sample in enumerate(dataset.samples):
        rel = f"videos/vid_{i:04d}"
        save_video(sample.clean, out_dir / rel / "clean", binary=True, provenance="synthetic")
        save_video(sample.noisy, out_dir / rel / "noisy",
                   binary=bool(spec.noise != "blur"), provenance=f"noise={spec.noise}")
        videos.append(
            {
                "id": i,
                "path": rel,
                "split": split[i],
                "combo": sample.meta.combo,
                "video": sample.meta.video,
                "family": sample.meta.family,
                "threshold": sample.meta.threshold,
                "noise": sample.meta.noise,
            }
        )
    manifest = {
        "format_version": DATASET_MANIFEST_VERSION,
        "master_seed": spec.master_seed,
        "spec": {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in vars(spec).items()
        },
        "combos": [
            {"index": c.index, "family": c.family, "threshold": c.threshold}
            for c in dataset.combos
        ],
        "videos": videos,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return out_dir


def load_dataset(directory):
    """Rebuild a Dataset (with quantized noisy frames) from disk.  A
    malformed manifest raises IngestError naming the field at fault."""
    from .datagen import Dataset, DatasetSpec, SampleMeta, VideoSample, make_combos
    from .ingest import IngestError, load_video

    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    where = f"{manifest_path}: dataset manifest"
    manifest = read_object(manifest_path, "dataset manifest", IngestError)
    if manifest.get("format_version") != DATASET_MANIFEST_VERSION:
        raise IngestError(f"{directory}: unsupported dataset format")
    check(manifest, {"spec": dict, "videos": list, "master_seed": int}, where, IngestError,
          required=("spec", "videos", "master_seed"))
    check(manifest["spec"], hints(DatasetSpec), f"{where} 'spec'", IngestError,
          closed=True)
    spec = _dataset_spec(manifest["spec"])
    # an entry is a video's place in the split plus its SampleMeta labels
    labels = hints(SampleMeta)
    del labels["seed"]
    entry_hints = {"id": int, "path": str, "split": typing.Literal["train", "test"], **labels}
    videos, n = manifest["videos"], len(manifest["videos"])
    seen = set()
    for i, entry in enumerate(videos):
        check(entry, entry_hints, f"{where} video entry {i}", IngestError, required=entry_hints)
        if not 0 <= entry["id"] < n or entry["id"] in seen:
            raise IngestError(f"{where} video entry {i} 'id' is {entry['id']}, expected each "
                              f"of 0..{n - 1} once")
        seen.add(entry["id"])
    combos = make_combos(spec)
    samples, train_idx, test_idx = [], [], []
    for entry in sorted(videos, key=lambda e: e["id"]):
        clean = load_video(directory / entry["path"] / "clean")
        noisy = load_video(directory / entry["path"] / "noisy")
        meta = SampleMeta(
            family=entry["family"],
            threshold=entry["threshold"],
            noise=entry["noise"],
            combo=entry["combo"],
            video=entry["video"],
            seed=manifest["master_seed"],
        )
        samples.append(VideoSample(clean=clean, noisy=noisy, meta=meta))
        (train_idx if entry["split"] == "train" else test_idx).append(entry["id"])
    return Dataset(spec=spec, combos=combos, samples=samples,
                   train_indices=train_idx, test_indices=test_idx)


# ---- commands ----


def cmd_gen(config: dict, out_dir: Path) -> int:
    from .datagen import build_dataset

    spec = _dataset_spec(config["dataset"])
    log.info("generating dataset: %d combos x %d videos", spec.combo_count, spec.videos_per_combo)
    dataset = build_dataset(spec)
    save_dataset(dataset, out_dir)
    _write_resolved(config, out_dir)
    print(f"wrote {len(dataset.samples)} videos "
          f"({len(dataset.train_indices)} train / {len(dataset.test_indices)} test) to {out_dir}")
    return 0


def _write_loss_csv(history, path: Path) -> None:
    lines = ["epoch,loss"] + [f"{i},{v!r}" for i, v in enumerate(history)]
    path.write_text("\n".join(lines) + "\n")


def cmd_train(config: dict, dataset_dir, out_dir: Path) -> int:
    """Train Method 1 or Method 2, as the config's model.kind names."""
    from . import mbonet, metanet
    from .mbonet import TrainingDiverged

    dataset = load_dataset(dataset_dir)
    train_cfg = _train_config(config)
    samples = dataset.train_samples
    meta = config["model"]["kind"] == "meta"
    log.info("training %s on %d videos for %d epochs",
             "metanet" if meta else "mbonet", len(samples), train_cfg.epochs)
    try:
        if meta:
            result = metanet.train(samples, train_cfg,
                                   channels=tuple(config["model"]["channels"]))
            save = metanet.save_checkpoint
        else:
            result = mbonet.train(samples, train_cfg)
            save = mbonet.save_checkpoint
    except TrainingDiverged as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    save(result.model, out_dir / "checkpoint")
    _write_loss_csv(result.history, out_dir / "loss.csv")
    _write_resolved(config, out_dir)
    print(f"final loss {result.history[-1]:.6g} after {len(result.history)} epochs; "
          f"checkpoint at {out_dir / 'checkpoint'}")
    return 0


def _load_any_checkpoint(path: Path):
    from . import mbonet, metanet

    kind = read_object(path / "manifest.json", "checkpoint manifest", ValueError).get("kind")
    if kind == "mbo":
        return mbonet.load_checkpoint(path), "mbo"
    if kind == "meta":
        return metanet.load_checkpoint(path), "meta"
    raise ValueError(f"{path}: unknown checkpoint kind {kind!r}")


def cmd_predict(checkpoint, frames_dir, n_steps: int, out_dir: Path) -> int:
    import numpy as np

    from . import mbonet, metanet
    from .ingest import load_video, save_frame, save_video

    model, kind = _load_any_checkpoint(Path(checkpoint))
    video_in = load_video(frames_dir)
    if kind == "mbo":
        video = mbonet.predict(model, video_in[0], n_steps)
    else:
        kernel, threshold, video = metanet.predict(model, video_in, n_steps)
        grid = kernel.grid
        lo, hi = grid.min(), grid.max()
        viewable = (grid - lo) / (hi - lo) if hi > lo else np.zeros_like(grid)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_frame(viewable, out_dir / "kernel.pgm")
        (out_dir / "kernel.bin").write_bytes(
            np.ascontiguousarray(grid, dtype="<f8").tobytes()
        )
        (out_dir / "params.json").write_text(
            json.dumps({"threshold": threshold, "kernel_size": grid.shape[0]},
                       indent=2, sort_keys=True)
        )
    save_video(video, out_dir, provenance=f"predicted kind={kind} steps={n_steps}")
    print(f"wrote {video.shape[0]} frames to {out_dir}")
    return 0


def _collect_videos(directory: Path):
    """Map of video name -> frames; a directory that is itself a video (has a
    manifest at top level) yields the single key 'video'."""
    from .ingest import load_video

    if (directory / "manifest.json").exists():
        return {"video": load_video(directory)}
    subdirs = sorted(d for d in directory.iterdir() if (d / "manifest.json").exists())
    if not subdirs:
        raise ValueError(f"{directory}: no videos found")
    return {d.name: load_video(d) for d in subdirs}


def parse_frame_range(text) -> tuple[int, int] | None:
    if text in (None, "", "all"):
        return None
    lo, _, hi = str(text).partition("-")
    try:
        return (int(lo), int(hi or lo))
    except ValueError as err:
        raise ValueError(f"bad frame range {text!r}; expected e.g. '2-7'") from err


def cmd_eval(pred_dir, truth_dir, frame_range, out_dir: Path) -> int:
    from .metrics import evaluate

    preds = _collect_videos(Path(pred_dir))
    truths = _collect_videos(Path(truth_dir))
    if sorted(preds) != sorted(truths):
        missing = sorted(set(preds) ^ set(truths))
        raise ValueError(f"prediction/truth directories misaligned; offending videos: {missing}")
    names = sorted(preds)
    for name in names:
        if preds[name].shape != truths[name].shape:
            raise ValueError(
                f"video {name!r}: prediction {preds[name].shape} vs truth {truths[name].shape}"
            )
    report = evaluate([preds[n] for n in names], [truths[n] for n in names],
                      frame_range=parse_frame_range(frame_range))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_json() + "\n")
    (out_dir / "report.txt").write_text(report.to_table() + "\n")
    print(report.to_table())
    return 0


def cmd_preprocess(kind: str, input_dir, config: dict, out_dir: Path) -> int:
    from .ingest import (
        FIRE_DEFAULT_MASK,
        ICE_RED_MASK,
        HsvMask,
        RgbImage,
        fire_preprocess,
        ice_preprocess,
        load_frame,
        save_video,
    )

    input_dir = Path(input_dir)
    paths = sorted(
        p for p in input_dir.iterdir() if p.suffix.lower() in (".ppm", ".png", ".pgm")
    )
    if not paths:
        raise ValueError(f"{input_dir}: no input frames (.ppm/.png)")
    frames = []
    for p in paths:
        img = load_frame(p)
        if not isinstance(img, RgbImage):
            raise ValueError(f"{p}: preprocessing needs color input")
        frames.append(img)
    section = config["preprocess"]

    def mask_from(data, default):
        return HsvMask(**data) if data else default

    if kind == "fire":
        video = fire_preprocess(frames, mask=mask_from(section["fire_mask"], FIRE_DEFAULT_MASK),
                                blur_size=section["blur_size"], blur_sigma=section["blur_sigma"])
    elif kind == "ice":
        video = ice_preprocess(frames, red_mask=mask_from(section["ice_mask"], ICE_RED_MASK))
    else:
        raise ValueError(f"unknown preprocess kind {kind!r}")
    save_video(video, out_dir, binary=True, provenance=f"preprocess kind={kind}")
    _write_resolved(config, out_dir)
    print(f"wrote {video.shape[0]} binary frames to {out_dir}")
    return 0


# ---- entry point ----


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thresholdyn",
        description="Simulate threshold dynamics and recover kernels/thresholds from videos.",
    )
    parser.add_argument("--threads", type=int, default=None,
                        help="numeric library threads (1 = deterministic reference path)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("train", help="train the config's model.kind on a generated dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("predict", help="roll a trained model forward")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--frames", required=True, help="input video directory")
    p.add_argument("--steps", type=int, default=6)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--frames", default=None, help="1-indexed inclusive range, e.g. 2-7")
    p.add_argument("--out", required=True)

    p = sub.add_parser("preprocess", help="convert raw color frames to binary videos")
    p.add_argument("--kind", choices=("fire", "ice"), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    return parser


def _threads_warning(threads: int) -> str | None:
    """The warning for a ``--threads`` value this process cannot apply, if any."""
    want = str(threads)
    if "numpy" in sys.modules:
        if all(os.environ.get(var) == want for var in _THREAD_VARS):
            return None  # the environment already asks for this count
        return f"warning: --threads {threads} has no effect: numpy is already loaded"
    held = [f"{var}={os.environ[var]}" for var in _THREAD_VARS
            if os.environ.get(var, want) != want]
    if held:
        return (f"warning: --threads {threads} does not override {', '.join(held)} "
                "from the environment")
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be >= 1", file=sys.stderr)
            return 2
        warning = _threads_warning(args.threads)
        if warning:
            print(warning, file=sys.stderr)
        for var in _THREAD_VARS:
            os.environ.setdefault(var, str(args.threads))
    logging.basicConfig(
        level=os.environ.get("THRESHOLDYN_LOG", "WARNING").upper(),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    from .ingest import IngestError  # deferred so --threads precedes numpy import

    try:
        if args.command == "gen":
            config = load_config(args.config)
            if args.seed is not None:
                config["dataset"]["master_seed"] = args.seed
            return cmd_gen(config, Path(args.out))
        if args.command == "train":
            config = load_config(args.config)
            if args.seed is not None:
                config["train"]["seed"] = args.seed
            return cmd_train(config, args.dataset, Path(args.out))
        if args.command == "predict":
            return cmd_predict(args.checkpoint, args.frames, args.steps, Path(args.out))
        if args.command == "eval":
            return cmd_eval(args.pred, args.truth, args.frames, Path(args.out))
        if args.command == "preprocess":
            config = resolve_config({}) if args.config is None else load_config(args.config)
            return cmd_preprocess(args.kind, args.input, config, Path(args.out))
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, ValueError, OSError, IngestError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Fast self-check of the benchmark at tiny sizes (about 15 seconds).

    python3 perfbench/selfcheck.py

For every workload, untraced and traced, it asserts that the result line
carries exactly the metrics BENCHMARK.json declares, each with its declared
unit, that the workload's named metrics are all reported, that the traced run
reaches the layers the workload exercises, and that a corrupted prediction
raises the failed-operation count.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from thresholdyn import mbonet, metanet  # noqa: E402

TRAINING_NAMED = ("train_samples_per_s", "train_step_ms.p50", "train_step.count", "final_loss",
                  "first_epoch_loss")
EXERCISED = {
    "mbo-paper": ("autodiff.conv2d_same.calls", "optim.step.calls", "mbonet.predict_s",
                  "dynamics.step.calls", "metrics.frames_scored"),
    "meta-desk": ("autodiff.conv_layer.calls", "autodiff.dense.calls", "metanet.encode_s",
                  "metanet.train.backward_s", "optim.step.calls"),
    "cli-data": ("datagen.videos", "ingest.frames_written", "ingest.bytes_read",
                 "cli.gen.self_s", "dynamics.step.calls", "grid.direct.macs"),
}


def declared_units():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


@contextlib.contextmanager
def corrupted_predictions():
    """Every prediction either model makes gets one gray pixel in frame 1."""
    mbo_predict, meta_predict = mbonet.predict, metanet.predict

    def spoil(video):
        video = video.copy()
        video[1, 0, 0] = 0.5
        return video

    def bad_mbo(*args, **kwargs):
        return spoil(mbo_predict(*args, **kwargs))

    def bad_meta(*args, **kwargs):
        kernel, threshold, video = meta_predict(*args, **kwargs)
        return kernel, threshold, spoil(video)

    mbonet.predict, metanet.predict = bad_mbo, bad_meta
    try:
        yield
    finally:
        mbonet.predict, metanet.predict = mbo_predict, meta_predict


def check_result(result: dict, units: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert set(result["metrics"]) == set(units), set(result["metrics"]) ^ set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name], (name, metric["unit"], units[name])
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)


def main() -> int:
    workloads.SETUP_REPS = 1  # set-up timing is not under test here
    e2e_units, layer_units = declared_units()
    for name in workloads.WORKLOADS:
        info, result = workloads.run(name, seed=5, seconds=0.01, trace=False, sizes=workloads.TINY)
        check_result(result, e2e_units)
        assert result["correct"] and result["failed"] == 0, info["failures"]
        named = set(info["named"])
        assert set(workloads.NAMED_UNITS) <= named, named
        assert {"ops_attempted", "ops_failed"} <= named, named
        if name != "cli-data":
            assert set(TRAINING_NAMED) <= named, named
        assert all(m["unit"] for m in info["named"].values())

        info, result = workloads.run(name, seed=5, seconds=0.01, trace=True, sizes=workloads.TINY)
        check_result(result, layer_units)
        assert result["correct"], info["failures"]
        for metric in EXERCISED[name]:
            assert result["metrics"][metric]["value"] > 0, (name, metric)

        with corrupted_predictions():
            info, result = workloads.run(name, seed=5, seconds=0.01, trace=False,
                                         sizes=workloads.TINY)
        assert result["failed"] > 0 and not result["correct"], (name, result["failed"])
        print(f"{name}: ok ({len(e2e_units)} end-to-end and {len(layer_units)} per-layer "
              f"metrics; a corrupted prediction gave failed={result['failed']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

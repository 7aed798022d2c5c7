"""The thresholdyn benchmark workloads, run in one process per workload.

Start it through ``run.py``, which pins the BLAS/OpenMP thread count in this
process's environment before numpy loads:

    python3 perfbench/run.py --workload mbo-paper --seed 1 --seconds 30 --trace 0

A run sets up its inputs from the seed several times (setup_s is the median),
then repeats the workload's cycle until ``--seconds`` have passed, checking
every output.  It prints one ``{"info": ...}`` line with every named metric
and the run metadata, then the result line.  With ``--trace 1`` the first half
of the time runs untraced and the second half under ``tracing.Tracer``; the
result line then carries the per-layer metrics, per cycle.  NOTES.md says why
each workload exists and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "thresholdyn" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program source at {SRC / 'thresholdyn'}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from thresholdyn import autodiff, cli, datagen, grid, mbonet, metanet, metrics  # noqa: E402
from thresholdyn.mbonet import TrainConfig  # noqa: E402
from tracing import Patcher, Tracer  # noqa: E402

SETUP_REPS = 3
THRESHOLDS = (0.2, 0.3, 0.5, 0.6)
FAMILIES = ("gaussian", "skewed_gaussian", "double_gaussian", "raster", "disk")
IMPORT_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import thresholdyn.cli, "
                "thresholdyn.mbonet, thresholdyn.metanet, thresholdyn.metrics")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORK_DIR = ROOT / ".bench_work"
# The result line's metrics (BENCHMARK.json end_to_end); every other named
# metric goes to the info line.
E2E_UNITS = {"setup_s": "s", "cycle_s": "s", "peak_rss_mb": "MB", "heldout_jaccard": "fraction"}
NAMED_UNITS = {**E2E_UNITS, "gen_videos_per_s": "1/s", "predict_videos_per_s": "1/s",
               "eval_videos_per_s": "1/s"}


# ---- sizes ----


@dataclass(frozen=True)
class MboSize:
    frame_size: int = 64
    kernel_size: int = 31
    threshold: float = 0.2
    n_train: int = 100
    n_heldout: int = 10
    n_frames: int = 7
    epochs: int = 12
    layers: int = 3


@dataclass(frozen=True)
class MetaSize:
    """The recipes/meta_desk.json geometry at a fixed, shorter epoch count."""

    frame_size: int = 48
    kernel_size: int = 15
    n_combos: int = 10
    n_train: int = 90  # 9 per combo, as in the recipe
    n_heldout: int = 60  # 6 per combo; the recipe holds out 1
    n_frames: int = 7
    channels: tuple[int, int, int] = (16, 32, 32)
    batch_size: int = 15
    epochs: int = 4
    layers: int = 3
    lr: float = 1e-4
    threshold_lr: float = 0.1
    encoder_lr: float = 0.0015


@dataclass(frozen=True)
class CliSize:
    frame_size: int = 64
    kernel_size: int = 31
    batches: int = 10
    videos_per_batch: int = 20  # one video per (family, threshold) pair
    n_frames: int = 7


FULL = {"mbo-paper": MboSize(), "meta-desk": MetaSize(), "cli-data": CliSize()}
TINY = {
    "mbo-paper": MboSize(frame_size=16, kernel_size=5, n_train=4, n_heldout=2, epochs=3),
    "meta-desk": MetaSize(frame_size=16, kernel_size=5, n_combos=2, n_train=4, n_heldout=2,
                          channels=(2, 2, 2), batch_size=2, epochs=2),
    "cli-data": CliSize(frame_size=16, kernel_size=5, batches=2, videos_per_batch=4),
}


# ---- measurement ----


class Samples:
    """Timings, quality values and pass/fail counts of one measured phase."""

    def __init__(self):
        self.times = defaultdict(list)
        self.values = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


@contextlib.contextmanager
def timed(samples: Samples, key: str):
    start = time.perf_counter()
    yield
    samples.times[key].append(time.perf_counter() - start)


class StepProbe:
    """Optimizer-step boundaries and losses during one train() call: a step
    starts when the trainer makes its Tape and ends when the next starts (or
    train returns); ``backward`` hands over the loss.  Two clock reads per
    step, so the untraced run keeps this on."""

    def __init__(self):
        self.starts = []
        self.losses = []
        self._patcher = Patcher()

    def _init(self, fn):
        def wrapper(tape, *args, **kwargs):
            self.starts.append(time.perf_counter())
            fn(tape, *args, **kwargs)

        return wrapper

    def _backward(self, fn):
        def wrapper(tape, loss):
            self.losses.append(float(loss.value))
            return fn(tape, loss)

        return wrapper

    def __enter__(self):
        self._patcher.wrap(autodiff.Tape, "__init__", self._init)
        self._patcher.wrap(autodiff.Tape, "backward", self._backward)
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self._patcher.restore()
        return False

    def step_times(self) -> list[float]:
        edges = self.starts + [self.end]
        return [b - a for a, b in zip(edges, edges[1:])]


# ---- workloads ----


class TrainingWorkload:
    """Shared cycle of the two training workloads: regenerate each held-out
    video (which must come out bit-identical), train from a fresh model for a
    fixed epoch count, then predict and score each held-out video."""

    gen_batch = 1  # gen samples time one video each

    def __init__(self, seed: int, size):
        self.seed = seed
        self.size = size
        self.reference_history = None

    def setup(self) -> None:
        self.data = datagen.build_dataset(self.spec)
        self.train_samples = self.data.train_samples
        self.heldout = self.data.test_samples

    def cycle(self, samples: Samples) -> None:
        size = self.size
        per_combo = self.spec.videos_per_combo
        start = time.perf_counter()
        for index, sample in zip(self.data.test_indices, self.heldout):
            with timed(samples, "gen"):
                again = datagen.generate_sample(self.spec, self.data.combos[index // per_combo],
                                                index % per_combo)
            samples.check(np.array_equal(again.clean, sample.clean)
                          and np.array_equal(again.noisy, sample.noisy),
                          f"regenerating video {index} did not reproduce it")
        train_start = time.perf_counter()
        with StepProbe() as probe:
            history = self.train()
        samples.times["train"].append(probe.end - train_start)
        samples.times["step"].extend(probe.step_times())
        samples.values["train_videos"].append(len(self.train_samples) * size.epochs)
        for loss in probe.losses:
            samples.check(math.isfinite(loss), f"training step loss {loss}")
        samples.check(history[-1] < history[0],
                      f"final loss {history[-1]} not below first epoch loss {history[0]}")
        if self.reference_history is None:
            self.reference_history = history
        samples.check(history == self.reference_history,
                      "a repeated training run did not reproduce its loss history")
        samples.values["final_loss"].append(history[-1])
        samples.values["first_loss"].append(history[0])

        jaccards = []
        for sample in self.heldout:
            with timed(samples, "predict"):
                video = self.predict(sample)
            samples.check(grid.is_binary(video) and np.array_equal(video[0], sample.noisy[0]),
                          "prediction not binary or its frame 0 differs from the input")
            with timed(samples, "eval"):
                report = metrics.evaluate([video], [sample.clean], frame_range=(2, size.n_frames))
            jaccards.append(report.jaccard)
        samples.values["heldout_jaccard"].append(float(np.mean(jaccards)))
        samples.times["cycle"].append(time.perf_counter() - start)


class MboPaper(TrainingWorkload):
    """Method 1 at paper geometry: every tape conv takes the FFT path."""

    def __init__(self, seed: int, size: MboSize):
        super().__init__(seed, size)
        self.spec = datagen.DatasetSpec(
            frame_size=size.frame_size, n_frames=size.n_frames, kernel_size=size.kernel_size,
            thresholds=(size.threshold,), families=("gaussian",), n_combos=1,
            videos_per_combo=size.n_train + size.n_heldout, n_test=size.n_heldout,
            master_seed=seed,
        )

    def train(self) -> list[float]:
        s = self.size
        config = TrainConfig(epochs=s.epochs, kernel_size=s.kernel_size, layers=s.layers,
                             seed=self.seed)
        self.result = mbonet.train(self.train_samples, config)
        return self.result.history

    def predict(self, sample):
        return mbonet.predict(self.result.model, sample.noisy[0], self.size.n_frames - 1)


class MetaDesk(TrainingWorkload):
    """Method 2 at the desk recipe geometry, kernel-mass bias frozen."""

    def __init__(self, seed: int, size: MetaSize):
        super().__init__(seed, size)
        self.spec = datagen.DatasetSpec(
            frame_size=size.frame_size, n_frames=size.n_frames, kernel_size=size.kernel_size,
            thresholds=THRESHOLDS, n_combos=size.n_combos,
            videos_per_combo=(size.n_train + size.n_heldout) // size.n_combos,
            n_test=size.n_heldout, master_seed=seed,
        )

    def train(self) -> list[float]:
        s = self.size
        config = TrainConfig(epochs=s.epochs, lr=s.lr, threshold_lr=s.threshold_lr,
                             encoder_lr=s.encoder_lr, warmup_epochs=s.epochs,
                             batch_size=s.batch_size, kernel_size=s.kernel_size,
                             layers=s.layers, seed=self.seed)
        self.result = metanet.train(self.train_samples, config, channels=s.channels)
        return self.result.history

    def predict(self, sample):
        _, _, video = metanet.predict(self.result.model, sample.noisy, self.size.n_frames - 1)
        return video


def exact_raw_threshold(a: float) -> float:
    """A raw (pre-sigmoid) threshold the checkpoint maps back to exactly ``a``.

    The plain logit does not always round-trip: expit(logit(0.3)) is
    0.30000000000000004, and disk kernels put convolution values exactly on
    0.3, so that checkpoint flips those tie pixels.  A neighbouring float of
    the logit usually maps back exactly."""
    raw = up = down = math.log(a / (1.0 - a))
    for _ in range(16):
        for candidate in (raw, up, down):
            if mbonet.MboModel(raw_kernel=np.zeros((1, 1)), raw_threshold=candidate).threshold == a:
                return float(candidate)
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
    raise ValueError(f"no raw threshold maps back to exactly {a}")


class CliData:
    """The user's data path through ``cli.main``: gen, then predict and eval
    per video from a checkpoint holding that video's generating dynamics.
    One cycle is one batch of videos; the cycles walk the batches in turn."""

    def __init__(self, seed: int, size: CliSize):
        self.seed = seed
        self.size = size
        self.work = WORK_DIR / f"cli-data-{os.getpid()}"
        self.next_batch = 0
        self.gen_batch = size.videos_per_batch  # gen samples time one gen command

    def _dataset(self, batch: int) -> dict:
        s = self.size
        return {
            "frame_size": s.frame_size, "n_frames": s.n_frames, "kernel_size": s.kernel_size,
            "thresholds": list(THRESHOLDS), "families": list(FAMILIES),
            "n_combos": s.videos_per_batch, "videos_per_combo": 1, "noise": "blur",
            "master_seed": self.seed * 1000 + batch,
        }

    def setup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        for batch in range(self.size.batches):
            dataset = self._dataset(batch)
            batch_dir = self.work / f"batch_{batch:02d}"
            batch_dir.mkdir(parents=True)
            (batch_dir / "gen.json").write_text(json.dumps({"dataset": dataset}))
            spec = datagen.DatasetSpec(**{k: tuple(v) if isinstance(v, list) else v
                                          for k, v in dataset.items()})
            # videos_per_combo is 1, so video i was made by combo i
            for combo in datagen.make_combos(spec):
                model = mbonet.MboModel(raw_kernel=combo.kernel.grid.copy(),
                                        raw_threshold=exact_raw_threshold(combo.threshold))
                mbonet.save_checkpoint(model, batch_dir / "ckpt" / f"vid_{combo.index:04d}")

    def _cli(self, *argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([str(a) for a in argv])

    def cycle(self, samples: Samples) -> None:
        s = self.size
        batch = self.next_batch
        self.next_batch = (batch + 1) % s.batches
        batch_dir = self.work / f"batch_{batch:02d}"
        data, preds, reports = batch_dir / "data", batch_dir / "pred", batch_dir / "report"
        for stale in (data, preds, reports):
            shutil.rmtree(stale, ignore_errors=True)
        videos = [f"vid_{i:04d}" for i in range(s.videos_per_batch)]

        start = time.perf_counter()
        with timed(samples, "gen"):
            rc = self._cli("gen", "--config", batch_dir / "gen.json", "--out", data)
        samples.check(rc == 0 and all((data / "videos" / v / "clean").is_dir() for v in videos),
                      f"gen of batch {batch} failed (exit {rc})")
        for v in videos:
            with timed(samples, "predict"):
                rc = self._cli("predict", "--checkpoint", batch_dir / "ckpt" / v,
                               "--frames", data / "videos" / v / "clean",
                               "--steps", s.n_frames - 1, "--out", preds / v)
            samples.check(rc == 0, f"predict of batch {batch} {v} failed (exit {rc})")
        jaccards = []
        for v in videos:
            with timed(samples, "eval"):
                rc = self._cli("eval", "--pred", preds / v,
                               "--truth", data / "videos" / v / "clean", "--out", reports / v)
            report = json.loads((reports / v / "report.json").read_text()) if rc == 0 else {}
            jaccards.append(report.get("jaccard", 0.0))
            # every frame, frame 0 (the input) included, must equal the clean video
            samples.check(report.get("jaccard") == 1.0 and report.get("relative_mse") == 0.0,
                          f"prediction of batch {batch} {v} does not reproduce its clean video")
        samples.values["heldout_jaccard"].append(float(np.mean(jaccards)))
        samples.times["cycle"].append(time.perf_counter() - start)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


WORKLOADS = {"mbo-paper": MboPaper, "meta-desk": MetaDesk, "cli-data": CliData}


# ---- running ----


def measure(workload, seconds: float) -> Samples:
    """Repeat whole cycles until ``seconds`` have passed (at least one)."""
    samples = Samples()
    start = time.perf_counter()
    cycles = 0
    while not cycles or time.perf_counter() - start < seconds:
        cycles += 1
        try:
            workload.cycle(samples)
        except Exception as err:  # a crash is a failed operation, reported with the rest
            traceback.print_exc(file=sys.stderr)
            samples.check(False, f"cycle raised {type(err).__name__}: {err}")
    return samples


def _median(values):
    return statistics.median(values) if values else float("nan")


def _high_percentile(values):
    """The highest of p99/p95/p90/p75 with at least ten samples above it."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, float(np.percentile(values, p))
    return None, None


def time_imports(samples: Samples) -> None:
    """Time fresh interpreters starting and importing the program: the part
    of set-up that cannot be repeated in this process."""
    for _ in range(SETUP_REPS):
        with timed(samples, "import"):
            subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True, timeout=120)


def end_to_end(workload, setup: Samples, run: Samples) -> dict:
    """The named metrics every workload has, by name (units in NAMED_UNITS)."""
    t = run.times
    return {
        "setup_s": _median(setup.times["import"]) + _median(setup.times["setup"]),
        "cycle_s": _median(t["cycle"]),
        "gen_videos_per_s": workload.gen_batch / _median(t["gen"]),
        "predict_videos_per_s": 1.0 / _median(t["predict"]),
        "eval_videos_per_s": 1.0 / _median(t["eval"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "heldout_jaccard": _median(run.values["heldout_jaccard"]),
    }


def named_metrics(workload, setup: Samples, run: Samples) -> dict:
    """Every named end-to-end metric that applies to the workload, with units."""
    out = {k: {"value": v, "unit": NAMED_UNITS[k]}
           for k, v in end_to_end(workload, setup, run).items()}
    steps = run.times["step"]
    if steps:
        rates = [n / s for n, s in zip(run.values["train_videos"], run.times["train"])]
        out["train_samples_per_s"] = {"value": _median(rates), "unit": "1/s"}
        out["train_step_ms.p50"] = {"value": 1000 * _median(steps), "unit": "ms"}
        p, value = _high_percentile(steps)
        if p is not None:
            out[f"train_step_ms.p{p}"] = {"value": 1000 * value, "unit": "ms"}
        out["train_step.count"] = {"value": len(steps), "unit": "count"}
        out["final_loss"] = {"value": run.values["final_loss"][-1], "unit": "loss"}
        out["first_epoch_loss"] = {"value": run.values["first_loss"][-1], "unit": "loss"}
    out["cycles"] = {"value": len(run.times["cycle"]), "unit": "count"}
    out["ops_attempted"] = {"value": run.attempted, "unit": "count"}
    out["ops_failed"] = {"value": run.failed, "unit": "count"}
    return out


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path``."""
    best, kind = "", "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/mountinfo").read_text().splitlines():
            fields = line.split()
            mount = fields[4]
            fs = fields[fields.index("-") + 1]
            inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, kind = mount, fs
    return kind


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _blas_version(config_fn) -> str:
    with contextlib.suppress(Exception):
        return config_fn(mode="dicts")["Build Dependencies"]["blas"]["version"]
    return "unknown"


def run_metadata(name: str, seed: int) -> dict:
    work_fs = _fs_type(WORK_DIR.parent)
    return {
        "workload": name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _blas_version(np.show_config),
        "scipy_openblas": _blas_version(scipy.show_config),
        "work_dir_fs": work_fs,
        "work_dir_ram_backed": work_fs in ("tmpfs", "ramfs") if name == "cli-data" else None,
    }


def run(name: str, seed: int, seconds: float, trace: bool, sizes=FULL) -> tuple[dict, dict]:
    """One workload run; returns (info, result) as printed."""
    workload = WORKLOADS[name](seed, sizes[name])
    try:
        setup = Samples()
        time_imports(setup)
        for _ in range(SETUP_REPS):
            with timed(setup, "setup"):
                workload.setup()
        info = {"meta": run_metadata(name, seed)}
        if not trace:
            measured = measure(workload, seconds)
            info["named"] = named_metrics(workload, setup, measured)
            metrics_out = {k: {"value": v, "unit": E2E_UNITS[k]}
                           for k, v in end_to_end(workload, setup, measured).items()
                           if k in E2E_UNITS}
        else:
            measured = measure(workload, seconds / 2)
            untraced = end_to_end(workload, setup, measured)
            info["named"] = named_metrics(workload, setup, measured)
            with Tracer() as tracer:
                traced_run = measure(workload, seconds / 2)
            traced = end_to_end(workload, setup, traced_run)
            info["trace_overhead"] = {k: traced[k] - untraced[k] for k in untraced}
            cycles = len(traced_run.times["cycle"])
            metrics_out = {k: {"value": v / cycles, "unit": unit}
                           for k, (v, unit) in tracer.layer_metrics().items()}
            self_s, total_s = tracer.top_level_unattributed()
            metrics_out["trace.unattributed_share"] = {
                "value": self_s / total_s if total_s else 0.0, "unit": "fraction"}
            metrics_out["trace.overhead_share"] = {
                "value": traced["cycle_s"] / untraced["cycle_s"] - 1.0, "unit": "fraction"}
            measured.attempted += traced_run.attempted
            measured.failed += traced_run.failed
            measured.failures += traced_run.failures
        info["failures"] = measured.failures
        result = {
            "correct": measured.failed == 0,
            "attempted": measured.attempted,
            "failed": measured.failed,
            "metrics": metrics_out,
        }
        return info, result
    finally:
        if hasattr(workload, "close"):
            workload.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

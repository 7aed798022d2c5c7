"""Outside-in tracing of thresholdyn for the traced benchmark run.

Nothing in ``src/`` is edited: each layer's entry points are wrapped from here
by replacing attributes on the program's modules and classes, and the
originals are put back when the ``Tracer`` context exits.  The wrapped names
are the ones callers look up at call time:

- ``Tape`` op methods (and the ``vjp`` closure on every node they return),
  ``Tape.backward`` and ``Tape._push`` (node count);
- ``step`` on every optimizer class in ``optim``;
- the convolution functions under the names ``autodiff``, ``mbonet``,
  ``dynamics`` and ``datagen`` bind (``_correlate``, ``_convolve``,
  ``_correlate_kernel``, ``conv2d_same``);
- ``train``/``predict``/``encode`` in the two model modules, ``dynamics.step``,
  the ``datagen`` generation steps, frame and video I/O in ``ingest``,
  ``metrics.evaluate`` and the ``cli`` command functions.

Spans form a stack, so each span's self time (its duration minus its direct
children) is known.  Totals stay in memory and are turned into per-layer
metrics by ``Tracer.layer_metrics``.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np
from scipy.fft import next_fast_len

from thresholdyn import (autodiff, cli, datagen, dynamics, grid, ingest, mbonet, metanet, metrics,
                         optim)

# Tape ops reported by name; every other public Tape method is reported as "other".
TAPE_OPS = ("conv2d_same", "conv_layer", "sigmoid_threshold", "mse_loss", "dense", "relu",
            "global_average_pool", "other")
TRAIN_MODULES = ("mbonet", "metanet")


class Patcher:
    """Replaces attributes and restores them in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr: str, make_wrapper) -> bool:
        if isinstance(owner, type):  # only the class's own attribute, not an inherited one
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            print(f"perfbench: {getattr(owner, '__name__', owner)}.{attr} not found; "
                  "its per-layer metrics read 0", file=sys.stderr)
            return False
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _planes(shape) -> int:
    return int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1


def _fft_points(x_shape, k_shape, out_shape, full_hw) -> int:
    """Points transformed by one scipy ``fftconvolve`` call: a real forward
    transform of each operand plane and an inverse transform of each output
    plane, every plane padded to ``next_fast_len`` of the full size."""
    plane = next_fast_len(full_hw[0], True) * next_fast_len(full_hw[1], True)
    return (_planes(x_shape) + _planes(k_shape) + _planes(out_shape)) * plane


class Tracer:
    """Records spans and counters while installed (use as a context manager)."""

    def __init__(self):
        self.total = defaultdict(float)   # span name -> seconds
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)     # counter name -> value
        self._stack = []                  # [name, start, children seconds]
        self._in_op = False
        self._train = None                # module whose train() is running
        self._patcher = Patcher()

    # ---- span bookkeeping ----

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> float:
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self.total[name] += duration
        self.self_time[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def span(self, name: str, fn, on_done=None):
        """Wrap ``fn`` in a span; ``on_done(args, kwargs, result)`` adds counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if on_done is not None:
                on_done(args, kwargs, result)
            return result

        return wrapper

    def _in_train(self, suffix: str, duration: float) -> None:
        if self._train is not None:
            self.total[f"{self._train}.train.{suffix}"] += duration

    # ---- autodiff ----

    def _tape_op(self, op: str, fn):
        @functools.wraps(fn)
        def wrapper(tape, *args, **kwargs):
            if self._in_op:  # leaves created inside an op belong to that op
                return fn(tape, *args, **kwargs)
            self._in_op = True
            self._enter(f"autodiff.{op}.fwd")
            try:
                node = fn(tape, *args, **kwargs)
            finally:
                self._in_op = False
                self._in_train("forward", self._exit())
            if isinstance(node, autodiff.Node) and node.vjp is not None:
                node.vjp = self.span(f"autodiff.{op}.vjp", node.vjp)
            return node

        return wrapper

    def _backward(self, fn):
        @functools.wraps(fn)
        def wrapper(tape, loss):
            self._enter("autodiff.backward")
            try:
                return fn(tape, loss)
            finally:
                self._in_train("backward", self._exit())

        return wrapper

    def _push(self, fn):
        @functools.wraps(fn)
        def wrapper(tape, node):
            self.count["autodiff.nodes"] += 1
            return fn(tape, node)

        return wrapper

    def _optim_step(self, fn):
        @functools.wraps(fn)
        def wrapper(opt, grads):
            self._enter("optim.step")
            try:
                return fn(opt, grads)
            finally:
                self._in_train("optim", self._exit())

        return wrapper

    def _train_span(self, module: str, fn):
        spanned = self.span(f"{module}.train", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer, self._train = self._train, module
            try:
                return spanned(*args, **kwargs)
            finally:
                self._train = outer

        return wrapper

    # ---- grid ----

    def _conv(self, fn, shapes):
        """``shapes(args, kwargs)`` -> (x shape, kernel shape, method, kind)."""
        on_fft, on_direct = self.span("grid.fft", fn), self.span("grid.direct", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            x_shape, k_shape, method, kind = shapes(args, kwargs)
            kh, kw = k_shape[-2:]
            h, w = x_shape[-2:]
            if grid._use_fft((kh, kw), method):
                spanned = on_fft
                if kind == "kernel_grad":  # "valid" correlation of padded x with g
                    full = (2 * h + kh - 2, 2 * w + kw - 2)
                    self.count["grid.fft.points"] += _fft_points(x_shape, x_shape, x_shape, full)
                else:
                    full = (h + kh - 1, w + kw - 1)
                    out = np.broadcast_shapes(x_shape[:-2], k_shape[:-2]) + (h, w)
                    self.count["grid.fft.points"] += _fft_points(x_shape, k_shape, out, full)
            else:
                spanned = on_direct
                self.count["grid.direct.macs"] += _planes(x_shape) * h * w * kh * kw
            return spanned(*args, **kwargs)

        return wrapper

    @staticmethod
    def _correlate_shapes(args, kwargs):
        x, kernel = args[0], args[1]
        method = kwargs.get("method", args[2] if len(args) > 2 else "auto")
        return np.shape(x), np.shape(kernel), method, "image"

    @staticmethod
    def _kernel_grad_shapes(args, kwargs):
        x, kernel_shape = args[0], args[2]
        method = kwargs.get("method", args[3] if len(args) > 3 else "auto")
        return np.shape(x), tuple(kernel_shape), method, "kernel_grad"

    # ---- counters on I/O and metrics ----

    def _frame_written(self, args, kwargs, result):
        self.count["ingest.frames_written"] += 1
        self.count["ingest.bytes_written"] += os.path.getsize(args[1])

    def _frame_read(self, args, kwargs, result):
        self.count["ingest.frames_read"] += 1
        self.count["ingest.bytes_read"] += os.path.getsize(args[0])

    def _scored(self, args, kwargs, result):
        frame_range = kwargs.get("frame_range", args[2] if len(args) > 2 else None)
        for video in args[0]:
            lo, hi = (1, np.shape(video)[0]) if frame_range is None else frame_range
            self.count["metrics.frames_scored"] += hi - lo + 1

    def _video_made(self, args, kwargs, result):
        self.count["datagen.videos"] += 1

    # ---- install ----

    def __enter__(self):
        p = self._patcher
        tape = autodiff.Tape
        for attr, value in list(vars(tape).items()):
            if callable(value) and not attr.startswith("_") and attr != "backward":
                op = attr if attr in TAPE_OPS else "other"
                p.wrap(tape, attr, functools.partial(self._tape_op, op))
        p.wrap(tape, "backward", self._backward)
        p.wrap(tape, "_push", self._push)
        for value in list(vars(optim).values()):
            if isinstance(value, type) and "step" in vars(value):
                p.wrap(value, "step", self._optim_step)

        for module in (autodiff, mbonet):
            p.wrap(module, "_correlate", lambda f: self._conv(f, self._correlate_shapes))
        p.wrap(autodiff, "_convolve", lambda f: self._conv(f, self._correlate_shapes))
        p.wrap(autodiff, "_correlate_kernel", lambda f: self._conv(f, self._kernel_grad_shapes))
        for module in (dynamics, datagen):
            p.wrap(module, "conv2d_same", lambda f: self._conv(f, self._correlate_shapes))

        for name, module in zip(TRAIN_MODULES, (mbonet, metanet)):
            p.wrap(module, "train", functools.partial(self._train_span, name))
            p.wrap(module, "predict", lambda f, n=name: self.span(f"{n}.predict", f))
        p.wrap(metanet, "encode", lambda f: self.span("metanet.encode", f))
        p.wrap(dynamics, "step", lambda f: self.span("dynamics.step", f))

        p.wrap(datagen, "sample_kernel", lambda f: self.span("datagen.sample_kernel", f))
        p.wrap(datagen, "generate_video", lambda f: self.span("datagen.generate_video", f))
        p.wrap(datagen, "_corrupt", lambda f: self.span("datagen.corrupt", f))
        p.wrap(datagen, "generate_sample",
               lambda f: self.span("datagen.generate_sample", f, self._video_made))

        p.wrap(ingest, "save_video", lambda f: self.span("ingest.save_video", f))
        p.wrap(ingest, "load_video", lambda f: self.span("ingest.load_video", f))
        p.wrap(ingest, "save_frame",
               lambda f: self.span("ingest.save_frame", f, self._frame_written))
        p.wrap(ingest, "load_frame",
               lambda f: self.span("ingest.load_frame", f, self._frame_read))
        p.wrap(metrics, "evaluate", lambda f: self.span("metrics.evaluate", f, self._scored))
        for command in ("gen", "predict", "eval"):
            p.wrap(cli, f"cmd_{command}", lambda f, c=command: self.span(f"cli.{command}", f))
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False

    # ---- results ----

    def top_level_unattributed(self) -> tuple[float, float]:
        """(self seconds, total seconds) of the workload's top-level spans: the
        train calls when there are any, else the CLI commands."""
        names = [f"{m}.train" for m in TRAIN_MODULES if self.calls[f"{m}.train"]]
        if not names:
            names = [f"cli.{c}" for c in ("gen", "predict", "eval")]
        return (sum(self.self_time[n] for n in names), sum(self.total[n] for n in names))

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit), totals over the
        traced interval."""
        t, c, n = self.total, self.calls, self.count
        out = {}
        for op in TAPE_OPS:
            out[f"autodiff.{op}.fwd_s"] = (t[f"autodiff.{op}.fwd"], "s")
            out[f"autodiff.{op}.vjp_s"] = (t[f"autodiff.{op}.vjp"], "s")
            out[f"autodiff.{op}.calls"] = (c[f"autodiff.{op}.fwd"], "count")
        out["autodiff.backward.self_s"] = (self.self_time["autodiff.backward"], "s")
        out["autodiff.nodes"] = (n["autodiff.nodes"], "count")
        for path in ("fft", "direct"):
            out[f"grid.{path}.calls"] = (c[f"grid.{path}"], "count")
            out[f"grid.{path}_s"] = (t[f"grid.{path}"], "s")
        out["grid.direct.macs"] = (n["grid.direct.macs"], "MAC_computed")
        out["grid.fft.points"] = (n["grid.fft.points"], "point_computed")
        out["optim.step.calls"] = (c["optim.step"], "count")
        out["optim.step_s"] = (t["optim.step"], "s")
        for module in TRAIN_MODULES:
            for part in ("forward", "backward", "optim"):
                out[f"{module}.train.{part}_s"] = (t[f"{module}.train.{part}"], "s")
            out[f"{module}.predict_s"] = (t[f"{module}.predict"], "s")
        out["metanet.encode_s"] = (t["metanet.encode"], "s")
        out["dynamics.step.calls"] = (c["dynamics.step"], "count")
        out["dynamics.step_s"] = (t["dynamics.step"], "s")
        for part in ("sample_kernel", "generate_video", "corrupt"):
            out[f"datagen.{part}_s"] = (t[f"datagen.{part}"], "s")
        out["datagen.videos"] = (n["datagen.videos"], "count")
        out["ingest.save_video_s"] = (t["ingest.save_video"], "s")
        out["ingest.load_video_s"] = (t["ingest.load_video"], "s")
        out["ingest.frames_written"] = (n["ingest.frames_written"], "count")
        out["ingest.frames_read"] = (n["ingest.frames_read"], "count")
        out["ingest.bytes_written"] = (n["ingest.bytes_written"], "B")
        out["ingest.bytes_read"] = (n["ingest.bytes_read"], "B")
        out["metrics.evaluate_s"] = (t["metrics.evaluate"], "s")
        out["metrics.frames_scored"] = (n["metrics.frames_scored"], "count")
        for command in ("gen", "predict", "eval"):
            out[f"cli.{command}.self_s"] = (self.self_time[f"cli.{command}"], "s")
        return out

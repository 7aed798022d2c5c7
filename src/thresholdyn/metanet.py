"""Meta-learning model: a trainable encoder maps a 4-frame video to a kernel
and threshold, which feed a parameter-free soft rollout of the first frame.

The encoder is a small CNN (stride-2 conv stack, an average pool over the
front's band, two dense heads).  The rollout stage is Method 1's
(`mbonet.rollout_graph`, with a kernel and threshold per video) and has no
weights of its own, so the total parameter count equals the encoder's.
Training runs Method 1's loop (`mbonet.fit`) over three parameter groups.
The kernel head's bias is initialized to a centered unit-sum gaussian, so
every encoded kernel starts with unit mass instead of a dead all-zero
dynamics.  The first kernels are not yet an average front evolution: at
step 0 the head's random weights add a per-pixel deviation to that bias
(L1 norm about 2.6 at k15, with about -1 of negative mass), which training
has to remove.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated

import numpy as np

from ._checkpoint import read_manifest, read_tensors, write_checkpoint
from ._records import PositiveFloat, PositiveInt, PositiveOddInt
from .autodiff import Node, Tape
from .datagen import make_rng
from .dynamics import DynParams, Video, rollout
from .kernels import Kernel, gaussian
from .mbonet import TrainConfig, fit, rollout_graph, stack

INPUT_FRAMES = 4


def _weight_shapes(kernel_size: int, channels) -> dict[str, tuple[int, ...]]:
    """The shape of every encoder tensor for this architecture."""
    shapes, cin = {}, INPUT_FRAMES
    for i, cout in enumerate(channels, start=1):
        shapes[f"conv{i}_w"] = (cout, cin, 3, 3)
        shapes[f"conv{i}_b"] = (cout,)
        cin = cout
    k2 = kernel_size * kernel_size
    shapes.update(head_k_w=(k2, cin), head_k_b=(k2,), head_a_w=(1, cin), head_a_b=(1,))
    return shapes


@dataclass
class MetaEncoder:
    """Conv stack (stride-2, relu) + front-band average pool + dense heads
    for the k*k kernel values and the (sigmoid-squashed) threshold."""

    kernel_size: PositiveOddInt
    channels: tuple[PositiveInt, PositiveInt, PositiveInt] = (16, 32, 32)
    weights: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    @classmethod
    def initialize(cls, kernel_size: int, seed: int = 0,
                   channels: tuple[int, int, int] = (16, 32, 32)) -> "MetaEncoder":
        """Uniform fan-in init; the kernel head's bias starts as a flattened
        unit-sum gaussian (sigma = k/6) and the threshold head's bias at 0."""
        if kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd")
        if any(c <= 0 for c in channels):
            raise ValueError(f"channels must be positive, got {tuple(channels)}")
        rng = make_rng(seed, 0xE0)
        enc = cls(kernel_size=kernel_size, channels=tuple(channels))
        for name, shape in _weight_shapes(kernel_size, enc.channels).items():
            if name == "head_k_b":
                gauss = gaussian(kernel_size, sigma_x=kernel_size / 6.0)
                enc.weights[name] = gauss.grid.reshape(-1).copy()
            elif name == "head_a_b":
                enc.weights[name] = np.zeros(shape)
            else:
                if name.endswith("_w"):  # a conv bias shares its weight's bound
                    bound = 1.0 / np.sqrt(np.prod(shape[1:]))
                enc.weights[name] = rng.uniform(-bound, bound, size=shape)
        return enc


@dataclass
class MetaModel:
    """Encoder plus the frozen-rollout hyperparameters."""

    encoder: MetaEncoder
    steepness: float = 100.0
    layers: int = 3


def _encoder_graph(tape: Tape, weights: dict[str, Node], frames: np.ndarray, k: int):
    """Batched encoder forward: frames (N,4,H,W) -> kernels (N,k,k), a (N,).

    The kernel head is a centered dense layer: the input-dependent part is
    projected to zero sum before the shared bias is added, so every emitted
    kernel carries the same (learnable) total mass.  Rescaling a kernel and
    threshold together leaves the rollout unchanged, and pinning the mass
    per video closes that loophole; thresholds must then explain threshold
    differences.

    The features are averaged over the front's band only (see
    `_front_pool_weights`).  A mean over the whole frame grows with the
    shape's perimeter, and the threshold head then reads a larger shape as a
    different threshold.
    """
    x = tape.leaf(frames)
    n_layers = sum(1 for name in weights if name.startswith("conv") and name.endswith("_w"))
    for i in range(1, n_layers + 1):
        x = tape.relu(tape.conv_layer(x, weights[f"conv{i}_w"], weights[f"conv{i}_b"], stride=2))
    pool = _front_pool_weights(frames, n_layers)
    feat = tape.global_average_pool(tape.mul(x, np.broadcast_to(pool[:, None], x.value.shape)))
    zero = tape.leaf(np.zeros(k * k))
    dev = tape.center(tape.dense(feat, weights["head_k_w"], zero))
    kflat = tape.add_bias(dev, weights["head_k_b"])
    kmat = tape.reshape(kflat, (frames.shape[0], k, k))
    a_raw = tape.dense(feat, weights["head_a_w"], weights["head_a_b"])
    a = tape.sigmoid(tape.reshape(a_raw, (frames.shape[0],)))
    return kmat, a


def _front_pool_weights(frames: np.ndarray, n_layers: int) -> np.ndarray:
    """Pooling weights (N,h,w) over the last feature map, with mean 1 per
    sample: uniform over the cells whose receptive field touches a pixel
    that changes across the input frames, or over every cell when nothing
    changes.  Under salt-and-pepper noise most pixels change, and the pool
    approaches the plain mean."""
    band = (frames != frames[:, :1]).any(axis=1).astype(np.float64)
    for _ in range(n_layers):  # the 3x3, stride-2, zero-padded conv geometry
        padded = np.pad(band, ((0, 0), (1, 1), (1, 1)))
        windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(1, 2))
        band = windows[:, ::2, ::2].max(axis=(-2, -1))
    band[band.sum(axis=(1, 2)) == 0] = 1.0
    return band / band.mean(axis=(1, 2), keepdims=True)


def _weight_nodes(tape: Tape, weights: dict[str, np.ndarray]) -> dict[str, Node]:
    return {name: tape.leaf(value, param=True, name=name) for name, value in weights.items()}


def encode(model: MetaModel, frames: Video) -> tuple[np.ndarray, float]:
    """Map one video's first four frames to (raw kernel grid, threshold)."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3 or frames.shape[0] < INPUT_FRAMES:
        raise ValueError(f"encode needs >= {INPUT_FRAMES} frames, got {frames.shape}")
    tape = Tape()
    nodes = _weight_nodes(tape, model.encoder.weights)
    kmat, a = _encoder_graph(tape, nodes, frames[None, :INPUT_FRAMES], model.encoder.kernel_size)
    return np.array(kmat.value[0]), float(a.value[0])


@dataclass
class MetaTrainResult:
    model: MetaModel
    history: list[float]


def train(samples, config: TrainConfig, channels: tuple[int, int, int] = (16, 32, 32),
          model: MetaModel | None = None) -> MetaTrainResult:
    """Fit the encoder across videos spanning many kernel/threshold combos."""
    if not samples:
        raise ValueError("no training samples")
    if model is None:
        encoder = MetaEncoder.initialize(config.kernel_size, seed=config.seed, channels=channels)
        model = MetaModel(encoder=encoder, steepness=config.steepness, layers=config.layers)
    frames, targets = stack(samples, model.layers, INPUT_FRAMES)
    weights = model.encoder.weights
    # three speeds: the threshold head races (it must explain threshold
    # differences), the shared kernel-mass carrier (the kernel head's bias)
    # crawls so the overall scale stays anchored near its unit-sum start,
    # and the rest learns shape at the normal rate
    groups = {
        "head_a": ([k for k in weights if k.startswith("head_a")], config.threshold_lr),
        "head_k_bias": (["head_k_b"], config.lr),
        "stack": ([k for k in weights if k.startswith("conv") or k == "head_k_w"],
                  config.encoder_lr),
    }

    def loss_graph(tape, nodes, idx):
        kmat, a = _encoder_graph(tape, nodes, frames[idx], model.encoder.kernel_size)
        _, loss_node = rollout_graph(tape, frames[idx, 0], kmat, a, model.steepness,
                                     model.layers, [t[idx] for t in targets])
        return loss_node

    # the optional warm-up holds the shared kernel mass at its unit-sum start
    # while thresholds and features settle
    history = fit(weights, groups, loss_graph, len(samples), config, 0xE1,
                  frozen="head_k_bias")
    return MetaTrainResult(model=model, history=history)


def predict(model: MetaModel, frames: Video, n_steps: int) -> tuple[Kernel, float, Video]:
    """Encode once, then hard rollout from the first frame; returns the
    inferred dynamics parameters alongside the frames."""
    kernel_grid, a = encode(model, frames)
    params = DynParams(Kernel(kernel_grid), a)
    video = rollout(np.asarray(frames, dtype=np.float64)[0], params, n_steps)
    return params.kernel, a, video


def save_checkpoint(model: MetaModel, directory) -> Path:
    """JSON manifest (architecture + tensor index) plus one little-endian
    float64 payload holding every weight in manifest order."""
    weights = model.encoder.weights
    names = sorted(weights)
    fields = {
        "kernel_size": model.encoder.kernel_size,
        "channels": list(model.encoder.channels),
        "s": float(model.steepness),
        "layers": int(model.layers),
        "tensors": [{"name": n, "shape": list(weights[n].shape)} for n in names],
    }
    return write_checkpoint(directory, "meta", fields, "weights.bin", [weights[n] for n in names])


def load_checkpoint(directory) -> MetaModel:
    """Load a checkpoint whose tensor index matches the architecture its
    manifest declares, with a finite payload."""
    directory = Path(directory)
    manifest = read_manifest(directory, "meta", {
        "kernel_size": PositiveOddInt,
        "channels": Annotated[tuple[PositiveInt, ...], "a non-empty list of positive integers",
                              bool],
        "tensors": Annotated[tuple[dict, ...], "a list of {name, shape} entries",
                             lambda v: all(set(e) == {"name", "shape"} for e in v)],
        "s": PositiveFloat,
        "layers": PositiveInt,
    })
    k, channels, tensors = manifest["kernel_size"], manifest["channels"], manifest["tensors"]
    expected = _weight_shapes(k, channels)
    names = [entry["name"] for entry in tensors]
    if sorted(names, key=str) != sorted(expected):
        raise ValueError(f"checkpoint tensors {names} do not match kernel_size {k} and "
                         f"channels {channels}: expected {sorted(expected)}")
    for entry in tensors:
        if entry["shape"] != list(expected[entry["name"]]):
            raise ValueError(f"checkpoint tensor {entry['name']!r} has shape {entry['shape']}, "
                             f"expected {list(expected[entry['name']])}")
    weights = read_tensors(directory / "weights.bin", [(n, expected[n]) for n in names])
    encoder = MetaEncoder(kernel_size=k, channels=tuple(channels), weights=weights)
    return MetaModel(encoder=encoder, steepness=manifest["s"], layers=manifest["layers"])

"""Single-dynamics recurrent model: one shared learnable kernel and one
learnable threshold, trained by gradient descent through a soft-threshold
rollout and tested with the hard threshold reinstated.

The threshold is reparameterized through a plain sigmoid so the effective
value stays in (0,1) at every optimizer step; the kernel is left raw and
unconstrained during training.

The hard dynamics is invariant under (c*K, c*a) for c > 0, and the kernel's
total mass drifts during training (the learning-rate split does not hold it),
so only a/sum(K) is identifiable.  `train` therefore reports the learned pair
in the unit-mass gauge (K/sum(K), a/sum(K)), the normalization every
ground-truth kernel in `kernels` uses.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit, logit

from ._checkpoint import (
    CHECKPOINT_FORMAT,
    COUNT,
    FINITE,
    ODD_SIZE,
    POSITIVE,
    manifest_field,
    read_manifest,
    read_payload,
)
from .autodiff import Tape
from .datagen import VideoSample, make_rng
from .dynamics import HARD, DynParams, Video, rollout
from .grid import Grid, as_grid, _correlate
from .kernels import Kernel, gaussian
from .optim import make_optimizer



class TrainingDiverged(RuntimeError):
    """Raised when the loss goes non-finite; carries the offending epoch."""

    def __init__(self, epoch: int, loss: float):
        super().__init__(f"training diverged at epoch {epoch}: loss={loss}")
        self.epoch = epoch


@dataclass
class TrainConfig:
    """Hyperparameters shared by both trainers.

    The kernel and the threshold form two parameter groups with very
    different scales, so they get separate learning rates: the threshold
    moves fast and the kernel slowly.  The split does not hold the kernel's
    total mass: over long runs the pair drifts along the equivalent rescaled
    dynamics (c*K, c*a).  Method 1 reports its result in the unit-mass gauge
    (K/sum(K), a/sum(K)) instead; Method 2 pins the mass in its kernel head.
    """

    epochs: int = 500
    lr: float = 1e-4  # kernel (or kernel-head) learning rate
    threshold_lr: float = 0.1  # threshold (or threshold-head) learning rate
    encoder_lr: float = 1e-3  # meta only: shared feature-stack learning rate
    warmup_epochs: int = 0  # meta only: epochs with the kernel head frozen
    optimizer: str = "adam"
    batch_size: int = 0  # 0 = full dataset per step
    seed: int = 0
    steepness: float = 100.0
    kernel_size: int = 31
    layers: int = 3

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if min(self.lr, self.threshold_lr, self.encoder_lr) <= 0:
            raise ValueError("learning rates must be positive")
        if self.kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd")


@dataclass
class MboModel:
    """Learnable state: raw kernel grid, raw (pre-sigmoid) threshold, fixed
    steepness and training depth."""

    raw_kernel: Grid
    raw_threshold: float
    steepness: float = 100.0
    layers: int = 3

    @property
    def threshold(self) -> float:
        return float(expit(self.raw_threshold))

    @property
    def kernel(self) -> Kernel:
        return Kernel(self.raw_kernel, normalized=False)

    @classmethod
    def initialize(cls, kernel_size: int, seed: int = 0, steepness: float = 100.0,
                   layers: int = 3) -> "MboModel":
        """Centered unit-sum gaussian (sigma = size/6) plus tiny uniform noise;
        raw threshold 0 so training starts from a = 0.5."""
        rng = make_rng(seed, 0xB0)
        base = gaussian(kernel_size, sigma_x=kernel_size / 6.0).grid
        noise = rng.uniform(-1e-3, 1e-3, size=base.shape)
        return cls(raw_kernel=base + noise, raw_threshold=0.0,
                   steepness=steepness, layers=layers)


@dataclass
class TrainResult:
    """Learned dynamics, in the unit-mass gauge, plus the per-epoch loss
    history."""

    kernel: Kernel
    threshold: float
    history: list[float]
    model: MboModel = field(repr=False, default=None)


def _stack_first_frames(samples, n_targets):
    """Batch (noisy) inputs and targets; validates frame counts and shapes."""
    shape = samples[0].noisy.shape
    for i, s in enumerate(samples):
        if s.noisy.shape[0] < n_targets + 1:
            raise ValueError(f"sample {i} has {s.noisy.shape[0]} frames, need {n_targets + 1}")
        if s.noisy.shape[1:] != shape[1:]:
            raise ValueError(f"sample {i} frame shape {s.noisy.shape[1:]} != {shape[1:]}")
    frame0 = np.stack([s.noisy[0] for s in samples])
    targets = [np.stack([s.noisy[i + 1] for s in samples]) for i in range(n_targets)]
    return frame0, targets


def _loss_graph(tape: Tape, kernel_node, raw_a_node, frame0, targets, steepness):
    """Shared soft-rollout loss: sum over target frames of the per-frame mean
    squared error, averaged over the batch (the batch mean lives inside
    mse_loss's mean over all elements)."""
    a = tape.sigmoid(raw_a_node)
    x = tape.leaf(frame0)
    loss = None
    for target in targets:
        x = tape.sigmoid_threshold(tape.conv2d_same(x, kernel_node), a, steepness)
        term = tape.mse_loss(x, target)
        loss = term if loss is None else tape.add(loss, term)
    return loss, x


def forward_train(model: MboModel, frame0: Grid, n_layers: int | None = None) -> Video:
    """Soft predictions for frames 2..L+1 from the first frame."""
    L = model.layers if n_layers is None else n_layers
    if L < 1:
        raise ValueError("need at least one layer")
    x = as_grid(frame0)
    frames = []
    for _ in range(L):
        x = expit(model.steepness * (_correlate(x, model.raw_kernel) - model.threshold))
        frames.append(x)
    return np.stack(frames)


def loss(model: MboModel, samples) -> float:
    """Mean over videos of the per-pixel-normalized squared error summed over
    frames 2..L+1, predictions rolled out from each sample's first frame."""
    frame0, targets = _stack_first_frames(samples, model.layers)
    preds = forward_train_batch(model, frame0)
    total = 0.0
    for pred, target in zip(preds, targets):
        total += float(((pred - target) ** 2).mean())
    return total


def forward_train_batch(model: MboModel, frame0_batch: np.ndarray) -> list[np.ndarray]:
    x = frame0_batch
    out = []
    for _ in range(model.layers):
        x = expit(model.steepness * (_correlate(x, model.raw_kernel) - model.threshold))
        out.append(x)
    return out


def train(samples, config: TrainConfig, model: MboModel | None = None) -> TrainResult:
    """Fit kernel and threshold to videos sharing one underlying dynamics."""
    if not samples:
        raise ValueError("no training samples")
    if model is None:
        model = MboModel.initialize(config.kernel_size, seed=config.seed,
                                    steepness=config.steepness, layers=config.layers)
    frame0, targets = _stack_first_frames(samples, model.layers)
    n = frame0.shape[0]
    kernel = model.raw_kernel
    raw_a = np.asarray(model.raw_threshold, dtype=np.float64)
    opt_k = make_optimizer(config.optimizer, {"kernel": kernel}, config.lr)
    opt_a = make_optimizer(config.optimizer, {"raw_threshold": raw_a}, config.threshold_lr)
    order_rng = make_rng(config.seed, 0xB1)
    history = []

    batch = config.batch_size if config.batch_size > 0 else n
    for epoch in range(config.epochs):
        order = order_rng.permutation(n) if batch < n else np.arange(n)
        epoch_loss = 0.0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            tape = Tape()
            k_node = tape.leaf(kernel, param=True, name="kernel")
            a_node = tape.leaf(raw_a, param=True, name="raw_threshold")
            loss_node, _ = _loss_graph(
                tape, k_node, a_node, frame0[idx], [t[idx] for t in targets], model.steepness
            )
            value = float(loss_node.value)
            if not np.isfinite(value):
                raise TrainingDiverged(epoch, value)
            grads = tape.backward(loss_node)
            opt_k.step({"kernel": grads[k_node]})
            opt_a.step({"raw_threshold": grads[a_node]})
            epoch_loss += value * len(idx)
        history.append(epoch_loss / n)

    model.raw_kernel = kernel
    model.raw_threshold = float(raw_a)
    to_unit_mass(model)
    return TrainResult(kernel=model.kernel, threshold=model.threshold,
                       history=history, model=model)


def to_unit_mass(model: MboModel) -> MboModel:
    """Rescale the model in place to the same hard dynamics with a unit-sum
    kernel: (K, a) -> (K/sum(K), a/sum(K)).  Only the hard dynamics is
    unchanged; the soft rollout at a fixed steepness is not.

    The rescaled pair has no form in this model when sum(K) <= 0 (the
    division would flip or break the threshold test) or when a/sum(K) falls
    outside (0, 1) (no sigmoid preimage); the raw pair is then kept and a
    RuntimeWarning names the mass and threshold.
    """
    mass = float(model.raw_kernel.sum())
    a = model.threshold / mass if mass > 0 else float("nan")
    if not 0.0 < a < 1.0:
        warnings.warn(f"kernel mass {mass:.6g} and threshold {model.threshold:.6g} have no "
                      "unit-mass form; keeping the raw pair", RuntimeWarning, stacklevel=2)
        return model
    model.raw_kernel = model.raw_kernel / mass
    model.raw_threshold = float(logit(a))
    return model


def predict(model: MboModel, frame0: Grid, n_steps: int) -> Video:
    """Hard-threshold rollout with the learned kernel and threshold; returns
    n_steps+1 frames including the input frame."""
    params = DynParams(model.kernel, model.threshold, model.steepness)
    return rollout(frame0, params, n_steps, mode=HARD)


def save_checkpoint(model: MboModel, directory) -> Path:
    """JSON manifest plus a little-endian float64 kernel payload."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": CHECKPOINT_FORMAT,
        "kind": "mbo",
        "kernel_size": int(model.raw_kernel.shape[0]),
        "a": model.threshold,
        "raw_threshold": float(model.raw_threshold),
        "s": float(model.steepness),
        "layers": int(model.layers),
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    (directory / "kernel.bin").write_bytes(
        np.ascontiguousarray(model.raw_kernel, dtype="<f8").tobytes()
    )
    return directory


def load_checkpoint(directory) -> MboModel:
    directory = Path(directory)
    manifest = read_manifest(directory, "mbo")
    size = manifest_field(manifest, "kernel_size", *ODD_SIZE)
    return MboModel(
        raw_kernel=read_payload(directory / "kernel.bin", size * size).reshape(size, size),
        raw_threshold=manifest_field(manifest, "raw_threshold", *FINITE),
        steepness=manifest_field(manifest, "s", *POSITIVE),
        layers=manifest_field(manifest, "layers", *COUNT),
    )

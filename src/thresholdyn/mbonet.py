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

This module also holds the training core that Method 2 (`metanet`) reuses,
since its network is an encoder feeding per-video (K, a) into this same
rollout: `stack` batches the videos, `rollout_graph` is the one soft rollout
on the autodiff tape (training and evaluation alike), and `fit` is the one
training loop, with an Adam per parameter group.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit, logit

from ._checkpoint import read_manifest, read_tensors, write_checkpoint
from ._records import NonNegativeInt, PositiveFloat, PositiveInt, PositiveOddInt
from .autodiff import Tape
from .datagen import make_rng
from .dynamics import DynParams, Video, rollout
from .grid import Grid, as_grid
from .kernels import Kernel, gaussian
from .optim import Adam


class TrainingDiverged(RuntimeError):
    """Raised when the loss goes non-finite; carries the offending epoch."""

    def __init__(self, epoch: int, loss: float):
        super().__init__(f"training diverged at epoch {epoch}: loss={loss}")
        self.epoch = epoch


@dataclass
class TrainConfig:
    """Hyperparameters of `fit`, the training loop both methods share.

    Every parameter group is trained with Adam.  The kernel and the threshold
    form two groups with very different scales, so they get separate
    learning rates: the threshold moves fast and the kernel slowly.  The
    split does not hold the kernel's total mass: over long runs the pair
    drifts along the equivalent rescaled dynamics (c*K, c*a).  Method 1 reports its result in the unit-mass gauge
    (K/sum(K), a/sum(K)) instead; Method 2 pins the mass in its kernel head.
    """

    epochs: int = 500
    lr: float = 1e-4  # kernel (or kernel-head) learning rate
    threshold_lr: float = 0.1  # threshold (or threshold-head) learning rate
    encoder_lr: float = 1e-3  # meta only: shared feature-stack learning rate
    warmup_epochs: int = 0  # meta only: epochs with the kernel head frozen
    batch_size: NonNegativeInt = 0  # 0 = full dataset per step
    seed: int = 0
    steepness: float = 100.0
    kernel_size: PositiveOddInt = 31
    layers: PositiveInt = 3

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if min(self.lr, self.threshold_lr, self.encoder_lr) <= 0:
            raise ValueError("learning rates must be positive")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError("kernel_size must be positive and odd")
        if self.layers < 1 or self.batch_size < 0:
            raise ValueError("layers must be >= 1 and batch_size >= 0 (0 = full batch)")


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


def stack(samples, layers: int, n_inputs: int):
    """Batch the samples' noisy frames: the first ``n_inputs`` frames of each
    as inputs (N, n_inputs, H, W), and frames 2..layers+1 as ``layers``
    target arrays (N, H, W).  Validates frame counts and shapes."""
    need = max(layers + 1, n_inputs)
    shape = samples[0].noisy.shape
    for i, s in enumerate(samples):
        if s.noisy.shape[0] < need:
            raise ValueError(f"sample {i} has {s.noisy.shape[0]} frames, need {need}")
        if s.noisy.shape[1:] != shape[1:]:
            raise ValueError(f"sample {i} frame shape {s.noisy.shape[1:]} != {shape[1:]}")
    inputs = np.stack([s.noisy[:n_inputs] for s in samples])
    targets = [np.stack([s.noisy[i + 1] for s in samples]) for i in range(layers)]
    return inputs, targets


def rollout_graph(tape: Tape, frame0, kernel, a, steepness: float, layers: int, targets=None):
    """The soft rollout both methods train: ``layers`` convolve-and-soft-
    threshold steps from frame0 (H,W) or (N,H,W).  The kernel is (kh,kw),
    shared across the batch, or (N,kh,kw) per sample; the threshold a is a
    scalar or (N,) per sample.  Returns the per-step predictions and, given
    targets, the loss: the sum over steps of each frame's mean squared error,
    averaged over the batch inside mse_loss's mean over all elements."""
    x = tape.leaf(frame0)
    preds, loss = [], None
    for i in range(layers):
        x = tape.sigmoid_threshold(tape.conv2d_same(x, kernel), a, steepness)
        preds.append(x)
        if targets is not None:
            term = tape.mse_loss(x, targets[i])
            loss = term if loss is None else tape.add(loss, term)
    return preds, loss


def fit(params: dict[str, np.ndarray], groups: dict, loss_graph, n: int, config: TrainConfig,
        order_tag: int, frozen: str | None = None) -> list[float]:
    """The training loop both methods share; returns the per-epoch mean loss.

    ``params`` maps names to arrays, which are updated in place.  ``groups``
    maps a group name to (parameter names, learning rate); each group has its
    own Adam.  ``loss_graph(tape, nodes, idx)`` builds the loss of the samples
    ``idx`` from the parameter leaves ``nodes``.  The ``frozen`` group is held
    for the first ``config.warmup_epochs`` epochs.  Mini-batches are drawn
    from a generator keyed on (config.seed, order_tag).
    """
    optimizers = {name: Adam({k: params[k] for k in keys}, lr)
                  for name, (keys, lr) in groups.items()}
    order_rng = make_rng(config.seed, order_tag)
    batch = config.batch_size if config.batch_size > 0 else n
    history = []
    for epoch in range(config.epochs):
        order = order_rng.permutation(n) if batch < n else np.arange(n)
        epoch_loss = 0.0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            tape = Tape()
            nodes = {k: tape.leaf(v, param=True, name=k) for k, v in params.items()}
            loss_node = loss_graph(tape, nodes, idx)
            value = float(loss_node.value)
            if not np.isfinite(value):
                raise TrainingDiverged(epoch, value)
            grads = tape.backward(loss_node)
            for name, opt in optimizers.items():
                if name == frozen and epoch < config.warmup_epochs:
                    continue
                opt.step({k: grads[nodes[k]] for k in opt.params})
            epoch_loss += value * (len(idx) / n)  # exactly value for one full batch
        history.append(epoch_loss)
    return history


def _rollout(model: MboModel, frame0, layers: int, targets=None):
    """`rollout_graph` of the model's kernel and threshold on a fresh tape."""
    tape = Tape()
    return rollout_graph(tape, frame0, model.raw_kernel, tape.sigmoid(model.raw_threshold),
                         model.steepness, layers, targets)


def forward_train(model: MboModel, frame0: Grid, n_layers: int | None = None) -> Video:
    """Soft predictions for frames 2..L+1 from the first frame."""
    L = model.layers if n_layers is None else n_layers
    if L < 1:
        raise ValueError("need at least one layer")
    preds, _ = _rollout(model, as_grid(frame0), L)
    return np.stack([p.value for p in preds])


def loss(model: MboModel, samples) -> float:
    """Mean over videos of the per-pixel-normalized squared error summed over
    frames 2..L+1, predictions rolled out from each sample's first frame."""
    inputs, targets = stack(samples, model.layers, 1)
    _, loss_node = _rollout(model, inputs[:, 0], model.layers, targets)
    return float(loss_node.value)


def train(samples, config: TrainConfig, model: MboModel | None = None) -> TrainResult:
    """Fit kernel and threshold to videos sharing one underlying dynamics."""
    if not samples:
        raise ValueError("no training samples")
    if model is None:
        model = MboModel.initialize(config.kernel_size, seed=config.seed,
                                    steepness=config.steepness, layers=config.layers)
    inputs, targets = stack(samples, model.layers, 1)
    params = {"kernel": model.raw_kernel,
              "raw_threshold": np.asarray(model.raw_threshold, dtype=np.float64)}
    groups = {"kernel": (["kernel"], config.lr),
              "threshold": (["raw_threshold"], config.threshold_lr)}

    def loss_graph(tape, nodes, idx):
        a = tape.sigmoid(nodes["raw_threshold"])
        _, loss_node = rollout_graph(tape, inputs[idx, 0], nodes["kernel"], a, model.steepness,
                                     model.layers, [t[idx] for t in targets])
        return loss_node

    history = fit(params, groups, loss_graph, len(samples), config, 0xB1)
    model.raw_threshold = float(params["raw_threshold"])
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
    return rollout(frame0, DynParams(model.kernel, model.threshold), n_steps)


def save_checkpoint(model: MboModel, directory) -> Path:
    """JSON manifest plus a little-endian float64 kernel payload."""
    fields = {
        "kernel_size": int(model.raw_kernel.shape[0]),
        "a": model.threshold,
        "raw_threshold": float(model.raw_threshold),
        "s": float(model.steepness),
        "layers": int(model.layers),
    }
    return write_checkpoint(directory, "mbo", fields, "kernel.bin", [model.raw_kernel])


def load_checkpoint(directory) -> MboModel:
    directory = Path(directory)
    manifest = read_manifest(directory, "mbo", {
        "kernel_size": PositiveOddInt, "raw_threshold": float, "s": PositiveFloat,
        "layers": PositiveInt,
    })
    size = manifest["kernel_size"]
    return MboModel(
        raw_kernel=read_tensors(directory / "kernel.bin", [("kernel", (size, size))])["kernel"],
        raw_threshold=manifest["raw_threshold"],
        steepness=manifest["s"],
        layers=manifest["layers"],
    )

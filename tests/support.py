"""Helpers several test modules share: a finite-difference gradient check,
disk frames and pixel counts, and the soft rollout both trainers
differentiate, evaluated outside ``fit``.  Not a test module: pytest collects
only ``test_*.py``."""

from dataclasses import dataclass, field

import numpy as np

from thresholdyn import metanet
from thresholdyn.autodiff import Tape
from thresholdyn.mbonet import rollout_graph, stack


@dataclass
class GradcheckReport:
    """Outcome of one finite-difference check."""

    max_rel_error: float
    step: float
    param_errors: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= 1e-4


def gradcheck(builder, seed: int = 0, step: float = 1e-5) -> GradcheckReport:
    """Compare backward() against central finite differences.

    ``builder(params, rng)`` constructs a scalar-loss graph from seeded random
    inputs and returns (tape, loss_node, param_nodes: dict[str, Node]); when
    ``params`` is a dict of override arrays the builder must use those values
    for the named parameters instead of inventing them.
    """

    def run(overrides):
        rng = np.random.Generator(np.random.Philox(seed))
        return builder(overrides, rng)

    tape, loss, param_nodes = run(None)
    grads = tape.backward(loss)
    base = {name: np.array(node.value, copy=True) for name, node in param_nodes.items()}

    errors = {}
    for name, node in param_nodes.items():
        analytic = grads[node]
        fd = np.zeros_like(base[name])
        flat = base[name].reshape(-1)
        for i in range(flat.size):
            for sign in (+1.0, -1.0):
                values = {k: v.copy() for k, v in base.items()}
                values[name].reshape(-1)[i] += sign * step
                _, loss_node, _ = run(values)
                fd.reshape(-1)[i] += sign * float(loss_node.value)
        fd /= 2.0 * step
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
        errors[name] = float(np.max(np.abs(analytic - fd) / denom)) if flat.size else 0.0
    worst = max(errors.values()) if errors else 0.0
    return GradcheckReport(max_rel_error=worst, step=step, param_errors=errors)


def disk_frame(size: int, radius: float, center: tuple[float, float] | None = None):
    """Rasterize a disk by pixel-center membership (distance <= radius).
    The default center is the pixel (size//2, size//2)."""
    if center is None:
        center = (size // 2, size // 2)
    cy, cx = center
    yy, xx = np.indices((size, size))
    frame = ((yy - cy) ** 2 + (xx - cx) ** 2 <= radius**2).astype(np.float64)
    if not frame.any():
        raise ValueError("disk covers no pixel center")
    return frame


def measure(binary) -> int:
    """Number of 1-pixels in a binary grid."""
    return int(np.count_nonzero(np.asarray(binary)))


def soft_rollout(model, frames, targets=None):
    """The model's soft rollout on a fresh tape, as its ``train`` builds it:
    the predictions of every step, stacked, and the loss against ``targets``
    (None without them).

    A Method 1 ``MboModel`` rolls out from ``frames``, one frame (H, W) or a
    batch (N, H, W).  A Method 2 ``MetaModel`` encodes ``frames``
    (N, 4, H, W) and rolls out from each video's first frame."""
    tape = Tape()
    if isinstance(model, metanet.MetaModel):
        nodes = metanet._weight_nodes(tape, model.encoder.weights)
        kernel, a = metanet._encoder_graph(tape, nodes, frames, model.encoder.kernel_size)
        frames = frames[:, 0]
    else:
        kernel, a = model.raw_kernel, tape.sigmoid(model.raw_threshold)
    preds, loss = rollout_graph(tape, frames, kernel, a, model.steepness, model.layers, targets)
    return np.stack([p.value for p in preds]), None if loss is None else float(loss.value)


def soft_loss(model, samples) -> float:
    """The training loss of ``model`` on ``samples``: the sum over steps of
    each predicted frame's mean squared error, averaged over the videos."""
    meta = isinstance(model, metanet.MetaModel)
    inputs, targets = stack(samples, model.layers, metanet.INPUT_FRAMES if meta else 1)
    return soft_rollout(model, inputs if meta else inputs[:, 0], targets)[1]

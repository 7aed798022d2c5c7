"""Minimal reverse-mode differentiation over the fixed op set both trainers need.

A Tape records ops in execution order; since every node's inputs precede it,
backward is a single reverse sweep visiting each node exactly once.  Values
are float64 numpy arrays (0-d for scalars).  One tape per training step;
tapes are not shared across threads.

Only nodes that lead back to a parameter leaf are differentiated: a node's
``requires_grad`` is derived when it is built (a param, or any parent with
it), a node without it keeps no vjp, and backward never pushes a gradient
into it.  So the constant inputs of a step (a rollout's first frame, the
encoder's input frames) cost no image gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .grid import _Spectral, _check_kernel, _convolve, _correlate, _correlate_kernel, _use_fft


class Node:
    """One tape entry: cached forward value plus the vjp that pushes an
    incoming gradient to its parents.

    ``requires_grad`` is computed, never set: true for a param leaf or when
    any parent has it.  A node without it drops its vjp.  A vjp returns one
    gradient per parent and may return None for a parent that needs none.
    """

    __slots__ = ("value", "parents", "vjp", "grad", "is_param", "requires_grad", "name")

    def __init__(self, value, parents=(), vjp=None, is_param=False, name=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents
        self.requires_grad = is_param or any(p.requires_grad for p in parents)
        self.vjp = vjp if self.requires_grad else None
        self.grad = None
        self.is_param = is_param
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        tag = self.name or ("param" if self.is_param else "node")
        return f"<Node {tag} shape={self.value.shape}>"


class Tape:
    """Append-only computation record supporting a single backward sweep."""

    def __init__(self):
        self.nodes: list[Node] = []

    def _push(self, node: Node) -> Node:
        self.nodes.append(node)
        return node

    def leaf(self, value, param: bool = False, name: str | None = None) -> Node:
        """Register an input; param=True marks it as a trainable leaf whose
        gradient backward() must report."""
        return self._push(Node(value, is_param=param, name=name))

    def _as_node(self, x) -> Node:
        return x if isinstance(x, Node) else self.leaf(x)

    # ---- elementwise ----

    def add(self, x: Node, y: Node) -> Node:
        x, y = self._as_node(x), self._as_node(y)
        if x.value.shape != y.value.shape:
            raise ValueError(f"add shape mismatch: {x.shape} vs {y.shape}")
        return self._push(Node(x.value + y.value, (x, y), lambda g: (g, g)))

    def sub(self, x: Node, y: Node) -> Node:
        x, y = self._as_node(x), self._as_node(y)
        if x.value.shape != y.value.shape:
            raise ValueError(f"sub shape mismatch: {x.shape} vs {y.shape}")
        return self._push(Node(x.value - y.value, (x, y), lambda g: (g, -g)))

    def mul(self, x: Node, y: Node) -> Node:
        x, y = self._as_node(x), self._as_node(y)
        if x.value.shape != y.value.shape:
            raise ValueError(f"mul shape mismatch: {x.shape} vs {y.shape}")
        xv, yv = x.value, y.value
        return self._push(Node(xv * yv, (x, y), lambda g: (g * yv, g * xv)))

    def scale(self, x: Node, c: float) -> Node:
        x = self._as_node(x)
        return self._push(Node(x.value * c, (x,), lambda g: (g * c,)))

    def add_bias(self, x: Node, b: Node) -> Node:
        """Broadcast add of a vector over the rows of a batch: x (N,m) + b (m,)."""
        x, b = self._as_node(x), self._as_node(b)
        if x.value.shape[-1:] != b.value.shape or b.value.ndim != 1:
            raise ValueError(f"add_bias shape mismatch: {x.shape} vs {b.shape}")
        lead = tuple(range(x.value.ndim - 1))
        return self._push(
            Node(x.value + b.value, (x, b), lambda g: (g, g.sum(axis=lead) if lead else g))
        )

    def center(self, x: Node) -> Node:
        """Subtract each trailing-axis row's mean; self-adjoint projection."""
        x = self._as_node(x)
        proj = lambda v: v - v.mean(axis=-1, keepdims=True)
        return self._push(Node(proj(x.value), (x,), lambda g: (proj(g),)))

    def relu(self, x: Node) -> Node:
        x = self._as_node(x)
        mask = x.value > 0
        return self._push(Node(np.where(mask, x.value, 0.0), (x,), lambda g: (g * mask,)))

    def sigmoid(self, x: Node) -> Node:
        """Plain logistic sigmoid; derivative from the cached forward value."""
        x = self._as_node(x)
        y = expit(x.value)
        return self._push(Node(y, (x,), lambda g: (g * y * (1.0 - y),)))

    def sigmoid_threshold(self, x: Node, a: Node, s: float) -> Node:
        """sigma_{s,a}(x) = 1/(1+exp(-s*(x-a))) with gradients to x and a;
        the steepness s is a constant.  a is a scalar or, for per-sample
        thresholds, a (N,) vector against x of shape (N, ...)."""
        if s <= 0:
            raise ValueError(f"steepness must be positive, got {s}")
        x, a = self._as_node(x), self._as_node(a)
        av = a.value
        if av.ndim == 0:
            a_b = av
        elif av.ndim == 1 and x.value.ndim >= 1 and x.value.shape[0] == av.shape[0]:
            a_b = av.reshape((-1,) + (1,) * (x.value.ndim - 1))
        else:
            raise ValueError(f"threshold shape {av.shape} incompatible with x {x.shape}")
        y = expit(s * (x.value - a_b))

        def vjp(g):
            t = g * s * y * (1.0 - y)
            if av.ndim == 0:
                ga = -t.sum()
            else:
                ga = -t.reshape(av.shape[0], -1).sum(axis=1)
            return t, np.asarray(ga)

        return self._push(Node(y, (x, a), vjp))

    # ---- convolution ----

    def conv2d_same(self, image: Node, kernel: Node) -> Node:
        """Zero-padded same-size cross-correlation.  image (H,W) or (N,H,W);
        kernel (kh,kw) shared across the batch or (N,kh,kw) per sample.
        Kernels that ``_use_fft`` sends to the FFT path keep their input and
        kernel spectra for the vjp; a shared kernel's gradient is summed over
        the batch in frequency space.  The image gradient is skipped when the
        image needs none."""
        image, kernel = self._as_node(image), self._as_node(kernel)
        xv, kv = image.value, kernel.value
        if xv.ndim not in (2, 3) or kv.ndim not in (2, 3):
            raise ValueError(f"unsupported conv shapes {xv.shape} x {kv.shape}")
        if kv.ndim == 3 and (xv.ndim != 3 or xv.shape[0] != kv.shape[0]):
            raise ValueError(f"per-sample kernels {kv.shape} need matching batch {xv.shape}")
        _check_kernel(xv.shape, kv.shape[-2:])
        shared = kv.ndim == 2 and xv.ndim == 3
        need_x = image.requires_grad
        if _use_fft(kv.shape, "auto"):
            plan = _Spectral(xv.shape, kv.shape)
            x_hat, k_hat = plan.rfft(xv), plan.kernel_rfft(kv)

            def spectral_vjp(g):  # one transform of g serves both gradients
                g_hat = plan.rfft(g)
                cross = g_hat.conj() * x_hat
                gx = plan.image(g_hat * k_hat) if need_x else None
                return gx, plan.lags(cross.sum(axis=0) if shared else cross)

            return self._push(Node(plan.image(x_hat * k_hat.conj()), (image, kernel), spectral_vjp))

        def vjp(g):
            gx = _convolve(g, kv, "direct") if need_x else None
            gk = _correlate_kernel(xv, g, kv.shape[-2:])
            return gx, gk.sum(axis=0) if shared else gk

        return self._push(Node(_correlate(xv, kv, "direct"), (image, kernel), vjp))

    def conv_layer(self, x: Node, w: Node, b: Node, stride: int = 1) -> Node:
        """Multichannel strided conv with zero padding (k-1)//2: x (N,Cin,H,W),
        w (Cout,Cin,kh,kw), b (Cout,) -> (N,Cout,Ho,Wo).  The image gradient
        is skipped when x needs none."""
        x, w, b = self._as_node(x), self._as_node(w), self._as_node(b)
        xv, wv, bv = x.value, w.value, b.value
        n, cin, h, width = xv.shape
        cout, cin_w, kh, kw = wv.shape
        if cin != cin_w or bv.shape != (cout,):
            raise ValueError(f"conv_layer shape mismatch: x{xv.shape} w{wv.shape} b{bv.shape}")
        ph, pw = kh // 2, kw // 2
        xp = np.pad(xv, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
        windows = windows[:, :, ::stride, ::stride]
        out = np.einsum("nchwuv,ocuv->nohw", windows, wv, optimize=True)
        out += bv[None, :, None, None]
        ho, wo = out.shape[2], out.shape[3]

        def vjp(g):
            gw = np.einsum("nchwuv,nohw->ocuv", windows, g, optimize=True)
            gb = g.sum(axis=(0, 2, 3))
            if not x.requires_grad:
                return None, gw, gb
            t = np.einsum("nohw,ocuv->nchwuv", g, wv, optimize=True)
            gxp = np.zeros_like(xp)
            for u in range(kh):
                for v in range(kw):
                    gxp[:, :, u : u + stride * ho : stride, v : v + stride * wo : stride] += t[
                        :, :, :, :, u, v
                    ]
            return gxp[:, :, ph : ph + h, pw : pw + width], gw, gb

        return self._push(Node(out, (x, w, b), vjp))

    # ---- dense / pooling / shaping ----

    def dense(self, x: Node, w: Node, b: Node) -> Node:
        """Affine map: x (F,) or (N,F) with w (M,F), b (M,)."""
        x, w, b = self._as_node(x), self._as_node(w), self._as_node(b)
        xv, wv, bv = x.value, w.value, b.value
        if xv.shape[-1] != wv.shape[1] or bv.shape != (wv.shape[0],):
            raise ValueError(f"dense shape mismatch: x{xv.shape} w{wv.shape} b{bv.shape}")
        out = xv @ wv.T + bv

        def vjp(g):
            if xv.ndim == 1:
                return g @ wv, np.outer(g, xv), g
            return g @ wv, g.T @ xv, g.sum(axis=0)

        return self._push(Node(out, (x, w, b), vjp))

    def global_average_pool(self, x: Node) -> Node:
        """Spatial mean over the trailing two axes: (...,C,H,W) -> (...,C)."""
        x = self._as_node(x)
        h, w = x.value.shape[-2:]
        out = x.value.mean(axis=(-2, -1))

        def vjp(g):
            return (np.broadcast_to(g[..., None, None] / (h * w), x.value.shape),)

        return self._push(Node(out, (x,), vjp))

    def reshape(self, x: Node, shape) -> Node:
        x = self._as_node(x)
        old = x.value.shape
        return self._push(
            Node(x.value.reshape(shape), (x,), lambda g: (g.reshape(old),))
        )

    # ---- losses ----

    def mse_loss(self, pred: Node, target) -> Node:
        """Mean over all elements of the squared difference; target is a
        constant (plain array)."""
        pred = self._as_node(pred)
        tv = np.asarray(target, dtype=np.float64)
        if tv.shape != pred.value.shape:
            raise ValueError(f"mse shape mismatch: {pred.shape} vs {tv.shape}")
        diff = pred.value - tv
        m = diff.size
        return self._push(Node((diff * diff).sum() / m, (pred,), lambda g: (g * 2.0 * diff / m,)))

    # ---- backward ----

    def backward(self, loss: Node) -> dict[Node, np.ndarray]:
        """Reverse sweep from a scalar loss; returns gradients for every
        parameter leaf (zero for params the loss does not reach).  Only
        nodes with ``requires_grad`` receive a gradient; the others keep
        ``grad`` None."""
        if loss.value.ndim != 0:
            raise ValueError(f"loss must be scalar, got shape {loss.shape}")
        for node in self.nodes:
            node.grad = None
        loss.grad = np.asarray(1.0)
        for node in reversed(self.nodes):
            if node.grad is None or node.vjp is None:
                continue
            for parent, g in zip(node.parents, node.vjp(node.grad)):
                if parent.requires_grad:
                    parent.grad = g if parent.grad is None else parent.grad + g
        return {
            n: (n.grad if n.grad is not None else np.zeros_like(n.value))
            for n in self.nodes
            if n.is_param
        }


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

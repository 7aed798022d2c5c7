"""Tape backward pass vs hand-derived forms and finite differences."""

from unittest import mock

import numpy as np
import pytest

from thresholdyn import autodiff, grid
from thresholdyn.autodiff import GradcheckReport, Tape, gradcheck
from thresholdyn.grid import (
    _convolve,
    _correlate,
    _correlate_kernel,
    _Spectral,
    _use_fft,
    conv2d_same,
)


def test_mse_of_identical_inputs_has_zero_gradient():
    tape = Tape()
    x = tape.leaf(np.arange(6.0).reshape(2, 3), param=True)
    loss = tape.mse_loss(x, np.arange(6.0).reshape(2, 3))
    grads = tape.backward(loss)
    np.testing.assert_array_equal(grads[x], np.zeros((2, 3)))


def test_one_by_one_kernel_closed_form():
    # loss = mean((k*u - t)^2) with scalar kernel k: conv is k*u elementwise,
    # so dL/dk = (2/M) * sum(u * (k*u - t)) and dL/du = (2/M) * k * (k*u - t)
    rng = np.random.default_rng(0)
    u_val = rng.random((2, 2))
    t_val = rng.random((2, 2))
    k_val = np.array([[0.7]])
    tape = Tape()
    u = tape.leaf(u_val, param=True)
    k = tape.leaf(k_val, param=True)
    loss = tape.mse_loss(tape.conv2d_same(u, k), t_val)
    grads = tape.backward(loss)
    resid = k_val[0, 0] * u_val - t_val
    np.testing.assert_allclose(grads[k], [[(2.0 / 4.0) * np.sum(u_val * resid)]], atol=1e-14)
    np.testing.assert_allclose(grads[u], (2.0 / 4.0) * k_val[0, 0] * resid, atol=1e-14)


def _fd_check(build, n_params, seed=0, step=1e-5, tol=1e-4):
    report = gradcheck(build, seed=seed, step=step)
    assert isinstance(report, GradcheckReport)
    assert len(report.param_errors) == n_params
    assert report.passed, f"max rel error {report.max_rel_error:.3e} at step {step}"
    return report


def build_conv_mse(params, rng):
    x_val = rng.random((6, 6))
    k_val = rng.normal(size=(3, 3)) * 0.3
    if params is not None:
        x_val, k_val = params["x"], params["k"]
    tape = Tape()
    x = tape.leaf(x_val, param=True, name="x")
    k = tape.leaf(k_val, param=True, name="k")
    loss = tape.mse_loss(tape.conv2d_same(x, k), np.zeros((6, 6)) + 0.25)
    return tape, loss, {"x": x, "k": k}


def test_gradcheck_conv_mse():
    _fd_check(build_conv_mse, n_params=2)


def build_soft_rollout(params, rng):
    frame = (rng.random((8, 8)) > 0.5).astype(float)
    k_val = rng.random((3, 3))
    k_val /= k_val.sum()
    a_val = np.asarray(0.42)
    if params is not None:
        k_val, a_val = params["k"], params["a"]
    tape = Tape()
    k = tape.leaf(k_val, param=True, name="k")
    a = tape.leaf(a_val, param=True, name="a")
    x = tape.leaf(frame)
    loss = None
    for _ in range(3):
        x = tape.sigmoid_threshold(tape.conv2d_same(x, k), a, s=100.0)
        term = tape.mse_loss(x, np.full((8, 8), 0.5))
        loss = term if loss is None else tape.add(loss, term)
    return tape, loss, {"k": k, "a": a}


def test_gradcheck_three_step_soft_rollout_steep():
    # s=100 amplifies curvature; step 1e-6 keeps the central difference honest
    _fd_check(build_soft_rollout, n_params=2, step=1e-6)


def build_mixed_ops(params, rng):
    x_val = rng.normal(size=(4, 5)) + 0.05  # nudge away from relu's kink
    w_val = rng.normal(size=(3, 5)) * 0.5
    b_val = rng.normal(size=(3,)) * 0.1
    if params is not None:
        x_val, w_val, b_val = params["x"], params["w"], params["b"]
    tape = Tape()
    x = tape.leaf(x_val, param=True, name="x")
    w = tape.leaf(w_val, param=True, name="w")
    b = tape.leaf(b_val, param=True, name="b")
    h = tape.relu(tape.dense(x, w, b))
    h = tape.mul(h, tape.sigmoid(h))
    h = tape.reshape(tape.scale(h, 1.7), (12,))
    loss = tape.mse_loss(h, np.linspace(0, 1, 12))
    return tape, loss, {"x": x, "w": w, "b": b}


def test_gradcheck_mixed_ops():
    _fd_check(build_mixed_ops, n_params=3)


def build_conv_layer(params, rng):
    x_val = rng.random((2, 3, 8, 8))
    w_val = rng.normal(size=(4, 3, 3, 3)) * 0.3
    b_val = rng.normal(size=(4,)) * 0.1
    if params is not None:
        x_val, w_val, b_val = params["x"], params["w"], params["b"]
    tape = Tape()
    x = tape.leaf(x_val, param=True, name="x")
    w = tape.leaf(w_val, param=True, name="w")
    b = tape.leaf(b_val, param=True, name="b")
    h = tape.relu(tape.conv_layer(x, w, b, stride=2))
    f = tape.global_average_pool(h)
    loss = tape.mse_loss(f, np.zeros((2, 4)) + 0.3)
    return tape, loss, {"x": x, "w": w, "b": b}


def test_gradcheck_strided_conv_layer():
    _fd_check(build_conv_layer, n_params=3)


def build_batched_conv_per_sample(params, rng):
    x_val = rng.random((3, 7, 7))
    k_val = rng.normal(size=(3, 3, 3)) * 0.4
    a_val = rng.uniform(0.3, 0.7, size=(3,))
    if params is not None:
        x_val, k_val, a_val = params["x"], params["k"], params["a"]
    tape = Tape()
    x = tape.leaf(x_val, param=True, name="x")
    k = tape.leaf(k_val, param=True, name="k")
    a = tape.leaf(a_val, param=True, name="a")
    y = tape.sigmoid_threshold(tape.conv2d_same(x, k), a, s=20.0)
    loss = tape.mse_loss(y, np.full((3, 7, 7), 0.5))
    return tape, loss, {"x": x, "k": k, "a": a}


def test_gradcheck_per_sample_kernels_and_thresholds():
    _fd_check(build_batched_conv_per_sample, n_params=3)


def test_conv_kernel_gradient_is_correlation_with_upstream():
    # for the linear functional L = sum(g * conv(x, k)), dL/dk[q] = sum_p g[p] x[p+q-c]:
    # the correlation of the input with the upstream gradient
    rng = np.random.default_rng(5)
    x_val = rng.random((6, 6))
    g_val = rng.random((6, 6))
    expected = np.zeros((3, 3))
    for u in range(3):
        for v in range(3):
            basis = np.zeros((3, 3))
            basis[u, v] = 1.0
            expected[u, v] = np.sum(g_val * conv2d_same(x_val, basis))
    tape = Tape()
    k = tape.leaf(np.zeros((3, 3)), param=True)
    lin = tape.mul(tape.conv2d_same(tape.leaf(x_val), k), tape.leaf(g_val))
    total = tape.dense(tape.reshape(lin, (36,)), tape.leaf(np.ones((1, 36))), tape.leaf(np.zeros(1)))
    grads = tape.backward(tape.reshape(total, ()))
    np.testing.assert_allclose(grads[k], expected, atol=1e-12)


def test_shared_parameter_accumulates_across_layers():
    rng = np.random.default_rng(6)
    frame = rng.random((6, 6))
    k_val = rng.random((3, 3)) / 9.0
    target = rng.random((6, 6))

    def loss_and_grad(shared):
        tape = Tape()
        if shared:
            ks = [tape.leaf(k_val, param=True)] * 3
        else:
            ks = [tape.leaf(k_val, param=True) for _ in range(3)]
        x = tape.leaf(frame)
        for k in ks:
            x = tape.conv2d_same(x, k)
        loss = tape.mse_loss(x, target)
        grads = tape.backward(loss)
        return [grads[k] for k in dict.fromkeys(ks)]

    (g_shared,) = loss_and_grad(True)
    g_separate = loss_and_grad(False)
    np.testing.assert_allclose(g_shared, sum(g_separate), atol=1e-12)


def test_backward_rejects_non_scalar_loss():
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)), param=True)
    y = tape.scale(x, 2.0)
    with pytest.raises(ValueError):
        tape.backward(y)


def test_unreached_param_gets_zero_gradient():
    tape = Tape()
    used = tape.leaf(np.ones(3), param=True)
    unused = tape.leaf(np.ones((2, 2)), param=True)
    loss = tape.mse_loss(used, np.zeros(3))
    grads = tape.backward(loss)
    np.testing.assert_array_equal(grads[unused], np.zeros((2, 2)))
    assert np.any(grads[used] != 0)


def test_relu_nudged_inputs_pass_gradcheck():
    def build(params, rng):
        x_val = rng.normal(size=(10,))
        x_val = np.where(np.abs(x_val) < 1e-3, 1e-3, x_val)  # avoid the kink
        if params is not None:
            x_val = params["x"]
        tape = Tape()
        x = tape.leaf(x_val, param=True, name="x")
        loss = tape.mse_loss(tape.relu(x), np.linspace(-1, 1, 10))
        return tape, loss, {"x": x}

    _fd_check(build, n_params=1)


# ---- the spectral (FFT) path: kernels of area >= grid._FFT_KERNEL_AREA ----

FFT_KERNEL = (17, 15)  # area 255


def _rel(actual, expected):
    return float(np.max(np.abs(actual - expected)) / np.max(np.abs(expected)))


@pytest.mark.parametrize("x_shape,k_shape", [
    ((20, 20), FFT_KERNEL),                 # shared kernel, one frame
    ((3, 20, 20), FFT_KERNEL),              # shared kernel over a batch
    ((3, 20, 20), (3,) + FFT_KERNEL),       # per-sample kernels
])
def test_fft_path_matches_direct(x_shape, k_shape):
    assert _use_fft(k_shape, "auto")
    rng = np.random.default_rng(7)
    x_val = rng.random(x_shape)
    k_val = rng.normal(size=k_shape)
    g = rng.normal(size=x_shape)
    tape = Tape()
    node = tape.conv2d_same(tape.leaf(x_val, param=True), tape.leaf(k_val, param=True))
    gx, gk = node.vjp(g)
    expected_gk = _correlate_kernel(x_val, g, k_shape[-2:])
    if len(k_shape) == 2 and len(x_shape) == 3:
        expected_gk = expected_gk.sum(axis=0)
    assert _rel(node.value, _correlate(x_val, k_val, "direct")) <= 1e-12
    assert _rel(gx, _convolve(g, k_val, "direct")) <= 1e-12
    assert _rel(gk, expected_gk) <= 1e-12
    assert gx.shape == x_shape and gk.shape == k_shape


def build_fft_conv_mse(params, rng):
    x_val = rng.random((2, 20, 20))
    k_val = rng.normal(size=FFT_KERNEL) * 0.05
    if params is not None:
        x_val, k_val = params["x"], params["k"]
    tape = Tape()
    x = tape.leaf(x_val, param=True, name="x")
    k = tape.leaf(k_val, param=True, name="k")
    y = tape.sigmoid_threshold(tape.conv2d_same(x, k), tape.leaf(np.asarray(0.1)), s=5.0)
    loss = tape.mse_loss(y, np.full((2, 20, 20), 0.5))
    return tape, loss, {"x": x, "k": k}


def test_gradcheck_fft_path():
    _fd_check(build_fft_conv_mse, n_params=2)


@pytest.mark.parametrize("k_shape", [(17, 17), (3, 17, 17)], ids=["shared", "per-sample"])
def test_fft_path_is_exact_at_the_smallest_transform(k_shape):
    # 24x24 frames with a 17x17 kernel transform at P = H + c = 24 + 8 = 32,
    # the least size at which no shift wraps into the image.  Mass on the
    # image border and the kernel corners exercises the longest shifts.
    assert _Spectral((3, 24, 24), k_shape).size == (32, 32)
    rng = np.random.default_rng(11)
    x_val = rng.random((3, 24, 24)) * 0.1
    x_val[:, [0, -1], :] = 1.0
    x_val[:, :, [0, -1]] = 1.0
    k_val = rng.normal(size=k_shape) * 0.1
    k_val[..., [0, 0, -1, -1], [0, -1, 0, -1]] = 1.0
    g = rng.normal(size=x_val.shape)
    g[:, [0, -1], :] += 2.0
    tape = Tape()
    node = tape.conv2d_same(tape.leaf(x_val, param=True), tape.leaf(k_val, param=True))
    gx, gk = node.vjp(g)
    expected_gk = _correlate_kernel(x_val, g, k_shape[-2:])
    if len(k_shape) == 2:
        expected_gk = expected_gk.sum(axis=0)
    assert _rel(node.value, _correlate(x_val, k_val, "direct")) <= 1e-12
    assert _rel(gx, _convolve(g, k_val, "direct")) <= 1e-12
    assert _rel(gk, expected_gk) <= 1e-12


def test_transform_size_is_image_plus_kernel_center():
    assert _Spectral((100, 64, 64), (31, 31)).size == (80, 80)
    assert _Spectral((100, 64, 64), (25, 25)).size == (80, 80)


def _counting(module, name, counts):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    return mock.patch.object(module, name, wrapper)


@pytest.mark.parametrize("k_size,counted", [(5, (autodiff, "_convolve")), (17, (grid, "irfft2"))],
                         ids=["direct", "fft"])
def test_constant_image_gets_no_gradient(k_size, counted):
    # a two-layer rollout from a constant frame: only the first layer's image
    # needs no gradient, so backward computes one image gradient, not two
    rng = np.random.default_rng(12)
    x_val = rng.random((2, 20, 20))
    k_val = rng.normal(size=(k_size, k_size)) * 0.05
    target = rng.random((2, 20, 20))

    def run(image_is_param):
        tape = Tape()
        x = tape.leaf(x_val, param=image_is_param)
        k = tape.leaf(k_val, param=True)
        a = tape.leaf(np.asarray(0.2), param=True)
        y = x
        for _ in range(2):
            y = tape.sigmoid_threshold(tape.conv2d_same(y, k), a, s=5.0)
        loss = tape.mse_loss(y, target)
        counts = {}
        with _counting(*counted, counts):
            grads = tape.backward(loss)
        return x, grads[k], grads[a], counts[counted[1]]

    x, gk, ga, calls = run(False)
    x_param, gk_param, ga_param, calls_param = run(True)
    assert not x.requires_grad and x.grad is None
    assert x_param.grad is not None
    if k_size == 5:  # direct: one _convolve per image gradient
        assert (calls, calls_param) == (1, 2)
    else:  # fft: per layer one irfft2 for the kernel lags, one per image gradient
        assert (calls, calls_param) == (3, 4)
    assert gk.tobytes() == gk_param.tobytes()
    assert ga.tobytes() == ga_param.tobytes()


def test_conv_layer_skips_the_gradient_of_a_constant_input():
    rng = np.random.default_rng(13)
    x_val = rng.random((2, 3, 8, 8))
    w_val = rng.normal(size=(4, 3, 3, 3))
    b_val = rng.normal(size=4)
    g = rng.normal(size=(2, 4, 4, 4))

    def vjp(image_is_param):
        tape = Tape()
        x = tape.leaf(x_val, param=image_is_param)
        w, b = tape.leaf(w_val, param=True), tape.leaf(b_val, param=True)
        return tape.conv_layer(x, w, b, stride=2).vjp(g)

    gx, gw, gb = vjp(False)
    gx_param, gw_param, gb_param = vjp(True)
    assert gx is None and gx_param.shape == x_val.shape
    assert gw.tobytes() == gw_param.tobytes() and gb.tobytes() == gb_param.tobytes()


def test_requires_grad_is_derived_from_params():
    tape = Tape()
    c = tape.leaf(np.ones(3))
    p = tape.leaf(np.ones(3), param=True)
    constant = tape.scale(c, 2.0)
    mixed = tape.add(constant, p)
    assert not c.requires_grad and not constant.requires_grad and constant.vjp is None
    assert p.requires_grad and mixed.requires_grad
    tape.backward(tape.mse_loss(mixed, np.zeros(3)))
    assert c.grad is None and constant.grad is None
    assert mixed.grad is not None and p.grad is not None

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sqwa.nn import (
    LayerSpec,
    Network,
    OptimizerState,
    conv2d,
    dense,
    evaluate,
    flatten,
    forward,
    init_weights,
    loss_and_backward,
    output_shapes,
    relu,
    sgd_momentum_step,
)
from sqwa.nn import _col2im, _evaluate_stack, _forward_stack, _im2col, _plan, _stack_views
from sqwa.scoring import _label_layout, _score_pass, _sum_steps
from sqwa.data import Dataset
from sqwa.qat import fit


def _loss_only(net, batch, labels):
    # mean cross-entropy of the batch from a full log-softmax of the public
    # forward's logits, independent of the package's own loss
    logits = forward(net, batch)[0]
    z = logits - logits.max(axis=1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-z[np.arange(len(labels)), labels].sum() / len(labels))


def _gradients(net, cache, logits, labels):
    # loss_and_backward with one-hot targets into a fresh gradient buffer
    targets = np.eye(logits.shape[1])[labels]
    return loss_and_backward(net, cache, logits, targets, net.copy())


def _fd_gradients(net, batch, labels, eps=1e-5):
    """Central finite differences over every parameter."""
    grads_w, grads_b = [], []
    for i in net.param_layers():
        gw = np.zeros_like(net.weights[i])
        for idx in np.ndindex(net.weights[i].shape):
            orig = net.weights[i][idx]
            net.weights[i][idx] = orig + eps
            hi = _loss_only(net, batch, labels)
            net.weights[i][idx] = orig - eps
            lo = _loss_only(net, batch, labels)
            net.weights[i][idx] = orig
            gw[idx] = (hi - lo) / (2 * eps)
        grads_w.append(gw)
        gb = np.zeros_like(net.biases[i])
        for idx in np.ndindex(net.biases[i].shape):
            orig = net.biases[i][idx]
            net.biases[i][idx] = orig + eps
            hi = _loss_only(net, batch, labels)
            net.biases[i][idx] = orig - eps
            lo = _loss_only(net, batch, labels)
            net.biases[i][idx] = orig
            gb[idx] = (hi - lo) / (2 * eps)
        grads_b.append(gb)
    return grads_w, grads_b


def _assert_grads_close(net, grads, fd_w, fd_b, rtol=1e-4):
    for k, i in enumerate(net.param_layers()):
        scale = max(np.abs(fd_w[k]).max(), 1e-8)
        assert np.abs(grads.weights[i] - fd_w[k]).max() / scale < rtol
        scale = max(np.abs(fd_b[k]).max(), 1e-8)
        assert np.abs(grads.biases[i] - fd_b[k]).max() / scale < rtol


def test_output_shapes_dense_chain():
    shapes = output_shapes([dense(8, 24), relu(), dense(24, 10)], (8,))
    assert shapes == [(24,), (24,), (10,)]


def test_output_shapes_conv_chain():
    specs = [conv2d(1, 4, 3), relu(), flatten(), dense(4 * 4 * 4, 5)]
    shapes = output_shapes(specs, (1, 6, 6))
    assert shapes == [(4, 4, 4), (4, 4, 4), (64,), (5,)]


def test_output_shapes_mismatch_is_diagnosed():
    with pytest.raises(ValueError, match="layer 2"):
        output_shapes([dense(8, 24), relu(), dense(23, 10)], (8,))


@pytest.mark.parametrize("build, message", [
    (lambda: dense(8.0, 10), "dense fan_in must be an integer >= 1, got 8.0"),
    (lambda: dense(8, "10"), "dense fan_out must be an integer >= 1, got '10'"),
    (lambda: dense(True, 10), "dense fan_in must be an integer >= 1, got True"),
    (lambda: conv2d(1, 0, 3), "conv2d out_channels must be an integer >= 1, got 0"),
    (lambda: LayerSpec("conv2d", in_channels=1, out_channels=2),
     "conv2d kernel_size must be an integer >= 1, got None"),
    (lambda: dense(8, 10, has_bias="no"), "has_bias must be true or false, got 'no'"),
])
def test_a_layer_spec_of_the_wrong_field_types_is_refused(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_layer_sizes_may_be_numpy_integers_and_input_shapes_are_checked():
    specs = [conv2d(np.int64(1), np.int32(2), np.int64(3)), flatten(), dense(np.int64(32), 3)]
    assert output_shapes(specs, [np.int64(1), 6, 6])[-1] == (3,)
    for shape in (6, (1, 6.0, 6), (1, True, 6), (1, 0, 6)):
        with pytest.raises(ValueError, match="input_shape must be a list of integers >= 1"):
            output_shapes(specs, shape)


def test_init_weights_uniform_bound_and_zero_bias():
    net = init_weights([dense(100, 50), relu(), dense(50, 10)], (100,), seed=0)
    w0 = net.weights[0]
    bound = np.sqrt(6.0 / 100)
    assert np.abs(w0).max() <= bound
    assert np.abs(w0).max() > 0.8 * bound
    for i in net.param_layers():
        np.testing.assert_array_equal(net.biases[i], 0.0)


def test_init_weights_deterministic():
    a = init_weights([dense(5, 4)], (5,), seed=11)
    b = init_weights([dense(5, 4)], (5,), seed=11)
    np.testing.assert_array_equal(a.weights[0], b.weights[0])


def test_uniform_logits_loss_is_log_num_classes():
    # zero weights give uniform softmax, so loss is ln(k)
    specs = [dense(3, 2)]
    net = init_weights(specs, (3,), seed=0)
    net.weights[0][:] = 0.0
    x = np.random.default_rng(0).normal(size=(7, 3))
    y = np.array([0, 1, 0, 1, 1, 0, 1])
    assert _loss_only(net, x, y) == pytest.approx(np.log(2.0), abs=1e-12)


def test_gradients_match_finite_differences_dense():
    rng = np.random.default_rng(21)
    net = init_weights([dense(5, 7), relu(), dense(7, 3)], (5,), seed=21)
    x = rng.normal(size=(6, 5))
    y = rng.integers(0, 3, size=6)
    logits, cache = forward(net, x)
    grads = _gradients(net, cache, logits, y)
    fd_w, fd_b = _fd_gradients(net, x, y)
    _assert_grads_close(net, grads, fd_w, fd_b)


def test_gradients_match_finite_differences_conv():
    rng = np.random.default_rng(22)
    specs = [conv2d(2, 3, 3), relu(), flatten(), dense(3 * 3 * 3, 4)]
    net = init_weights(specs, (2, 5, 5), seed=22)
    x = rng.normal(size=(4, 2, 5, 5))
    y = rng.integers(0, 4, size=4)
    logits, cache = forward(net, x)
    grads = _gradients(net, cache, logits, y)
    fd_w, fd_b = _fd_gradients(net, x, y)
    _assert_grads_close(net, grads, fd_w, fd_b)


def _ref_conv(x, w, b):
    # direct definition: out[n, o, i, j] = sum_{c, di, dj} x[n, c, i+di, j+dj] w[o, c, di, dj] + b[o]
    n, _, h, ww = x.shape
    out_c, _, k, _ = w.shape
    out = np.zeros((n, out_c, h - k + 1, ww - k + 1))
    for idx in np.ndindex(out.shape):
        s, o, i, j = idx
        out[idx] = np.sum(x[s, :, i:i + k, j:j + k] * w[o]) + b[o]
    return out


def _ref_conv_backward(x, w, dy):
    # (dx, gw, gb) for the direct definition above, one output element at a time
    k = w.shape[2]
    dx, gw = np.zeros_like(x), np.zeros_like(w)
    for idx in np.ndindex(dy.shape):
        s, o, i, j = idx
        gw[o] += dy[idx] * x[s, :, i:i + k, j:j + k]
        dx[s, :, i:i + k, j:j + k] += dy[idx] * w[o]
    return dx, gw, dy.sum(axis=(0, 2, 3))


def _assert_rel_close(actual, expected, rtol=1e-12):
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= rtol * np.abs(expected).max()


@pytest.mark.parametrize("in_c,h,w,k0,k1,n,lead_relu,mid_relu,bias", [
    # the conv -> relu -> conv stack on a batch of three keeps its shape-only ids
    pytest.param(3, 7, 5, 3, 2, 3, False, True, True,  # several input channels, H != W
                 id="3-7-5-3-2"),
    pytest.param(2, 6, 4, 1, 3, 3, False, True, True,  # 1x1 kernel at the first conv
                 id="2-6-4-1-3"),
    pytest.param(1, 5, 5, 2, 4, 3, False, True, True,  # second kernel spans its input: 1x1 out
                 id="1-5-5-2-4"),
    pytest.param(2, 3, 3, 3, 1, 3, False, True, True,  # first kernel spans its input, then 1x1
                 id="2-3-3-3-1"),
    (3, 7, 5, 3, 2, 1, False, True, True),   # a batch of one
    (2, 6, 5, 2, 2, 2, False, True, True),   # batch size equal to the in and out channels
    (2, 6, 5, 3, 2, 4, True, True, True),    # relu before the first conv
    (2, 6, 5, 3, 2, 4, False, False, True),  # conv straight into conv
    (2, 6, 5, 3, 2, 4, False, True, False),  # convs without bias
])
def test_conv_matches_direct_reference(in_c, h, w, k0, k1, n, lead_relu, mid_relu, bias):
    rng = np.random.default_rng(24)
    mid_c, out_c, classes = 3, 2, 4
    oh, ow = h - k0 - k1 + 2, w - k0 - k1 + 2
    specs = ([relu()] * lead_relu + [conv2d(in_c, mid_c, k0, has_bias=bias)]
             + [relu()] * mid_relu + [conv2d(mid_c, out_c, k1, has_bias=bias), flatten(),
                                      dense(out_c * oh * ow, classes)])
    c0, c1, d = [i for i, spec in enumerate(specs) if spec.has_params]
    net = init_weights(specs, (in_c, h, w), seed=24)
    for i in net.param_layers():
        if net.biases[i] is not None:
            net.biases[i] = rng.normal(size=net.biases[i].shape)
    x = rng.normal(size=(n, in_c, h, w))
    y = rng.integers(0, classes, size=n)
    (w0, b0), (w1, b1), (wd, bd) = [(net.weights[i], net.biases[i]) for i in (c0, c1, d)]
    zb0, zb1 = (np.zeros(mid_c), np.zeros(out_c)) if b0 is None else (b0, b1)

    single = Network((in_c, h, w), [conv2d(in_c, mid_c, k0, has_bias=bias), flatten()])
    single.weights[0] = w0
    if bias:
        single.biases[0] = b0
    _assert_rel_close(forward(single, x)[0], _ref_conv(x, w0, zb0).reshape(n, -1))

    x0 = np.maximum(x, 0.0) if lead_relu else x
    a0 = _ref_conv(x0, w0, zb0)
    r0 = np.maximum(a0, 0.0) if mid_relu else a0
    a1 = _ref_conv(r0, w1, zb1)
    logits = a1.reshape(n, -1) @ wd.T + bd
    got_logits, cache = forward(net, x)
    _assert_rel_close(got_logits, logits)

    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    dlogits = (probs - np.eye(classes)[y]) / n
    da1 = (dlogits @ wd).reshape(a1.shape)
    dr0, gw1, gb1 = _ref_conv_backward(r0, w1, da1)
    _, gw0, gb0 = _ref_conv_backward(x0, w0, dr0 * (a0 > 0.0) if mid_relu else dr0)
    grads = _gradients(net, cache, got_logits, y)
    # the first conv's gradients are formed from the second conv's input gradient
    for i, gw, gb in ((c1, gw1, gb1), (c0, gw0, gb0)):
        _assert_rel_close(grads.weights[i], gw)
        if bias:
            _assert_rel_close(grads.biases[i], gb)
        else:
            assert grads.biases[i] is None


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(c=st.integers(1, 3), k=st.integers(1, 5), oh=st.integers(1, 5), ow=st.integers(1, 5),
       n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_col2im_is_the_adjoint_of_im2col(c, k, oh, ow, n, seed):
    # <im2col(x), D> == <x, col2im(D)> for activations held as (C, H, W, N)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(c, oh + k - 1, ow + k - 1, n))
    cols = _im2col(x, k)
    dcols = rng.normal(size=cols.shape)
    lhs, rhs = np.vdot(cols, dcols), np.vdot(x, _col2im(dcols, x.shape, k))
    assert abs(lhs - rhs) <= 1e-12 * np.vdot(np.abs(cols), np.abs(dcols))


@pytest.mark.parametrize("lead", [[], [relu()]], ids=["flatten-first", "relu-first"])
def test_image_networks_without_conv_equal_the_dense_net_on_flat_rows(lead):
    # Image activations are held batch-innermost, so the flatten copy must
    # hand dense layers exactly the rows of the reshaped batch.
    rng = np.random.default_rng(27)
    shape, classes = (2, 3, 4), 5
    x = rng.normal(size=(6, *shape))
    y = rng.integers(0, classes, size=6)
    tail = [dense(24, 7), relu(), dense(7, classes)]
    image_net = init_weights([*lead, flatten(), *tail], shape, seed=27)
    flat_net = init_weights([*lead, *tail], (24,), seed=27)
    logits, cache = forward(image_net, x)
    flat_logits, flat_cache = forward(flat_net, x.reshape(6, -1))
    np.testing.assert_array_equal(logits, flat_logits)
    grads = _gradients(image_net, cache, logits, y)
    flat_grads = _gradients(flat_net, flat_cache, flat_logits, y)
    assert _loss_only(image_net, x, y) == _loss_only(flat_net, x.reshape(6, -1), y)
    for i in flat_net.param_layers():
        np.testing.assert_array_equal(grads.weights[i + 1], flat_grads.weights[i])
        np.testing.assert_array_equal(grads.biases[i + 1], flat_grads.biases[i])


def test_gradients_match_finite_differences_conv_stack():
    rng = np.random.default_rng(25)
    specs = [conv2d(2, 3, 3), relu(), conv2d(3, 2, 2), relu(), flatten(), dense(2 * 3 * 2, 3)]
    net = init_weights(specs, (2, 6, 5), seed=25)
    for i in net.param_layers():
        net.biases[i] = rng.normal(scale=0.1, size=net.biases[i].shape)
    x = rng.normal(size=(4, 2, 6, 5))
    y = rng.integers(0, 3, size=4)
    logits, cache = forward(net, x)
    grads = _gradients(net, cache, logits, y)
    fd_w, fd_b = _fd_gradients(net, x, y)
    _assert_grads_close(net, grads, fd_w, fd_b)


@pytest.mark.parametrize("specs,shape", [
    ([dense(5, 4), relu(), dense(4, 3)], (5,)),
    ([conv2d(2, 3, 3), relu(), flatten(), dense(3 * 3 * 2, 3)], (2, 5, 4)),
])
def test_first_layer_gradients_unchanged_without_input_gradient(specs, shape):
    # A leading relu on a non-negative batch is the identity, and makes the
    # same layer second, where its input gradient is formed.
    rng = np.random.default_rng(26)
    x = np.abs(rng.normal(size=(6, *shape)))
    y = rng.integers(0, 3, size=6)
    net = init_weights(specs, shape, seed=26)
    shifted = Network(net.input_shape, [relu()] + net.specs)
    shifted.flat[:] = net.flat  # a relu has no parameters: the same buffer order
    logits, cache = forward(net, x)
    grads = _gradients(net, cache, logits, y)
    logits, cache = forward(shifted, x)
    shifted_grads = _gradients(shifted, cache, logits, y)
    for i in net.param_layers():
        np.testing.assert_array_equal(grads.weights[i], shifted_grads.weights[i + 1])
        np.testing.assert_array_equal(grads.biases[i], shifted_grads.biases[i + 1])


def test_momentum_update_sequence():
    # one weight, constant gradient 1, lr 0.1, momentum 0.9:
    # buffers 1, 1.9, 2.71; weight 0 -> -0.1 -> -0.29 -> -0.561
    net = Network(input_shape=(1,), specs=[dense(1, 1, has_bias=False)])
    state = OptimizerState.for_network(net, momentum=0.9)
    grads = net.copy()
    grads.flat[:] = 1.0

    seen = []
    for _ in range(3):
        sgd_momentum_step(net, grads, state, lr=0.1)
        seen.append(net.weights[0][0, 0])
    np.testing.assert_allclose(seen, [-0.1, -0.29, -0.561], atol=1e-12)
    buffers_w = state.buffers.weights
    assert buffers_w[0][0, 0] == pytest.approx(2.71, abs=1e-12)


def test_l2_applies_to_weights_not_biases():
    net = init_weights([dense(2, 2)], (2,), seed=5)
    net.weights[0][:] = 1.0
    net.biases[0][:] = 1.0
    state = OptimizerState.for_network(net, momentum=0.0, l2_scale=0.5)
    grads = net.copy()
    grads.flat[:] = 0.0

    sgd_momentum_step(net, grads, state, lr=1.0)
    np.testing.assert_allclose(net.weights[0], 0.5)
    np.testing.assert_allclose(net.biases[0], 1.0)


@pytest.mark.parametrize("l2", [1e-3, 0.37])
def test_l2_step_equals_the_copying_formula_and_leaves_grads_alone(l2):
    # the weight-decay term is formed in the optimizer's scratch: the same
    # bits as adding it to a copy of the gradients, no gradient written, and
    # no array of the buffer's size allocated but the lr * buffer product
    rng = np.random.default_rng(36)
    net = init_weights([dense(300, 300), relu(), dense(300, 10)], (300,), seed=36)
    for i in net.param_layers():
        net.biases[i] = rng.normal(size=net.biases[i].shape)
    ref, ref_buf = net.flat.copy(), np.zeros_like(net.flat)
    state = OptimizerState.for_network(net, momentum=0.9, l2_scale=l2)
    nw = net.weight_size
    for step in range(3):
        grads = net.copy()
        grads.flat[:] = rng.normal(size=grads.flat.shape)
        g = grads.flat.copy()
        g[:nw] += l2 * ref[:nw]
        ref_buf *= 0.9
        ref_buf += g
        ref -= 0.05 * ref_buf
        before = grads.flat.copy()
        tracemalloc.start()
        try:
            sgd_momentum_step(net, grads, state, lr=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(grads.flat, before)
        assert np.array_equal(net.flat, ref) and np.array_equal(state.buffers.flat, ref_buf)
        assert peak < 1.5 * net.flat.nbytes


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), -0.1])
def test_a_bad_rate_is_refused_before_the_update(lr):
    # a NaN rate once passed the `lr < 0.0` check and wrote NaN weights
    net = init_weights([dense(2, 2)], (2,), seed=6)
    state = OptimizerState.for_network(net, momentum=0.9)
    grads = net.copy()
    before = net.flat.copy()
    with pytest.raises(ValueError, match=f"^learning rate must be finite and >= 0, got {lr}$"):
        sgd_momentum_step(net, grads, state, lr)
    assert np.array_equal(net.flat, before) and not state.buffers.flat.any()


@pytest.mark.parametrize("l2_scale", [float("nan"), float("inf")])
def test_a_non_finite_l2_scale_is_refused(l2_scale):
    net = init_weights([dense(2, 2)], (2,), seed=7)
    with pytest.raises(ValueError, match=f"^l2_scale must be finite, got {l2_scale}$"):
        OptimizerState.for_network(net, momentum=0.9, l2_scale=l2_scale)


def test_training_reduces_loss():
    rng = np.random.default_rng(31)
    net = init_weights([dense(4, 16), relu(), dense(16, 3)], (4,), seed=31)
    x = rng.normal(size=(30, 4))
    y = rng.integers(0, 3, size=30)
    state = OptimizerState.for_network(net, momentum=0.9)
    before = _loss_only(net, x, y)
    for _ in range(50):
        logits, cache = forward(net, x)
        grads = _gradients(net, cache, logits, y)
        sgd_momentum_step(net, grads, state, lr=0.05)
    assert _loss_only(net, x, y) < 0.5 * before


def test_evaluate_is_order_deterministic():
    rng = np.random.default_rng(32)
    net = init_weights([dense(3, 4), relu(), dense(4, 2)], (3,), seed=32)
    data = Dataset(images=rng.normal(size=(37, 3)),
                   labels=rng.integers(0, 2, size=37), num_classes=2)
    a = evaluate(net, data, batch_size=8)
    b = evaluate(net, data, batch_size=16)
    assert a[0] == pytest.approx(b[0], rel=1e-12)
    assert a[1] == b[1]


def test_evaluate_is_batch_weighted_mean_of_loss_only():
    rng = np.random.default_rng(33)
    net = init_weights([dense(3, 4), relu(), dense(4, 3)], (3,), seed=33)
    data = Dataset(images=rng.normal(size=(37, 3)),
                   labels=rng.integers(0, 3, size=37), num_classes=3)
    loss_sum, correct = 0.0, 0
    for start in range(0, 37, 16):
        xb, yb = data.images[start:start + 16], data.labels[start:start + 16]
        loss_sum += _loss_only(net, xb, yb) * xb.shape[0]
        correct += int((forward(net, xb)[0].argmax(axis=1) == yb).sum())
    assert evaluate(net, data, batch_size=16) == (loss_sum / 37, correct / 37)


def test_evaluate_rejects_out_of_range_labels():
    net = init_weights([dense(3, 2)], (3,), seed=34)
    data = Dataset(images=np.zeros((5, 3)), labels=np.array([0, 1, 2, 0, 1]), num_classes=3)
    with pytest.raises(ValueError, match="labels must lie in"):
        evaluate(net, data, batch_size=2)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_evaluate_rejects_a_batch_size_below_one(batch_size):
    net = init_weights([dense(3, 2)], (3,), seed=34)
    data = Dataset(images=np.zeros((5, 3)), labels=np.zeros(5, dtype=np.int64), num_classes=2)
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        evaluate(net, data, batch_size=batch_size)


def test_evaluate_holds_at_most_one_column_matrix():
    # The benchmark's CNN at evaluate's batch of 256: the second conv's
    # column matrix, 100 x (8*8*256) doubles (12.5 MiB), is the largest
    # array. Keeping the first conv's columns (7 MiB) alive while it is
    # built would push the peak past this bound, and so would keeping each
    # layer's input as forward's cache does (16.3 MiB).
    specs = [conv2d(1, 4, 5), relu(), conv2d(4, 8, 5), relu(), flatten(), dense(512, 10)]
    net = init_weights(specs, (1, 16, 16), seed=35)
    rng = np.random.default_rng(35)
    data = Dataset(images=rng.normal(size=(600, 1, 16, 16)),
                   labels=rng.integers(0, 10, size=600), num_classes=10)
    tracemalloc.start()
    try:
        evaluate(net, data, batch_size=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100 * 8 * 8 * 256 * 8 + 3.5 * 2**20


def test_evaluate_holds_at_most_one_block_of_columns():
    # The same evaluation builds each conv layer's columns a block of
    # output rows at a time, at most _COLUMN_VALUES float64 values (2 MiB),
    # so neither column matrix above is ever whole. The slack, 2.5 MiB,
    # covers the layer's input and output beside the block (1.125 MiB and
    # 1 MiB at the second conv) and the scoring's small buffers.
    import sqwa.nn
    net = init_weights(*BUFFER_NETS["benchmark-cnn"], seed=35)
    rng = np.random.default_rng(35)
    data = Dataset(images=rng.normal(size=(600, 1, 16, 16)),
                   labels=rng.integers(0, 10, size=600), num_classes=10)
    tracemalloc.start()
    try:
        evaluate(net, data, batch_size=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sqwa.nn._COLUMN_VALUES * 8 + 2.5 * 2**20


def _reference_evaluate(net, data, batch_size):
    # per batch: the public forward, a full log-softmax, argmax
    n = data.images.shape[0]
    loss_sum, correct = 0.0, 0
    for start in range(0, n, batch_size):
        xb, yb = data.images[start:start + batch_size], data.labels[start:start + batch_size]
        logits = forward(net, xb)[0]
        z = logits - logits.max(axis=1, keepdims=True)
        z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
        loss_sum += float(-z[np.arange(len(yb)), yb].sum() / len(yb)) * len(yb)
        correct += int((logits.argmax(axis=1) == yb).sum())
    return loss_sum / n, correct / n


EVAL_NETS = {
    "dense": ([dense(6, 9), relu(), dense(9, 5)], (6,)),
    "dense-bias-free-hidden": ([dense(6, 9, has_bias=False), relu(), dense(9, 5)], (6,)),
    "conv-flatten-dense": ([conv2d(2, 3, 3), relu(), flatten(), dense(48, 5)], (2, 6, 6)),
    "flatten-first": ([flatten(), dense(18, 7), relu(), dense(7, 5)], (2, 3, 3)),
}


# (net, samples, batch size): 30 samples at four batch sizes on every net,
# and on a dense net the benchmark CNN's split, 600 samples at evaluate's
# batch of 256 with a short last batch of 88
EVAL_INPUTS = [pytest.param(name, 30, batch_size, id=f"{name}-{case}") for name in sorted(EVAL_NETS)
               for batch_size, case in [(7, "short-last"), (29, "single-row-last"),
                                        (30, "one-batch"), (64, "beyond-n")]]
EVAL_INPUTS.append(pytest.param("dense", 600, 256, id="dense-600-at-256"))


@pytest.mark.parametrize("name, samples, batch_size", EVAL_INPUTS)
def test_evaluate_equals_the_per_batch_reference(name, samples, batch_size):
    specs, shape = EVAL_NETS[name]
    net = init_weights(specs, shape, seed=39)
    for i in net.param_layers():
        if net.biases[i] is not None:
            net.biases[i] = np.linspace(-0.5, 0.5, net.biases[i].size)
    rng = np.random.default_rng(39)
    data = Dataset(images=rng.normal(size=(samples, *shape)),
                   labels=rng.integers(0, 5, size=samples), num_classes=5)
    assert evaluate(net, data, batch_size) == _reference_evaluate(net, data, batch_size)


@pytest.mark.parametrize("stack_size", [1, 2, 5])
@pytest.mark.parametrize("name, samples, batch_size", EVAL_INPUTS)
def test_the_stacked_kernel_equals_evaluate_of_each_member(name, samples, batch_size, stack_size):
    specs, shape = EVAL_NETS[name]
    nets = [init_weights(specs, shape, seed=41 + k) for k in range(stack_size)]
    for k, net in enumerate(nets):
        for i in net.param_layers():
            if net.biases[i] is not None:
                net.biases[i] = np.linspace(-0.5, 0.5, net.biases[i].size) * (k + 1)
    rng = np.random.default_rng(41)
    data = Dataset(images=rng.normal(size=(samples, *shape)),
                   labels=rng.integers(0, 5, size=samples), num_classes=5)
    expected = [evaluate(net, data, batch_size) for net in nets]
    stack = np.stack([net.flat for net in nets])
    scratch = {}
    loss, acc = _evaluate_stack(nets[0], stack, data, batch_size, scratch)
    assert list(zip(loss.tolist(), acc.tolist())) == expected
    # a smaller stack then reuses the front of the same buffers
    loss, acc = _evaluate_stack(nets[0], stack[-1:], data, batch_size, scratch)
    assert list(zip(loss.tolist(), acc.tolist())) == expected[-1:]


def test_evaluate_rejects_a_wrong_input_shape_before_any_batch(monkeypatch):
    import sqwa.nn
    net = init_weights([dense(3, 2)], (3,), seed=40)
    data = Dataset(images=np.zeros((9, 4)), labels=np.zeros(9, dtype=np.int64), num_classes=2)
    with pytest.raises(ValueError) as expected:
        forward(net, data.images)
    batches = []
    monkeypatch.setattr(sqwa.nn, "_forward_stack", lambda *args: batches.append(args))
    with pytest.raises(ValueError) as raised:
        evaluate(net, data, batch_size=4)
    assert str(raised.value) == str(expected.value) == \
        "network input: expected batch of shape (N, 3), got (9, 4)"
    assert batches == []


BUFFER_NETS = {
    "default-mlp": ([dense(8, 24), relu(), dense(24, 10)], (8,)),
    "benchmark-cnn": ([conv2d(1, 4, 5), relu(), conv2d(4, 8, 5), relu(), flatten(),
                       dense(512, 10)], (1, 16, 16)),
    "relu-first": ([relu(), dense(8, 6), relu(), dense(6, 3)], (8,)),
    "flatten-then-relu": ([flatten(), relu(), dense(18, 6), relu(), dense(6, 3)], (2, 3, 3)),
}


@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("name", sorted(BUFFER_NETS))
def test_forward_leaves_the_callers_batch_unchanged(name, rows):
    # relu runs in place only on arrays the kernel made; a one-row image
    # batch enters, transposed and flattened, as views of the caller's array
    specs, shape = BUFFER_NETS[name]
    net = init_weights(specs, shape, seed=42)
    batch = np.random.default_rng(42).normal(size=(rows, *shape))
    before = batch.copy()
    scratch = {}
    kept = [forward(net, batch, scratch)[0].copy() for _ in range(2)]
    assert np.array_equal(batch, before)
    assert np.array_equal(kept[0], kept[1]) and np.array_equal(kept[0], forward(net, batch)[0])


def test_a_kept_scratch_follows_the_network_it_is_given():
    # the parameter views are rebuilt when another network brings the scratch
    specs, shape = BUFFER_NETS["default-mlp"]
    nets = [init_weights(specs, shape, seed=seed) for seed in (43, 44)]
    batch = np.random.default_rng(43).normal(size=(7, *shape))
    scratch = {}
    for net in nets + nets[::-1]:
        assert np.array_equal(forward(net, batch, scratch)[0], forward(net, batch)[0])


@pytest.mark.parametrize("name", sorted(BUFFER_NETS))
def test_a_kept_plan_is_rebuilt_for_another_network_or_batch_width(name):
    # one scratch given two networks of the same specs at the default
    # recipe's batch widths, 32 and its epochs' last 8, and 1: every call's
    # logits and cache equal those of a call with a fresh scratch
    specs, shape = BUFFER_NETS[name]
    nets = [init_weights(specs, shape, seed=seed) for seed in (45, 46)]
    rng = np.random.default_rng(45)
    scratch = {}
    for k, rows in [(0, 32), (1, 32), (1, 8), (0, 8), (0, 32), (1, 1), (1, 32)]:
        batch = rng.normal(size=(rows, *shape))
        logits, cache = forward(nets[k], batch, scratch)
        fresh_logits, fresh_cache = forward(nets[k], batch)
        assert np.array_equal(logits, fresh_logits)
        assert len(cache) == len(fresh_cache)
        assert all(np.array_equal(a, b) for a, b in zip(cache, fresh_cache))


@pytest.mark.parametrize("name", ["dense", "conv-flatten-dense"])
def test_one_evaluation_scratch_follows_every_stack_it_is_given(name):
    # fresh stack arrays of other sizes, and one array refilled in place,
    # through one scratch: each row equals evaluate of its network
    specs, shape = EVAL_NETS[name]
    nets = [init_weights(specs, shape, seed=47 + k) for k in range(5)]
    rng = np.random.default_rng(47)
    data = Dataset(images=rng.normal(size=(30, *shape)), labels=rng.integers(0, 5, size=30),
                   num_classes=5)
    expected = [evaluate(net, data, 7) for net in nets]
    scratch = {}
    for members in ([0, 1, 2], [3], [1, 4], [0, 1, 2, 3, 4], [2]):
        stack = np.stack([nets[k].flat for k in members])
        loss, acc = _evaluate_stack(nets[0], stack, data, 7, scratch)
        assert list(zip(loss.tolist(), acc.tolist())) == [expected[k] for k in members]
    stack[0] = nets[4].flat
    loss, acc = _evaluate_stack(nets[0], stack, data, 7, scratch)
    assert list(zip(loss.tolist(), acc.tolist())) == [expected[4]]


# (net, samples, batch, a _COLUMN_VALUES that splits its conv rows unevenly):
# 3 + 1 of the 4 rows of a batch of 7; and the benchmark CNN over 600
# samples at evaluate's batch, whose first conv runs 9 + 3 of its 12 rows
# and second 3 + 3 + 2 of its 8 at S = 1, and at S = 3 the last batch of 88
# too
COLUMN_NETS = {"conv-flatten-dense": (*EVAL_NETS["conv-flatten-dense"], 30, 7, 1512),
               "benchmark-cnn": (*BUFFER_NETS["benchmark-cnn"], 600, 256, 700_000)}


def _conv_results(net, data, batch_size, nets):
    # forward's logits and cache on a batch of 32, evaluate, and the stacked
    # kernel's losses and accuracies for `nets`
    forwarded = forward(net, data.images[:32])
    stacked = _evaluate_stack(net, np.stack([m.flat for m in nets]), data, batch_size)
    return ([forwarded[0].copy()] + [c.copy() for c in forwarded[1]], evaluate(net, data, batch_size),
            [a.tolist() for a in stacked])


@pytest.mark.parametrize("split", ["row", "uneven", "default"])
@pytest.mark.parametrize("name", sorted(COLUMN_NETS))
def test_column_blocks_of_every_size_keep_every_bit(monkeypatch, name, split):
    # forward, evaluate and a stack of 3 with _COLUMN_VALUES at 1 (one
    # output row per block), at an uneven split and at its default equal,
    # bit for bit, what whole-batch column matrices give
    import sqwa.nn
    specs, shape, samples, batch_size, uneven = COLUMN_NETS[name]
    nets = [init_weights(specs, shape, seed=50 + k) for k in range(3)]
    for k, net in enumerate(nets):
        for i in net.param_layers():
            net.biases[i] = np.linspace(-0.5, 0.5, net.biases[i].size) * (k + 1)
    rng = np.random.default_rng(50)
    data = Dataset(images=rng.normal(size=(samples, *shape)),
                   labels=rng.integers(0, 5, size=samples), num_classes=nets[0].num_classes)
    values = {"row": 1, "uneven": uneven, "default": sqwa.nn._COLUMN_VALUES}[split]
    monkeypatch.setattr(sqwa.nn, "_COLUMN_VALUES", 2**40)
    whole = _conv_results(nets[0], data, batch_size, nets)
    monkeypatch.setattr(sqwa.nn, "_COLUMN_VALUES", values)
    blocked = _conv_results(nets[0], data, batch_size, nets)
    assert all(np.array_equal(a, b) for a, b in zip(whole[0], blocked[0]))
    assert whole[1:] == blocked[1:]


# The default MLP's dense layers as (fan_out, fan_in), and the batches its
# recipe and surfaces run: 136 and 8 are 5,000 mod 256 and mod 32, the last
# batches of an evaluation and of an epoch.
PINNED_PRODUCTS, PINNED_BATCHES = [(24, 8), (10, 24)], [1, 8, 32, 136, 256]


def _product_mismatches():
    # (fan_out, fan_in, batch, S) at which the forward kernel's W @ X.T, on
    # batch-innermost activations, differs in any bit from X @ W.T of each
    # member, the batch-first product; the default recipe's sha256 pins rest
    # on their agreement. Other batch sizes may differ in the last bits, and
    # do under OpenBLAS's Haswell and SkylakeX kernels (README "Parameter
    # layout").
    rng = np.random.default_rng(48)
    mismatches = []
    for fan_out, fan_in in PINNED_PRODUCTS:
        net = Network((fan_in,), [dense(fan_in, fan_out, has_bias=False)])
        for s in (1, 8):
            stack = rng.uniform(-0.5, 0.5, size=(s, net.flat.size))
            weights, biases = _stack_views(net, stack[0] if s == 1 else stack)   # S = 1: no stack axis
            members = weights[0].reshape(s, fan_out, fan_in)
            for n in PINNED_BATCHES:
                x = rng.normal(size=(n, fan_in))
                got = _forward_stack(_plan(net.specs, weights, biases, n, {}), x).reshape(s, fan_out, n)
                if not (got.transpose(0, 2, 1) == np.stack([x @ w.T for w in members])).all():
                    mismatches.append((fan_out, fan_in, n, s))
    return mismatches


def test_the_dense_product_keeps_the_batch_first_bits_at_the_pinned_shapes():
    assert _product_mismatches() == []


def _cpu_flags():
    try:
        return set(Path("/proc/cpuinfo").read_text().split())
    except OSError:
        return set()


def _printed_under_blas_kernel(core, flags, check):
    # What test_nn.<check>() prints in a process whose OpenBLAS is forced
    # onto `core`; skips a kernel whose instructions the CPU lacks
    missing = [flag for flag in flags if flag not in _cpu_flags()]
    if missing:
        pytest.skip(f"OpenBLAS's {core} kernel needs {', '.join(missing)}, which this CPU lacks")
    here = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "OPENBLAS_VERBOSE": "2",
           "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here),
                                          os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", f"import test_nn; print(test_nn.{check}())"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    cores = re.findall(r"^Core: (\w+)", run.stderr, re.M)
    if not cores:
        pytest.skip("numpy's BLAS names no kernel it can be forced onto (not an OpenBLAS "
                    "built for several CPUs)")
    assert cores == [core]
    return run.stdout.strip()


# test_default_recipe_outputs_are_pinned names these kernels; each runs
# the checks here in a process whose OpenBLAS is forced onto it
PINNED_KERNELS = [("Haswell", ("avx2", "fma")), ("SkylakeX", ("avx512f",))]


@pytest.mark.parametrize("core, flags", PINNED_KERNELS)
def test_the_dense_product_keeps_its_bits_under_each_blas_kernel_the_pins_name(core, flags):
    assert _printed_under_blas_kernel(core, flags, "_product_mismatches") == "[]"


# Every batch up to 63, and an evaluation's 136 and 256
DOT_BATCHES = [*range(1, 64), 136, 256]


def _dot_mismatches():
    # (product, fan_out, fan_in, batch) at which np.dot, which a step and
    # an evaluation call at S = 1, differs in any bit from np.matmul of the
    # same operands, which the stacked kernel calls and which made the
    # default recipe's pins, for the default MLP's five products: the
    # forward W @ X on batch-innermost activations (np.matmul on a stack of
    # one) and the backward's dY.T @ X and dY @ W on row-major ones
    rng = np.random.default_rng(51)
    mismatches = []
    for n in DOT_BATCHES:
        for fan_out, fan_in in PINNED_PRODUCTS:
            w = rng.uniform(-0.5, 0.5, size=(fan_out, fan_in))
            x, dy = rng.normal(size=(fan_in, n)), rng.normal(size=(n, fan_out))
            rows = np.ascontiguousarray(x.T)
            pairs = {"forward": (np.dot(w, x, out=np.empty((fan_out, n))),
                                 np.matmul(w[None], x[None])[0]),
                     "weight gradient": (np.dot(dy.T, rows, out=np.empty(w.shape)),
                                         np.matmul(dy.T, rows, out=np.empty(w.shape)))}
            if fan_in == PINNED_PRODUCTS[0][0]:   # the input gradient of the second layer
                pairs["input gradient"] = (np.dot(dy, w), np.matmul(dy, w))
            mismatches += [(name, fan_out, fan_in, n) for name, (a, b) in pairs.items()
                           if not np.array_equal(a, b)]
    return mismatches


def test_the_2d_products_keep_the_stacked_products_bits_at_the_default_mlps_shapes():
    assert _dot_mismatches() == []


@pytest.mark.parametrize("core, flags", PINNED_KERNELS)
def test_the_2d_products_keep_their_bits_under_each_blas_kernel_the_pins_name(core, flags):
    assert _printed_under_blas_kernel(core, flags, "_dot_mismatches") == "[]"


# The benchmark CNN's batches: 32 in training, 256 and 88 (600 mod 256)
# in evaluation, and 1
COLUMN_BATCHES = [1, 32, 88, 256]


def _column_mismatches():
    # (in_c, out_c, batch, S) at which a conv layer of the forward kernel,
    # which builds its columns in blocks of output rows, differs in any bit
    # from each member's whole-batch product w.reshape(out_c, -1) @
    # _im2col(x, k), for the benchmark CNN's 1->4 and 4->8 convs (k = 5) on
    # its 16x16 images; the second takes the first's stacked output
    rng = np.random.default_rng(49)
    net = Network((1, 16, 16), [conv2d(1, 4, 5, has_bias=False), conv2d(4, 8, 5, has_bias=False),
                                flatten()])
    mismatches = []
    for s in (1, 8):
        stack = rng.uniform(-0.5, 0.5, size=(s, net.flat.size))
        weights, biases = _stack_views(net, stack[0] if s == 1 else stack)   # S = 1: no stack axis
        for n in COLUMN_BATCHES:
            cache = []
            x = rng.normal(size=(n, 1, 16, 16))
            _forward_stack(_plan(net.specs, weights, biases, n, {}), x, cache)
            for i in (0, 1):
                # the first layer's input has no stack axis, the second's has one at S > 1
                inputs = cache[i].reshape(-1, *cache[i].shape[-4:])
                members = weights[i].reshape(s, *weights[i].shape[-4:])
                out_c = members.shape[1]
                outputs = cache[i + 1].reshape(s, out_c, -1)
                if not all((outputs[j] == w.reshape(out_c, -1) @ _im2col(inputs[j % len(inputs)],
                                                                          5)).all()
                           for j, w in enumerate(members)):
                    mismatches.append((members.shape[2], out_c, n, s))
    return mismatches


def test_conv_column_blocks_keep_the_whole_batch_bits():
    assert _column_mismatches() == []


@pytest.mark.parametrize("core, flags", PINNED_KERNELS)
def test_conv_column_blocks_keep_their_bits_under_each_blas_kernel_the_pins_name(core, flags):
    assert _printed_under_blas_kernel(core, flags, "_column_mismatches") == "[]"


SPECIAL_LOGITS = np.array([0.0, -0.0, 1.0, np.inf, -np.inf, np.nan, 1e308, -1e308])


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(c=st.integers(1, 20) | st.sampled_from([129, 136, 200, 300]), n=st.integers(1, 300),
       s=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       special=st.sampled_from([0.0, 0.02, 0.3]), coarse=st.booleans(),
       equal_rows=st.sampled_from([0.0, 0.2, 1.0]))
def test_batch_loss_equals_the_full_log_softmax_loss(c, n, s, seed, special, coarse, equal_rows):
    # each member of a stack of S logit matrices: the loss and the hits
    # equal a full log-softmax's and argmax's, at class counts that reach
    # every branch of the class sum
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=5.0, size=(s, n, c))
    if coarse:  # a few distinct values per row, so maxima tie
        logits = np.round(logits / 4.0)
    same = rng.random((s, n)) < equal_rows
    logits[same] = logits[same, :1]
    hit = rng.random((s, n, c)) < special
    logits[hit] = rng.choice(SPECIAL_LOGITS, size=int(hit.sum()))
    labels = rng.integers(0, c, size=n)
    hits = np.empty((s, n), bool)
    with np.errstate(all="ignore"):
        # a class-major copy, which the kernel overwrites
        got = -_score_pass(logits.transpose(2, 0, 1).copy(), *_label_layout(labels, n, c, s),
                           hits) / n
        for member, loss in zip(logits, got):
            z = member - member.max(axis=1, keepdims=True)
            z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
            expected = float(-z[np.arange(n), labels].sum() / n)
            assert loss == expected or (np.isnan(loss) and np.isnan(expected))
    assert np.array_equal(hits, logits.argmax(axis=-1) == labels)


def test_class_sum_follows_numpys_row_sum_order():
    # _sum_steps rebuilds numpy's pairwise row sum from adds of class
    # blocks; a numpy that sums rows in another order fails here rather
    # than shifting the bits of every loss. Positive values spread over 40
    # decades show any change of order; the special values check overflow,
    # infinities, NaN and the sign of a zero sum, with numpy's final + 0.0,
    # which _sum_steps leaves out, added back.
    rng = np.random.default_rng(46)
    special = np.array([0.0, -0.0, 1.0, -3.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324])
    for c in range(1, 301):
        positive = np.exp(rng.normal(scale=15.0, size=(3, 40, c)))
        mixed = rng.choice(special, size=(3, 40, c))
        zeros = rng.choice([0.0, -0.0], size=(3, 40, c), p=[0.1, 0.9])
        for rows in (positive, mixed, zeros):
            got, by_class = np.empty((3, 40)), rows.transpose(2, 0, 1).copy()
            with np.errstate(all="ignore"):
                expected = np.add.reduce(rows, axis=-1)
                for a, b, into in _sum_steps(by_class, got):
                    np.add(a, b, out=into)
                got += 0.0
            assert np.array_equal(got, expected, equal_nan=True), c
            # zero sums keep their sign; a NaN's sign follows operand
            # order, which numpy leaves open
            real = ~np.isnan(expected)
            assert np.array_equal(np.signbit(got[real]), np.signbit(expected[real])), c


def test_network_copy_is_deep():
    net = init_weights([dense(2, 2)], (2,), seed=6)
    dup = net.copy()
    dup.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != dup.weights[0][0, 0]


@pytest.mark.parametrize("labels", [[0, 1, 3, 0, 1], [0, 1, -1, 0, 1]])
def test_direct_calls_reject_out_of_range_labels(labels):
    # the public calls that take labels: evaluate, and fit, whose steps
    # take one-hot targets made from labels it checked
    net = init_weights([dense(3, 3)], (3,), seed=35)
    data = Dataset(np.zeros((5, 3)), np.zeros(5, dtype=np.int64), 3)
    data.labels = np.array(labels)      # past the Dataset's own check
    with pytest.raises(ValueError, match="labels must lie in"):
        evaluate(net, data)
    with pytest.raises(ValueError, match="labels must lie in"):
        fit(net, data, [0.1], seed=35)


@pytest.mark.parametrize("labels, value", [([0.5, 1.7], "0.5"), ([np.nan, 1.0], "nan"),
                                           ([1.0, -np.inf], "-inf")],
                         ids=["fractional", "nan", "minus-inf"])
def test_fractional_and_non_finite_labels_are_refused_by_value(labels, value):
    # a float label that is not a finite whole number is named, not
    # truncated: by the Dataset and by the calls that take labels
    message = re.escape(f"labels must be finite whole numbers, got {value}")
    with pytest.raises(ValueError, match=message):
        Dataset(np.ones((2, 3)), np.array(labels), 2)
    net = init_weights([dense(3, 2)], (3,), seed=35)
    data = Dataset(np.ones((2, 3)), np.array([1.0, 0.0]), 2)   # whole floats are labels
    assert data.labels.tolist() == [1, 0] and data.labels.dtype == np.int64
    data.labels = np.array(labels)      # past the Dataset's own check
    with pytest.raises(ValueError, match=message):
        evaluate(net, data)
    with pytest.raises(ValueError, match=message):
        fit(net, data, [0.1], seed=35)


def test_fit_and_evaluate_check_int64_labels_without_copying_them(monkeypatch):
    # the label check hands a dataset's own int64 array back, so neither
    # call copies the labels it checks
    import sqwa.nn
    import sqwa.qat
    checked = []

    def spy(labels, n, num_classes):
        checked.append(check(labels, n, num_classes))
        return checked[-1]

    check = sqwa.nn._check_labels
    monkeypatch.setattr(sqwa.nn, "_check_labels", spy)
    monkeypatch.setattr(sqwa.qat, "_check_labels", spy)
    net = init_weights([dense(3, 2)], (3,), seed=36)
    data = Dataset(np.zeros((5, 3)), np.array([0, 1, 1, 0, 1]), 2)
    fit(net, data, [0.1], seed=36)
    evaluate(net, data)
    assert len(checked) == 2 and all(labels is data.labels for labels in checked)


def test_backward_kernel_overwrites_every_gradient_view():
    # the training loop reuses one gradient buffer, so the kernel must write
    # all of it: a buffer of NaNs comes out equal to a fresh call's gradients
    rng = np.random.default_rng(38)
    net = init_weights([conv2d(2, 3, 3), relu(), conv2d(3, 2, 2, has_bias=False), relu(),
                        flatten(), dense(18, 5, has_bias=False), relu(), dense(5, 4)],
                       (2, 6, 6), seed=38)
    x = rng.normal(size=(6, 2, 6, 6))
    y = rng.integers(0, 4, size=6)
    logits, cache = forward(net, x)
    expected = _gradients(net, cache, logits, y)
    grads = net.copy()
    grads.flat[:] = np.nan
    assert loss_and_backward(net, cache, logits, np.eye(4)[y], grads) is grads
    assert np.array_equal(grads.flat, expected.flat)

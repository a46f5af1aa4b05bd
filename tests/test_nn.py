import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sqwa.nn import (
    Gradients,
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
from sqwa.nn import _batch_loss, _col2im, _im2col
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
    return loss_and_backward(net, cache, logits, targets, Gradients.like(net))


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

    single = Network((in_c, h, w), [conv2d(in_c, mid_c, k0, has_bias=bias), flatten()],
                     [w0, None], [b0, None])
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
    shifted = Network(net.input_shape, [relu()] + net.specs, [None] + net.weights,
                      [None] + net.biases)
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
    net = Network(input_shape=(1,), specs=[dense(1, 1, has_bias=False)],
                  weights=[np.zeros((1, 1))], biases=[None])
    state = OptimizerState.for_network(net, momentum=0.9)
    grads = Gradients.like(net)
    grads.flat[:] = 1.0

    seen = []
    for _ in range(3):
        sgd_momentum_step(net, grads, state, lr=0.1)
        seen.append(net.weights[0][0, 0])
    np.testing.assert_allclose(seen, [-0.1, -0.29, -0.561], atol=1e-12)
    assert state.buffers_w[0][0, 0] == pytest.approx(2.71, abs=1e-12)


def test_l2_applies_to_weights_not_biases():
    net = init_weights([dense(2, 2)], (2,), seed=5)
    net.weights[0][:] = 1.0
    net.biases[0][:] = 1.0
    state = OptimizerState.for_network(net, momentum=0.0, l2_scale=0.5)
    grads = Gradients.like(net)
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
        grads = Gradients.like(net)
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
        assert np.array_equal(net.flat, ref) and np.array_equal(state.flat, ref_buf)
        assert peak < 1.5 * net.flat.nbytes


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
    "conv-flatten-dense": ([conv2d(2, 3, 3), relu(), flatten(), dense(48, 5)], (2, 6, 6)),
    "flatten-first": ([flatten(), dense(18, 7), relu(), dense(7, 5)], (2, 3, 3)),
}


@pytest.mark.parametrize("batch_size", [7, 30, 64], ids=["short-last", "one-batch", "beyond-n"])
@pytest.mark.parametrize("name", sorted(EVAL_NETS))
def test_evaluate_equals_the_per_batch_reference(name, batch_size):
    specs, shape = EVAL_NETS[name]
    net = init_weights(specs, shape, seed=39)
    for i in net.param_layers():
        net.biases[i] = np.linspace(-0.5, 0.5, net.biases[i].size)
    rng = np.random.default_rng(39)
    data = Dataset(images=rng.normal(size=(30, *shape)), labels=rng.integers(0, 5, size=30),
                   num_classes=5)
    assert evaluate(net, data, batch_size) == _reference_evaluate(net, data, batch_size)


def test_evaluate_rejects_a_wrong_input_shape_before_any_batch(monkeypatch):
    import sqwa.nn
    net = init_weights([dense(3, 2)], (3,), seed=40)
    data = Dataset(images=np.zeros((9, 4)), labels=np.zeros(9, dtype=np.int64), num_classes=2)
    with pytest.raises(ValueError) as expected:
        forward(net, data.images)
    batches = []
    monkeypatch.setattr(sqwa.nn, "_forward", lambda *args: batches.append(args))
    with pytest.raises(ValueError) as raised:
        evaluate(net, data, batch_size=4)
    assert str(raised.value) == str(expected.value) == \
        "network input: expected batch of shape (N, 3), got (9, 4)"
    assert batches == []


SPECIAL_LOGITS = np.array([0.0, -0.0, 1.0, np.inf, -np.inf, np.nan, 1e308, -1e308])


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(c=st.integers(1, 20), n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       special=st.sampled_from([0.0, 0.02, 0.3]), coarse=st.booleans(),
       equal_rows=st.sampled_from([0.0, 0.2, 1.0]))
def test_batch_loss_equals_the_full_log_softmax_loss(c, n, seed, special, coarse, equal_rows):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=5.0, size=(n, c))
    if coarse:  # a few distinct values per row, so maxima tie
        logits = np.round(logits / 4.0)
    same = rng.random(n) < equal_rows
    logits[same] = logits[same, :1]
    hit = rng.random((n, c)) < special
    logits[hit] = rng.choice(SPECIAL_LOGITS, size=int(hit.sum()))
    labels = rng.integers(0, c, size=n)
    with np.errstate(all="ignore"):
        z = logits - logits.max(axis=1, keepdims=True)
        z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
        expected = float(-z[np.arange(n), labels].sum() / n)
        got = _batch_loss(logits, labels, np.arange(n))
    assert got == expected or (np.isnan(got) and np.isnan(expected))


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
    grads = Gradients.like(net)
    grads.flat[:] = np.nan
    assert loss_and_backward(net, cache, logits, np.eye(4)[y], grads) is grads
    assert np.array_equal(grads.flat, expected.flat)

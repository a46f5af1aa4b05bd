import numpy as np
import pytest

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
    loss_only,
    output_shapes,
    relu,
    sgd_momentum_step,
)
from sqwa.data import Dataset


def _fd_gradients(net, batch, labels, eps=1e-5):
    """Central finite differences over every parameter."""
    grads_w, grads_b = [], []
    for i in net.param_layers():
        gw = np.zeros_like(net.weights[i])
        for idx in np.ndindex(net.weights[i].shape):
            orig = net.weights[i][idx]
            net.weights[i][idx] = orig + eps
            hi = loss_only(net, batch, labels)
            net.weights[i][idx] = orig - eps
            lo = loss_only(net, batch, labels)
            net.weights[i][idx] = orig
            gw[idx] = (hi - lo) / (2 * eps)
        grads_w.append(gw)
        gb = np.zeros_like(net.biases[i])
        for idx in np.ndindex(net.biases[i].shape):
            orig = net.biases[i][idx]
            net.biases[i][idx] = orig + eps
            hi = loss_only(net, batch, labels)
            net.biases[i][idx] = orig - eps
            lo = loss_only(net, batch, labels)
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
    assert loss_only(net, x, y) == pytest.approx(np.log(2.0), abs=1e-12)


def test_gradients_match_finite_differences_dense():
    rng = np.random.default_rng(21)
    net = init_weights([dense(5, 7), relu(), dense(7, 3)], (5,), seed=21)
    x = rng.normal(size=(6, 5))
    y = rng.integers(0, 3, size=6)
    logits, cache = forward(net, x)
    _, grads = loss_and_backward(net, cache, logits, y)
    fd_w, fd_b = _fd_gradients(net, x, y)
    _assert_grads_close(net, grads, fd_w, fd_b)


def test_gradients_match_finite_differences_conv():
    rng = np.random.default_rng(22)
    specs = [conv2d(2, 3, 3), relu(), flatten(), dense(3 * 3 * 3, 4)]
    net = init_weights(specs, (2, 5, 5), seed=22)
    x = rng.normal(size=(4, 2, 5, 5))
    y = rng.integers(0, 4, size=4)
    logits, cache = forward(net, x)
    _, grads = loss_and_backward(net, cache, logits, y)
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


@pytest.mark.parametrize("in_c,h,w,k0,k1", [
    (3, 7, 5, 3, 2),   # several input channels, H != W
    (2, 6, 4, 1, 3),   # 1x1 kernel at the first conv
    (1, 5, 5, 2, 4),   # second kernel spans its whole input: 1x1 output
    (2, 3, 3, 3, 1),   # first kernel spans its whole input, then a 1x1 kernel
])
def test_conv_matches_direct_reference(in_c, h, w, k0, k1):
    rng = np.random.default_rng(24)
    mid_c, out_c, classes, n = 3, 2, 4, 3
    oh, ow = h - k0 - k1 + 2, w - k0 - k1 + 2
    specs = [conv2d(in_c, mid_c, k0), relu(), conv2d(mid_c, out_c, k1), flatten(),
             dense(out_c * oh * ow, classes)]
    net = init_weights(specs, (in_c, h, w), seed=24)
    for i in net.param_layers():
        net.biases[i] = rng.normal(size=net.biases[i].shape)
    x = rng.normal(size=(n, in_c, h, w))
    y = rng.integers(0, classes, size=n)
    (w0, b0), (w1, b1), (wd, bd) = [(net.weights[i], net.biases[i]) for i in (0, 2, 4)]

    single = Network((in_c, h, w), [conv2d(in_c, mid_c, k0), flatten()], [w0, None], [b0, None])
    _assert_rel_close(forward(single, x)[0], _ref_conv(x, w0, b0).reshape(n, -1))

    a0 = _ref_conv(x, w0, b0)
    r0 = np.maximum(a0, 0.0)
    a1 = _ref_conv(r0, w1, b1)
    logits = a1.reshape(n, -1) @ wd.T + bd
    got_logits, cache = forward(net, x)
    _assert_rel_close(got_logits, logits)

    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    dlogits = (probs - np.eye(classes)[y]) / n
    da1 = (dlogits @ wd).reshape(a1.shape)
    dr0, gw1, gb1 = _ref_conv_backward(r0, w1, da1)
    _, gw0, gb0 = _ref_conv_backward(x, w0, dr0 * (a0 > 0.0))
    _, grads = loss_and_backward(net, cache, got_logits, y)
    _assert_rel_close(grads.weights[2], gw1)
    _assert_rel_close(grads.biases[2], gb1)
    # layer 0's gradients are formed from the second conv's input gradient
    _assert_rel_close(grads.weights[0], gw0)
    _assert_rel_close(grads.biases[0], gb0)


def test_gradients_match_finite_differences_conv_stack():
    rng = np.random.default_rng(25)
    specs = [conv2d(2, 3, 3), relu(), conv2d(3, 2, 2), relu(), flatten(), dense(2 * 3 * 2, 3)]
    net = init_weights(specs, (2, 6, 5), seed=25)
    for i in net.param_layers():
        net.biases[i] = rng.normal(scale=0.1, size=net.biases[i].shape)
    x = rng.normal(size=(4, 2, 6, 5))
    y = rng.integers(0, 3, size=4)
    logits, cache = forward(net, x)
    _, grads = loss_and_backward(net, cache, logits, y)
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
    _, grads = loss_and_backward(net, cache, logits, y)
    logits, cache = forward(shifted, x)
    _, shifted_grads = loss_and_backward(shifted, cache, logits, y)
    for i in net.param_layers():
        np.testing.assert_array_equal(grads.weights[i], shifted_grads.weights[i + 1])
        np.testing.assert_array_equal(grads.biases[i], shifted_grads.biases[i + 1])


def test_loss_and_backward_reports_forward_loss():
    rng = np.random.default_rng(23)
    net = init_weights([dense(4, 3)], (4,), seed=23)
    x = rng.normal(size=(5, 4))
    y = rng.integers(0, 3, size=5)
    logits, cache = forward(net, x)
    loss, _ = loss_and_backward(net, cache, logits, y)
    assert loss == pytest.approx(loss_only(net, x, y), abs=1e-12)


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


def test_training_reduces_loss():
    rng = np.random.default_rng(31)
    net = init_weights([dense(4, 16), relu(), dense(16, 3)], (4,), seed=31)
    x = rng.normal(size=(30, 4))
    y = rng.integers(0, 3, size=30)
    state = OptimizerState.for_network(net, momentum=0.9)
    before = loss_only(net, x, y)
    for _ in range(50):
        logits, cache = forward(net, x)
        _, grads = loss_and_backward(net, cache, logits, y)
        sgd_momentum_step(net, grads, state, lr=0.05)
    assert loss_only(net, x, y) < 0.5 * before


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
        loss_sum += loss_only(net, xb, yb) * xb.shape[0]
        correct += int((forward(net, xb)[0].argmax(axis=1) == yb).sum())
    assert evaluate(net, data, batch_size=16) == (loss_sum / 37, correct / 37)


def test_evaluate_rejects_out_of_range_labels():
    net = init_weights([dense(3, 2)], (3,), seed=34)
    data = Dataset(images=np.zeros((5, 3)), labels=np.array([0, 1, 2, 0, 1]), num_classes=3)
    with pytest.raises(ValueError, match="labels must lie in"):
        evaluate(net, data, batch_size=2)


def test_network_copy_is_deep():
    net = init_weights([dense(2, 2)], (2,), seed=6)
    dup = net.copy()
    dup.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != dup.weights[0][0, 0]


@pytest.mark.parametrize("labels", [[0, 1, 3, 0, 1], [0, 1, -1, 0, 1]])
def test_direct_calls_reject_out_of_range_labels(labels):
    net = init_weights([dense(3, 3)], (3,), seed=35)
    x = np.zeros((5, 3))
    logits, cache = forward(net, x)
    with pytest.raises(ValueError, match="labels must lie in"):
        loss_only(net, x, np.array(labels))
    with pytest.raises(ValueError, match="labels must lie in"):
        loss_and_backward(net, cache, logits, np.array(labels))

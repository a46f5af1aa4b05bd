"""The flat parameter layout: one float64 buffer per network, all weights in
layer order and then all biases, with per-layer views into it."""

import pickle

import numpy as np
import pytest

from sqwa import checkpoint as ckpt
from sqwa.averaging import CaptureBank, CaptureEntry, average_models
from sqwa.data import Dataset
from sqwa.losscape import (build_plane, evaluate_surface, grid_point, params_to_vector,
                           quantized_grid_point, vector_to_network)
from sqwa.nn import (Gradients, OptimizerState, conv2d, dense, evaluate, flatten, forward,
                     init_weights, loss_and_backward, relu, sgd_momentum_step,
                     zero_network)
from sqwa.qat import ShadowModel
from sqwa.quantizer import QuantizerConfig, quantize_network, quantize_tensor


def _conv_net(seed=90):
    # conv with bias, dense without, dense with: every kind of entry
    specs = [conv2d(2, 3, 3), relu(), flatten(), dense(3 * 3 * 2, 5, has_bias=False), relu(),
             dense(5, 4)]
    net = init_weights(specs, (2, 5, 4), seed=seed)
    rng = np.random.default_rng(seed)
    for i in net.param_layers():
        if net.biases[i] is not None:
            net.biases[i] = rng.normal(scale=0.1, size=net.biases[i].shape)
    return net


def _assert_one_buffer(net):
    weights = [w for w in net.weights if w is not None]
    biases = [b for b in net.biases if b is not None]
    for t in weights + biases:
        assert t.base is net.flat
    assert net.flat.dtype == np.float64 and net.flat.flags.c_contiguous
    assert net.weight_size == sum(w.size for w in weights)
    assert net.flat.size == net.weight_size + sum(b.size for b in biases)
    # weights first in layer order, then biases in layer order
    np.testing.assert_array_equal(net.flat[:net.weight_size],
                                  np.concatenate([w.ravel() for w in weights]))
    np.testing.assert_array_equal(net.flat[net.weight_size:],
                                  np.concatenate([b.ravel() for b in biases]))


def _bank(net, bits=2):
    steps = [0.05] * len(net.param_layers())
    bank = CaptureBank(bits, steps)
    rng = np.random.default_rng(91)
    for epoch in (3, 7, 11):
        shadow = net.copy()
        shadow.flat[:] += rng.normal(scale=0.05, size=shadow.flat.shape)
        model = ShadowModel.from_network(shadow, bits, steps)
        bank.add(CaptureEntry(epoch, model.as_quantized(), model.shadow.copy(), {}))
    return bank


def test_every_entry_views_the_one_buffer(tmp_path):
    net = _conv_net()
    _assert_one_buffer(net)
    _assert_one_buffer(net.copy())
    _assert_one_buffer(quantize_network(net, 2, [0.1, 0.1, 0.1]))
    _assert_one_buffer(vector_to_network(net, params_to_vector(net) * 2.0))
    unpickled = pickle.loads(pickle.dumps(net))
    _assert_one_buffer(unpickled)
    np.testing.assert_array_equal(unpickled.flat, net.flat)
    bank = _bank(net)
    _assert_one_buffer(average_models(bank, 3).net)

    model = ShadowModel.from_network(net, 2)
    ckpt.save(net, tmp_path / "n")
    ckpt.save(model, tmp_path / "s")
    ckpt.save(model.as_quantized(), tmp_path / "q")
    ckpt.save(average_models(bank, 2), tmp_path / "a")
    ckpt.save(bank, tmp_path / "b")
    _assert_one_buffer(ckpt.load(tmp_path / "n"))
    back = ckpt.load(tmp_path / "s")
    _assert_one_buffer(back.shadow)
    _assert_one_buffer(back.applied)
    _assert_one_buffer(ckpt.load(tmp_path / "q").net)
    _assert_one_buffer(ckpt.load(tmp_path / "a").net)
    for entry in ckpt.load(tmp_path / "b").entries:
        _assert_one_buffer(entry.model.net)
        _assert_one_buffer(entry.shadow)


def test_copy_owns_its_buffer():
    net = _conv_net()
    dup = net.copy()
    dup.flat[:] = 0.0
    assert np.abs(net.flat).max() > 0.0


def test_zero_network_has_the_layout_of_init_weights():
    net = _conv_net()
    zero = zero_network(net.specs, net.input_shape)
    _assert_one_buffer(zero)
    assert zero.layout == net.layout and not zero.flat.any()


def test_loading_draws_no_random_numbers(tmp_path, monkeypatch):
    net = _conv_net()
    ckpt.save(net, tmp_path / "n")
    ckpt.save(ShadowModel.from_network(net, 2), tmp_path / "s")

    def no_rng(*args, **kwargs):
        raise AssertionError("checkpoint loading drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    assert np.array_equal(ckpt.load(tmp_path / "n").flat, net.flat.astype(np.float32))
    assert ckpt.load(tmp_path / "s").shadow.layout == net.layout


def test_assigning_an_entry_writes_into_the_buffer():
    net = _conv_net()
    flat = net.flat
    new = np.full(net.weights[3].shape, 0.25)
    net.weights[3] = new
    assert net.flat is flat
    assert net.weights[3].base is flat
    np.testing.assert_array_equal(net.weights[3], 0.25)
    new[...] = 1.0  # the network keeps a copy, not the assigned array
    np.testing.assert_array_equal(net.weights[3], 0.25)
    net.biases[0] = [1.0, 2.0, 3.0]
    np.testing.assert_array_equal(net.flat[net.weight_size:net.weight_size + 3], [1.0, 2.0, 3.0])
    _assert_one_buffer(net)


@pytest.mark.parametrize("index,value", [
    (0, np.zeros((3, 2, 2, 2))),   # wrong shape
    (0, 0.0),                      # scalar broadcast is not an overwrite
    (1, np.zeros(3)),              # relu carries no tensor
    (slice(0, 1), [None]),         # no slice assignment
])
def test_rebinding_an_entry_is_rejected(index, value):
    net = _conv_net()
    before = net.flat.copy()
    with pytest.raises(ValueError, match="only a value of its own shape"):
        net.weights[index] = value
    np.testing.assert_array_equal(net.flat, before)
    _assert_one_buffer(net)


def _old_per_layer_sgd(weights, biases, grads, bufs_w, bufs_b, momentum, l2, lr):
    # the per-layer update the flat one replaced, on plain per-layer arrays
    for i, w in enumerate(weights):
        if w is None:
            continue
        bufs_w[i] *= momentum
        bufs_w[i] += grads.weights[i] + l2 * w
        w -= lr * bufs_w[i]
        if biases[i] is not None:
            bufs_b[i] *= momentum
            bufs_b[i] += grads.biases[i]
            biases[i] -= lr * bufs_b[i]


@pytest.mark.parametrize("l2", [0.0, 5e-4, 0.3])
def test_flat_sgd_equals_per_layer_formula(l2):
    rng = np.random.default_rng(92)
    net = _conv_net()
    weights = [None if w is None else w.copy() for w in net.weights]
    biases = [None if b is None else b.copy() for b in net.biases]
    bufs_w = [None if w is None else np.zeros_like(w) for w in weights]
    bufs_b = [None if b is None else np.zeros_like(b) for b in biases]
    state = OptimizerState.for_network(net, momentum=0.9, l2_scale=l2)
    for step in range(5):
        x = rng.normal(size=(6, 2, 5, 4))
        y = rng.integers(0, 4, size=6)
        logits, cache = forward(net, x)
        grads = loss_and_backward(net, cache, logits, np.eye(4)[y], Gradients.like(net))
        lr = 0.05 * (step + 1)
        _old_per_layer_sgd(weights, biases, grads, bufs_w, bufs_b, 0.9, l2, lr)
        sgd_momentum_step(net, grads, state, lr)
        for i in net.param_layers():
            assert np.array_equal(net.weights[i], weights[i])
            assert np.array_equal(state.buffers_w[i], bufs_w[i])
            if biases[i] is not None:
                assert np.array_equal(net.biases[i], biases[i])
                assert np.array_equal(state.buffers_b[i], bufs_b[i])


def test_biases_get_no_l2_term():
    net = _conv_net()
    state = OptimizerState.for_network(net, momentum=0.0, l2_scale=0.5)
    grads = Gradients.like(net)
    grads.flat[:] = 0.0
    before = net.flat.copy()
    sgd_momentum_step(net, grads, state, lr=1.0)
    nw = net.weight_size
    np.testing.assert_array_equal(net.flat[:nw], before[:nw] - 0.5 * before[:nw])
    np.testing.assert_array_equal(net.flat[nw:], before[nw:])


def test_sgd_rejects_gradients_of_another_layout():
    net = _conv_net()
    other = init_weights([dense(4, 3)], (4,), seed=1)
    state = OptimizerState.for_network(net, momentum=0.9)
    with pytest.raises(ValueError, match="layout"):
        sgd_momentum_step(net, Gradients.like(other), state, lr=0.1)


def test_gradients_share_the_network_layout():
    rng = np.random.default_rng(93)
    net = _conv_net()
    logits, cache = forward(net, rng.normal(size=(4, 2, 5, 4)))
    grads = loss_and_backward(net, cache, logits, np.eye(4)[rng.integers(0, 4, size=4)],
                              Gradients.like(net))
    assert grads.flat.shape == net.flat.shape
    for g, t in zip([*grads.weights, *grads.biases], [*net.weights, *net.biases]):
        assert (g is None) == (t is None)
        if g is not None:
            assert g.base is grads.flat and g.shape == t.shape


def _per_layer_quantized(net, bits, steps):
    # reference: a copy of `net` quantized layer by layer with quantize_tensor
    out = net.copy()
    for i, step in zip(out.param_layers(), steps):
        out.weights[i] = quantize_tensor(net.weights[i], QuantizerConfig(bits, step))
    return out


def _assert_same_parameters(got, expected):
    for i in expected.param_layers():
        assert np.array_equal(got.weights[i], expected.weights[i])
        if expected.biases[i] is not None:
            assert np.array_equal(got.biases[i], expected.biases[i])


@pytest.mark.parametrize("bits", [1, 2, 4])
def test_refresh_equals_per_layer_quantize_tensor(bits):
    # refresh_applied, quantize_network, quantized_grid_point and
    # average_models each quantize the weight region in one flat pass
    rng = np.random.default_rng(94 + bits)
    net = _conv_net()
    model = ShadowModel.from_network(net, bits)
    bank = CaptureBank(bits, model.steps)
    shadows = []
    for epoch in range(3):
        model.shadow.flat[:] += rng.normal(scale=0.1, size=model.shadow.flat.shape)
        # exact zeros and exact midpoints exercise sign(0) and ties
        model.shadow.weights[0][0, 0, 0, 0] = 0.0
        model.shadow.weights[3][0, 0] = -0.5 * model.steps[1]
        model.refresh_applied()
        expected = _per_layer_quantized(model.shadow, bits, model.steps)
        _assert_same_parameters(model.applied, expected)
        _assert_same_parameters(quantize_network(model.shadow, bits, model.steps), expected)
        bank.add(CaptureEntry(epoch, model.as_quantized(), model.shadow.copy(), {}))
        shadows.append(model.shadow.copy())

    plane = build_plane(*[params_to_vector(sh) for sh in shadows])
    for x, y in [(0.0, 0.0), (0.3, -0.2), *plane.anchors[1:]]:
        fresh = vector_to_network(net, grid_point(plane, x, y))
        got = vector_to_network(net, quantized_grid_point(plane, x, y, net, bits, model.steps))
        _assert_same_parameters(got, _per_layer_quantized(fresh, bits, model.steps))

    avg = average_models(bank, 3).net
    for i, step in zip(net.param_layers(), model.steps):
        levels = sum(np.rint(quantize_tensor(sh.weights[i], QuantizerConfig(bits, step)) / step)
                     .astype(np.int64) for sh in shadows)
        assert np.array_equal(avg.weights[i], levels * (step / 3))
        if net.biases[i] is not None:
            assert np.array_equal(avg.biases[i], np.mean([sh.biases[i] for sh in shadows], axis=0))


@pytest.mark.parametrize("layer,index", [(0, (1, 0, 2, 2)), (3, (4, 17)), (5, (3, 4))])
def test_average_names_the_off_grid_layer(layer, index):
    bank = _bank(_conv_net())
    bank.entries[1].model.net.weights[layer][index] += 0.01
    with pytest.raises(ValueError, match=f"layer {layer}: .* not on the shared grid"):
        average_models(bank, 3)


def test_quantized_surface_equals_a_fresh_network_per_point():
    # the surface reuses one network; every point must see only its own
    # weights and biases
    rng = np.random.default_rng(95)
    net = _conv_net()
    plane = build_plane(*[net.flat + rng.normal(scale=0.3, size=net.flat.shape)
                          for _ in range(3)])
    data = Dataset(rng.normal(size=(40, 2, 5, 4)), rng.integers(0, 4, size=40), 4)
    steps = [0.1, 0.15, 0.2]
    grid = evaluate_surface(plane, net, data, resolution=5, mode="quantized", bits=2,
                            steps=steps)
    assert np.unique(grid.loss).size > 1
    for i, x in enumerate(grid.xs):
        for j, y in enumerate(grid.ys):
            fresh = _per_layer_quantized(vector_to_network(net, grid_point(plane, x, y)), 2,
                                         steps)
            assert (grid.loss[i, j], grid.accuracy[i, j]) == evaluate(fresh, data)


def test_shadow_model_rejects_mismatched_parts():
    net = _conv_net()
    applied = quantize_network(net, 2, [0.1, 0.1, 0.1])
    with pytest.raises(ValueError, match="disagree"):
        ShadowModel(net, applied, 2, [0.1, 0.1])
    other = init_weights([dense(4, 3)], (4,), seed=1)
    with pytest.raises(ValueError, match="disagree"):
        ShadowModel(net, other, 2, [0.1, 0.1, 0.1])
    with pytest.raises(ValueError, match="step"):
        ShadowModel(net, applied, 2, [0.1, -0.1, 0.1])


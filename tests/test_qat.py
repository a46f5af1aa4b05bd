import numpy as np
import pytest

from sqwa.data import synthetic_blobs
from sqwa.nn import OptimizerState, dense, evaluate, init_weights, relu
from sqwa.qat import ShadowModel, _StepWorkspace, finetune, fit, qat_train_step, retrain
from sqwa.quantizer import QuantizerConfig, quantize_tensor
from sqwa.schedule import CyclicalSchedule


def _small_model(seed=40, bits=2):
    net = init_weights([dense(4, 8), relu(), dense(8, 3)], (4,), seed=seed)
    return ShadowModel.from_network(net, bits)


def _assert_invariant(model):
    idx = model.shadow.param_layers()
    for i, step in zip(idx, model.steps):
        expected = quantize_tensor(model.shadow.weights[i],
                                   QuantizerConfig(model.bits, step))
        np.testing.assert_array_equal(model.applied.weights[i], expected)
        np.testing.assert_array_equal(model.applied.biases[i], model.shadow.biases[i])


def test_from_network_establishes_invariant():
    model = _small_model()
    _assert_invariant(model)
    # shadow keeps the original full-precision values
    assert not np.array_equal(model.shadow.weights[0], model.applied.weights[0])


def test_from_network_respects_given_steps():
    net = init_weights([dense(4, 4)], (4,), seed=1)
    model = ShadowModel.from_network(net, 2, steps=[0.125])
    assert model.steps == [0.125]
    _assert_invariant(model)


def test_step_preserves_invariant():
    rng = np.random.default_rng(41)
    model = _small_model()
    ws = _StepWorkspace(model, OptimizerState.for_network(model.shadow, momentum=0.9))
    for _ in range(10):
        x = rng.normal(size=(16, 4))
        y = rng.integers(0, 3, size=16)
        qat_train_step(ws, x, np.eye(3)[y], lr=0.05)
        _assert_invariant(model)


def test_tiny_lr_moves_shadow_not_applied():
    rng = np.random.default_rng(42)
    model = _small_model()
    ws = _StepWorkspace(model, OptimizerState.for_network(model.shadow, momentum=0.0))
    shadow_before = [w.copy() for w in model.shadow.weights if w is not None]
    applied_before = [w.copy() for w in model.applied.weights if w is not None]
    x = rng.normal(size=(8, 4))
    y = rng.integers(0, 3, size=8)
    qat_train_step(ws, x, np.eye(3)[y], lr=1e-9)
    shadow_after = [w for w in model.shadow.weights if w is not None]
    applied_after = [w for w in model.applied.weights if w is not None]
    assert any(not np.array_equal(b, a) for b, a in zip(shadow_before, shadow_after))
    for b, a in zip(applied_before, applied_after):
        np.testing.assert_array_equal(b, a)


def test_large_lr_flips_applied_levels():
    rng = np.random.default_rng(43)
    model = _small_model()
    ws = _StepWorkspace(model, OptimizerState.for_network(model.shadow, momentum=0.9))
    applied_before = [w.copy() for w in model.applied.weights if w is not None]
    for _ in range(20):
        x = rng.normal(size=(16, 4))
        y = rng.integers(0, 3, size=16)
        qat_train_step(ws, x, np.eye(3)[y], lr=0.5)
    applied_after = [w for w in model.applied.weights if w is not None]
    assert any(not np.array_equal(b, a) for b, a in zip(applied_before, applied_after))


def test_biases_follow_shadow_exactly():
    rng = np.random.default_rng(44)
    model = _small_model()
    ws = _StepWorkspace(model, OptimizerState.for_network(model.shadow, momentum=0.9))
    x = rng.normal(size=(8, 4))
    y = rng.integers(0, 3, size=8)
    qat_train_step(ws, x, np.eye(3)[y], lr=0.1)
    for i in model.shadow.param_layers():
        np.testing.assert_array_equal(model.applied.biases[i], model.shadow.biases[i])
        assert model.applied.biases[i] is not model.shadow.biases[i]


def test_as_quantized_is_detached():
    model = _small_model()
    snap = model.as_quantized()
    model.shadow.weights[0][:] += 10.0
    model.refresh_applied()
    assert not np.array_equal(snap.net.weights[0], model.applied.weights[0])


def test_retrain_captures_at_period_ends():
    data = synthetic_blobs(3, 30, 4, 0.4, seed=50)
    model = _small_model(seed=50)
    sched = CyclicalSchedule(max_lr=0.01, min_lr=0.0001, period=4,
                             mid_steps=1, total_epochs=12)
    model, bank = retrain(model, data, sched, epochs=12, seed=50)
    assert [e.epoch for e in bank.entries] == [3, 7, 11]
    assert bank.bits == model.bits
    assert bank.steps == model.steps
    # retraining scores nothing; the pipeline scores each capture's reload
    assert [e.metrics for e in bank.entries] == [{}, {}, {}]


def test_retrain_partial_run_captures_complete_periods_only():
    data = synthetic_blobs(3, 20, 4, 0.4, seed=52)
    model = _small_model(seed=52)
    sched = CyclicalSchedule(max_lr=0.01, min_lr=0.0001, period=4,
                             mid_steps=1, total_epochs=12)
    _, bank = retrain(model, data, sched, epochs=6, seed=52)
    assert [e.epoch for e in bank.entries] == [3]


def test_retrain_is_deterministic():
    sched = CyclicalSchedule(max_lr=0.01, min_lr=0.0001, period=4,
                             mid_steps=1, total_epochs=8)
    outs = []
    for _ in range(2):
        data = synthetic_blobs(3, 20, 4, 0.4, seed=53)
        model = _small_model(seed=53)
        model, bank = retrain(model, data, sched, epochs=8, seed=53)
        outs.append((model, bank))
    (m1, b1), (m2, b2) = outs
    for w1, w2 in zip(m1.shadow.weights, m2.shadow.weights):
        if w1 is not None:
            np.testing.assert_array_equal(w1, w2)
    for e1, e2 in zip(b1.entries, b2.entries):
        assert e1.metrics == e2.metrics


def test_retrain_improves_on_direct_quantization():
    data = synthetic_blobs(4, 60, 6, 0.35, seed=54)
    net = init_weights([dense(6, 12), relu(), dense(12, 4)], (6,), seed=54)
    model = ShadowModel.from_network(net, 2)
    before = evaluate(model.applied, data)[1]
    sched = CyclicalSchedule(max_lr=0.02, min_lr=0.0002, period=4,
                             mid_steps=1, total_epochs=16)
    model, _ = retrain(model, data, sched, epochs=16, seed=54)
    after = evaluate(model.applied, data)[1]
    assert after > before


def test_retrain_validates_epochs():
    data = synthetic_blobs(3, 10, 4, 0.4, seed=55)
    model = _small_model(seed=55)
    sched = CyclicalSchedule(max_lr=0.01, min_lr=0.0001, period=4,
                             mid_steps=1, total_epochs=8)
    with pytest.raises(ValueError):
        retrain(model, data, sched, epochs=9, seed=55)
    with pytest.raises(ValueError):
        retrain(model, data, sched, epochs=0, seed=55)


def test_finetune_zero_epochs_is_identity():
    data = synthetic_blobs(3, 10, 4, 0.4, seed=56)
    model = _small_model(seed=56)
    before = [w.copy() for w in model.shadow.weights if w is not None]
    model = finetune(model, data, initial_lr=0.001, epochs=0, decay=0.1, seed=56)
    after = [w for w in model.shadow.weights if w is not None]
    for b, a in zip(before, after):
        np.testing.assert_array_equal(b, a)


def test_finetune_preserves_invariant_and_steps():
    data = synthetic_blobs(3, 30, 4, 0.4, seed=57)
    model = _small_model(seed=57)
    steps_before = list(model.steps)
    model = finetune(model, data, initial_lr=0.001, epochs=3, decay=0.1, seed=57)
    assert model.steps == steps_before
    _assert_invariant(model)


def test_finetune_validates_arguments():
    data = synthetic_blobs(3, 10, 4, 0.4, seed=58)
    with pytest.raises(ValueError):
        finetune(_small_model(), data, initial_lr=0.001, epochs=-1, decay=0.1, seed=58)
    with pytest.raises(ValueError):
        finetune(_small_model(), data, initial_lr=0.0, epochs=2, decay=0.1, seed=58)
    with pytest.raises(ValueError):
        finetune(_small_model(), data, initial_lr=0.001, epochs=2, decay=1.5, seed=58)


def test_fit_rejects_more_classes_than_outputs():
    data = synthetic_blobs(4, 10, 4, 0.4, seed=59)
    with pytest.raises(ValueError, match="labels must lie in"):
        fit(_small_model(seed=59), data, [0.01], seed=59)


def test_fit_without_quantizer_is_plain_sgd():
    from sqwa.data import shuffle_batches
    from sqwa.nn import Gradients, forward, loss_and_backward, sgd_momentum_step
    data = synthetic_blobs(3, 20, 4, 0.4, seed=60)
    net = init_weights([dense(4, 8), relu(), dense(8, 3)], (4,), seed=60)
    ref = net.copy()
    opt = OptimizerState.for_network(ref, momentum=0.9, l2_scale=1e-3)
    for epoch, lr in enumerate([0.1, 0.05]):
        for xb, yb in shuffle_batches(data, 16, 60, epoch):
            logits, cache = forward(ref, xb)
            grads = loss_and_backward(ref, cache, logits, np.eye(3)[yb], Gradients.like(ref))
            sgd_momentum_step(ref, grads, opt, lr)
    assert fit(net, data, [0.1, 0.05], 60, batch_size=16, l2_scale=1e-3) is net
    assert np.array_equal(net.flat, ref.flat)


# --- the training loop's step workspace ----------------------------------------

def _reference_fit(model, data, lrs, seed, batch_size):
    # fit of a ShadowModel spelled out with the public kernels: a fresh
    # gradient buffer and fresh one-hot targets on every step
    from sqwa.data import shuffle_batches
    from sqwa.nn import Gradients, forward, loss_and_backward, sgd_momentum_step
    opt = OptimizerState.for_network(model.shadow, momentum=0.9)
    for epoch, lr in enumerate(lrs):
        for xb, yb in shuffle_batches(data, batch_size, seed, epoch):
            logits, cache = forward(model.applied, xb)
            targets = np.eye(model.applied.num_classes)[yb]
            grads = loss_and_backward(model.applied, cache, logits, targets,
                                      Gradients.like(model.applied))
            sgd_momentum_step(model.shadow, grads, opt, lr)
            model.refresh_applied()
    return model


def _conv_case():
    from sqwa.data import Dataset
    from sqwa.nn import conv2d, flatten
    rng = np.random.default_rng(61)
    data = Dataset(rng.normal(size=(40, 1, 8, 8)), rng.integers(0, 3, size=40), 3)
    specs = [conv2d(1, 3, 3), relu(), conv2d(3, 4, 3, has_bias=False), relu(), flatten(),
             dense(64, 3)]
    net = init_weights(specs, (1, 8, 8), seed=61)
    return ShadowModel.from_network(net, 4), data, 16


def _workspace_cases():
    # the plain network with L2 is test_fit_without_quantizer_is_plain_sgd
    blobs = synthetic_blobs(3, 20, 4, 0.4, seed=62)
    for bits in (1, 2, 4):
        yield f"{bits}-bit shadow", _small_model(seed=62, bits=bits), blobs, 16
    yield "conv 4-bit", *_conv_case()
    # 60 samples: batches of 7 leave a short last batch of 4
    yield "short last batch", _small_model(seed=63), blobs, 7


@pytest.mark.parametrize("case", list(_workspace_cases()), ids=lambda c: c[0])
def test_fit_equals_the_per_call_reference_loop(case):
    _, model, data, batch_size = case
    ref = _reference_fit(model.copy(), data, [0.1, 0.05, 0.02], 64, batch_size)
    assert fit(model, data, [0.1, 0.05, 0.02], 64, batch_size=batch_size) is model
    assert np.array_equal(model.shadow.flat, ref.shadow.flat)
    assert np.array_equal(model.applied.flat, ref.applied.flat)


def _first_step_error(model, data):
    # the error evaluate, which checks the same inputs, raises on the dataset
    with pytest.raises(ValueError) as info:
        evaluate(model.applied, data)
    return str(info.value)


@pytest.mark.parametrize("wrong", ["input shape", "labels"])
def test_fit_checks_the_dataset_once_before_the_first_step(monkeypatch, wrong):
    import sqwa.qat as qat_mod
    if wrong == "input shape":
        data = synthetic_blobs(3, 10, 5, 0.4, seed=65)     # 5 features for 4 inputs
    else:
        data = synthetic_blobs(4, 10, 4, 0.4, seed=65)     # labels 0..3 for 3 outputs
    model = _small_model(seed=65)
    before = model.shadow.flat.copy()
    expected = _first_step_error(model, data)
    assert expected.startswith("network input: expected" if wrong == "input shape"
                               else "labels must lie in [0, 3)")
    epochs = []
    monkeypatch.setattr(qat_mod, "_run_epoch", lambda *args: epochs.append(args))
    with pytest.raises(ValueError) as info:
        fit(model, data, [0.1], seed=65)
    assert str(info.value) == expected
    assert epochs == [] and np.array_equal(model.shadow.flat, before)


@pytest.mark.parametrize("quantized", [True, False], ids=["shadow", "plain"])
def test_fit_runs_each_sgd_step_through_the_public_step_and_kernel(monkeypatch, quantized):
    # The benchmark's tracer replaces these module globals with wrappers;
    # each SGD step must reach them once, so the wrappers see every step.
    import sqwa.qat as qat_mod
    calls = {"qat_train_step": 0, "loss_and_backward": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(qat_mod, name, counted(name, getattr(qat_mod, name)))
    data = synthetic_blobs(3, 20, 4, 0.4, seed=66)      # 60 samples: 4 batches of 16
    model = _small_model(seed=66)
    fit(model if quantized else model.shadow, data, [0.1, 0.05, 0.02], 66, batch_size=16)
    assert calls == {"qat_train_step": 12, "loss_and_backward": 12}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_stops_at_the_end_of_the_epoch_that_diverges():
    data = synthetic_blobs(3, 20, 4, 0.4, seed=68)
    seen = []
    model = _small_model(seed=68)
    with pytest.raises(ValueError, match=r"^epoch 1: layer 2 \(dense\) holds non-finite"):
        fit(model, data, [1e-3, 1e200], 68, after_epoch=lambda epoch, lr: seen.append(epoch))
    assert seen == [0]
    assert not np.isfinite(model.shadow.flat).all()


def test_fit_stops_when_a_layer_dies():
    data = synthetic_blobs(3, 20, 4, 0.4, seed=69)
    net = init_weights([dense(4, 8), relu(), dense(8, 3)], (4,), seed=69)
    net.weights[0] = np.full((8, 4), 1e-50)    # zero once stored as float32
    with pytest.raises(ValueError, match=r"^epoch 0: layer 0 \(dense\) weights are all zero"):
        fit(net, data, [0.0], 69)


# --- the fused training step against the arithmetic it replaced ------------------
# A reference training loop written out with the per-call arithmetic: a forward
# pass with out-of-place bias adds, a full log-softmax, the label subtraction by
# fancy indexing, bias gradients by `.sum`, the momentum update, and an
# allocating re-quantizer. It shares no code with fit's step but the column
# helpers of the conv layers and the batch shuffle.

def _ref_forward(net, x):
    from sqwa.nn import _im2col
    cache = []
    if x.ndim == 4:
        x = np.ascontiguousarray(x.transpose(1, 2, 3, 0))
    for spec, w, b in zip(net.specs, net.weights, net.biases):
        cache.append(x)
        if spec.kind == "dense":
            x = x @ w.T
            if b is not None:
                x = x + b
        elif spec.kind == "conv2d":
            out_c, _, k, _ = w.shape
            _, h, ww, n = x.shape
            y = w.reshape(out_c, -1) @ _im2col(x, k)
            if b is not None:
                y = y + b[:, None]
            x = y.reshape(out_c, h - k + 1, ww - k + 1, n)
        elif spec.kind == "relu":
            x = np.maximum(x, 0.0)
        else:
            x = (np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T) if x.ndim == 4
                 else x.reshape(x.shape[0], -1))
    return x, cache


def _ref_gradients(net, cache, logits, labels):
    from sqwa.nn import Gradients, _col2im, _im2col
    grads = Gradients.like(net)
    n = logits.shape[0]
    log_probs = logits - logits.max(axis=1, keepdims=True)
    log_probs -= np.log(np.exp(log_probs).sum(axis=1, keepdims=True))
    dx = np.exp(log_probs)
    dx[np.arange(n), labels] -= 1.0
    dx /= n
    for i in range(len(net.specs) - 1, -1, -1):
        kind, x, w = net.specs[i].kind, cache[i], net.weights[i]
        if kind == "dense":
            grads.weights[i] = dx.T @ x
            if net.biases[i] is not None:
                grads.biases[i] = dx.sum(axis=0)
            dx = dx @ w
        elif kind == "conv2d":
            out_c, _, k, _ = w.shape
            dy = dx.reshape(out_c, -1)
            grads.weights[i] = (dy @ _im2col(x, k).T).reshape(w.shape)
            if net.biases[i] is not None:
                grads.biases[i] = dy.sum(axis=1)
            dx = _col2im(w.reshape(out_c, -1).T @ dy, x.shape, k)
        elif kind == "relu":
            dx = dx * (x > 0.0)
        else:
            dx = dx.T.reshape(x.shape) if x.ndim == 4 else dx.reshape(x.shape)
    return grads.flat


def _ref_quantize(w, step, bits):
    if bits == 1:
        return np.where(w >= 0.0, step, -step)
    mag = np.minimum(np.floor(np.abs(w) / step + 0.5), (2 ** bits - 2) // 2)
    return np.sign(w) * step * mag


def _ref_fit_arithmetic(model, data, lrs, seed, batch_size, l2_scale):
    # returns the momentum buffer; trains `model` in place
    from sqwa.data import shuffle_batches
    quantized = isinstance(model, ShadowModel)
    applied, trained = (model.applied, model.shadow) if quantized else (model, model)
    nw = trained.weight_size
    if quantized:
        idx = trained.param_layers()
        step_of = np.repeat(model.steps, [trained.weights[i].size for i in idx])
    buf = np.zeros_like(trained.flat)
    for epoch, lr in enumerate(lrs):
        for xb, yb in shuffle_batches(data, batch_size, seed, epoch):
            logits, cache = _ref_forward(applied, xb)
            g = _ref_gradients(applied, cache, logits, yb)
            if l2_scale:
                g[:nw] += l2_scale * trained.flat[:nw]
            buf *= 0.9
            buf += g
            trained.flat -= lr * buf
            if quantized:
                applied.flat[:nw] = _ref_quantize(trained.flat[:nw], step_of, model.bits)
                applied.flat[nw:] = trained.flat[nw:]
    return buf


def _fused_step_cases():
    from sqwa.data import Dataset
    from sqwa.nn import conv2d, flatten
    blobs = synthetic_blobs(3, 20, 4, 0.4, seed=70)
    # 60 samples in batches of 16: the last batch holds 12
    for bits in (1, 2, 4, 8):
        yield f"dense {bits}-bit", _small_model(seed=70, bits=bits), blobs, 16, 0.0
    yield "dense 2-bit, L2", _small_model(seed=71), blobs, 16, 1e-3
    yield "plain dense, L2", init_weights([dense(4, 8), relu(), dense(8, 3)], (4,), seed=72), \
        blobs, 16, 1e-3
    yield "short last batch", _small_model(seed=73), blobs, 7, 0.0
    rng = np.random.default_rng(74)
    images = Dataset(rng.normal(size=(40, 2, 7, 7)), rng.integers(0, 4, size=40), 4)
    conv = [conv2d(2, 3, 3), relu(), conv2d(3, 4, 2, has_bias=False), relu(), flatten(),
            dense(64, 4, has_bias=False)]
    for bits in (1, 4):
        yield f"conv + flatten {bits}-bit", ShadowModel.from_network(
            init_weights(conv, (2, 7, 7), seed=74), bits), images, 16, 0.0
    bias_free = [conv2d(2, 2, 3, has_bias=False), flatten(), relu(), dense(50, 4)]
    yield "bias-free conv 2-bit, L2", ShadowModel.from_network(
        init_weights(bias_free, (2, 7, 7), seed=75), 2), images, 12, 1e-3


@pytest.mark.parametrize("case", list(_fused_step_cases()), ids=lambda c: c[0])
def test_fit_equals_the_per_call_arithmetic_bit_for_bit(monkeypatch, case):
    import sqwa.qat as qat_mod
    _, model, data, batch_size, l2_scale = case
    lrs = [0.2, 0.05, 0.01]
    ref = model.copy()
    ref_buf = _ref_fit_arithmetic(ref, data, lrs, 76, batch_size, l2_scale)
    states = []

    def spy(net, grads, state, lr):
        states.append(state)
        return sgd(net, grads, state, lr)

    sgd = qat_mod.sgd_momentum_step
    monkeypatch.setattr(qat_mod, "sgd_momentum_step", spy)
    assert fit(model, data, lrs, 76, batch_size=batch_size, l2_scale=l2_scale) is model
    assert len(states) == len(lrs) * -(-len(data) // batch_size)
    assert np.array_equal(states[-1].flat, ref_buf)
    if isinstance(model, ShadowModel):
        assert np.array_equal(model.shadow.flat, ref.shadow.flat)
        assert np.array_equal(model.applied.flat, ref.applied.flat)
        _assert_invariant(model)
    else:
        assert np.array_equal(model.flat, ref.flat)

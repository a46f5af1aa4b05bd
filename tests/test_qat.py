import numpy as np
import pytest

from sqwa.data import synthetic_blobs
from sqwa.nn import OptimizerState, dense, evaluate, init_weights, relu
from sqwa.qat import ShadowModel, finetune, fit, qat_train_step, retrain
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
    opt = OptimizerState.for_network(model.shadow, momentum=0.9)
    for _ in range(10):
        x = rng.normal(size=(16, 4))
        y = rng.integers(0, 3, size=16)
        qat_train_step(model, x, y, lr=0.05, opt=opt)
        _assert_invariant(model)


def test_tiny_lr_moves_shadow_not_applied():
    rng = np.random.default_rng(42)
    model = _small_model()
    opt = OptimizerState.for_network(model.shadow, momentum=0.0)
    shadow_before = [w.copy() for w in model.shadow.weights if w is not None]
    applied_before = [w.copy() for w in model.applied.weights if w is not None]
    x = rng.normal(size=(8, 4))
    y = rng.integers(0, 3, size=8)
    qat_train_step(model, x, y, lr=1e-9, opt=opt)
    shadow_after = [w for w in model.shadow.weights if w is not None]
    applied_after = [w for w in model.applied.weights if w is not None]
    assert any(not np.array_equal(b, a) for b, a in zip(shadow_before, shadow_after))
    for b, a in zip(applied_before, applied_after):
        np.testing.assert_array_equal(b, a)


def test_large_lr_flips_applied_levels():
    rng = np.random.default_rng(43)
    model = _small_model()
    opt = OptimizerState.for_network(model.shadow, momentum=0.9)
    applied_before = [w.copy() for w in model.applied.weights if w is not None]
    for _ in range(20):
        x = rng.normal(size=(16, 4))
        y = rng.integers(0, 3, size=16)
        qat_train_step(model, x, y, lr=0.5, opt=opt)
    applied_after = [w for w in model.applied.weights if w is not None]
    assert any(not np.array_equal(b, a) for b, a in zip(applied_before, applied_after))


def test_biases_follow_shadow_exactly():
    rng = np.random.default_rng(44)
    model = _small_model()
    opt = OptimizerState.for_network(model.shadow, momentum=0.9)
    x = rng.normal(size=(8, 4))
    y = rng.integers(0, 3, size=8)
    qat_train_step(model, x, y, lr=0.1, opt=opt)
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
    for entry in bank.entries:
        assert set(entry.metrics) == {"train_loss", "train_accuracy"}


def test_retrain_eval_dataset_adds_test_metrics():
    data = synthetic_blobs(3, 20, 4, 0.4, seed=51)
    test = synthetic_blobs(3, 10, 4, 0.4, seed=151)
    model = _small_model(seed=51)
    sched = CyclicalSchedule(max_lr=0.01, min_lr=0.0001, period=4,
                             mid_steps=1, total_epochs=4)
    _, bank = retrain(model, data, sched, epochs=4, seed=51, eval_dataset=test)
    assert set(bank.entries[0].metrics) == {
        "train_loss", "train_accuracy", "test_loss", "test_accuracy"}


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
    from sqwa.nn import forward, loss_and_backward, sgd_momentum_step
    data = synthetic_blobs(3, 20, 4, 0.4, seed=60)
    net = init_weights([dense(4, 8), relu(), dense(8, 3)], (4,), seed=60)
    ref = net.copy()
    opt = OptimizerState.for_network(ref, momentum=0.9, l2_scale=1e-3)
    for epoch, lr in enumerate([0.1, 0.05]):
        for xb, yb in shuffle_batches(data, 16, 60, epoch):
            logits, cache = forward(ref, xb)
            _, grads = loss_and_backward(ref, cache, logits, yb)
            sgd_momentum_step(ref, grads, opt, lr)
    assert fit(net, data, [0.1, 0.05], 60, batch_size=16, l2_scale=1e-3) is net
    assert np.array_equal(net.flat, ref.flat)

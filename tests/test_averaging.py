import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sqwa import checkpoint as ckpt
from sqwa.averaging import (
    AveragedModel,
    CaptureBank,
    CaptureEntry,
    average_models,
    effective_bits,
    requantize_averaged,
)
from sqwa.nn import Network, dense, init_weights, relu
from sqwa.quantizer import (QuantizedModel, QuantizerConfig, levels_count, quantize_tensor,
                            select_step_size)


def _ternary_net(levels, step, bias=None):
    levels = np.asarray(levels, dtype=np.float64)
    w = levels * step
    b = np.zeros(levels.shape[0]) if bias is None else np.asarray(bias, float)
    net = Network(input_shape=(levels.shape[1],), specs=[dense(levels.shape[1], levels.shape[0])])
    net.weights[0], net.biases[0] = w, b
    return net


def _entry(epoch, levels, step, bias=None, metrics=None):
    net = _ternary_net(levels, step, bias)
    shadow = net.copy()
    return CaptureEntry(epoch, QuantizedModel(net, 2, [step]), shadow,
                        metrics or {})


def test_effective_bits_table():
    assert [effective_bits(n, bits=2) for n in (1, 3, 7, 15, 31)] == [2, 3, 4, 5, 6]


@pytest.mark.parametrize("bits", range(1, 9))
def test_effective_bits_covers_the_values_of_an_n_model_average(bits):
    # n models on an M-level grid average to at most n (M - 1) + 1 values
    for n in range(1, 32):
        values = n * (levels_count(bits) - 1) + 1
        b = effective_bits(n, bits)
        assert levels_count(b) >= values
        assert b == 1 or levels_count(b - 1) < values


def test_effective_bits_beyond_ternary():
    assert effective_bits(3, bits=4) == 6      # 43 values: 3 models of 15 levels
    assert effective_bits(7, bits=4) == 7      # 99 values
    assert [effective_bits(n, bits=1) for n in (1, 2, 3, 7)] == [1, 2, 3, 4]


def test_effective_bits_rejects_nonpositive():
    with pytest.raises(ValueError):
        effective_bits(0, bits=2)


def test_hand_example_six_sevenths():
    # 7 captures of one weight with levels [1,1,1,0,1,1,1]: mean is 6*step/7
    step = 0.5
    bank = CaptureBank(2, [step])
    for k, lv in enumerate([1, 1, 1, 0, 1, 1, 1]):
        bank.add(_entry(k, [[lv]], step))
    avg = average_models(bank, 7)
    assert avg.net.weights[0][0, 0] == pytest.approx(6 * step / 7, abs=1e-15)
    assert avg.count == 7
    assert avg.effective_bits == 4
    assert avg.base_steps == [step]


def test_average_is_exactly_grid_resident():
    rng = np.random.default_rng(60)
    step = 0.3
    bank = CaptureBank(2, [step])
    for k in range(7):
        levels = rng.integers(-1, 2, size=(6, 5))
        bank.add(_entry(k, levels, step))
    avg = average_models(bank, 7)
    scaled = avg.net.weights[0] * (7 / step)
    np.testing.assert_array_equal(scaled, np.rint(scaled))
    assert len(np.unique(avg.net.weights[0])) <= 15


def test_average_matches_float_mean():
    rng = np.random.default_rng(61)
    step = 0.25
    bank = CaptureBank(2, [step])
    nets = []
    for k in range(5):
        levels = rng.integers(-1, 2, size=(4, 3))
        e = _entry(k, levels, step, bias=rng.normal(size=4))
        nets.append(e.model.net)
        bank.add(e)
    avg = average_models(bank, 5)
    np.testing.assert_allclose(avg.net.weights[0],
                               np.mean([n.weights[0] for n in nets], axis=0),
                               atol=1e-15)
    np.testing.assert_allclose(avg.net.biases[0],
                               np.mean([n.biases[0] for n in nets], axis=0),
                               atol=1e-15)


def test_average_last_n_subset():
    step = 0.5
    bank = CaptureBank(2, [step])
    for k, lv in enumerate([-1, 0, 1, 1]):
        bank.add(_entry(k, [[lv]], step))
    avg = average_models(bank, 2)
    assert avg.net.weights[0][0, 0] == pytest.approx(step)
    assert avg.count == 2
    assert avg.effective_bits == 3


def test_average_models_bounds():
    bank = CaptureBank(2, [0.5])
    bank.add(_entry(0, [[1]], 0.5))
    with pytest.raises(ValueError):
        average_models(bank, 2)
    with pytest.raises(ValueError):
        average_models(bank, 0)


def test_bank_rejects_mismatched_config():
    bank = CaptureBank(2, [0.5])
    with pytest.raises(ValueError):
        bank.add(_entry(0, [[1]], 0.25))
    e = _entry(0, [[1]], 0.5)
    e.model.bits = 3
    with pytest.raises(ValueError):
        bank.add(e)


def test_bank_rejects_out_of_order_epochs():
    bank = CaptureBank(2, [0.5])
    bank.add(_entry(5, [[1]], 0.5))
    with pytest.raises(ValueError):
        bank.add(_entry(5, [[0]], 0.5))
    with pytest.raises(ValueError):
        bank.add(_entry(4, [[0]], 0.5))


def test_bank_rejects_shape_mismatch():
    bank = CaptureBank(2, [0.5])
    bank.add(_entry(0, [[1, 0]], 0.5))
    with pytest.raises(ValueError):
        bank.add(_entry(1, [[1, 0, 1]], 0.5))


def test_average_rejects_off_grid_capture():
    bank = CaptureBank(2, [0.5])
    e = _entry(0, [[1]], 0.5)
    e.model.net.weights[0][0, 0] = 0.3
    bank.entries.append(e)  # bypass add() to exercise the averaging check
    with pytest.raises(ValueError, match="grid"):
        average_models(bank, 1)


def test_requantize_averaged_round_trip():
    rng = np.random.default_rng(62)
    net = init_weights([dense(5, 8), relu(), dense(8, 3)], (5,), seed=62)
    avg = AveragedModel(net, count=7, base_steps=[0.1, 0.1], effective_bits=4)
    model = requantize_averaged(avg, 2)
    steps = [select_step_size(net.weights[i], 2) for i in net.param_layers()]
    assert model.bits == 2
    assert model.steps == steps
    for j, i in enumerate(model.net.param_layers()):
        cfg = QuantizerConfig(2, steps[j])
        np.testing.assert_array_equal(
            model.net.weights[i], quantize_tensor(net.weights[i], cfg))
        np.testing.assert_array_equal(model.net.biases[i], net.biases[i])


# --- every accepted bit width, averages of 1 to 31 models ---------------------

def _top_level(bits):
    return max(1, (levels_count(bits) - 1) // 2)


def _bank_of_levels(bits, levels, step, seed):
    # one capture per row block of `levels` (n, rows, cols), on the `bits` grid
    rng = np.random.default_rng(seed)
    bank = CaptureBank(bits, [step])
    for k, lv in enumerate(levels):
        net = Network((lv.shape[1],), [dense(lv.shape[1], lv.shape[0])])
        net.weights[0], net.biases[0] = lv * step, rng.normal(size=lv.shape[0])
        bank.add(CaptureEntry(k, QuantizedModel(net, bits, [step]), net.copy(), {}))
    return bank


GRID_CASES = dict(bits=st.integers(1, 8), n=st.integers(1, 31), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(**GRID_CASES)
def test_average_is_the_exact_level_sum_for_every_bit_width(bits, n, seed):
    # captures the quantizer puts on the grid, wide enough to clip at the top level
    rng = np.random.default_rng(seed)
    step = rng.uniform(0.01, 1.0)
    cfg = QuantizerConfig(bits, step)
    shadows = rng.normal(scale=_top_level(bits) * step, size=(n, 4, 6))
    levels = np.rint(np.array([quantize_tensor(w, cfg) for w in shadows]) / step)
    avg = average_models(_bank_of_levels(bits, levels, step, seed), n)
    summed = levels.sum(axis=0)
    assert np.abs(summed).max() <= n * _top_level(bits)
    assert np.array_equal(avg.net.weights[0], summed * (step / n))
    assert np.array_equal(np.rint(avg.net.weights[0] / (step / n)), summed)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(**GRID_CASES)
def test_average_reaches_exactly_the_n_m_minus_1_plus_1_value_budget(bits, n, seed):
    # one column per attainable level sum, its n parts shuffled over the captures
    top, m = _top_level(bits), levels_count(bits)
    rng = np.random.default_rng(seed)
    if bits == 1:
        columns = [[-1] * k + [1] * (n - k) for k in range(n + 1)]
    else:
        columns = [[q + 1] * r + [q] * (n - r)
                   for q, r in (divmod(s, n) for s in range(-n * top, n * top + 1))]
    levels = np.array([rng.permutation(c) for c in columns], dtype=np.float64).T[:, None, :]
    avg = average_models(_bank_of_levels(bits, levels, 0.5, seed), n)
    values = np.unique(avg.net.weights[0])
    assert values.size == len(columns) == n * (m - 1) + 1
    assert levels_count(avg.effective_bits) >= values.size


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(**GRID_CASES)
def test_average_round_trips_through_the_narrowest_level_storage(bits, n, seed):
    rng = np.random.default_rng(seed)
    top = _top_level(bits)
    grid = [-1, 1] if bits == 1 else np.arange(-top, top + 1)
    levels = rng.choice(grid, size=(n, 3, 5)).astype(np.float64)
    levels[:, 0, 0] = top  # the largest sum occurs
    avg = average_models(_bank_of_levels(bits, levels, rng.uniform(0.01, 1.0), seed), n)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt.save(avg, tmp)
        encodings = [t["encoding"] for t in ckpt.load_manifest(tmp)["tensors"]]
        back = ckpt.load(tmp)
    assert encodings == ["i8" if n * top <= 127 else "i16", "f32"]
    assert np.array_equal(back.net.weights[0], avg.net.weights[0])
    assert (back.count, back.base_steps, back.effective_bits) == \
        (n, avg.base_steps, effective_bits(n, bits))

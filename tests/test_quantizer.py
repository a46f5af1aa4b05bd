import numpy as np
import pytest

from sqwa.quantizer import (
    QuantizerConfig,
    direct_quantize_model,
    levels_count,
    quantize_network,
    quantize_tensor,
    select_step_size,
)
from sqwa.nn import dense, init_weights, relu


def test_levels_count_table():
    assert levels_count(1) == 2
    assert [levels_count(b) for b in range(2, 9)] == [3, 7, 15, 31, 63, 127, 255]


def test_levels_count_rejects_nonpositive():
    with pytest.raises(ValueError):
        levels_count(0)
    with pytest.raises(ValueError):
        levels_count(-3)


def test_config_validation():
    with pytest.raises(ValueError):
        QuantizerConfig(bits=2, step=0.0)
    with pytest.raises(ValueError):
        QuantizerConfig(bits=2, step=-1.0)
    assert QuantizerConfig(bits=3, step=0.25).levels == 7


def test_worked_examples_ternary():
    # b=2, step 0.5: levels are {-0.5, 0, 0.5}
    cfg = QuantizerConfig(bits=2, step=0.5)
    w = np.array([0.7, 0.2, -10.0, 0.26, 0.24, -0.3])
    q = quantize_tensor(w, cfg)
    np.testing.assert_array_equal(q, [0.5, 0.0, -0.5, 0.5, 0.0, -0.5])


def test_half_step_rounds_away_from_zero():
    cfg = QuantizerConfig(bits=3, step=0.5)
    w = np.array([0.25, -0.25, 0.75, -0.75])
    q = quantize_tensor(w, cfg)
    np.testing.assert_array_equal(q, [0.5, -0.5, 1.0, -1.0])


def test_binary_two_levels_only():
    cfg = QuantizerConfig(bits=1, step=0.3)
    w = np.array([-2.0, -0.01, 0.0, 0.01, 5.0])
    q = quantize_tensor(w, cfg)
    np.testing.assert_array_equal(q, [-0.3, -0.3, 0.3, 0.3, 0.3])


def test_idempotence_across_widths():
    rng = np.random.default_rng(7)
    for bits in (1, 2, 3, 4, 8):
        w = rng.normal(size=513).astype(np.float64)
        cfg = QuantizerConfig(bits=bits, step=0.17)
        q = quantize_tensor(w, cfg)
        qq = quantize_tensor(q, cfg)
        np.testing.assert_array_equal(q, qq)


def test_odd_symmetry():
    rng = np.random.default_rng(8)
    w = rng.normal(size=1000)
    w = w[w != 0.0]
    cfg = QuantizerConfig(bits=3, step=0.21)
    np.testing.assert_array_equal(quantize_tensor(-w, cfg), -quantize_tensor(w, cfg))


def test_grid_membership_and_clipping():
    rng = np.random.default_rng(9)
    w = rng.normal(scale=3.0, size=2000)
    for bits in (2, 3, 5):
        cfg = QuantizerConfig(bits=bits, step=0.4)
        q = quantize_tensor(w, cfg)
        half = (cfg.levels - 1) // 2
        levels = np.rint(q / cfg.step)
        np.testing.assert_array_equal(levels * cfg.step, q)
        assert np.abs(levels).max() <= half


def test_error_bound_inside_range():
    # within the unclipped range the error never exceeds step/2
    rng = np.random.default_rng(10)
    cfg = QuantizerConfig(bits=4, step=0.3)
    half = (cfg.levels - 1) // 2
    w = rng.uniform(-half * cfg.step, half * cfg.step, size=5000)
    err = np.abs(quantize_tensor(w, cfg) - w)
    assert err.max() <= cfg.step / 2 + 1e-12


def test_quantization_error_is_signed_residual():
    cfg = QuantizerConfig(bits=2, step=0.5)
    w = np.array([0.7, -0.1])
    err = quantize_tensor(w, cfg) - w
    np.testing.assert_allclose(err, [0.5 - 0.7, 0.1])


def test_select_step_matches_dense_sweep():
    # oracle: brute-force sweep over a dense candidate grid
    rng = np.random.default_rng(11)
    w = rng.normal(size=400)
    bits = 2
    found = select_step_size(w, bits)
    hi = 2.0 * np.abs(w).max() / (levels_count(bits) - 1)
    candidates = np.linspace(hi / 20000, hi, 20000)
    errs = [
        ((quantize_tensor(w, QuantizerConfig(bits=bits, step=s)) - w) ** 2).mean()
        for s in candidates
    ]
    best = candidates[int(np.argmin(errs))]
    assert abs(found - best) / best < 0.02
    found_err = ((quantize_tensor(w, QuantizerConfig(bits=bits, step=found)) - w) ** 2).mean()
    assert found_err <= min(errs) + 1e-12


def test_select_step_binary_closed_form():
    # optimal two-level step is mean |w|
    rng = np.random.default_rng(12)
    w = rng.normal(size=3000)
    found = select_step_size(w, 1)
    assert abs(found - np.abs(w).mean()) < 1e-4


def test_select_step_exact_fit():
    w = np.array([-1.0, 1.0, 1.0, -1.0])
    step = select_step_size(w, 2)
    assert step == pytest.approx(1.0, abs=1e-6)
    q = quantize_tensor(w, QuantizerConfig(bits=2, step=step))
    np.testing.assert_allclose(q, w, atol=1e-9)


def test_select_step_rejects_degenerate():
    with pytest.raises(ValueError):
        select_step_size(np.zeros(10), 2)
    # finite, but the search's upper end 2 * max|w| overflows
    with pytest.raises(ValueError, match="positive finite"):
        select_step_size(np.array([1e308, -1.0]), 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("bits", [1, 2])
def test_select_step_rejects_non_finite_input(bad, bits):
    w = np.array([0.3, -0.2, bad, 0.1])
    with pytest.raises(ValueError, match="NaN or infinite"):
        select_step_size(w, bits)


def test_quantize_network_rejects_a_step_list_of_the_wrong_length():
    net = init_weights([dense(6, 5), relu(), dense(5, 3)], (6,), seed=3)
    for steps in ([0.2], [0.2, 0.3, 0.4]):
        with pytest.raises(ValueError, match="disagree"):
            quantize_network(net, 2, steps)
    with pytest.raises(ValueError, match="step"):
        quantize_network(net, 2, [0.2, np.nan])


def test_quantize_network_leaves_biases():
    net = init_weights([dense(6, 5), relu(), dense(5, 3)], (6,), seed=3)
    for i in net.param_layers():
        net.biases[i] = np.random.default_rng(i).normal(size=net.biases[i].shape)
    steps = [0.2, 0.3]
    qnet = quantize_network(net, 2, steps)
    for i, layer in enumerate(qnet.param_layers()):
        cfg = QuantizerConfig(bits=2, step=steps[i])
        np.testing.assert_array_equal(qnet.weights[layer],
                                      quantize_tensor(net.weights[layer], cfg))
        np.testing.assert_array_equal(qnet.biases[layer], net.biases[layer])


def test_direct_quantize_model_records_steps():
    net = init_weights([dense(4, 8), relu(), dense(8, 2)], (4,), seed=4)
    model, steps = direct_quantize_model(net, 2)
    assert model.bits == 2
    assert model.steps == steps
    assert len(steps) == 2
    for i, layer in enumerate(model.net.param_layers()):
        lv = np.rint(model.net.weights[layer] / steps[i])
        np.testing.assert_array_equal(lv * steps[i], model.net.weights[layer])

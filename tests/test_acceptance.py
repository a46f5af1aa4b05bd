"""End-to-end acceptance checks.

Each test carries its criterion number in its name; conftest.py folds the
results into a pass/fail table printed after the run. The desk-scale runs
use three pinned seeds and the default recipe.
"""

import shutil
import struct
import time

import numpy as np
import pytest

from sqwa import checkpoint as ckpt
from sqwa.averaging import (
    CaptureBank,
    average_models,
    effective_bits,
    requantize_averaged,
)
from sqwa.checkpoint import CheckpointError
from sqwa.data import Dataset, IdxFormatError, load_idx, read_idx, write_idx
from sqwa.losscape import (
    build_plane,
    evaluate_surface,
    grid_point,
    params_to_vector,
    quantized_grid_point,
    vector_to_network,
)
from sqwa.nn import (
    Gradients,
    OptimizerState,
    conv2d,
    dense,
    evaluate,
    flatten,
    forward,
    init_weights,
    loss_and_backward,
    relu,
)
from sqwa.pipeline import RunConfig, build_datasets, run_sqwa
from sqwa.qat import ShadowModel, _StepWorkspace, finetune, qat_train_step
from sqwa.quantizer import QuantizerConfig, levels_count, quantize_tensor
from sqwa.schedule import CyclicalSchedule, capture_epochs, derive_cycle_bounds

SEEDS = (101, 202, 303)


# --- shared desk-scale runs -------------------------------------------------

@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    """Full default-recipe pipeline on each pinned seed, with the derived
    accuracies every trend check needs."""
    runs = {}
    for seed in SEEDS:
        out = tmp_path_factory.mktemp(f"desk_{seed}")
        t0 = time.monotonic()
        result = run_sqwa(RunConfig(seed=seed, output_dir=str(out)))
        wall = time.monotonic() - t0
        cfg = result["config"]
        paths = result["paths"]
        _, test = build_datasets(cfg)
        bank = ckpt.load(paths["capture_bank"])
        n = cfg.average_last_n
        caps = [evaluate(e.model.net, test)[1] for e in bank.entries[-n:]]

        def group_drop(entries):
            avg = average_models(CaptureBank(bank.bits, bank.steps, list(entries)), len(entries))
            requant, _ = requantize_averaged(avg, cfg.bits)
            return evaluate(avg.net, test)[1] - evaluate(requant.net, test)[1]

        runs[seed] = {
            "paths": paths,
            "cfg": cfg,
            "wall": wall,
            "test": test,
            "bank": bank,
            "fp_acc": evaluate(ckpt.load(paths["pretrained"]), test)[1],
            "direct0_acc": evaluate(ckpt.load(paths["direct_quantized"]).net, test)[1],
            "caps": caps,
            "avg_acc": evaluate(ckpt.load(paths["averaged"]).net, test)[1],
            "ft_acc": evaluate(ckpt.load(paths["final_quantized"]).net, test)[1],
            "early_drop": group_drop(bank.entries[:n]),
            "late_drop": group_drop(bank.entries[-n:]),
        }
    return runs


# --- criterion 1: quantizer algebra ----------------------------------------

def test_criterion_01_quantizer_algebra():
    rng = np.random.default_rng(1001)
    cases_per_property = 10_000
    configs = 100
    per_config = cases_per_property // configs
    t0 = time.monotonic()

    for _ in range(configs):
        bits = int(rng.integers(1, 9))
        step = float(rng.uniform(0.01, 2.0))
        cfg = QuantizerConfig(bits, step)
        half = (cfg.levels - 1) // 2

        w = rng.normal(scale=2.0, size=per_config)
        w = w[w != 0.0]

        # idempotence
        q = quantize_tensor(w, cfg)
        assert np.array_equal(quantize_tensor(q, cfg), q)

        # odd symmetry (away from zero, where the two-level case breaks ties up)
        assert np.array_equal(quantize_tensor(-w, cfg), -q)

        # monotonicity
        ws = np.sort(w)
        assert np.all(np.diff(quantize_tensor(ws, cfg)) >= 0.0)

        # grid membership
        if bits == 1:
            assert set(np.unique(q)) <= {-step, step}
        else:
            levels = np.rint(q / step)
            assert np.array_equal(levels * step, q)
            assert np.abs(levels).max(initial=0) <= half

        # half-step error bound inside the representable range
        if bits >= 2:
            w_in = rng.uniform(-half * step, half * step, size=per_config)
            err = np.abs(quantize_tensor(w_in, cfg) - w_in)
            assert err.max() <= step / 2 + 1e-12

    assert time.monotonic() - t0 < 5.0


# --- criterion 2: level arithmetic ------------------------------------------

def test_criterion_02_level_counts():
    assert [levels_count(b) for b in range(2, 9)] == [2 ** b - 1 for b in range(2, 9)]


def test_criterion_02_effective_bits():
    assert [effective_bits(n, bits=2) for n in (3, 7, 15, 31)] == [3, 4, 5, 6]


# --- criterion 3: averaging grid exactness ----------------------------------

def test_criterion_03_synthetic_grids():
    from sqwa.averaging import CaptureEntry
    from sqwa.nn import Network
    from sqwa.quantizer import QuantizedModel

    rng = np.random.default_rng(1003)
    step = 0.37
    for n in (1, 3, 7, 15):
        bank = CaptureBank(2, [step])
        for k in range(n):
            levels = rng.integers(-1, 2, size=(8, 6)).astype(np.float64)
            net = Network(input_shape=(6,), specs=[dense(6, 8)],
                          weights=[levels * step], biases=[np.zeros(8)])
            bank.add(CaptureEntry(k, QuantizedModel(net, 2, [step]),
                                  net.copy(), {}))
        avg = average_models(bank, n)
        scaled = avg.net.weights[0] * n / step
        assert np.abs(scaled - np.rint(scaled)).max() <= 1e-9
        assert len(np.unique(avg.net.weights[0])) <= 2 * n + 1


def test_criterion_03_desk_run_levels(desk_runs):
    run = desk_runs[SEEDS[0]]
    bank = run["bank"]
    n = run["cfg"].average_last_n
    avg = average_models(bank, n)
    assert avg.effective_bits == 4
    for j, i in enumerate(avg.net.param_layers()):
        scaled = avg.net.weights[i] * n / bank.steps[j]
        assert np.abs(scaled - np.rint(scaled)).max() <= 1e-9
        assert len(np.unique(avg.net.weights[i])) <= 2 * n + 1


# --- criterion 4: plane math -------------------------------------------------

def test_criterion_04_plane_math():
    rng = np.random.default_rng(1004)
    for _ in range(100):
        w1, w2, w3 = rng.normal(size=(3, 300))
        plane = build_plane(w1, w2, w3)
        assert abs(float(plane.u_hat @ plane.v_hat)) <= 1e-10
        assert abs(float(np.linalg.norm(plane.u_hat)) - 1.0) <= 1e-10
        assert abs(float(np.linalg.norm(plane.v_hat)) - 1.0) <= 1e-10
        for anchor, w in zip(plane.anchors, (w1, w2, w3)):
            rec = grid_point(plane, anchor[0], anchor[1])
            assert np.linalg.norm(rec - w) <= 1e-8 * np.linalg.norm(w)


def test_criterion_04_collinear_rejection():
    rng = np.random.default_rng(1005)
    w = rng.normal(size=200)
    d = rng.normal(size=200)
    with pytest.raises(ValueError):
        build_plane(w, w + d, w + 2.0 * d)
    with pytest.raises(ValueError):
        build_plane(w, w, w + d)


# --- criterion 5: quantized surface ------------------------------------------

@pytest.fixture(scope="module")
def capture_plane(desk_runs):
    run = desk_runs[SEEDS[0]]
    bank = run["bank"]
    entries = bank.entries[:3]
    vectors = [params_to_vector(e.shadow) for e in entries]
    plane = build_plane(*vectors)
    template = entries[0].shadow
    train, _ = build_datasets(run["cfg"])
    small = Dataset(train.images[::12], train.labels[::12], train.num_classes)
    return plane, template, small, bank, entries


def test_criterion_05_grid_residency(capture_plane):
    plane, template, small, bank, _ = capture_plane
    grid = evaluate_surface(plane, template, small, resolution=41,
                            mode="quantized", bits=bank.bits, steps=bank.steps)
    assert grid.loss.shape == (41, 41)
    half = (levels_count(bank.bits) - 1) // 2
    for x in grid.xs:
        for y in grid.ys:
            vec = quantized_grid_point(plane, x, y, template, bank.bits, bank.steps)
            net = vector_to_network(template, vec)
            for j, i in enumerate(net.param_layers()):
                levels = np.rint(net.weights[i] / bank.steps[j])
                assert np.array_equal(levels * bank.steps[j], net.weights[i])
                assert np.abs(levels).max(initial=0) <= half


def test_criterion_05_anchor_losses(capture_plane):
    plane, template, small, bank, entries = capture_plane
    grid = evaluate_surface(plane, template, small, resolution=41,
                            mode="quantized", bits=bank.bits, steps=bank.steps)
    for anchor, entry in zip(plane.anchors, entries):
        ix = int(np.nonzero(grid.xs == anchor[0])[0][0])
        iy = int(np.nonzero(grid.ys == anchor[1])[0][0])
        direct_loss, direct_acc = evaluate(entry.model.net, small)
        assert abs(grid.loss[ix, iy] - direct_loss) <= 1e-10
        assert grid.accuracy[ix, iy] == direct_acc


def test_criterion_05_full_precision_mode_exact(capture_plane):
    plane, template, small, _, _ = capture_plane
    grid = evaluate_surface(plane, template, small, resolution=9)
    for i, x in enumerate(grid.xs):
        for j, y in enumerate(grid.ys):
            net = vector_to_network(template, grid_point(plane, x, y))
            loss, acc = evaluate(net, small)
            assert grid.loss[i, j] == loss
            assert grid.accuracy[i, j] == acc


# --- criterion 6: gradient oracle ---------------------------------------------

def _loss(net, batch, labels):
    # mean cross-entropy from a full log-softmax of the public forward's
    # logits, independent of the package's own loss
    logits = forward(net, batch)[0]
    z = logits - logits.max(axis=1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-z[np.arange(len(labels)), labels].sum() / len(labels))


def _fd_check(net, batch, labels, rtol=1e-4, eps=1e-5):
    logits, cache = forward(net, batch)
    grads = loss_and_backward(net, cache, logits, np.eye(logits.shape[1])[labels],
                              Gradients.like(net))
    for i in net.param_layers():
        for arr, g in ((net.weights[i], grads.weights[i]),
                       (net.biases[i], grads.biases[i])):
            fd = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + eps
                hi = _loss(net, batch, labels)
                arr[idx] = orig - eps
                lo = _loss(net, batch, labels)
                arr[idx] = orig
                fd[idx] = (hi - lo) / (2 * eps)
            scale = max(float(np.abs(fd).max()), 1e-8)
            assert float(np.abs(g - fd).max()) / scale < rtol


def test_criterion_06_gradient_oracle():
    rng = np.random.default_rng(1006)
    for k in range(20):
        if k % 2 == 0:
            specs = [dense(4, 6), relu(), dense(6, 3)]
            net = init_weights(specs, (4,), seed=2000 + k)
            batch = rng.normal(size=(5, 4))
        else:
            specs = [conv2d(2, 3, 3), relu(), flatten(), dense(27, 3)]
            net = init_weights(specs, (2, 5, 5), seed=2000 + k)
            batch = rng.normal(size=(3, 2, 5, 5))
        labels = rng.integers(0, 3, size=batch.shape[0])
        # full-precision regime
        _fd_check(net, batch, labels)
        # quantized-applied regime: gradients at the quantized point
        model = ShadowModel.from_network(net, 2)
        _fd_check(model.applied, batch, labels)


# --- criterion 7: shadow-weight semantics --------------------------------------

def test_criterion_07_applied_equals_quantized_shadow():
    rng = np.random.default_rng(1007)
    net = init_weights([dense(5, 10), relu(), dense(10, 4)], (5,), seed=1007)
    model = ShadowModel.from_network(net, 2)
    ws = _StepWorkspace(model, OptimizerState.for_network(model.shadow, momentum=0.9))
    for step in range(30):
        x = rng.normal(size=(12, 5))
        y = rng.integers(0, 4, size=12)
        qat_train_step(ws, x, np.eye(4)[y], lr=0.05)
        idx = model.shadow.param_layers()
        for i, s in zip(idx, model.steps):
            expected = quantize_tensor(model.shadow.weights[i],
                                       QuantizerConfig(model.bits, s))
            assert np.array_equal(model.applied.weights[i], expected)
            assert np.array_equal(model.applied.biases[i], model.shadow.biases[i])


def test_criterion_07_small_step_leaves_applied_unchanged():
    rng = np.random.default_rng(1008)
    net = init_weights([dense(5, 8), relu(), dense(8, 3)], (5,), seed=1008)
    model = ShadowModel.from_network(net, 2)
    ws = _StepWorkspace(model, OptimizerState.for_network(model.shadow, momentum=0.0))
    shadow_before = [w.copy() for w in model.shadow.weights if w is not None]
    applied_before = [w.copy() for w in model.applied.weights if w is not None]
    x = rng.normal(size=(8, 5))
    y = rng.integers(0, 3, size=8)
    qat_train_step(ws, x, np.eye(3)[y], lr=1e-10)
    shadow_after = [w for w in model.shadow.weights if w is not None]
    applied_after = [w for w in model.applied.weights if w is not None]
    assert any(not np.array_equal(b, a) for b, a in zip(shadow_before, shadow_after))
    for b, a in zip(applied_before, applied_after):
        assert np.array_equal(b, a)


# --- criterion 8: schedule rules -----------------------------------------------

def test_criterion_08_cycle_bounds():
    hi, lo = derive_cycle_bounds([0.1, 0.01, 0.001])
    assert hi == pytest.approx(0.01, rel=1e-12)
    assert lo == pytest.approx(0.0001, rel=1e-12)


def test_criterion_08_capture_spacing():
    spec = CyclicalSchedule(max_lr=0.01, min_lr=0.0001, period=6,
                            mid_steps=1, total_epochs=84)
    eps = capture_epochs(spec)
    assert eps[0] == 5
    assert all(b - a == 6 for a, b in zip(eps, eps[1:]))
    assert len(eps) == 14


def test_criterion_08_finetune_decay_sequence(tmp_path, monkeypatch):
    from sqwa.pipeline import default_config
    cfg = default_config(tmp_path, seed=0)
    assert cfg.finetune.initial_lr == pytest.approx(1e-3, rel=1e-12)
    assert cfg.finetune.decay == 0.1
    assert cfg.finetune.epochs == 4

    seen = []
    import sqwa.qat as qat_mod

    def spy(model, dataset, lr, opt, batch_size, seed, epoch):
        seen.append(lr)

    monkeypatch.setattr(qat_mod, "_run_epoch", spy)
    net = init_weights([dense(3, 4), relu(), dense(4, 2)], (3,), seed=8)
    model = ShadowModel.from_network(net, 2)
    data = Dataset(np.zeros((4, 3)), np.array([0, 1, 0, 1]), 2)
    finetune(model, data, cfg.finetune.initial_lr, cfg.finetune.epochs,
             cfg.finetune.decay, seed=0)
    assert seen == pytest.approx([1e-3, 1e-4, 1e-5, 1e-6], rel=1e-9)


# --- criterion 9: end-to-end trends ---------------------------------------------

def test_criterion_09_a_direct_quantization_drop(desk_runs):
    for seed in SEEDS:
        run = desk_runs[seed]
        assert run["fp_acc"] - run["direct0_acc"] >= 0.05, seed


def test_criterion_09_b_average_beats_capture_mean(desk_runs):
    for seed in SEEDS:
        run = desk_runs[seed]
        assert run["avg_acc"] >= np.mean(run["caps"]), seed


def test_criterion_09_c_finetuned_model(desk_runs):
    hits = 0
    for seed in SEEDS:
        run = desk_runs[seed]
        assert run["ft_acc"] >= np.mean(run["caps"]), seed
        hits += run["ft_acc"] >= max(run["caps"])
    assert hits >= 2


def test_criterion_09_d_late_captures_requantize_better(desk_runs):
    hits = sum(desk_runs[s]["late_drop"] < desk_runs[s]["early_drop"]
               for s in SEEDS)
    assert hits >= 2


def test_criterion_09_runtime_budget(desk_runs):
    for seed in SEEDS:
        assert desk_runs[seed]["wall"] < 600.0, seed


# --- criterion 10: determinism and persistence ------------------------------------

def test_criterion_10_rerun_is_byte_identical(desk_runs, tmp_path):
    seed = SEEDS[0]
    first = desk_runs[seed]["paths"]["pretrained"].parent
    again = tmp_path / "again"
    run_sqwa(RunConfig(seed=seed, output_dir=str(again)))
    payloads = sorted(p.relative_to(first) for p in first.rglob("payload.bin"))
    assert payloads == sorted(p.relative_to(again) for p in again.rglob("payload.bin"))
    assert len(payloads) >= 8
    for rel in payloads:
        assert (first / rel).read_bytes() == (again / rel).read_bytes(), rel
    manifests = sorted(p.relative_to(first) for p in first.rglob("manifest.json"))
    for rel in manifests:
        assert (first / rel).read_text() == (again / rel).read_text(), rel
    assert (first / "metrics.csv").read_text() == (again / "metrics.csv").read_text()


def test_criterion_10_round_trip_keeps_evaluation_bits(desk_runs, tmp_path):
    run = desk_runs[SEEDS[0]]
    model = ckpt.load(run["paths"]["final_quantized"])
    before = evaluate(model.net, run["test"])
    ckpt.save(model, tmp_path / "copy")
    after = evaluate(ckpt.load(tmp_path / "copy").net, run["test"])
    assert before == after


def test_criterion_10_tampering_rejected(desk_runs, tmp_path):
    src = desk_runs[SEEDS[0]]["paths"]["final_quantized"]
    dst = tmp_path / "tampered"
    shutil.copytree(src, dst)
    payload = dst / "payload.bin"
    raw = bytearray(payload.read_bytes())
    raw[0] ^= 0x01
    payload.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        ckpt.load(dst)


# --- criterion 11: IDX conformance ---------------------------------------------

def test_criterion_11_byte_level_fixtures(tmp_path):
    labels = bytes([0, 0, 0x08, 1]) + struct.pack(">I", 5) + bytes([9, 8, 7, 6, 5])
    p = tmp_path / "labels.idx"
    p.write_bytes(labels)
    np.testing.assert_array_equal(read_idx(p), [9, 8, 7, 6, 5])

    images = bytes([0, 0, 0x08, 3]) + struct.pack(">III", 2, 2, 3) + bytes(range(12))
    q = tmp_path / "imgs.idx"
    q.write_bytes(images)
    out = read_idx(q)
    assert out.shape == (2, 2, 3)
    np.testing.assert_array_equal(out.ravel(), np.arange(12))


def test_criterion_11_distinct_errors(tmp_path):
    good = bytes([0, 0, 0x08, 1]) + struct.pack(">I", 3) + bytes([1, 2, 3])

    bad_magic = tmp_path / "magic.idx"
    bad_magic.write_bytes(b"\x00\x01" + good[2:])
    with pytest.raises(IdxFormatError) as e1:
        read_idx(bad_magic)

    cut = tmp_path / "cut.idx"
    cut.write_bytes(good[:-1])
    with pytest.raises(IdxFormatError) as e2:
        read_idx(cut)

    imgs = tmp_path / "i.idx"
    labs = tmp_path / "l.idx"
    write_idx(imgs, np.zeros((2, 2, 2), dtype=np.uint8))
    write_idx(labs, np.zeros(3, dtype=np.uint8))
    with pytest.raises(IdxFormatError) as e3:
        load_idx(imgs, labs)

    msgs = [str(e1.value), str(e2.value), str(e3.value)]
    assert "bad magic" in msgs[0]
    assert "truncated payload" in msgs[1]
    assert "count mismatch" in msgs[2]
    assert len(set(msgs)) == 3

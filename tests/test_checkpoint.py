import hashlib
import json

import numpy as np
import pytest

from sqwa import checkpoint as ckpt
from sqwa.averaging import AveragedModel, CaptureBank, CaptureEntry, average_models
from sqwa.checkpoint import CheckpointError
from sqwa.nn import Network, dense, evaluate, init_weights, relu
from sqwa.data import synthetic_blobs
from sqwa.pipeline import default_config, run_stages
from sqwa.qat import ShadowModel
from sqwa.quantizer import (QuantizedModel, QuantizerConfig, direct_quantize_model,
                            quantize_tensor)


def _f32(arr):
    return arr.astype(np.float32).astype(np.float64)


def _net(seed=110):
    return init_weights([dense(4, 6), relu(), dense(6, 3)], (4,), seed=seed)


def _quantized(seed=111):
    model, _ = direct_quantize_model(_net(seed), 2)
    rng = np.random.default_rng(seed + 1)
    for i in model.net.param_layers():
        # keep biases exactly single-precision so reloads are bitwise
        model.net.biases[i] = _f32(rng.normal(size=model.net.biases[i].shape))
    return model


def test_network_round_trip_truncates_to_f32(tmp_path):
    net = _net()
    ckpt.save(net, tmp_path / "n")
    back = ckpt.load(tmp_path / "n")
    for i in net.param_layers():
        np.testing.assert_array_equal(back.weights[i], _f32(net.weights[i]))
        np.testing.assert_array_equal(back.biases[i], _f32(net.biases[i]))
    assert [s.kind for s in back.specs] == [s.kind for s in net.specs]
    assert back.input_shape == net.input_shape


def test_save_load_save_is_byte_stable(tmp_path):
    net = _net()
    ckpt.save(net, tmp_path / "a")
    back = ckpt.load(tmp_path / "a")
    ckpt.save(back, tmp_path / "b")
    assert (tmp_path / "a" / "payload.bin").read_bytes() == \
           (tmp_path / "b" / "payload.bin").read_bytes()
    a = json.loads((tmp_path / "a" / "manifest.json").read_text())
    b = json.loads((tmp_path / "b" / "manifest.json").read_text())
    a.pop("provenance"), b.pop("provenance")
    assert a == b


def test_quantized_round_trip_bitwise(tmp_path):
    model = _quantized()
    ckpt.save(model, tmp_path / "q")
    back = ckpt.load(tmp_path / "q")
    assert isinstance(back, QuantizedModel)
    assert back.bits == model.bits and back.steps == model.steps
    for i in model.net.param_layers():
        np.testing.assert_array_equal(back.net.weights[i], model.net.weights[i])
        np.testing.assert_array_equal(back.net.biases[i], model.net.biases[i])


def test_quantized_round_trip_evaluates_identically(tmp_path):
    model = _quantized()
    data = synthetic_blobs(3, 20, 4, 0.5, seed=112)
    before = evaluate(model.net, data)
    ckpt.save(model, tmp_path / "q")
    after = evaluate(ckpt.load(tmp_path / "q").net, data)
    assert before == after


def test_shadow_round_trip(tmp_path):
    # shadow weights are stored as float64, so they reload exactly
    model = ShadowModel.from_network(_net(113), 2)
    ckpt.save(model, tmp_path / "s")
    back = ckpt.load(tmp_path / "s")
    assert isinstance(back, ShadowModel)
    assert back.bits == model.bits and back.steps == model.steps
    for i in model.shadow.param_layers():
        np.testing.assert_array_equal(back.shadow.weights[i], model.shadow.weights[i])
        np.testing.assert_array_equal(back.applied.weights[i],
                                      model.applied.weights[i])


def _quantizes_to_applied(model: ShadowModel) -> bool:
    return all(np.array_equal(quantize_tensor(model.shadow.weights[i],
                                              QuantizerConfig(model.bits, step)),
                              model.applied.weights[i])
               for i, step in zip(model.shadow.param_layers(), model.steps))


def test_shadow_next_to_midpoint_reloads_on_its_level(tmp_path):
    # A shadow weight just past -step/2 quantizes to -step; its nearest
    # float32, -0.41025519371032715, lies inside the midpoint and would
    # quantize to 0.
    midpoint = 0.4102552003247113
    step = 2.0 * midpoint
    w = np.nextafter(-midpoint, -1.0)
    assert float(np.float32(w)) == -0.41025519371032715
    assert quantize_tensor(np.float32(w), QuantizerConfig(2, step)) == 0.0
    net = _net(117)
    net.weights[0][0, 0] = w
    model = ShadowModel.from_network(net, 2, [step, step])
    assert model.applied.weights[0][0, 0] == -step
    ckpt.save(model, tmp_path / "s")
    back = ckpt.load(tmp_path / "s")
    assert back.shadow.weights[0][0, 0] == w
    assert _quantizes_to_applied(back)


def _rewrite_shadows_as_f32(path):
    # The layout checkpoints had before shadow weights moved to float64.
    manifest = json.loads((path / "manifest.json").read_text())
    payload = (path / "payload.bin").read_bytes()
    chunks, offset = [], 0
    for desc in manifest["tensors"]:
        start = desc["offset"]
        size = {"f32": 4, "f64": 8, "i8": 1}[desc["encoding"]] * int(np.prod(desc["shape"]))
        raw = payload[start:start + size]
        if desc["encoding"] == "f64":
            raw = np.frombuffer(raw, dtype="<f8").astype("<f4").tobytes()
            desc["encoding"] = "f32"
        desc["offset"] = offset
        chunks.append(raw)
        offset += len(raw)
    payload = b"".join(chunks)
    manifest["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    manifest["payload_bytes"] = len(payload)
    (path / "payload.bin").write_bytes(payload)
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def test_f32_shadow_checkpoint_still_loads(tmp_path):
    model = ShadowModel.from_network(_net(118), 2)
    ckpt.save(model, tmp_path / "s")
    _rewrite_shadows_as_f32(tmp_path / "s")
    back = ckpt.load(tmp_path / "s")
    for i in model.shadow.param_layers():
        np.testing.assert_array_equal(back.shadow.weights[i],
                                      _f32(model.shadow.weights[i]))
        np.testing.assert_array_equal(back.applied.weights[i],
                                      model.applied.weights[i])


def test_reloaded_captures_keep_shadow_invariant_seed_33(tmp_path):
    # On seed 33 a capture holds a shadow weight within one float32 rounding
    # of a quantizer midpoint; a float32 shadow reloads on the other level.
    cfg = default_config(str(tmp_path / "run"), 33)
    paths = run_stages(cfg, "retrain-cyclical")["paths"]
    bank = ckpt.load(paths["capture_bank"])
    for entry in bank.entries:
        reloaded = ShadowModel(entry.shadow, entry.model.net, bank.bits, list(bank.steps))
        assert _quantizes_to_applied(reloaded), f"capture at epoch {entry.epoch}"


def test_averaged_round_trip(tmp_path):
    net = _net(114)
    step = 0.25
    for i in net.param_layers():
        lv = np.rint(net.weights[i] / (step / 7))
        net.weights[i] = lv * (step / 7)
        net.biases[i] = _f32(net.biases[i])
    avg = AveragedModel(net, count=7, base_steps=[step, step], effective_bits=4)
    ckpt.save(avg, tmp_path / "a")
    back = ckpt.load(tmp_path / "a")
    assert isinstance(back, AveragedModel)
    assert back.count == 7 and back.effective_bits == 4
    assert back.base_steps == [step, step]
    for i in net.param_layers():
        np.testing.assert_array_equal(back.net.weights[i], net.weights[i])


def test_capture_bank_round_trip(tmp_path):
    model = ShadowModel.from_network(_net(115), 2)
    bank = CaptureBank(model.bits, list(model.steps))
    for epoch in (5, 11):
        bank.add(CaptureEntry(epoch, model.as_quantized(), model.shadow.copy(),
                              {"train_loss": 1.0 + epoch, "train_accuracy": 0.5}))
    ckpt.save(bank, tmp_path / "bank")
    back = ckpt.load(tmp_path / "bank")
    assert isinstance(back, CaptureBank)
    assert back.bits == bank.bits and back.steps == bank.steps
    assert [e.epoch for e in back.entries] == [5, 11]
    assert back.entries[0].metrics == {"train_loss": 6.0, "train_accuracy": 0.5}
    for e_in, e_out in zip(bank.entries, back.entries):
        for i in e_in.model.net.param_layers():
            np.testing.assert_array_equal(e_out.model.net.weights[i],
                                          e_in.model.net.weights[i])


def _seven_bit_average():
    # three 7-bit captures at the top level 63 sum to level 189, which needs i16
    qm, _ = direct_quantize_model(_net(119), 7)
    qm.net.weights[0][0, 0] = 63 * qm.steps[0]
    bank = CaptureBank(7, list(qm.steps))
    for epoch in (3, 7, 11):
        bank.add(CaptureEntry(epoch, QuantizedModel(qm.net.copy(), 7, list(qm.steps)),
                              qm.net.copy(), {}))
    return average_models(bank, 3)


ROUND_TRIP_CASES = {
    # float64 weights and biases, which change at float32
    "network": lambda: _net(120),
    "quantized": lambda: direct_quantize_model(_net(121), 2)[0],
    "shadow": lambda: ShadowModel.from_network(_net(122), 3),
    "averaged": _seven_bit_average,
}


def _state(obj) -> list:
    # every buffer (as raw bytes) and quantization field a model holds
    if isinstance(obj, Network):
        return [type(obj), obj.layout, obj.flat.tobytes()]
    if isinstance(obj, QuantizedModel):
        return [type(obj), *_state(obj.net), obj.bits, obj.steps]
    if isinstance(obj, ShadowModel):
        return [type(obj), *_state(obj.shadow), *_state(obj.applied), obj.bits, obj.steps]
    return [type(obj), *_state(obj.net), obj.count, obj.base_steps, obj.effective_bits]


@pytest.mark.parametrize("case", sorted(ROUND_TRIP_CASES))
def test_round_trip_is_load_of_save_bit_for_bit(tmp_path, case):
    obj = ROUND_TRIP_CASES[case]()
    before = _state(obj)
    back = ckpt.load(ckpt.save(obj, tmp_path / case))
    assert _state(ckpt.round_trip(obj)) == _state(back)
    assert _state(obj) == before  # the model itself is left as it was
    assert not list(tmp_path.glob("*.tmp"))
    if case == "network":
        assert _state(back) != before  # the case exercises float32 storage
    if case == "averaged":
        encodings = [t["encoding"] for t in ckpt.load_manifest(tmp_path / case)["tensors"]]
        assert encodings == ["i16", "f32", "i16", "f32"]


def test_tampered_payload_rejected(tmp_path):
    ckpt.save(_net(), tmp_path / "t")
    p = tmp_path / "t" / "payload.bin"
    raw = bytearray(p.read_bytes())
    raw[7] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="checksum mismatch"):
        ckpt.load(tmp_path / "t")


def test_truncated_payload_rejected(tmp_path):
    ckpt.save(_net(), tmp_path / "t")
    p = tmp_path / "t" / "payload.bin"
    p.write_bytes(p.read_bytes()[:-4])
    with pytest.raises(CheckpointError, match="bytes"):
        ckpt.load(tmp_path / "t")


def test_unsupported_schema_version_rejected(tmp_path):
    ckpt.save(_net(), tmp_path / "t")
    mp = tmp_path / "t" / "manifest.json"
    manifest = json.loads(mp.read_text())
    manifest["schema_version"] = 99
    mp.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="unsupported schema version"):
        ckpt.load(tmp_path / "t")


def test_topology_payload_mismatch_rejected(tmp_path):
    ckpt.save(_net(), tmp_path / "t")
    mp = tmp_path / "t" / "manifest.json"
    manifest = json.loads(mp.read_text())
    manifest["layers"][0]["fan_out"] = 7
    manifest["layers"][2]["fan_in"] = 7
    mp.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="shape mismatch"):
        ckpt.load(tmp_path / "t")


def test_missing_manifest_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="manifest"):
        ckpt.load(tmp_path / "nothing")


def test_incomplete_bank_rejected(tmp_path):
    model = ShadowModel.from_network(_net(116), 2)
    bank = CaptureBank(model.bits, list(model.steps))
    bank.add(CaptureEntry(3, model.as_quantized(), model.shadow.copy(), {}))
    bank.add(CaptureEntry(7, model.as_quantized(), model.shadow.copy(), {}))
    ckpt.save(bank, tmp_path / "bank")
    import shutil
    shutil.rmtree(tmp_path / "bank" / "entry_001")
    with pytest.raises(CheckpointError, match="incomplete"):
        ckpt.load(tmp_path / "bank")


def test_unknown_object_type_rejected(tmp_path):
    with pytest.raises(TypeError):
        ckpt.save({"weights": [1, 2, 3]}, tmp_path / "x")


def test_provenance_recorded(tmp_path):
    ckpt.save(_net(), tmp_path / "p", provenance={"stage": "pretrain", "seed": 3})
    manifest = ckpt.load_manifest(tmp_path / "p")
    assert manifest["provenance"] == {"stage": "pretrain", "seed": 3}


def test_oversized_levels_rejected(tmp_path):
    model = _quantized()
    model.net.weights[0][0, 0] = model.steps[0] * 2.0**31
    with pytest.raises(CheckpointError, match="exceed signed 32-bit storage"):
        ckpt.save(model, tmp_path / "x")


@pytest.mark.parametrize("top,encoding", [(127, "i8"), (128, "i16"), (32767, "i16"),
                                          (32768, "i32"), (2**31 - 1, "i32")])
def test_levels_take_the_narrowest_storage_that_holds_them(tmp_path, top, encoding):
    model = _quantized()
    model.net.weights[0][0, 0] = -top * model.steps[0]
    ckpt.save(model, tmp_path / "x")
    tensors = ckpt.load_manifest(tmp_path / "x")["tensors"]
    assert [t["encoding"] for t in tensors] == [encoding, "f32", "i8", "f32"]
    back = ckpt.load(tmp_path / "x")
    for i in model.net.param_layers():
        np.testing.assert_array_equal(back.net.weights[i], model.net.weights[i])


def test_off_grid_values_rejected(tmp_path):
    model = _quantized()
    model.net.weights[0][0, 0] = model.steps[0] * 0.5
    with pytest.raises(CheckpointError, match="grid"):
        ckpt.save(model, tmp_path / "x")


def test_every_kind_writes_per_layer_weight_streams_then_bias(tmp_path):
    # The payload format of every kind: per weighted layer its weight
    # stream(s), then its bias if it has one, back to back.
    net = init_weights([dense(4, 6, has_bias=False), relu(), dense(6, 3)], (4,), seed=112)
    qm, steps = direct_quantize_model(net, 2)
    sm = ShadowModel.from_network(net, 2, steps)
    avg = AveragedModel(qm.net.copy(), count=3, base_steps=steps, effective_bits=3)
    expected = {
        "network": [("layer0.weight", "f32", None), ("layer2.weight", "f32", None),
                    ("layer2.bias", "f32", None)],
        "quantized": [("layer0.weight", "i8", steps[0]), ("layer2.weight", "i8", steps[1]),
                      ("layer2.bias", "f32", None)],
        "shadow": [("layer0.shadow_weight", "f64", None),
                   ("layer0.applied_weight", "i8", steps[0]),
                   ("layer2.shadow_weight", "f64", None),
                   ("layer2.applied_weight", "i8", steps[1]), ("layer2.bias", "f32", None)],
        "averaged": [("layer0.weight", "i8", steps[0] / 3), ("layer2.weight", "i8", steps[1] / 3),
                     ("layer2.bias", "f32", None)],
    }
    for obj in (net, qm, sm, avg):
        manifest = json.loads((ckpt.save(obj, tmp_path / "c") / "manifest.json").read_text())
        tensors = manifest["tensors"]
        assert [(t["name"], t["encoding"], t.get("scale")) for t in tensors] == \
            expected[manifest["kind"]]
        sizes = [int(np.prod(t["shape"])) * {"f32": 4, "f64": 8, "i8": 1}[t["encoding"]]
                 for t in tensors]
        assert [t["offset"] for t in tensors] == list(np.cumsum([0, *sizes[:-1]]))
        assert manifest["payload_bytes"] == sum(sizes)
        assert not (tmp_path / "c" / "manifest.json.tmp").exists()


def test_a_tensor_not_finite_as_stored_is_refused_without_a_manifest(tmp_path):
    net = _net()
    net.weights[0][0, 0] = 1e39          # finite at float64, inf as f32
    with pytest.raises(CheckpointError, match=r"^layer0\.weight: holds values that are "
                                              r"not finite as f32"):
        ckpt.round_trip(net)
    with pytest.raises(CheckpointError, match=r"^layer0\.weight"):
        ckpt.save(net, tmp_path / "net")
    assert not (tmp_path / "net").exists()

    # a capture whose bias overflows: the bank gets no manifest, so it does
    # not count as written, and the entry before it is not written either
    model = ShadowModel.from_network(_net(), 2)
    bank = CaptureBank(2, list(model.steps))
    bank.add(CaptureEntry(0, model.as_quantized(), model.shadow.copy(), {}))
    model.shadow.biases[2][1] = -np.inf
    model.refresh_applied()
    bank.add(CaptureEntry(1, model.as_quantized(), model.shadow.copy(), {}))
    with pytest.raises(CheckpointError, match=r"^layer2\.bias: holds values that are "
                                              r"not finite as f32"):
        ckpt.save(bank, tmp_path / "bank")
    assert not (tmp_path / "bank" / "manifest.json").exists()
    assert not list((tmp_path / "bank").glob("entry_*"))

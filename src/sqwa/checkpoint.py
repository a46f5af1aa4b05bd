"""Checkpoints: a human-readable JSON manifest plus a binary payload.

A checkpoint is a directory holding `manifest.json` (schema version, kind,
topology, tensor descriptors, quantization record, free-form provenance,
payload checksum) and `payload.bin` (tensors back to back). Shadow weights
are stored as little-endian 64-bit floats, so a reloaded shadow still
quantizes to its applied weights even when it sits next to a quantizer
midpoint; other full-precision tensors are stored as little-endian 32-bit
floats. Grid-resident tensors are stored as signed integer levels, in the
narrowest of 8, 16 or 32 bits that holds the tensor's largest level, with
their scale kept at full precision in the manifest, so quantized values
reload bit for bit. A tensor that is not finite as stored, such as a
diverged float64 weight beyond float32 range, is refused: `save` and
`round_trip` raise `CheckpointError`, and no manifest is written for it.
The manifest is written last and renamed into
place, so a directory holding `manifest.json` is complete. `round_trip`
gives, in memory, the model a save and a reload would give.

Capture banks are directories of entry checkpoints plus an ordering
manifest.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .averaging import AveragedModel, CaptureBank, CaptureEntry
from .nn import LayerSpec, Network, zero_network
from .qat import ShadowModel
from .quantizer import QuantizedModel

__all__ = ["CheckpointError", "SCHEMA_VERSION", "save", "load", "load_manifest",
           "round_trip"]

SCHEMA_VERSION = 1

class CheckpointError(ValueError):
    """Unreadable, tampered, or structurally wrong checkpoint."""


_FLOAT_DTYPES = {"f32": "<f4", "f64": "<f8"}
# level encodings, narrowest first
_LEVEL_DTYPES = {"i8": "<i1", "i16": "<i2", "i32": "<i4"}


def _level_bytes(arr: np.ndarray, scale: float, name: str) -> tuple[str, bytes]:
    # (encoding, bytes) of the tensor's levels in the narrowest level
    # encoding that holds its largest |level|
    levels = np.rint(arr / scale)
    top = np.abs(levels).max(initial=0.0)
    encoding = next((e for e, dt in _LEVEL_DTYPES.items() if top <= np.iinfo(dt).max), None)
    if encoding is None:
        raise CheckpointError(f"{name}: quantized levels exceed signed 32-bit storage")
    if not np.array_equal(levels * scale, arr):
        raise CheckpointError(f"{name}: values are not on the recorded grid")
    return encoding, np.ascontiguousarray(levels, dtype=_LEVEL_DTYPES[encoding]).tobytes()


def _decode(desc: dict, payload: bytes) -> np.ndarray:
    encoding = desc["encoding"]
    dtype = _FLOAT_DTYPES.get(encoding) or _LEVEL_DTYPES.get(encoding)
    if dtype is None:
        raise CheckpointError(f"unknown tensor encoding {encoding!r}")
    shape = tuple(desc["shape"])
    t = np.frombuffer(payload, dtype=dtype, count=int(np.prod(shape)), offset=desc["offset"])
    t = t.astype(np.float64).reshape(shape)
    return t * desc["scale"] if encoding in _LEVEL_DTYPES else t


def _parts(obj):
    """(kind, network, quantization record, weight streams) of a model. The
    network gives the topology and the biases; each weight stream is
    (tensor suffix, source network, encoding, per-layer scales or None),
    where the encoding "levels" stores integer levels of the scales."""
    if isinstance(obj, Network):
        return "network", obj, None, [("weight", obj, "f32", None)]
    if isinstance(obj, QuantizedModel):
        return ("quantized", obj.net, {"bits": obj.bits, "steps": list(obj.steps)},
                [("weight", obj.net, "levels", obj.steps)])
    if isinstance(obj, ShadowModel):
        return ("shadow", obj.shadow, {"bits": obj.bits, "steps": list(obj.steps)},
                [("shadow_weight", obj.shadow, "f64", None),
                 ("applied_weight", obj.applied, "levels", obj.steps)])
    if isinstance(obj, AveragedModel):
        quantization = {
            "bits": obj.effective_bits,
            "base_steps": list(obj.base_steps),
            "denominator": obj.count,
            "effective_bits": obj.effective_bits,
        }
        return ("averaged", obj.net, quantization,
                [("weight", obj.net, "levels", [s / obj.count for s in obj.base_steps])])
    raise TypeError(f"cannot checkpoint object of type {type(obj).__name__}")


def write_json(path: Path, obj) -> None:
    """Write `obj` as indented, key-sorted JSON to a sibling file, then
    rename that over `path`, so a crash mid-write never leaves a torn file
    (a torn manifest would mark its directory done)."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(obj, indent=2, sort_keys=True))
    os.replace(tmp, path)


def _encode(obj, provenance: dict | None = None) -> tuple[dict, bytes]:
    # (manifest, payload) of a model, as `save` writes them: per weighted
    # layer its weight stream(s), then its bias if it has one
    kind, net, quantization, streams = _parts(obj)
    chunks, descriptors, offset = [], [], 0
    for j, i in enumerate(net.param_layers()):
        tensors = [(f"layer{i}.{suffix}", source.weights[i], encoding,
                    None if scales is None else scales[j])
                   for suffix, source, encoding, scales in streams]
        if net.biases[i] is not None:
            tensors.append((f"layer{i}.bias", net.biases[i], "f32", None))
        for name, arr, encoding, scale in tensors:
            if encoding in _FLOAT_DTYPES:
                with np.errstate(over="ignore"):    # refused just below
                    stored = np.ascontiguousarray(arr, dtype=_FLOAT_DTYPES[encoding])
                if not np.isfinite(stored).all():
                    raise CheckpointError(f"{name}: holds values that are not finite as "
                                          f"{encoding}; a diverged model is not checkpointed")
                raw = stored.tobytes()
            else:
                encoding, raw = _level_bytes(arr, scale, name)
            desc = {"name": name, "shape": list(arr.shape), "offset": offset, "encoding": encoding}
            descriptors.append(desc if scale is None else {**desc, "scale": scale})
            chunks.append(raw)
            offset += len(raw)
    payload = b"".join(chunks)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "input_shape": list(net.input_shape),
        "layers": [s.to_dict() for s in net.specs],
        "provenance": provenance,
        "quantization": quantization,
        "tensors": descriptors,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
    }
    return manifest, payload


def save(obj, path, provenance: dict | None = None) -> Path:
    """Write a Network, QuantizedModel, ShadowModel, AveragedModel, or
    CaptureBank to a checkpoint directory. Returns the directory path."""
    path = Path(path)
    if isinstance(obj, CaptureBank):
        return _save_bank(obj, path, provenance)
    return _write(path, *_encode(obj, provenance))


def _write(path: Path, manifest: dict, payload: bytes) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    (path / "payload.bin").write_bytes(payload)
    write_json(path / "manifest.json", manifest)
    return path


def round_trip(obj):
    """What `load(save(obj))` returns for a Network, QuantizedModel,
    ShadowModel or AveragedModel, built in memory without touching disk."""
    manifest, payload = _encode(obj)
    return _decode_model(json.loads(json.dumps(manifest)), payload, "round trip")


def load_manifest(path) -> dict:
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.is_file():
        raise CheckpointError(f"{path}: no manifest.json")
    manifest = json.loads(manifest_path.read_text())
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CheckpointError(f"{path}: unsupported schema version {version!r} "
                              f"(this build reads {SCHEMA_VERSION})")
    return manifest


def _read_payload(path: Path, manifest: dict) -> bytes:
    payload = (path / "payload.bin").read_bytes()
    if len(payload) != manifest["payload_bytes"]:
        raise CheckpointError(f"{path}: payload is {len(payload)} bytes, manifest "
                              f"says {manifest['payload_bytes']}")
    if hashlib.sha256(payload).hexdigest() != manifest["payload_sha256"]:
        raise CheckpointError(f"{path}: checksum mismatch, payload corrupted or tampered")
    return payload


def _rebuild_network(manifest: dict, payload: bytes, weight_name="weight") -> Network:
    specs = [LayerSpec.from_dict(d) for d in manifest["layers"]]
    # a network of the topology's shapes; the payload overwrites every tensor
    net = zero_network(specs, tuple(manifest["input_shape"]))
    descriptors = {d["name"]: d for d in manifest["tensors"]}
    for i in net.param_layers():
        for name, view in ((f"layer{i}.{weight_name}", net.weights[i]),
                           (f"layer{i}.bias", net.biases[i])):
            if view is None:
                continue
            if name not in descriptors:
                raise CheckpointError(f"{name}: tensor missing from payload")
            t = _decode(descriptors[name], payload)
            if t.shape != view.shape:
                raise CheckpointError(f"{name}: shape mismatch, payload {t.shape} vs "
                                      f"topology {view.shape}")
            view[...] = t
    return net


def _decode_model(manifest: dict, payload: bytes, where) -> object:
    kind, q = manifest["kind"], manifest.get("quantization")
    if kind == "network":
        return _rebuild_network(manifest, payload)
    if kind == "quantized":
        return QuantizedModel(_rebuild_network(manifest, payload), q["bits"], list(q["steps"]))
    if kind == "shadow":
        return ShadowModel(_rebuild_network(manifest, payload, "shadow_weight"),
                           _rebuild_network(manifest, payload, "applied_weight"),
                           q["bits"], list(q["steps"]))
    if kind == "averaged":
        return AveragedModel(_rebuild_network(manifest, payload), q["denominator"],
                             list(q["base_steps"]), q["effective_bits"])
    raise CheckpointError(f"{where}: unknown checkpoint kind {kind!r}")


def load(path):
    """Load whatever `save` wrote at `path`, verifying checksum and shapes."""
    path = Path(path)
    manifest = load_manifest(path)
    if manifest["kind"] == "capture-bank":
        return _load_bank(path, manifest)
    return _decode_model(manifest, _read_payload(path, manifest), path)


def _save_bank(bank: CaptureBank, path: Path, provenance=None) -> Path:
    # every entry is encoded before any file is written, so a bank with an
    # entry that cannot be stored leaves nothing on disk
    encoded = [_encode(ShadowModel(e.shadow, e.model.net, bank.bits, list(bank.steps)),
                       {"epoch": e.epoch}) for e in bank.entries]
    path.mkdir(parents=True, exist_ok=True)
    entries = []
    for k, (entry, (entry_manifest, payload)) in enumerate(zip(bank.entries, encoded)):
        sub = f"entry_{k:03d}"
        _write(path / sub, entry_manifest, payload)
        entries.append({"epoch": entry.epoch, "metrics": entry.metrics, "dir": sub})
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": "capture-bank",
        "bits": bank.bits,
        "steps": list(bank.steps),
        "entries": entries,
        "provenance": provenance,
    }
    write_json(path / "manifest.json", manifest)
    return path


def _load_bank(path: Path, manifest: dict) -> CaptureBank:
    bank = CaptureBank(manifest["bits"], list(manifest["steps"]))
    for rec in manifest["entries"]:
        sub = path / rec["dir"]
        if not (sub / "manifest.json").is_file():
            raise CheckpointError(f"{path}: capture bank incomplete, missing {rec['dir']}")
        sm = load(sub)
        bank.add(CaptureEntry(rec["epoch"], sm.as_quantized(), sm.shadow, dict(rec["metrics"])))
    return bank

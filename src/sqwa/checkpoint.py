"""Checkpoints: a human-readable JSON manifest plus a binary payload.

A checkpoint is a directory holding `manifest.json` (schema version, kind,
topology, tensor descriptors, quantization record, free-form provenance,
payload checksum) and `payload.bin` (tensors back to back). Shadow weights
are stored as little-endian 64-bit floats, so a reloaded shadow still
quantizes to its applied weights even when it sits next to a quantizer
midpoint; other full-precision tensors are stored as little-endian 32-bit
floats. Grid-resident tensors are stored as signed 8-bit integer levels
with their scale kept at full precision in the manifest, so quantized
values reload bit for bit. The manifest is written last and renamed into
place, so a directory holding `manifest.json` is complete.

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

__all__ = ["CheckpointError", "SCHEMA_VERSION", "save", "load", "load_manifest"]

SCHEMA_VERSION = 1

# Largest level magnitude that signed 8-bit level storage holds.
MAX_I8_LEVEL = 127


class CheckpointError(ValueError):
    """Unreadable, tampered, or structurally wrong checkpoint."""


_FLOAT_DTYPES = {"f32": "<f4", "f64": "<f8"}


def _i8_bytes(arr: np.ndarray, scale: float, name: str) -> bytes:
    levels = np.rint(arr / scale)
    if np.abs(levels).max(initial=0.0) > MAX_I8_LEVEL:
        raise CheckpointError(f"{name}: quantized levels exceed signed 8-bit storage")
    if not np.array_equal(levels * scale, arr):
        raise CheckpointError(f"{name}: values are not on the recorded grid")
    return np.ascontiguousarray(levels, dtype="<i1").tobytes()


def _decode(desc: dict, payload: bytes) -> np.ndarray:
    start = desc["offset"]
    shape = tuple(desc["shape"])
    count = int(np.prod(shape)) if shape else 1
    if desc["encoding"] in _FLOAT_DTYPES:
        raw = np.frombuffer(payload, dtype=_FLOAT_DTYPES[desc["encoding"]], count=count,
                            offset=start)
        return raw.astype(np.float64).reshape(shape)
    if desc["encoding"] == "i8":
        raw = np.frombuffer(payload, dtype="<i1", count=count, offset=start)
        return raw.astype(np.float64).reshape(shape) * desc["scale"]
    raise CheckpointError(f"unknown tensor encoding {desc['encoding']!r}")


class _PayloadBuilder:
    def __init__(self):
        self.chunks: list[bytes] = []
        self.descriptors: list[dict] = []
        self.offset = 0

    def add(self, name: str, arr: np.ndarray, encoding: str, scale: float | None = None):
        if encoding in _FLOAT_DTYPES:
            raw = np.ascontiguousarray(arr, dtype=_FLOAT_DTYPES[encoding]).tobytes()
        else:
            raw = _i8_bytes(arr, scale, name)
        desc = {"name": name, "shape": list(arr.shape), "offset": self.offset,
                "encoding": encoding}
        if scale is not None:
            desc["scale"] = scale
        self.descriptors.append(desc)
        self.chunks.append(raw)
        self.offset += len(raw)


def _parts(obj):
    """(kind, network, quantization record, weight streams) of a model. The
    network gives the topology and the biases; each weight stream is
    (tensor suffix, source network, encoding, per-layer scales or None)."""
    if isinstance(obj, Network):
        return "network", obj, None, [("weight", obj, "f32", None)]
    if isinstance(obj, QuantizedModel):
        return ("quantized", obj.net, {"bits": obj.bits, "steps": list(obj.steps)},
                [("weight", obj.net, "i8", obj.steps)])
    if isinstance(obj, ShadowModel):
        return ("shadow", obj.shadow, {"bits": obj.bits, "steps": list(obj.steps)},
                [("shadow_weight", obj.shadow, "f64", None),
                 ("applied_weight", obj.applied, "i8", obj.steps)])
    if isinstance(obj, AveragedModel):
        quantization = {
            "bits": obj.effective_bits,
            "base_steps": list(obj.base_steps),
            "denominator": obj.count,
            "effective_bits": obj.effective_bits,
        }
        return ("averaged", obj.net, quantization,
                [("weight", obj.net, "i8", [s / obj.count for s in obj.base_steps])])
    raise TypeError(f"cannot checkpoint object of type {type(obj).__name__}")


def write_json(path: Path, obj) -> None:
    """Write `obj` as indented, key-sorted JSON to a sibling file, then
    rename that over `path`, so a crash mid-write never leaves a torn file
    (a torn manifest would mark its directory done)."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(obj, indent=2, sort_keys=True))
    os.replace(tmp, path)


def save(obj, path, provenance: dict | None = None) -> Path:
    """Write a Network, QuantizedModel, ShadowModel, AveragedModel, or
    CaptureBank to a checkpoint directory. Returns the directory path."""
    path = Path(path)
    if isinstance(obj, CaptureBank):
        return _save_bank(obj, path, provenance)
    kind, net, quantization, streams = _parts(obj)
    builder = _PayloadBuilder()
    for j, i in enumerate(net.param_layers()):
        for suffix, source, encoding, scales in streams:
            builder.add(f"layer{i}.{suffix}", source.weights[i], encoding,
                        None if scales is None else scales[j])
        if net.biases[i] is not None:
            builder.add(f"layer{i}.bias", net.biases[i], "f32")
    payload = b"".join(builder.chunks)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "input_shape": list(net.input_shape),
        "layers": [s.to_dict() for s in net.specs],
        "provenance": provenance,
        "quantization": quantization,
        "tensors": builder.descriptors,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
    }
    path.mkdir(parents=True, exist_ok=True)
    (path / "payload.bin").write_bytes(payload)
    write_json(path / "manifest.json", manifest)
    return path


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
    digest = hashlib.sha256(payload).hexdigest()
    if digest != manifest["payload_sha256"]:
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


def load(path):
    """Load whatever `save` wrote at `path`, verifying checksum and shapes."""
    path = Path(path)
    manifest = load_manifest(path)
    kind = manifest["kind"]
    if kind == "capture-bank":
        return _load_bank(path, manifest)
    payload = _read_payload(path, manifest)
    if kind == "network":
        return _rebuild_network(manifest, payload)
    if kind == "quantized":
        q = manifest["quantization"]
        net = _rebuild_network(manifest, payload)
        return QuantizedModel(net, q["bits"], list(q["steps"]))
    if kind == "shadow":
        q = manifest["quantization"]
        shadow = _rebuild_network(manifest, payload, weight_name="shadow_weight")
        applied = _rebuild_network(manifest, payload, weight_name="applied_weight")
        return ShadowModel(shadow, applied, q["bits"], list(q["steps"]))
    if kind == "averaged":
        q = manifest["quantization"]
        net = _rebuild_network(manifest, payload)
        return AveragedModel(net, q["denominator"], list(q["base_steps"]),
                             q["effective_bits"])
    raise CheckpointError(f"{path}: unknown checkpoint kind {kind!r}")


def _save_bank(bank: CaptureBank, path: Path, provenance=None) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    entries = []
    for k, entry in enumerate(bank.entries):
        sub = f"entry_{k:03d}"
        sm = ShadowModel(entry.shadow, entry.model.net, bank.bits, list(bank.steps))
        save(sm, path / sub, provenance={"epoch": entry.epoch})
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
        model = QuantizedModel(sm.applied, sm.bits, list(sm.steps))
        bank.add(CaptureEntry(rec["epoch"], model, sm.shadow, dict(rec["metrics"])))
    return bank

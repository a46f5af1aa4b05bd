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
Saving a model removes the directory's old manifest before it writes the
payload and renames the new one into place last, so a directory holding
`manifest.json` is complete. `round_trip` gives, in memory, the model a
save and a reload would give.

Capture banks are directories of entry checkpoints plus an ordering
manifest.

One table, `_KINDS`, describes each model kind for both save and load; a
manifest value that is missing, of the wrong type or refused is a
`CheckpointError` naming the path and the field.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .averaging import AveragedModel, CaptureBank, CaptureEntry
from .nn import LayerSpec, Network, _is_int
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


def _read(record, key: str, where, make=None):
    # record[key] of a manifest record, or make(record[key]). A missing or
    # null value, a value of the wrong type and make's refusal are each a
    # CheckpointError naming `where` and the field.
    value = record.get(key) if isinstance(record, dict) else None
    if value is None:
        raise CheckpointError(f"{where}: manifest {key!r} is missing")
    try:
        return value if make is None else make(value)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        reason = f"lacks {exc}" if isinstance(exc, KeyError) else f"refused: {exc}"
        raise CheckpointError(f"{where}: manifest {key!r} {reason}") from exc


def _decode(desc: dict, payload: bytes, out: np.ndarray) -> None:
    # the tensor `desc` describes, read from the payload into `out`, a view
    # of the shape the topology gives it
    encoding, shape, offset = desc["encoding"], tuple(desc["shape"]), desc["offset"]
    dtype = _FLOAT_DTYPES.get(encoding) or _LEVEL_DTYPES.get(encoding)
    if dtype is None:
        raise ValueError(f"unknown tensor encoding {encoding!r}")
    if shape != out.shape:
        raise ValueError(f"shape mismatch, payload {shape} vs topology {out.shape}")
    if not (_is_int(offset) and 0 <= offset <= len(payload) - out.size * np.dtype(dtype).itemsize):
        raise ValueError(f"'offset' {offset!r}, 'shape' {list(shape)}: reaches past the payload")
    t = np.frombuffer(payload, dtype, out.size, offset).astype(np.float64).reshape(shape)
    out[...] = t * desc["scale"] if encoding in _LEVEL_DTYPES else t


# model type -> (kind, quantization record as {manifest key: attribute},
# weight streams as (tensor suffix, network attribute, encoding), per-layer
# scales of its "levels" streams). A "levels" stream stores each weight as
# an integer level of its layer's scale. A plain network is its own stream
# and has no record. An averaged model's grid is base_step / count; its
# record repeats effective_bits as bits, and a load takes effective_bits.
_KINDS = {
    Network: ("network", None, [("weight", None, "f32")], None),
    QuantizedModel: ("quantized", {"bits": "bits", "steps": "steps"},
                     [("weight", "net", "levels")], lambda m: m.steps),
    ShadowModel: ("shadow", {"bits": "bits", "steps": "steps"},
                  [("shadow_weight", "shadow", "f64"), ("applied_weight", "applied", "levels")],
                  lambda m: m.steps),
    AveragedModel: ("averaged", {"bits": "effective_bits", "base_steps": "base_steps",
                                 "denominator": "count", "effective_bits": "effective_bits"},
                    [("weight", "net", "levels")], lambda m: [s / m.count for s in m.base_steps]),
}


def _kind(kind: str) -> type:
    # the model type a manifest's kind names
    for cls, row in _KINDS.items():
        if row[0] == kind:
            return cls
    raise ValueError(f"{kind!r} is not a model checkpoint kind")


def write_atomic(files: dict[Path, str]) -> None:
    """Write each text to a sibling file, then rename each over its path: a
    crash mid-write leaves no torn file (a torn manifest would mark its
    directory done), and no path changes until every text is written. A
    write or rename that raises removes the siblings this call made."""
    made = []
    try:
        for path, text in files.items():
            made.append(path.with_name(path.name + ".tmp"))
            made[-1].write_text(text)
        for path, tmp in zip(files, made):
            os.replace(tmp, path)
    except BaseException:
        for tmp in made:
            tmp.unlink(missing_ok=True)
        raise


def write_json(path: Path, obj) -> None:
    """write_atomic of `obj` as indented, key-sorted JSON."""
    write_atomic({path: json.dumps(obj, indent=2, sort_keys=True)})


def _encode(obj, provenance: dict | None = None) -> tuple[dict, bytes]:
    # (manifest, payload) of a model, as `save` writes them: per weighted
    # layer its weight stream(s), then its bias if it has one. The first
    # stream's network gives the topology and the biases.
    cls = next((cls for cls in _KINDS if isinstance(obj, cls)), None)
    if cls is None:
        raise TypeError(f"cannot checkpoint object of type {type(obj).__name__}")
    kind, fields, streams, scales = _KINDS[cls]
    sources = [obj if attr is None else getattr(obj, attr) for _, attr, _ in streams]
    net, level_scales = sources[0], scales and scales(obj)
    chunks, descriptors, offset = [], [], 0
    for j, i in enumerate(net.param_layers()):
        tensors = [(f"layer{i}.{suffix}", source.weights[i], encoding)
                   for (suffix, _, encoding), source in zip(streams, sources)]
        if net.biases[i] is not None:
            tensors.append((f"layer{i}.bias", net.biases[i], "f32"))
        for name, arr, encoding in tensors:
            scale = level_scales[j] if encoding == "levels" else None
            if scale is None:
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
        "quantization": fields and {key: getattr(obj, attr) for key, attr in fields.items()},
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


def _write(path: Path, manifest: dict, payload: bytes | None = None, parts=()) -> Path:
    # The payload, or each (subdirectory, (manifest, payload)) of `parts`,
    # then the manifest. An earlier manifest goes first: it must not vouch
    # for a torn payload or for a bank's new entries. Looked for, as
    # unlink(missing_ok=True) raises and catches on every fresh save.
    path.mkdir(parents=True, exist_ok=True)
    if (path / "manifest.json").is_file():
        (path / "manifest.json").unlink()
    if payload is not None:
        (path / "payload.bin").write_bytes(payload)
    for sub, encoded in parts:
        _write(path / sub, *encoded)
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
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{manifest_path}: holds a JSON {type(manifest).__name__}, "
                              f"not an object")
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CheckpointError(f"{path}: unsupported schema version {version!r} "
                              f"(this build reads {SCHEMA_VERSION})")
    return manifest


def _read_payload(path: Path, manifest: dict) -> bytes:
    size = _read(manifest, "payload_bytes", path)
    digest = _read(manifest, "payload_sha256", path)
    payload = (path / "payload.bin").read_bytes()
    if len(payload) != size:
        raise CheckpointError(f"{path}: payload is {len(payload)} bytes, manifest "
                              f"says {size}")
    if hashlib.sha256(payload).hexdigest() != digest:
        raise CheckpointError(f"{path}: checksum mismatch, payload corrupted or tampered")
    return payload


def _decode_model(manifest: dict, payload: bytes, where) -> object:
    # The topology, the tensor list and the biases are read once; each
    # weight stream then fills one network of that topology. Tensors are
    # fields of the manifest by their names.
    cls = _read(manifest, "kind", where, _kind)
    _, fields, streams, _ = _KINDS[cls]
    specs = _read(manifest, "layers", where, lambda layers: [LayerSpec(**d) for d in layers])
    net = _read(manifest, "input_shape", where, lambda shape: Network(shape, specs))
    tensors = _read(manifest, "tensors", where, lambda ts: {t["name"]: t for t in ts})
    for i in net.param_layers():
        if net.biases[i] is not None:
            _read(tensors, f"layer{i}.bias", where, lambda d: _decode(d, payload, net.biases[i]))
    nets = {}
    for suffix, attr, _ in streams:
        nets[attr] = stream = net.copy() if nets else net
        for i in net.param_layers():
            _read(tensors, f"layer{i}.{suffix}", where,
                  lambda d: _decode(d, payload, stream.weights[i]))
    if fields is None:
        return net
    # each model checks its own record
    return _read(manifest, "quantization", where,
                 lambda q: cls(**nets, **{attr: q[key] for key, attr in fields.items()}))


def load(path):
    """Load whatever `save` wrote at `path`, verifying checksum and shapes."""
    path = Path(path)
    manifest = load_manifest(path)
    if _read(manifest, "kind", path) == "capture-bank":
        return _load_bank(path, manifest)
    return _decode_model(manifest, _read_payload(path, manifest), path)


def _save_bank(bank: CaptureBank, path: Path, provenance=None) -> Path:
    # every entry is encoded before any file is written, so a bank with an
    # entry that cannot be stored leaves nothing on disk
    encoded = [_encode(ShadowModel(e.shadow, e.model.net, bank.bits, list(bank.steps)),
                       {"epoch": e.epoch}) for e in bank.entries]
    dirs = [f"entry_{k:03d}" for k in range(len(encoded))]
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": "capture-bank",
        "bits": bank.bits,
        "steps": list(bank.steps),
        "entries": [{"epoch": e.epoch, "metrics": e.metrics, "dir": sub}
                    for e, sub in zip(bank.entries, dirs)],
        "provenance": provenance,
    }
    return _write(path, manifest, parts=zip(dirs, encoded))


def _load_bank(path: Path, manifest: dict) -> CaptureBank:
    bank = CaptureBank(_read(manifest, "bits", path), _read(manifest, "steps", path, list))
    for rec in _read(manifest, "entries", path, list):
        sub = _read(rec, "dir", path, path.joinpath)
        if not (sub / "manifest.json").is_file():
            raise CheckpointError(f"{path}: capture bank incomplete, missing {sub.name}")
        entry = load_manifest(sub)   # read as a model: a bank, this one too, is refused
        sm = _decode_model(entry, _read_payload(sub, entry), sub)
        # an entry that is no shadow, or that the bank refuses, faults 'entries'
        _read(manifest, "entries", path, lambda _: bank.add(CaptureEntry(
            rec["epoch"], QuantizedModel(sm.applied, sm.bits, sm.steps), sm.shadow,
            dict(rec["metrics"]))))
    return bank

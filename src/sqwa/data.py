"""Datasets: IDX file loading, synthetic Gaussian blobs, and batch shuffling."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .nn import _check_batch_size, _check_labels

__all__ = [
    "Dataset",
    "IdxFormatError",
    "read_idx",
    "write_idx",
    "load_idx",
    "synthetic_blobs",
    "shuffle_batches",
]


class IdxFormatError(ValueError):
    """Malformed IDX file."""


@dataclass
class Dataset:
    """Images (N x features, or N x C x H x W) and integer labels. Labels
    are checked once, at construction, and kept as the dataset's own int64 copy."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.labels = _check_labels(np.array(self.labels), self.images.shape[0], self.num_classes)

    def __len__(self) -> int:
        return self.images.shape[0]


def read_idx(path) -> np.ndarray:
    """Read one IDX file of unsigned bytes.

    Layout: two zero bytes, type byte 0x08, a dimension-count byte,
    big-endian 32-bit dimension sizes, then the raw payload.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 4 or data[0] != 0 or data[1] != 0 or data[2] != 0x08:
        raise IdxFormatError(f"{path.name}: bad magic (expected 00 00 08 <ndim>)")
    ndim = data[3]
    if ndim == 0:
        raise IdxFormatError(f"{path.name}: bad magic (zero dimensions)")
    header_end = 4 + 4 * ndim
    if len(data) < header_end:
        raise IdxFormatError(f"{path.name}: truncated payload (header cut short)")
    dims = struct.unpack(f">{ndim}I", data[4:header_end])
    expected = int(np.prod(dims))
    got = len(data) - header_end
    if got != expected:
        raise IdxFormatError(f"{path.name}: truncated payload "
                             f"(expected {expected} bytes, found {got})")
    return np.frombuffer(data, dtype=np.uint8, offset=header_end).reshape(dims).copy()


def write_idx(path, array: np.ndarray) -> None:
    """Write an unsigned-byte array in IDX layout (inverse of read_idx)."""
    array = np.ascontiguousarray(array, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(bytes([0, 0, 0x08, array.ndim]))
        fh.write(struct.pack(f">{array.ndim}I", *array.shape))
        fh.write(array.tobytes())


def load_idx(images_path, labels_path, *, normalize: bool = True,
             layout: str = "flat") -> Dataset:
    """Load an IDX image/label file pair.

    Args:
        images_path: IDX file with ndim >= 2 (samples first).
        labels_path: IDX file with ndim == 1.
        normalize: shift/scale pixels by this file's mean and std.
        layout: 'flat' reshapes each sample to a feature vector, 'chw'
            yields (N, 1, H, W) for conv networks.
    """
    images = read_idx(images_path)
    labels = read_idx(labels_path)
    if images.ndim < 2:
        raise IdxFormatError(f"{Path(images_path).name}: image file must have >= 2 dimensions")
    if labels.ndim != 1:
        raise IdxFormatError(f"{Path(labels_path).name}: label file must have exactly 1 dimension")
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(f"count mismatch: {images.shape[0]} images vs "
                             f"{labels.shape[0]} labels")
    if images.shape[0] == 0:
        raise IdxFormatError(f"{Path(images_path).name}: holds no samples")
    x = images.astype(np.float64)
    if normalize:
        _normalize(x, x)
    if layout == "flat":
        x = x.reshape(x.shape[0], -1)
    elif layout == "chw":
        if x.ndim != 3:
            raise ValueError(f"layout 'chw' needs (N, H, W) images, got shape {x.shape}")
        x = x[:, None, :, :]
    else:
        raise ValueError(f"unknown layout {layout!r}")
    return Dataset(x, labels, int(labels.max()) + 1)


def _normalize(x: np.ndarray, like: np.ndarray) -> None:
    # shift and scale x in place by the mean and std of `like` (by 1 where that std is 0)
    mean, std = float(like.mean()), float(like.std()) or 1.0
    np.divide(np.subtract(x, mean, out=x), std, out=x)


def _check_blobs(num_classes: int, samples_per_class: int, dims: int, spread: float) -> None:
    # The settings synthetic_blobs accepts. The centers are +e_k for the
    # first `dims` classes, then -e_k, so more classes than 2 * dims would
    # collide.
    if num_classes < 2 or samples_per_class < 1 or dims < 1 or spread <= 0.0:
        raise ValueError("need num_classes >= 2, samples_per_class >= 1, "
                         "dims >= 1, spread > 0")
    if num_classes > 2 * dims:
        raise ValueError(f"{num_classes} classes need dims >= {-(-num_classes // 2)}")


def synthetic_blobs(num_classes: int, samples_per_class: int, dims: int,
                    spread: float, seed: int) -> Dataset:
    """Gaussian clusters at deterministic unit-vector centers.

    Same arguments, same seed: identical dataset, bit for bit.
    """
    _check_blobs(num_classes, samples_per_class, dims, spread)
    centers = np.zeros((num_classes, dims))
    for k in range(num_classes):
        centers[k, k % dims] = 1.0 if k < dims else -1.0
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    noise = rng.standard_normal((labels.size, dims))
    images = centers[labels] + spread * noise
    return Dataset(images, labels, num_classes)


def shuffle_batches(dataset: Dataset, batch_size: int, seed: int,
                    epoch: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic per-epoch shuffle, cut into batches.

    The permutation depends on (seed, epoch) only. Every sample appears in
    exactly one batch; the final batch may be short.
    """
    _check_batch_size(batch_size)
    if seed < 0 or epoch < 0:
        raise ValueError("seed and epoch must be non-negative")
    perm = np.random.default_rng([seed, epoch]).permutation(len(dataset))
    # one gather per epoch (`take`, a third of the time fancy indexing takes
    # on (5000, 8) images); the batches are views into it
    images, labels = dataset.images.take(perm, axis=0), dataset.labels.take(perm)
    return [(images[s:s + batch_size], labels[s:s + batch_size])
            for s in range(0, len(dataset), batch_size)]

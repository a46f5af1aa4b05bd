import struct

import numpy as np
import pytest

from sqwa.data import (
    Dataset,
    IdxFormatError,
    load_idx,
    read_idx,
    shuffle_batches,
    synthetic_blobs,
    write_idx,
)


def _idx_bytes(array):
    array = np.asarray(array, dtype=np.uint8)
    head = bytes([0, 0, 0x08, array.ndim])
    head += struct.pack(f">{array.ndim}I", *array.shape)
    return head + array.tobytes()


def test_read_idx_handcrafted_vector(tmp_path):
    p = tmp_path / "labels.idx"
    p.write_bytes(_idx_bytes(np.array([7, 2, 1], dtype=np.uint8)))
    np.testing.assert_array_equal(read_idx(p), [7, 2, 1])


def test_read_idx_handcrafted_images(tmp_path):
    raw = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    p = tmp_path / "imgs.idx"
    p.write_bytes(_idx_bytes(raw))
    out = read_idx(p)
    assert out.shape == (2, 3, 3)
    np.testing.assert_array_equal(out, raw)


def test_read_idx_bad_magic(tmp_path):
    p = tmp_path / "bad.idx"
    p.write_bytes(bytes([0, 1, 0x08, 1]) + struct.pack(">I", 1) + b"\x00")
    with pytest.raises(IdxFormatError, match="bad magic"):
        read_idx(p)


def test_read_idx_bad_type_byte(tmp_path):
    p = tmp_path / "bad.idx"
    p.write_bytes(bytes([0, 0, 0x09, 1]) + struct.pack(">I", 1) + b"\x00")
    with pytest.raises(IdxFormatError, match="bad magic"):
        read_idx(p)


def test_read_idx_truncated_payload(tmp_path):
    full = _idx_bytes(np.zeros((4, 4), dtype=np.uint8))
    p = tmp_path / "cut.idx"
    p.write_bytes(full[:-5])
    with pytest.raises(IdxFormatError, match="truncated payload"):
        read_idx(p)


def test_read_idx_truncated_header(tmp_path):
    p = tmp_path / "cut.idx"
    p.write_bytes(bytes([0, 0, 0x08, 2]) + struct.pack(">I", 4))
    with pytest.raises(IdxFormatError, match="truncated payload"):
        read_idx(p)


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    raw = rng.integers(0, 256, size=(5, 4, 4), dtype=np.uint8)
    p = tmp_path / "rt.idx"
    write_idx(p, raw)
    np.testing.assert_array_equal(read_idx(p), raw)


def test_load_idx_count_mismatch(tmp_path):
    imgs = tmp_path / "i.idx"
    labs = tmp_path / "l.idx"
    write_idx(imgs, np.zeros((3, 2, 2), dtype=np.uint8))
    write_idx(labs, np.zeros(4, dtype=np.uint8))
    with pytest.raises(IdxFormatError, match="count mismatch"):
        load_idx(imgs, labs)


def test_load_idx_normalization_recorded(tmp_path):
    imgs = tmp_path / "i.idx"
    labs = tmp_path / "l.idx"
    raw = np.arange(4 * 2 * 2, dtype=np.uint8).reshape(4, 2, 2)
    write_idx(imgs, raw)
    write_idx(labs, np.array([0, 1, 0, 1], dtype=np.uint8))
    ds = load_idx(imgs, labs)
    assert ds.images.shape == (4, 4)
    assert abs(ds.images.mean()) < 1e-12
    assert ds.images.std() == pytest.approx(1.0)
    # raw values recoverable through the recorded stats
    np.testing.assert_allclose(ds.images * ds.scale + ds.mean,
                               raw.reshape(4, 4).astype(float))


def test_load_idx_chw_layout(tmp_path):
    imgs = tmp_path / "i.idx"
    labs = tmp_path / "l.idx"
    write_idx(imgs, np.zeros((3, 5, 5), dtype=np.uint8))
    write_idx(labs, np.array([0, 1, 1], dtype=np.uint8))
    ds = load_idx(imgs, labs, normalize=False, layout="chw")
    assert ds.images.shape == (3, 1, 5, 5)


def test_dataset_rejects_length_mismatch():
    with pytest.raises(ValueError):
        Dataset(images=np.zeros((3, 2)), labels=np.zeros(2, dtype=int), num_classes=2)


def test_blobs_deterministic_and_separable():
    a = synthetic_blobs(4, 10, 6, 0.1, seed=3)
    b = synthetic_blobs(4, 10, 6, 0.1, seed=3)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert len(a) == 40 and a.num_classes == 4
    # tiny spread keeps each sample nearest to its own center
    centers = np.zeros((4, 6))
    for k in range(4):
        centers[k, k] = 1.0
    d = np.linalg.norm(a.images[:, None, :] - centers[None], axis=2)
    np.testing.assert_array_equal(np.argmin(d, axis=1), a.labels)


def test_blobs_reject_too_many_classes():
    with pytest.raises(ValueError):
        synthetic_blobs(5, 3, 2, 0.5, seed=0)


def test_shuffle_batches_partition_and_determinism():
    ds = synthetic_blobs(3, 11, 4, 0.5, seed=9)
    batches = shuffle_batches(ds, 8, seed=1, epoch=0)
    assert [len(b[1]) for b in batches] == [8, 8, 8, 8, 1]
    seen = np.concatenate([b[0] for b in batches])
    assert seen.shape == ds.images.shape
    np.testing.assert_array_equal(np.sort(seen, axis=0), np.sort(ds.images, axis=0))
    again = shuffle_batches(ds, 8, seed=1, epoch=0)
    for (x1, y1), (x2, y2) in zip(batches, again):
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)


def test_shuffle_batches_epoch_changes_order():
    ds = synthetic_blobs(3, 20, 4, 0.5, seed=9)
    e0 = shuffle_batches(ds, 16, seed=1, epoch=0)
    e1 = shuffle_batches(ds, 16, seed=1, epoch=1)
    assert not np.array_equal(e0[0][0], e1[0][0])


@pytest.mark.parametrize("labels", [[0, 1, 2], [0, -1, 1]])
def test_dataset_rejects_out_of_range_labels(labels):
    with pytest.raises(ValueError, match="labels must lie in"):
        Dataset(images=np.zeros((3, 2)), labels=np.array(labels), num_classes=2)


def test_dataset_stores_int64_labels():
    ds = Dataset(images=np.zeros((3, 2)), labels=np.array([0, 1, 1], dtype=np.uint8),
                 num_classes=2)
    assert ds.labels.dtype == np.int64


@pytest.mark.parametrize("seed, epoch", [(0, 0), (1, 3), (7, 12)])
def test_shuffle_batches_equal_a_per_batch_gather(seed, epoch):
    # 37 samples in batches of 8: the last batch is short
    ds = synthetic_blobs(3, 13, 4, 0.5, seed=9)
    ds = Dataset(ds.images[:37], ds.labels[:37], ds.num_classes)
    perm = np.random.default_rng([seed, epoch]).permutation(len(ds))
    batches = shuffle_batches(ds, 8, seed, epoch)
    assert [len(b[1]) for b in batches] == [8, 8, 8, 8, 5]
    for k, (x, y) in enumerate(batches):
        idx = perm[8 * k:8 * k + 8]
        assert np.array_equal(x, ds.images[idx]) and x.dtype == ds.images.dtype
        assert np.array_equal(y, ds.labels[idx]) and y.dtype == ds.labels.dtype

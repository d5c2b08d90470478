import gzip
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modellock import data


def idx_file(type_code, dims, payload: bytes) -> bytes:
    header = bytes([0, 0, type_code, len(dims)])
    header += b"".join(struct.pack(">I", d) for d in dims)
    return header + payload


# ---------------------------------------------------------------------------
# IDX parsing
# ---------------------------------------------------------------------------

def test_parse_vector():
    got = data.parse_idx(idx_file(0x08, [3], bytes([5, 0, 4])))
    assert got.tolist() == [5, 0, 4]
    assert got.dtype == np.uint8


def test_parse_rank3():
    got = data.parse_idx(idx_file(0x08, [2, 2, 2], bytes(range(8))))
    assert got.shape == (2, 2, 2)
    assert got[1, 0, 1] == 5


def test_truncated_payload():
    with pytest.raises(data.IdxTruncatedError):
        data.parse_idx(idx_file(0x08, [10], bytes(9)))


def test_declared_count_beyond_int64_is_truncated():
    # 65536**4 == 2**64 elements wrapped to 0 in a 64-bit product
    with pytest.raises(data.IdxTruncatedError):
        data.parse_idx(idx_file(0x08, [65536] * 4, b""))


def test_oversized_payload():
    with pytest.raises(data.IdxSizeMismatchError):
        data.parse_idx(idx_file(0x08, [2], bytes(5)))


def test_truncated_header():
    with pytest.raises(data.IdxTruncatedError):
        data.parse_idx(b"\x00\x00")
    with pytest.raises(data.IdxTruncatedError):
        data.parse_idx(bytes([0, 0, 8, 2, 0, 0]))  # rank 2 but only 2 dim bytes


def test_bad_magic():
    with pytest.raises(data.IdxBadMagicError):
        data.parse_idx(bytes([1, 0, 8, 1, 0, 0, 0, 1, 7]))
    with pytest.raises(data.IdxBadMagicError):
        data.parse_idx(bytes([0, 9, 8, 1, 0, 0, 0, 1, 7]))


@pytest.mark.parametrize("code", [0x09, 0x0B, 0x0C, 0x0D, 0x0E, 0x42])
def test_unsupported_type_codes(code):
    with pytest.raises(data.IdxUnsupportedTypeError):
        data.parse_idx(idx_file(code, [1], b"\x00"))


@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
@settings(max_examples=64, deadline=None)
def test_any_nonzero_magic_prefix_is_rejected(b0, b1):
    stream = bytes([b0, b1, 8, 1, 0, 0, 0, 1, 7])
    if b0 == 0 and b1 == 0:
        assert data.parse_idx(stream).tolist() == [7]
    else:
        with pytest.raises(data.IdxBadMagicError):
            data.parse_idx(stream)


@given(st.binary(max_size=64))
@settings(max_examples=120, deadline=None)
def test_arbitrary_bytes_never_crash_with_foreign_errors(blob):
    try:
        data.parse_idx(blob)
    except data.IdxFormatError:
        pass


def test_read_idx_gzip_transparent(tmp_path):
    raw = idx_file(0x08, [4], bytes([1, 2, 3, 4]))
    plain_path = tmp_path / "v.idx"
    plain_path.write_bytes(raw)
    gz_path = tmp_path / "v.idx.gz"
    gz_path.write_bytes(gzip.compress(raw))
    assert data.read_idx(plain_path).tolist() == [1, 2, 3, 4]
    assert data.read_idx(gz_path).tolist() == [1, 2, 3, 4]


def corrupt_gzip(kind: str, raw: bytes) -> bytes:
    packed = gzip.compress(raw, mtime=0)
    if kind == "truncated":
        return packed[: len(packed) // 2]
    if kind == "crc":  # the CRC-32 trailer no longer matches the data
        return packed[:-8] + bytes([packed[-8] ^ 1]) + packed[-7:]
    if kind == "deflate":  # the first block declares the reserved block type
        return packed[:10] + bytes([packed[10] | 0b110]) + packed[11:]
    return raw  # an IDX stream that was never compressed


@pytest.mark.parametrize("kind, error", [
    ("truncated", data.IdxTruncatedError),
    ("crc", data.IdxFormatError),
    ("deflate", data.IdxFormatError),
    ("not-gzip", data.IdxFormatError),
])
def test_corrupt_gzip_raises_idx_errors(tmp_path, kind, error):
    path = tmp_path / "v.idx.gz"
    path.write_bytes(corrupt_gzip(kind, idx_file(0x08, [64], bytes(range(64)))))
    with pytest.raises(error):
        data.read_idx(path)


def test_load_idx_dataset(tmp_path):
    images = idx_file(0x08, [2, 2, 2], bytes([0, 255, 32, 64, 128, 16, 8, 200]))
    labels = idx_file(0x08, [2], bytes([3, 9]))
    (tmp_path / "im.idx").write_bytes(images)
    (tmp_path / "lb.idx").write_bytes(labels)
    ds = data.load_idx_dataset(tmp_path / "im.idx", tmp_path / "lb.idx", name="toy")
    assert ds.images.shape == (2, 1, 2, 2)
    assert ds.images.dtype == np.float32
    # exact normalization endpoints
    assert ds.images[0, 0, 0, 0] == 0.0
    assert ds.images[0, 0, 0, 1] == 1.0
    assert ds.labels.tolist() == [3, 9]


def test_load_idx_dataset_length_mismatch(tmp_path):
    (tmp_path / "im.idx").write_bytes(idx_file(0x08, [2, 2, 2], bytes(8)))
    (tmp_path / "lb.idx").write_bytes(idx_file(0x08, [3], bytes(3)))
    with pytest.raises(data.IdxFormatError):
        data.load_idx_dataset(tmp_path / "im.idx", tmp_path / "lb.idx")


# ---------------------------------------------------------------------------
# Synthetic dataset
# ---------------------------------------------------------------------------

def test_synthetic_is_balanced_and_in_range():
    ds = data.synthetic_dataset(num_classes=10, per_class=100, image_size=28, seed=0)
    assert len(ds) == 1000
    assert np.bincount(ds.labels).tolist() == [100] * 10
    assert ds.images.shape == (1000, 1, 28, 28)
    assert ds.images.dtype == np.float32
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def test_synthetic_is_deterministic():
    a = data.synthetic_dataset(num_classes=4, per_class=10, image_size=12, seed=9)
    b = data.synthetic_dataset(num_classes=4, per_class=10, image_size=12, seed=9)
    c = data.synthetic_dataset(num_classes=4, per_class=10, image_size=12, seed=10)
    assert a.images.tobytes() == b.images.tobytes()
    assert (a.labels == b.labels).all()
    assert a.images.tobytes() != c.images.tobytes()


def test_synthetic_rejects_bad_config():
    with pytest.raises(ValueError):
        data.synthetic_dataset(num_classes=0)
    with pytest.raises(ValueError):
        data.synthetic_dataset(per_class=0)
    with pytest.raises(ValueError):
        data.synthetic_dataset(image_size=1)


def test_synthetic_classes_are_distinguishable():
    # class-mean templates must differ pairwise by a clear margin
    ds = data.synthetic_dataset(num_classes=5, per_class=40, image_size=16, seed=3)
    means = np.stack([ds.images[ds.labels == c].mean(axis=0) for c in range(5)])
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.abs(means[i] - means[j]).mean() > 0.02


# ---------------------------------------------------------------------------
# Manifest split
# ---------------------------------------------------------------------------

@pytest.fixture
def balanced():
    return data.synthetic_dataset(num_classes=10, per_class=100, image_size=8, seed=1)


def test_manifest_ten_percent(balanced):
    subset = data.manifest_split(balanced, 0.10, seed=2)
    assert len(subset) == 100
    assert np.bincount(subset.labels, minlength=10).tolist() == [10] * 10
    assert subset.num_classes == balanced.num_classes
    assert subset.name.endswith("@0.1")


def test_manifest_is_a_subset(balanced):
    subset = data.manifest_split(balanced, 0.25, seed=5)
    source = {balanced.images[i].tobytes() for i in range(len(balanced))}
    for i in range(len(subset)):
        assert subset.images[i].tobytes() in source


def test_manifest_counts_within_one(balanced):
    subset = data.manifest_split(balanced, 0.123, seed=4)
    counts = np.bincount(subset.labels, minlength=10)
    assert counts.max() - counts.min() <= 1
    assert counts.sum() == int(np.ceil(0.123 * len(balanced)))


def test_manifest_full_fraction_is_a_permutation(balanced):
    subset = data.manifest_split(balanced, 1.0, seed=3)
    assert len(subset) == len(balanced)
    assert sorted(map(bytes, subset.images.reshape(len(subset), -1).view(np.uint8))) == \
           sorted(map(bytes, balanced.images.reshape(len(balanced), -1).view(np.uint8)))
    # and it is genuinely shuffled relative to the source
    assert subset.images.tobytes() != balanced.images.tobytes()


def test_manifest_deterministic(balanced):
    a = data.manifest_split(balanced, 0.1, seed=8)
    b = data.manifest_split(balanced, 0.1, seed=8)
    c = data.manifest_split(balanced, 0.1, seed=9)
    assert a.images.tobytes() == b.images.tobytes()
    assert a.images.tobytes() != c.images.tobytes()


@pytest.mark.parametrize("fraction", [0.0, -0.2, 1.2])
def test_manifest_fraction_bounds(balanced, fraction):
    with pytest.raises(ValueError):
        data.manifest_split(balanced, fraction, seed=0)


@pytest.mark.parametrize("pixel", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_pixels(pixel):
    images = np.zeros((2, 1, 4, 4), np.float32)
    images[1, 0, 2, 3] = pixel
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        data.Dataset("bad", images, np.array([0, 1]), 2)


def test_dataset_invariants_enforced():
    with pytest.raises(ValueError):
        data.Dataset("bad", np.zeros((2, 1, 4, 4), np.float32), np.array([0, 5]), 3)
    with pytest.raises(ValueError):
        data.Dataset("bad", np.full((1, 1, 2, 2), 2.0, np.float32), np.array([0]), 2)
    with pytest.raises(ValueError):
        data.Dataset("bad", np.zeros((2, 1, 4, 4), np.float32), np.array([0]), 2)

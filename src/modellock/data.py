"""Datasets: IDX parsing, seeded synthetic generation, manifest subsetting.

The synthetic task is the desk-scale stand-in for the MNIST-family datasets:
each class is an oriented sinusoidal grating (orientation = class * pi / K)
with per-sample random phase, amplitude, and pixel noise. Phase jitter makes
raw-pixel linear separation unreliable while staying easily learnable by a
small CNN, including from a 10% manifest subset.

IDX files (big-endian container used by MNIST) are read from local paths
only; nothing is ever downloaded. Gzipped files are accepted transparently.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from math import ceil, prod

import numpy as np

# IDX type codes from the format description; only unsigned byte is supported.
_IDX_TYPE_CODES = {0x08: "ubyte", 0x09: "sbyte", 0x0B: "short", 0x0C: "int",
                   0x0D: "float", 0x0E: "double"}


class IdxFormatError(ValueError):
    """Base class for IDX parsing failures."""


class IdxBadMagicError(IdxFormatError):
    pass


class IdxUnsupportedTypeError(IdxFormatError):
    pass


class IdxTruncatedError(IdxFormatError):
    pass


class IdxSizeMismatchError(IdxFormatError):
    pass


@dataclass
class Dataset:
    name: str
    images: np.ndarray  # (N, C, H, W) float32 in [0, 1]
    labels: np.ndarray  # (N,) integer class indices
    num_classes: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError(f"images must be (N, C, H, W), got {self.images.shape}")
        if len(self.images) != len(self.labels):
            raise ValueError("images and labels must have the same length")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels must lie in [0, num_classes)")
        # min and max are NaN if any pixel is, and NaN fails both comparisons
        if len(self.images) and not (self.images.min() >= 0.0 and self.images.max() <= 1.0):
            raise ValueError("pixel values must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def input_shape(self) -> tuple[int, int, int]:
        return tuple(self.images.shape[1:])


def parse_idx(data: bytes) -> np.ndarray:
    """Parse an IDX byte stream into a uint8 tensor.

    Header: two zero bytes, a type code, a rank byte, then rank big-endian
    u32 dimensions, then the payload. Only type code 0x08 (unsigned byte)
    is supported.
    """
    if len(data) < 4:
        raise IdxTruncatedError(f"header needs 4 bytes, got {len(data)}")
    if data[0] != 0 or data[1] != 0:
        raise IdxBadMagicError(f"magic must start with two zero bytes, got {data[:2].hex()}")
    type_code, rank = data[2], data[3]
    if type_code != 0x08:
        known = _IDX_TYPE_CODES.get(type_code)
        detail = f"type code 0x{type_code:02x}" + (f" ({known})" if known else "")
        raise IdxUnsupportedTypeError(f"{detail} is not supported, only 0x08 (ubyte)")
    header_len = 4 + 4 * rank
    if len(data) < header_len:
        raise IdxTruncatedError(f"rank {rank} header needs {header_len} bytes, got {len(data)}")
    dims = struct.unpack(f">{rank}I", data[4:header_len]) if rank else ()
    count = prod(dims)
    payload = data[header_len:]
    if len(payload) < count:
        raise IdxTruncatedError(f"declared {count} elements, payload has {len(payload)} bytes")
    if len(payload) > count:
        raise IdxSizeMismatchError(f"declared {count} elements, payload has {len(payload)} bytes")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def read_idx(path) -> np.ndarray:
    """Read an IDX file (gzip-transparent) from a local path."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as fh:
        return parse_idx(fh.read())


def load_idx_dataset(images_path, labels_path, name: str = "idx",
                     num_classes: int = 10) -> Dataset:
    """Load an MNIST-style (images, labels) IDX pair, normalized to [0, 1]."""
    raw_images = read_idx(images_path)
    raw_labels = read_idx(labels_path)
    if raw_images.ndim != 3:
        raise IdxFormatError(f"image file must be rank 3, got rank {raw_images.ndim}")
    if raw_labels.ndim != 1:
        raise IdxFormatError(f"label file must be rank 1, got rank {raw_labels.ndim}")
    if len(raw_images) != len(raw_labels):
        raise IdxFormatError(
            f"{len(raw_images)} images but {len(raw_labels)} labels"
        )
    images = (raw_images.astype(np.float32) / 255.0)[:, None]
    return Dataset(name, images, raw_labels.astype(np.int64), num_classes)


def synthetic_dataset(num_classes: int = 10, per_class: int = 100,
                      image_size: int = 28, seed: int = 0) -> Dataset:
    """Seeded, balanced synthetic classification task (see module docstring)."""
    if num_classes < 1 or per_class < 1 or image_size < 2:
        raise ValueError(f"num_classes and per_class must be >= 1 and image_size >= 2, "
                         f"got {num_classes}, {per_class} and {image_size}")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:image_size, 0:image_size].astype(np.float32)
    frequency = 3.0
    images = np.empty((num_classes * per_class, 1, image_size, image_size), dtype=np.float32)
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    i = 0
    for c in range(num_classes):
        theta = np.pi * c / num_classes
        projection = xx * np.cos(theta) + yy * np.sin(theta)
        for _ in range(per_class):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amplitude = rng.uniform(0.75, 1.0)
            img = 0.5 + 0.5 * amplitude * np.cos(
                2.0 * np.pi * frequency * projection / image_size + phase
            )
            img += rng.normal(0.0, 0.1, img.shape)
            images[i, 0] = np.clip(img, 0.0, 1.0)
            labels[i] = c
            i += 1
    order = rng.permutation(len(labels))
    name = f"synthetic-{num_classes}x{per_class}-s{seed}"
    return Dataset(name, images[order], labels[order], num_classes)


def manifest_split(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Seeded stratified subsample of ceil(fraction * N) items.

    Class counts are allocated proportionally (largest-remainder rounding),
    so a balanced input yields per-class counts differing by at most one.
    The result is a subset of the input; provenance is recorded in the name.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot split an empty dataset")
    rng = np.random.default_rng(seed)
    total = ceil(fraction * n)
    class_indices = [np.flatnonzero(dataset.labels == c) for c in range(dataset.num_classes)]
    quotas = np.array([fraction * len(ix) for ix in class_indices])
    counts = np.floor(quotas).astype(int)
    remainder = total - counts.sum()
    if remainder > 0:
        order = np.argsort(-(quotas - counts), kind="stable")
        counts[order[:remainder]] += 1
    counts = np.minimum(counts, [len(ix) for ix in class_indices])
    chosen = []
    for ix, k in zip(class_indices, counts):
        chosen.append(rng.permutation(ix)[:k])
    chosen = np.concatenate(chosen) if chosen else np.array([], dtype=int)
    chosen = chosen[rng.permutation(len(chosen))]
    return Dataset(
        f"{dataset.name}@{fraction:g}",
        dataset.images[chosen],
        dataset.labels[chosen],
        dataset.num_classes,
    )

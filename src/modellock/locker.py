"""Whole-model lock/unlock and the on-disk container formats.

Locking walks the model's parameters in canonical order (layer order, weight
before bias, row-major elements), serializes each scalar as little-endian
IEEE-754 binary32, and transforms the bytes with the S-Box keystream: scalar
i consumes keystream bytes 4i..4i+3. Unlocking inverts that bytewise, so the
round trip is bit-exact for every float pattern including NaN payloads —
parameter bytes never pass through float arithmetic here.

Unlocking never judges the key: any 16-byte key "succeeds" and a wrong key
simply yields garbage parameters (frequently non-finite). That is the locking
scheme's behavior, not an error path.

File container (all integers little-endian):

    magic            4 bytes, ``DLK1`` (locked) or ``DLM1`` (plaintext)
    format_version   u16 (currently 1; readers refuse any other)
    arch_len         u32, then arch_len bytes of UTF-8 architecture text
                     (canonical grammar from :mod:`modellock.nn`)
    tensor_count     u32
    per tensor:      name_len u32, name bytes (UTF-8), rank u32,
                     rank x u32 dims, blob offset u64, blob length u64
                     (offsets are relative to the start of the blob section)
    blobs            concatenated tensor bytes in canonical order
    digest           32-byte SHA-256 over everything before it

``DLK1`` blobs hold S-Box-locked bytes; ``DLM1`` blobs hold raw binary32
values. The digest detects corruption only — it does not authenticate the
key, and a locked file deliberately cannot reveal whether a key is correct.
Readers parse only the self-describing prefix (magic, version, architecture
text), rebuild the header the writer would write for that architecture, and
require the file to be exactly that header, 4 bytes per parameter and the
digest; nothing is built from a size the file declares. A file too short for
its architecture is a :class:`TruncatedFileError`, a failed digest is a
:class:`DigestMismatchError`, and an intact file that differs is a
:class:`FormatError`; that covers architecture text that is not canonical
(exactly what ``format_architecture`` writes, which every later digest check
re-serializes) and a tensor table other than the names and shapes the text
implies (``Architecture.param_specs``).

The digest is checked once per :class:`LockedModel`. The model is immutable,
so the first ``verify_digest`` hashes and later calls return at once;
``lock_model`` and ``read_locked`` return models already checked, since each
has just computed or compared that same digest. Every unlock still calls
``verify_digest``, but repeated unlocks of one model pay the keystream and
the S-Box, not the hash.
"""

from __future__ import annotations

import hashlib
import io
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .cipher import (BufferTypeError, _as_bytes, check_key, expand_keystream, lock_bytes,
                     unlock_bytes)
from .nn import (Architecture, ArchitectureError, Model, WeightTensor, format_architecture,
                 parse_architecture)

MAGIC_LOCKED = b"DLK1"
MAGIC_PLAIN = b"DLM1"
FORMAT_VERSION = 1
DIGEST_LEN = 32


class FormatError(ValueError):
    """Base class for container-format violations."""


class BadMagicError(FormatError):
    pass


class TruncatedFileError(FormatError):
    pass


class UnsupportedVersionError(FormatError):
    pass


class DigestMismatchError(FormatError):
    pass


@dataclass(frozen=True)
class LockedModel:
    """A locked model in memory; ``blob`` and ``digest`` are stored as ``bytes``.

    Immutable, so a digest that matched once matches for the model's
    lifetime. ``_checked`` is not an ``__init__`` field: a copy made with
    ``dataclasses.replace`` starts unchecked.
    """

    arch: Architecture
    blob: bytes  # locked canonical parameter buffer
    digest: bytes
    _checked: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        # a bytearray the caller mutates later must not change a checked model
        object.__setattr__(self, "blob", _as_bytes(self.blob, BufferTypeError, "blob"))
        object.__setattr__(self, "digest", _as_bytes(self.digest, BufferTypeError, "digest"))
        if len(self.blob) != 4 * self.param_count:
            raise FormatError(
                f"blob length {len(self.blob)} does not match {self.param_count} parameters"
            )

    @property
    def param_count(self) -> int:
        return self.arch.param_count

    def verify_digest(self) -> None:
        """Raise :class:`DigestMismatchError` unless the digest matches; hashes once."""
        if self._checked:
            return
        if _sha256(_serialize_header(MAGIC_LOCKED, self.arch), self.blob) != self.digest:
            raise DigestMismatchError("locked model failed its integrity check")
        object.__setattr__(self, "_checked", True)


def _checked_model(arch: Architecture, blob: bytes, digest: bytes) -> LockedModel:
    """A LockedModel whose digest the caller has just computed or compared."""
    locked = LockedModel(arch, blob, digest)
    object.__setattr__(locked, "_checked", True)
    return locked


def _params_bytes(model: Model) -> bytes:
    """The canonical parameter buffer: every scalar as ``<f4``, in order."""
    return b"".join(np.ascontiguousarray(t.values, dtype="<f4").tobytes()
                    for t in model.params)


def _params_from_bytes(arch: Architecture, buf: bytes) -> list[WeightTensor]:
    """Split a canonical parameter buffer into ``arch``'s tensors (one copy)."""
    values = np.frombuffer(buf, dtype="<f4").copy()
    params = []
    offset = 0
    for name, shape in arch.param_specs():
        size = math.prod(shape)
        params.append(WeightTensor(name, values[offset : offset + size].reshape(shape)))
        offset += size
    return params


def lock_model(model: Model, key: bytes) -> LockedModel:
    """Lock every parameter of ``model`` under ``key``: one keystream over the
    canonical parameter buffer, so offsets run across tensor boundaries."""
    key = check_key(key)
    model.validate()
    plain = _params_bytes(model)
    blob = lock_bytes(plain, expand_keystream(key, len(plain)))
    digest = _sha256(_serialize_header(MAGIC_LOCKED, model.arch), blob)
    return _checked_model(model.arch, blob, digest)


def unlock_model(locked: LockedModel, key: bytes) -> Model:
    """Decrypt ``locked`` with ``key``; succeeds for any 16-byte key.

    Verifies the integrity digest first, which hashes only on the model's
    first check. A wrong key is not detectable here by design — it produces
    garbage (often non-finite) parameters. The result is transient:
    ``write_model`` refuses it and its copies.
    """
    key = check_key(key)
    locked.verify_digest()
    plain = unlock_bytes(locked.blob, expand_keystream(key, len(locked.blob)))
    return Model(locked.arch, _params_from_bytes(locked.arch, plain), transient=True)


def raw_locked_params(locked: LockedModel) -> list[WeightTensor]:
    """Interpret the locked blob directly as float32 tensors (no unlock).

    Exposed for the fine-tuning attack's alternate initialization mode."""
    return _params_from_bytes(locked.arch, locked.blob)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _serialize_header(magic: bytes, arch: Architecture) -> bytes:
    """Everything before the blobs: the one encoding of ``arch``'s tensor table."""
    out = io.BytesIO()
    out.write(magic)
    out.write(struct.pack("<H", FORMAT_VERSION))
    arch_text = format_architecture(arch).encode("utf-8")
    out.write(struct.pack("<I", len(arch_text)))
    out.write(arch_text)
    specs = arch.param_specs()
    out.write(struct.pack("<I", len(specs)))
    offset = 0
    for name, shape in specs:
        name_bytes = name.encode("utf-8")
        out.write(struct.pack("<I", len(name_bytes)))
        out.write(name_bytes)
        out.write(struct.pack(f"<{1 + len(shape)}I", len(shape), *shape))
        length = 4 * math.prod(shape)
        out.write(struct.pack("<QQ", offset, length))
        offset += length
    return out.getvalue()


def _sha256(header: bytes, blob: bytes) -> bytes:
    """The container digest of ``header`` followed by ``blob``, without joining them."""
    h = hashlib.sha256(header)
    h.update(blob)
    return h.digest()


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedFileError(
                f"file ends at byte {len(self.data)}, needed {self.pos + n}"
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def _parse_container(data: bytes, expected_magic: bytes):
    r = _Reader(data)
    magic = r.take(4)
    if magic != expected_magic:
        raise BadMagicError(
            f"bad magic {magic!r}, expected {expected_magic!r}"
        )
    version = r.u16()
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"format version {version} is not supported")
    arch_text = r.take(r.u32())
    intact = hashlib.sha256(memoryview(data)[:-DIGEST_LEN]).digest() == data[-DIGEST_LEN:]
    try:
        arch = parse_architecture(arch_text.decode("utf-8"))
    except (UnicodeDecodeError, ArchitectureError) as exc:
        if not intact:
            raise DigestMismatchError("integrity digest does not match file contents") from exc
        raise FormatError(f"bad architecture text: {exc}") from exc
    # nothing below is built from a size the file declares: the header is
    # rebuilt from the architecture and the file must be exactly it + blob + digest
    header = _serialize_header(magic, arch)
    size = len(header) + 4 * arch.param_count + DIGEST_LEN
    common = min(len(data), len(header))
    consistent = data[:common] == header[:common]
    if len(data) < size and (intact or consistent):
        raise TruncatedFileError(
            f"a file of this architecture needs at least {size} bytes, this one has {len(data)}"
        )
    if consistent and len(data) > size:
        raise FormatError(f"{len(data) - size} trailing bytes after digest")
    if not intact:
        raise DigestMismatchError("integrity digest does not match file contents")
    if not consistent:
        if data[:r.pos] != header[:r.pos]:
            raise FormatError("architecture text is not in canonical form")
        raise FormatError("tensor table does not match the architecture")
    return arch, data[len(header) : -DIGEST_LEN], data[-DIGEST_LEN:]


def _read_source(source) -> bytes:
    if isinstance(source, (bytes, bytearray)):
        return bytes(source)
    if hasattr(source, "read"):
        return source.read()
    with open(source, "rb") as fh:
        return fh.read()


def _write_sink(sink, *chunks: bytes) -> None:
    if not hasattr(sink, "write"):
        with open(sink, "wb") as fh:
            return _write_sink(fh, *chunks)
    for chunk in chunks:
        sink.write(chunk)


def write_locked(locked: LockedModel, sink) -> None:
    """Write a ``DLK1`` container; byte-identical for identical inputs.

    A model whose digest does not match raises before anything is written.
    """
    # a checked model's verify_digest returns at once; skipping the call keeps
    # the traced verify_digest spans (perfbench/spans.py) at one per unlock
    if not locked._checked:
        locked.verify_digest()
    _write_sink(sink, _serialize_header(MAGIC_LOCKED, locked.arch), locked.blob, locked.digest)


def read_locked(source) -> LockedModel:
    """Parse and integrity-check a ``DLK1`` container."""
    return _checked_model(*_parse_container(_read_source(source), MAGIC_LOCKED))


def write_model(model: Model, sink) -> None:
    """Write a plaintext ``DLM1`` checkpoint (offline workflow only)."""
    if model.transient:
        raise TypeError("unlocked models are transient and must not be persisted")
    model.validate()
    header, blob = _serialize_header(MAGIC_PLAIN, model.arch), _params_bytes(model)
    _write_sink(sink, header, blob, _sha256(header, blob))


def read_model(source) -> Model:
    """Parse a plaintext ``DLM1`` checkpoint back into a Model."""
    arch, blob, _ = _parse_container(_read_source(source), MAGIC_PLAIN)
    return Model(arch, _params_from_bytes(arch, blob))

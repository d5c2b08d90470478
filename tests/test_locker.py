import functools
import hashlib
import io
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modellock import locker, nn
from modellock.architectures import mnist_arch
from modellock.cipher import KeyFormatError, expand_keystream, lock_bytes

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
OTHER_KEY = bytes.fromhex("0f0e0d0c0b0a09080706050403020100")

SMALL = """\
input 1x10x10
conv 4 3x3 stride 1 pad same relu
maxpool 2x2 stride 2
conv 3 3x3 stride 1 pad valid relu
flatten
dense 12 relu
dense 5 linear
"""


@pytest.fixture
def small_model():
    return nn.build_model(nn.parse_architecture(SMALL), seed=17)


@pytest.fixture
def zero_param_model():
    arch = nn.Architecture((1, 10, 1), (nn.Flatten(),))
    return nn.Model(arch, [])


def model_bytes(model_like) -> bytes:
    return b"".join(np.ascontiguousarray(t.values, dtype="<f4").tobytes()
                    for t in model_like.params)


def inject_nonfinite(model: nn.Model, seed=0) -> nn.Model:
    rng = np.random.default_rng(seed)
    specials = np.array([np.nan, np.inf, -np.inf,
                         np.float32(np.frombuffer(b"\x01\x00\x80\x7f", "<f4")[0])],
                        dtype=np.float32)  # includes a NaN payload bit pattern
    for tensor in model.params:
        flat = tensor.values.reshape(-1)
        hits = rng.choice(flat.size, size=max(1, flat.size // 16), replace=False)
        flat[hits] = rng.choice(specials, size=hits.size)
    return model


# ---------------------------------------------------------------------------
# lock_model / unlock_model
# ---------------------------------------------------------------------------

def test_round_trip_is_bit_exact(small_model):
    locked = locker.lock_model(small_model, KEY)
    view = locker.unlock_model(locked, KEY)
    assert model_bytes(view) == model_bytes(small_model)
    for a, b in zip(small_model.params, view.params):
        assert a.name == b.name and a.values.shape == b.values.shape


def test_round_trip_with_nonfinite_payloads(small_model):
    poisoned = inject_nonfinite(small_model)
    locked = locker.lock_model(poisoned, KEY)
    view = locker.unlock_model(locked, KEY)
    assert model_bytes(view) == model_bytes(poisoned)


def test_blob_lengths_are_4x_element_count(small_model):
    locked = locker.lock_model(small_model, KEY)
    assert len(locked.blob) == 4 * sum(t.values.size for t in small_model.params)
    assert locked.param_count == small_model.param_count
    with pytest.raises(locker.FormatError):
        locker.LockedModel(locked.arch, locked.blob[:-4], locked.digest)


def test_mnist_shaped_model_blob_budget():
    model = nn.build_model(mnist_arch(), seed=1)
    assert model.param_count == 86166
    locked = locker.lock_model(model, KEY)
    assert len(locked.blob) == 344664


def test_no_plaintext_bytes_survive(small_model):
    # every 4-byte group differs from the plaintext somewhere with
    # overwhelming probability; check the blob as a whole
    locked = locker.lock_model(small_model, KEY)
    assert locked.blob != model_bytes(small_model)


def test_zero_parameter_model(zero_param_model):
    locked = locker.lock_model(zero_param_model, KEY)
    assert locked.blob == b"" and locked.param_count == 0
    view = locker.unlock_model(locked, KEY)
    assert view.params == []


def test_lock_is_deterministic(small_model):
    a = locker.lock_model(small_model, KEY)
    b = locker.lock_model(small_model, KEY)
    assert a.blob == b.blob and a.digest == b.digest


def test_keystream_offsets_run_across_tensors(small_model):
    # locking tensor-by-tensor, each tensor with its own slice of one
    # keystream, must equal locking one concatenated stream
    locked = locker.lock_model(small_model, KEY)
    plain = model_bytes(small_model)
    ks = expand_keystream(KEY, len(plain))
    per_tensor = []
    offset = 0
    for tensor in small_model.params:
        chunk = np.ascontiguousarray(tensor.values, dtype="<f4").tobytes()
        per_tensor.append(lock_bytes(chunk, ks[offset : offset + len(chunk)]))
        offset += len(chunk)
    assert locked.blob == b"".join(per_tensor) == lock_bytes(plain, ks)


def test_wrong_key_yields_garbage(small_model):
    locked = locker.lock_model(small_model, KEY)
    view = locker.unlock_model(locked, OTHER_KEY)
    assert model_bytes(view) != model_bytes(small_model)


def test_wrong_key_matching_byte_fraction_is_about_1_in_256(small_model):
    rng = np.random.default_rng(7)
    plain = np.frombuffer(model_bytes(small_model), np.uint8)
    matches = []
    for _ in range(100):
        k1, k2 = rng.bytes(16), rng.bytes(16)
        if k1 == k2:
            continue
        locked = locker.lock_model(small_model, k1)
        got = np.frombuffer(model_bytes(locker.unlock_model(locked, k2)), np.uint8)
        matches.append((got == plain).mean())
    mean = float(np.mean(matches))
    # matching positions occur exactly where keystream bytes collide: p = 1/256
    assert 1 / 256 * 0.5 < mean < 1 / 256 * 2.0


def test_unlock_rejects_corrupted_digest(small_model):
    locked = locker.lock_model(small_model, KEY)
    bad = locker.LockedModel(locked.arch, locked.blob,
                             bytes([locked.digest[0] ^ 1]) + locked.digest[1:])
    with pytest.raises(locker.DigestMismatchError):
        locker.unlock_model(bad, KEY)


def test_bad_key_lengths_rejected(small_model):
    with pytest.raises(ValueError):
        locker.lock_model(small_model, b"\x00" * 8)
    locked = locker.lock_model(small_model, KEY)
    with pytest.raises(ValueError):
        locker.unlock_model(locked, b"\x00" * 32)


def test_int_key_is_not_the_zero_key(small_model):
    locked = locker.lock_model(small_model, bytes(16))
    with pytest.raises(KeyFormatError):
        locker.unlock_model(locked, 16)
    with pytest.raises(KeyFormatError):
        locker.lock_model(small_model, 16)


# ---------------------------------------------------------------------------
# Locked container I/O
# ---------------------------------------------------------------------------

def locked_file_bytes(model, key=KEY) -> bytes:
    buf = io.BytesIO()
    locker.write_locked(locker.lock_model(model, key), buf)
    return buf.getvalue()


def test_locked_file_round_trip(small_model, tmp_path):
    locked = locker.lock_model(small_model, KEY)
    path = tmp_path / "model.dlk"
    locker.write_locked(locked, path)
    loaded = locker.read_locked(path)
    assert loaded == locked
    view = locker.unlock_model(loaded, KEY)
    assert model_bytes(view) == model_bytes(small_model)


def test_locked_file_bytes_are_deterministic(small_model):
    assert locked_file_bytes(small_model) == locked_file_bytes(small_model)


def test_footer_is_sha256_of_body(small_model):
    data = locked_file_bytes(small_model)
    assert data[-32:] == hashlib.sha256(data[:-32]).digest()


def test_bad_magic(small_model):
    data = locked_file_bytes(small_model)
    with pytest.raises(locker.BadMagicError):
        locker.read_locked(b"NOPE" + data[4:])


def test_plain_magic_is_not_a_locked_file(small_model):
    buf = io.BytesIO()
    locker.write_model(small_model, buf)
    with pytest.raises(locker.BadMagicError):
        locker.read_locked(buf.getvalue())
    with pytest.raises(locker.BadMagicError):
        locker.read_model(locked_file_bytes(small_model))


def test_unsupported_version(small_model):
    data = locked_file_bytes(small_model)
    with pytest.raises(locker.UnsupportedVersionError):
        locker.read_locked(data[:4] + b"\x07\x00" + data[6:])


@pytest.mark.parametrize("cut", [3, 5, 40, -40, -33, -1])
def test_truncation(small_model, cut):
    data = locked_file_bytes(small_model)
    with pytest.raises(locker.TruncatedFileError):
        locker.read_locked(data[:cut] if cut > 0 else data[:len(data) + cut])


def small_files(model) -> dict:
    plain = io.BytesIO()
    locker.write_model(model, plain)
    return {locker.read_locked: locked_file_bytes(model), locker.read_model: plain.getvalue()}


def test_every_proper_prefix_is_truncated(small_model):
    for read, data in small_files(small_model).items():
        for cut in range(len(data)):
            with pytest.raises(locker.TruncatedFileError):
                read(data[:cut])


def test_every_flipped_bit_after_the_architecture_length_is_corruption(small_model):
    # from the architecture text on, a flip is corruption, never a truncation
    # or a table error: the reader never trusts a size the file declares
    for read, data in small_files(small_model).items():
        for pos in range(10, len(data)):
            corrupted = bytearray(data)
            corrupted[pos] ^= 1 << (pos % 8)
            with pytest.raises(locker.DigestMismatchError):
                read(bytes(corrupted))


def test_digest_mismatch_on_flipped_body_byte(small_model):
    data = locked_file_bytes(small_model)
    for pos in (10, len(data) // 2, len(data) - 40):
        corrupted = data[:pos] + bytes([data[pos] ^ 0x01]) + data[pos + 1 :]
        with pytest.raises((locker.DigestMismatchError, locker.FormatError)):
            locker.read_locked(corrupted)


def test_trailing_bytes_rejected(small_model):
    with pytest.raises(locker.FormatError):
        locker.read_locked(locked_file_bytes(small_model) + b"\x00")


# ---------------------------------------------------------------------------
# Plaintext container I/O
# ---------------------------------------------------------------------------

def test_plain_model_round_trip(small_model, tmp_path):
    path = tmp_path / "model.dlm"
    locker.write_model(small_model, path)
    loaded = locker.read_model(path)
    assert model_bytes(loaded) == model_bytes(small_model)
    assert loaded.arch == small_model.arch


def test_plain_round_trip_preserves_nonfinite(small_model):
    poisoned = inject_nonfinite(small_model, seed=3)
    buf = io.BytesIO()
    locker.write_model(poisoned, buf)
    assert model_bytes(locker.read_model(buf.getvalue())) == model_bytes(poisoned)


def test_empty_model_file_round_trip(zero_param_model):
    buf = io.BytesIO()
    locker.write_model(zero_param_model, buf)
    loaded = locker.read_model(buf.getvalue())
    assert loaded.params == [] and loaded.arch == zero_param_model.arch


def test_plain_version_mismatch(small_model):
    buf = io.BytesIO()
    locker.write_model(small_model, buf)
    data = buf.getvalue()
    with pytest.raises(locker.UnsupportedVersionError):
        locker.read_model(data[:4] + b"\x00\x01" + data[6:])


def test_unlocked_view_cannot_be_persisted(small_model):
    view = locker.unlock_model(locker.lock_model(small_model, KEY), KEY)
    with pytest.raises(TypeError):
        locker.write_model(view, io.BytesIO())
    with pytest.raises(TypeError):
        locker.write_model(view.copy(), io.BytesIO())


# ---------------------------------------------------------------------------
# Hostile containers: well-formed, valid digest, inconsistent tensor table
# ---------------------------------------------------------------------------

def build_container(magic: bytes, arch_text: bytes, table, blob: bytes) -> bytes:
    """Serialize a container from (name, shape, length) entries, digest included."""
    parts = [magic, struct.pack("<HI", 1, len(arch_text)), arch_text,
             struct.pack("<I", len(table))]
    offset = 0
    for name, shape, length in table:
        parts += [struct.pack("<I", len(name)), name,
                  struct.pack(f"<{1 + len(shape)}I", len(shape), *shape),
                  struct.pack("<QQ", offset, length)]
        offset += length
    body = b"".join(parts) + blob
    return body + hashlib.sha256(body).digest()


def swap_dense_shape(arch_text, table, blob):
    i = [name for name, _, _ in table].index(b"dense1.weight")
    name, (rows, cols), length = table[i]
    table[i] = (name, (cols, rows), length)  # same byte count
    return arch_text, table, blob


def rename_tensor(arch_text, table, blob):
    table[0] = (b"conv9.weight",) + table[0][1:]
    return arch_text, table, blob


def overflowing_shape(arch_text, table, blob):
    # 65536**4 == 2**64 elements: wraps to 0 in a 64-bit product
    return b"input 1x10x1\nflatten\n", [(b"huge", (65536,) * 4, 0)], b""


def overflowing_flatten(arch_text, table, blob):
    # a 2**64-wide flatten wrapped to 0, leaving a (0, 10) dense weight
    return (b"input 1x4294967296x4294967296\nflatten\ndense 10 linear\n",
            [(b"dense1.weight", (0, 10), 0), (b"dense1.bias", (10,), 40)], bytes(40))


def undecodable_arch_text(arch_text, table, blob):
    return b"\xff" + arch_text[1:], table, blob


def superscript_digit(arch_text, table, blob):
    # '\u00b2'.isdigit() is true, but int() rejects it
    return arch_text.replace(b"1x10x10", "1x1\u00b2x10".encode()), table, blob


def commented_arch_text(arch_text, table, blob):
    # valid but not canonical: every later digest check would re-serialize
    # the canonical text and call the intact file corrupt
    return b"# note\n" + arch_text, table, blob


@pytest.mark.parametrize("mutate", [swap_dense_shape, rename_tensor, overflowing_shape,
                                    overflowing_flatten, undecodable_arch_text,
                                    superscript_digit, commented_arch_text])
def test_inconsistent_tensor_table_rejected(small_model, mutate):
    locked = locker.lock_model(small_model, KEY)
    arch_text = nn.format_architecture(small_model.arch).encode()
    table = [(t.name.encode(), t.values.shape, 4 * t.values.size) for t in small_model.params]
    plain = io.BytesIO()
    locker.write_model(small_model, plain)
    for magic, blob, honest, read in (
        (locker.MAGIC_LOCKED, locked.blob, locked_file_bytes(small_model), locker.read_locked),
        (locker.MAGIC_PLAIN, model_bytes(small_model), plain.getvalue(), locker.read_model),
    ):
        assert build_container(magic, arch_text, table, blob) == honest
        hostile = build_container(magic, *mutate(arch_text, list(table), blob))
        with pytest.raises(locker.FormatError, match="tensor table|architecture text"):
            read(hostile)


# ---------------------------------------------------------------------------
# Fuzzed containers: every rejection is a FormatError, and whatever a reader
# accepts writes back to the same bytes
# ---------------------------------------------------------------------------

TINY = """\
input 1x3x3
conv 2 2x2 stride 1 pad same relu
maxpool 2x2 stride 1
flatten
dense 3 linear
"""
READERS = {locker.MAGIC_LOCKED: (locker.read_locked, locker.write_locked),
           locker.MAGIC_PLAIN: (locker.read_model, locker.write_model)}
MAGICS = st.sampled_from(sorted(READERS))


@functools.cache
def tiny_parts(magic: bytes):
    """(arch text, tensor table, blob) of an honest TINY container."""
    model = nn.build_model(nn.parse_architecture(TINY), seed=3)
    blob = (locker.lock_model(model, KEY).blob if magic == locker.MAGIC_LOCKED
            else model_bytes(model))
    table = [(t.name.encode(), t.values.shape, 4 * t.values.size) for t in model.params]
    return TINY.encode(), table, blob


def read_back(data: bytes) -> None:
    for read, write in READERS.values():
        try:
            parsed = read(data)
        except locker.FormatError:
            continue
        out = io.BytesIO()
        write(parsed, out)
        assert out.getvalue() == data


@given(st.sampled_from([b""] + [magic + b"\x01\x00" for magic in sorted(READERS)]),
       st.binary(max_size=96))
@settings(max_examples=150, deadline=None)
def test_arbitrary_bytes_never_crash_with_foreign_errors(prefix, tail):
    read_back(prefix + tail)


@given(MAGICS, st.lists(st.tuples(st.sampled_from(["set", "insert", "delete"]),
                                  st.integers(min_value=0), st.integers(0, 255)),
                        min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_mutated_files_never_crash_with_foreign_errors(magic, edits):
    body = bytearray(build_container(magic, *tiny_parts(magic))[:-locker.DIGEST_LEN])
    for op, pos, value in edits:
        if op == "set":
            body[pos % len(body)] = value
        elif op == "insert":
            body.insert(pos % (len(body) + 1), value)
        else:
            del body[pos % len(body)]
    read_back(bytes(body) + hashlib.sha256(body).digest())


ARCH_TOKENS = st.one_of(
    st.sampled_from(["input", "conv", "maxpool", "flatten", "dense", "stride", "pad",
                     "same", "valid", "relu", "linear", "#", "\n", ""]),
    st.text(alphabet="0123456789x\u00b2\u00b3\uff11", min_size=1, max_size=12),
)


@given(MAGICS, st.integers(min_value=0), ARCH_TOKENS)
@settings(max_examples=150, deadline=None)
def test_mutated_architecture_text_never_crashes_with_foreign_errors(magic, index, token):
    arch_text, table, blob = tiny_parts(magic)
    words = list(re.finditer(rb"\S+", arch_text))
    word = words[index % len(words)]
    text = arch_text[:word.start()] + token.encode() + arch_text[word.end():]
    read_back(build_container(magic, text, table, blob))


# ---------------------------------------------------------------------------
# Table sizes bounded by the bytes left, before anything is built from them
# ---------------------------------------------------------------------------

U32_MAX = 0xFFFFFFFF


@pytest.mark.parametrize("magic", sorted(READERS))
@pytest.mark.parametrize("count, entry", [
    (U32_MAX, b""),
    (1, struct.pack("<I", 4) + b"huge" + struct.pack("<I", U32_MAX)),
], ids=["u32-max-tensor-count", "u32-max-rank"])
def test_huge_table_sizes_rejected_before_allocation(magic, count, entry):
    body = (magic + struct.pack("<HI", 1, len(TINY)) + TINY.encode()
            + struct.pack("<I", count) + entry + bytes(64))
    read, _ = READERS[magic]
    tracemalloc.start()
    try:
        with pytest.raises(locker.TruncatedFileError, match="needs at least"):
            read(body + hashlib.sha256(body).digest())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

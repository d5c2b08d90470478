import ctypes
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modellock import cipher
from modellock.cipher import (
    INV_SBOX,
    SBOX,
    SCHEDULE_LEN,
    BufferTypeError,
    KeyFormatError,
    KeystreamTooShortError,
    check_key,
    expand_keystream,
    lock_bytes,
    unlock_bytes,
)

from oracles import aes128_encrypt_block, derive_aes_sbox, reference_keystream

FIPS_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")

# FIPS-197 Appendix A: AES-128 key expansion of FIPS_KEY, w0..w43 as 11
# round keys. Certified end to end by test_schedule_encrypts_appendix_b.
FIPS_ROUND_KEYS = bytes.fromhex(
    "2b7e151628aed2a6abf7158809cf4f3c"
    "a0fafe1788542cb123a339392a6c7605"
    "f2c295f27a96b9435935807a7359f67f"
    "3d80477d4716fe3e1e237e446d7a883b"
    "ef44a541a8525b7fb671253bdb0bad00"
    "d4d1c6f87c839d87caf2b8bc11f915bc"
    "6d88a37a110b3efddbf98641ca0093fd"
    "4e54f70e5f5fc9f384a64fb24ea6dc4f"
    "ead27321b58dbad2312bf5607f8d292f"
    "ac7766f319fadc2128d12941575c006e"
    "d014f9a8c9ee2589e13f0cc8b6630ca6"
)

keys = st.binary(min_size=16, max_size=16)


# ---------------------------------------------------------------------------
# S-Box
# ---------------------------------------------------------------------------

def test_sbox_known_values():
    assert SBOX[0x00] == 0x63
    assert SBOX[0x53] == 0xED
    assert INV_SBOX[0x63] == 0x00
    assert INV_SBOX[0xED] == 0x53


def test_sbox_is_a_bijection():
    assert len(set(SBOX)) == 256
    assert len(set(INV_SBOX)) == 256
    for b in range(256):
        assert INV_SBOX[SBOX[b]] == b
        assert SBOX[INV_SBOX[b]] == b


def test_sbox_matches_algebraic_construction():
    # the table must equal the GF(2^8) inverse + affine transform definition
    assert SBOX == derive_aes_sbox()


# ---------------------------------------------------------------------------
# Key schedule / keystream
# ---------------------------------------------------------------------------

def test_first_schedule_matches_fips_appendix_a():
    assert expand_keystream(FIPS_KEY, SCHEDULE_LEN) == FIPS_ROUND_KEYS


def test_round_key_zero_is_the_master_key():
    assert expand_keystream(FIPS_KEY, 16) == FIPS_KEY


def test_final_round_key_slice():
    ks = expand_keystream(FIPS_KEY, SCHEDULE_LEN)
    assert ks[160:176] == bytes.fromhex("d014f9a8c9ee2589e13f0cc8b6630ca6")


def test_schedule_encrypts_appendix_b():
    # Independent certification: textbook AES-128 driven by this schedule
    # must reproduce the FIPS-197 Appendix B known-answer ciphertext.
    ct = aes128_encrypt_block(
        bytes.fromhex("3243f6a8885a308d313198a2e0370734"),
        expand_keystream(FIPS_KEY, SCHEDULE_LEN),
        SBOX,
    )
    assert ct == bytes.fromhex("3925841d02dc09fbdc118597196a0b32")


def test_zero_length_stream():
    assert expand_keystream(FIPS_KEY, 0) == b""


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        expand_keystream(FIPS_KEY, -1)


def test_bad_key_length_rejected():
    with pytest.raises(KeyFormatError):
        expand_keystream(b"\x00" * 15, 16)
    with pytest.raises(KeyFormatError):
        expand_keystream(b"\x00" * 17, 16)


def test_chaining_rule():
    # block j+1 is the schedule of block j's final 16 bytes
    ks = expand_keystream(FIPS_KEY, 3 * SCHEDULE_LEN)
    for j in range(2):
        block = ks[j * SCHEDULE_LEN : (j + 1) * SCHEDULE_LEN]
        following = ks[(j + 1) * SCHEDULE_LEN : (j + 2) * SCHEDULE_LEN]
        assert following == expand_keystream(block[-16:], SCHEDULE_LEN)


@given(keys, st.integers(min_value=0, max_value=900), st.integers(min_value=0, max_value=900))
@settings(max_examples=60, deadline=None)
def test_prefix_consistency(key, m, n):
    short, full = sorted((m, n))
    assert expand_keystream(key, full)[:short] == expand_keystream(key, short)


@given(keys, st.integers(min_value=0, max_value=2000))
@settings(max_examples=40, deadline=None)
def test_keystream_determinism(key, n):
    assert expand_keystream(key, n) == expand_keystream(key, n)


@given(keys, st.integers(min_value=0, max_value=4000))
@settings(max_examples=60, deadline=None)
def test_keystream_matches_reference_key_expansion(key, n):
    # 4000 bytes cross 22 block boundaries of the chained schedule
    assert expand_keystream(key, n) == reference_keystream(key, n)


@pytest.mark.parametrize("n, sha256", [
    (344664, "5b3ed7dcd28a8e1a93fe238f403918756fa0f8b91c1e357748e22cac723fd57b"),  # mnist blob
    (5003432, "f6b2369d9d8b8f693d580353b6aff6c17903662040fe219d575038c02ef3896e"),  # cifar10 blob
])
def test_keystream_digest_pinned(n, sha256):
    assert hashlib.sha256(expand_keystream(FIPS_KEY, n)).hexdigest() == sha256


@pytest.mark.parametrize("n", [0, 1, 175, 176, 177, 351, 352, 353])
def test_keystream_at_block_boundaries(n):
    assert expand_keystream(FIPS_KEY, n) == reference_keystream(FIPS_KEY, n)


# ---------------------------------------------------------------------------
# Schedule selection
# ---------------------------------------------------------------------------

def _stub(word_format, status=0):
    """An ``AES_set_encrypt_key`` stand-in that writes the reference schedule
    of the key at ``user_key`` with its 44 words packed as ``word_format``."""
    def set_encrypt_key(user_key, bits, out):
        assert bits == 128
        words = struct.unpack(">44I", reference_keystream(ctypes.string_at(user_key, 16), 176))
        ctypes.memmove(out, struct.pack(word_format, *words), 176)
        return status
    return set_encrypt_key


def test_native_schedule_selected_when_libcrypto_passes_the_check():
    exported = cipher._libcrypto_set_encrypt_key()
    if exported is None or cipher._checked(exported) is None:
        pytest.skip("this libcrypto has no FIPS-order AES_set_encrypt_key")
    assert cipher._SET_ENCRYPT_KEY is not None
    address = ctypes.cast(cipher._SET_ENCRYPT_KEY, ctypes.c_void_p).value
    assert address == ctypes.cast(exported, ctypes.c_void_p).value


def test_check_accepts_fips_order_round_keys():
    fips_order = _stub(">44I")
    assert cipher._checked(fips_order) is fips_order
    assert cipher._expand_native(fips_order, FIPS_KEY, 1000) == reference_keystream(FIPS_KEY, 1000)


@pytest.mark.parametrize("stub", [_stub("<44I"), _stub(">44I", status=-1), None],
                         ids=["byte-swapped-words", "error-status", "not-exported"])
def test_check_selects_python_otherwise(stub):
    # a portable-C libcrypto on a little-endian host stores host-order words
    assert cipher._checked(stub) is None


def test_native_error_status_raises():
    with pytest.raises(RuntimeError):
        cipher._expand_native(_stub(">44I", status=-2), FIPS_KEY, 1)


@pytest.mark.parametrize("not_bytes", [16, "0123456789abcdef", 16.0])
def test_only_bytes_like_keys_and_buffers_accepted(not_bytes):
    # bytes(16) is sixteen zero bytes: an int must not become the zero key
    with pytest.raises(KeyFormatError):
        check_key(not_bytes)
    with pytest.raises(KeyFormatError):
        expand_keystream(not_bytes, 16)
    for call in (lambda: lock_bytes(not_bytes, bytes(16)), lambda: lock_bytes(b"", not_bytes),
                 lambda: unlock_bytes(not_bytes, bytes(16)), lambda: unlock_bytes(b"", not_bytes)):
        with pytest.raises(BufferTypeError):
            call()


# ---------------------------------------------------------------------------
# lock_bytes / unlock_bytes
# ---------------------------------------------------------------------------

def test_lock_bytes_spot_values():
    assert lock_bytes(b"\x00", b"\x00") == b"\x63"
    assert lock_bytes(b"\x53", b"\x53") == b"\x63"  # 0x53 ^ 0x53 = 0, then S-Box
    assert unlock_bytes(b"\x63", b"\x00") == b"\x00"
    assert unlock_bytes(b"\x63", b"\x53") == b"\x53"


def test_sbox_step_exhaustive():
    # every (byte, key byte) pair in one call each way
    b = np.repeat(np.arange(256, dtype=np.uint8), 256)
    k = np.tile(np.arange(256, dtype=np.uint8), 256)
    sbox = np.frombuffer(SBOX, dtype=np.uint8)
    inv_sbox = np.frombuffer(INV_SBOX, dtype=np.uint8)
    locked = lock_bytes(b.tobytes(), k.tobytes())
    assert locked == sbox[b ^ k].tobytes()
    assert unlock_bytes(b.tobytes(), k.tobytes()) == (inv_sbox[b] ^ k).tobytes()
    assert unlock_bytes(locked, k.tobytes()) == b.tobytes()


@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
def test_buffer_types_accepted(wrap):
    data, ks = b"\x00\x53\xff", b"\x00\x53\x01\x02"
    locked = lock_bytes(wrap(data), wrap(ks))
    assert type(locked) is bytes and locked == lock_bytes(data, ks)
    unlocked = unlock_bytes(wrap(locked), wrap(ks))
    assert type(unlocked) is bytes and unlocked == data


def test_empty_payload():
    assert lock_bytes(b"", b"") == b""
    assert unlock_bytes(b"", b"") == b""


def test_keystream_too_short():
    with pytest.raises(KeystreamTooShortError):
        lock_bytes(b"ab", b"a")
    with pytest.raises(KeystreamTooShortError):
        unlock_bytes(b"ab", b"a")


@given(st.binary(max_size=512), keys)
@settings(max_examples=200, deadline=None)
def test_round_trip(payload, key):
    ks = expand_keystream(key, len(payload))
    assert unlock_bytes(lock_bytes(payload, ks), ks) == payload


def test_round_trip_bulk_random():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        payload = rng.bytes(int(rng.integers(0, 600)))
        ks = rng.bytes(len(payload))
        assert unlock_bytes(lock_bytes(payload, ks), ks) == payload


def test_wrong_keystream_differs_at_covered_positions():
    rng = np.random.default_rng(99)
    for _ in range(50):
        payload = rng.bytes(64)
        ks1 = rng.bytes(64)
        ks2 = rng.bytes(64)
        got = unlock_bytes(lock_bytes(payload, ks1), ks2)
        differs = np.frombuffer(ks1, np.uint8) != np.frombuffer(ks2, np.uint8)
        mismatch = np.frombuffer(got, np.uint8) != np.frombuffer(payload, np.uint8)
        # S-Box is injective and XOR cancels exactly when key bytes match
        assert (mismatch == differs).all()

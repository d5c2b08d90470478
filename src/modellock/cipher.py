"""Byte-level locking primitives: AES S-Box, keystream expansion, lock/unlock.

The keystream is built from the AES-128 key schedule (FIPS-197). One schedule
expands a 16-byte master key into 176 bytes (11 round keys). Models need far
more key material than that, so expansion is chained: block 0 is the schedule
of the master key, and every following 176-byte block is the schedule of the
previous block's final 16 bytes. The chaining rule is part of the locked-file
format — both sides must derive identical keystreams from the same key.

Two implementations of the schedule give the same bytes; one is chosen at
import and used for every call.

- **libcrypto.** CPython's ``_hashlib`` links OpenSSL's libcrypto, which
  exports the FIPS-197 KeyExpansion as ``AES_set_encrypt_key`` (a deprecated
  API, still exported by OpenSSL 3). The chain is built in place in one
  buffer: the master key, then block j at offset ``16 + 176*j``, whose key is
  the 16 bytes just before it, that is the previous block's final round key.
  Each block is one native call, and the chain takes about an eighth of the
  Python schedule's time. ``AES_KEY`` keeps its round keys as 32-bit words,
  and a build of the portable C code stores them in host byte order, not in
  the FIPS byte order the format needs. So the import runs a known-answer
  check: the native chain must reproduce three chained blocks of the Python
  schedule for the FIPS-197 A.1 key, block 0 being the A.1 expansion. A build
  that fails the check, or that does not export the symbol, falls back to
  Python.
- **Python.** The four words w0..w3 of the current round key are carried as
  ints across rounds and across chained blocks: each round does
  ``w0 ^= SubWord(RotWord(w3)) ^ rcon`` with one lookup per byte into four
  prebuilt tables, then ``w1 ^= w0; w2 ^= w1; w3 ^= w2``. All words are packed
  big-endian once at the end.

Either way the output bytes are exactly the FIPS-197 Section 5.2 KeyExpansion
words w0..w43 of each block.

Locking a byte b with key byte k is ``SBOX[b ^ k]``; unlocking is
``INV_SBOX[b'] ^ k``. The XOR runs in numpy and the substitution is one
``bytes.translate`` over the whole buffer. No block cipher is run: only the
S-Box and the key schedule are used. Keys and buffers must be bytes-like
objects; an int, a str or a float is refused, never converted.
"""

from __future__ import annotations

import ctypes
import struct

import numpy as np

KEY_LEN = 16
SCHEDULE_LEN = 176  # 11 round keys x 16 bytes per AES-128 schedule

# AES S-Box (FIPS-197 Figure 7).
SBOX = bytes((
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B, 0xFE, 0xD7, 0xAB, 0x76,
    0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0, 0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0,
    0xB7, 0xFD, 0x93, 0x26, 0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2, 0xEB, 0x27, 0xB2, 0x75,
    0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0, 0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84,
    0x53, 0xD1, 0x00, 0xED, 0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F, 0x50, 0x3C, 0x9F, 0xA8,
    0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5, 0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2,
    0xCD, 0x0C, 0x13, 0xEC, 0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14, 0xDE, 0x5E, 0x0B, 0xDB,
    0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C, 0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79,
    0xE7, 0xC8, 0x37, 0x6D, 0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F, 0x4B, 0xBD, 0x8B, 0x8A,
    0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E, 0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E,
    0xE1, 0xF8, 0x98, 0x11, 0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F, 0xB0, 0x54, 0xBB, 0x16,
))

INV_SBOX = bytes(SBOX.index(v) for v in range(256))

# Round constants of rounds 1..10, already in the top byte of a word.
_RCON_HI = tuple(r << 24 for r in (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36))

# SubWord(RotWord(w)) maps bytes a|b|c|d to S[b]|S[c]|S[d]|S[a]; each table
# substitutes one source byte and places it at its destination.
_TA = tuple(SBOX)  # a = w >> 24 -> lowest byte
_TB = tuple(s << 24 for s in SBOX)  # b -> top byte
_TC = tuple(s << 16 for s in SBOX)
_TD = tuple(s << 8 for s in SBOX)


class KeystreamTooShortError(ValueError):
    """Keystream shorter than the data it must cover."""


class KeyFormatError(ValueError):
    """Master key is not a bytes-like object of exactly 16 bytes."""


class BufferTypeError(TypeError):
    """A payload or keystream is not a bytes-like object."""


def _as_bytes(obj, error: type[Exception], what: str) -> bytes:
    """``obj`` as bytes if it supports the buffer protocol, else ``error``.

    ``bytes(16)`` is sixteen zero bytes, so an int must never reach ``bytes``.
    """
    try:
        memoryview(obj)
    except TypeError:
        raise error(f"{what} must be a bytes-like object, not {type(obj).__name__}") from None
    return bytes(obj)


def check_key(key: bytes) -> bytes:
    """Validate a master key and return it as immutable bytes."""
    key = _as_bytes(key, KeyFormatError, "master key")
    if len(key) != KEY_LEN:
        raise KeyFormatError(f"master key must be {KEY_LEN} bytes, got {len(key)}")
    return key


def _expand_python(key: bytes, n_bytes: int) -> bytes:
    """The chained schedule in pure Python, word-wise (see the module docstring)."""
    w0, w1, w2, w3 = struct.unpack(">4I", key)
    words = []
    for _ in range(-(-n_bytes // SCHEDULE_LEN)):
        words += (w0, w1, w2, w3)
        for rcon in _RCON_HI:
            w0 ^= (_TB[(w3 >> 16) & 0xFF] ^ _TC[(w3 >> 8) & 0xFF] ^ _TD[w3 & 0xFF]
                   ^ _TA[w3 >> 24] ^ rcon)
            w1 ^= w0
            w2 ^= w1
            w3 ^= w2
            words += (w0, w1, w2, w3)
    return struct.pack(f">{len(words)}I", *words)[:n_bytes]


class _AesKey(ctypes.Structure):
    """OpenSSL's ``AES_KEY``: the most ``AES_set_encrypt_key`` writes."""

    _fields_ = [("rd_key", ctypes.c_uint32 * 60), ("rounds", ctypes.c_int)]


# Bytes a call writes past the 176 of its block. The next block overwrites
# them; after the last block they land in the buffer's spare tail.
_SPARE = ctypes.sizeof(_AesKey) - SCHEDULE_LEN


def _expand_native(set_encrypt_key, key: bytes, n_bytes: int) -> bytes:
    """The chained schedule with one ``set_encrypt_key`` call per block.

    Block j is written at offset ``16 + 176*j`` of one buffer that starts with
    the master key, so each call reads its key, the previous block's final
    round key, from the 16 bytes just before its output.
    """
    n_blocks = -(-n_bytes // SCHEDULE_LEN)
    buf = ctypes.create_string_buffer(KEY_LEN + n_blocks * SCHEDULE_LEN + _SPARE)
    buf[:KEY_LEN] = key
    first = ctypes.addressof(buf) + KEY_LEN
    for out in range(first, first + n_blocks * SCHEDULE_LEN, SCHEDULE_LEN):
        status = set_encrypt_key(out - KEY_LEN, 8 * KEY_LEN, out)
        if status != 0:
            raise RuntimeError(f"AES_set_encrypt_key returned {status}")
    return ctypes.string_at(first, n_bytes)


def _libcrypto_set_encrypt_key():
    """libcrypto's ``AES_set_encrypt_key``, or None if it is not exported.

    It is looked up in the libcrypto that ``_hashlib`` already loaded;
    ``ctypes.util.find_library`` would spawn ``ldconfig``.
    """
    try:
        import _hashlib

        fn = ctypes.CDLL(_hashlib.__file__).AES_set_encrypt_key
    except (ImportError, OSError, AttributeError):
        return None
    fn.argtypes = (ctypes.c_void_p, ctypes.c_int, ctypes.c_void_p)
    fn.restype = ctypes.c_int
    return fn


# FIPS-197 Appendix A.1 cipher key.
_CHECK_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def _checked(set_encrypt_key):
    """``set_encrypt_key`` if its chain passes the known-answer check, else None."""
    if set_encrypt_key is None:
        return None
    n = 3 * SCHEDULE_LEN
    try:
        native = _expand_native(set_encrypt_key, _CHECK_KEY, n)
    except RuntimeError:
        return None
    return set_encrypt_key if native == _expand_python(_CHECK_KEY, n) else None


# Chosen once; None means the Python schedule.
_SET_ENCRYPT_KEY = _checked(_libcrypto_set_encrypt_key())


def expand_keystream(key: bytes, n_bytes: int) -> bytes:
    """Derive ``n_bytes`` of keystream from a 16-byte master key.

    Deterministic and prefix-consistent: the first m bytes of a longer
    stream equal the length-m stream for the same key.
    """
    key = check_key(key)
    if n_bytes < 0:
        raise ValueError("n_bytes must be >= 0")
    if _SET_ENCRYPT_KEY is None:
        return _expand_python(key, n_bytes)
    return _expand_native(_SET_ENCRYPT_KEY, key, n_bytes)


def lock_bytes(plain: bytes, keystream: bytes) -> bytes:
    """Lock a byte string: ``out[i] = SBOX[plain[i] ^ keystream[i]]``."""
    p = np.frombuffer(_as_bytes(plain, BufferTypeError, "plain"), dtype=np.uint8)
    ks = np.frombuffer(_as_bytes(keystream, BufferTypeError, "keystream"), dtype=np.uint8)
    if ks.size < p.size:
        raise KeystreamTooShortError(
            f"keystream has {ks.size} bytes, need {p.size}"
        )
    return (p ^ ks[: p.size]).tobytes().translate(SBOX)


def unlock_bytes(locked: bytes, keystream: bytes) -> bytes:
    """Invert :func:`lock_bytes`: ``out[i] = INV_SBOX[locked[i]] ^ keystream[i]``."""
    c = _as_bytes(locked, BufferTypeError, "locked")
    ks = np.frombuffer(_as_bytes(keystream, BufferTypeError, "keystream"), dtype=np.uint8)
    if ks.size < len(c):
        raise KeystreamTooShortError(
            f"keystream has {ks.size} bytes, need {len(c)}"
        )
    return (np.frombuffer(c.translate(INV_SBOX), dtype=np.uint8) ^ ks[: len(c)]).tobytes()

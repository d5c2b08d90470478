"""Byte-level locking primitives: AES S-Box, keystream expansion, lock/unlock.

The keystream is built from the AES-128 key schedule (FIPS-197). One schedule
expands a 16-byte master key into 176 bytes (11 round keys). Models need far
more key material than that, so expansion is chained: block 0 is the schedule
of the master key, and every following 176-byte block is the schedule of the
previous block's final 16 bytes. The chaining rule is part of the locked-file
format — both sides must derive identical keystreams from the same key.

The schedule is computed word-wise. The four words w0..w3 of the current
round key are carried as Python ints across rounds and across chained blocks:
each round does ``w0 ^= SubWord(RotWord(w3)) ^ rcon`` with one lookup per byte
into four prebuilt tables, then ``w1 ^= w0; w2 ^= w1; w3 ^= w2``. The final
round key of a block is the seed of the next, so no bytes round trip is
needed; all words are packed big-endian once at the end. The output bytes are
exactly the FIPS-197 Section 5.2 KeyExpansion words w0..w43 of each block.

Locking a byte b with key byte k is ``SBOX[b ^ k]``; unlocking is
``INV_SBOX[b'] ^ k``. The XOR runs in numpy and the substitution is one
``bytes.translate`` over the whole buffer. No block cipher is run: only the
S-Box and the key schedule are used.
"""

from __future__ import annotations

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
    """Master key is not exactly 16 bytes."""


def check_key(key: bytes) -> bytes:
    """Validate a master key and return it as immutable bytes."""
    key = bytes(key)
    if len(key) != KEY_LEN:
        raise KeyFormatError(f"master key must be {KEY_LEN} bytes, got {len(key)}")
    return key


def expand_keystream(key: bytes, n_bytes: int) -> bytes:
    """Derive ``n_bytes`` of keystream from a 16-byte master key.

    Deterministic and prefix-consistent: the first m bytes of a longer
    stream equal the length-m stream for the same key.
    """
    key = check_key(key)
    if n_bytes < 0:
        raise ValueError("n_bytes must be >= 0")
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


def lock_bytes(plain: bytes, keystream: bytes) -> bytes:
    """Lock a byte string: ``out[i] = SBOX[plain[i] ^ keystream[i]]``."""
    p = np.frombuffer(bytes(plain), dtype=np.uint8)
    ks = np.frombuffer(bytes(keystream), dtype=np.uint8)
    if ks.size < p.size:
        raise KeystreamTooShortError(
            f"keystream has {ks.size} bytes, need {p.size}"
        )
    return (p ^ ks[: p.size]).tobytes().translate(SBOX)


def unlock_bytes(locked: bytes, keystream: bytes) -> bytes:
    """Invert :func:`lock_bytes`: ``out[i] = INV_SBOX[locked[i]] ^ keystream[i]``."""
    c = bytes(locked)
    ks = np.frombuffer(bytes(keystream), dtype=np.uint8)
    if ks.size < len(c):
        raise KeystreamTooShortError(
            f"keystream has {ks.size} bytes, need {len(c)}"
        )
    return (np.frombuffer(c.translate(INV_SBOX), dtype=np.uint8) ^ ks[: len(c)]).tobytes()

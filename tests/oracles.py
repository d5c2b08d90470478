"""Independent reference implementations used only to check the product code.

Everything here is deliberately written the slow, obvious way (nested loops,
textbook algebra) and kept free of the package's own layer/cipher code paths.
"""

import functools
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


# ---------------------------------------------------------------------------
# Naive layer references
# ---------------------------------------------------------------------------

def naive_conv2d(x, w, b, stride, padding):
    """Direct convolution sum, one output element at a time."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    if padding == "same":
        oh = -(-h // stride)
        ow = -(-wd // stride)
        pad_h = max((oh - 1) * stride + kh - h, 0)
        pad_w = max((ow - 1) * stride + kw - wd, 0)
        pt, pl = pad_h // 2, pad_w // 2
    else:
        pt = pl = 0
        oh = (h - kh) // stride + 1
        ow = (wd - kw) // stride + 1
    out = np.zeros((n, o, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for oi in range(o):
            for yi in range(oh):
                for xi in range(ow):
                    acc = b[oi]
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                ii = yi * stride + ki - pt
                                jj = xi * stride + kj - pl
                                if 0 <= ii < h and 0 <= jj < wd:
                                    acc = acc + w[oi, ci, ki, kj] * x[ni, ci, ii, jj]
                    out[ni, oi, yi, xi] = acc
    return out


def naive_maxpool2d(x, pool_h, pool_w, stride):
    n, c, h, w = x.shape
    oh = (h - pool_h) // stride + 1
    ow = (w - pool_w) // stride + 1
    out = np.empty((n, c, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for yi in range(oh):
                for xi in range(ow):
                    window = x[ni, ci,
                               yi * stride : yi * stride + pool_h,
                               xi * stride : xi * stride + pool_w]
                    out[ni, ci, yi, xi] = window.max()
    return out


# ---------------------------------------------------------------------------
# Window-view references: the engine's earlier maxpool and im2col, kept to pin
# the offset-loop rewrite bit for bit (argmax semantics: first max wins, the
# first NaN wins, and -0.0 ties 0.0)
# ---------------------------------------------------------------------------

def reference_maxpool_forward(x, pool_h, pool_w, stride):
    """Pooled output and the flat in-window argmax of every output."""
    n, c = x.shape[:2]
    win = sliding_window_view(x, (pool_h, pool_w), axis=(2, 3))[:, :, ::stride, ::stride]
    oh, ow = win.shape[2], win.shape[3]
    flat = np.ascontiguousarray(win).reshape(n, c, oh, ow, pool_h * pool_w)
    idx = np.argmax(flat, axis=-1)
    return np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0], idx


def reference_maxpool_backward(dy, idx, x_shape, pool_w, stride):
    """Scatter-add each output's gradient to its argmax input with np.add.at."""
    n, c, oh, ow = idx.shape
    dx = np.zeros(x_shape, dtype=dy.dtype)
    rows = (np.arange(oh) * stride)[None, None, :, None] + (idx // pool_w)
    cols = (np.arange(ow) * stride)[None, None, None, :] + (idx % pool_w)
    ni = np.arange(n)[:, None, None, None]
    ci = np.arange(c)[None, :, None, None]
    np.add.at(dx, (ni, ci, rows, cols), dy)
    return dx


def reference_im2col(xp, kernel_h, kernel_w, stride):
    """(n*oh*ow, c*kh*kw) column matrix of an already padded input."""
    n, c = xp.shape[:2]
    win = sliding_window_view(xp, (kernel_h, kernel_w), axis=(2, 3))[:, :, ::stride, ::stride]
    oh, ow = win.shape[2], win.shape[3]
    return np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(
        n * oh * ow, c * kernel_h * kernel_w)


def reference_col2im(dcols, xp_shape, kernel_h, kernel_w, stride, oh, ow):
    """Sum column-matrix gradients back onto the padded input, offset by offset."""
    n, c = xp_shape[:2]
    dwin = dcols.reshape(n, oh, ow, c, kernel_h, kernel_w).transpose(0, 3, 1, 2, 4, 5)
    dxp = np.zeros(xp_shape, dtype=dcols.dtype)
    for i in range(kernel_h):
        for j in range(kernel_w):
            dxp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += \
                dwin[:, :, :, :, i, j]
    return dxp


def naive_dense(x, w, b):
    n, d = x.shape
    out = np.zeros((n, w.shape[1]), dtype=x.dtype)
    for ni in range(n):
        for oi in range(w.shape[1]):
            acc = b[oi]
            for di in range(d):
                acc = acc + x[ni, di] * w[di, oi]
            out[ni, oi] = acc
    return out


def naive_relu(x):
    return np.where(x > 0, x, 0)


# ---------------------------------------------------------------------------
# Finite-difference gradients
# ---------------------------------------------------------------------------

def finite_difference_gradients(loss_fn, model, h=1e-3):
    """Central differences of loss_fn(model) w.r.t. every parameter scalar."""
    grads = []
    for tensor in model.params:
        flat = tensor.values.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn(model)
            flat[i] = orig - h
            down = loss_fn(model)
            flat[i] = orig
            g[i] = (up - down) / (2.0 * h)
        grads.append(g.reshape(tensor.values.shape))
    return grads


def max_relative_error(analytic, numeric, floor=1e-6):
    """Worst-case |a - n| / max(|a|, |n|) over all parameter scalars.

    Entries where both magnitudes are below ``floor`` are treated as zero
    gradients and skipped (finite differences carry no signal there)."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        a = np.asarray(a).reshape(-1)
        n = np.asarray(n).reshape(-1)
        scale = np.maximum(np.abs(a), np.abs(n))
        keep = scale > floor
        if keep.any():
            rel = np.abs(a[keep] - n[keep]) / scale[keep]
            worst = max(worst, float(rel.max()))
    return worst


# ---------------------------------------------------------------------------
# GF(2^8) algebra: derive the AES S-Box from first principles
# ---------------------------------------------------------------------------

def _gf_mul(a, b):
    p = 0
    for _ in range(8):
        if b & 1:
            p ^= a
        carry = a & 0x80
        a = (a << 1) & 0xFF
        if carry:
            a ^= 0x1B  # x^8 + x^4 + x^3 + x + 1
        b >>= 1
    return p


def _gf_inverse(a):
    if a == 0:
        return 0
    for candidate in range(1, 256):
        if _gf_mul(a, candidate) == 1:
            return candidate
    raise AssertionError("unreachable: GF(2^8) is a field")


@functools.cache
def derive_aes_sbox():
    """Multiplicative inverse in GF(2^8) followed by the affine transform."""
    table = []
    for value in range(256):
        inv = _gf_inverse(value)
        result = 0
        for bit in range(8):
            b = (
                (inv >> bit)
                ^ (inv >> ((bit + 4) % 8))
                ^ (inv >> ((bit + 5) % 8))
                ^ (inv >> ((bit + 6) % 8))
                ^ (inv >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            result |= b << bit
        table.append(result)
    return bytes(table)


# ---------------------------------------------------------------------------
# Reference AES-128 block encryption (validates an expanded key end to end)
# ---------------------------------------------------------------------------

def aes128_encrypt_block(plaintext, expanded_key, sbox):
    """Textbook AES-128 using the caller's S-Box and 176-byte round keys.

    A single known-answer encryption exercises every round-key byte, so a
    correct FIPS-197 ciphertext certifies the whole key expansion.
    """
    assert len(plaintext) == 16 and len(expanded_key) == 176
    round_keys = [expanded_key[i * 16 : (i + 1) * 16] for i in range(11)]
    state = [plaintext[i] ^ round_keys[0][i] for i in range(16)]
    for rnd in range(1, 11):
        state = [sbox[v] for v in state]
        # ShiftRows over the column-major state layout (index = 4*col + row)
        state = [state[(i + 4 * (i % 4)) % 16] for i in range(16)]
        if rnd < 10:
            mixed = []
            for col in range(4):
                a = state[4 * col : 4 * col + 4]
                mixed += [
                    _gf_mul(a[0], 2) ^ _gf_mul(a[1], 3) ^ a[2] ^ a[3],
                    a[0] ^ _gf_mul(a[1], 2) ^ _gf_mul(a[2], 3) ^ a[3],
                    a[0] ^ a[1] ^ _gf_mul(a[2], 2) ^ _gf_mul(a[3], 3),
                    _gf_mul(a[0], 3) ^ a[1] ^ a[2] ^ _gf_mul(a[3], 2),
                ]
            state = mixed
        state = [state[i] ^ round_keys[rnd][i] for i in range(16)]
    return bytes(state)


# ---------------------------------------------------------------------------
# Reference chained keystream (FIPS-197 Section 5.2 KeyExpansion, word by word)
# ---------------------------------------------------------------------------

_RCON = (0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _key_expansion(key, sbox):
    """One AES-128 key schedule: 16 key bytes -> 176 round-key bytes."""
    words = list(struct.unpack(">4I", key))
    for i in range(4, 44):
        t = words[i - 1]
        if i % 4 == 0:
            t = ((t << 8) | (t >> 24)) & 0xFFFFFFFF  # RotWord
            t = (  # SubWord
                (sbox[(t >> 24) & 0xFF] << 24)
                | (sbox[(t >> 16) & 0xFF] << 16)
                | (sbox[(t >> 8) & 0xFF] << 8)
                | sbox[t & 0xFF]
            )
            t ^= _RCON[i // 4] << 24
        words.append(words[i - 4] ^ t)
    return struct.pack(">44I", *words)


def reference_keystream(key, n):
    """``n`` keystream bytes: block 0 is the schedule of ``key``, each later
    block the schedule of the previous block's final 16 bytes."""
    sbox = derive_aes_sbox()
    chunks = []
    seed = key
    while 176 * len(chunks) < n:
        block = _key_expansion(seed, sbox)
        chunks.append(block)
        seed = block[-16:]
    return b"".join(chunks)[:n]

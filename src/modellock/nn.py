"""Minimal deterministic CNN/MLP engine.

Supports exactly the layer family needed for the locking experiments:
Conv2D, MaxPool2D, Flatten, Dense, with ReLU or linear activations.
Everything is plain numpy, single-threaded semantics, and bit-reproducible
for a fixed (architecture, seed, data, config) tuple under a fixed BLAS
thread count: OpenBLAS splits some GEMM sums by thread, so another count can
change the last bits.

Architectures are described by a small text grammar, one layer per line:

    input 1x28x28
    conv 13 3x3 stride 1 pad valid relu
    maxpool 2x2 stride 2
    flatten
    dense 182 relu
    dense 10 linear

The ``input CxHxW`` header fixes the input shape; the last layer's output
width is the class count. Integers are ASCII decimal. Blank lines and ``#``
comments are ignored.
Parameters are stored float32 in the product workflow; the layer math is
dtype-generic so verification code can run the identical path in float64.
A ``Model`` holds them as one 1-D buffer (``flat``) in the canonical order
``locker`` encrypts; ``model.params`` are per-tensor views into that buffer.

Each layer type is one frozen dataclass under "Layer types" below. It owns
its grammar (``keyword``, ``usage``, ``parse``, ``text``), its shape rule
(``out_shape``), its parameter shapes (``param_shapes``, weight then bias)
and its linear or window math (``forward``, and ``backward`` returning its
gradients). Its ``activation`` only names the rule: the layer loop owns ReLU,
applying it to each ``relu`` layer's output in ``_run_layers`` and deriving
the backward mask from that output (``y > 0``) in ``loss_and_gradients``.
Everything else in this module loops over layers without knowing their
types, so adding a layer type means adding one class to ``LayerSpec``.
Conv2D and MaxPool2D share their window math through ``_window_offsets``, one
strided view per window offset: col2im sums those views and pooling folds
them. im2col is one ``np.take`` per batch through a memoized index into each
image's channel-last memory (``_im2col_index``). Results equal the
argmax/``np.add.at`` and window-view formulations bit for bit, NaN payloads
and signed zeros included.

Memory order: activations keep logical (N, C, H, W) shapes, but the conv
stack holds them in the channel-last (N, H, W, C) memory order that the
im2col GEMM writes. Conv pads and gathers in that order too: ``same``
padding pads the channel-last view, and a ``valid`` conv gathers a conv or
pool output in place, copying any other input once. ReLU keeps its input's
order, and pooling works on the channel-last view, so its output and its
input gradient are channel-last whatever it is given. The ReLU mask product
then multiplies operands of one layout, and conv backward reads its ``dy``
channel-last without a copy.
col2im's accumulator is the one channel-first buffer: a channel-last one
changed which NaN payload wins in overlapping sums. The first layer's
backward skips its input gradient (``need_dx``), which nothing consumes.

Each conv activation is one array: the GEMM writes it, and the bias and ReLU
update it in place (a conv or dense output is fresh, and no cache holds it).
A NaN-free bias is added once per image, tiled over its oh*ow rows; a bias
holding a NaN keeps the broadcast add, because where both operands are NaN
the two adds can keep different payloads. Pooling folds its window offsets
with ``np.maximum`` when its input holds no -0.0 bit pattern: that returns the
first NaN and otherwise the larger operand's bits, and without -0.0 only
equal bits tie. An input holding a -0.0 keeps the exact bit blend, because
``np.maximum`` may return either zero of a -0.0/0.0 tie. Both choices are
made from each call's own arguments.

Non-finite weights are deliberately never masked: a model unlocked with a
wrong key carries NaN/Inf parameters, and their propagation through the
forward pass is the behavior under test. Floating-point warnings are
suppressed locally for that reason.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional, Union, get_args

import numpy as np

_ERRSTATE = {"over": "ignore", "invalid": "ignore", "divide": "ignore", "under": "ignore"}


# Containers store every tensor dimension as a u32.
MAX_DIM = 0xFFFFFFFF

_PADDINGS = ("same", "valid")
_ACTIVATIONS = ("relu", "linear")


class ArchitectureError(ValueError):
    """Architecture text or layer stack is inconsistent."""


class ModelSpecError(ValueError):
    """Model parameters do not match the architecture's tensor specs."""


# ---------------------------------------------------------------------------
# Grammar and math helpers shared by the layer types
# ---------------------------------------------------------------------------

def _parse_ints(token: str, n: int, lineno: int) -> tuple[int, ...]:
    """``n`` ASCII-decimal integers joined by 'x' (``isdigit`` alone admits '²')."""
    parts = token.split("x")
    if len(parts) != n or not all(p.isascii() and p.isdigit() for p in parts):
        expected = "integer" if n == 1 else "x".join(["<int>"] * n)
        raise ArchitectureError(f"line {lineno}, token {token!r}: expected {expected}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:  # more digits than the interpreter converts
        raise ArchitectureError(f"line {lineno}: integer too long") from None


def _parse_int(token: str, lineno: int) -> int:
    return _parse_ints(token, 1, lineno)[0]


def _parse_choice(token: str, choices: tuple[str, ...], lineno: int) -> str:
    if token not in choices:
        raise ArchitectureError(
            f"line {lineno}, token {token!r}: expected {' or '.join(map(repr, choices))}"
        )
    return token


def _expect(tokens: list[str], pos: int, word: str, lineno: int) -> None:
    if tokens[pos] != word:
        raise ArchitectureError(f"line {lineno}, token {tokens[pos]!r}: expected {word!r}")


def _same_padding(size: int, kernel: int, stride: int) -> tuple[int, int]:
    out = -(-size // stride)  # ceil
    total = max((out - 1) * stride + kernel - size, 0)
    return total // 2, total - total // 2


def _window_offsets(kh: int, kw: int, stride: int, oh: int, ow: int) -> list[tuple]:
    """One (rows, columns) slice pair per offset of a strided ``kh x kw`` window,
    in row-major order.

    Slicing the H and W axes with the k-th pair gives the view of every
    window's element at offset k, (N, C, oh, ow) from an (N, C, H, W) array
    and (N, oh, ow, C) from an (N, H, W, C) one. Pooling folds these views and
    col2im adds into them, so no layer builds a 6-D window view.
    """
    last_h, last_w = stride * (oh - 1) + 1, stride * (ow - 1) + 1
    return [(slice(i, i + last_h, stride), slice(j, j + last_w, stride))
            for i in range(kh) for j in range(kw)]


@functools.lru_cache(maxsize=64)
def _im2col_index(c: int, h: int, w: int, kh: int, kw: int, stride: int) -> np.ndarray:
    """Read-only (oh*ow, c*kh*kw) positions in one image's channel-last memory of
    its column matrix.

    Row ``i*ow + j`` lists window (i, j)'s elements channel by channel, each
    channel's ``kh x kw`` patch in row-major order. Memoized: building one for an
    mnist conv layer takes about a third of a whole batch-1 forward.
    """
    oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
    r = (np.arange(oh) * stride)[:, None, None, None, None] + np.arange(kh)[:, None]
    q = (np.arange(ow) * stride)[None, :, None, None, None] + np.arange(kw)
    index = ((r * w + q) * c + np.arange(c)[:, None, None]).reshape(oh * ow, c * kh * kw)
    index.flags.writeable = False
    return index


# ---------------------------------------------------------------------------
# Layer types (dtype-generic math; forward returns the cache backward takes)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Conv2D:
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: str = "valid"  # "same" or "valid"
    activation: str = "relu"  # "relu" or "linear"

    keyword = "conv"
    usage = "conv <out> <kh>x<kw> stride <s> pad <same|valid> <activation>"

    @classmethod
    def parse(cls, tokens: list[str], lineno: int) -> "Conv2D":
        out = _parse_int(tokens[1], lineno)
        kh, kw = _parse_ints(tokens[2], 2, lineno)
        _expect(tokens, 3, "stride", lineno)
        stride = _parse_int(tokens[4], lineno)
        _expect(tokens, 5, "pad", lineno)
        pad = _parse_choice(tokens[6], _PADDINGS, lineno)
        return cls(out, kh, kw, stride, pad, _parse_choice(tokens[7], _ACTIVATIONS, lineno))

    def text(self) -> str:
        return (f"conv {self.out_channels} {self.kernel_h}x{self.kernel_w} "
                f"stride {self.stride} pad {self.padding} {self.activation}")

    def _pads(self, h: int, w: int) -> tuple[tuple[int, int], tuple[int, int]]:
        if self.padding == "same":
            return (_same_padding(h, self.kernel_h, self.stride),
                    _same_padding(w, self.kernel_w, self.stride))
        return (0, 0), (0, 0)

    def out_shape(self, shape: tuple[int, ...], where: str) -> tuple[int, ...]:
        if len(shape) != 3:
            raise ArchitectureError(f"{where}: needs CxHxW input, got {shape}")
        _, h, w = shape
        if self.padding not in _PADDINGS:
            raise ArchitectureError(f"{where}: bad padding {self.padding!r}")
        if self.activation not in _ACTIVATIONS:
            raise ArchitectureError(f"{where}: bad activation {self.activation!r}")
        if min(self.out_channels, self.kernel_h, self.kernel_w, self.stride) < 1:
            raise ArchitectureError(f"{where}: sizes must be positive")
        ph, pw = self._pads(h, w)
        oh = (h + sum(ph) - self.kernel_h) // self.stride + 1
        ow = (w + sum(pw) - self.kernel_w) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ArchitectureError(f"{where}: kernel larger than input {h}x{w}")
        return (self.out_channels, oh, ow)

    def param_shapes(self, in_shape: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        return ((self.out_channels, in_shape[0], self.kernel_h, self.kernel_w),
                (self.out_channels,))

    def forward(self, x, params):
        w, b = params
        n, c, h, wd = x.shape
        kh, kw, s = self.kernel_h, self.kernel_w, self.stride
        ph, pw = self._pads(h, wd)
        # Pad the channel-last view, so np.pad writes C-ordered (N, H, W, C)
        # memory. A conv or pool output is held that way already, so unpadded
        # it is gathered in place; any other input is copied once.
        xt = x.transpose(0, 2, 3, 1)
        if ph != (0, 0) or pw != (0, 0):
            xt = np.pad(xt, ((0, 0), ph, pw, (0, 0)))
        _, hp, wp, _ = xt.shape
        oh, ow = (hp - kh) // s + 1, (wp - kw) // s + 1
        # im2col (Chellapilla et al. 2006): one gather from each image's memory
        # into the C-contiguous (n*oh*ow, c*kh*kw) column matrix. The index is
        # in range by construction; mode "wrap" skips the range check, which
        # cost a third of the gather at batch 256.
        rows = np.ascontiguousarray(xt).reshape(n, hp * wp * c)
        index = _im2col_index(c, hp, wp, kh, kw, s)
        cols = np.take(rows, index, axis=1, mode="wrap").reshape(n * oh * ow, c * kh * kw)
        o = w.shape[0]
        out = cols @ w.reshape(o, c * kh * kw).T
        # The bias goes into the GEMM output in place. Broadcast over n*oh*ow
        # rows, numpy runs one short inner loop per row, so a NaN-free bias is
        # added once per image, tiled; where both operands are NaN the two
        # adds can keep different payloads.
        if np.isnan(b).any():
            out += b
        else:
            per_image = out.reshape(n, oh * ow * o)
            per_image += np.tile(b, oh * ow)
        return (out.reshape(n, oh, ow, o).transpose(0, 3, 1, 2),
                (cols, (n, c, hp, wp), x.shape, ph, pw, (n, oh, ow)))

    def backward(self, dy, params, cache, need_dx):
        w, _ = params
        cols, xp_shape, x_shape, ph, pw, (n, oh, ow) = cache
        kh, kw, s = self.kernel_h, self.kernel_w, self.stride
        o = w.shape[0]
        dout = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(n * oh * ow, o)
        dw = (dout.T @ cols).reshape(w.shape)
        db = dout.sum(axis=0)
        if not need_dx:
            return None, (dw, db)
        dcols = dout @ w.reshape(o, -1)
        dwin = dcols.reshape(n, oh, ow, xp_shape[1], kh * kw)
        dxp = np.zeros(xp_shape, dtype=dy.dtype)
        for k, (hs, ws) in enumerate(_window_offsets(kh, kw, s, oh, ow)):
            dxp[..., hs, ws] += dwin[..., k].transpose(0, 3, 1, 2)
        dx = dxp[:, :, ph[0] : ph[0] + x_shape[2], pw[0] : pw[0] + x_shape[3]]
        return dx, (dw, db)


@dataclass(frozen=True)
class MaxPool2D:
    pool_h: int
    pool_w: int
    stride: int

    keyword = "maxpool"
    activation = "linear"
    usage = "maxpool <ph>x<pw> stride <s>"

    @classmethod
    def parse(cls, tokens: list[str], lineno: int) -> "MaxPool2D":
        ph, pw = _parse_ints(tokens[1], 2, lineno)
        _expect(tokens, 2, "stride", lineno)
        return cls(ph, pw, _parse_int(tokens[3], lineno))

    def text(self) -> str:
        return f"maxpool {self.pool_h}x{self.pool_w} stride {self.stride}"

    def out_shape(self, shape: tuple[int, ...], where: str) -> tuple[int, ...]:
        if len(shape) != 3:
            raise ArchitectureError(f"{where}: needs CxHxW input, got {shape}")
        c, h, w = shape
        if min(self.pool_h, self.pool_w, self.stride) < 1:
            raise ArchitectureError(f"{where}: sizes must be positive")
        if self.pool_h > h or self.pool_w > w:
            raise ArchitectureError(f"{where}: pool larger than input {h}x{w}")
        return (c, (h - self.pool_h) // self.stride + 1, (w - self.pool_w) // self.stride + 1)

    def param_shapes(self, in_shape: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        return ()

    def forward(self, x, params):
        _, _, h, w = x.shape
        ph, pw, s = self.pool_h, self.pool_w, self.stride
        oh, ow = (h - ph) // s + 1, (w - pw) // s + 1
        # Pool the channel-last view, the conv stack's memory order: y and the
        # masks are then C-contiguous, which numpy's ufuncs loop over fastest.
        xt = x.transpose(0, 2, 3, 1)
        first, *rest = [xt[:, hs, ws] for hs, ws in _window_offsets(ph, pw, s, oh, ow)]
        # Fold the offsets in window order with argmax's rule: a later offset
        # wins only if it is greater, or NaN where y is not. Ties, -0.0 with
        # 0.0 included, and later NaNs keep the earlier value.
        y = first.copy()
        ybits = y.view(f"u{y.itemsize}")
        neg_zero = ybits.dtype.type(1 << (8 * y.itemsize - 1))
        if (xt.view(ybits.dtype) == neg_zero).any():
            # np.maximum may return either zero of a -0.0/0.0 tie, so blend on
            # the bits, which is exact and has no branches.
            for xo in rest:
                keep = xo <= y
                keep |= np.isnan(y)
                diff = ybits ^ xo.view(ybits.dtype)
                diff &= np.subtract(keep.view(np.uint8), 1, dtype=ybits.dtype)  # ones where not kept
                ybits ^= diff
        else:
            # np.maximum returns the first NaN and otherwise the larger
            # operand's bits; without -0.0, values that tie have equal bits.
            for xo in rest:
                np.maximum(y, xo, out=y)
        return y.transpose(0, 3, 1, 2), (xt, y, (oh, ow))

    def backward(self, dy, params, cache, need_dx):
        if not need_dx:
            return None, ()
        xt, y, (oh, ow) = cache
        dyt = np.ascontiguousarray(dy.transpose(0, 2, 3, 1))  # col2im and flatten pass NCHW
        offsets = _window_offsets(self.pool_h, self.pool_w, self.stride, oh, ow)
        # Each output's gradient goes to the first offset holding y's exact
        # bits, which is the input argmax picked (the first NaN when y is NaN).
        ybits = y.view(f"u{y.itemsize}")
        open_ = np.ones(y.shape, dtype=bool)
        hits = []
        for hs, ws in offsets:
            hit = xt[:, hs, ws].view(ybits.dtype) == ybits
            hit &= open_
            open_ ^= hit
            hits.append(hit)
        # Where windows overlap, an input collects several gradients. Sum them
        # as np.add.at does: in output order (descending offset), a NaN
        # gradient taking over the sum, so rounding and NaN payloads match.
        # ``where`` keeps a NaN dy off the positions it does not route to.
        dy_nan = np.isnan(dyt)
        dx = np.zeros(xt.shape, dtype=dy.dtype)
        for (hs, ws), hit in zip(reversed(offsets), reversed(hits)):
            acc = dx[:, hs, ws]
            acc += np.where(hit, dyt, 0)
            np.copyto(acc, dyt, where=hit & dy_nan)
        return dx.transpose(0, 3, 1, 2), ()


@dataclass(frozen=True)
class Flatten:
    keyword = "flatten"
    activation = "linear"
    usage = "flatten"

    @classmethod
    def parse(cls, tokens: list[str], lineno: int) -> "Flatten":
        return cls()

    def text(self) -> str:
        return "flatten"

    def out_shape(self, shape: tuple[int, ...], where: str) -> tuple[int, ...]:
        return (math.prod(shape),)

    def param_shapes(self, in_shape: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        return ()

    def forward(self, x, params):
        return x.reshape(x.shape[0], math.prod(x.shape[1:])), x.shape

    def backward(self, dy, params, cache, need_dx):
        return dy.reshape(cache), ()


@dataclass(frozen=True)
class Dense:
    out_features: int
    activation: str = "relu"

    keyword = "dense"
    usage = "dense <out> <activation>"

    @classmethod
    def parse(cls, tokens: list[str], lineno: int) -> "Dense":
        out = _parse_int(tokens[1], lineno)
        return cls(out, _parse_choice(tokens[2], _ACTIVATIONS, lineno))

    def text(self) -> str:
        return f"dense {self.out_features} {self.activation}"

    def out_shape(self, shape: tuple[int, ...], where: str) -> tuple[int, ...]:
        if len(shape) != 1:
            raise ArchitectureError(f"{where}: needs flat input, insert flatten")
        if self.out_features < 1:
            raise ArchitectureError(f"{where}: out_features must be positive")
        if self.activation not in _ACTIVATIONS:
            raise ArchitectureError(f"{where}: bad activation {self.activation!r}")
        return (self.out_features,)

    def param_shapes(self, in_shape: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        return ((in_shape[0], self.out_features), (self.out_features,))

    def forward(self, x, params):
        w, b = params
        return x @ w + b, x

    def backward(self, dy, params, x, need_dx):
        w, _ = params
        return (dy @ w.T if need_dx else None), (x.T @ dy, dy.sum(axis=0))


LayerSpec = Union[Conv2D, MaxPool2D, Flatten, Dense]

_LAYER_TYPES = {cls.keyword: cls for cls in get_args(LayerSpec)}


# ---------------------------------------------------------------------------
# Architecture
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Architecture:
    """Validated layer stack with per-layer shapes resolved at construction."""

    input_shape: tuple[int, int, int]  # (channels, height, width)
    layers: tuple[LayerSpec, ...]
    shapes: tuple[tuple[int, ...], ...] = field(init=False, compare=False)
    num_classes: int = field(init=False, compare=False)
    param_count: int = field(init=False, compare=False)
    _specs: tuple[tuple[str, tuple[int, ...]], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.input_shape) != 3 or any(d < 1 for d in self.input_shape):
            raise ArchitectureError(f"bad input shape {self.input_shape}")
        if not self.layers:
            raise ArchitectureError("architecture has no layers")
        shapes = [self.input_shape]
        specs = []
        counts: Counter[str] = Counter()
        total = 0
        for idx, layer in enumerate(self.layers, start=1):
            where = f"layer {idx} ({type(layer).__name__})"
            shape = layer.out_shape(shapes[-1], where)
            param_shapes = layer.param_shapes(shapes[-1])
            # parameter shapes too: a `pad same` kernel is not bounded by the input
            for dims in (shape, *param_shapes):
                if max(dims) > MAX_DIM:
                    raise ArchitectureError(
                        f"{where}: shape {dims} exceeds the u32 dimension limit {MAX_DIM}"
                    )
            counts[layer.keyword] += 1
            specs += [(f"{layer.keyword}{counts[layer.keyword]}.{role}", dims)
                      for role, dims in zip(("weight", "bias"), param_shapes)]
            total += sum(math.prod(dims) for dims in param_shapes)
            shapes.append(shape)
        # build_model draws in float64 before its cast, and verification runs in float64
        if 8 * total > sys.maxsize:
            raise ArchitectureError(
                f"{total} parameters exceed what one float64 buffer can address"
            )
        if len(shapes[-1]) != 1:
            raise ArchitectureError(
                f"final layer must produce a flat logit vector, got shape {shapes[-1]}"
            )
        object.__setattr__(self, "shapes", tuple(shapes))
        object.__setattr__(self, "num_classes", shapes[-1][0])
        object.__setattr__(self, "param_count", total)
        object.__setattr__(self, "_specs", tuple(specs))

    def param_specs(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """Canonical (name, shape) table: layer order, weight before bias.

        Built once with the architecture; every model check, parameter split
        and container header reads this same tuple.
        """
        return self._specs


# ---------------------------------------------------------------------------
# Architecture text grammar
# ---------------------------------------------------------------------------

def parse_architecture(text: str) -> Architecture:
    """Parse the layer-per-line grammar into a validated Architecture."""
    input_shape = None
    layers: list[LayerSpec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "input":
            if input_shape is not None:
                raise ArchitectureError(f"line {lineno}: duplicate input line")
            if layers:
                raise ArchitectureError(f"line {lineno}: input must come first")
            if len(tokens) != 2:
                raise ArchitectureError(f"line {lineno}: expected 'input CxHxW'")
            input_shape = _parse_ints(tokens[1], 3, lineno)
            continue
        layer_type = _LAYER_TYPES.get(kind)
        if layer_type is None:
            raise ArchitectureError(f"line {lineno}, token {kind!r}: unknown layer type")
        if len(tokens) != len(layer_type.usage.split()):
            raise ArchitectureError(f"line {lineno}: expected {layer_type.usage!r}")
        layers.append(layer_type.parse(tokens, lineno))
    if input_shape is None:
        raise ArchitectureError("missing 'input CxHxW' line")
    return Architecture(input_shape, tuple(layers))


def format_architecture(arch: Architecture) -> str:
    """Canonical text form; parse(format(a)) == a."""
    lines = ["input " + "x".join(str(d) for d in arch.input_shape)]
    lines += [layer.text() for layer in arch.layers]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Model container
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Model:
    """Parameters for ``arch``: one 1-D float32 or float64 buffer ``flat`` of
    ``arch.param_count`` scalars in canonical order (layer order, weight before
    bias, row-major elements).

    ``params`` holds one view of ``flat`` per tensor of ``arch.param_specs()``,
    so a write through a view is a write to ``flat``. The model is frozen: its
    buffer is checked once, here, and cannot be swapped afterwards. A buffer
    wrapped around immutable bytes (``locker``'s unlocked and read models) is
    read-only; :meth:`copy` returns a writable one.

    ``transient`` marks parameters reconstructed with a caller-supplied key
    (set only by ``locker.unlock_model``): they are scoped to the query that
    created them, kept by :meth:`copy`, and refused by ``locker.write_model``.
    """

    arch: Architecture
    flat: np.ndarray
    transient: bool = False
    params: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        flat = self.flat
        if not isinstance(flat, np.ndarray):
            raise ModelSpecError(f"parameters must be one numpy array, got {type(flat).__name__}")
        if flat.dtype not in (np.float32, np.float64):
            raise ModelSpecError(f"parameters have dtype {flat.dtype}, expected float32 or float64")
        if flat.shape != (self.arch.param_count,):
            raise ModelSpecError(
                f"parameters have shape {flat.shape}, expected ({self.arch.param_count},)"
            )
        views = []
        offset = 0
        for _, shape in self.arch.param_specs():
            size = math.prod(shape)
            views.append(flat[offset : offset + size].reshape(shape))
            offset += size
        object.__setattr__(self, "params", tuple(views))

    @property
    def param_count(self) -> int:
        return self.arch.param_count

    def copy(self) -> "Model":
        return Model(self.arch, self.flat.copy(), self.transient)


@dataclass
class Prediction:
    logits: np.ndarray
    class_index: int
    nan_flag: bool


def build_model(arch: Architecture, seed: int) -> Model:
    """Seeded He-uniform initialization: weights U(-b, b) with b = sqrt(6 / fan_in)."""
    rng = np.random.default_rng(seed)
    model = Model(arch, np.zeros(arch.param_count, dtype=np.float32))
    for (name, shape), values in zip(arch.param_specs(), model.params):
        if name.endswith(".bias"):
            continue
        fan_in = int(np.prod(shape[1:])) if len(shape) == 4 else int(shape[0])
        bound = np.sqrt(6.0 / fan_in)
        values[...] = rng.uniform(-bound, bound, size=shape)
    return model


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def _run_layers(model: Model, x: np.ndarray, keep_caches: bool):
    """Shared forward pass; the one place ReLU is applied.

    Returns (logits, per-layer (layer, params, cache, output) or None).
    """
    x = np.asarray(x, dtype=model.flat.dtype)
    if x.ndim != 4 or tuple(x.shape[1:]) != model.arch.input_shape:
        raise ModelSpecError(
            f"input shape {tuple(x.shape)} does not match (N, {', '.join(map(str, model.arch.input_shape))})"
        )
    caches = [] if keep_caches else None
    values = iter(model.params)
    with np.errstate(**_ERRSTATE):
        for layer, in_shape in zip(model.arch.layers, model.arch.shapes):
            params = [next(values) for _ in layer.param_shapes(in_shape)]
            x, cache = layer.forward(x, params)
            if layer.activation == "relu":
                # in place: a conv or dense output is a fresh array no cache holds
                np.maximum(x, 0, out=x)
            if keep_caches:
                caches.append((layer, params, cache, x))
    return x, caches


def forward_batch(model: Model, x: np.ndarray) -> np.ndarray:
    """Logits for a batch shaped (N, C, H, W). Non-finite values propagate."""
    logits, _ = _run_layers(model, x, keep_caches=False)
    return logits


def predict_class(logits) -> Prediction:
    """NaN-aware argmax: highest finite logit, ties to the lowest index.

    All-non-finite vectors classify as index 0 with nan_flag set; the flag is
    set whenever any logit is non-finite.
    """
    v = np.asarray(logits)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("logits must be a non-empty 1-D vector")
    classes, flags = predict_classes(v[None])
    return Prediction(v, int(classes[0]), bool(flags[0]))


def predict_classes(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized predict_class over a (N, K) logit matrix -> (classes, nan_flags)."""
    finite = np.isfinite(logits)
    masked = np.where(finite, logits, -np.inf)
    classes = np.argmax(masked, axis=1)
    classes[~finite.any(axis=1)] = 0
    return classes, ~finite.all(axis=1)


def forward(model: Model, x: np.ndarray) -> Prediction:
    """Single-input inference; x is shaped like arch.input_shape."""
    return predict_class(forward_batch(model, np.asarray(x)[None])[0])


# ---------------------------------------------------------------------------
# Loss and training
# ---------------------------------------------------------------------------

def _softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and d(loss)/d(logits) for integer labels."""
    n = logits.shape[0]
    with np.errstate(**_ERRSTATE):
        z = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(z)
        denom = e.sum(axis=1, keepdims=True)
        probs = e / denom
        log_denom = np.log(denom[:, 0])
        loss = float((log_denom - z[np.arange(n), labels]).mean())
        dlogits = probs
        dlogits[np.arange(n), labels] -= 1
        dlogits /= np.asarray(n, dtype=logits.dtype)
    return loss, dlogits


def _check_labels(labels, n: int, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels have shape {labels.shape}, expected ({n},) for the batch")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels have dtype {labels.dtype}, expected integers")
    if n and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes}), got "
                         f"{labels.min()}..{labels.max()}")
    return labels


def loss_and_gradients(model: Model, x: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy and per-tensor gradients (canonical order).

    ``labels`` must be a 1-D integer array of the batch's length with values
    in ``[0, num_classes)``; anything else is a ``ValueError``. Also returns
    the batch logits so training can reuse the forward pass.
    """
    logits, caches = _run_layers(model, x, keep_caches=True)
    if len(logits) == 0:
        raise ValueError("cannot compute a loss on an empty batch")
    loss, grad = _softmax_xent(logits, _check_labels(labels, len(logits), model.arch.num_classes))
    grads: list[np.ndarray] = []
    with np.errstate(**_ERRSTATE):
        for depth, (layer, params, cache, y) in reversed(list(enumerate(caches))):
            if layer.activation == "relu":
                grad = grad * (y > 0)  # ReLU's mask: y > 0 iff z > 0, NaN included
            # nothing consumes the input gradient of the first layer
            grad, layer_grads = layer.backward(grad, params, cache, need_dx=depth > 0)
            grads[:0] = layer_grads
    return loss, grads, logits


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 32
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")


@dataclass
class EpochMetrics:
    epoch: int
    loss: float
    accuracy: float
    nonfinite_batches: int


EpochHook = Callable[[Model, EpochMetrics], None]


def train(
    model: Model,
    data,
    cfg: TrainConfig,
    epoch_hook: Optional[EpochHook] = None,
) -> tuple[Model, list[EpochMetrics]]:
    """Mini-batch SGD on softmax cross-entropy.

    ``data`` is anything with ``.images`` (N, C, H, W) and ``.labels`` (N,)
    attributes. Deterministic for a fixed (model, data, cfg): the shuffle
    order comes from cfg.seed alone and updates are applied in a fixed
    order. Non-finite batch losses are counted in the epoch metrics and
    training continues; that path is exercised deliberately by the
    fine-tuning attack, where the starting weights are wrong-key garbage.

    The input model is left untouched; a trained copy is returned.
    The reported epoch loss averages the finite-loss batches only (NaN when
    there were none); nonfinite_batches carries the poisoning signal.
    """
    images = np.asarray(data.images)
    labels = np.asarray(data.labels)
    if len(images) != len(labels):
        raise ValueError("images and labels must have the same length")
    if len(images) == 0:
        raise ValueError("cannot train on an empty dataset")
    work = model.copy()
    rng = np.random.default_rng(cfg.seed)
    lr = np.asarray(cfg.learning_rate, dtype=work.flat.dtype)
    n = len(images)
    history: list[EpochMetrics] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        finite_loss = 0.0
        finite_count = 0
        correct = 0
        nonfinite = 0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            x, y = images[batch], labels[batch]
            loss, grads, logits = loss_and_gradients(work, x, y)
            if np.isfinite(loss):
                finite_loss += loss * len(batch)
                finite_count += len(batch)
            else:
                nonfinite += 1
            classes, _ = predict_classes(logits)
            correct += int((classes == y).sum())
            with np.errstate(**_ERRSTATE):
                for values, g in zip(work.params, grads):
                    values -= lr * g
        metrics = EpochMetrics(
            epoch=epoch,
            loss=finite_loss / finite_count if finite_count else float("nan"),
            accuracy=correct / n,
            nonfinite_batches=nonfinite,
        )
        history.append(metrics)
        if epoch_hook is not None:
            epoch_hook(work.copy(), metrics)
    return work, history

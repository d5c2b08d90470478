"""Minimal deterministic CNN/MLP engine.

Supports exactly the layer family needed for the locking experiments:
Conv2D, MaxPool2D, Flatten, Dense, with ReLU or linear activations.
Everything is plain numpy, single-threaded semantics, and bit-reproducible
for a fixed (architecture, seed, data, config) tuple.

Architectures are described by a small text grammar, one layer per line:

    input 1x28x28
    conv 13 3x3 stride 1 pad valid relu
    maxpool 2x2 stride 2
    flatten
    dense 182 relu
    dense 10 linear

The ``input CxHxW`` header fixes the input shape; the last layer's output
width is the class count. Blank lines and ``#`` comments are ignored.
Parameters are stored float32 in the product workflow; the layer math is
dtype-generic so verification code can run the identical path in float64.

Non-finite weights are deliberately never masked: a model unlocked with a
wrong key carries NaN/Inf parameters, and their propagation through the
forward pass is the behavior under test. Floating-point warnings are
suppressed locally for that reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_ERRSTATE = {"over": "ignore", "invalid": "ignore", "divide": "ignore", "under": "ignore"}


# Containers store every tensor dimension as a u32.
MAX_DIM = 0xFFFFFFFF


class ArchitectureError(ValueError):
    """Architecture text or layer stack is inconsistent."""


class ModelSpecError(ValueError):
    """Model parameters do not match the architecture's tensor specs."""


# ---------------------------------------------------------------------------
# Layer specs and architecture
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Conv2D:
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: str = "valid"  # "same" or "valid"
    activation: str = "relu"  # "relu" or "linear"


@dataclass(frozen=True)
class MaxPool2D:
    pool_h: int
    pool_w: int
    stride: int


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class Dense:
    out_features: int
    activation: str = "relu"


LayerSpec = Union[Conv2D, MaxPool2D, Flatten, Dense]


def _same_padding(size: int, kernel: int, stride: int) -> tuple[int, int]:
    out = -(-size // stride)  # ceil
    total = max((out - 1) * stride + kernel - size, 0)
    return total // 2, total - total // 2


def _conv_out(size: int, kernel: int, stride: int, pad: tuple[int, int]) -> int:
    return (size + pad[0] + pad[1] - kernel) // stride + 1


@dataclass(frozen=True)
class Architecture:
    """Validated layer stack with per-layer shapes resolved at construction."""

    input_shape: tuple[int, int, int]  # (channels, height, width)
    layers: tuple[LayerSpec, ...]
    shapes: tuple[tuple[int, ...], ...] = field(init=False, compare=False)
    num_classes: int = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.input_shape) != 3 or any(d < 1 for d in self.input_shape):
            raise ArchitectureError(f"bad input shape {self.input_shape}")
        if not self.layers:
            raise ArchitectureError("architecture has no layers")
        shapes = [tuple(self.input_shape)]
        shape = tuple(self.input_shape)
        for idx, layer in enumerate(self.layers, start=1):
            shape = self._propagate(idx, layer, shape)
            if max(shape) > MAX_DIM:
                raise ArchitectureError(
                    f"layer {idx} ({type(layer).__name__}): shape {shape} exceeds "
                    f"the u32 dimension limit {MAX_DIM}"
                )
            shapes.append(shape)
        if len(shape) != 1:
            raise ArchitectureError(
                f"final layer must produce a flat logit vector, got shape {shape}"
            )
        object.__setattr__(self, "shapes", tuple(shapes))
        object.__setattr__(self, "num_classes", shape[0])

    @staticmethod
    def _propagate(idx: int, layer: LayerSpec, shape: tuple[int, ...]) -> tuple[int, ...]:
        where = f"layer {idx} ({type(layer).__name__})"
        if isinstance(layer, Conv2D):
            if len(shape) != 3:
                raise ArchitectureError(f"{where}: needs CxHxW input, got {shape}")
            c, h, w = shape
            if layer.padding not in ("same", "valid"):
                raise ArchitectureError(f"{where}: bad padding {layer.padding!r}")
            if layer.activation not in ("relu", "linear"):
                raise ArchitectureError(f"{where}: bad activation {layer.activation!r}")
            if min(layer.out_channels, layer.kernel_h, layer.kernel_w, layer.stride) < 1:
                raise ArchitectureError(f"{where}: sizes must be positive")
            if layer.padding == "same":
                ph = _same_padding(h, layer.kernel_h, layer.stride)
                pw = _same_padding(w, layer.kernel_w, layer.stride)
            else:
                ph = pw = (0, 0)
            oh = _conv_out(h, layer.kernel_h, layer.stride, ph)
            ow = _conv_out(w, layer.kernel_w, layer.stride, pw)
            if oh < 1 or ow < 1:
                raise ArchitectureError(f"{where}: kernel larger than input {h}x{w}")
            return (layer.out_channels, oh, ow)
        if isinstance(layer, MaxPool2D):
            if len(shape) != 3:
                raise ArchitectureError(f"{where}: needs CxHxW input, got {shape}")
            c, h, w = shape
            if min(layer.pool_h, layer.pool_w, layer.stride) < 1:
                raise ArchitectureError(f"{where}: sizes must be positive")
            if layer.pool_h > h or layer.pool_w > w:
                raise ArchitectureError(f"{where}: pool larger than input {h}x{w}")
            oh = (h - layer.pool_h) // layer.stride + 1
            ow = (w - layer.pool_w) // layer.stride + 1
            return (c, oh, ow)
        if isinstance(layer, Flatten):
            return (math.prod(shape),)
        if isinstance(layer, Dense):
            if len(shape) != 1:
                raise ArchitectureError(f"{where}: needs flat input, insert flatten")
            if layer.out_features < 1:
                raise ArchitectureError(f"{where}: out_features must be positive")
            if layer.activation not in ("relu", "linear"):
                raise ArchitectureError(f"{where}: bad activation {layer.activation!r}")
            return (layer.out_features,)
        raise ArchitectureError(f"{where}: unknown layer type")

    def param_specs(self) -> list[tuple[str, tuple[int, ...]]]:
        """Canonical (name, shape) list: layer order, weight before bias."""
        specs = []
        n_conv = n_dense = 0
        for i, layer in enumerate(self.layers):
            in_shape = self.shapes[i]
            if isinstance(layer, Conv2D):
                n_conv += 1
                specs.append((
                    f"conv{n_conv}.weight",
                    (layer.out_channels, in_shape[0], layer.kernel_h, layer.kernel_w),
                ))
                specs.append((f"conv{n_conv}.bias", (layer.out_channels,)))
            elif isinstance(layer, Dense):
                n_dense += 1
                specs.append((f"dense{n_dense}.weight", (in_shape[0], layer.out_features)))
                specs.append((f"dense{n_dense}.bias", (layer.out_features,)))
        return specs

    @property
    def param_count(self) -> int:
        return sum(math.prod(shape) for _, shape in self.param_specs())


# ---------------------------------------------------------------------------
# Architecture text grammar
# ---------------------------------------------------------------------------

def _parse_dims(token: str, n: int, lineno: int) -> tuple[int, ...]:
    parts = token.split("x")
    if len(parts) != n or not all(p.isdigit() for p in parts):
        raise ArchitectureError(
            f"line {lineno}, token {token!r}: expected {'x'.join(['<int>'] * n)}"
        )
    return tuple(int(p) for p in parts)


def _parse_int(token: str, lineno: int) -> int:
    if not token.isdigit():
        raise ArchitectureError(f"line {lineno}, token {token!r}: expected integer")
    return int(token)


def _expect(tokens: list[str], pos: int, word: str, lineno: int) -> None:
    if pos >= len(tokens) or tokens[pos] != word:
        got = tokens[pos] if pos < len(tokens) else "<end of line>"
        raise ArchitectureError(f"line {lineno}, token {got!r}: expected {word!r}")


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
            input_shape = _parse_dims(tokens[1], 3, lineno)
        elif kind == "conv":
            if len(tokens) != 8:
                raise ArchitectureError(
                    f"line {lineno}: expected 'conv <out> <kh>x<kw> stride <s> pad <same|valid> <activation>'"
                )
            out = _parse_int(tokens[1], lineno)
            kh, kw = _parse_dims(tokens[2], 2, lineno)
            _expect(tokens, 3, "stride", lineno)
            stride = _parse_int(tokens[4], lineno)
            _expect(tokens, 5, "pad", lineno)
            pad = tokens[6]
            if pad not in ("same", "valid"):
                raise ArchitectureError(
                    f"line {lineno}, token {pad!r}: expected 'same' or 'valid'"
                )
            act = tokens[7]
            if act not in ("relu", "linear"):
                raise ArchitectureError(
                    f"line {lineno}, token {act!r}: expected 'relu' or 'linear'"
                )
            layers.append(Conv2D(out, kh, kw, stride, pad, act))
        elif kind == "maxpool":
            if len(tokens) != 4:
                raise ArchitectureError(
                    f"line {lineno}: expected 'maxpool <ph>x<pw> stride <s>'"
                )
            ph, pw = _parse_dims(tokens[1], 2, lineno)
            _expect(tokens, 2, "stride", lineno)
            stride = _parse_int(tokens[3], lineno)
            layers.append(MaxPool2D(ph, pw, stride))
        elif kind == "flatten":
            if len(tokens) != 1:
                raise ArchitectureError(f"line {lineno}: flatten takes no arguments")
            layers.append(Flatten())
        elif kind == "dense":
            if len(tokens) != 3:
                raise ArchitectureError(
                    f"line {lineno}: expected 'dense <out> <activation>'"
                )
            out = _parse_int(tokens[1], lineno)
            act = tokens[2]
            if act not in ("relu", "linear"):
                raise ArchitectureError(
                    f"line {lineno}, token {act!r}: expected 'relu' or 'linear'"
                )
            layers.append(Dense(out, act))
        else:
            raise ArchitectureError(f"line {lineno}, token {kind!r}: unknown layer type")
    if input_shape is None:
        raise ArchitectureError("missing 'input CxHxW' line")
    return Architecture(input_shape, tuple(layers))


def format_architecture(arch: Architecture) -> str:
    """Canonical text form; parse(format(a)) == a."""
    lines = ["input " + "x".join(str(d) for d in arch.input_shape)]
    for layer in arch.layers:
        if isinstance(layer, Conv2D):
            lines.append(
                f"conv {layer.out_channels} {layer.kernel_h}x{layer.kernel_w} "
                f"stride {layer.stride} pad {layer.padding} {layer.activation}"
            )
        elif isinstance(layer, MaxPool2D):
            lines.append(f"maxpool {layer.pool_h}x{layer.pool_w} stride {layer.stride}")
        elif isinstance(layer, Flatten):
            lines.append("flatten")
        else:
            lines.append(f"dense {layer.out_features} {layer.activation}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Model container
# ---------------------------------------------------------------------------

@dataclass
class WeightTensor:
    name: str
    values: np.ndarray

    @property
    def size(self) -> int:
        return int(self.values.size)


@dataclass
class Model:
    """Parameters for ``arch`` in canonical order.

    ``transient`` marks parameters reconstructed with a caller-supplied key
    (set only by ``locker.unlock_model``): they are scoped to the query that
    created them, kept by :meth:`copy`, and refused by ``locker.write_model``.
    """

    arch: Architecture
    params: list[WeightTensor]
    transient: bool = False

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        specs = self.arch.param_specs()
        if len(self.params) != len(specs):
            raise ModelSpecError(
                f"expected {len(specs)} parameter tensors, got {len(self.params)}"
            )
        for tensor, (name, shape) in zip(self.params, specs):
            if tensor.name != name:
                raise ModelSpecError(f"tensor {tensor.name!r} out of order, expected {name!r}")
            if tuple(tensor.values.shape) != shape:
                raise ModelSpecError(
                    f"tensor {name!r} has shape {tuple(tensor.values.shape)}, expected {shape}"
                )
            if tensor.values.dtype not in (np.float32, np.float64):
                raise ModelSpecError(f"tensor {name!r} has dtype {tensor.values.dtype}")

    @property
    def param_count(self) -> int:
        return sum(t.size for t in self.params)

    def copy(self) -> "Model":
        return Model(self.arch, [WeightTensor(t.name, t.values.copy()) for t in self.params],
                     self.transient)


@dataclass
class Prediction:
    logits: np.ndarray
    class_index: int
    nan_flag: bool


def build_model(arch: Architecture, seed: int) -> Model:
    """Seeded He-uniform initialization: weights U(-b, b) with b = sqrt(6 / fan_in)."""
    rng = np.random.default_rng(seed)
    params = []
    for name, shape in arch.param_specs():
        if name.endswith(".bias"):
            values = np.zeros(shape, dtype=np.float32)
        else:
            fan_in = int(np.prod(shape[1:])) if len(shape) == 4 else int(shape[0])
            bound = np.sqrt(6.0 / fan_in)
            values = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        params.append(WeightTensor(name, values))
    return Model(arch, params)


# ---------------------------------------------------------------------------
# Layer math (dtype-generic, cache-returning for backprop)
# ---------------------------------------------------------------------------

def _conv_forward(x, w, b, layer: Conv2D):
    n, c, h, wd = x.shape
    kh, kw, s = layer.kernel_h, layer.kernel_w, layer.stride
    if layer.padding == "same":
        ph = _same_padding(h, kh, s)
        pw = _same_padding(wd, kw, s)
    else:
        ph = pw = (0, 0)
    xp = np.pad(x, ((0, 0), (0, 0), ph, pw)) if ph != (0, 0) or pw != (0, 0) else x
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::s, ::s]
    oh, ow = win.shape[2], win.shape[3]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n * oh * ow, c * kh * kw)
    out = cols @ w.reshape(w.shape[0], -1).T + b
    y = out.reshape(n, oh, ow, w.shape[0]).transpose(0, 3, 1, 2)
    cache = (cols, xp.shape, x.shape, ph, pw, (n, oh, ow))
    return y, cache


def _conv_backward(dy, w, layer: Conv2D, cache):
    cols, xp_shape, x_shape, ph, pw, (n, oh, ow) = cache
    kh, kw, s = layer.kernel_h, layer.kernel_w, layer.stride
    o = w.shape[0]
    dout = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(n * oh * ow, o)
    dw = (dout.T @ cols).reshape(w.shape)
    db = dout.sum(axis=0)
    dcols = dout @ w.reshape(o, -1)
    dwin = dcols.reshape(n, oh, ow, xp_shape[1], kh, kw).transpose(0, 3, 1, 2, 4, 5)
    dxp = np.zeros(xp_shape, dtype=dy.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + s * oh : s, j : j + s * ow : s] += dwin[:, :, :, :, i, j]
    dx = dxp[:, :, ph[0] : ph[0] + x_shape[2], pw[0] : pw[0] + x_shape[3]]
    return dx, dw, db


def _pool_forward(x, layer: MaxPool2D):
    n, c, h, w = x.shape
    ph, pw, s = layer.pool_h, layer.pool_w, layer.stride
    win = sliding_window_view(x, (ph, pw), axis=(2, 3))[:, :, ::s, ::s]
    oh, ow = win.shape[2], win.shape[3]
    flat = np.ascontiguousarray(win).reshape(n, c, oh, ow, ph * pw)
    idx = np.argmax(flat, axis=-1)
    y = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    cache = (idx, x.shape, (oh, ow))
    return y, cache


def _pool_backward(dy, layer: MaxPool2D, cache):
    idx, x_shape, (oh, ow) = cache
    n, c, h, w = x_shape
    ph, pw, s = layer.pool_h, layer.pool_w, layer.stride
    dx = np.zeros(x_shape, dtype=dy.dtype)
    rows = (np.arange(oh) * s)[None, None, :, None] + (idx // pw)
    colixs = (np.arange(ow) * s)[None, None, None, :] + (idx % pw)
    ni = np.arange(n)[:, None, None, None]
    ci = np.arange(c)[None, :, None, None]
    np.add.at(dx, (ni, ci, rows, colixs), dy)
    return dx


def _dense_forward(x, w, b):
    return x @ w + b, x


def _dense_backward(dy, w, x):
    return dy @ w.T, x.T @ dy, dy.sum(axis=0)


def _relu_forward(z):
    return np.maximum(z, 0), z > 0


def _run_layers(model: Model, x: np.ndarray, keep_caches: bool):
    """Shared forward pass. Returns (logits, caches or None)."""
    dtype = model.params[0].values.dtype if model.params else np.float32
    x = np.asarray(x, dtype=dtype)
    caches = [] if keep_caches else None
    p = 0
    with np.errstate(**_ERRSTATE):
        for layer in model.arch.layers:
            if isinstance(layer, Conv2D):
                w, b = model.params[p].values, model.params[p + 1].values
                p += 2
                x, cache = _conv_forward(x, w, b, layer)
                mask = None
                if layer.activation == "relu":
                    x, mask = _relu_forward(x)
                if keep_caches:
                    caches.append(("conv", layer, cache, mask))
            elif isinstance(layer, MaxPool2D):
                x, cache = _pool_forward(x, layer)
                if keep_caches:
                    caches.append(("pool", layer, cache, None))
            elif isinstance(layer, Flatten):
                shape = x.shape
                x = x.reshape(shape[0], -1)
                if keep_caches:
                    caches.append(("flatten", layer, shape, None))
            else:  # Dense
                w, b = model.params[p].values, model.params[p + 1].values
                p += 2
                x, cache = _dense_forward(x, w, b)
                mask = None
                if layer.activation == "relu":
                    x, mask = _relu_forward(x)
                if keep_caches:
                    caches.append(("dense", layer, cache, mask))
    return x, caches


def forward_batch(model: Model, x: np.ndarray) -> np.ndarray:
    """Logits for a batch shaped (N, C, H, W). Non-finite values propagate."""
    if x.ndim != 4 or tuple(x.shape[1:]) != model.arch.input_shape:
        raise ModelSpecError(
            f"input shape {tuple(x.shape)} does not match (N, {', '.join(map(str, model.arch.input_shape))})"
        )
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
    finite = np.isfinite(v)
    if not finite.any():
        return Prediction(v, 0, True)
    masked = np.where(finite, v, -np.inf)
    return Prediction(v, int(np.argmax(masked)), bool(not finite.all()))


def predict_classes(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized predict_class over a (N, K) logit matrix -> (classes, nan_flags)."""
    finite = np.isfinite(logits)
    masked = np.where(finite, logits, -np.inf)
    classes = np.argmax(masked, axis=1)
    classes[~finite.any(axis=1)] = 0
    return classes, ~finite.all(axis=1)


def forward(model: Model, x: np.ndarray) -> Prediction:
    """Single-input inference; x is shaped like arch.input_shape."""
    x = np.asarray(x)
    if tuple(x.shape) != model.arch.input_shape:
        raise ModelSpecError(
            f"input shape {tuple(x.shape)} does not match {model.arch.input_shape}"
        )
    logits = forward_batch(model, x[None])[0]
    return predict_class(logits)


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


def loss_and_gradients(model: Model, x: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy and per-tensor gradients (canonical order).

    Also returns the batch logits so training can reuse the forward pass.
    """
    logits, caches = _run_layers(model, x, keep_caches=True)
    loss, grad = _softmax_xent(logits, np.asarray(labels))
    grads: list[Optional[np.ndarray]] = [None] * len(model.params)
    p = len(model.params)
    with np.errstate(**_ERRSTATE):
        for kind, layer, cache, mask in reversed(caches):
            if kind == "flatten":
                grad = grad.reshape(cache)
            elif kind == "pool":
                grad = _pool_backward(grad, layer, cache)
            elif kind == "dense":
                if mask is not None:
                    grad = grad * mask
                w = model.params[p - 2].values
                grad, dw, db = _dense_backward(grad, w, cache)
                grads[p - 2], grads[p - 1] = dw, db
                p -= 2
            else:  # conv
                if mask is not None:
                    grad = grad * mask
                w = model.params[p - 2].values
                grad, dw, db = _conv_backward(grad, w, layer, cache)
                grads[p - 2], grads[p - 1] = dw, db
                p -= 2
    return loss, grads, logits


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 32
    learning_rate: float = 0.05
    seed: int = 0


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
    if int(labels.max()) >= model.arch.num_classes:
        raise ValueError("label out of range for the architecture's class count")
    work = model.copy()
    rng = np.random.default_rng(cfg.seed)
    lr = np.asarray(cfg.learning_rate, dtype=work.params[0].values.dtype if work.params else np.float32)
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
                for tensor, g in zip(work.params, grads):
                    tensor.values -= lr * g
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

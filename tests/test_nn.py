import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from modellock import locker, nn
from modellock.architectures import REFERENCE, reference_arch
from modellock.data import synthetic_dataset

from oracles import (
    finite_difference_gradients,
    max_relative_error,
    naive_conv2d,
    naive_dense,
    naive_maxpool2d,
    naive_relu,
    reference_col2im,
    reference_im2col,
    reference_maxpool_backward,
    reference_maxpool_forward,
)

CANONICAL = """\
input 1x28x28
conv 13 3x3 stride 1 pad valid relu
maxpool 2x2 stride 2
conv 18 3x3 stride 1 pad valid relu
maxpool 2x2 stride 2
flatten
dense 182 relu
dense 10 linear
"""


def as_float64(model: nn.Model) -> nn.Model:
    return nn.Model(model.arch, model.flat.astype(np.float64))


class ArrayData:
    def __init__(self, images, labels):
        self.images, self.labels = images, labels


# ---------------------------------------------------------------------------
# Grammar and shape checking
# ---------------------------------------------------------------------------

def test_parse_format_round_trip():
    arch = nn.parse_architecture(CANONICAL)
    assert nn.format_architecture(arch) == CANONICAL
    assert nn.parse_architecture(nn.format_architecture(arch)) == arch


def test_comments_and_blank_lines_ignored():
    arch = nn.parse_architecture(
        "# header\n\ninput 1x4x4  # trailing comment\nflatten\ndense 2 linear\n"
    )
    assert arch.num_classes == 2


@pytest.mark.parametrize("text, fragment", [
    ("flatten\n", "input"),
    ("input 1x4x4\ninput 1x4x4\nflatten\n", "line 2"),
    ("input 1x4\nflatten\n", "1x4"),
    ("input 1x4x4\nconvolution 3 3x3 stride 1 pad same relu\n", "'convolution'"),
    ("input 1x4x4\nconv 3 3x3 step 1 pad same relu\n", "'step'"),
    ("input 1x4x4\nconv 3 3x3 stride 1 pad sam relu\n", "'sam'"),
    ("input 1x4x4\nconv 3 3x3 stride 1 pad same gelu\n", "'gelu'"),
    ("input 1x4x4\nconv x 3x3 stride 1 pad same relu\n", "'x'"),
    ("input 1x4x4\nflatten\ndense 5 sigmoid\n", "'sigmoid'"),
    ("input 1x4x4\nflatten\ndense 5\n", "dense"),
    ("input 1x4x4\nmaxpool 2x2\n", "maxpool"),
    # str.isdigit() admits these, but int() rejects the first two and reads
    # the full-width digit as 1: integers are ASCII decimal only
    ("input 1x\u00b2x4\nflatten\ndense 2 linear\n", "'1x\u00b2x4'"),
    ("input 1x4x4\nconv 3 3x3 stride \u00b3 pad same relu\n", "'\u00b3'"),
    ("input 1x4x4\nflatten\ndense \uff11 linear\n", "'\uff11'"),
    ("input 1x" + "9" * 5000 + "x4\nflatten\ndense 2 linear\n", "line 1"),
], ids=lambda v: repr(v)[:34])
def test_parse_errors_name_line_and_token(text, fragment):
    with pytest.raises(nn.ArchitectureError) as info:
        nn.parse_architecture(text)
    assert fragment in str(info.value)


def test_shape_errors():
    with pytest.raises(nn.ArchitectureError, match="flat"):
        nn.Architecture((1, 8, 8), (nn.Dense(4),))
    with pytest.raises(nn.ArchitectureError, match="kernel"):
        nn.Architecture((1, 2, 2), (nn.Conv2D(4, 5, 5, padding="valid"), nn.Flatten()))
    with pytest.raises(nn.ArchitectureError, match="pool"):
        nn.Architecture((1, 2, 2), (nn.MaxPool2D(3, 3, 1), nn.Flatten()))
    with pytest.raises(nn.ArchitectureError, match="logit"):
        nn.Architecture((1, 8, 8), (nn.Conv2D(4, 3, 3),))
    with pytest.raises(nn.ArchitectureError, match="CxHxW"):
        nn.Architecture((1, 8, 8), (nn.Flatten(), nn.Conv2D(4, 3, 3), nn.Flatten()))


def test_flatten_width_beyond_u32_rejected():
    # 2**64 elements wrapped to a 0-wide flatten in a 64-bit product
    with pytest.raises(nn.ArchitectureError, match="u32"):
        nn.parse_architecture("input 1x4294967296x4294967296\nflatten\ndense 10 linear\n")
    widest = nn.parse_architecture("input 1x65535x65537\nflatten\ndense 10 linear\n")
    assert widest.shapes[1] == (2**32 - 1,)


def test_oversized_architecture_rejected_before_allocation():
    # a 2**32-wide flatten feeding dense 10 would need 160 GiB of weights
    tracemalloc.start()
    try:
        with pytest.raises(nn.ArchitectureError):
            nn.parse_architecture("input 1x65536x65536\nflatten\ndense 10 linear\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_total_parameter_count_bounded_before_allocation():
    # each dimension fits a u32, but 1.8e19 float64 values fit no address space
    tracemalloc.start()
    try:
        with pytest.raises(nn.ArchitectureError, match="parameters"):
            nn.parse_architecture("input 1x65535x65535\nflatten\ndense 4294967295 linear\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the bound is 8 * total <= sys.maxsize: 2**63 - 2**35 bytes pass, 2**63 do not
    text = "input 1x1x4294967295\nflatten\ndense {} linear\n"
    assert 8 * nn.parse_architecture(text.format(2**28 - 1)).param_count == 2**63 - 2**35
    with pytest.raises(nn.ArchitectureError, match="parameters"):
        nn.parse_architecture(text.format(2**28))


def test_oversized_kernel_rejected_before_allocation():
    # a `pad same` kernel is not bounded by its input; this weight is 48 GiB
    text = "input 1x4x4\nconv 3 {}x1 stride 1 pad same relu\nflatten\ndense 2 linear\n"
    tracemalloc.start()
    try:
        with pytest.raises(nn.ArchitectureError, match="u32"):
            nn.parse_architecture(text.format(2**32))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    widest = nn.parse_architecture(text.format(2**32 - 1))
    assert widest.param_specs()[0] == ("conv1.weight", (3, 1, 2**32 - 1, 1))


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_reference_parameter_counts(name):
    arch = reference_arch(name)
    assert arch.param_count == REFERENCE[name][1]


def test_same_padding_preserves_size():
    arch = nn.Architecture(
        (3, 32, 32), (nn.Conv2D(8, 3, 3, padding="same"), nn.Flatten(), nn.Dense(10)),
    )
    assert arch.shapes[1] == (8, 32, 32)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def test_build_model_deterministic():
    arch = nn.parse_architecture(CANONICAL)
    a = nn.build_model(arch, seed=5)
    b = nn.build_model(arch, seed=5)
    c = nn.build_model(arch, seed=6)
    assert all((x == y).all() for x, y in zip(a.params, b.params))
    assert any((x != y).any() for x, y in zip(a.params, c.params))
    assert a.param_count == 86166


def test_biases_start_at_zero():
    model = nn.build_model(nn.parse_architecture(CANONICAL), seed=0)
    for (name, _), values in zip(model.arch.param_specs(), model.params):
        if name.endswith(".bias"):
            assert (values == 0).all()


def test_model_validation():
    arch = nn.parse_architecture("input 1x4x4\nflatten\ndense 3 linear\n")
    good = nn.build_model(arch, 0)
    for bad, fault in ((list(good.flat), "numpy array"),
                       (good.params[:1], "numpy array"),
                       (good.flat.reshape(3, 17), "shape"),
                       (good.flat.astype(np.int32), "dtype"),
                       (good.flat[:-1], "shape"),
                       (np.concatenate([good.flat, good.flat[:1]]), "shape")):
        with pytest.raises(nn.ModelSpecError, match=fault):
            nn.Model(arch, bad)


def test_params_are_views_of_one_buffer():
    arch = nn.parse_architecture(CANONICAL)
    model = nn.build_model(arch, seed=1)
    assert model.flat.shape == (arch.param_count,) and model.flat.dtype == np.float32
    assert [p.shape for p in model.params] == [shape for _, shape in arch.param_specs()]
    assert all(np.shares_memory(model.flat, p) for p in model.params)
    # the views tile the buffer in canonical order
    assert np.concatenate([p.ravel() for p in model.params]).tobytes() == model.flat.tobytes()


def test_sgd_step_through_params_changes_flat():
    arch = nn.parse_architecture("input 1x6x6\nflatten\ndense 4 relu\ndense 2 linear\n")
    model = nn.build_model(arch, seed=3)
    before = model.flat.copy()
    data = separable_two_class(seed=5)
    _, grads, _ = nn.loss_and_gradients(model, data.images[:8], data.labels[:8])
    for values, g in zip(model.params, grads):
        values -= np.float32(0.1) * g
    step = np.concatenate([g.ravel() for g in grads])
    assert (model.flat != before).any()
    assert np.array_equal(model.flat, before - np.float32(0.1) * step)


def test_model_is_frozen():
    model = nn.build_model(nn.parse_architecture("input 1x4x4\nflatten\ndense 3 linear\n"), 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.flat = np.zeros_like(model.flat)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.params = ()


def test_copy_is_writable_and_independent():
    model = nn.build_model(nn.parse_architecture("input 1x4x4\nflatten\ndense 3 linear\n"), 0)
    frozen = nn.Model(model.arch, np.frombuffer(model.flat.tobytes(), dtype="<f4"),
                      transient=True)
    assert not frozen.flat.flags.writeable
    assert not any(p.flags.writeable for p in frozen.params)
    clone = frozen.copy()
    assert clone.flat.flags.writeable and clone.transient
    assert all(np.shares_memory(clone.flat, p) for p in clone.params)
    clone.params[0][:] = 0
    assert np.array_equal(frozen.flat, model.flat)


# ---------------------------------------------------------------------------
# Forward pass vs naive oracles
# ---------------------------------------------------------------------------

ORACLE_ARCHS = [
    ("conv-valid", "input 2x9x9\nconv 3 3x3 stride 1 pad valid linear\nflatten\ndense 4 linear\n"),
    ("conv-same", "input 2x8x8\nconv 4 3x3 stride 1 pad same relu\nflatten\ndense 4 linear\n"),
    ("conv-stride2", "input 1x9x9\nconv 3 3x3 stride 2 pad valid relu\nflatten\ndense 4 linear\n"),
    ("conv-same-stride2", "input 1x8x8\nconv 3 3x3 stride 2 pad same linear\nflatten\ndense 4 linear\n"),
    ("conv-5x5", "input 1x11x11\nconv 2 5x5 stride 1 pad valid relu\nflatten\ndense 3 linear\n"),
    ("pool", "input 3x8x8\nmaxpool 2x2 stride 2\nflatten\ndense 4 linear\n"),
    ("pool-odd", "input 2x7x7\nmaxpool 2x2 stride 2\nflatten\ndense 4 linear\n"),
    ("pool-overlap", "input 2x7x7\nmaxpool 3x3 stride 2\nflatten\ndense 4 linear\n"),
    ("stack", "input 1x12x12\nconv 4 3x3 stride 1 pad valid relu\nmaxpool 2x2 stride 2\n"
              "flatten\ndense 8 relu\ndense 3 linear\n"),
]


def oracle_forward(model: nn.Model, x: np.ndarray) -> np.ndarray:
    p = 0
    for layer in model.arch.layers:
        if isinstance(layer, nn.Conv2D):
            w, b = model.params[p], model.params[p + 1]
            p += 2
            x = naive_conv2d(x, w, b, layer.stride, layer.padding)
            if layer.activation == "relu":
                x = naive_relu(x)
        elif isinstance(layer, nn.MaxPool2D):
            x = naive_maxpool2d(x, layer.pool_h, layer.pool_w, layer.stride)
        elif isinstance(layer, nn.Flatten):
            x = x.reshape(x.shape[0], -1)
        else:
            w, b = model.params[p], model.params[p + 1]
            p += 2
            x = naive_dense(x, w, b)
            if layer.activation == "relu":
                x = naive_relu(x)
    return x


@pytest.mark.parametrize("name, text", ORACLE_ARCHS, ids=[n for n, _ in ORACLE_ARCHS])
def test_forward_matches_naive_oracle(name, text):
    arch = nn.parse_architecture(text)
    model = as_float64(nn.build_model(arch, seed=hash(name) % 1000))
    rng = np.random.default_rng(42)
    x = rng.standard_normal((3, *arch.input_shape))
    got = nn.forward_batch(model, x)
    want = oracle_forward(model, x)
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) < 1e-6


def test_single_conv_on_3x3_input_matches_direct_sum():
    arch = nn.parse_architecture(
        "input 1x3x3\nconv 2 3x3 stride 1 pad valid linear\nflatten\ndense 2 linear\n"
    )
    model = as_float64(nn.build_model(arch, seed=3))
    x = np.random.default_rng(0).standard_normal((1, 1, 3, 3))
    w, b = model.params[0], model.params[1]
    direct = np.array([[ (w[o, 0] * x[0, 0]).sum() + b[o] for o in range(2)]])
    got = nn.forward_batch(model, x)
    # 3x3 valid conv on a 3x3 input is a single dot product per filter
    want = naive_dense(direct, model.params[2], model.params[3])
    assert np.allclose(got, want, rtol=1e-6)


def test_all_zero_weights_give_zero_logits():
    arch = nn.parse_architecture(
        "input 1x6x6\nconv 2 3x3 stride 1 pad valid relu\nflatten\ndense 5 linear\n"
    )
    model = nn.build_model(arch, seed=0)
    for tensor in model.params:
        tensor[:] = 0
    x = np.random.default_rng(1).random((4, 1, 6, 6), dtype=np.float32)
    logits = nn.forward_batch(model, x)
    assert (logits == 0).all()
    assert nn.predict_class(logits[0]).class_index == 0


def test_identity_dense_passthrough():
    arch = nn.parse_architecture("input 1x1x1\nflatten\ndense 1 linear\n")
    model = nn.build_model(arch, seed=0)
    model.params[0][:] = 1.0
    model.params[1][:] = 0.0
    for v in (0.0, -2.5, 7.25):
        out = nn.forward(model, np.array([[[v]]], dtype=np.float32))
        assert out.logits[0] == np.float32(v)


def test_forward_shape_mismatch():
    arch = nn.parse_architecture("input 1x4x4\nflatten\ndense 2 linear\n")
    model = nn.build_model(arch, seed=0)
    with pytest.raises(nn.ModelSpecError):
        nn.forward_batch(model, np.zeros((2, 1, 5, 5), dtype=np.float32))
    with pytest.raises(nn.ModelSpecError):
        nn.forward(model, np.zeros((1, 5, 5), dtype=np.float32))


def test_training_refuses_misshapen_batch():
    # 2x2x4 images hold the 16 values a 1x4x4 flatten expects, so only the
    # shape check tells them apart
    arch = nn.parse_architecture("input 1x4x4\nflatten\ndense 2 linear\n")
    model = nn.build_model(arch, seed=0)
    images = np.zeros((6, 2, 2, 4), dtype=np.float32)
    labels = np.zeros(6, dtype=np.int64)
    with pytest.raises(nn.ModelSpecError, match="does not match"):
        nn.loss_and_gradients(model, images, labels)
    with pytest.raises(nn.ModelSpecError, match="does not match"):
        nn.train(model, ArrayData(images, labels), nn.TrainConfig(epochs=1))


def test_nonfinite_weights_propagate():
    arch = nn.parse_architecture("input 1x4x4\nflatten\ndense 3 linear\n")
    model = nn.build_model(arch, seed=0)
    model.params[0][0, 0] = np.nan
    logits = nn.forward_batch(model, np.ones((1, 1, 4, 4), dtype=np.float32))
    assert np.isnan(logits).any()


# ---------------------------------------------------------------------------
# Window math, bit for bit against the earlier window-view code (oracles.py)
# ---------------------------------------------------------------------------

SPECIALS = (0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0)


def hostile_array(rng, shape, dtype):
    """Normal draws, half replaced by ties, signed zeros, +-Inf and NaNs of varied payloads."""
    x = rng.standard_normal(shape).astype(dtype)
    pick = rng.random(shape) < 0.5
    x[pick] = rng.choice(np.array(SPECIALS, dtype=dtype), int(pick.sum()))
    bits = x.view(f"u{x.itemsize}")
    nan = np.isnan(x)
    bits[nan] |= rng.integers(0, 1 << 20, int(nan.sum())).astype(bits.dtype)
    return x


def fast_path_array(rng, shape, dtype):
    """hostile_array with every -0.0 made +0.0, so the pool folds with np.maximum,
    and about a third of its NaNs signaling (quiet bit clear, payload kept)."""
    x = hostile_array(rng, shape, dtype)
    x[x == 0] = 0
    bits = x.view(f"u{x.itemsize}")
    signaling = np.isnan(x) & (rng.random(shape) < 1 / 3)
    bits[signaling] &= ~bits.dtype.type(1 << (np.finfo(dtype).nmant - 1))
    bits[signaling] |= 1
    assert not np.signbit(x[x == 0]).any() and np.isnan(x[signaling]).all()
    return x


def channel_last(x):
    """The same values held in channel-last (N, H, W, C) memory."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


POOL_CASES = {  # id: (input shape, pool h, pool w, stride)
    "2x2-stride-2": ((3, 2, 8, 8), 2, 2, 2),
    "odd-2x7x7": ((2, 2, 7, 7), 2, 2, 2),
    "3x3-stride-2-overlapping": ((2, 3, 9, 9), 3, 3, 2),
    "3x3-stride-1-overlapping": ((2, 3, 8, 9), 3, 3, 1),
    "2x3-stride-1-overlapping": ((2, 2, 6, 7), 2, 3, 1),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", POOL_CASES)
def test_maxpool_matches_reference_bit_for_bit(case, dtype):
    shape, ph, pw, stride = POOL_CASES[case]
    layer = nn.MaxPool2D(ph, pw, stride)
    rng = np.random.default_rng(sum(map(ord, case)))
    with np.errstate(all="ignore"):
        # the hostile draws hold -0.0 (the bit-blend fold), the others do not
        for draw, make in enumerate([hostile_array] * 10 + [fast_path_array] * 10):
            x = make(rng, shape, dtype)
            want_y, idx = reference_maxpool_forward(x, ph, pw, stride)
            dy = hostile_array(rng, want_y.shape, dtype)  # NaN gradients must not leak
            want_dx = reference_maxpool_backward(dy, idx, x.shape, pw, stride)
            # each draw again on channel-last memory, with dy in either order
            for x_in, dy_in in ((x, dy), (channel_last(x), (dy, channel_last(dy))[draw % 2])):
                y, cache = layer.forward(x_in, [])
                assert y.tobytes() == want_y.tobytes()
                dx, _ = layer.backward(dy_in, [], cache, need_dx=True)
                assert dx.tobytes() == want_dx.tobytes()


CONV_CASES = {  # id: (input shape, layer)
    "3x3-valid-stride-1": ((2, 3, 7, 8), nn.Conv2D(4, 3, 3, 1, "valid", "linear")),
    "3x3-same-stride-2": ((2, 3, 7, 8), nn.Conv2D(4, 3, 3, 2, "same", "linear")),
    "2x3-same-stride-2": ((2, 2, 9, 6), nn.Conv2D(3, 2, 3, 2, "same", "linear")),
    # over numpy's 8192-element buffer, where a broadcast and a tiled bias add
    # can keep different payloads of NaN + NaN
    "mnist-conv1": ((2, 1, 28, 28), nn.Conv2D(13, 3, 3, 1, "valid", "linear")),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", CONV_CASES)
def test_conv_im2col_and_col2im_match_reference_bit_for_bit(case, dtype):
    shape, layer = CONV_CASES[case]
    rng = np.random.default_rng(sum(map(ord, case)))
    x = hostile_array(rng, shape, dtype)
    w_shape, b_shape = layer.param_shapes(shape[1:])
    params = [hostile_array(rng, w_shape, dtype), hostile_array(rng, b_shape, dtype)]
    with np.errstate(all="ignore"):
        y, cache = layer.forward(x, params)
        cols, xp_shape, _, ph, pw, (n, oh, ow) = cache
        xp = np.pad(x, ((0, 0), (0, 0), ph, pw))
        want_cols = reference_im2col(xp, layer.kernel_h, layer.kernel_w, layer.stride)
        dy = hostile_array(rng, y.shape, dtype)
        dout = dy.transpose(0, 2, 3, 1).reshape(n * oh * ow, -1)
        dcols = dout @ params[0].reshape(len(params[1]), -1)
        want = reference_col2im(dcols, xp_shape, layer.kernel_h, layer.kernel_w,
                                layer.stride, oh, ow)
        want = want[:, :, ph[0] : ph[0] + shape[2], pw[0] : pw[0] + shape[3]]
        # again on channel-last memory, with dy in either order
        for x_in, dy_in in ((x, dy), (channel_last(x), dy), (channel_last(x), channel_last(dy))):
            y, cache = layer.forward(x_in, params)
            assert cache[0].tobytes() == want_cols.tobytes()
            dx, grads = layer.backward(dy_in, params, cache, need_dx=True)
            assert dx.tobytes() == want.tobytes()
            skipped, first_grads = layer.backward(dy_in, params, cache, need_dx=False)
            assert skipped is None
            assert [g.tobytes() for g in first_grads] == [g.tobytes() for g in grads]
        # the output, once with a NaN-holding bias and once with a NaN-free one
        w = params[0].reshape(len(params[1]), -1)
        nan_b = params[1].copy()
        nan_b[::2] = np.nan
        payload = nan_b.view(f"u{nan_b.itemsize}")[::2]
        payload |= rng.integers(0, 1 << 20, payload.shape).astype(payload.dtype)
        finite_b = np.where(np.isnan(params[1]), rng.standard_normal(b_shape), params[1])
        for b in (nan_b, finite_b.astype(dtype)):
            want_y = (want_cols @ w.T + b).reshape(n, oh, ow, -1).transpose(0, 3, 1, 2)
            for x_in in (x, channel_last(x)):
                assert layer.forward(x_in, [params[0], b])[0].tobytes() == want_y.tobytes()


def test_in_place_relu_matches_out_of_place_reference():
    """forward_batch and loss_and_gradients on a two-conv relu stack equal a
    layer-by-layer run with ReLU out of place, where ReLU sees -0.0.

    ReLU sees -0.0 where a layer's GEMM writes -0.0 and its bias is -0.0. With
    numpy's bundled OpenBLAS, a small GEMM of products that underflow negative
    writes -0.0 when its right operand is C-contiguous (the dense weight) and
    +0.0 when it is transposed (the conv weight): the subnormal image meets
    negative dense weights.
    """
    arch = nn.parse_architecture("input 1x6x6\n"
                                 "conv 3 3x3 stride 1 pad same relu\n"
                                 "conv 3 3x3 stride 1 pad valid relu\n"
                                 "maxpool 2x2 stride 2\nflatten\n"
                                 "dense 5 relu\ndense 4 linear\n")
    model = nn.build_model(arch, seed=2)
    w1, b1, w2, b2, w3, b3 = (t for t in model.params[:6])
    w1[1] = w2[1] = 1.0      # carry the subnormal image's values, positive
    w1[0] = w2[0] = -0.25    # and give the conv ReLUs zero products
    w3[:, 0] = -1e-3         # products that underflow negative
    b1[:] = b2[:] = b3[:] = -0.0
    rng = np.random.default_rng(6)
    images = rng.standard_normal((6, 1, 6, 6)).astype(np.float32)
    images[0] = np.finfo(np.float32).smallest_subnormal
    images[1] = 0
    images[2, :, 2:4] = 0    # zero rows in a normal image
    labels = np.array([0, 1, 2, 3, 0, 1])

    caches, x, negative_zeros = [], images, []
    values = iter(t for t in model.params)
    with np.errstate(all="ignore"):
        for layer, in_shape in zip(arch.layers, arch.shapes):
            params = [next(values) for _ in layer.param_shapes(in_shape)]
            x, cache = layer.forward(x, params)
            if layer.activation == "relu":
                negative_zeros.append(int((np.signbit(x) & (x == 0)).sum()))
                x = np.maximum(x, 0)
            caches.append((layer, params, cache, x))
        want_loss, grad = nn._softmax_xent(x, labels)
        want_grads = []
        for depth, (layer, params, cache, y) in reversed(list(enumerate(caches))):
            if layer.activation == "relu":
                grad = grad * (y > 0)
            grad, layer_grads = layer.backward(grad, params, cache, need_dx=depth > 0)
            want_grads[:0] = layer_grads
    assert negative_zeros[-1] > 0  # the dense ReLU sees -0.0
    assert nn.forward_batch(model, images).tobytes() == x.tobytes()
    loss, grads, logits = nn.loss_and_gradients(model, images, labels)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert logits.tobytes() == x.tobytes()
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in want_grads]


def digests_in_child(name: str, threads: int):
    """JSON result of this module's ``name()`` in a fresh interpreter whose BLAS
    runs ``threads`` threads (the count must be set before numpy loads)."""
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = f"import json, test_nn; print(json.dumps(test_nn.{name}()))"
    run = subprocess.run([sys.executable, "-c", code], cwd=here, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


# SHA-256 of the logits' bytes, NaN payloads included, per BLAS thread count:
# OpenBLAS splits its sums by thread, so the count changes GEMM bits. The
# 2-thread values come from the window-view engine, the 1-thread values from
# the engine before the one memory order; both under numpy's bundled OpenBLAS.
# A BLAS that orders its sums differently would need new values.
PINNED_LOGITS = {
    1: {
        "plain": "b48399ff3afeb88cf54f9d8a8f65a7b8f4c3919cba784fdfabb302dd8e33e405",
        "right-key": "b48399ff3afeb88cf54f9d8a8f65a7b8f4c3919cba784fdfabb302dd8e33e405",
        "wrong-key": "fa5cb4c5e8dde9deb34527d1f69d6f1cde5d7a2b9949fca531eb739744381bbe",
    },
    2: {
        "plain": "ae058dbe0aaf752442f9122685db85b70b858770c516292b781848814e445c76",
        "right-key": "ae058dbe0aaf752442f9122685db85b70b858770c516292b781848814e445c76",
        "wrong-key": "fa5cb4c5e8dde9deb34527d1f69d6f1cde5d7a2b9949fca531eb739744381bbe",
    },
}


def mnist_logit_digests():
    model = nn.build_model(reference_arch("mnist"), seed=7)
    batch = synthetic_dataset(per_class=3, seed=11).images
    locked = locker.lock_model(model, bytes(range(16)))
    subjects = {
        "plain": model,
        "right-key": locker.unlock_model(locked, bytes(range(16))),
        "wrong-key": locker.unlock_model(locked, bytes(range(1, 17))),
    }
    return {name: hashlib.sha256(nn.forward_batch(m, batch).tobytes()).hexdigest()
            for name, m in subjects.items()}


def test_mnist_logits_pinned():
    for threads, pinned in PINNED_LOGITS.items():
        assert digests_in_child("mnist_logit_digests", threads) == pinned, f"{threads} BLAS threads"


# SHA-256 of each gradient's bytes, in canonical order, NaN payloads and zero
# signs included, per BLAS thread count. The 2-thread values were taken before
# ReLU moved out of the layer types, the 1-thread values before the one memory
# order; same BLAS caveat as PINNED_LOGITS.
PINNED_GRADIENTS = {
    1: {
        "plain": [
            "1aa3af6b7495e73d1c32967826ced4104c3c5a3352a0e180d45beb313afc8526",
            "06e2d36bfe027f452eb342e7e8eb6ef9d86cf3d446c9926f89d0d7af83c39011",
            "9e56f36202f6000ef78c96d57746301cd16c030aaa4e91f00186c191ad678c67",
            "6671aec7e57aa2b11e3bc0b55770bcaaa0ab9a25015b8c037e4f803004e98c92",
            "5cdaf105c05c667f08393ab7d7510aef2a6f71e7b0d2cdfb77fc477f070c691e",
            "4a985b4f9faf97d75fe80b067face0ed9b206f7f0d15fddb8084a6aad3201237",
            "e56c5cbb2d9843ba8fb78722e3482e16562bfeb985bf3693f3b3f2243b353716",
            "99940e0a44bbb660bb5e8459d2b5ec8013d7e879ffb9d5c8b3bfdbcfcabe0109",
        ],
        "wrong-key": [
            "30fa8e5ed40bed46e3c1916b86019dca5d880aea9924d4055f1fef3c4ac85692",
            "083e1c22480025ec9c7e51712fe884f3ea1f8c0b8abeffaa87521306717eb698",
            "18d89e7412b944a09138d2f1f8ca12ddd57f75ce923b08177d572f9c6c189a51",
            "e8c638f4d6f35220091e160bad64b7bbcbfb4049b3ff48e02dec199514028e3e",
            "8794c7de21c0a698e79712bcb258138a52410d3c827d971fb026c97a9d738807",
            "adf97d6672eaa73f3d1604e6a0fcc93068c06fa6eb9e7408bc44aaaba1409d11",
            "1b879eb621383c21f40b95c53b700bf8b278bad5a50676cfb014ec670811a2ef",
            "fc622bfaecf43e955eadd91c5ef6439a66e4f200c92c003cc9f779dda120cac2",
        ],
    },
    2: {
        "plain": [
            "56a698461f75ca5958a0818b4158ecb3e7d13da98ce73a533fa495cb97e3a1a2",
            "77d64cdfb2f62923cabc4287c38d09ba60f527ead196f23687ed274543d77a8a",
            "8b798f9782aee0790774790e1326fd46d93790b31b1473789d901b4412d317da",
            "a26f7e89af969d61bf5cf392f61dd1cd4aa5e3c80a9b6a7ea3a53efb3ca14676",
            "9e0f5f1faf7ee01bbc0fc99554f6e7b136b6a2f4edf2cbc6a7751a549c511d5b",
            "ef77c181afa361d5574a67e153c5d0da4cc5f8306bdcc4219eb77ead86812141",
            "19b7cf72083162333704bd15bef2a591d2658dc278844cf956204d95f0c570ca",
            "0932750328d2e7d224e811bd7d48b6214f14d4164a6b4d7310df44fb8bc56d5c",
        ],
        "wrong-key": [
            "30fa8e5ed40bed46e3c1916b86019dca5d880aea9924d4055f1fef3c4ac85692",
            "083e1c22480025ec9c7e51712fe884f3ea1f8c0b8abeffaa87521306717eb698",
            "18d89e7412b944a09138d2f1f8ca12ddd57f75ce923b08177d572f9c6c189a51",
            "e8c638f4d6f35220091e160bad64b7bbcbfb4049b3ff48e02dec199514028e3e",
            "4486851c55926cb3dfda43beab809375fd0dab799a876d08979e7c27eaa2ae41",
            "adf97d6672eaa73f3d1604e6a0fcc93068c06fa6eb9e7408bc44aaaba1409d11",
            "1b879eb621383c21f40b95c53b700bf8b278bad5a50676cfb014ec670811a2ef",
            "fc622bfaecf43e955eadd91c5ef6439a66e4f200c92c003cc9f779dda120cac2",
        ],
    },
}


def mnist_gradient_digests():
    model = nn.build_model(reference_arch("mnist"), seed=7)
    data = synthetic_dataset(per_class=4, seed=11)
    pick = np.random.default_rng(5).permutation(len(data.labels))[:32]
    locked = locker.lock_model(model, bytes(range(16)))
    subjects = {"plain": model, "wrong-key": locker.unlock_model(locked, bytes(range(1, 17)))}
    got = {}
    for name, m in subjects.items():
        _, grads, _ = nn.loss_and_gradients(m, data.images[pick], data.labels[pick])
        got[name] = [hashlib.sha256(g.tobytes()).hexdigest() for g in grads]
    return got


def test_mnist_gradients_pinned():
    for threads, pinned in PINNED_GRADIENTS.items():
        assert digests_in_child("mnist_gradient_digests", threads) == pinned, f"{threads} BLAS threads"


# A padded multi-channel stack: both convs pad `same` and read three or four
# channels, which the mnist pins never do. SHA-256 of the logits, then of each
# gradient in canonical order, taken from the engine that still had a
# channel-first im2col for padded input. These GEMMs are small enough that one
# and two BLAS threads give the same bits; same BLAS caveat as PINNED_LOGITS.
PADDED_STACK = """\
input 3x10x10
conv 4 3x3 stride 1 pad same relu
conv 5 3x3 stride 1 pad same relu
maxpool 2x2 stride 2
flatten
dense 6 linear
"""

PINNED_PADDED_STACK = {
    "plain": [
        "096b54343132d61607c9b0dd25fb20c84bf5101825c5b73b12cb3e317a106bef",
        "b0b202584fc3160ab7d5e186cf73376982985cefa9675d1d1e6e593af28e0f25",
        "cdda02f4c73ae1f850cfe79f6d37db15a29f5f26546f4c591385c05a6a6d47fb",
        "6d10ccc3b1e0abea3c0517fa49a4383cb20fdd1dac29489f68997ed0a7dea58c",
        "84f787c19e6fff696de436670db6506152f3efd488e5565b1c62d4d610b26826",
        "7d767e5e29bcaba7ec0c6d4d613d537446c72816edd899dd218810b9910d5825",
        "ce1091b21b7c2b9f3f4ee95147f5d725e4cad653227807843bbdb099ea7b8a92",
    ],
    "wrong-key": [
        "86174c766fa99a641a2aa97aff1b845cd5631baaf4ad5648527a262e7d890dd5",
        "b79a1f655dcdad80579317c5a1243c74e67c70e9a2c13176dc152c37b8d04959",
        "ef99cfd192ee2fe43a68cef2af40c85c2c215759f491c1b3fa09ed0f794f9201",
        "63d3156177db9d62cf8311b00944562ec79649cb327911c4cc3082a51439264f",
        "2ffbd5b3c0eac4559ab398e19b11bff746211e3f04fa71abd8b5c4806d3babb9",
        "38fa09ced6a9227782a21c00a82cfedd759f712cb0d8f6b788b90d347b45f20f",
        "3fbf182a570eb06706b3baeed428958f3b6b85d6287e297dbc70426f6e116d3e",
    ],
}


def padded_stack_digests():
    model = nn.build_model(nn.parse_architecture(PADDED_STACK), seed=3)
    rng = np.random.default_rng(8)
    images = rng.standard_normal((12, 3, 10, 10)).astype(np.float32)
    labels = rng.integers(0, 6, 12)
    locked = locker.lock_model(model, bytes(range(16)))
    subjects = {"plain": model, "wrong-key": locker.unlock_model(locked, bytes(range(1, 17)))}
    got = {}
    for name, m in subjects.items():
        _, grads, _ = nn.loss_and_gradients(m, images, labels)
        got[name] = [hashlib.sha256(a.tobytes()).hexdigest()
                     for a in (nn.forward_batch(m, images), *grads)]
    return got


def test_padded_stack_pinned():
    for threads in (1, 2):
        assert digests_in_child("padded_stack_digests", threads) == PINNED_PADDED_STACK, \
            f"{threads} BLAS threads"


# ---------------------------------------------------------------------------
# predict_class
# ---------------------------------------------------------------------------

def test_predict_class_cases():
    assert nn.predict_class([0.1, 0.9, 0.3]).class_index == 1
    tie = nn.predict_class([2.0, 2.0])
    assert tie.class_index == 0 and not tie.nan_flag
    all_nan = nn.predict_class([np.nan, np.nan])
    assert all_nan.class_index == 0 and all_nan.nan_flag
    some = nn.predict_class([np.nan, 1.0, np.inf, 0.5])
    assert some.class_index == 1 and some.nan_flag
    neg = nn.predict_class([-np.inf, -3.0])
    assert neg.class_index == 1 and neg.nan_flag
    assert nn.predict_class([np.inf, -np.inf]).class_index == 0


def test_predict_class_empty_rejected():
    with pytest.raises(ValueError):
        nn.predict_class([])
    with pytest.raises(ValueError):
        nn.predict_class(np.zeros((2, 2)))


def test_predict_classes_batch_agrees_with_scalar():
    rng = np.random.default_rng(7)
    logits = rng.standard_normal((64, 6)).astype(np.float32)
    flat = logits.reshape(-1)
    flat[rng.choice(flat.size, 40, replace=False)] = np.nan
    flat[rng.choice(flat.size, 10, replace=False)] = np.inf
    logits[0, :] = np.nan
    classes, flags = nn.predict_classes(logits)
    for i in range(len(logits)):
        single = nn.predict_class(logits[i])
        assert classes[i] == single.class_index
        assert flags[i] == single.nan_flag


# ---------------------------------------------------------------------------
# Gradients vs central finite differences
# ---------------------------------------------------------------------------

GRAD_ARCHS = [
    "input 1x8x8\nconv 3 3x3 stride 1 pad same relu\nmaxpool 2x2 stride 2\n"
    "conv 4 3x3 stride 1 pad valid relu\nflatten\ndense 6 relu\ndense 3 linear\n",
    "input 2x6x6\nconv 2 3x3 stride 2 pad same linear\nflatten\ndense 5 linear\n",
    "input 1x7x7\nmaxpool 3x3 stride 2\nflatten\ndense 4 relu\ndense 2 linear\n",
    "input 1x5x5\nflatten\ndense 8 relu\ndense 4 linear\n",
]


@pytest.mark.parametrize("text", GRAD_ARCHS, ids=["convnet", "strided", "pooled", "mlp"])
def test_gradients_match_finite_differences(text):
    arch = nn.parse_architecture(text)
    model = as_float64(nn.build_model(arch, seed=11))
    rng = np.random.default_rng(13)
    x = rng.random((3, *arch.input_shape))
    y = rng.integers(0, arch.num_classes, size=3)

    _, analytic, _ = nn.loss_and_gradients(model, x, y)

    def loss_fn(m):
        loss, _, _ = nn.loss_and_gradients(m, x, y)
        return loss

    numeric = finite_difference_gradients(loss_fn, model, h=1e-3)
    assert max_relative_error(analytic, numeric) < 1e-2


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def separable_two_class(n_per_class=40, size=6, seed=0):
    rng = np.random.default_rng(seed)
    lo = np.clip(rng.normal(0.2, 0.05, (n_per_class, 1, size, size)), 0, 1)
    hi = np.clip(rng.normal(0.8, 0.05, (n_per_class, 1, size, size)), 0, 1)
    images = np.concatenate([lo, hi]).astype(np.float32)
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    order = rng.permutation(len(labels))
    return ArrayData(images[order], labels[order])


def test_train_reaches_high_accuracy_on_separable_data():
    arch = nn.parse_architecture("input 1x6x6\nflatten\ndense 2 linear\n")
    model = nn.build_model(arch, seed=1)
    data = separable_two_class()
    trained, history = nn.train(
        model, data, nn.TrainConfig(epochs=20, batch_size=16, learning_rate=0.1, seed=2)
    )
    assert history[-1].accuracy >= 0.95
    assert len(history) == 20


def test_train_is_deterministic():
    arch = nn.parse_architecture("input 1x6x6\nflatten\ndense 4 relu\ndense 2 linear\n")
    data = separable_two_class(seed=5)
    cfg = nn.TrainConfig(epochs=3, batch_size=8, learning_rate=0.05, seed=9)
    a, ha = nn.train(nn.build_model(arch, 3), data, cfg)
    b, hb = nn.train(nn.build_model(arch, 3), data, cfg)
    assert all((x == y).all() for x, y in zip(a.params, b.params))
    assert ha == hb


@pytest.mark.parametrize("kwargs, named", [
    ({"epochs": -1}, "epochs"),
    ({"epochs": 1, "batch_size": 0}, "batch_size"),
    ({"epochs": 1, "batch_size": -1}, "batch_size"),
    ({"epochs": 1, "learning_rate": float("nan")}, "learning_rate"),
    ({"epochs": 1, "learning_rate": float("inf")}, "learning_rate"),
])
def test_train_config_rejects_bad_values(kwargs, named):
    with pytest.raises(ValueError, match=named):
        nn.TrainConfig(**kwargs)
    nn.TrainConfig(epochs=0, batch_size=1, learning_rate=-0.0)  # the edges are legal


def test_zero_learning_rate_leaves_parameters_unchanged():
    arch = nn.parse_architecture("input 1x6x6\nflatten\ndense 2 linear\n")
    model = nn.build_model(arch, seed=4)
    before = [t.tobytes() for t in model.params]
    trained, _ = nn.train(
        model, separable_two_class(), nn.TrainConfig(epochs=5, learning_rate=0.0, seed=1)
    )
    assert [t.tobytes() for t in trained.params] == before


def test_train_does_not_mutate_input_model():
    arch = nn.parse_architecture("input 1x6x6\nflatten\ndense 2 linear\n")
    model = nn.build_model(arch, seed=4)
    before = [t.tobytes() for t in model.params]
    nn.train(model, separable_two_class(), nn.TrainConfig(epochs=1, seed=0))
    assert [t.tobytes() for t in model.params] == before


def test_nonfinite_loss_is_reported_not_fatal():
    arch = nn.parse_architecture("input 1x6x6\nflatten\ndense 2 linear\n")
    model = nn.build_model(arch, seed=4)
    model.params[0][:] = np.nan
    trained, history = nn.train(
        model, separable_two_class(), nn.TrainConfig(epochs=2, batch_size=16, seed=0)
    )
    assert history[0].nonfinite_batches > 0
    assert np.isnan(history[0].loss)


def test_label_out_of_range_rejected():
    arch = nn.parse_architecture("input 1x6x6\nflatten\ndense 2 linear\n")
    model = nn.build_model(arch, seed=4)
    bad = separable_two_class()
    bad.labels = bad.labels + 1
    with pytest.raises(ValueError):
        nn.train(model, bad, nn.TrainConfig(epochs=1))


@pytest.mark.parametrize("batch, labels, fault", [
    (4, np.array([-1, 0, 1, 2]), "must lie in"),
    (2, np.array([5, 0]), "must lie in"),
    (2, np.array([0]), "shape|same length"),
    (2, np.array([[0], [1]]), "shape"),
    (2, np.array([0.0, 1.0]), "dtype"),
], ids=["negative", "too-large", "broadcast-length-1", "column", "float"])
def test_bad_labels_rejected_where_every_batch_passes(batch, labels, fault):
    model = nn.build_model(nn.parse_architecture("input 1x4x4\nflatten\ndense 3 linear\n"), seed=0)
    before = [t.copy() for t in model.params]
    images = np.ones((batch, 1, 4, 4), dtype=np.float32)
    with pytest.raises(ValueError, match=fault):
        nn.loss_and_gradients(model, images, labels)
    with pytest.raises(ValueError, match=fault):
        nn.train(model, ArrayData(images, labels), nn.TrainConfig(epochs=1, batch_size=batch))
    assert all(np.array_equal(a, t) for a, t in zip(before, model.params))


@pytest.mark.parametrize("name", ["mnist", "cifar10"])
def test_empty_batch_gets_empty_logits_and_no_loss(name):
    arch = reference_arch(name)
    model = nn.build_model(arch, seed=1)
    empty = np.zeros((0, *arch.input_shape), dtype=np.float32)
    logits = nn.forward_batch(model, empty)
    assert logits.shape == (0, arch.num_classes) and logits.dtype == np.float32
    with pytest.raises(ValueError, match="empty batch"):
        nn.loss_and_gradients(model, empty, np.zeros(0, dtype=np.int64))


def test_empty_dataset_rejected():
    arch = nn.parse_architecture("input 1x6x6\nflatten\ndense 2 linear\n")
    model = nn.build_model(arch, seed=4)
    empty = ArrayData(np.zeros((0, 1, 6, 6), np.float32), np.zeros(0, np.int64))
    with pytest.raises(ValueError):
        nn.train(model, empty, nn.TrainConfig(epochs=1))


def test_epoch_hook_sees_snapshots():
    arch = nn.parse_architecture("input 1x6x6\nflatten\ndense 2 linear\n")
    model = nn.build_model(arch, seed=4)
    seen = []
    nn.train(
        model, separable_two_class(), nn.TrainConfig(epochs=3, seed=0),
        epoch_hook=lambda m, metrics: seen.append((m.param_count, metrics.epoch)),
    )
    assert seen == [(model.param_count, 0), (model.param_count, 1), (model.param_count, 2)]

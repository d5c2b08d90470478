"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. The desk-scale experiments train a real (small) model, so this
module takes a few minutes end to end; every criterion also asserts its own
wall-clock budget.

Set MODELLOCK_MNIST_DIR to a directory holding the standard MNIST IDX files
to additionally run the wrong-key check against real data (optional).
"""

import io
import os
import time

import numpy as np
import pytest

from modellock import cipher, data, harness, locker, nn
from modellock.architectures import fashion_mnist_arch, mnist_arch

from oracles import (
    aes128_encrypt_block,
    finite_difference_gradients,
    max_relative_error,
)
from test_nn import ORACLE_ARCHS, as_float64, oracle_forward

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")

FIPS_EXPANSION = bytes.fromhex(
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


def announce(n, label, detail):
    print(f"\nPASS criterion {n} ({label}): {detail}")


# ---------------------------------------------------------------------------
# Desk-scale fixtures (shared across criteria 3-6)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def desk_train():
    return data.synthetic_dataset(num_classes=10, per_class=250, image_size=28, seed=1001)


@pytest.fixture(scope="session")
def desk_test():
    return data.synthetic_dataset(num_classes=10, per_class=80, image_size=28, seed=1002)


@pytest.fixture(scope="session")
def desk_model(desk_train):
    """MNIST-shaped CNN trained on the synthetic task; returns (model, seconds)."""
    arch = mnist_arch()
    start = time.perf_counter()
    model = nn.build_model(arch, seed=7)
    model, history = nn.train(
        model, desk_train,
        nn.TrainConfig(epochs=10, batch_size=64, learning_rate=0.08, seed=8),
    )
    elapsed = time.perf_counter() - start
    assert history[-1].accuracy > 0.9, "desk model failed to train"
    return model, elapsed


@pytest.fixture(scope="session")
def desk_locked(desk_model):
    model, _ = desk_model
    return locker.lock_model(model, KEY)


# ---------------------------------------------------------------------------
# Criterion 1: cipher conformance
# ---------------------------------------------------------------------------

def test_criterion_1_cipher_conformance():
    start = time.perf_counter()
    assert cipher.expand_keystream(KEY, 176) == FIPS_EXPANSION
    assert len(set(cipher.SBOX)) == 256
    for b in range(256):
        assert cipher.INV_SBOX[cipher.SBOX[b]] == b
    # independent certification of the frozen expansion vector
    ct = aes128_encrypt_block(
        bytes.fromhex("3243f6a8885a308d313198a2e0370734"), FIPS_EXPANSION, cipher.SBOX
    )
    assert ct == bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(1, "cipher conformance",
             f"FIPS-197 expansion vector + S-Box bijectivity in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 2: round-trip exactness
# ---------------------------------------------------------------------------

def test_criterion_2_round_trip_exactness():
    rng = np.random.default_rng(2024)
    specials = np.array(
        [0x7FC00001, 0x7F800000, 0xFF800000, 0x7F800001, 0xFFC00000, 0x80000000],
        dtype=np.uint32,
    )  # quiet/signalling NaNs, +/-Inf, negative zero
    start = time.perf_counter()
    n_blobs = 10_000
    for i in range(n_blobs):
        scalars = int(rng.integers(1, 65))
        words = rng.integers(0, 2**32, size=scalars, dtype=np.uint32)
        if i % 4 == 0:
            hits = rng.integers(0, scalars, size=max(1, scalars // 4))
            words[hits] = rng.choice(specials, size=hits.size)
        blob = words.astype("<u4").tobytes()
        key = rng.bytes(16)
        ks = cipher.expand_keystream(key, len(blob))
        assert cipher.unlock_bytes(cipher.lock_bytes(blob, ks), ks) == blob
    # the same property at the whole-model level, NaN/Inf weights included
    arch = nn.parse_architecture("input 1x6x6\nflatten\ndense 8 relu\ndense 3 linear\n")
    model = nn.build_model(arch, seed=1)
    flat = model.params[0].reshape(-1)
    flat[:6] = np.frombuffer(specials.astype("<u4").tobytes(), dtype="<f4")
    view = locker.unlock_model(locker.lock_model(model, KEY), KEY)
    for a, b in zip(model.params, view.params):
        assert a.tobytes() == b.tobytes()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(2, "round-trip exactness",
             f"{n_blobs} random blobs (NaN/Inf injected) bit-identical in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: correct-key fidelity
# ---------------------------------------------------------------------------

def test_criterion_3_fidelity(desk_model, desk_locked, desk_test):
    model, train_time = desk_model
    start = time.perf_counter()
    assert model.param_count == 86166

    plain = harness.evaluate(model, desk_test)
    unlocked = harness.evaluate(desk_locked, desk_test, key=KEY)
    assert unlocked.accuracy == plain.accuracy  # zero tolerance
    assert unlocked.per_class_correct == plain.per_class_correct

    view = locker.unlock_model(desk_locked, KEY)
    plain_logits = nn.forward_batch(model, desk_test.images)
    view_logits = nn.forward_batch(view, desk_test.images)
    assert plain_logits.tobytes() == view_logits.tobytes()  # per-sample identity

    elapsed = time.perf_counter() - start + train_time
    assert elapsed < 120.0
    announce(3, "fidelity",
             f"locked==plain accuracy {plain.accuracy:.3f} on 86,166-param model, "
             f"{elapsed:.0f}s incl. training")


# ---------------------------------------------------------------------------
# Criterion 4: wrong-key degradation
# ---------------------------------------------------------------------------

def test_criterion_4_wrong_key_degradation(desk_locked, desk_test):
    start = time.perf_counter()
    report = harness.wrong_key_sweep(desk_locked, desk_test, n_keys=100, seed=404,
                                     true_key=KEY)
    elapsed = time.perf_counter() - start
    assert 0.0 <= report.mean <= 0.20, report.mean
    assert elapsed < 300.0
    announce(4, "wrong-key degradation",
             f"mean accuracy {report.mean:.3f} over 100 wrong keys "
             f"(chance 0.10) in {elapsed:.0f}s")


@pytest.mark.skipif("MODELLOCK_MNIST_DIR" not in os.environ,
                    reason="real MNIST IDX files not supplied")
def test_criterion_4_wrong_key_degradation_real_mnist():
    root = os.environ["MODELLOCK_MNIST_DIR"]

    def find(stem):
        for suffix in ("", ".gz"):
            path = os.path.join(root, stem + suffix)
            if os.path.exists(path):
                return path
        pytest.skip(f"{stem} not found under {root}")

    train_ds = data.load_idx_dataset(find("train-images-idx3-ubyte"),
                                     find("train-labels-idx1-ubyte"), name="mnist-train")
    test_ds = data.load_idx_dataset(find("t10k-images-idx3-ubyte"),
                                    find("t10k-labels-idx1-ubyte"), name="mnist-test")
    subset = data.manifest_split(train_ds, 4000 / len(train_ds), seed=1)
    model = nn.build_model(mnist_arch(), seed=7)
    model, _ = nn.train(model, subset,
                        nn.TrainConfig(epochs=2, batch_size=64, learning_rate=0.08, seed=8))
    locked = locker.lock_model(model, KEY)
    report = harness.wrong_key_sweep(locked, test_ds, n_keys=100, seed=404, true_key=KEY)
    assert 0.0 <= report.mean <= 0.20, report.mean
    announce(4, "wrong-key degradation, real MNIST",
             f"mean accuracy {report.mean:.3f} over 100 wrong keys")


# ---------------------------------------------------------------------------
# Criterion 5: fine-tuning resistance
# ---------------------------------------------------------------------------

def test_criterion_5_fine_tuning_resistance(desk_locked, desk_train, desk_test):
    start = time.perf_counter()
    manifest = data.manifest_split(desk_train, 0.10, seed=501)
    wrong_key = harness.generate_wrong_keys(1, seed=502, true_key=KEY)[0]
    cfg = nn.TrainConfig(epochs=50, batch_size=32, learning_rate=0.08, seed=503)

    attack = harness.fine_tune_attack(desk_locked, wrong_key, manifest, desk_test,
                                      cfg, fraction=0.10)
    control = harness.fine_tune_control(desk_locked, 504, manifest, desk_test,
                                        cfg, fraction=0.10)
    elapsed = time.perf_counter() - start

    chance = 1.0 / desk_test.num_classes
    assert attack.final_accuracy <= chance + 0.15, attack.final_accuracy
    assert control.final_accuracy > 0.80, control.final_accuracy
    assert control.final_accuracy - attack.final_accuracy >= 0.30
    assert len(attack.per_epoch_val_accuracy) == 50
    assert elapsed < 600.0
    announce(5, "fine-tuning resistance",
             f"attack {attack.final_accuracy:.3f} vs control {control.final_accuracy:.3f} "
             f"after 50 epochs on a 10% manifest in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 6: latency ordering
# ---------------------------------------------------------------------------

def test_criterion_6_latency_ordering(desk_model, desk_locked, desk_test):
    small_model, _ = desk_model
    big_model = nn.build_model(fashion_mnist_arch(), seed=9)
    big_locked = locker.lock_model(big_model, KEY)
    assert big_locked.param_count > desk_locked.param_count

    small = harness.benchmark_latency(small_model, desk_locked, KEY, desk_test,
                                      n_trials=15, warmup=3)
    big = harness.benchmark_latency(big_model, big_locked, KEY, desk_test,
                                    n_trials=15, warmup=3)

    assert small.overhead_ratio > 1.0
    assert big.overhead_ratio > 1.0
    small_overhead = small.locked_mean - small.plain_mean
    big_overhead = big.locked_mean - big.plain_mean
    assert big_overhead > small_overhead  # absolute overhead grows with n
    announce(6, "latency ordering",
             f"overhead {small_overhead * 1e3:.1f}ms @86k params vs "
             f"{big_overhead * 1e3:.1f}ms @180k params; ratios "
             f"{small.overhead_ratio:.1f}x / {big.overhead_ratio:.1f}x")


# ---------------------------------------------------------------------------
# Criterion 7: engine correctness
# ---------------------------------------------------------------------------

def test_criterion_7_engine_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    for name, text in ORACLE_ARCHS:
        arch = nn.parse_architecture(text)
        model = as_float64(nn.build_model(arch, seed=len(name)))
        x = rng.standard_normal((2, *arch.input_shape))
        got = nn.forward_batch(model, x)
        want = oracle_forward(model, x)
        rel = np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0))
        assert rel < 1e-6, (name, rel)

    worst = 0.0
    for seed in (1, 2):
        arch = nn.parse_architecture(
            "input 1x8x8\nconv 3 3x3 stride 1 pad same relu\nmaxpool 2x2 stride 2\n"
            "conv 4 3x3 stride 1 pad valid relu\nflatten\ndense 6 relu\ndense 3 linear\n"
        )
        model = as_float64(nn.build_model(arch, seed=seed))
        x = rng.random((3, *arch.input_shape))
        y = rng.integers(0, arch.num_classes, size=3)
        _, analytic, _ = nn.loss_and_gradients(model, x, y)

        def loss_fn(m):
            return nn.loss_and_gradients(m, x, y)[0]

        numeric = finite_difference_gradients(loss_fn, model, h=1e-3)
        worst = max(worst, max_relative_error(analytic, numeric))
    assert worst < 1e-2
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    announce(7, "engine correctness",
             f"forward within 1e-6 of brute force, gradients within "
             f"{worst:.1e} of finite differences in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 8: format stability
# ---------------------------------------------------------------------------

def test_criterion_8_format_stability(desk_model):
    model, _ = desk_model
    locked = locker.lock_model(model, KEY)
    buf = io.BytesIO()
    locker.write_locked(locked, buf)
    blob = buf.getvalue()

    reread = locker.read_locked(blob)
    view = locker.unlock_model(reread, KEY)
    original = b"".join(t.tobytes() for t in model.params)
    recovered = b"".join(t.tobytes() for t in view.params)
    assert recovered == original  # lock -> write -> read -> unlock, bit-exact

    with pytest.raises(locker.BadMagicError):
        locker.read_locked(b"ZZZZ" + blob[4:])
    with pytest.raises(locker.DigestMismatchError):
        locker.read_locked(blob[:100] + bytes([blob[100] ^ 1]) + blob[101:])
    with pytest.raises(locker.TruncatedFileError):
        locker.read_locked(blob[: len(blob) // 2])
    announce(8, "format stability",
             f"container round trip bit-exact ({len(blob)} bytes); corruption "
             "produces BadMagic/DigestMismatch/Truncated errors")

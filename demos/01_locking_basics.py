#!/usr/bin/env python3
# Walk through the locking primitive from bytes to whole models.
#
# Locking a byte b under key byte k is SBOX[b ^ k]; unlocking inverts it
# with the inverse table. The keystream comes from chaining AES-128 key
# schedules, so a 16-byte master key covers millions of parameters.

import numpy as np

from modellock import (
    TrainConfig,
    build_model,
    evaluate,
    expand_keystream,
    lock_bytes,
    lock_model,
    parse_architecture,
    synthetic_dataset,
    train,
    unlock_bytes,
    unlock_model,
)

key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")

# --- keystream: deterministic, prefix-consistent, chained key schedules ----
ks = expand_keystream(key, 400)
print("keystream starts with the key itself (round key 0):", ks[:16] == key)
print("bytes 160..176:", ks[160:176].hex())

# --- locking bytes round-trips exactly -------------------------------------
message = b"any bytes at all \x00\xff\x80"
locked = lock_bytes(message, ks)
print("locked bytes:   ", locked.hex())
print("unlock restores:", unlock_bytes(locked, ks) == message)

# --- now a whole model ------------------------------------------------------
arch = parse_architecture("""
input 1x16x16
conv 6 3x3 stride 1 pad valid relu
maxpool 2x2 stride 2
flatten
dense 32 relu
dense 10 linear
""")
train_set = synthetic_dataset(num_classes=10, per_class=60, image_size=16, seed=1)
test_set = synthetic_dataset(num_classes=10, per_class=30, image_size=16, seed=2)

model = build_model(arch, seed=3)
model, history = train(model, train_set, TrainConfig(epochs=8, learning_rate=0.1, seed=4))
print(f"\ntrained {model.param_count} parameters, "
      f"final train accuracy {history[-1].accuracy:.3f}")

locked_model = lock_model(model, key)
print("locked blob bytes:", len(locked_model.blob),
      "(4 bytes per parameter)")

# with the right key the unlock is bit-exact, so accuracy cannot move
plain_report = evaluate(model, test_set)
locked_report = evaluate(locked_model, test_set, key=key)
print(f"plain accuracy:  {plain_report.accuracy:.4f}")
print(f"locked accuracy: {locked_report.accuracy:.4f} (same key, identical by construction)")

view = unlock_model(locked_model, key)
identical = all(
    a.values.tobytes() == b.values.tobytes() for a, b in zip(model.params, view.params)
)
print("unlocked parameters bit-identical:", identical)

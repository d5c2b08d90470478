#!/usr/bin/env python3
# What happens when the key is wrong: the model degrades to a random
# classifier. A wrong keystream turns every parameter into a uniform random
# 32-bit pattern, so roughly 1 in 128 parameters decodes to NaN/Inf and the
# rest land on wildly scaled magnitudes. The forward pass drowns in
# non-finite values and the NaN-aware argmax falls back to class 0.

import numpy as np

from modellock import (
    TrainConfig,
    build_model,
    evaluate,
    generate_wrong_keys,
    lock_model,
    parse_architecture,
    synthetic_dataset,
    train,
    unlock_model,
    wrong_key_sweep,
)

key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")

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
model, _ = train(model, train_set, TrainConfig(epochs=8, learning_rate=0.1, seed=4))
locked = lock_model(model, key)

print(f"correct-key accuracy: {evaluate(locked, test_set, key=key).accuracy:.3f}")

# --- inspect one wrong-key decryption ---------------------------------------
wrong = generate_wrong_keys(1, seed=9, true_key=key)[0]
garbage = unlock_model(locked, wrong)
values = garbage.flat
print(f"\none wrong key decodes {values.size} parameters into:")
print(f"  non-finite fraction: {(~np.isfinite(values)).mean():.4%}"
      f"  (uniform bit patterns give about 1/128)")
finite = values[np.isfinite(values)]
print(f"  |value| median {np.median(np.abs(finite)):.3g}, "
      f"max {np.abs(finite).max():.3g} (trained weights live near 1e-1)")

# --- sweep many wrong keys ---------------------------------------------------
report = wrong_key_sweep(locked, test_set, n_keys=25, seed=11, true_key=key)
print(f"\naccuracy over {report.n_keys} wrong keys: "
      f"mean {report.mean:.3f}, min {report.min:.3f}, max {report.max:.3f}")
print(f"chance level on this balanced 10-class set: 0.100")
print(f"predictions that involved non-finite logits: {report.mean_nan_fraction:.1%}")

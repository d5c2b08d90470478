"""The benchmark's span tracer still finds and wraps the functions it times.

``perfbench/spans.py`` replaces package functions by attribute name and its
per-layer metrics look spans up by name, so a rename or a call that no longer
goes through the traced attribute would only surface in a traced benchmark
run. These tests install the tracer on one locked query and one backward pass,
on the CLI's lock and unlock-check of a small model, and on one pass of the
sweep and fine-tuning families, whose per-layer metrics also read the work
size each traced call records from its positional arguments.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

from modellock import cli, data, harness, locker, nn
from modellock.architectures import reference_arch

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_query_and_backward_record_the_benchmark_spans():
    spans = load_spans()
    model = nn.build_model(reference_arch("mnist"), seed=7)
    key = bytes(range(16))
    locked = locker.lock_model(model, key)
    x = np.zeros((2, *model.arch.input_shape), dtype=np.float32)
    original_forward = nn.forward
    tracer = spans.Tracer()
    tracer.install()
    try:
        for _ in range(3):
            tracer.begin_op("query_locked")
            nn.forward(locker.unlock_model(locked, key), x[0])
            tracer.end_op()
        nn.loss_and_gradients(model, x, np.array([0, 1]))
    finally:
        tracer.uninstall()
    assert nn.forward is original_forward

    names = [s[spans.NAME] for s in tracer.spans]
    parent_of = {s[spans.NAME]: names[s[spans.PARENT]] for s in tracer.spans if s[spans.PARENT] >= 0}
    for name in ("locker.unlock_model", "cipher.expand_keystream", "cipher.unlock_bytes",
                 "locker.verify_digest", "nn.forward", "nn.forward_batch",
                 "nn.loss_and_gradients"):
        assert name in names, name
    assert parent_of["locker.verify_digest"] == "locker.unlock_model"
    # every unlock still reports its digest check, hashed or not
    assert names.count("locker.verify_digest") == names.count("locker.unlock_model") == 3
    queries = {op for op, name in enumerate(tracer.ops) if name == "query_locked"}
    assert all(s[spans.OP] in queries for s in tracer.spans
               if s[spans.NAME] in ("locker.unlock_model", "nn.forward", "nn.forward_batch"))


def test_traced_cli_provision_records_the_benchmark_spans(tmp_path):
    spans = load_spans()
    model = nn.build_model(nn.parse_architecture("input 1x4x4\nflatten\ndense 3 linear\n"), seed=0)
    plain, locked = tmp_path / "m.dlm", tmp_path / "m.dlk"
    locker.write_model(model, plain)
    key = bytes(range(16)).hex()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op, argv in (("lock", ["lock", str(plain), "--key", key, "--out", str(locked)]),
                         ("unlock_check", ["unlock-check", str(locked), "--key", key])):
            tracer.begin_op(op)
            assert cli.main(argv) == 0
            tracer.end_op()
    finally:
        tracer.uninstall()

    recorded = {(tracer.ops[s[spans.OP]], s[spans.NAME]) for s in tracer.spans}
    for op, name in (("lock", "locker.read_model"), ("lock", "locker.lock_model"),
                     ("lock", "cipher.expand_keystream"),
                     ("lock", "cipher.lock_bytes"), ("lock", "locker.write_locked"),
                     ("unlock_check", "locker.read_locked"),
                     ("unlock_check", "locker.unlock_model"),
                     ("unlock_check", "locker.verify_digest"),
                     ("unlock_check", "cipher.expand_keystream"),
                     ("unlock_check", "cipher.unlock_bytes")):
        assert (op, name) in recorded, (op, name)
    # lock_model's result is checked already, so writing it records no digest
    # check that locker.verify_digest.calls_per_unlock would count
    assert ("lock", "locker.verify_digest") not in recorded


def test_traced_sweep_and_attack_families_record_the_benchmark_spans():
    spans = load_spans()
    arch = nn.parse_architecture("input 1x8x8\nconv 3 3x3 stride 1 pad valid relu\n"
                                 "maxpool 2x2 stride 2\nflatten\ndense 4 linear\n")
    model = nn.build_model(arch, seed=3)
    key, wrong_key = bytes(range(16)), bytes(range(1, 17))
    locked = locker.lock_model(model, key)
    test_ds = data.synthetic_dataset(num_classes=4, per_class=5, image_size=8, seed=1)
    manifest = data.synthetic_dataset(num_classes=4, per_class=3, image_size=8, seed=2)
    cfg = nn.TrainConfig(epochs=1, batch_size=5, seed=4)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op, run in (
            ("sweep_right", lambda: harness.evaluate(locked, test_ds, key=key, batch_size=8)),
            ("sweep_wrong", lambda: harness.wrong_key_sweep(locked, test_ds, n_keys=1, seed=5,
                                                            true_key=key, batch_size=8)),
            ("attack", lambda: harness.fine_tune_attack(locked, wrong_key, manifest, test_ds, cfg)),
            ("control", lambda: harness.fine_tune_control(locked, 6, manifest, test_ds, cfg)),
        ):
            tracer.begin_op(op)
            run()
            tracer.end_op()
    finally:
        tracer.uninstall()

    names = [s[spans.NAME] for s in tracer.spans]
    calls = {}
    for s in tracer.spans:
        if s[spans.NAME] != "op":
            calls.setdefault((tracer.ops[s[spans.OP]], s[spans.NAME]), []).append(
                (names[s[spans.PARENT]], s[spans.SIZE]))
    # each forward of an evaluation pass, recorded under it with its batch size;
    # the fine-tuning arms evaluate each epoch's model in one default-size batch
    for op, sizes in (("sweep_right", [8, 8, 4]), ("sweep_wrong", [8, 8, 4]),
                      ("attack", [20]), ("control", [20])):
        batches = calls[op, "nn.forward_batch"]
        assert {parent for parent, _ in batches} == {"harness.evaluate"}, op
        assert [size for _, size in batches] == sizes, op
    for op in ("sweep_right", "sweep_wrong", "attack"):
        assert [size for _, size in calls[op, "cipher.expand_keystream"]] == [4 * arch.param_count]
    assert [parent for parent, _ in calls["sweep_wrong", "harness.evaluate"]] == [
        "harness.wrong_key_sweep"]
    for op in ("attack", "control"):
        assert calls[op, f"harness.fine_tune_{op}"] == [("op", None)]
        assert calls[op, "nn.train"] == [(f"harness.fine_tune_{op}", cfg.epochs)]
        steps = calls[op, "nn.loss_and_gradients"]
        assert {parent for parent, _ in steps} == {"nn.train"}
        assert [size for _, size in steps] == [5, 5, 2]

    index = spans._Index(tracer)
    for name in ("nn.forward_batch.us_per_image.right", "nn.forward_batch.us_per_image.wrong",
                 "nn.forward_batch.us_per_image.val",
                 "nn.loss_and_gradients.us_per_sample.attack",
                 "nn.loss_and_gradients.us_per_sample.control",
                 "nn.train.self_ms_per_epoch.attack", "nn.train.self_ms_per_epoch.control",
                 "harness.evaluate.self_ms.right", "harness.evaluate.self_ms.wrong",
                 "harness.evaluate.self_ms.val", "harness.wrong_key_sweep.self_ms",
                 "harness.fine_tune_attack.self_ms", "harness.fine_tune_control.self_ms"):
        value = spans.LAYER_METRICS[name][1](index)
        assert math.isfinite(value) and value > 0, name

"""The benchmark's span tracer still finds and wraps the functions it times.

``perfbench/spans.py`` replaces package functions by attribute name and its
per-layer metrics look spans up by name, so a rename or a call that no longer
goes through the traced attribute would only surface in a traced benchmark
run. These tests install the tracer on one locked query and one backward pass,
and on the CLI's lock and unlock-check of a small model.
"""

import importlib.util
from pathlib import Path

import numpy as np

from modellock import cli, locker, nn
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
    query = tracer.ops.index("query_locked")
    assert all(s[spans.OP] == query for s in tracer.spans
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
                     ("unlock_check", "locker.verify_digest"),
                     ("unlock_check", "cipher.expand_keystream")):
        assert (op, name) in recorded, (op, name)

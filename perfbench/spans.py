"""Span tracing around modellock's public functions, recorded from outside the package.

``Tracer.install`` replaces each function in ``TARGETS`` at the module (or
class) attribute its callers look up at call time, with a wrapper that
records a span: name, start, end, parent span and the benchmark operation it
ran under. ``Tracer.uninstall`` puts the originals back, so untraced work
runs the package exactly as shipped. Spans stay in memory until the run
ends; per-layer metrics are computed from them by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

from modellock import cli, data, harness, locker, nn

# (span name, owner whose attribute callers look up, attribute, work size of one call)
TARGETS = [
    ("cipher.expand_keystream", locker, "expand_keystream", lambda a, k: a[1]),
    ("cipher.lock_bytes", locker, "lock_bytes", None),
    ("cipher.unlock_bytes", locker, "unlock_bytes", None),
    ("locker.lock_model", locker, "lock_model", None),
    ("locker.unlock_model", locker, "unlock_model", None),
    ("locker.unlock_model", harness, "unlock_model", None),
    ("locker.verify_digest", locker.LockedModel, "verify_digest", None),
    ("locker.write_locked", locker, "write_locked", None),
    ("locker.read_locked", locker, "read_locked", None),
    ("locker.write_model", locker, "write_model", None),
    ("locker.read_model", locker, "read_model", None),
    ("nn.build_model", nn, "build_model", None),
    ("nn.forward", nn, "forward", None),
    ("nn.forward_batch", nn, "forward_batch", lambda a, k: len(a[1])),
    ("nn.loss_and_gradients", nn, "loss_and_gradients", lambda a, k: len(a[1])),
    ("nn.train", nn, "train", lambda a, k: a[2].epochs),
    ("harness.evaluate", harness, "evaluate", None),
    ("harness.wrong_key_sweep", harness, "wrong_key_sweep", None),
    ("harness.fine_tune_attack", harness, "fine_tune_attack", None),
    ("harness.fine_tune_control", harness, "fine_tune_control", None),
    ("data.synthetic_dataset", data, "synthetic_dataset", None),
    ("data.manifest_split", data, "manifest_split", None),
    ("cli.main", cli, "main", None),
]

MODULES = ("cipher", "locker", "nn", "harness", "data", "cli")

# Span fields, kept as lists so a span can be closed in place.
NAME, START, END, PARENT, OP, SIZE = range(6)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[str] = []  # op id -> benchmark operation name
        self.scale: list[float] = []  # op id -> factor to the nominal host speed
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self) -> None:
        if self._originals:
            return
        for name, owner, attr, size in TARGETS:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, size))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def begin_op(self, name: str) -> int:
        """Open the root span of one benchmark operation; returns its op id."""
        op = len(self.ops)
        self.ops.append(name)
        self.scale.append(1.0)
        self._open("op", op, None)
        return op

    def end_op(self) -> None:
        self._close()

    def _open(self, name, op, size) -> None:
        parent = self._stack[-1] if self._stack else -1
        if op is None:
            op = self.spans[parent][OP] if parent >= 0 else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, op, size])

    def _close(self) -> None:
        self.spans[self._stack.pop()][END] = time.perf_counter()

    def _wrap(self, name, fn, size):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name, None, size(args, kwargs) if size else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return traced


class _Index:
    """Scaled durations and self times of recorded spans, grouped for lookups."""

    def __init__(self, tracer: Tracer):
        spans = [[s[NAME], s[START], s[START] + (s[END] - s[START]) * tracer.scale[s[OP]],
                  s[PARENT], s[OP], s[SIZE]] if s[OP] >= 0 else s for s in tracer.spans]
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self.ops = tracer.ops
        self.op_count = defaultdict(int)
        for name in self.ops:
            self.op_count[name] += 1
        # (span name, op name) -> list of (duration, self time, size, parent name)
        self.calls = defaultdict(list)
        for i, s in enumerate(spans):
            if s[OP] < 0 or s[NAME] == "op":
                continue
            dur = s[END] - s[START]
            parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
            self.calls[s[NAME], self.ops[s[OP]]].append((dur, dur - child[i], s[SIZE], parent))
        self.module_self = defaultdict(lambda: defaultdict(float))
        self.op_time = defaultdict(float)
        for i, s in enumerate(spans):
            if s[OP] < 0:
                continue
            op = self.ops[s[OP]]
            module = "bench" if s[NAME] == "op" else s[NAME].split(".")[0]
            self.module_self[op][module] += s[END] - s[START] - child[i]
            if s[NAME] == "op":
                self.op_time[op] += s[END] - s[START]

    def _select(self, name, ops, parent=None):
        rows = [r for op in ops for r in self.calls[name, op]]
        if parent is not None:
            rows = [r for r in rows if r[3] == parent]
        if not rows:
            raise LookupError(f"no traced {name} calls under {ops}")
        return rows

    def per_op(self, name, ops, field=0):
        """Mean time in ``name`` per traced operation of the given kinds (s)."""
        total = sum(r[field] for r in self._select(name, ops))
        return total / sum(self.op_count[op] for op in ops)

    def per_call(self, name, ops, field=0, parent=None):
        """Mean time of one ``name`` call under the given kinds (s)."""
        rows = self._select(name, ops, parent)
        return sum(r[field] for r in rows) / len(rows)

    def per_unit(self, name, ops, field=0, parent=None):
        """Time in ``name`` per unit of its recorded work size (s)."""
        rows = self._select(name, ops, parent)
        return sum(r[field] for r in rows) / sum(r[2] for r in rows)

    def count(self, name, ops):
        return len(self._select(name, ops))

    def size(self, name, ops):
        return sum(r[2] for r in self._select(name, ops))


QUERY, PLAIN = ["query_locked"], ["query_plain"]
RIGHT, WRONG = ["sweep_right"], ["sweep_wrong"]
ATTACK, CONTROL, VAL = ["attack"], ["control"], ["attack", "control"]
LOCK, CHECK = ["lock"], ["unlock_check"]
PROVISION = LOCK + CHECK
SETUP = ["setup"]
ALL_OPS = QUERY + PLAIN + RIGHT + WRONG + VAL + PROVISION

SELF = 1
MS, US = 1e3, 1e6

# name -> (unit, function of an _Index). Each reads only spans recorded around
# the package's public functions, grouped by the benchmark operation they ran in.
LAYER_METRICS = {
    "cipher.expand_keystream.ms.query": ("ms", lambda x: MS * x.per_op("cipher.expand_keystream", QUERY)),
    "cipher.expand_keystream.ms.sweep": ("ms", lambda x: MS * x.per_op("cipher.expand_keystream", WRONG)),
    "cipher.expand_keystream.ms.provision": ("ms", lambda x: MS * x.per_op("cipher.expand_keystream", PROVISION)),
    "cipher.expand_keystream.calls": ("count", lambda x: x.count("cipher.expand_keystream", ALL_OPS)),
    "cipher.expand_keystream.bytes": ("bytes", lambda x: x.size("cipher.expand_keystream", ALL_OPS)),
    "cipher.unlock_bytes.ms.query": ("ms", lambda x: MS * x.per_op("cipher.unlock_bytes", QUERY)),
    "cipher.unlock_bytes.ms.provision": ("ms", lambda x: MS * x.per_op("cipher.unlock_bytes", CHECK)),
    "cipher.lock_bytes.ms.provision": ("ms", lambda x: MS * x.per_op("cipher.lock_bytes", LOCK)),
    "locker.unlock_model.self_ms.query": ("ms", lambda x: MS * x.per_op("locker.unlock_model", QUERY, SELF)),
    "locker.unlock_model.self_ms.provision": ("ms", lambda x: MS * x.per_op("locker.unlock_model", CHECK, SELF)),
    "locker.verify_digest.ms.query": ("ms", lambda x: MS * x.per_op("locker.verify_digest", QUERY)),
    "locker.verify_digest.ms.provision": ("ms", lambda x: MS * x.per_op("locker.verify_digest", CHECK)),
    "locker.verify_digest.calls_per_unlock": (
        "ratio", lambda x: x.count("locker.verify_digest", ALL_OPS) / x.count("locker.unlock_model", ALL_OPS)),
    "locker.lock_model.self_ms": ("ms", lambda x: MS * x.per_op("locker.lock_model", LOCK, SELF)),
    "locker.write_locked.ms": ("ms", lambda x: MS * x.per_op("locker.write_locked", LOCK)),
    "locker.read_locked.ms": ("ms", lambda x: MS * x.per_op("locker.read_locked", CHECK)),
    "locker.read_model.ms": ("ms", lambda x: MS * x.per_op("locker.read_model", LOCK)),
    "nn.forward.ms.plain": ("ms", lambda x: MS * x.per_op("nn.forward", PLAIN)),
    "nn.forward.ms.locked": ("ms", lambda x: MS * x.per_op("nn.forward", QUERY)),
    "nn.forward_batch.us_per_image.right": (
        "us/image", lambda x: US * x.per_unit("nn.forward_batch", RIGHT, parent="harness.evaluate")),
    "nn.forward_batch.us_per_image.wrong": (
        "us/image", lambda x: US * x.per_unit("nn.forward_batch", WRONG, parent="harness.evaluate")),
    "nn.forward_batch.us_per_image.val": (
        "us/image", lambda x: US * x.per_unit("nn.forward_batch", VAL, parent="harness.evaluate")),
    "nn.loss_and_gradients.us_per_sample.attack": (
        "us/sample", lambda x: US * x.per_unit("nn.loss_and_gradients", ATTACK)),
    "nn.loss_and_gradients.us_per_sample.control": (
        "us/sample", lambda x: US * x.per_unit("nn.loss_and_gradients", CONTROL)),
    "nn.train.self_ms_per_epoch.attack": ("ms/epoch", lambda x: MS * x.per_unit("nn.train", ATTACK, SELF)),
    "nn.train.self_ms_per_epoch.control": ("ms/epoch", lambda x: MS * x.per_unit("nn.train", CONTROL, SELF)),
    "harness.evaluate.self_ms.right": ("ms", lambda x: MS * x.per_call("harness.evaluate", RIGHT, SELF)),
    "harness.evaluate.self_ms.wrong": ("ms", lambda x: MS * x.per_call("harness.evaluate", WRONG, SELF)),
    "harness.evaluate.self_ms.val": ("ms", lambda x: MS * x.per_call("harness.evaluate", VAL, SELF)),
    "harness.wrong_key_sweep.self_ms": ("ms", lambda x: MS * x.per_op("harness.wrong_key_sweep", WRONG, SELF)),
    "harness.fine_tune_attack.self_ms": ("ms", lambda x: MS * x.per_op("harness.fine_tune_attack", ATTACK, SELF)),
    "harness.fine_tune_control.self_ms": (
        "ms", lambda x: MS * x.per_op("harness.fine_tune_control", CONTROL, SELF)),
    "data.synthetic_dataset.ms": ("ms", lambda x: MS * x.per_op("data.synthetic_dataset", SETUP)),
    "data.manifest_split.ms": ("ms", lambda x: MS * x.per_op("data.manifest_split", SETUP)),
    "cli.main.self_ms.lock": ("ms", lambda x: MS * x.per_op("cli.main", LOCK, SELF)),
    "cli.main.self_ms.unlock_check": ("ms", lambda x: MS * x.per_op("cli.main", CHECK, SELF)),
}

# Operation whose traced/untraced latency ratio reports each op family's tracing overhead.
OVERHEAD_OPS = {"query": "query_locked", "sweep": "sweep_wrong", "attack": "attack", "provision": "unlock_check"}


def layer_metrics(tracer: Tracer, traced: dict, untraced: dict) -> tuple[dict, dict]:
    """Per-layer metrics and each operation's blocking-path share by module.

    ``traced`` and ``untraced`` map operation names to the latencies (s) of
    the operations run with and without tracing installed.
    """
    index = _Index(tracer)
    metrics = {name: {"value": fn(index), "unit": unit} for name, (unit, fn) in LAYER_METRICS.items()}
    for family, op in OVERHEAD_OPS.items():
        ratio = statistics.median(traced[op]) / statistics.median(untraced[op])
        metrics[f"trace.overhead_ratio.{family}"] = {"value": ratio, "unit": "ratio"}
    shares = {}
    for op, modules in index.module_self.items():
        total = index.op_time[op]
        shares[op] = {m: modules.get(m, 0.0) / total for m in MODULES + ("bench",)}
    return metrics, shares


def overhead_ms(traced: dict, untraced: dict) -> dict:
    """Traced minus untraced median latency (ms) of each operation."""
    return {op: MS * (statistics.median(traced[op]) - statistics.median(untraced[op]))
            for op in traced if traced[op] and untraced.get(op)}

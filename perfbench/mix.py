"""Set-up, operations, correctness checks and the closed-loop scheduler.

Four operation families reproduce the paper's experiments on one shared
fixture:

- ``query``: batch-1 queries on the mnist model. Each cycle runs four plain
  queries and four locked ones (keystream, S-Box unlock, digest, forward);
  three locked queries present the right key and one a fresh wrong key.
- ``sweep``: one right-key evaluation pass and one fresh-wrong-key sweep
  pass over the 800-image test set at batch 256.
- ``attack``: the fine-tuning attack from a wrong-key start and its control
  arm from a fresh init, each for ``ATTACK_EPOCHS`` epochs on a 10% manifest.
- ``provision``: ``modellock lock`` then ``modellock unlock-check`` on the
  cifar10 reference model, in-process through ``cli.main``, with a fresh
  licensee key each cycle.

Every run must report every end-to-end metric, so every workload runs all
four families in one closed loop with a single caller: the next cycle goes
to the family with the least measured time relative to its share, and the
named workload's family gets the largest share.

Operation times are reported scaled to a nominal host speed. On a shared
host, other tenants slow every kind of code here by up to 1.8x for seconds
to minutes at a time, which no number of samples averages out. So each
operation is bracketed by ``reference_probe``, a fixed loop that does not
touch the package, and its time is multiplied by
``NOMINAL_PROBE_S / (mean of the two probe times)``. A change to the package
moves the operation but not the probe; host contention moves both.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from modellock import cipher, cli, data, harness, locker, nn
from modellock.architectures import cifar10_arch, mnist_arch

# Share of the measured time each family gets when it is not the workload's
# own, sized so that every family completes enough cycles for a steady median.
# The workload's own family also gets the remainder.
BASE_SHARES = {"query": 0.10, "sweep": 0.10, "attack": 0.30, "provision": 0.25}
FAMILIES = tuple(BASE_SHARES)

# Time of reference_probe on an idle core of the reference host (x86-64,
# Python 3.11, numpy 2.4); scaled times read as milliseconds on that host.
NOMINAL_PROBE_S = 0.6e-3
_PROBE_A = np.linspace(0.0, 1.0, 96 * 96).reshape(96, 96)
_PROBE_B = np.linspace(-1.0, 1.0, 16384, dtype=np.float32)

# The mnist model is the same in every run: fixed data, init and training seeds.
TRAIN_PER_CLASS = 40
MODEL_SEED = 7
TRAIN_DATA_SEED = 1
TRAIN_CONFIG = nn.TrainConfig(epochs=3, batch_size=32, learning_rate=0.08, seed=8)
MIN_RIGHT_KEY_ACCURACY = 0.5  # far above the 0.1 chance level, so the wrong-key drop is a real check

TEST_PER_CLASS = 80  # 800 test images
POOL_PER_CLASS = 250  # 2500-image pool for the 10% attack manifest
MANIFEST_FRACTION = 0.10
ATTACK_EPOCHS = 3
ATTACK_BATCH = 32
ATTACK_LR = 0.05
QUERIES_PER_CYCLE = 4  # the last locked query of each cycle presents a wrong key
SWEEP_BOUND = 0.20  # acceptance criterion 4
ATTACK_MARGIN = 0.15  # attack arm must stay within chance + this
MIN_CYCLES = 2  # per family, so a traced run has traced and untraced cycles of each


def reference_probe() -> float:
    """Seconds taken by a fixed mix of interpreter and small numpy work.

    The fastest of three runs, so that a single interruption of a fraction
    of a millisecond cannot pass for a slow host.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0x9E3779B9
        for i in range(3000):
            x = ((x << 5) ^ (x >> 3) ^ i) & 0xFFFFFFFF
        for _ in range(4):
            (_PROBE_A @ _PROBE_A).sum()
            np.maximum(_PROBE_B, 0.5).sum()
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(fn, *args, **kwargs):
    """Run ``fn`` between two probes; returns (result, seconds, scale).

    ``seconds * scale`` is the time at the nominal host speed.
    """
    before = reference_probe()
    t0 = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    finally:
        seconds = time.perf_counter() - t0
        after = reference_probe()
    return result, seconds, NOMINAL_PROBE_S / ((before + after) / 2)


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def derive_key(*parts: int) -> bytes:
    return np.random.default_rng(derive_seed(*parts)).bytes(cipher.KEY_LEN)


@dataclass
class Fixture:
    model: nn.Model
    key: bytes
    locked: locker.LockedModel
    test_set: data.Dataset
    manifest: data.Dataset
    plain_report: harness.EvalReport
    cifar_model: nn.Model
    dlm_path: str
    dlk_path: str


def set_up(seed: int, workdir: str) -> Fixture:
    """Everything the operations need; the benchmark's ``setup_s`` times this."""
    train_set = data.synthetic_dataset(per_class=TRAIN_PER_CLASS, seed=TRAIN_DATA_SEED)
    model, _ = nn.train(nn.build_model(mnist_arch(), seed=MODEL_SEED), train_set, TRAIN_CONFIG)
    test_set = data.synthetic_dataset(per_class=TEST_PER_CLASS, seed=derive_seed(seed, 1))
    pool = data.synthetic_dataset(per_class=POOL_PER_CLASS, seed=derive_seed(seed, 2))
    manifest = data.manifest_split(pool, MANIFEST_FRACTION, seed=derive_seed(seed, 3))
    key = derive_key(seed, 4)
    locked = locker.lock_model(model, key)
    plain_report = harness.evaluate(model, test_set)
    if plain_report.accuracy < MIN_RIGHT_KEY_ACCURACY:
        raise RuntimeError(f"set-up model reaches only {plain_report.accuracy:.3f} accuracy")
    cifar_model = nn.build_model(cifar10_arch(), seed=derive_seed(seed, 5))
    dlm_path = os.path.join(workdir, "cifar10.dlm")
    locker.write_model(cifar_model, dlm_path)
    return Fixture(model, key, locked, test_set, manifest, plain_report, cifar_model,
                   dlm_path, os.path.join(workdir, "cifar10.dlk"))


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _report_fields(report) -> str:
    d = asdict(report)
    del d["subject"], d["unlock_mode"]
    return json.dumps(d, sort_keys=True)


class Runner:
    """Runs timed operations, counts attempts and failures, keeps latencies.

    ``traced`` and ``untraced`` hold scaled seconds per operation name;
    ``raw`` holds the unscaled seconds of all of them.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.tracing = False
        self.traced: dict[str, list[float]] = {}
        self.untraced: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.errors: list[str] = []

    def op(self, name: str, fn, *args, **kwargs):
        """Time one operation. Returns (ok, result, seconds); ok is False if it raised."""
        self.attempted[name] = self.attempted.get(name, 0) + 1
        if self.tracing:
            fn = self._in_span(name, fn)
        t0 = time.perf_counter()
        try:
            result, seconds, scale = scaled(fn, *args, **kwargs)
        except Exception as exc:  # an operation that raises is counted as failed
            self.fail(name, f"{type(exc).__name__}: {exc}")
            return False, None, time.perf_counter() - t0
        if self.tracing:
            self.tracer.scale[-1] = scale
        (self.traced if self.tracing else self.untraced).setdefault(name, []).append(seconds * scale)
        self.raw.setdefault(name, []).append(seconds)
        return True, result, seconds

    def _in_span(self, name: str, fn):
        def call(*args, **kwargs):
            self.tracer.begin_op(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.tracer.end_op()
        return call

    def fail(self, name: str, message: str) -> None:
        self.failed[name] = self.failed.get(name, 0) + 1
        if len(self.errors) < 20:
            self.errors.append(f"{name}: {message}")

    def verify(self, name: str, fn, *args) -> None:
        """Run an untimed output check; a failed check fails the operation."""
        try:
            fn(*args)
        except Exception as exc:
            self.fail(name, f"{type(exc).__name__}: {exc}")

    def samples(self, name: str) -> list[float]:
        return self.untraced.get(name, []) + self.traced.get(name, [])


class Family:
    """One operation family: its cycles, their checks, and an output digest.

    The digest covers cycle 0, whose inputs depend on the seed alone, so two
    builds that compute the same outputs print the same digest.
    """

    name = ""

    def __init__(self, fx: Fixture, seed: int, runner: Runner):
        self.fx, self.seed, self.runner = fx, seed, runner
        self.cycles = 0
        self.busy = 0.0
        self.digest = hashlib.sha256()

    def run_cycle(self) -> None:
        self.busy += self.cycle(self.cycles)
        self.cycles += 1

    def record(self, cycle: int, *parts: bytes) -> None:
        if cycle == 0:
            for part in parts:
                self.digest.update(part)


class Query(Family):
    name = "query"

    def cycle(self, i: int) -> float:
        fx, run = self.fx, self.runner
        busy = 0.0
        for j in range(QUERIES_PER_CYCLE):
            x = fx.test_set.images[(QUERIES_PER_CYCLE * i + j) % len(fx.test_set)]
            right = j < QUERIES_PER_CYCLE - 1
            key = fx.key if right else derive_key(self.seed, 10, i)
            ok_p, plain, dt = run.op("query_plain", nn.forward, fx.model, x)
            busy += dt
            ok_l, pred, dt = run.op("query_locked", _locked_query, fx.locked, key, x)
            busy += dt
            if ok_p and ok_l:
                run.verify("query_locked", _check_query, plain, pred, right)
                self.record(i, plain.logits.tobytes(), pred.logits.tobytes())
        return busy


def _locked_query(locked, key, x):
    return nn.forward(locker.unlock_model(locked, key), x)


def _check_query(plain, pred, right: bool) -> None:
    same = plain.logits.tobytes() == pred.logits.tobytes()
    check(same == right, "right-key logits differ from plain" if right else "wrong-key logits equal plain")


class Sweep(Family):
    name = "sweep"

    def cycle(self, i: int) -> float:
        fx, run = self.fx, self.runner
        ok, report, dt_right = run.op("sweep_right", harness.evaluate, fx.locked, fx.test_set, key=fx.key)
        if ok:
            run.verify("sweep_right", _check_equal_reports, report, fx.plain_report)
            self.record(i, _report_fields(report).encode())
        ok, sweep, dt_wrong = run.op("sweep_wrong", harness.wrong_key_sweep, fx.locked, fx.test_set,
                                     n_keys=1, seed=derive_seed(self.seed, 11, i), true_key=fx.key)
        if ok:
            run.verify("sweep_wrong", _check_sweep, sweep)
            self.record(i, json.dumps(asdict(sweep), sort_keys=True).encode())
        return dt_right + dt_wrong


def _check_equal_reports(report, plain_report) -> None:
    check(_report_fields(report) == _report_fields(plain_report), "right-key report differs from plain")


def _check_sweep(sweep) -> None:
    check(sweep.mean <= SWEEP_BOUND, f"wrong-key accuracy {sweep.mean:.3f} above {SWEEP_BOUND}")


class Attack(Family):
    name = "attack"

    def cycle(self, i: int) -> float:
        fx, run = self.fx, self.runner
        cfg = nn.TrainConfig(epochs=ATTACK_EPOCHS, batch_size=ATTACK_BATCH,
                             learning_rate=ATTACK_LR, seed=derive_seed(self.seed, 12, i))
        wrong_key = derive_key(self.seed, 13, i)
        ok_a, attack, dt_a = run.op("attack", harness.fine_tune_attack, fx.locked, wrong_key,
                                    fx.manifest, fx.test_set, cfg, fraction=MANIFEST_FRACTION)
        if ok_a:
            run.verify("attack", _check_attack, attack, fx.test_set.num_classes)
        ok_c, control, dt_c = run.op("control", harness.fine_tune_control, fx.locked,
                                     derive_seed(self.seed, 14, i), fx.manifest, fx.test_set, cfg,
                                     fraction=MANIFEST_FRACTION)
        if ok_a and ok_c:
            run.verify("control", _check_control, control, attack)
            self.record(i, json.dumps([asdict(attack), asdict(control)], sort_keys=True).encode())
        return dt_a + dt_c


def _check_attack(attack, num_classes: int) -> None:
    bound = 1.0 / num_classes + ATTACK_MARGIN
    check(attack.final_accuracy <= bound, f"attack reached {attack.final_accuracy:.3f} > {bound:.3f}")


def _check_control(control, attack) -> None:
    check(control.final_accuracy > attack.final_accuracy,
          f"control {control.final_accuracy:.3f} not above attack {attack.final_accuracy:.3f}")


class Provision(Family):
    name = "provision"

    def cycle(self, i: int) -> float:
        fx, run = self.fx, self.runner
        hex_key = derive_key(self.seed, 15, i).hex()
        ok_l, out_l, dt_l = run.op("lock", _cli, ["lock", fx.dlm_path, "--key", hex_key, "--out", fx.dlk_path])
        ok_u, out_u, dt_u = run.op("unlock_check", _cli, ["unlock-check", fx.dlk_path, "--key", hex_key])
        if ok_l:
            run.verify("lock", _check_cli, out_l, None)
        if ok_u:
            run.verify("unlock_check", _check_cli, out_u, "finite decoded values: 100.0000%")
        if ok_l and ok_u:
            with open(fx.dlk_path, "rb") as fh:
                read = fh.read()
            run.verify("unlock_check", _check_locked_file, read, fx.cifar_model, bytes.fromhex(hex_key))
            self.record(i, read, out_u[1].encode())
        return dt_l + dt_u


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_cli(result: tuple[int, str], expected_line: Optional[str]) -> None:
    code, out = result
    check(code == 0, f"exit code {code}")
    if expected_line is not None:
        check(expected_line in out.splitlines(), f"missing {expected_line!r}")


def _check_locked_file(read: bytes, model: nn.Model, key: bytes) -> None:
    expected = io.BytesIO()
    locker.write_locked(locker.lock_model(model, key), expected)
    check(read == expected.getvalue(), "DLK1 file differs from the in-process lock")


FAMILY_TYPES = {cls.name: cls for cls in (Query, Sweep, Attack, Provision)}


def shares(primary: str) -> dict[str, float]:
    out = dict(BASE_SHARES)
    out[primary] += 1.0 - sum(BASE_SHARES.values())
    return out


def run_loop(primary: str, fx: Fixture, seed: int, seconds: float, runner: Runner,
             tracer=None) -> dict[str, Family]:
    """Closed loop until the families' measured time reaches ``seconds``.

    With a tracer, every other cycle of each family runs traced, so the same
    run also measures untraced latencies to compare against.
    """
    weights = shares(primary)
    families = {f: FAMILY_TYPES[f](fx, seed, runner) for f in FAMILIES}
    while (sum(f.busy for f in families.values()) < seconds
           or min(f.cycles for f in families.values()) < MIN_CYCLES):
        family = min(families.values(), key=lambda f: f.busy / weights[f.name])
        runner.tracing = tracer is not None and family.cycles % 2 == 0
        if runner.tracing:
            tracer.install()
        try:
            family.run_cycle()
        finally:
            if tracer is not None:
                tracer.uninstall()
            runner.tracing = False
    return families


def quantile(values: list[float], q: float) -> float:
    return float(np.quantile(np.asarray(values), q))


def end_to_end(runner: Runner, setup_times: list[float], test_images: int) -> dict:
    s = runner.samples
    ms = 1e3
    values = {
        "query_ms_p50": (ms * quantile(s("query_locked"), 0.5), "ms"),
        "query_ms_p90": (ms * quantile(s("query_locked"), 0.9), "ms"),
        "plain_query_ms_p50": (ms * quantile(s("query_plain"), 0.5), "ms"),
        "sweep_keys_per_s": (1.0 / statistics.median(s("sweep_wrong")), "keys/s"),
        "eval_images_per_s": (test_images / statistics.median(s("sweep_right")), "images/s"),
        "attack_epochs_per_s": (ATTACK_EPOCHS / statistics.median(s("attack")), "epochs/s"),
        "control_epochs_per_s": (ATTACK_EPOCHS / statistics.median(s("control")), "epochs/s"),
        "lock_ms_p50": (ms * quantile(s("lock"), 0.5), "ms"),
        "unlock_check_ms_p50": (ms * quantile(s("unlock_check"), 0.5), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_ok_share": (ok_share(runner), "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def ok_share(runner: Runner) -> float:
    attempted = sum(runner.attempted.values())
    return (attempted - sum(runner.failed.values())) / attempted


def keystream_digest(fx: Fixture) -> str:
    return hashlib.sha256(cipher.expand_keystream(fx.key, 4 * fx.locked.param_count)).hexdigest()

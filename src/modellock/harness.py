"""Experiment harness: fidelity, wrong-key sweeps, latency, fine-tuning attack.

Evaluation of a locked model follows the per-query unlock contract: batch
accuracy runs unlock the parameters once per evaluation pass and drop them
afterwards, while latency benchmarking unlocks once per single input
(that is the measured "query"). Reports record which mode was used.

All experiments take explicit seeds and are bit-reproducible under a fixed
BLAS thread count (``nn``'s GEMM bits depend on it). A report type
is one dataclass owning its versioned ``schema``, ``csv_rows()`` and
``text_lines()``; :func:`emit_report` writes any ``Report`` as JSON, CSV or
text. Key material never appears in any report.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import ClassVar, Optional, Union, get_args

import numpy as np

from . import nn
from .cipher import KEY_LEN, check_key
from .data import Dataset
from .locker import LockedModel, raw_locked_params, unlock_model

Subject = Union[nn.Model, LockedModel]


@dataclass
class EvalReport:
    schema: ClassVar[str] = "modellock/eval-report/1"
    accuracy: float
    per_class_correct: list[int]
    per_class_total: list[int]
    nan_prediction_fraction: float
    sample_count: int
    subject: str  # "plain" or "locked"
    unlock_mode: Optional[str]  # "per-pass" for locked subjects, else None
    dataset: str

    def csv_rows(self) -> tuple[list[str], list[list]]:
        return ["accuracy", "nan_prediction_fraction", "sample_count"], [
            [self.accuracy, self.nan_prediction_fraction, self.sample_count]
        ]

    def text_lines(self) -> list[str]:
        return [
            f"dataset: {self.dataset}",
            f"subject: {self.subject}"
            + (f" (unlock {self.unlock_mode})" if self.unlock_mode else ""),
            f"samples: {self.sample_count}",
            f"accuracy: {self.accuracy:.4f}",
            f"nan prediction fraction: {self.nan_prediction_fraction:.4f}",
            "per-class correct: " + " ".join(
                f"{c}/{t}" for c, t in zip(self.per_class_correct, self.per_class_total)
            ),
        ]


@dataclass
class SweepReport:
    schema: ClassVar[str] = "modellock/sweep-report/1"
    per_key_accuracy: list[float]
    mean: float
    min: float
    max: float
    key_seed: int
    n_keys: int
    dataset: str
    mean_nan_fraction: float

    def csv_rows(self) -> tuple[list[str], list[list]]:
        return ["key_index", "accuracy"], [
            [i, acc] for i, acc in enumerate(self.per_key_accuracy)
        ]

    def text_lines(self) -> list[str]:
        return [
            f"dataset: {self.dataset}",
            f"keys: {self.n_keys} (seed {self.key_seed})",
            f"accuracy mean: {self.mean:.4f}  min: {self.min:.4f}  max: {self.max:.4f}",
            f"mean nan prediction fraction: {self.mean_nan_fraction:.4f}",
        ]


@dataclass
class LatencyReport:
    schema: ClassVar[str] = "modellock/latency-report/1"
    plain_mean: float
    locked_mean: float
    overhead_ratio: float
    n_trials: int
    warmup_trials: int
    plain_times: list[float]
    locked_times: list[float]
    unlock_mode: str
    timer: str
    timer_resolution: float
    param_count: int

    def csv_rows(self) -> tuple[list[str], list[list]]:
        return ["trial", "plain_seconds", "locked_seconds"], [
            [i, p, l] for i, (p, l) in enumerate(zip(self.plain_times, self.locked_times))
        ]

    def text_lines(self) -> list[str]:
        return [
            f"trials: {self.n_trials} (+{self.warmup_trials} warmup), "
            f"unlock mode: {self.unlock_mode}",
            f"parameters: {self.param_count}",
            f"plain mean:  {self.plain_mean * 1e3:.3f} ms/input",
            f"locked mean: {self.locked_mean * 1e3:.3f} ms/input",
            f"overhead ratio: {self.overhead_ratio:.2f}x",
            f"timer: {self.timer} (resolution {self.timer_resolution:g}s)",
        ]


@dataclass
class AttackCurve:
    schema: ClassVar[str] = "modellock/attack-curve/1"
    per_epoch_val_accuracy: list[float]
    final_accuracy: float
    config: dict
    nonfinite_epochs: int

    def csv_rows(self) -> tuple[list[str], list[list]]:
        return ["epoch", "val_accuracy"], [
            [i, acc] for i, acc in enumerate(self.per_epoch_val_accuracy)
        ]

    def text_lines(self) -> list[str]:
        # sorted, as the JSON writes them, so a report read back prints the same text
        lines = [f"{k}: {v}" for k, v in sorted(self.config.items())]
        lines.append(f"final val accuracy: {self.final_accuracy:.4f}")
        lines.append(f"epochs with non-finite losses: {self.nonfinite_epochs}")
        return lines


Report = Union[EvalReport, SweepReport, LatencyReport, AttackCurve]

_REPORT_TYPES = {cls.schema: cls for cls in get_args(Report)}


def _evaluate_params(model_like, dataset: Dataset, batch_size: int):
    logits_classes = []
    nan_flags = []
    for start in range(0, len(dataset), batch_size):
        logits = nn.forward_batch(model_like, dataset.images[start : start + batch_size])
        classes, flags = nn.predict_classes(logits)
        logits_classes.append(classes)
        nan_flags.append(flags)
    classes = np.concatenate(logits_classes)
    flags = np.concatenate(nan_flags)
    correct = classes == dataset.labels
    per_class_correct = np.bincount(
        dataset.labels[correct], minlength=dataset.num_classes
    )
    per_class_total = np.bincount(dataset.labels, minlength=dataset.num_classes)
    return correct, flags, per_class_correct, per_class_total


def evaluate(subject: Subject, dataset: Dataset, key: Optional[bytes] = None,
             batch_size: int = 256) -> EvalReport:
    """Accuracy report for a plain or unlocked model, or a locked model.

    Locked subjects require ``key`` and are unlocked once for the pass; the
    unlocked parameters are discarded when the pass ends. An empty dataset
    is an error, not accuracy zero, and so is a ``batch_size`` below 1.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if isinstance(subject, LockedModel):
        if key is None:
            raise ValueError("evaluating a locked model requires a key")
        model_like = unlock_model(subject, check_key(key))
        subject_label, unlock_mode = "locked", "per-pass"
    else:
        model_like = subject
        subject_label, unlock_mode = "plain", None
    correct, flags, per_class_correct, per_class_total = _evaluate_params(
        model_like, dataset, batch_size
    )
    return EvalReport(
        accuracy=float(correct.mean()),
        per_class_correct=per_class_correct.tolist(),
        per_class_total=per_class_total.tolist(),
        nan_prediction_fraction=float(flags.mean()),
        sample_count=len(dataset),
        subject=subject_label,
        unlock_mode=unlock_mode,
        dataset=dataset.name,
    )


def generate_wrong_keys(n_keys: int, seed: int, true_key: Optional[bytes] = None) -> list[bytes]:
    """Seeded uniform random 16-byte keys; collisions with true_key are redrawn."""
    rng = np.random.default_rng(seed)
    keys = []
    while len(keys) < n_keys:
        candidate = rng.bytes(KEY_LEN)
        if true_key is not None and candidate == true_key:
            continue
        keys.append(candidate)
    return keys


def wrong_key_sweep(locked: LockedModel, dataset: Dataset, n_keys: int, seed: int,
                    true_key: Optional[bytes] = None,
                    keys: Optional[list[bytes]] = None,
                    batch_size: int = 256) -> SweepReport:
    """Evaluate ``locked`` under ``n_keys`` random incorrect keys.

    ``keys`` overrides generation (for consistency checks); otherwise keys
    are drawn from ``seed`` and never equal ``true_key`` when it is given.
    """
    if n_keys < 1:
        raise ValueError("n_keys must be >= 1")
    if keys is None:
        keys = generate_wrong_keys(n_keys, seed, true_key)
    elif len(keys) != n_keys:
        raise ValueError(f"{len(keys)} keys supplied but n_keys={n_keys}")
    accuracies = []
    nan_fractions = []
    for key in keys:
        report = evaluate(locked, dataset, key=key, batch_size=batch_size)
        accuracies.append(report.accuracy)
        nan_fractions.append(report.nan_prediction_fraction)
    return SweepReport(
        per_key_accuracy=accuracies,
        mean=float(np.mean(accuracies)),
        min=float(np.min(accuracies)),
        max=float(np.max(accuracies)),
        key_seed=seed,
        n_keys=n_keys,
        dataset=dataset.name,
        mean_nan_fraction=float(np.mean(nan_fractions)),
    )


def benchmark_latency(model: nn.Model, locked: LockedModel, key: bytes,
                      dataset: Dataset, n_trials: int = 50,
                      warmup: int = 5) -> LatencyReport:
    """Single-input prediction time, plaintext vs per-query-unlock locked path.

    Each locked trial re-derives the keystream and unlocks all parameters
    before the forward pass — that is the online-mode query cost being
    measured. Means cover post-warmup trials only. Runs single-threaded.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if len(dataset) == 0:
        raise ValueError("cannot benchmark on an empty dataset")
    key = check_key(key)
    inputs = [dataset.images[i % len(dataset)] for i in range(n_trials + warmup)]

    def plain_once(x):
        t0 = time.perf_counter()
        nn.forward(model, x)
        return time.perf_counter() - t0

    def locked_once(x):
        t0 = time.perf_counter()
        view = unlock_model(locked, key)
        nn.forward(view, x)
        return time.perf_counter() - t0

    plain_times = [plain_once(x) for x in inputs][warmup:]
    locked_times = [locked_once(x) for x in inputs][warmup:]
    plain_mean = float(np.mean(plain_times))
    locked_mean = float(np.mean(locked_times))
    return LatencyReport(
        plain_mean=plain_mean,
        locked_mean=locked_mean,
        overhead_ratio=locked_mean / plain_mean,
        n_trials=n_trials,
        warmup_trials=warmup,
        plain_times=plain_times,
        locked_times=locked_times,
        unlock_mode="per-query",
        timer="time.perf_counter",
        timer_resolution=float(time.get_clock_info("perf_counter").resolution),
        param_count=locked.param_count,
    )


def _run_fine_tune(model: nn.Model, manifest: Dataset, val: Dataset,
                   cfg: nn.TrainConfig, arm: dict,
                   fraction: Optional[float]) -> AttackCurve:
    curve: list[float] = []
    nonfinite_epochs = 0

    def hook(epoch_model: nn.Model, metrics: nn.EpochMetrics) -> None:
        nonlocal nonfinite_epochs
        report = evaluate(epoch_model, val)
        curve.append(report.accuracy)
        if metrics.nonfinite_batches:
            nonfinite_epochs += 1

    nn.train(model, manifest, cfg, epoch_hook=hook)
    config = {
        **arm,
        "fraction": fraction,
        "epochs": cfg.epochs,
        "batch_size": cfg.batch_size,
        "learning_rate": cfg.learning_rate,
        "train_seed": cfg.seed,
        "manifest": manifest.name,
        "manifest_size": len(manifest),
        "val": val.name,
    }
    return AttackCurve(
        per_epoch_val_accuracy=curve,
        final_accuracy=curve[-1] if curve else float("nan"),
        config=config,
        nonfinite_epochs=nonfinite_epochs,
    )


def fine_tune_attack(locked: LockedModel, wrong_key: bytes, manifest: Dataset,
                     val: Dataset, cfg: nn.TrainConfig,
                     init_mode: str = "unlocked",
                     fraction: Optional[float] = None) -> AttackCurve:
    """Adversarial retraining of a locked model from a wrong-key start.

    ``init_mode`` "unlocked" (default) initializes from the wrong-key
    decryption; "raw" initializes from the locked bytes reinterpreted as
    floats. Non-finite starting weights are used verbatim — their spread
    through training is the defense under test.
    """
    wrong_key = check_key(wrong_key)
    if init_mode == "unlocked":
        params = unlock_model(locked, wrong_key).params
    elif init_mode == "raw":
        params = raw_locked_params(locked)
    else:
        raise ValueError(f"init_mode must be 'unlocked' or 'raw', got {init_mode!r}")
    model = nn.Model(locked.arch, params)
    arm = {"arm": "attack", "init_mode": init_mode}
    return _run_fine_tune(model, manifest, val, cfg, arm, fraction)


def fine_tune_control(locked: LockedModel, init_seed: int, manifest: Dataset,
                      val: Dataset, cfg: nn.TrainConfig,
                      fraction: Optional[float] = None) -> AttackCurve:
    """Control arm: identical training budget from a fresh seeded init.

    Separates what the attack data budget can achieve from what the locked
    initialization destroys."""
    model = nn.build_model(locked.arch, init_seed)
    arm = {"arm": "control", "init_mode": "fresh", "init_seed": init_seed}
    return _run_fine_tune(model, manifest, val, cfg, arm, fraction)


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def report_to_dict(report: Report) -> dict:
    return {"schema": report.schema, **asdict(report)}


def report_from_dict(d: dict) -> Report:
    if not isinstance(d, dict):
        raise ValueError(f"a report must be a JSON object, got {type(d).__name__}")
    d = dict(d)
    schema = d.pop("schema", None)
    cls = _REPORT_TYPES.get(schema) if isinstance(schema, str) else None
    if cls is None:
        raise ValueError(f"unknown report schema {schema!r}")
    try:
        return cls(**d)
    except TypeError as exc:  # a missing or unexpected field, named by exc
        raise ValueError(f"{schema}: {exc}") from None


def emit_report(report: Report, fmt: str, sink) -> None:
    """Serialize a report as ``json``, ``csv``, or ``text`` to a path or file."""
    if fmt == "json":
        payload = json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        header, rows = report.csv_rows()
        lines = [header] + [[repr(v) if isinstance(v, float) else str(v) for v in row]
                            for row in rows]
        payload = "".join(",".join(line) + "\n" for line in lines)
    elif fmt == "text":
        payload = "\n".join(report.text_lines()) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r} (expected text, json, or csv)")
    if hasattr(sink, "write"):
        sink.write(payload)
    else:
        with open(sink, "w", encoding="utf-8") as fh:
            fh.write(payload)

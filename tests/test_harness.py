import io
import json

import numpy as np
import pytest

from modellock import data, harness, locker, nn

KEY = bytes.fromhex("00112233445566778899aabbccddeeff")

ARCH = """\
input 1x12x12
conv 5 3x3 stride 1 pad valid relu
maxpool 2x2 stride 2
flatten
dense 24 relu
dense 4 linear
"""


@pytest.fixture(scope="module")
def task():
    arch = nn.parse_architecture(ARCH)
    train_ds = data.synthetic_dataset(num_classes=4, per_class=50, image_size=12, seed=21)
    test_ds = data.synthetic_dataset(num_classes=4, per_class=20, image_size=12, seed=22)
    model = nn.build_model(arch, seed=23)
    model, _ = nn.train(model, train_ds,
                        nn.TrainConfig(epochs=6, batch_size=25, learning_rate=0.1, seed=24))
    locked = locker.lock_model(model, KEY)
    return model, locked, train_ds, test_ds


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_plain_and_locked_reports_match_exactly(task):
    model, locked, _, test_ds = task
    plain = harness.evaluate(model, test_ds)
    with_key = harness.evaluate(locked, test_ds, key=KEY)
    assert with_key.accuracy == plain.accuracy
    assert with_key.per_class_correct == plain.per_class_correct
    assert with_key.nan_prediction_fraction == plain.nan_prediction_fraction == 0.0
    assert plain.subject == "plain" and with_key.subject == "locked"
    assert with_key.unlock_mode == "per-pass"
    assert plain.sample_count == len(test_ds)


def test_per_sample_predictions_identical(task):
    model, locked, _, test_ds = task
    view = locker.unlock_model(locked, KEY)
    plain_logits = nn.forward_batch(model, test_ds.images)
    view_logits = nn.forward_batch(view, test_ds.images)
    assert plain_logits.tobytes() == view_logits.tobytes()


def test_accuracy_is_correct_over_n(task):
    model, _, _, test_ds = task
    report = harness.evaluate(model, test_ds)
    assert report.accuracy == sum(report.per_class_correct) / report.sample_count
    assert report.per_class_total == [20, 20, 20, 20]


def test_locked_requires_key(task):
    _, locked, _, test_ds = task
    with pytest.raises(ValueError):
        harness.evaluate(locked, test_ds)


def test_empty_dataset_is_an_error(task):
    model, _, _, test_ds = task
    empty = data.Dataset("empty", np.zeros((0, 1, 12, 12), np.float32),
                         np.zeros(0, np.int64), 4)
    with pytest.raises(ValueError):
        harness.evaluate(model, empty)


def test_shape_mismatch_is_an_error(task):
    model, _, _, _ = task
    other = data.synthetic_dataset(num_classes=4, per_class=2, image_size=9, seed=0)
    with pytest.raises(nn.ModelSpecError):
        harness.evaluate(model, other)


def test_batch_size_does_not_change_results(task):
    model, _, _, test_ds = task
    a = harness.evaluate(model, test_ds, batch_size=7)
    b = harness.evaluate(model, test_ds, batch_size=256)
    assert a == b


@pytest.mark.parametrize("batch_size", [0, -1])
@pytest.mark.parametrize("run", [
    lambda locked, ds, bs: harness.evaluate(locked, ds, key=KEY, batch_size=bs),
    lambda locked, ds, bs: harness.wrong_key_sweep(locked, ds, n_keys=2, seed=1, batch_size=bs),
], ids=["evaluate", "wrong_key_sweep"])
def test_bad_batch_size_rejected_before_unlock(task, monkeypatch, run, batch_size):
    _, locked, _, test_ds = task

    def unlock_model(*args):
        raise AssertionError("unlocked before batch_size was checked")

    monkeypatch.setattr(harness, "unlock_model", unlock_model)
    with pytest.raises(ValueError, match="batch_size"):
        run(locked, test_ds, batch_size)


# ---------------------------------------------------------------------------
# wrong_key_sweep
# ---------------------------------------------------------------------------

def test_sweep_report_shape_and_determinism(task):
    _, locked, _, test_ds = task
    a = harness.wrong_key_sweep(locked, test_ds, n_keys=8, seed=3, true_key=KEY)
    b = harness.wrong_key_sweep(locked, test_ds, n_keys=8, seed=3, true_key=KEY)
    assert a == b
    assert len(a.per_key_accuracy) == 8 and a.n_keys == 8 and a.key_seed == 3
    assert a.mean == pytest.approx(np.mean(a.per_key_accuracy))
    assert a.min == min(a.per_key_accuracy) and a.max == max(a.per_key_accuracy)


def test_sweep_degrades_to_chance(task):
    _, locked, _, test_ds = task
    report = harness.wrong_key_sweep(locked, test_ds, n_keys=8, seed=3, true_key=KEY)
    assert report.mean <= 0.45  # chance is 0.25 on this 4-class task
    assert report.mean_nan_fraction > 0.5


def test_sweep_with_forced_true_key_matches_correct_eval(task):
    _, locked, _, test_ds = task
    correct = harness.evaluate(locked, test_ds, key=KEY)
    forced = harness.wrong_key_sweep(locked, test_ds, n_keys=1, seed=0, keys=[KEY])
    assert forced.per_key_accuracy == [correct.accuracy]


def test_generated_keys_exclude_true_key():
    keys = harness.generate_wrong_keys(64, seed=5, true_key=KEY)
    assert KEY not in keys and len(keys) == 64
    assert len(set(keys)) == 64
    assert keys == harness.generate_wrong_keys(64, seed=5, true_key=KEY)


def test_sweep_validates_arguments(task):
    _, locked, _, test_ds = task
    with pytest.raises(ValueError):
        harness.wrong_key_sweep(locked, test_ds, n_keys=0, seed=1)
    with pytest.raises(ValueError):
        harness.wrong_key_sweep(locked, test_ds, n_keys=3, seed=1, keys=[KEY])


# ---------------------------------------------------------------------------
# benchmark_latency
# ---------------------------------------------------------------------------

def test_latency_report_counts_and_fields(task):
    model, locked, _, test_ds = task
    report = harness.benchmark_latency(model, locked, KEY, test_ds, n_trials=6, warmup=2)
    assert len(report.plain_times) == 6 and len(report.locked_times) == 6
    assert report.n_trials == 6 and report.warmup_trials == 2
    assert report.plain_mean == pytest.approx(np.mean(report.plain_times))
    assert report.locked_mean == pytest.approx(np.mean(report.locked_times))
    assert report.overhead_ratio == pytest.approx(report.locked_mean / report.plain_mean)
    assert report.unlock_mode == "per-query"
    assert report.timer == "time.perf_counter" and report.timer_resolution > 0
    assert report.param_count == locked.param_count


def test_latency_rejects_bad_trials(task):
    model, locked, _, test_ds = task
    with pytest.raises(ValueError):
        harness.benchmark_latency(model, locked, KEY, test_ds, n_trials=0)
    with pytest.raises(ValueError, match="warmup"):
        harness.benchmark_latency(model, locked, KEY, test_ds, n_trials=2, warmup=-1)


# ---------------------------------------------------------------------------
# fine-tuning attack
# ---------------------------------------------------------------------------

def test_attack_curve_structure(task):
    _, locked, train_ds, test_ds = task
    manifest = data.manifest_split(train_ds, 0.10, seed=31)
    wrong = harness.generate_wrong_keys(1, seed=32, true_key=KEY)[0]
    cfg = nn.TrainConfig(epochs=4, batch_size=10, learning_rate=0.1, seed=33)
    curve = harness.fine_tune_attack(locked, wrong, manifest, test_ds, cfg, fraction=0.10)
    assert len(curve.per_epoch_val_accuracy) == 4
    assert all(0.0 <= v <= 1.0 for v in curve.per_epoch_val_accuracy)
    assert curve.final_accuracy == curve.per_epoch_val_accuracy[-1]
    assert curve.config["arm"] == "attack"
    assert curve.config["init_mode"] == "unlocked"
    assert curve.config["fraction"] == 0.10
    assert curve.config["epochs"] == 4
    assert curve.config["manifest_size"] == len(manifest)
    assert "key" not in " ".join(map(str, curve.config.keys())).lower()


def test_attack_stays_near_chance_while_control_learns(task):
    _, locked, train_ds, test_ds = task
    manifest = data.manifest_split(train_ds, 0.25, seed=41)
    wrong = harness.generate_wrong_keys(1, seed=42, true_key=KEY)[0]
    cfg = nn.TrainConfig(epochs=10, batch_size=10, learning_rate=0.1, seed=43)
    attack = harness.fine_tune_attack(locked, wrong, manifest, test_ds, cfg)
    control = harness.fine_tune_control(locked, 44, manifest, test_ds, cfg)
    assert attack.final_accuracy <= 0.40  # chance 0.25 on 4 classes
    assert control.final_accuracy >= 0.60
    assert attack.nonfinite_epochs > 0
    assert control.config["arm"] == "control"


def test_attack_is_deterministic(task):
    _, locked, train_ds, test_ds = task
    manifest = data.manifest_split(train_ds, 0.10, seed=51)
    wrong = harness.generate_wrong_keys(1, seed=52, true_key=KEY)[0]
    cfg = nn.TrainConfig(epochs=3, batch_size=10, learning_rate=0.1, seed=53)
    a = harness.fine_tune_attack(locked, wrong, manifest, test_ds, cfg)
    b = harness.fine_tune_attack(locked, wrong, manifest, test_ds, cfg)
    assert a == b


def test_attack_raw_init_mode(task):
    _, locked, train_ds, test_ds = task
    manifest = data.manifest_split(train_ds, 0.10, seed=61)
    wrong = harness.generate_wrong_keys(1, seed=62, true_key=KEY)[0]
    cfg = nn.TrainConfig(epochs=2, batch_size=10, learning_rate=0.1, seed=63)
    curve = harness.fine_tune_attack(locked, wrong, manifest, test_ds, cfg, init_mode="raw")
    assert curve.config["init_mode"] == "raw"
    assert len(curve.per_epoch_val_accuracy) == 2
    with pytest.raises(ValueError):
        harness.fine_tune_attack(locked, wrong, manifest, test_ds, cfg, init_mode="bogus")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def all_reports(task):
    model, locked, train_ds, test_ds = task
    manifest = data.manifest_split(train_ds, 0.10, seed=71)
    wrong = harness.generate_wrong_keys(1, seed=72, true_key=KEY)[0]
    return [
        harness.evaluate(model, test_ds),
        harness.wrong_key_sweep(locked, test_ds, n_keys=2, seed=73),
        harness.benchmark_latency(model, locked, KEY, test_ds, n_trials=2, warmup=1),
        harness.fine_tune_attack(locked, wrong, manifest, test_ds,
                                 nn.TrainConfig(epochs=2, batch_size=10, seed=74)),
    ]


# Hand-built reports and the exact bytes emit_report writes for each; any
# change to a schema string, a field, a CSV row or a text line shows here.
GOLDEN_REPORTS = {
    "eval_plain": harness.EvalReport(
        accuracy=0.75, per_class_correct=[2, 1], per_class_total=[2, 2],
        nan_prediction_fraction=0.0, sample_count=4, subject="plain", unlock_mode=None,
        dataset="synthetic"),
    "eval_locked": harness.EvalReport(
        accuracy=0.1, per_class_correct=[1, 0, 0], per_class_total=[4, 3, 3],
        nan_prediction_fraction=1.0, sample_count=10, subject="locked",
        unlock_mode="per-pass", dataset="idx"),
    "sweep": harness.SweepReport(
        per_key_accuracy=[0.1, 0.125, 1 / 3], mean=0.18611111111111112, min=0.1, max=1 / 3,
        key_seed=7, n_keys=3, dataset="synthetic", mean_nan_fraction=0.9),
    "latency": harness.LatencyReport(
        plain_mean=0.0005, locked_mean=0.0125, overhead_ratio=25.0, n_trials=2,
        warmup_trials=1, plain_times=[0.0004, 0.0006], locked_times=[0.012, 0.013],
        unlock_mode="per-query", timer="time.perf_counter", timer_resolution=1e-09,
        param_count=1234),
    "attack": harness.AttackCurve(
        per_epoch_val_accuracy=[0.1, 0.25], final_accuracy=0.25,
        config={"arm": "attack", "init_mode": "unlocked", "fraction": 0.1, "epochs": 2,
                "learning_rate": 0.05},
        nonfinite_epochs=2),
    "attack_empty": harness.AttackCurve(
        per_epoch_val_accuracy=[], final_accuracy=float("nan"),
        config={"arm": "control", "init_seed": 0, "fraction": None, "epochs": 0},
        nonfinite_epochs=0),
}

GOLDEN_BYTES = {
    'eval_plain': {
        'json': (
            '{\n'
            '  "accuracy": 0.75,\n'
            '  "dataset": "synthetic",\n'
            '  "nan_prediction_fraction": 0.0,\n'
            '  "per_class_correct": [\n'
            '    2,\n'
            '    1\n'
            '  ],\n'
            '  "per_class_total": [\n'
            '    2,\n'
            '    2\n'
            '  ],\n'
            '  "sample_count": 4,\n'
            '  "schema": "modellock/eval-report/1",\n'
            '  "subject": "plain",\n'
            '  "unlock_mode": null\n'
            '}\n'
        ),
        'csv': (
            'accuracy,nan_prediction_fraction,sample_count\n'
            '0.75,0.0,4\n'
        ),
        'text': (
            'dataset: synthetic\n'
            'subject: plain\n'
            'samples: 4\n'
            'accuracy: 0.7500\n'
            'nan prediction fraction: 0.0000\n'
            'per-class correct: 2/2 1/2\n'
        ),
    },
    'eval_locked': {
        'json': (
            '{\n'
            '  "accuracy": 0.1,\n'
            '  "dataset": "idx",\n'
            '  "nan_prediction_fraction": 1.0,\n'
            '  "per_class_correct": [\n'
            '    1,\n'
            '    0,\n'
            '    0\n'
            '  ],\n'
            '  "per_class_total": [\n'
            '    4,\n'
            '    3,\n'
            '    3\n'
            '  ],\n'
            '  "sample_count": 10,\n'
            '  "schema": "modellock/eval-report/1",\n'
            '  "subject": "locked",\n'
            '  "unlock_mode": "per-pass"\n'
            '}\n'
        ),
        'csv': (
            'accuracy,nan_prediction_fraction,sample_count\n'
            '0.1,1.0,10\n'
        ),
        'text': (
            'dataset: idx\n'
            'subject: locked (unlock per-pass)\n'
            'samples: 10\n'
            'accuracy: 0.1000\n'
            'nan prediction fraction: 1.0000\n'
            'per-class correct: 1/4 0/3 0/3\n'
        ),
    },
    'sweep': {
        'json': (
            '{\n'
            '  "dataset": "synthetic",\n'
            '  "key_seed": 7,\n'
            '  "max": 0.3333333333333333,\n'
            '  "mean": 0.18611111111111112,\n'
            '  "mean_nan_fraction": 0.9,\n'
            '  "min": 0.1,\n'
            '  "n_keys": 3,\n'
            '  "per_key_accuracy": [\n'
            '    0.1,\n'
            '    0.125,\n'
            '    0.3333333333333333\n'
            '  ],\n'
            '  "schema": "modellock/sweep-report/1"\n'
            '}\n'
        ),
        'csv': (
            'key_index,accuracy\n'
            '0,0.1\n'
            '1,0.125\n'
            '2,0.3333333333333333\n'
        ),
        'text': (
            'dataset: synthetic\n'
            'keys: 3 (seed 7)\n'
            'accuracy mean: 0.1861  min: 0.1000  max: 0.3333\n'
            'mean nan prediction fraction: 0.9000\n'
        ),
    },
    'latency': {
        'json': (
            '{\n'
            '  "locked_mean": 0.0125,\n'
            '  "locked_times": [\n'
            '    0.012,\n'
            '    0.013\n'
            '  ],\n'
            '  "n_trials": 2,\n'
            '  "overhead_ratio": 25.0,\n'
            '  "param_count": 1234,\n'
            '  "plain_mean": 0.0005,\n'
            '  "plain_times": [\n'
            '    0.0004,\n'
            '    0.0006\n'
            '  ],\n'
            '  "schema": "modellock/latency-report/1",\n'
            '  "timer": "time.perf_counter",\n'
            '  "timer_resolution": 1e-09,\n'
            '  "unlock_mode": "per-query",\n'
            '  "warmup_trials": 1\n'
            '}\n'
        ),
        'csv': (
            'trial,plain_seconds,locked_seconds\n'
            '0,0.0004,0.012\n'
            '1,0.0006,0.013\n'
        ),
        'text': (
            'trials: 2 (+1 warmup), unlock mode: per-query\n'
            'parameters: 1234\n'
            'plain mean:  0.500 ms/input\n'
            'locked mean: 12.500 ms/input\n'
            'overhead ratio: 25.00x\n'
            'timer: time.perf_counter (resolution 1e-09s)\n'
        ),
    },
    'attack': {
        'json': (
            '{\n'
            '  "config": {\n'
            '    "arm": "attack",\n'
            '    "epochs": 2,\n'
            '    "fraction": 0.1,\n'
            '    "init_mode": "unlocked",\n'
            '    "learning_rate": 0.05\n'
            '  },\n'
            '  "final_accuracy": 0.25,\n'
            '  "nonfinite_epochs": 2,\n'
            '  "per_epoch_val_accuracy": [\n'
            '    0.1,\n'
            '    0.25\n'
            '  ],\n'
            '  "schema": "modellock/attack-curve/1"\n'
            '}\n'
        ),
        'csv': (
            'epoch,val_accuracy\n'
            '0,0.1\n'
            '1,0.25\n'
        ),
        'text': (
            'arm: attack\n'
            'epochs: 2\n'
            'fraction: 0.1\n'
            'init_mode: unlocked\n'
            'learning_rate: 0.05\n'
            'final val accuracy: 0.2500\n'
            'epochs with non-finite losses: 2\n'
        ),
    },
    'attack_empty': {
        'json': (
            '{\n'
            '  "config": {\n'
            '    "arm": "control",\n'
            '    "epochs": 0,\n'
            '    "fraction": null,\n'
            '    "init_seed": 0\n'
            '  },\n'
            '  "final_accuracy": NaN,\n'
            '  "nonfinite_epochs": 0,\n'
            '  "per_epoch_val_accuracy": [],\n'
            '  "schema": "modellock/attack-curve/1"\n'
            '}\n'
        ),
        'csv': 'epoch,val_accuracy\n',
        'text': (
            'arm: control\n'
            'epochs: 0\n'
            'fraction: None\n'
            'init_seed: 0\n'
            'final val accuracy: nan\n'
            'epochs with non-finite losses: 0\n'
        ),
    },
}


def emitted(report, fmt: str) -> str:
    blob = io.StringIO()
    harness.emit_report(report, fmt, blob)
    return blob.getvalue()


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_emitted_bytes_pinned(name, fmt):
    report = GOLDEN_REPORTS[name]
    assert emitted(report, fmt) == GOLDEN_BYTES[name][fmt]
    restored = harness.report_from_dict(harness.report_to_dict(report))
    assert emitted(restored, fmt) == GOLDEN_BYTES[name][fmt]
    # a report read back from its JSON file emits the same bytes in every format
    parsed = harness.report_from_dict(json.loads(GOLDEN_BYTES[name]["json"]))
    assert emitted(parsed, fmt) == GOLDEN_BYTES[name][fmt]


def test_json_round_trip(task):
    for report in all_reports(task):
        blob = io.StringIO()
        harness.emit_report(report, "json", blob)
        parsed = json.loads(blob.getvalue())
        assert parsed["schema"].startswith("modellock/")
        assert harness.report_from_dict(parsed) == report


def test_csv_headers(task):
    expected_first = {
        harness.EvalReport: "accuracy,nan_prediction_fraction,sample_count",
        harness.SweepReport: "key_index,accuracy",
        harness.LatencyReport: "trial,plain_seconds,locked_seconds",
        harness.AttackCurve: "epoch,val_accuracy",
    }
    for report in all_reports(task):
        blob = io.StringIO()
        harness.emit_report(report, "csv", blob)
        lines = blob.getvalue().splitlines()
        assert lines[0] == expected_first[type(report)]
        assert len(lines) > 1


def test_attack_csv_has_one_row_per_epoch(task):
    report = all_reports(task)[3]
    blob = io.StringIO()
    harness.emit_report(report, "csv", blob)
    lines = blob.getvalue().splitlines()
    assert len(lines) == 1 + len(report.per_epoch_val_accuracy)
    assert lines[1].startswith("0,")


def test_text_format_renders(task):
    for report in all_reports(task):
        blob = io.StringIO()
        harness.emit_report(report, "text", blob)
        assert blob.getvalue().strip()


def test_unknown_format_rejected(task):
    report = all_reports(task)[0]
    with pytest.raises(ValueError):
        harness.emit_report(report, "xml", io.StringIO())


def test_emit_to_path(task, tmp_path):
    report = all_reports(task)[0]
    path = tmp_path / "report.json"
    harness.emit_report(report, "json", path)
    assert harness.report_from_dict(json.loads(path.read_text())) == report


@pytest.mark.parametrize("d, named", [
    ({"schema": "modellock/not-a-thing/9"}, "not-a-thing"),
    ({}, "None"),
    ({"schema": ["x"]}, r"\['x'\]"),
    ({"schema": "modellock/eval-report/1", "bogus": 1}, "bogus"),
    ({"schema": "modellock/sweep-report/1"}, "per_key_accuracy"),
    ({**harness.report_to_dict(GOLDEN_REPORTS["attack"]), "extra": 0}, "extra"),
    ([1, 2], "JSON object, got list"),
    ("abc", "JSON object, got str"),
], ids=["unknown-schema", "no-schema", "unhashable-schema", "extra-field",
        "missing-fields", "extra-field-on-full-report", "list", "string"])
def test_bad_report_dict_rejected(d, named):
    with pytest.raises(ValueError, match=named):
        harness.report_from_dict(d)

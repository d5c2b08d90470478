import json

import numpy as np
import pytest

from modellock import locker, nn
from modellock.architectures import MNIST
from modellock.cli import main

KEY_HEX = "000102030405060708090a0b0c0d0e0f"
WRONG_HEX = "ffeeddccbbaa99887766554433221100"

TINY_ARCH = """\
input 1x10x10
conv 3 3x3 stride 1 pad valid relu
maxpool 2x2 stride 2
flatten
dense 16 relu
dense 10 linear
"""

SYNTH = ["--synthetic", "--classes", "10", "--per-class", "6",
         "--image-size", "10", "--data-seed", "4"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    arch = root / "tiny.arch"
    arch.write_text(TINY_ARCH)
    model = root / "model.dlm"
    locked = root / "model.dlk"
    rc = main(["train", "--arch", str(arch), *SYNTH,
               "--epochs", "2", "--seed", "7", "--out", str(model)])
    assert rc == 0
    rc = main(["lock", str(model), "--key", KEY_HEX, "--out", str(locked)])
    assert rc == 0
    return root, arch, model, locked


# ---------------------------------------------------------------------------
# train / lock
# ---------------------------------------------------------------------------

def test_train_writes_model_and_metrics(workspace, tmp_path, capsys):
    root, arch, model, _ = workspace
    out = tmp_path / "m.dlm"
    metrics = tmp_path / "metrics.json"
    rc = main(["train", "--arch", str(arch), *SYNTH, "--epochs", "2",
               "--seed", "7", "--out", str(out), "--metrics", str(metrics)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert any(line.startswith("epoch 0:") for line in lines)
    assert json.loads(metrics.read_text())[0]["epoch"] == 0
    assert locker.read_model(out).param_count > 0


def test_train_epochs_zero_writes_initialization(workspace, tmp_path):
    root, arch, _, _ = workspace
    out = tmp_path / "init.dlm"
    rc = main(["train", "--arch", str(arch), *SYNTH, "--epochs", "0",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    from modellock import nn
    init = nn.build_model(nn.parse_architecture(TINY_ARCH), seed=7)
    loaded = locker.read_model(out)
    assert all((a.values == b.values).all() for a, b in zip(init.params, loaded.params))


@pytest.mark.parametrize("flag, value, named", [
    ("--batch-size", "-1", "batch_size"),
    ("--batch-size", "0", "batch_size"),
    ("--epochs", "-1", "epochs"),
    ("--lr", "nan", "learning_rate"),
])
def test_bad_train_config_exits_2(workspace, tmp_path, capsys, flag, value, named):
    _, arch, _, locked = workspace
    out = tmp_path / "m.dlm"
    rc = main(["train", "--arch", str(arch), *SYNTH, "--epochs", "1",
               "--out", str(out), flag, value])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not out.exists()
    assert main(["attack", str(locked), "--key", WRONG_HEX, *SYNTH, "--epochs", "1",
                 flag, value]) == 2


@pytest.mark.parametrize("command, flag, value, named", [
    ("eval", "--classes", "0", "num_classes"),
    ("eval", "--per-class", "0", "per_class"),
    ("eval", "--image-size", "1", "image_size"),
    ("control", "--val-per-class", "0", "per_class"),
    ("sweep", "--keys", "0", "--keys"),
    ("bench", "--trials", "0", "--trials"),
    ("bench", "--warmup", "-1", "--warmup"),
    ("control", "--fraction", "0", "--fraction"),
    ("control", "--fraction", "1.5", "--fraction"),
    ("control", "--fraction", "nan", "--fraction"),
])
def test_out_of_range_numeric_flag_exits_2(workspace, capsys, command, flag, value, named):
    _, _, model, locked = workspace
    argv = {
        "eval": ["eval", str(model)],
        "sweep": ["sweep", str(locked)],
        "bench": ["bench", "--model", str(model), "--locked", str(locked), "--key", KEY_HEX,
                  "--trials", "2"],
        "control": ["attack", str(locked), "--control", "--epochs", "1"],
    }[command]
    assert main([*argv, *SYNTH, flag, value]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "attack"])
def test_misshapen_images_exit_1(workspace, tmp_path, capsys, command):
    _, _, _, locked = workspace
    arch = tmp_path / "mnist.arch"
    arch.write_text(MNIST)
    args = {  # 20x20 images for the 28x28 mnist model, 12x12 for the 10x10 tiny one
        "train": ["train", "--arch", str(arch), "--image-size", "20",
                  "--out", str(tmp_path / "m.dlm")],
        "attack": ["attack", str(locked), "--key", WRONG_HEX, "--image-size", "12"],
    }[command]
    assert main([*args, "--synthetic", "--per-class", "2", "--epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert "does not match" in err and "matmul" not in err


def test_missing_arch_file_exits_2(capsys):
    rc = main(["train", "--arch", "nope.arch", "--synthetic", "--out", "x.dlm"])
    assert rc == 2
    assert "nope.arch" in capsys.readouterr().err


def test_lock_prints_parameter_count(workspace, tmp_path, capsys):
    _, _, model, _ = workspace
    out = tmp_path / "out.dlk"
    rc = main(["lock", str(model), "--key", KEY_HEX, "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert str(locker.read_locked(out).param_count) in printed
    assert KEY_HEX not in printed


def test_lock_is_byte_deterministic(workspace, tmp_path):
    _, _, model, _ = workspace
    a, b = tmp_path / "a.dlk", tmp_path / "b.dlk"
    assert main(["lock", str(model), "--key", KEY_HEX, "--out", str(a)]) == 0
    assert main(["lock", str(model), "--key", KEY_HEX, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_wrong_length_key_exits_2(workspace, tmp_path, capsys):
    _, _, model, _ = workspace
    rc = main(["lock", str(model), "--key", "abcd", "--out", str(tmp_path / "x.dlk")])
    assert rc == 2
    assert "32 hex" in capsys.readouterr().err


def test_key_file_and_env(workspace, tmp_path, monkeypatch, capsys):
    _, _, model, _ = workspace
    key_path = tmp_path / "key.bin"
    key_path.write_bytes(bytes.fromhex(KEY_HEX))
    a = tmp_path / "a.dlk"
    assert main(["lock", str(model), "--key-file", str(key_path), "--out", str(a)]) == 0
    monkeypatch.setenv("MODEL_KEY", KEY_HEX)
    b = tmp_path / "b.dlk"
    assert main(["lock", str(model), "--key-env", "MODEL_KEY", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()
    key_path.write_bytes(b"short")
    assert main(["lock", str(model), "--key-file", str(key_path), "--out", str(a)]) == 2
    assert main(["lock", str(model), "--key-env", "UNSET_VAR_42", "--out", str(a)]) == 2


# ---------------------------------------------------------------------------
# unlock-check / infer
# ---------------------------------------------------------------------------

def test_unlock_check(workspace, capsys):
    _, _, _, locked = workspace
    rc = main(["unlock-check", str(locked), "--key", KEY_HEX])
    assert rc == 0
    out = capsys.readouterr().out
    assert "integrity digest: ok" in out
    assert KEY_HEX not in out


def finite_line(capsys) -> str:
    return next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("finite decoded values:"))


def test_unlock_check_wrong_key_prints_the_finite_share_of_all_values(workspace, capsys):
    _, _, _, locked = workspace
    assert main(["unlock-check", str(locked), "--key", WRONG_HEX]) == 0
    view = locker.unlock_model(locker.read_locked(locked), bytes.fromhex(WRONG_HEX))
    finite = np.isfinite(np.concatenate([t.values.ravel() for t in view.params]))
    assert 0 < finite.mean() < 1  # the wrong key decodes some non-finite values
    assert finite_line(capsys) == f"finite decoded values: {finite.mean():.4%}"


def test_unlock_check_zero_parameter_model(tmp_path, capsys):
    path = tmp_path / "empty.dlk"
    empty = nn.Model(nn.parse_architecture("input 1x10x1\nflatten\n"), [])
    locker.write_locked(locker.lock_model(empty, bytes.fromhex(KEY_HEX)), path)
    assert main(["unlock-check", str(path), "--key", WRONG_HEX]) == 0
    assert finite_line(capsys) == "finite decoded values: 100.0000%"


def test_unlock_check_corrupt_file_exits_1(workspace, tmp_path, capsys):
    _, _, _, locked = workspace
    data = locked.read_bytes()
    bad = tmp_path / "bad.dlk"
    bad.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
    rc = main(["unlock-check", str(bad), "--key", KEY_HEX])
    assert rc == 1
    assert "digest" in capsys.readouterr().err


def test_infer_plain_and_locked_agree(workspace, capsys):
    _, _, model, locked = workspace
    assert main(["infer", str(model), *SYNTH, "--index", "3"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(["infer", str(locked), "--key", KEY_HEX, *SYNTH, "--index", "3"]) == 0
    unlocked = json.loads(capsys.readouterr().out)
    assert plain == unlocked
    assert set(plain) == {"class_index", "nan_flag", "logits", "label"}


def test_infer_index_out_of_range(workspace, capsys):
    _, _, model, _ = workspace
    assert main(["infer", str(model), *SYNTH, "--index", "9999"]) == 2


def test_infer_locked_without_key_exits_2(workspace):
    _, _, _, locked = workspace
    assert main(["infer", str(locked), *SYNTH]) == 2


def test_plaintext_model_with_key_exits_2(workspace):
    _, _, model, _ = workspace
    assert main(["infer", str(model), "--key", KEY_HEX, *SYNTH]) == 2
    assert main(["eval", str(model), "--key", KEY_HEX, *SYNTH]) == 2


# ---------------------------------------------------------------------------
# eval / sweep / bench / attack
# ---------------------------------------------------------------------------

def eval_accuracy(args) -> float:
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(args + ["--format", "json"]) == 0
    return json.loads(buf.getvalue())["accuracy"]


def test_eval_locked_with_correct_key_equals_plaintext(workspace):
    _, _, model, locked = workspace
    plain = eval_accuracy(["eval", str(model), *SYNTH])
    unlocked = eval_accuracy(["eval", str(locked), "--key", KEY_HEX, *SYNTH])
    assert plain == unlocked


def test_eval_report_file_reproducible(workspace, tmp_path):
    _, _, model, _ = workspace
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["eval", str(model), *SYNTH, "--format", "json", "--out", str(a)]) == 0
    assert main(["eval", str(model), *SYNTH, "--format", "json", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_writes_n_keys_and_is_reproducible(workspace, tmp_path):
    _, _, _, locked = workspace
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["sweep", str(locked), "--keys", "4", "--seed", "3", "--key", KEY_HEX,
            *SYNTH, "--format", "json"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["n_keys"] == 4 and len(report["per_key_accuracy"]) == 4


def test_bench_runs_and_reports_ratio(workspace, tmp_path):
    _, _, model, locked = workspace
    out = tmp_path / "bench.json"
    rc = main(["bench", "--model", str(model), "--locked", str(locked),
               "--key", KEY_HEX, *SYNTH, "--trials", "3", "--warmup", "1",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert len(report["plain_times"]) == 3
    assert report["overhead_ratio"] > 0


def test_attack_and_control_write_csv(workspace, tmp_path):
    _, _, _, locked = workspace
    atk = tmp_path / "attack.csv"
    ctl = tmp_path / "control.csv"
    rc = main(["attack", str(locked), "--key", WRONG_HEX, *SYNTH,
               "--fraction", "0.5", "--epochs", "2", "--out", str(atk)])
    assert rc == 0
    rc = main(["attack", str(locked), "--control", *SYNTH,
               "--fraction", "0.5", "--epochs", "2", "--out", str(ctl)])
    assert rc == 0
    assert atk.read_text().splitlines()[0] == "epoch,val_accuracy"
    assert len(atk.read_text().splitlines()) == 3
    assert ctl.read_text().splitlines()[0] == "epoch,val_accuracy"


def test_attack_without_key_exits_2(workspace):
    _, _, _, locked = workspace
    assert main(["attack", str(locked), *SYNTH, "--epochs", "1"]) == 2


def test_attack_control_with_key_exits_2(workspace):
    _, _, _, locked = workspace
    assert main(["attack", str(locked), "--control", "--key", KEY_HEX,
                 *SYNTH, "--epochs", "1"]) == 2


@pytest.mark.parametrize("flag", ["--key", "--key-file", "--key-env"])
def test_attack_control_with_empty_key_flag_exits_2(workspace, flag):
    _, _, _, locked = workspace
    assert main(["attack", str(locked), "--control", flag, "",
                 *SYNTH, "--epochs", "1"]) == 2


def test_attack_reproducible(workspace, tmp_path):
    _, _, _, locked = workspace
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["attack", str(locked), "--key", WRONG_HEX, *SYNTH, "--fraction", "0.5",
            "--epochs", "2", "--seed", "5", "--manifest-seed", "6"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# usage plumbing
# ---------------------------------------------------------------------------

def test_dataset_flags_are_exclusive(workspace):
    _, _, model, _ = workspace
    assert main(["eval", str(model), "--synthetic", "--images", "x.idx"]) == 2
    assert main(["eval", str(model)]) == 2  # neither source chosen


def test_unknown_magic_exits_1(workspace, tmp_path, capsys):
    junk = tmp_path / "junk.dlm"
    junk.write_bytes(b"JUNKJUNKJUNK")
    assert main(["eval", str(junk), "--synthetic"]) == 1


def test_argparse_usage_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["lock"])  # missing required arguments
    assert info.value.code == 2


@pytest.mark.parametrize("command", [
    "train", "lock", "unlock-check", "infer", "eval", "sweep", "bench", "attack",
])
def test_help_mentions_defaults(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    text = capsys.readouterr().out
    assert "default" in text


def test_mnist_reference_arch_text_round_trips_through_cli(tmp_path):
    from modellock import nn
    arch_path = tmp_path / "mnist.arch"
    arch_path.write_text(MNIST)
    parsed = nn.parse_architecture(arch_path.read_text())
    assert parsed.param_count == 86166

"""Command-line workflow: train, lock, unlock-check, infer, eval, sweep, bench, attack.

Exit codes: 0 success, 1 runtime failure (corrupt files, evaluation errors),
2 usage errors (bad flags, malformed key material, missing input files).

Key material is accepted as 32 hex characters (``--key``), a 16-byte key
file (``--key-file``), or an environment variable holding 32 hex characters
(``--key-env``). Keys are never echoed to stdout, logs, or reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import data, harness, locker, nn
from .cipher import KEY_LEN

PLAIN_SUFFIX = ".dlm"
LOCKED_SUFFIX = ".dlk"


class UsageError(Exception):
    """Command-line misuse that argparse cannot catch itself."""


def _parse_hex_key(text: str, origin: str) -> bytes:
    text = text.strip()
    if len(text) != 2 * KEY_LEN:
        raise UsageError(f"{origin} must be {2 * KEY_LEN} hex characters")
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise UsageError(f"{origin} is not valid hex") from None


def add_key_flags(parser: argparse.ArgumentParser, required: bool = True) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--key", metavar="HEX", help="master key as 32 hex characters")
    group.add_argument("--key-file", metavar="PATH", help="file holding the 16-byte master key")
    group.add_argument("--key-env", metavar="VAR",
                       help="environment variable holding the key as 32 hex characters")


def resolve_key(args: argparse.Namespace, required: bool = True):
    if args.key is not None:
        return _parse_hex_key(args.key, "--key")
    if args.key_file is not None:
        try:
            with open(args.key_file, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read key file {args.key_file}: {exc.strerror}") from None
        if len(raw) != KEY_LEN:
            raise UsageError(f"key file {args.key_file} must hold exactly {KEY_LEN} bytes")
        return raw
    if args.key_env is not None:
        value = os.environ.get(args.key_env)
        if value is None:
            raise UsageError(f"environment variable {args.key_env} is not set")
        return _parse_hex_key(value, f"environment variable {args.key_env}")
    if required:
        raise UsageError("a key is required (--key, --key-file, or --key-env)")
    return None


def add_dataset_flags(parser: argparse.ArgumentParser, val: bool = False) -> None:
    parser.add_argument("--synthetic", action="store_true",
                        help="use the seeded synthetic dataset")
    parser.add_argument("--images", metavar="PATH", help="IDX image file")
    parser.add_argument("--labels", metavar="PATH", help="IDX label file")
    parser.add_argument("--classes", type=int, default=10, help="synthetic class count")
    parser.add_argument("--per-class", type=int, default=100,
                        help="synthetic samples per class")
    parser.add_argument("--image-size", type=int, default=28, help="synthetic image size")
    parser.add_argument("--data-seed", type=int, default=0, help="synthetic generator seed")
    if val:
        parser.add_argument("--val-images", metavar="PATH", help="IDX validation image file")
        parser.add_argument("--val-labels", metavar="PATH", help="IDX validation label file")
        parser.add_argument("--val-seed", type=int, default=None,
                            help="synthetic validation seed (default: data-seed + 1)")
        parser.add_argument("--val-per-class", type=int, default=50,
                            help="synthetic validation samples per class")


def _require_file(path: str) -> str:
    if not os.path.exists(path):
        raise UsageError(f"no such file: {path}")
    return path


def _synthetic_dataset(args: argparse.Namespace, per_class: int, seed: int) -> data.Dataset:
    try:
        return data.synthetic_dataset(num_classes=args.classes, per_class=per_class,
                                      image_size=args.image_size, seed=seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def load_dataset(args: argparse.Namespace) -> data.Dataset:
    if args.synthetic == bool(args.images):
        raise UsageError("choose exactly one of --synthetic or --images/--labels")
    if args.synthetic:
        return _synthetic_dataset(args, args.per_class, args.data_seed)
    if not args.labels:
        raise UsageError("--images requires --labels")
    return data.load_idx_dataset(_require_file(args.images), _require_file(args.labels))


def load_val_dataset(args: argparse.Namespace) -> data.Dataset:
    if args.synthetic:
        seed = args.val_seed if args.val_seed is not None else args.data_seed + 1
        return _synthetic_dataset(args, args.val_per_class, seed)
    if not (args.val_images and args.val_labels):
        raise UsageError("IDX mode requires --val-images and --val-labels")
    return data.load_idx_dataset(
        _require_file(args.val_images), _require_file(args.val_labels), name="idx-val"
    )


def _sniff_model_file(path: str) -> str:
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == locker.MAGIC_LOCKED:
        return "locked"
    if magic == locker.MAGIC_PLAIN:
        return "plain"
    raise locker.BadMagicError(f"{path}: unrecognized magic {magic!r}")


def _emit(report, args) -> None:
    sink = args.out if args.out else sys.stdout
    harness.emit_report(report, args.format, sink)


def _train_config(args: argparse.Namespace) -> nn.TrainConfig:
    try:
        return nn.TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                              learning_rate=args.lr, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _read_subject(args) -> tuple[nn.Model | locker.LockedModel, bytes | None]:
    """The plaintext or locked model at ``args.model`` and the key it takes (None if plain)."""
    kind = _sniff_model_file(_require_file(args.model))
    key = resolve_key(args, required=(kind == "locked"))
    if kind == "locked":
        return locker.read_locked(args.model), key
    if key is not None:
        raise UsageError("plaintext models take no key")
    return locker.read_model(args.model), None


def add_report_flags(parser: argparse.ArgumentParser, default_format: str = "text") -> None:
    parser.add_argument("--format", choices=("text", "json", "csv"), default=default_format,
                        help="report output format")
    parser.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = _train_config(args)
    with open(_require_file(args.arch), "r", encoding="utf-8") as fh:
        arch_text = fh.read()
    arch = nn.parse_architecture(arch_text)
    dataset = load_dataset(args)
    model = nn.build_model(arch, args.seed)
    model, history = nn.train(model, dataset, cfg)
    locker.write_model(model, args.out)
    for m in history:
        print(f"epoch {m.epoch}: loss {m.loss:.4f} accuracy {m.accuracy:.4f}"
              + (f" nonfinite_batches {m.nonfinite_batches}" if m.nonfinite_batches else ""))
    print(f"wrote {args.out} ({model.param_count} parameters)")
    if args.metrics:
        payload = [vars(m) for m in history]
        with open(args.metrics, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_lock(args) -> int:
    key = resolve_key(args)
    model = locker.read_model(_require_file(args.model))
    locked = locker.lock_model(model, key)
    locker.write_locked(locked, args.out)
    print(f"locked {locked.param_count} parameters -> {args.out}")
    return 0


def cmd_unlock_check(args) -> int:
    key = resolve_key(args)
    locked = locker.read_locked(_require_file(args.locked))
    view = locker.unlock_model(locked, key)
    # an exact count over an exact total: the same float as the mean of the flags
    finite_count = sum(int(np.count_nonzero(np.isfinite(t.values))) for t in view.params)
    finite = finite_count / locked.param_count if locked.param_count else 1.0
    print(f"integrity digest: ok")
    print(f"parameters: {locked.param_count}")
    print(f"finite decoded values: {finite:.4%}")
    print("note: a digest check cannot tell a right key from a wrong one")
    return 0


def cmd_infer(args) -> int:
    subject, key = _read_subject(args)
    if key is not None:
        subject = locker.unlock_model(subject, key)
    dataset = load_dataset(args)
    if not 0 <= args.index < len(dataset):
        raise UsageError(f"--index {args.index} out of range for {len(dataset)} samples")
    prediction = nn.forward(subject, dataset.images[args.index])
    result = {
        "class_index": prediction.class_index,
        "nan_flag": prediction.nan_flag,
        "logits": [float(v) for v in prediction.logits],
        "label": int(dataset.labels[args.index]),
    }
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    subject, key = _read_subject(args)
    report = harness.evaluate(subject, load_dataset(args), key=key)
    _emit(report, args)
    return 0


def cmd_sweep(args) -> int:
    if args.keys < 1:
        raise UsageError(f"--keys must be >= 1, got {args.keys}")
    locked = locker.read_locked(_require_file(args.locked))
    true_key = resolve_key(args, required=False)
    dataset = load_dataset(args)
    report = harness.wrong_key_sweep(
        locked, dataset, n_keys=args.keys, seed=args.seed, true_key=true_key
    )
    _emit(report, args)
    return 0


def cmd_bench(args) -> int:
    if args.trials < 1 or args.warmup < 0:
        raise UsageError(f"--trials must be >= 1 and --warmup >= 0, "
                         f"got {args.trials} and {args.warmup}")
    key = resolve_key(args)
    model = locker.read_model(_require_file(args.model))
    locked = locker.read_locked(_require_file(args.locked))
    dataset = load_dataset(args)
    report = harness.benchmark_latency(
        model, locked, key, dataset, n_trials=args.trials, warmup=args.warmup
    )
    _emit(report, args)
    return 0


def cmd_attack(args) -> int:
    if not 0 < args.fraction <= 1:
        raise UsageError(f"--fraction must be in (0, 1], got {args.fraction}")
    cfg = _train_config(args)
    locked = locker.read_locked(_require_file(args.locked))
    pool = load_dataset(args)
    val = load_val_dataset(args)
    manifest = data.manifest_split(pool, args.fraction, args.manifest_seed)
    if args.control:
        if any(flag is not None for flag in (args.key, args.key_file, args.key_env)):
            raise UsageError("the control arm takes no key")
        report = harness.fine_tune_control(
            locked, args.init_seed, manifest, val, cfg, fraction=args.fraction
        )
    else:
        wrong_key = resolve_key(args)
        report = harness.fine_tune_attack(
            locked, wrong_key, manifest, val, cfg,
            init_mode=args.init_mode, fraction=args.fraction,
        )
    _emit(report, args)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modellock",
        description="Lock trained neural-network parameters under a 128-bit key "
                    "and reproduce the fidelity, wrong-key, latency, and "
                    "fine-tuning-attack experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("train", help="train a model (offline phase)", formatter_class=fmt)
    p.add_argument("--arch", required=True, help="architecture text file")
    p.add_argument("--epochs", type=int, default=30, help="training epochs")
    p.add_argument("--batch-size", type=int, default=32, help="mini-batch size")
    p.add_argument("--lr", type=float, default=0.05, help="SGD learning rate")
    p.add_argument("--seed", type=int, default=0, help="init + shuffle seed")
    p.add_argument("--out", required=True, help=f"output model file ({PLAIN_SUFFIX})")
    p.add_argument("--metrics", help="also write per-epoch metrics JSON here")
    add_dataset_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("lock", help="lock a trained model under a key", formatter_class=fmt)
    p.add_argument("model", help=f"plaintext model file ({PLAIN_SUFFIX})")
    p.add_argument("--out", required=True, help=f"output locked file ({LOCKED_SUFFIX})")
    add_key_flags(p)
    p.set_defaults(func=cmd_lock)

    p = sub.add_parser("unlock-check", help="integrity-check a locked file and "
                       "summarize a trial decryption", formatter_class=fmt)
    p.add_argument("locked", help=f"locked model file ({LOCKED_SUFFIX})")
    add_key_flags(p)
    p.set_defaults(func=cmd_unlock_check)

    p = sub.add_parser("infer", help="classify one input", formatter_class=fmt)
    p.add_argument("model", help="model file (plaintext or locked)")
    p.add_argument("--index", type=int, default=0, help="dataset sample index")
    add_key_flags(p, required=False)
    add_dataset_flags(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="dataset accuracy report", formatter_class=fmt)
    p.add_argument("model", help="model file (plaintext or locked)")
    add_key_flags(p, required=False)
    add_dataset_flags(p)
    add_report_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="accuracy under random wrong keys", formatter_class=fmt)
    p.add_argument("locked", help=f"locked model file ({LOCKED_SUFFIX})")
    p.add_argument("--keys", type=int, default=100, help="number of wrong keys")
    p.add_argument("--seed", type=int, default=0, help="key generator seed")
    add_key_flags(p, required=False)  # optional true key, excluded from the draw
    add_dataset_flags(p)
    add_report_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="single-input latency, plain vs locked",
                       formatter_class=fmt)
    p.add_argument("--model", required=True, help=f"plaintext model ({PLAIN_SUFFIX})")
    p.add_argument("--locked", required=True, help=f"locked model ({LOCKED_SUFFIX})")
    p.add_argument("--trials", type=int, default=50, help="timed trials per path")
    p.add_argument("--warmup", type=int, default=5, help="untimed warmup trials")
    add_key_flags(p)
    add_dataset_flags(p)
    add_report_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("attack", help="fine-tuning attack on a locked model",
                       formatter_class=fmt)
    p.add_argument("locked", help=f"locked model file ({LOCKED_SUFFIX})")
    p.add_argument("--fraction", type=float, default=0.10,
                   help="manifest fraction of the training pool")
    p.add_argument("--manifest-seed", type=int, default=0, help="manifest split seed")
    p.add_argument("--epochs", type=int, default=50, help="retraining epochs")
    p.add_argument("--batch-size", type=int, default=32, help="mini-batch size")
    p.add_argument("--lr", type=float, default=0.05, help="SGD learning rate")
    p.add_argument("--seed", type=int, default=0, help="retraining shuffle seed")
    p.add_argument("--init-mode", choices=("unlocked", "raw"), default="unlocked",
                   help="start from wrong-key-decrypted weights or raw locked bytes")
    p.add_argument("--control", action="store_true",
                   help="run the control arm (fresh init, same data budget; no key needed)")
    p.add_argument("--init-seed", type=int, default=0, help="control-arm init seed")
    add_key_flags(p, required=False)  # the wrong key for the attack arm
    add_dataset_flags(p, val=True)
    add_report_flags(p, default_format="csv")
    p.set_defaults(func=cmd_attack)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (locker.FormatError, data.IdxFormatError, nn.ArchitectureError,
            nn.ModelSpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""modellock: key-based locking of trained neural-network parameters.

A trained model's float32 parameters are encrypted bytewise with the AES
S-Box under a keystream expanded from a 128-bit master key; inference
requires presenting the key on every query, and a wrong key turns the model
into a random classifier. The package ships the cipher primitives, a
minimal deterministic CNN engine, binary model containers, and the
experiment harness (fidelity, wrong-key sweeps, latency, fine-tuning
attack) plus a CLI wiring the whole workflow together.
"""

from .cipher import (
    KEY_LEN,
    BufferTypeError,
    KeyFormatError,
    KeystreamTooShortError,
    check_key,
    expand_keystream,
    lock_bytes,
    unlock_bytes,
)
from .data import Dataset, load_idx_dataset, manifest_split, parse_idx, synthetic_dataset
from .harness import (
    AttackCurve,
    EvalReport,
    LatencyReport,
    SweepReport,
    benchmark_latency,
    emit_report,
    evaluate,
    fine_tune_attack,
    fine_tune_control,
    generate_wrong_keys,
    wrong_key_sweep,
)
from .locker import (
    BadMagicError,
    DigestMismatchError,
    FormatError,
    LockedModel,
    TruncatedFileError,
    UnsupportedVersionError,
    lock_model,
    read_locked,
    read_model,
    unlock_model,
    write_locked,
    write_model,
)
from .nn import (
    Architecture,
    ArchitectureError,
    Model,
    Prediction,
    TrainConfig,
    build_model,
    forward,
    forward_batch,
    format_architecture,
    parse_architecture,
    predict_class,
    train,
)

__version__ = "0.1.0"

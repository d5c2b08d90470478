"""Smoke test of the benchmark: every workload, traced and untraced, with a tiny window.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``
(two to three minutes). It checks the output contract, not speed: the last line
is the result object, every metric named in BENCHMARK.json is emitted with
its unit, and every operation passed its correctness check.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

DOCUMENTED_END_TO_END = {  # perfbench/README.md, "End-to-end metrics"
    "query_ms_p50", "query_ms_p90", "plain_query_ms_p50", "sweep_keys_per_s", "eval_images_per_s",
    "attack_epochs_per_s", "control_epochs_per_s", "lock_ms_p50", "unlock_check_ms_p50", "setup_s",
    "ops_ok_share",
}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, lines[-2]
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float)) and emitted["value"] > 0, m["name"]
    details = json.loads(lines[-2])
    assert set(details["digests"]) == {"query", "sweep", "attack", "provision", "keystream"}
    assert details["ops_failed_share"] == 0


def test_end_to_end_names_are_the_documented_set():
    assert {m["name"] for m in SPEC["end_to_end"]} == DOCUMENTED_END_TO_END


def test_same_seed_gives_same_digests():
    first, second = (json.loads(run("query-mnist", 0).stdout.strip().splitlines()[-2]) for _ in range(2))
    assert first["digests"] == second["digests"]


def test_fails_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-mnist", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

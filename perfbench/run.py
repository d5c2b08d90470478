"""modellock benchmark: locked queries, wrong-key sweeps, fine-tuning attacks, CLI provisioning.

Run from the repository root:

    python3 perfbench/run.py --workload query-mnist --seed 1 --seconds 20 --trace 0

It imports the package from ``src/`` of the checkout it sits in, sets up
(``SETUPS`` times, reporting the median), runs the workload's closed loop for
``--seconds`` of measured operation time, checks every operation's output,
and prints one JSON object as its last line: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics with
nothing wrapped; ``--trace 1`` reports per-layer metrics from spans recorded
around the package's public functions. Full results (provenance, digests,
per-operation counts) are printed on the line before and written under
``.perfbench_out/``, with the spans of a traced run. See perfbench/README.md.
"""

import os

# One caller, one thread: pin BLAS before numpy loads so runs do not depend on
# how many cores the host happens to have idle.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUPS = 3
# workload -> the operation family that gets the largest share of its measured time
WORKLOADS = {
    "query-mnist": "query",
    "sweep-mnist": "sweep",
    "attack-mnist": "attack",
    "provision-cifar10": "provision",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float, help="measured operation time")
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def blas_info(np) -> dict:
    """BLAS library name and the thread count it reports, if it can be asked."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads, "threads_env": BLAS_THREADS}


def provenance(np, args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "modellock" / "__init__.py").is_file():
        print(f"error: no modellock package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    import mix
    import spans

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    tracer = spans.Tracer() if args.trace else None
    try:
        setup_times, setup_raw = [], []
        for rep in range(SETUPS):
            traced_setup = tracer is not None and rep == 0
            if traced_setup:
                tracer.install()
                tracer.begin_op("setup")
            try:
                fx, seconds, scale = mix.scaled(mix.set_up, args.seed, workdir)
            finally:
                if traced_setup:
                    tracer.end_op()
                    tracer.uninstall()
            if traced_setup:
                tracer.scale[-1] = scale
            setup_times.append(seconds * scale)
            setup_raw.append(seconds)
        runner = mix.Runner(tracer)
        families = mix.run_loop(WORKLOADS[args.workload], fx, args.seed, args.seconds, runner, tracer)
        digests = {name: f.digest.hexdigest() for name, f in families.items()}
        digests["keystream"] = mix.keystream_digest(fx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(runner.attempted.values())
    failed = sum(runner.failed.values())
    plain_p50 = statistics.median(runner.samples("query_plain"))
    details = {
        "schema": "perfbench-result/1",
        "provenance": provenance(np, args),
        "shares": mix.shares(WORKLOADS[args.workload]),
        "cycles": {name: f.cycles for name, f in families.items()},
        "ops_attempted": runner.attempted,
        "ops_failed": runner.failed,
        "ops_failed_share": failed / attempted,
        "errors": runner.errors,
        "setup_s_scaled": setup_times,
        "setup_s_raw": setup_raw,
        "raw_median_ms": {op: 1e3 * statistics.median(v) for op, v in runner.raw.items()},
        "right_key_accuracy": fx.plain_report.accuracy,
        "overhead_ratio": statistics.median(runner.samples("query_locked")) / plain_p50,
        "digests": digests,
    }
    if tracer is None:
        metrics = mix.end_to_end(runner, setup_times, len(fx.test_set))
    else:
        metrics, details["blocking_path_share"] = spans.layer_metrics(
            tracer, runner.traced, runner.untraced)
        details["trace_overhead_ms"] = spans.overhead_ms(runner.traced, runner.untraced)
        details["span_count"] = len(tracer.spans)
    details["metrics"] = metrics
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=2, sort_keys=True)
    if tracer is not None:
        with open(OUT_DIR / f"spans-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({"ops": tracer.ops, "fields": ["name", "start", "end", "parent", "op", "size"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

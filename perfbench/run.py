"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout.  Each sample runs in a fresh
``worker.py`` process.  Untraced (``--trace 0``), the measuring process
runs between set-up-only processes; the end-to-end metrics are
``wall_s`` (mean pass of the workload's fixed job), ``setup_s`` (median
over the processes of the time from process start to the first timed
call) and ``peak_rss_mb`` (the measuring process's high-water mark).
``wall_s`` and ``setup_s`` are scaled to a reference host speed by the
calibration of ``calibrate.py``; the raw values are printed besides them.
Traced (``--trace 1``), the measuring process alternates untraced and
traced passes and the metrics are the per-layer ones of
``BENCHMARK.json``; the tracing overhead (traced minus untraced wall time)
is printed besides them.

Prints one line per metric with its unit, ``error_rate``, and as the last
line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 0 when every output was correct and 1 when an
operation failed: a wrong output, or the program raising while it made the
inputs or ran the job.  Exits 2 without a result when the benchmark itself
cannot run (no ``src/``, no ``BENCHMARK.json``, a worker that printed no
record or ran out of time).  ``--out`` also writes the full record:
environment, exact inputs, every pass and every per-layer value.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_DIR = ROOT / ".perfbench_work"  # scratch for the workers' input files, removed after the run
SETUP_ONLY_PROCESSES = 6  # set-up samples per untraced run besides the measuring process, half before it, half after
DEADLINE_S = 170.0  # a run must end within 180 s
WORKER_ENV = {"PYTHONHASHSEED": "0", "LAYERLENS_THREADS": "1"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def load_benchmark(root: Path = ROOT) -> dict:
    try:
        with open(root / "BENCHMARK.json", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def _source_digest(root: Path) -> str:
    """SHA-256 over the package sources, which identifies the code measured
    also where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path = ROOT) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }


def inputs_digest(inputs: dict) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()[:16]


def _spawn(args: argparse.Namespace, setup_only: bool, deadline: float) -> tuple[dict, float]:
    """Run one worker; returns its record and its set-up time, measured from
    just before the process was started."""
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(WORK_DIR),
    ]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the measuring process started")
    t0 = time.monotonic()
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV}, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {remaining:.0f} s") from exc
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {done.returncode}")
    try:
        record = json.loads(lines[-1])
    except ValueError as exc:
        raise BenchError(f"worker printed no record: {lines[-1][:200]!r}") from exc
    return record, record["setup_done"] - t0


def select_metrics(bench: dict, trace: int, record: dict, setups: list[float]) -> dict:
    """The declared metrics of this run, as ``{name: {"value", "unit"}}``.

    When an operation failed, the metrics that could not be measured (for
    instance ``wall_s`` when the inputs could not be made) are left out; a
    run whose outputs were all correct must have every declared metric.
    """
    if trace:
        declared = bench["per_layer"]
        values = record.get("layer", {})
    else:
        declared = bench["end_to_end"]
        values = {"setup_s": statistics.median(setups), "peak_rss_mb": record["peak_rss_mb"]}
        if "scaled_wall_s" in record:
            values["wall_s"] = record["scaled_wall_s"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and not record["failed"]:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in values}


def measure(args: argparse.Namespace, bench: dict) -> dict:
    """Run the samples and build the full record of this run."""
    deadline = time.monotonic() + DEADLINE_S
    WORK_DIR.mkdir(exist_ok=True)
    samples = 0 if args.trace else SETUP_ONLY_PROCESSES // 2
    before = [_spawn(args, True, deadline) for _ in range(samples)]
    record, setup_s = _spawn(args, False, deadline)
    after = [_spawn(args, True, deadline) for _ in range(samples)]
    spawned = before + [(record, setup_s)] + after
    raw_setups = [took for _, took in spawned]
    setups = [took * worker["setup_scale"] for worker, took in spawned]
    metrics = select_metrics(bench, args.trace, record, setups)
    attempted, failed = record["attempted"], record["failed"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "inputs": record["inputs"],
        "inputs_digest": inputs_digest(record["inputs"]),
        "passes": record["passes"],
        "calibrations": record.get("calibrations", []),
        "traced_passes": record["traced_passes"],
        "setup_samples": raw_setups,
        "scaled_setup_samples": setups,
        "peak_rss_mb": record["peak_rss_mb"],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "errors": record["errors"],
        "pass_counts": record["pass_counts"],
        "layer": record.get("layer", {}),
        "metrics": metrics,
    }


def _parser(workloads: list[str]) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description="Run one layerlens benchmark workload.")
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True, help="how long the job is repeated")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", default=None, help="also write the full record as JSON here")
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        if not (ROOT / "src" / "layerlens" / "__init__.py").is_file():
            raise BenchError(f"no layerlens sources under {ROOT / 'src'}")
        bench = load_benchmark()
        args = _parser([w["name"] for w in bench["workloads"]]).parse_args(argv)
        full = measure(args, bench)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    print(f"workload={full['workload']} seed={full['seed']} trace={full['trace']} passes={len(full['passes'])}")
    for errline in full["errors"]:
        print(f"error: {errline}")
    for name, m in full["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    if not full["trace"] and full["passes"]:
        print(f"raw_wall_s {statistics.fmean(full['passes'])!r} s (wall_s before scaling)")
        print(f"raw_setup_s {statistics.median(full['setup_samples'])!r} s (setup_s before scaling)")
    if "trace.overhead_s" in full["layer"]:
        print(f"trace.overhead_s {full['layer']['trace.overhead_s']!r} s (traced minus untraced wall time)")
    print(f"error_rate {full['error_rate']!r} ratio ({full['failed']} of {full['attempted']} operations failed)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(full, f, indent=1)
            f.write("\n")
    result = {
        "correct": full["failed"] == 0,
        "attempted": full["attempted"],
        "failed": full["failed"],
        "metrics": full["metrics"],
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: make a workload's inputs, run its job for a number
of seconds, check every output, and print one JSON record as the last line
of stdout.

``run.py`` starts this in a fresh process for every sample, so that set-up
time and peak memory belong to one workload.  With ``--setup-only`` it
stops once the inputs are made; with ``--trace 1`` every untraced pass is
followed by a traced one, and the record carries the per-layer metrics.
Untraced passes time the calibration of ``calibrate.py`` between their
operations, and the record carries the job's time scaled by it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench import calibrate, spans  # noqa: E402

MAX_ERRORS = 20


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True, help="directory for this process's input files")
    return p


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(f"{op}: {'; '.join(problems)}")


def _one_pass(workload, data, tally: Tally, calibrations: list | None = None, tracer: spans.Tracer | None = None):
    """Run the job once, operation by operation (traced when a tracer is
    given), then check its outputs untraced.  With a ``calibrations`` list,
    runs the calibration before the first operation and after each one,
    for a share of the time the operation took, and adds the samples to
    it.  Returns the job's wall time and counts; the counts are None
    when the pass raised, and every operation of the pass then counts as
    failed."""
    ops = workload.ops(data)
    outputs = []
    wall = 0.0
    if calibrations is not None:
        calibrations.append(calibrate.calibrate())
    try:
        with spans.patched(tracer) if tracer else contextlib.nullcontext():
            for op in ops:
                t0 = time.perf_counter()
                try:
                    outputs.append(op())
                finally:
                    took = time.perf_counter() - t0
                    wall += took
                    if calibrations is not None:
                        calibrations.append(calibrate.calibrate(calibrate.rounds_for(took)))
        found = workload.check(data, outputs)
    except Exception:  # a broken program must still yield a record
        traceback.print_exc()
        for _ in ops:
            tally.add("pass", ["raised; see stderr"])
        return wall, None
    for op_name, problems in found:
        tally.add(op_name, problems)
    return wall, workload.counts(outputs)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_failed(stage: str) -> dict:
    traceback.print_exc()
    return {
        "setup_done": time.monotonic(),
        "setup_scale": calibrate.at_reference_speed(1.0, [calibrate.calibrate()]),
        "inputs": None,
        "passes": [],
        "traced_passes": [],
        "attempted": 1,
        "failed": 1,
        "errors": [f"{stage} raised; see stderr"],
        "pass_counts": [],
        "peak_rss_mb": _peak_rss_mb(),
    }


def measure(workload_name: str, seed: int, seconds: float, trace: bool, setup_only: bool, workdir: str) -> dict:
    """Make the inputs and, unless ``setup_only``, run and check the job.

    When importing layerlens or making the inputs raises, the record has no
    passes and one operation, attempted and failed.  ``pass_counts`` holds
    the counts of every pass that completed: the job's own
    (``search.nodes.<case>``) and, for traced passes, every integer
    per-layer value (calls, counters, spans).
    """
    try:
        from perfbench.workloads import WORKLOADS  # imports layerlens
    except Exception:  # a broken program must still yield a record
        return _setup_failed("importing layerlens")
    workload = WORKLOADS[workload_name]
    setup_tracer = spans.Tracer()
    try:
        with spans.patched(setup_tracer) if trace else contextlib.nullcontext():
            describe, data = workload.setup(seed, workdir)
    except Exception:
        return _setup_failed("making the inputs")
    setup_done = time.monotonic()
    # the factor that takes a time measured now to the reference speed
    setup_scale = calibrate.at_reference_speed(1.0, [calibrate.calibrate()])
    record: dict = {"setup_done": setup_done, "setup_scale": setup_scale, "inputs": describe}
    if setup_only:
        return record

    setup_summary = spans.summarize(setup_tracer.spans)
    case_names = [name for w in WORKLOADS.values() for name in w.case_names()]
    tally = Tally()
    walls: list[float] = []
    calibrations: list[float] = []
    traced_walls: list[float] = []
    layer_rows: list[dict] = []
    pass_counts: list[dict] = []
    start = time.perf_counter()
    while True:
        loop_start = time.perf_counter()
        wall, counts = _one_pass(workload, data, tally, calibrations)
        walls.append(wall)
        if counts is None:
            break
        pass_counts.append(counts)
        if trace:
            tracer = spans.Tracer()
            wall, counts = _one_pass(workload, data, tally, tracer=tracer)
            if counts is None:
                break
            traced_walls.append(wall)
            row = spans.layer_metrics(spans.summarize(tracer.spans), tracer.counts, setup_summary)
            row.update({f"search.nodes.{name}": counts.get(f"search.nodes.{name}", 0) for name in case_names})
            row["trace.spans"] = len(tracer.spans)
            layer_rows.append(row)
            pass_counts.append({key: value for key, value in row.items() if isinstance(value, int)})
        now = time.perf_counter()
        if now - start + (now - loop_start) > seconds:
            break

    record.update(
        passes=walls,
        calibrations=calibrations,
        # the mean pass at the reference speed; the calibrations interleave
        # the operations in proportion to their time, so they weigh the
        # host's speed as the job saw it
        scaled_wall_s=calibrate.at_reference_speed(statistics.fmean(walls), calibrations),
        traced_passes=traced_walls,
        attempted=tally.attempted,
        failed=tally.failed,
        errors=tally.errors,
        pass_counts=pass_counts,
        peak_rss_mb=_peak_rss_mb(),
    )
    if layer_rows:
        # median_low keeps each value one that was measured, and counts integers
        layer = {key: statistics.median_low(row[key] for row in layer_rows) for key in layer_rows[0]}
        layer["trace.wall_s"] = statistics.median_low(traced_walls)
        layer["trace.untraced_wall_s"] = statistics.median_low(walls)
        layer["trace.overhead_s"] = layer["trace.wall_s"] - layer["trace.untraced_wall_s"]
        record["layer"] = layer
    return record


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    workdir = tempfile.mkdtemp(dir=args.workdir)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.setup_only, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    imported = sys.modules.get("layerlens")
    if imported is not None and not Path(imported.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"layerlens was imported from {imported.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

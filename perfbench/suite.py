"""Collect, check and compare benchmark result files.

    python3 perfbench/suite.py collect --out BENCH_<tag>.json
    python3 perfbench/suite.py collect --out BENCH_change.json --parent PARENT_CHECKOUT --parent-out BENCH_parent.json
    python3 perfbench/suite.py check BENCH_<tag>.json
    python3 perfbench/suite.py compare BENCH_parent.json BENCH_change.json

``collect`` runs ``run.py`` on every workload of ``BENCHMARK.json``, round
robin, untraced once per seed of ``SEEDS`` and traced ``TRACE_RUNS`` times
on the first seed (so that counts can be seen to repeat), and writes one
result file with every run record.  With ``--parent`` it runs the parent's
checkout too, with its own ``perfbench/run.py``, seed by seed: both sides
run back to back and the side that runs first alternates, so that the two
files hold the interleaved pairs ``compare`` needs.
``check`` prints, per workload and end-to-end metric, the median, the
quartiles and their distance as a share of the median against the
metric's bound; it fails on a wrong output or on a count (unit ``count``,
such as ``search.nodes.*`` and ``decomposition.bag_entries``) that does not
repeat exactly across the passes and runs with the same inputs.
``compare`` gives each end-to-end metric a verdict by the rule below, and
compares counts exactly.  It refuses files whose seeds differ, and calls
its verdicts advisory unless the two files come from one interleaved
``collect --parent``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import uuid
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path(__file__).resolve().parent / "run.py"
SEEDS = tuple(range(1, 11))  # ten seeds: the ten pairs a verdict needs
TRACE_RUNS = 2
NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")

IMPROVED = "improved"
NO_WORSE = "no worse than the bound"
WORSE = "worse"
UNRESOLVED = "unresolved"


def valid_name(name: str) -> bool:
    """Metric and workload names: 1 to 64 of ``[A-Za-z0-9_.-]``, starting
    with a letter or a digit."""
    return 0 < len(name) <= 64 and name[0].isascii() and name[0].isalnum() and set(name) <= NAME_CHARS


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def count_wins(pairs: list[tuple[float, float]], better: str) -> int:
    """Pairs (parent, change) in which the change reads better; ties count
    for neither side."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(1 for old, new in pairs if sign * (old - new) > 0)


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]], bound: float, better: str) -> str:
    """Verdict on one end-to-end metric of one workload.

    ``improved``: the change wins at least nine tenths of at least ten
    pairs, and the medians differ by more than the distance between the
    parent's quartiles.  ``unresolved``: the spread of either side, as a
    share of its median, is wider than the bound, unless every run of the
    change reads better than every run of the parent.  ``worse``: the
    change's median is worse than the parent's by more than the bound.
    Otherwise ``no worse than the bound``.
    """
    sign = 1.0 if better == "lower" else -1.0

    def gain(old: float, new: float) -> float:
        return sign * (old - new)

    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    wins = count_wins(pairs, better)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain(pmed, cmed) > pq3 - pq1:
        return IMPROVED
    spread = max((pq3 - pq1) / abs(pmed) if pmed else 0.0, (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    if spread > bound:
        best_parent = min(parent) if better == "lower" else max(parent)
        worst_change = max(change) if better == "lower" else min(change)
        return NO_WORSE if gain(best_parent, worst_change) > 0 else UNRESOLVED
    if -gain(pmed, cmed) > bound * abs(pmed):
        return WORSE
    return NO_WORSE


def count_names(bench: dict) -> list[str]:
    return [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]


def count_values(runs: list[dict], counts: list[str]) -> dict[tuple[str, str, str], set]:
    """Every value each count took, keyed by workload, inputs and name.

    Covers the counts of every pass: the job's own (such as
    ``search.nodes.<case>``) and, for traced passes, every integer
    per-layer value; and the reported value of every per-layer metric
    named in ``counts``.
    """
    out: dict[tuple[str, str, str], set] = defaultdict(set)
    for run in runs:
        key = (run["workload"], run["inputs_digest"])
        for pass_counts in run["pass_counts"]:
            for name, value in pass_counts.items():
                out[key + (name,)].add(value)
        for name in counts:
            if name in run["layer"]:
                out[key + (name,)].add(run["layer"][name])
    return out


def repeat_problems(runs: list[dict], counts: list[str]) -> list[str]:
    """Counts that differ between runs, or passes, with identical inputs."""
    return [
        f"{workload} (inputs {digest}): {name} took the values {sorted(values)}"
        for (workload, digest, name), values in sorted(count_values(runs, counts).items())
        if len(values) > 1
    ]


def _by_workload(result: dict, trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = defaultdict(list)
    for run in result["runs"]:
        if run["trace"] == trace:
            out[run["workload"]].append(run)
    return out


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def check(result: dict) -> int:
    """Print spreads against bounds; 1 when an output was wrong or a count
    did not repeat."""
    bench = result["benchmark"]
    status = 0
    print(f"{'workload':14} {'metric':12} {'n':>3} {'median [q1, q3]':36} {'spread':>8} {'bound':>6}")
    for workload, runs in _by_workload(result, 0).items():
        for metric in bench["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs if metric["name"] in run["metrics"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            note = "" if spread <= metric["bound"] / 3 else ("  > bound/3" if spread <= metric["bound"] else "  > bound")
            print(f"{workload:14} {metric['name']:12} {len(values):3} {_fmt(values):36} {spread:8.4f} {metric['bound']:6}{note}")
    for run in result["runs"]:
        if run["failed"]:
            status = 1
            print(f"WRONG OUTPUT: {run['workload']} seed {run['seed']}: {run['failed']} of {run['attempted']} failed")
            for line in run["errors"]:
                print(f"  {line}")
    problems = repeat_problems(result["runs"], count_names(bench))
    for line in problems:
        print(f"COUNT DOES NOT REPEAT: {line}")
    if problems:
        status = 1
    else:
        print("counts repeat exactly across runs with identical inputs")
    return status


def seed_sets(result: dict) -> dict[str, set[int]]:
    return {workload: {run["seed"] for run in runs} for workload, runs in _by_workload(result, 0).items()}


def is_pair(parent: dict, change: dict) -> bool:
    """Whether the two files come from one interleaved ``collect --parent``."""
    a, b = parent.get("pairing"), change.get("pairing")
    return bool(a and b and a["id"] == b["id"] and (a["side"], b["side"]) == ("parent", "change"))


def compare(parent: dict, change: dict) -> int:
    """Print the verdict for every end-to-end metric and workload, the
    counts, and the per-layer medians of the traced runs.  Returns 2,
    printing no verdict, when the files' seeds differ."""
    if seed_sets(parent) != seed_sets(change):
        print("the two files do not hold the same workloads and seeds, so their runs cannot be paired:")
        print(f"  parent {sorted((w, sorted(s)) for w, s in seed_sets(parent).items())}")
        print(f"  change {sorted((w, sorted(s)) for w, s in seed_sets(change).items())}")
        return 2
    bench = parent["benchmark"]
    if change["benchmark"] != bench:
        print("warning: the two result files were made with different BENCHMARK.json")
    paired = is_pair(parent, change)
    if not paired:
        print("warning: these files were not collected together by `collect --parent`, so their runs are not "
              "interleaved pairs; a drift of the host between the two collections moves every metric, and the "
              "verdicts below are advisory, not choosing-metrics section 8 verdicts")
    print(f"parent {parent['env']['git_commit']} ({parent['env']['source_sha256']}), "
          f"change {change['env']['git_commit']} ({change['env']['source_sha256']})")
    runs_p, runs_c = _by_workload(parent, 0), _by_workload(change, 0)
    print(f"{'workload':14} {'metric':12} {'parent median [q1, q3]':34} {'change median [q1, q3]':34} {'wins':>6}  verdict")
    for workload in runs_p:
        rates = [(sum(r["failed"] for r in runs[workload]), sum(r["attempted"] for r in runs[workload]))
                 for runs in (runs_p, runs_c)]
        (fp, ap), (fc, ac) = rates
        more = fc * ap > fp * ac
        print(f"{workload:14} {'error_rate':12} {f'{fp}/{ap} failed':34} {f'{fc}/{ac} failed':34} {'':6}  "
              f"{'worse: no gain counts' if more else 'no worse'}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            by_seed_p = {run["seed"]: run["metrics"][name]["value"] for run in runs_p[workload] if name in run["metrics"]}
            by_seed_c = {run["seed"]: run["metrics"][name]["value"] for run in runs_c[workload] if name in run["metrics"]}
            pairs = [(by_seed_p[s], by_seed_c[s]) for s in sorted(by_seed_p.keys() & by_seed_c.keys())]
            if not pairs:
                print(f"{workload:14} {name:12} not measured on both sides")
                continue
            wins = count_wins(pairs, metric["better"])
            v = verdict(list(by_seed_p.values()), list(by_seed_c.values()), pairs, metric["bound"], metric["better"])
            print(f"{workload:14} {name:12} {_fmt(list(by_seed_p.values())):34} "
                  f"{_fmt(list(by_seed_c.values())):34} {wins:>2}/{len(pairs):<3}  {v if paired else v + ' (advisory)'}")

    print("\ncounts (exact; every pass, by identical inputs):")
    names = count_names(bench)
    values_p = count_values(parent["runs"], names)
    values_c = count_values(change["runs"], names)
    same = 0
    for key in sorted(values_p.keys() & values_c.keys()):
        a, b = values_p[key], values_c[key]
        if a == b:
            same += 1
            continue
        workload, _, name = key
        if len(a) == 1 and len(b) == 1:
            (va,), (vb,) = a, b
            print(f"  {workload:14} {name:46} {va} -> {vb} ({vb - va:+})")
        else:
            print(f"  {workload:14} {name:46} not repeatable: {sorted(a)} -> {sorted(b)}")
    print(f"  {same} counts equal")

    print("\nper-layer medians of the traced runs (seconds, no bound):")
    traced_p, traced_c = _by_workload(parent, 1), _by_workload(change, 1)
    for workload in traced_p.keys() & traced_c.keys():
        for metric in bench["per_layer"]:
            if metric["unit"] != "s":
                continue
            a = statistics.median(run["layer"][metric["name"]] for run in traced_p[workload])
            b = statistics.median(run["layer"][metric["name"]] for run in traced_c[workload])
            if a or b:
                print(f"  {workload:14} {metric['name']:46} {a:10.4f} {b:10.4f}")
    return 0


def plan(workloads: list[str], sides: int) -> list[tuple[int, str, int, int]]:
    """The runs of a collection in order, as (side, workload, seed, trace).

    With two sides (0 the parent, 1 the change) every workload and seed
    runs on both back to back, and the side that runs first alternates
    from one seed, or traced repetition, to the next.
    """
    out = []
    for trace, seeds in ((0, SEEDS), (1, (SEEDS[0],) * TRACE_RUNS)):
        for i, seed in enumerate(seeds):
            order = list(range(sides)) if i % 2 == 0 else list(reversed(range(sides)))
            out += [(side, w, seed, trace) for w in workloads for side in order]
    return out


def _load_benchmark(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def collect(sides: list[tuple[Path, str]]) -> int:
    """Run every workload on each (checkout, result file) of ``sides``,
    parent first when there are two, and write the result files."""
    bench = _load_benchmark(ROOT)
    names = [w["name"] for w in bench["workloads"]]
    records: list[list[dict]] = [[] for _ in sides]
    runs = plan(names, len(sides))
    with tempfile.TemporaryDirectory() as tmp:
        for idx, (side, workload, seed, trace) in enumerate(runs):
            root = sides[side][0]
            path = Path(tmp) / f"{idx}.json"
            cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(trace), "--out", str(path)]
            done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
            if not path.exists():
                sys.stderr.write(done.stderr)
                print(f"run failed in {root}: {' '.join(cmd[1:])} (exit {done.returncode})", file=sys.stderr)
                return 1
            with open(path, encoding="utf-8") as f:
                records[side].append(json.load(f))
            print(f"[{idx + 1}/{len(runs)}] {root.name}: {done.stdout.strip().splitlines()[-1][:150]}", flush=True)
    pairing_id = uuid.uuid4().hex
    status = 0
    for (root, out), side_records, side_name in zip(sides, records, ("parent", "change") if len(sides) == 2 else ("",)):
        result = {
            "benchmark": _load_benchmark(root),
            "env": side_records[0]["env"],
            "pairing": {"id": pairing_id, "side": side_name} if side_name else None,
            "runs": side_records,
        }
        with open(out, "w", encoding="utf-8") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
        print(f"\n{out} ({root}):")
        status = max(status, check(result))
    return status


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Collect, check and compare layerlens benchmark results.")
    sub = p.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run every workload on every seed and write a result file")
    c.add_argument("--out", required=True, help="result file of this checkout")
    c.add_argument("--parent", type=Path, default=None, help="checkout of the parent commit, run interleaved")
    c.add_argument("--parent-out", default=None, help="result file of the parent (with --parent)")
    k = sub.add_parser("check", help="spreads, wrong outputs and count repetition of one result file")
    k.add_argument("result")
    m = sub.add_parser("compare", help="verdicts of a change against its parent")
    m.add_argument("parent")
    m.add_argument("change")
    args = p.parse_args(argv)

    if args.command == "collect":
        if (args.parent is None) != (args.parent_out is None):
            p.error("--parent and --parent-out go together")
        sides = [(ROOT, args.out)]
        if args.parent is not None:
            sides.insert(0, (args.parent.resolve(), args.parent_out))
        return collect(sides)
    loaded = []
    for path in [args.result] if args.command == "check" else [args.parent, args.change]:
        with open(path, encoding="utf-8") as f:
            loaded.append(json.load(f))
    return check(*loaded) if args.command == "check" else compare(*loaded)


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: inputs made from a seed, the timed job, and
the checks on every output.

Each workload stresses other layers, so that a change to one layer has a
workload that exercises it and one that bypasses it:

* ``exact-k``: the k-planar branch and bound and the factorial minimax;
  ``core`` and ``decomposition`` do no work.
* ``exact-h``: the quasiplanar branch and bound, kept apart from
  ``exact-k`` so that a gain on one DFS cannot hide a loss on the other.
* ``analyze-large``: few CLI calls on drawings with thousands of edges,
  dominated by the quadratic bag builder and the validator; no search.
* ``reproduce``: the acceptance suite, thousands of small calls into
  ``core``, ``families`` and ``decomposition``, where a higher per-call
  constant shows.

The exact workloads and ``reproduce`` have fixed inputs (the suite uses
its own master seeds); the seed picks the random drawing of
``analyze-large``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from dataclasses import dataclass

import layerlens
from layerlens import KPlanar, Quasiplanar, cli, complete_bipartite, is_h_quasiplanar, is_k_planar
from layerlens.oracles import brute_force_mutually_crossing, brute_force_profile

# A workload's job is a fixed list of operations, each a callable without
# arguments; the worker times them one by one.  They and the set-up call
# layerlens through its module attributes, so that the spans of a traced
# run (perfbench.spans.patched) see every call.


@dataclass(frozen=True)
class DensityCase:
    """``max_density(n, constraint)`` with its pinned optimum."""

    name: str
    n: int
    constraint: KPlanar | Quasiplanar
    best_m: int


@dataclass(frozen=True)
class MinimaxCase:
    """``minimax_k(K_{a,b})`` with its pinned value."""

    name: str
    a: int
    b: int
    value: int


def check_density(case: DensityCase, result) -> list[str]:
    """Problems with one ``max_density`` result; empty when it is right.

    The witness is re-verified by the library predicate and, independently,
    by the brute-force oracle.
    """
    problems = []
    w = result.witness
    if result.best_m != case.best_m:
        problems.append(f"best_m={result.best_m}, pinned {case.best_m}")
    if w.m != result.best_m or w.n != case.n:
        problems.append(f"witness has n={w.n}, m={w.m}; expected n={case.n}, m={result.best_m}")
    if isinstance(case.constraint, KPlanar):
        k = case.constraint.k
        if not is_k_planar(w, k):
            problems.append(f"witness is not {k}-planar")
        if brute_force_profile(w).max_per_edge > k:
            problems.append(f"oracle: witness has an edge crossed more than {k} times")
    else:
        h = case.constraint.h
        if not is_h_quasiplanar(w, h):
            problems.append(f"witness is not {h}-quasiplanar")
        if brute_force_mutually_crossing(w) >= h:
            problems.append(f"oracle: witness has {h} pairwise crossing edges")
    return problems


class Exact:
    """Exact searches at the top of the advertised range, sequentially."""

    def __init__(self, density: tuple[DensityCase, ...], minimax: tuple[MinimaxCase, ...]) -> None:
        self.density = density
        self.minimax = minimax

    def case_names(self) -> list[str]:
        return [c.name for c in self.density]

    def setup(self, seed: int, workdir: str):
        describe = {
            "max_density": [{"case": c.name, "n": c.n, "constraint": c.constraint.label, "threads": 1} for c in self.density],
            "minimax_k": [
                {"case": c.name, "p": c.a, "q": c.b, "m": c.a * c.b, "graph": f"K_{{{c.a},{c.b}}}"} for c in self.minimax
            ],
        }
        graphs = [complete_bipartite(c.a, c.b) for c in self.minimax]
        return describe, graphs

    def ops(self, graphs) -> list:
        out = [lambda c=c: layerlens.max_density(c.n, c.constraint, threads=1) for c in self.density]
        out += [lambda g=g: layerlens.minimax_k(g) for g in graphs]
        return out

    def check(self, graphs, outputs) -> list[tuple[str, list[str]]]:
        found = []
        for case, result in zip(self.density, outputs):
            found.append((case.name, check_density(case, result)))
        for case, value in zip(self.minimax, outputs[len(self.density) :]):
            found.append((case.name, [] if value == case.value else [f"minimax={value}, pinned {case.value}"]))
        return found

    def counts(self, outputs) -> dict[str, int]:
        return {f"search.nodes.{c.name}": r.stats.nodes for c, r in zip(self.density, outputs)}


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


@dataclass
class LargeInput:
    name: str
    drawing: object
    path: str
    pd_path: str
    svg_path: str
    reference: object = None  # brute-force profile, made at the first check


class AnalyzeLarge:
    """``analyze --json``, ``pathwidth --out`` and ``export --format svg``
    through ``cli.main`` on two drawings with thousands of edges."""

    SIZE = 250  # planar6 bricks, and the layer size of the random drawing
    RANDOM_M = 2000

    def case_names(self) -> list[str]:
        return []

    def setup(self, seed: int, workdir: str):
        drawings = [
            ("planar6-250", layerlens.planar6_family(self.SIZE), {"family": "planar6", "size": self.SIZE}),
            (
                f"random-250x250-m2000-s{seed}",
                layerlens.random_drawing(self.SIZE, self.SIZE, self.RANDOM_M, seed),
                {"random_drawing_seed": seed},
            ),
        ]
        data = []
        describe = {"drawings": [], "commands": ["analyze --json", "pathwidth --out", "export --format svg --out"]}
        for name, d, extra in drawings:
            path = os.path.join(workdir, f"{name}.json")
            layerlens.save_drawing(d, path)
            base = os.path.join(workdir, name)
            data.append(LargeInput(name, d, path, base + ".pd.json", base + ".svg"))
            describe["drawings"].append({"name": name, "p": d.p, "q": d.q, "m": d.m, **extra})
        return describe, data

    def ops(self, data: list[LargeInput]) -> list:
        out = []
        for item in data:
            out.append(lambda item=item: _cli(["analyze", item.path, "--json"]))
            out.append(lambda item=item: _cli(["pathwidth", item.path, "--out", item.pd_path]))
            out.append(lambda item=item: _cli(["export", item.path, "--format", "svg", "--out", item.svg_path]))
        return out

    def check(self, data: list[LargeInput], outputs) -> list[tuple[str, list[str]]]:
        found = []
        for idx, item in enumerate(data):
            if item.reference is None:
                item.reference = brute_force_profile(item.drawing)
            ref = item.reference
            (rc_a, out_a), (rc_p, out_p), (rc_e, _) = outputs[3 * idx : 3 * idx + 3]
            found.append((f"analyze {item.name}", _check_analyze(rc_a, out_a, item.drawing, ref)))
            found.append((f"pathwidth {item.name}", _check_pathwidth(rc_p, out_p, item.pd_path, ref)))
            found.append((f"export {item.name}", _check_export(rc_e, item.svg_path, item.drawing, ref)))
        return found

    def counts(self, outputs) -> dict[str, int]:
        return {}


def _check_analyze(rc: int, out: str, d, ref) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        report = json.loads(out)
    except ValueError as exc:
        return [f"stdout is not JSON ({exc})"]
    problems = []
    if report.get("m") != d.m:
        problems.append(f"m={report.get('m')}, input has {d.m}")
    if report.get("total_crossings") != ref.total:
        problems.append(f"total_crossings={report.get('total_crossings')}, brute force {ref.total}")
    if report.get("max_per_edge") != ref.max_per_edge:
        problems.append(f"max_per_edge={report.get('max_per_edge')}, brute force {ref.max_per_edge}")
    return problems


_PATHWIDTH_LINE = re.compile(r"^bags=(\d+) width=(-?\d+) orientation=(top|bottom) valid=(True|False)$", re.M)


def _check_pathwidth(rc: int, out: str, pd_path: str, ref) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    found = _PATHWIDTH_LINE.search(out)
    if found is None:
        return [f"unexpected stdout {out[:120]!r}"]
    bags, width, valid = int(found.group(1)), int(found.group(2)), found.group(4) == "True"
    problems = []
    if not valid:
        problems.append("decomposition reported invalid")
    if width > ref.max_per_edge + 1:
        problems.append(f"width={width} exceeds max_per_edge + 1 = {ref.max_per_edge + 1}")
    try:
        with open(pd_path, encoding="utf-8") as f:
            saved = json.load(f)
    except (OSError, ValueError) as exc:
        return problems + [f"decomposition file unreadable ({exc})"]
    if saved.get("width") != width or len(saved.get("bags", ())) != bags:
        problems.append("decomposition file disagrees with stdout")
    return problems


def _check_export(rc: int, svg_path: str, d, ref) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        with open(svg_path, encoding="utf-8") as f:
            svg = f.read()
    except OSError as exc:
        return [f"svg unreadable ({exc})"]
    problems = []
    if f"crossings: {ref.total}<" not in svg:
        problems.append(f"svg lacks the crossing total {ref.total}")
    if svg.count("<line ") != d.m:
        problems.append(f"svg has {svg.count('<line ')} edges, drawing has {d.m}")
    return problems


class Reproduce:
    """``layerlens reproduce --threads 1`` through ``cli.main``."""

    CRITERIA = {str(c) for c in range(1, 9)}

    def case_names(self) -> list[str]:
        return []

    def setup(self, seed: int, workdir: str):
        describe = {"command": "reproduce --threads 1", "inputs": "the suite's fixed master seeds"}
        return describe, None

    def ops(self, data) -> list:
        return [lambda: _cli(["reproduce", "--threads", "1"])]

    def check(self, data, outputs) -> list[tuple[str, list[str]]]:
        (rc, out), = outputs
        return [("reproduce", check_reproduce(rc, out))]

    def counts(self, outputs) -> dict[str, int]:
        return {}


def check_reproduce(rc: int, out: str) -> list[str]:
    """Problems with one ``reproduce`` run: a nonzero exit, a FAIL row, a
    criterion missing, or a summary that does not match the rows."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    lines = out.splitlines()
    rows = [line for line in lines[1:] if line[:1].isdigit()]
    problems += [f"FAIL row: {line}" for line in rows if line.endswith(",FAIL")]
    seen = {line.split(",", 1)[0] for line in rows}
    if seen != Reproduce.CRITERIA:
        problems.append(f"criteria seen {sorted(seen)}")
    if not lines or lines[-1] != f"all {len(rows)} checks pass":
        problems.append(f"summary line {lines[-1] if lines else ''!r} does not match {len(rows)} rows")
    return problems


WORKLOADS = {
    "exact-k": Exact(
        (
            DensityCase("n12-k5", 12, KPlanar(5), 22),
            DensityCase("n11-k8", 11, KPlanar(8), 22),
            DensityCase("n12-k2", 12, KPlanar(2), 17),
        ),
        (MinimaxCase("K5x5", 5, 5, 16), MinimaxCase("K4x6", 4, 6, 15), MinimaxCase("K3x7", 3, 7, 12)),
    ),
    "exact-h": Exact(
        (DensityCase("n12-h4", 12, Quasiplanar(4), 27), DensityCase("n11-h3", 11, Quasiplanar(3), 18)),
        (),
    ),
    "analyze-large": AnalyzeLarge(),
    "reproduce": Reproduce(),
}

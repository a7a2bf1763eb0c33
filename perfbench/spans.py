"""Spans around the calls into each layerlens layer, recorded from outside
the package.

``patched(tracer)`` replaces every public function listed in ``SPANS`` by
a wrapper, in every ``layerlens`` module namespace that holds it (so the
calls one layer makes into another are caught too), and wraps
``Drawing.__init__`` so that every drawing construction is a span.  The
originals are restored on exit.  Spans stay in memory; ``summarize``
turns them into calls, busy time and self time per span name.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from importlib import import_module

# Layer (module of layerlens) -> public functions that get a span.  The
# cheap predicates called inside quadratic loops (``edges_cross``) are left
# out on purpose: wrapping them would measure the wrapper.
SPANS: dict[str, tuple[str, ...]] = {
    "core": (
        "Drawing",
        "crossing_profile",
        "is_k_planar",
        "is_h_quasiplanar",
        "mutually_crossing_number",
        "brick_decomposition",
        "induced_subdrawing",
        "load_drawing",
        "save_drawing",
    ),
    "families": (
        "opt2planar",
        "planar3_family",
        "planar4_family",
        "planar5_family",
        "planar6_family",
        "general_k_family",
        "special_s",
    ),
    "search": ("max_density", "minimax_k", "random_drawing"),
    "decomposition": ("build_path_decomposition", "validate_decomposition", "decomposition_to_json"),
    "bounds": (
        "default_table",
        "crossing_lemma_coefficient",
        "crossing_lower_bound",
        "density_threshold",
        "auxiliary_lower_bound",
        "density_upper_bound",
        "quasiplanar_threshold",
    ),
    "oracles": ("brute_force_profile", "brute_force_mutually_crossing"),
    "export": ("to_svg",),
    "cli": ("main", "analyze_drawing"),
    "reproduce": (
        "run_all",
        "check_density_table",
        "check_families",
        "check_minimax",
        "check_constants",
        "check_crossing_bounds",
        "check_pathwidth",
        "check_relationship",
        "check_oracle_equivalence",
    ),
}

# Span name -> (counter name, work done by one call as a count).
COUNTERS = {
    "search.max_density": ("search.nodes", lambda result: result.stats.nodes),
    "decomposition.build_path_decomposition": (
        "decomposition.bag_entries",
        lambda pd: sum(len(bag) for bag in pd.bags),
    ),
    "core.crossing_profile": ("core.edges_profiled", lambda prof: len(prof.per_edge)),
}


class Tracer:
    """Collects spans as ``[name, start, end, parent index]`` plus counters.

    ``clock`` is injectable so that tests can feed synthetic timestamps.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Calls, busy time and self time per span name.

    Self time is a span's duration minus the durations of its direct
    children.  Busy time is the wall time during which at least one span of
    that name was open: a span nested inside another of the same name adds
    nothing to it.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += dur - child[idx]
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            row["busy_s"] += dur
    return out


def layer_self_time(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self time summed over the spans of each layer."""
    out: dict[str, float] = defaultdict(float)
    for name, row in summary.items():
        out[name.split(".", 1)[0]] += row["self_s"]
    return out


def _wrap(tracer: Tracer, name: str, fn):
    counter = COUNTERS.get(name)

    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if counter is not None:
            tracer.count(counter[0], counter[1](result))
        return result

    return wrapper


@contextmanager
def patched(tracer: Tracer):
    """Route every call into the functions of ``SPANS`` through ``tracer``."""
    modules = {layer: import_module(f"layerlens.{layer}") for layer in SPANS}
    package = [m for key, m in list(sys.modules.items()) if key == "layerlens" or key.startswith("layerlens.")]
    undo: list[tuple[object, str, object]] = []
    try:
        for layer, names in SPANS.items():
            module = modules[layer]
            for fn_name in names:
                span = f"{layer}.{fn_name}"
                orig = getattr(module, fn_name)
                if isinstance(orig, type):
                    init = orig.__init__
                    undo.append((orig, "__init__", init))
                    orig.__init__ = _wrap(tracer, span, init)
                    continue
                wrapper = _wrap(tracer, span, orig)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            undo.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for obj, attr, orig in reversed(undo):
            setattr(obj, attr, orig)


def layer_metrics(summary, counts, setup_summary) -> dict[str, float]:
    """Every per-layer metric the spans and counters give, 0 where a
    function was not called: ``<layer>.<fn>.{calls,busy_s,self_s}``, the
    counters, ``search.nodes_per_s`` and ``setup.<layer>.self_s`` (the
    layer's self time while the workload's inputs were made)."""
    out: dict[str, float] = {}
    for layer, names in SPANS.items():
        for fn_name in names:
            row = summary.get(f"{layer}.{fn_name}", {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for kind in ("calls", "busy_s", "self_s"):
                out[f"{layer}.{fn_name}.{kind}"] = row[kind]
    for counter, _ in COUNTERS.values():
        out[counter] = counts.get(counter, 0)
    busy = out["search.max_density.busy_s"]
    out["search.nodes_per_s"] = out["search.nodes"] / busy if busy else 0.0
    setup_self = layer_self_time(setup_summary)
    for layer in SPANS:
        out[f"setup.{layer}.self_s"] = setup_self.get(layer, 0.0)
    return out

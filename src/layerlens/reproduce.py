"""End-to-end reproduction of the desk-scale results.

Each ``check_*`` function covers one acceptance criterion and returns
rows with expected versus actual values; ``run_all`` chains them.
Criteria 2, 5, 6 and 7 read one summary per family instance, which the
caller passes in: ``run_all`` builds, profiles and decomposes each
instance once with ``_family_summaries`` and hands the summaries to all
four.  It can also report the wall time of that pass and of each
criterion, which ``rows_to_json`` writes next to the rows.  Criteria 5 to
8 draw their random inputs from ``_random_drawings`` with fixed master
seeds, so every run sees the same drawings.
"""

from __future__ import annotations

import csv
import io
import random
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from . import bounds as bnd
from . import families as fam
from .core import Drawing, crossing_profile, induced_subdrawing, is_h_quasiplanar, is_k_planar, mutually_crossing_number
from .decomposition import build_path_decomposition, validate_decomposition
from .oracles import brute_force_mutually_crossing, brute_force_profile, connected_components
from .search import KPlanar, Quasiplanar, max_density, minimax_k, complete_bipartite, random_drawing

__all__ = ["CheckRow", "DENSITY_TABLE", "run_all", "rows_to_csv", "rows_to_json"]

_BOUNDS_SEED = 52001
_PATHWIDTH_SEED = 52002
_RELATION_SEED = 52003
_ORACLE_SEED = 52004


@dataclass(frozen=True)
class CheckRow:
    criterion: str
    case: str
    expected: str
    actual: str
    passed: bool


def _count_row(criterion: str, case: str, failed: list[str], noun: str, first: bool = True) -> CheckRow:
    """A row that expects no failing case: ``failed`` lists the labels of
    those that failed, and the first is named when ``first`` is set."""
    named = f" (first: {failed[0]})" if first and failed else ""
    return CheckRow(criterion, case, f"0 {noun}", f"{len(failed)} {noun}{named}", not failed)


# (constraint kind, parameter, n, expected maximum edge count)
DENSITY_TABLE: tuple[tuple[str, int, int, int], ...] = (
    ("k", 1, 6, 7),
    ("k", 1, 10, 13),
    ("k", 2, 5, 6),
    ("k", 2, 8, 11),
    ("k", 2, 11, 16),
    ("k", 3, 6, 8),
    ("k", 3, 8, 12),
    ("k", 4, 6, 9),
    ("k", 4, 10, 17),
    ("k", 5, 8, 14),
    ("k", 5, 10, 18),
    ("h", 3, 4, 4),
    ("h", 3, 6, 8),
    ("h", 3, 8, 12),
)


def check_density_table() -> list[CheckRow]:
    """Criterion 1: the exact density table, witnesses re-verified."""
    rows = []
    t0 = time.perf_counter()
    for kind, param, n, want in DENSITY_TABLE:
        cons = KPlanar(param) if kind == "k" else Quasiplanar(param)
        result = max_density(n, cons)
        w = result.witness
        if kind == "k":
            witness_ok = w.m == result.best_m and is_k_planar(w, param)
        else:
            witness_ok = w.m == result.best_m and is_h_quasiplanar(w, param)
        got = result.best_m
        rows.append(
            CheckRow(
                "1",
                f"max m at n={n}, {cons.label}",
                str(want),
                f"{got} (witness {'ok' if witness_ok else 'BAD'})",
                got == want and witness_ok,
            )
        )
    elapsed = time.perf_counter() - t0
    rows.append(CheckRow("1", "density table runtime", "< 600 s", f"{elapsed:.1f} s", elapsed < 600))
    return rows


_BAND_KS = (2, 8, 18, 32, 50)
_FAMILY_MAX_SIZE = 50
_PATHWIDTH_MAX_SIZE = 10  # criterion 6 decomposes the family instances up to this size
# seeded random drawings checked by criteria 5, 6, 7 and 8
_BOUNDS_SAMPLES = 500
_PATHWIDTH_SAMPLES = 500
_RELATION_SAMPLES = 500
_ORACLE_SAMPLES = 1000
# every family instance of size <= 10 has at most 10*beta - 1 <= 99 edges,
# so the pair-loop oracle covers all of them
_BRUTE_MAX_M = 150


def _family_instances():
    """(label, drawing, spec) for every registry family at every size up
    to _FAMILY_MAX_SIZE, the band family once for each k in _BAND_KS."""
    for name, family in fam.FAMILIES.items():
        if family.min_size is None:
            specs = [(f"{name}()", fam.FamilySpec(name))]
        elif family.cap is None:
            specs = [
                (f"{name}(p={p}, k={k})", fam.FamilySpec(name, p, k=k))
                for k in _BAND_KS
                for p in range(fam.min_size(name, k), _FAMILY_MAX_SIZE + 1)
            ]
        else:
            sizes = range(family.min_size, _FAMILY_MAX_SIZE + 1)
            specs = [(f"{name}({size})", fam.FamilySpec(name, size)) for size in sizes]
        for label, spec in specs:
            yield label, fam.generate(spec), spec


def _is_connected(d: Drawing) -> bool:
    return len(connected_components(d.p, d.q, d.edges)[0]) == 1


def _random_drawings(seed: int, low: int, high: int, edges: Callable[[int, int], tuple[int, int]]) -> Iterator[Drawing]:
    """Seeded random drawings without end: p and q uniform in low..high,
    the edge count uniform in the inclusive range ``edges(p, q)``, then
    the drawing's own seed, all from one master ``random.Random(seed)``."""
    rng = random.Random(seed)
    while True:
        p = rng.randint(low, high)
        q = rng.randint(low, high)
        m = rng.randint(*edges(p, q))
        yield random_drawing(p, q, m, rng.randrange(2**32))


def _pathwidth_ok(d: Drawing, max_per_edge: int) -> bool:
    """Criterion 6 on one drawing: the constructed decomposition validates
    and its width stays within max-per-edge-crossings + 1."""
    pd = build_path_decomposition(d)
    return validate_decomposition(d, pd).valid and pd.width <= max_per_edge + 1


@dataclass(frozen=True)
class FamilySummary:
    """What criteria 2, 5, 6 and 7 read off one family instance, so that
    each instance is built, profiled and decomposed once per run and no
    drawing is kept."""

    label: str
    spec: fam.FamilySpec
    n: int
    m: int
    total: int
    max_per_edge: int
    brute_max_per_edge: int | None  # the pair-loop oracle's, for m <= _BRUTE_MAX_M
    connected: bool
    mutually_crossing: int
    special_s: bool | None  # _linear_miss_special_s; criterion 5 reads it on dense instances
    pathwidth_ok: bool | None  # _pathwidth_ok, for sizes <= _PATHWIDTH_MAX_SIZE


def _family_summaries() -> list[FamilySummary]:
    """One pass over the family instances up to _FAMILY_MAX_SIZE."""
    table = bnd.default_table()
    out = []
    for label, d, spec in _family_instances():
        prof = crossing_profile(d)
        out.append(
            FamilySummary(
                label,
                spec,
                d.n,
                d.m,
                prof.total,
                prof.max_per_edge,
                brute_force_profile(d).max_per_edge if d.m <= _BRUTE_MAX_M else None,
                _is_connected(d),
                mutually_crossing_number(d),
                _linear_miss_special_s(d, prof.total, table),
                _pathwidth_ok(d, prof.max_per_edge) if spec.size <= _PATHWIDTH_MAX_SIZE else None,
            )
        )
    return out


def check_families(summaries: list[FamilySummary]) -> list[CheckRow]:
    """Criterion 2: closed-form counts and advertised crossing caps for
    all sizes up to 50, with the brute-force profile on small sizes."""
    failed = []
    for s in summaries:
        if (s.n, s.m) != fam.closed_form(s.spec):
            failed.append(f"counts: {s.label}")
        cap = s.max_per_edge if s.brute_max_per_edge is None else s.brute_max_per_edge
        if cap > fam.advertised_k(s.spec):
            failed.append(f"cap: {s.label}")
        if s.spec.family == "planar3" and s.mutually_crossing > 2:
            failed.append(f"quasi: {s.label}")
    total = len(summaries)
    return [
        CheckRow(
            "2",
            f"families up to size {_FAMILY_MAX_SIZE}: (n, m) closed forms and crossing caps",
            f"{total} instances, 0 failures",
            f"{total} instances, {len(failed)} failures" + (f" ({failed[0]})" if failed else ""),
            not failed,
        )
    ]


def check_minimax() -> list[CheckRow]:
    """Criterion 3: K_{2,4} needs 3 crossings on some edge in every
    ordering, in under a second."""
    t0 = time.perf_counter()
    got = minimax_k(complete_bipartite(2, 4))
    elapsed = time.perf_counter() - t0
    return [
        CheckRow("3", "minimax per-edge crossings of K_{2,4}", "3", str(got), got == 3),
        CheckRow("3", "K_{2,4} runtime", "< 1 s", f"{elapsed:.3f} s", elapsed < 1.0),
    ]


def check_constants() -> list[CheckRow]:
    """Criterion 4: the exact leading coefficient and the k=6 display."""
    coeff = bnd.crossing_lemma_coefficient()
    want = Fraction(124416, 421875)
    rows = [
        CheckRow(
            "4",
            "crossing bound leading coefficient",
            "124416/421875 = 0.294912",
            f"{coeff} = {float(coeff):.6f}",
            coeff == want and f"{float(coeff):.6f}" == "0.294912",
        )
    ]
    shown = bnd.density_upper_bound(4, 6).coefficient_str(3)
    rows.append(CheckRow("4", "k=6 density coefficient to 3 significant digits", "3.19", shown, shown == "3.19"))
    return rows


def _contains_special_s(d: Drawing) -> bool:
    """True iff some 4x4 index window induces exactly the exceptional
    drawing (it is invariant under 180 degree rotation)."""
    target = fam.special_s().edges
    for i in range(1, d.p - 2):
        for x in range(1, d.q - 2):
            if induced_subdrawing(d, i, i + 3, x, x + 3).edges == target:
                return True
    return False


def _linear_miss_special_s(d: Drawing, total: int, table: bnd.CoefficientTable) -> bool | None:
    """None when the crossing total meets the clamped linear bound;
    otherwise whether the drawing contains the exceptional sub-drawing."""
    linear = max(Fraction(0), bnd.auxiliary_lower_bound(d.n, d.m, table))
    return _contains_special_s(d) if Fraction(total) < linear else None


def check_crossing_bounds(summaries: list[FamilySummary]) -> list[CheckRow]:
    """Criterion 5: above the density threshold, drawing crossings beat
    both lower bounds; linear-bound misses must contain the exceptional
    sub-drawing."""
    table = bnd.default_table()
    threshold = bnd.density_threshold(table)
    # (label, n, m, crossing total, linear-bound miss as _linear_miss_special_s)
    cases = [
        (s.label, s.n, s.m, s.total, s.special_s) for s in summaries if Fraction(s.m) >= threshold * s.n
    ]
    # at least ceil(125 n / 48) edges
    dense = _random_drawings(_BOUNDS_SEED, 6, 8, lambda p, q: (-((-125 * (p + q)) // 48), p * q))
    for idx, d in enumerate(islice(dense, _BOUNDS_SAMPLES)):
        total = crossing_profile(d).total
        cases.append((f"random[{idx}]", d.n, d.m, total, _linear_miss_special_s(d, total, table)))

    cubic_viol = []
    for label, n, m, total, _ in cases:
        cubic = bnd.crossing_lower_bound(n, m, table)
        assert cubic is not None
        if Fraction(total) < cubic:
            cubic_viol.append(label)
    # each linear-bound miss: True inside an exceptional sub-drawing, False a violation
    misses = [special_s for *_, special_s in cases if special_s is not None]
    violations = misses.count(False)
    return [
        _count_row("5", f"cubic crossing bound on {len(cases)} dense drawings", cubic_viol, "violations"),
        CheckRow(
            "5",
            f"clamped linear crossing bound on {len(cases)} dense drawings",
            "0 violations outside exceptional sub-drawings",
            f"{violations} violations, {len(misses) - violations} exceptional-graph misses reported",
            not violations,
        ),
    ]


def check_pathwidth(summaries: list[FamilySummary]) -> list[CheckRow]:
    """Criterion 6 on the family instances up to _PATHWIDTH_MAX_SIZE, read
    off their summaries, then on seeded random drawings, each checked as it is made
    so that none is kept."""
    t0 = time.perf_counter()
    cases = [(s.label, s.pathwidth_ok) for s in summaries if s.pathwidth_ok is not None]
    drawings = _random_drawings(_PATHWIDTH_SEED, 1, 8, lambda p, q: (1, p * q))
    for idx, d in enumerate(islice(drawings, _PATHWIDTH_SAMPLES)):
        cases.append((f"random[{idx}]", _pathwidth_ok(d, crossing_profile(d).max_per_edge)))
    failed = [label for label, ok in cases if not ok]
    elapsed = time.perf_counter() - t0
    return [
        _count_row("6", f"path decompositions on {len(cases)} drawings (P.1-P.4, width <= k+1)", failed, "failures"),
        CheckRow("6", "pathwidth runtime", "< 30 s", f"{elapsed:.1f} s", elapsed < 30),
    ]


def check_relationship(summaries: list[FamilySummary]) -> list[CheckRow]:
    """Criterion 7: a connected drawing with per-edge cap k has fewer than
    ceil(2k/3 + 2) pairwise crossing edges.  The cap is always the
    drawing's own profile maximum; family instances ride along."""
    # (label, per-edge maximum, mutually crossing number)
    cases = [(s.label, s.max_per_edge, s.mutually_crossing) for s in summaries if s.connected]
    produced = 0
    for d in _random_drawings(_RELATION_SEED, 2, 8, lambda p, q: (p + q - 1, min(p * q, 3 * (p + q)))):
        if not _is_connected(d):
            continue
        k = crossing_profile(d).max_per_edge
        if k < 2:
            continue
        produced += 1
        cases.append((f"random[{produced}]", k, mutually_crossing_number(d)))
        if produced == _RELATION_SAMPLES:
            break
    bad = [label for label, k, mcn in cases if k >= 2 and mcn > bnd.quasiplanar_threshold(k) - 1]
    return [_count_row("7", f"quasiplanarity threshold on {len(cases)} connected drawings", bad, "violations")]


def check_oracle_equivalence() -> list[CheckRow]:
    """Criterion 8: the fast crossing profile and the subsequence-based
    mutually crossing number agree with the naive oracles."""
    profile_bad, mcn_bad = [], []
    drawings = _random_drawings(_ORACLE_SEED, 1, 8, lambda p, q: (0, min(20, p * q)))
    for idx, d in enumerate(islice(drawings, _ORACLE_SAMPLES)):
        fast = crossing_profile(d)
        slow = brute_force_profile(d)
        if fast.per_edge != slow.per_edge or fast.total != slow.total or fast.max_per_edge != slow.max_per_edge:
            profile_bad.append(f"random[{idx}]")
        if mutually_crossing_number(d) != brute_force_mutually_crossing(d):
            mcn_bad.append(f"random[{idx}]")
    on = f"on {_ORACLE_SAMPLES} drawings"
    return [
        _count_row("8", f"crossing profile vs pair-loop oracle {on}", profile_bad, "mismatches", first=False),
        _count_row("8", f"mutually crossing number vs clique oracle {on}", mcn_bad, "mismatches", first=False),
    ]


def run_all(elapsed: dict[str, float] | None = None) -> list[CheckRow]:
    """All criteria in order.

    When ``elapsed`` is given, it receives the wall seconds of the shared
    family pass under "families" and of each criterion under "1" to "8".
    """
    times = {} if elapsed is None else elapsed
    start = time.perf_counter()
    summaries = _family_summaries()
    times["families"] = time.perf_counter() - start
    steps = (
        ("1", check_density_table),
        ("2", lambda: check_families(summaries)),
        ("3", check_minimax),
        ("4", check_constants),
        ("5", lambda: check_crossing_bounds(summaries)),
        ("6", lambda: check_pathwidth(summaries)),
        ("7", lambda: check_relationship(summaries)),
        ("8", check_oracle_equivalence),
    )
    rows: list[CheckRow] = []
    for criterion, step in steps:
        start = time.perf_counter()
        rows += step()
        times[criterion] = time.perf_counter() - start
    return rows


_FIELDS = ("criterion", "case", "expected", "actual", "pass")


def _cells(r: CheckRow) -> tuple[str, str, str, str, str]:
    """A row's values as the CSV writes them, in ``_FIELDS`` order."""
    return r.criterion, r.case, r.expected, r.actual, "pass" if r.passed else "FAIL"


def rows_to_csv(rows: list[CheckRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_FIELDS)
    writer.writerows(map(_cells, rows))
    return out.getvalue()


def rows_to_json(rows: list[CheckRow], elapsed: dict[str, float]) -> dict:
    """The rows as objects keyed by the CSV's header, with the CSV's cell
    strings, and the wall seconds of each part of the run."""
    return {"rows": [dict(zip(_FIELDS, _cells(r))) for r in rows], "elapsed_s": elapsed}

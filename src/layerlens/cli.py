"""Command-line front end.

Subcommands: gen, analyze, search, minimax, pathwidth, bounds,
crossing-bound, export, reproduce.  Exit codes: 0 success, 1 usage error,
2 invalid input data, 3 reproduction-suite failure.

Every subcommand is deterministic given its flags and input files; the
only randomness in the library (seeded drawing generation and the fixed
master seeds of the reproduction suite) is explicit, never ambient.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Iterator
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, TextIO

from .core import (
    Drawing,
    Edge,
    crossing_profile,
    drawing_to_json,
    load_drawing,
    mutually_crossing_number,
)
from .search import (
    MAX_DENSITY_N,
    Constraint,
    KPlanar,
    Quasiplanar,
    SearchResult,
    _check_density_size,
    _check_minimax_size,
    _quasiplanar_optimum,
    complete_bipartite,
    max_density,
    minimax_k,
)

if TYPE_CHECKING:
    from .bounds import CoefficientTable

# bounds, decomposition, export, families and reproduce are imported by the
# functions that use them, so that a command loads only the modules it runs

__all__ = ["main", "entry", "AnalysisReport", "analyze_drawing"]


class _UsageError(Exception):
    pass


class _DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisReport:
    """Everything recomputable from a drawing alone: sizes, crossing
    statistics, bricks, the constructed pathwidth, and the verdicts of the
    crossing and quasiplanarity bounds."""

    p: int
    q: int
    n: int
    m: int
    total_crossings: int
    max_per_edge: int
    mutually_crossing: int
    planar_edges: tuple[Edge, ...]
    brick_count: int
    pathwidth_width: int
    cubic_bound: Fraction | None  # None when below the density threshold
    cubic_bound_holds: bool | None
    linear_bound_clamped: Fraction
    linear_bound_holds: bool
    quasiplanar_h: int
    quasiplanar_trivial: bool
    quasiplanar_holds: bool


def analyze_drawing(d: Drawing) -> AnalysisReport:
    from . import bounds as bnd
    from .decomposition import path_width

    prof = crossing_profile(d)
    mcn = mutually_crossing_number(d)
    planar = tuple(e for e, c in prof.per_edge.items() if c == 0)  # in (i, x) order
    cubic = bnd.crossing_lower_bound(d.n, d.m)
    linear = max(Fraction(0), bnd.auxiliary_lower_bound(d.n, d.m))
    k = prof.max_per_edge
    trivial = k < 2
    h = 3 if trivial else bnd.quasiplanar_threshold(k)
    return AnalysisReport(
        p=d.p,
        q=d.q,
        n=d.n,
        m=d.m,
        total_crossings=prof.total,
        max_per_edge=k,
        mutually_crossing=mcn,
        planar_edges=planar,
        brick_count=max(len(planar) - 1, 0),
        pathwidth_width=path_width(d),
        cubic_bound=cubic,
        cubic_bound_holds=None if cubic is None else Fraction(prof.total) >= cubic,
        linear_bound_clamped=linear,
        linear_bound_holds=Fraction(prof.total) >= linear,
        quasiplanar_h=h,
        quasiplanar_trivial=trivial,
        quasiplanar_holds=mcn <= h - 1,
    )


def _report_json(r: AnalysisReport) -> dict:
    """The report's fields in declaration order, fractions as strings."""
    return {key: str(v) if isinstance(v, Fraction) else v for key, v in asdict(r).items()}


def _report_text(r: AnalysisReport) -> str:
    lines = [
        f"layers: p={r.p}, q={r.q} (n={r.n}); edges: m={r.m}",
        f"crossings: total={r.total_crossings}, max per edge={r.max_per_edge}",
        f"mutually crossing edges: {r.mutually_crossing}",
        "planar edges: " + (", ".join(f"(u{i},v{x})" for i, x in r.planar_edges) or "none"),
        f"bricks: {r.brick_count}",
        f"path decomposition width: {r.pathwidth_width}",
    ]
    if r.cubic_bound is None:
        lines.append("cubic crossing bound: inapplicable (m below 125/48 n or n < 4)")
    else:
        verdict = "holds" if r.cubic_bound_holds else "VIOLATED"
        lines.append(f"cubic crossing bound: {r.cubic_bound} ({float(r.cubic_bound):.6g}) {verdict}")
    verdict = "holds" if r.linear_bound_holds else "VIOLATED"
    lines.append(
        f"linear crossing bound (clamped): {r.linear_bound_clamped} "
        f"({float(r.linear_bound_clamped):.6g}) {verdict}"
    )
    note = " (trivial for max per edge < 2)" if r.quasiplanar_trivial else ""
    verdict = "holds" if r.quasiplanar_holds else "VIOLATED"
    lines.append(f"quasiplanarity threshold h={r.quasiplanar_h}{note}: {verdict}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _load(path: str) -> Drawing:
    try:
        return load_drawing(path)
    except (OSError, ValueError) as exc:
        raise _DataError(str(exc)) from exc


@contextmanager
def _outputs(*paths: str | None) -> Iterator[list[TextIO | None]]:
    """Each output path opened for writing, None for one not given (or
    empty), closed on exit.  A command opens its outputs before it prints
    or computes anything, so an unwritable path fails first."""
    with ExitStack() as stack:
        yield [stack.enter_context(open(path, "w", encoding="utf-8")) if path else None for path in paths]


def _write_or_print(text: str, out: TextIO | None) -> None:
    if out:
        out.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _dump_json(obj: object, out: TextIO | None) -> None:
    """Indented JSON to the open file ``out``, without a final newline, or
    to stdout with one when ``out`` is None."""
    json.dump(obj, out or sys.stdout, indent=2)
    if not out:
        sys.stdout.write("\n")


def _threads(args: argparse.Namespace) -> int:
    """``--threads``, which must be positive and has no other effect."""
    if args.threads < 1:
        raise _UsageError(f"--threads must be positive, got {args.threads}")
    return args.threads


def _load_table(path: str | None) -> CoefficientTable:
    from . import bounds as bnd

    if path is None:
        return bnd.default_table()
    try:
        return bnd.load_table(path)
    except (OSError, ValueError) as exc:
        raise _DataError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    from . import families as fam

    # a bad spec raises ValueError, which main prints as a usage error
    spec = fam.FamilySpec(family=args.family, size=args.size, k=args.k)
    with _outputs(args.out) as (out,):
        _dump_json(drawing_to_json(fam.generate(spec)), out)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    d = _load(args.drawing)
    r = analyze_drawing(d)
    if args.json:
        _dump_json(_report_json(r), None)
    else:
        print(_report_text(r))
    return 0


def _formula_note(constraint: Constraint, n: int, result: SearchResult) -> str:
    """How ``result.best_m`` compares with the table bound; only the special
    S, the witness at n = 8, k = 5, is called an exceptional graph."""
    best = result.best_m
    if isinstance(constraint, KPlanar) and constraint.k <= 5:
        from .bounds import small_k_density_bound

        formula = small_k_density_bound(constraint.k, n)
    elif isinstance(constraint, Quasiplanar):
        p, q = _quasiplanar_optimum(n, constraint.h)
        formula = Fraction(p * q)
    else:
        return "no closed-form bound at this size"
    cap = formula.numerator // formula.denominator  # floor
    if best == cap:
        return f"matches the table bound floor({formula}) = {cap}"
    if best < cap:
        return f"below the table bound floor({formula}) = {cap} (bound not attained at this n)"
    from .families import special_s

    why = "exceptional graph" if result.witness == special_s() else "the table row does not hold at this n"
    return f"exceeds the table bound floor({formula}) = {cap} ({why})"


def _cmd_search(args: argparse.Namespace) -> int:
    if args.k is not None:
        constraint = KPlanar(args.k)
        label = f"k={args.k}"
    else:
        constraint = Quasiplanar(args.quasi)
        label = f"h={args.quasi}"
    threads = _threads(args)
    _check_density_size(args.n)
    if args.witness and args.csv and os.path.realpath(args.witness) == os.path.realpath(args.csv):
        raise _UsageError(f"--witness and --csv name the same file: {args.csv}")
    with _outputs(args.witness, args.csv) as (witness, csv):
        result = max_density(args.n, constraint)
        note = _formula_note(constraint, args.n, result)
        print(f"n={args.n} {constraint.label}: best_m={result.best_m} ({note})")
        print(f"nodes={result.stats.nodes} millis={result.stats.millis:.1f} threads={threads}")
        print("witness: first optimum in deterministic scan order")
        if witness:
            _dump_json(drawing_to_json(result.witness), witness)
        if csv:
            row = f"{args.n},{label},{result.best_m},{result.stats.nodes},{result.stats.millis:.1f}"
            _write_or_print("n,constraint,best_m,nodes,millis\n" + row + "\n", csv)
    return 0


def _cmd_minimax(args: argparse.Namespace) -> int:
    if args.complete and args.drawing:
        raise _UsageError("provide a drawing file or --complete A B, not both")
    if args.complete:
        a, b = args.complete
        if a < 1 or b < 1:
            raise _UsageError("part sizes must be positive")
        name = f"K_{{{a},{b}}}"
    elif args.drawing:
        d = _load(args.drawing)
        name = args.drawing
    else:
        raise _UsageError("provide a drawing file or --complete A B")
    try:
        if args.complete:
            _check_minimax_size(a, b)  # before building the a*b edges of K_{a,b}
            d = complete_bipartite(a, b)
        value = minimax_k(d)
    except ValueError as exc:
        raise _DataError(str(exc)) from exc
    print(f"minimax per-edge crossings of {name}: {value}")
    return 0


def _cmd_pathwidth(args: argparse.Namespace) -> int:
    from .decomposition import _write_decomposition_json, build_path_decomposition, validate_decomposition

    d = _load(args.drawing)
    with _outputs(args.out) as (out,):
        pd = build_path_decomposition(d)
        report = validate_decomposition(d, pd)
        print(f"bags={pd.bag_count} width={pd.width} orientation={pd.orientation} valid={report.valid}")
        for prop, witness in report.violations:
            print(f"violated {prop}: {witness}")
        if out:
            _write_decomposition_json(pd, out)
    return 0


# how the exact search's maxima for n = 2..14 meet the default table's rows
_ROW_NOTES = {
    3: "note: for n = 2..14 the floor of this row is the exact maximum, except at n = 2, where one edge exceeds it",
    4: "note: for n = 2..14 the floor of this row is the exact maximum only at n = 2 (mod 4); every other n has 2n - 4",
    5: "note: for n = 2..14 the floor of this row is the exact maximum, except at n = 2, where one edge exceeds it,"
    " and at n = 8, where the 14-edge exceptional drawing does",
}


def _cmd_bounds(args: argparse.Namespace) -> int:
    from . import bounds as bnd

    table = _load_table(args.table)
    k = args.k
    if k < 0:
        raise _UsageError("k must be non-negative")
    if args.n is not None and args.n < 1:
        raise _UsageError("n must be positive")
    lines = []
    if k < table.t:
        coeff_a, coeff_b = table.alpha[k], table.beta[k]
        if args.n is not None:
            lines.append(f"density upper bound (table row {k}): {coeff_a}*n - {coeff_b} = {coeff_a * args.n - coeff_b}")
        else:
            lines.append(f"density upper bound (table row {k}): {coeff_a}*n - {coeff_b}")
        if args.table is None and k in _ROW_NOTES:
            lines.append(_ROW_NOTES[k])
    else:
        db = bnd.density_upper_bound(args.n if args.n is not None else 4, k, table)
        sqrt_part = f"{db.sqrt_coeff}*sqrt(k)" if db.sqrt_coeff is not None else f"sqrt({db.sqrt_coeff_sq}*k)"
        lines.append(f"density upper bound: max({db.base_coeff}, {sqrt_part})*n = {db.coefficient_str()}*n")
        if args.n is not None:
            lines.append(f"at n={args.n}: m <= {db.value():.6g}")
    if k >= 2:
        gl = bnd.density_lower_bound_general(k)
        lines.append(f"band lower bound: offset ell={gl.ell}, m(p) = 2*(ell*p - ell*(ell+1)/2)")
        if args.n is not None and args.n // 2 > gl.ell:
            lines.append(f"at n={args.n} (p={args.n // 2}): m = {gl.edge_count(args.n // 2)}")
        lines.append(f"quasiplanarity threshold: h = {bnd.quasiplanar_threshold(k)}")
    else:
        lines.append("band lower bound: needs k >= 2")
        lines.append("quasiplanarity threshold: h = 3 (trivially, fewer than 2 crossings per edge)")
    print("\n".join(lines))
    return 0


def _cmd_crossing_bound(args: argparse.Namespace) -> int:
    from . import bounds as bnd

    table = _load_table(args.table)
    n, m = args.n, args.m
    if n < 1 or m < 0:
        raise _UsageError("n must be positive and m non-negative")
    cubic = bnd.crossing_lower_bound(n, m, table)
    threshold = bnd.density_threshold(table)
    if cubic is None:
        print(f"cubic bound: inapplicable (needs n >= 4 and m >= {threshold}*n = {float(threshold) * n:.6g})")
    else:
        print(f"cubic bound: cr >= {cubic} ({float(cubic):.6g}) [applicable]")
    linear = bnd.auxiliary_lower_bound(n, m, table)
    clamped = max(Fraction(0), linear)
    flag = "applicable" if n >= 4 else "nominal (n < 4)"
    print(f"linear bound: cr >= {linear} ({float(linear):.6g}), clamped {clamped} [{flag}]")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from . import export as exp

    d = _load(args.drawing)
    with _outputs(args.out) as (out,):
        _write_or_print(getattr(exp, f"to_{args.format}")(d), out)
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from . import reproduce as rep

    _threads(args)
    elapsed: dict[str, float] = {}
    with _outputs(args.out) as (out,):
        rows = rep.run_all(elapsed=elapsed)
        csv_text = rep.rows_to_csv(rows)
        if args.json:
            _dump_json(rep.rows_to_json(rows, elapsed), None)
        else:
            sys.stdout.write(csv_text)
        if out:
            out.write(csv_text)
    if all(r.passed for r in rows):
        if not args.json:
            print(f"all {len(rows)} checks pass")
        return 0
    failed = sum(1 for r in rows if not r.passed)
    print(f"{failed} of {len(rows)} checks FAILED", file=sys.stderr)
    return 3


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Choices:
    """An option's choices, loaded from their module when argparse first
    checks or lists them, so that building the parser imports neither
    ``families`` nor ``export``.  They are set after ``add_argument``,
    which would list them at once to check the metavar."""

    def __init__(self, load: Callable[[], tuple[str, ...]]) -> None:
        self._load = load

    def __contains__(self, value: object) -> bool:
        return value in self._load()

    def __iter__(self) -> Iterator[str]:
        return iter(self._load())


def _family_names() -> tuple[str, ...]:
    from .families import FAMILY_NAMES

    return FAMILY_NAMES


def _export_formats() -> tuple[str, ...]:
    from .export import EXPORT_FORMATS

    return EXPORT_FORMATS


def _build_parser() -> _Parser:
    parser = _Parser(prog="layerlens", description="Two-layer drawing toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate a family drawing")
    p.add_argument("--family", required=True).choices = _Choices(_family_names)
    p.add_argument("--size", type=int, default=1, help="brick count or layer size")
    p.add_argument("--k", type=int, default=None, help="crossing cap (general_k only)")
    p.add_argument("--out", default=None, help="output drawing JSON (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("analyze", help="full crossing/brick/pathwidth/bounds report")
    p.add_argument("drawing", help="drawing JSON file")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("search", help="exact maximum density for small n")
    p.add_argument("--n", type=int, required=True, help=f"vertex count (2..{MAX_DENSITY_N})")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, default=None, help="k-planarity cap")
    group.add_argument("--quasi", type=int, default=None, help="quasiplanarity parameter h")
    p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; must be positive, no effect")
    p.add_argument("--witness", default=None, help="write a witness drawing JSON here")
    p.add_argument("--csv", default=None, help="write an n,constraint,best_m,nodes,millis row here")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("minimax", help="minimax per-edge crossings over all orderings")
    p.add_argument("drawing", nargs="?", default=None, help="drawing JSON, read as an abstract graph")
    p.add_argument("--complete", type=int, nargs=2, metavar=("A", "B"), help="use K_{A,B}")
    p.set_defaults(func=_cmd_minimax)

    p = sub.add_parser("pathwidth", help="build and validate the path decomposition")
    p.add_argument("drawing", help="drawing JSON file")
    p.add_argument("--out", default=None, help="write the decomposition JSON here")
    p.set_defaults(func=_cmd_pathwidth)

    p = sub.add_parser("bounds", help="density bounds and quasiplanarity threshold for a cap k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--table", default=None, help="coefficient table JSON")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("crossing-bound", help="crossing-number lower bounds for given n, m")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--table", default=None, help="coefficient table JSON")
    p.set_defaults(func=_cmd_crossing_bound)

    p = sub.add_parser("export", help="render a drawing as dot, svg, or csv")
    p.add_argument("drawing", help="drawing JSON file")
    p.add_argument("--format", required=True).choices = _Choices(_export_formats)
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("reproduce", help="run the full verification suite, emit pass/fail CSV")
    p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; must be positive, no effect")
    p.add_argument("--out", default=None, help="also write the CSV here")
    p.add_argument("--json", action="store_true", help="print the rows and per-criterion timings as JSON")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except _DataError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, OSError) as exc:  # OSError: an unwritable output path
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

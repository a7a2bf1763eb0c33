"""Evaluators for the crossing-number and density bound formulas.

All arithmetic is exact rational (:class:`fractions.Fraction`); floats
appear only at display time.  The default coefficient table collects the
per-crossing-cap edge bounds m <= alpha_i * n - beta_i for caps 0..5 on
two layers; its alpha column sums to 125/12, which drives the constants
4608/15625 (the crossing bound leading coefficient) and 125/48, 125/96
(the general density bound).
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import _read_json
from .families import FAMILIES, band_offset

__all__ = [
    "CoefficientTable",
    "default_table",
    "crossing_lemma_coefficient",
    "crossing_lower_bound",
    "density_threshold",
    "auxiliary_lower_bound",
    "DensityBound",
    "density_upper_bound",
    "GeneralLowerBound",
    "density_lower_bound_general",
    "quasiplanar_threshold",
    "small_k_density_bound",
    "table_to_json",
    "table_from_json",
    "load_table",
]


@dataclass(frozen=True)
class CoefficientTable:
    """Rows (alpha_i, beta_i) meaning: with at most i crossings per edge,
    an n-vertex two-layer graph has at most alpha_i * n - beta_i edges.

    The row count t and the column sums alpha and beta feed the crossing
    and density formulas.  The sums, and the crossing coefficient and the
    density threshold derived from them, are each computed on first use
    and kept on the instance (``cached_property`` writes to the instance
    dict, which the frozen dataclass allows), so a table does this
    arithmetic once however many bounds read it.
    """

    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        alpha = tuple(Fraction(a) for a in self.alpha)
        beta = tuple(Fraction(b) for b in self.beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if len(alpha) != len(beta):
            raise ValueError("alpha and beta must have the same length")
        if not alpha:
            raise ValueError("the table must have at least one row")
        if any(a < 1 for a in alpha):
            raise ValueError("every alpha_i must be at least 1")
        if any(b < 0 for b in beta):
            raise ValueError("every beta_i must be non-negative")

    @property
    def t(self) -> int:
        return len(self.alpha)

    @cached_property
    def alpha_sum(self) -> Fraction:
        return sum(self.alpha, Fraction(0))

    @cached_property
    def beta_sum(self) -> Fraction:
        return sum(self.beta, Fraction(0))

    @cached_property
    def _threshold(self) -> Fraction:
        return 3 * self.alpha_sum / (2 * self.t)

    @cached_property
    def _coefficient(self) -> Fraction:
        return Fraction(4 * self.t**3, 27) / (self.alpha_sum**2)


_DEFAULT_TABLE = CoefficientTable(
    alpha=(Fraction(1), Fraction(3, 2), Fraction(5, 3), Fraction(2), Fraction(2), Fraction(9, 4)),
    beta=(Fraction(1), Fraction(2), Fraction(7, 3), Fraction(4), Fraction(3), Fraction(9, 2)),
)


def default_table() -> CoefficientTable:
    """The two-layer table for caps 0..5.

    alpha = (1, 3/2, 5/3, 2, 2, 9/4), summing to 125/12.  beta pairs each
    alpha with the additive constant of the corresponding tight bound:
    crossing-free two-layer graphs are caterpillar forests (n - 1), then
    3/2 n - 2, 5/3 n - 7/3, 2n - 4, 2n - 3 and 9/4 n - 9/2.

    Every call returns the same instance.  It is frozen and its rows are
    Fractions, so it cannot change, and its sums are computed once.
    """
    return _DEFAULT_TABLE


def small_k_density_bound(k: int, n: int, table: CoefficientTable | None = None) -> Fraction:
    """The table-row bound alpha_k * n - beta_k for caps below the table
    size.  Against the exact search for n <= 14 its floor is not always
    attained or kept: the 14-edge exceptional drawing on 8 vertices
    exceeds the k=5 row by one, one edge exceeds the rows k=3 and k=5 at
    n=2, where they give 0, and the k=4 row, 2n - 3, is attained only at
    n = 2 (mod 4), the other n giving 2n - 4."""
    table = table or default_table()
    if not 0 <= k < table.t:
        raise ValueError(f"k must be within the table rows 0..{table.t - 1}")
    return table.alpha[k] * n - table.beta[k]


def crossing_lemma_coefficient(table: CoefficientTable | None = None) -> Fraction:
    """Leading coefficient 4 t^3 / (27 alpha^2) of the crossing bound.

    For the default table this is exactly 4608/15625 = 0.294912.
    """
    return (table or default_table())._coefficient


def crossing_lower_bound(n: int, m: int, table: CoefficientTable | None = None) -> Fraction | None:
    """Crossing-number lower bound 4 t^3/(27 alpha^2) * m^3/n^2.

    Applies only to n >= 4 and m >= 3 alpha/(2t) * n; returns None when
    inapplicable rather than a meaningless number.
    """
    table = table or default_table()
    if n < 4:
        return None
    if Fraction(m) < density_threshold(table) * n:
        return None
    return crossing_lemma_coefficient(table) * Fraction(m**3, n**2)


def density_threshold(table: CoefficientTable | None = None) -> Fraction:
    """The edge density 3 alpha / (2t) above which the crossing bound
    applies; 125/48 for the default table."""
    return (table or default_table())._threshold


def auxiliary_lower_bound(n: int, m: int, table: CoefficientTable | None = None) -> Fraction:
    """Linear crossing-number lower bound t*m - alpha*n + beta.

    May be negative; callers clamp at zero for reporting.  Meaningful for
    n >= 4.
    """
    table = table or default_table()
    return table.t * m - table.alpha_sum * n + table.beta_sum


def _fraction_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a non-negative rational, or None."""
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class DensityBound:
    """The bound m <= max(base_coeff, sqrt(sqrt_coeff_sq * k)) * n.

    ``sqrt_coeff_sq`` is the exact square of the sqrt(k) coefficient;
    ``sqrt_coeff`` is its exact root when one exists (125/96 for the
    default table).  Floats appear only through :meth:`coefficient` and
    :meth:`value`.
    """

    n: int
    k: int
    base_coeff: Fraction
    sqrt_coeff_sq: Fraction

    @property
    def sqrt_coeff(self) -> Fraction | None:
        return _fraction_sqrt(self.sqrt_coeff_sq)

    def coefficient(self) -> float:
        return max(float(self.base_coeff), math.sqrt(self.sqrt_coeff_sq * self.k))

    def value(self) -> float:
        return self.coefficient() * self.n

    def coefficient_str(self, digits: int = 3) -> str:
        """Coefficient rendered to the given significant digits."""
        return f"{self.coefficient():.{digits}g}"


def density_upper_bound(n: int, k: int, table: CoefficientTable | None = None) -> DensityBound:
    """General density bound m <= max(1, sqrt(3/(2t)) sqrt(k)) * 3 alpha/(2t) * n.

    Requires k >= t (smaller caps use the table rows directly) and n >= 4.
    With the default table the coefficient is max(125/48, 125/96 sqrt(k)).
    """
    table = table or default_table()
    if k < table.t:
        raise ValueError(f"k must be at least the table size t={table.t}; smaller caps use the table rows")
    if n < 4:
        raise ValueError("n must be at least 4")
    base = density_threshold(table)
    return DensityBound(n=n, k=k, base_coeff=base, sqrt_coeff_sq=base**2 * Fraction(3, 2 * table.t))


@dataclass(frozen=True)
class GeneralLowerBound:
    """Band construction summary: the half-width ell = floor(sqrt(k/2))
    and its exact edge count as a function of the layer size p."""

    k: int
    ell: int

    def edge_count(self, p: int) -> int:
        if p <= self.ell:
            raise ValueError(f"p must exceed the band half-width {self.ell}")
        return FAMILIES["general_k"].counts(p, self.k)[1]


def density_lower_bound_general(k: int) -> GeneralLowerBound:
    """Half-width and edge-count formula of the band family for cap k."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return GeneralLowerBound(k=k, ell=band_offset(k))


def quasiplanar_threshold(k: int) -> int:
    """Smallest h such that every two-layer drawing with at most k
    crossings per edge has no h pairwise crossing edges: 3 for k = 2,
    ceil(2k/3 + 2) for k >= 3."""
    if k < 2:
        raise ValueError("k must be at least 2 (smaller caps are trivially below the 3-quasiplanar threshold)")
    if k == 2:
        return 3
    return (2 * k + 2) // 3 + 2


# ---------------------------------------------------------------------------
# Table JSON: {"t": 6, "alpha": ["1", "3/2", ...], "beta": [...]}
# ---------------------------------------------------------------------------


def table_to_json(table: CoefficientTable) -> dict:
    return {
        "t": table.t,
        "alpha": [str(a) for a in table.alpha],
        "beta": [str(b) for b in table.beta],
    }


def table_from_json(data: dict) -> CoefficientTable:
    if not isinstance(data, dict) or not all(isinstance(data.get(key), list) for key in ("alpha", "beta")):
        raise ValueError("table JSON must contain alpha and beta lists")
    rows = data["alpha"] + data["beta"]
    if any(isinstance(v, bool) for v in rows):
        raise ValueError("bad rational in table: true and false are not rationals")
    # Fraction reads each run of digits with int() and builds 10**|exponent|,
    # so both count against the int-string limit; 0 is no limit
    limit = sys.get_int_max_str_digits() or math.inf
    texts = [v.replace("_", "") for v in rows if isinstance(v, str)]
    if any(len(r) > limit for v in texts for r in re.findall(r"\d+", v)):
        raise ValueError(f"bad rational in table: an integer has more than {limit} digits")
    if any(abs(int(e)) > limit for v in texts for e in re.findall(r"[eE]([-+]?\d+)", v)):
        raise ValueError(f"bad rational in table: an exponent exceeds {limit}")
    try:
        alpha = tuple(Fraction(a) for a in data["alpha"])
        beta = tuple(Fraction(b) for b in data["beta"])
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise ValueError(f"bad rational in table: {exc}") from exc
    t = data.get("t", len(alpha))
    if type(t) is not int or t != len(alpha):  # JSON true and 1.0 are not row counts
        raise ValueError(f"declared t must be the alpha row count {len(alpha)}, got {t!r}")
    return CoefficientTable(alpha=alpha, beta=beta)


def load_table(path: str) -> CoefficientTable:
    data = _read_json(path)
    try:
        return table_from_json(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc

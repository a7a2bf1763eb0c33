"""Deterministic generators for the extremal drawing families.

Every generator returns a :class:`~layerlens.core.Drawing` whose vertex
and edge counts follow a closed form, and whose per-edge crossing count
stays within the advertised cap.  Index ranges are clipped at the layer
boundaries; clipped edges are omitted, never wrapped.

Every family is built from one of two shapes:

* a brick chain (``_brick_chain``): K_{a,b} bricks, consecutive ones
  glued at a shared corner edge.  :func:`opt2planar` is the K_{2,3}
  chain; :func:`planar4_family` is the K_{3,3} chain, and
  :func:`planar5_family` and :func:`planar6_family` add one and two
  paths through its brick middles;
* an offset band (``_offset_band``): equal layers of size p with u_i
  joined to v_{i+o} for each offset o.  :func:`planar3_family` is the
  band of offsets -1..2, :func:`general_k_family` the band of offsets
  +-1..+-ell with ell = floor(sqrt(k/2)), and :func:`special_s` the
  band of offsets -2..2 on the 4x4 grid.

The registry :data:`FAMILIES` is the single source of each family's
minimum size, advertised cap and closed-form (n, m); :class:`FamilySpec`,
:func:`min_size`, :func:`generate`, :func:`advertised_k`,
:func:`closed_form`, the reproduction suite and the band lower bound all
read it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from math import isqrt
from typing import NamedTuple

from .core import Drawing, Edge, _is_int

__all__ = [
    "Family",
    "FAMILIES",
    "FamilySpec",
    "FAMILY_NAMES",
    "min_size",
    "generate",
    "advertised_k",
    "closed_form",
    "band_offset",
    "opt2planar",
    "planar3_family",
    "planar4_family",
    "planar5_family",
    "planar6_family",
    "general_k_family",
    "special_s",
]


def _brick_chain(beta: int, a: int, b: int) -> set[Edge]:
    """Edges of a chain of beta K_{a,b} bricks on beta*(a-1) + 1 top and
    beta*(b-1) + 1 bottom vertices: brick t = 0..beta-1 joins top
    vertices t*(a-1)+1..t*(a-1)+a to bottom vertices t*(b-1)+1..t*(b-1)+b,
    so consecutive bricks share a corner edge."""
    return {
        (t * (a - 1) + i, t * (b - 1) + x)
        for t in range(beta)
        for i in range(1, a + 1)
        for x in range(1, b + 1)
    }


def _offset_band(p: int, offsets: Iterable[int]) -> Drawing:
    """The p x p drawing with every edge (i, i + o), o in offsets, that
    fits in the grid."""
    cells = ((i, i + o) for o in offsets for i in range(max(1, 1 - o), min(p, p - o) + 1))
    return Drawing(p, p, frozenset(cells))


def opt2planar(beta: int) -> Drawing:
    """Chain of beta K_{2,3} bricks, consecutive bricks glued at a shared
    crossing-free edge.

    n = 3*beta + 2, m = 5*beta + 1; at most 2 crossings per edge; exactly
    beta + 1 crossing-free edges, one between each pair of bricks plus the
    two outer ones.
    """
    if beta < 1:
        raise ValueError("beta must be at least 1")
    return Drawing(beta + 1, 2 * beta + 1, frozenset(_brick_chain(beta, 2, 3)))


def planar3_family(p: int) -> Drawing:
    """Equal layers joined at offsets -1, 0, +1 and +2.

    n = 2p, m = 2n - 4; at most 3 crossings per edge, and no three edges
    pairwise cross.
    """
    if p < 3:
        raise ValueError("p must be at least 3")
    return _offset_band(p, range(-1, 3))


def _k33_chain(beta: int, *mirrored: bool) -> Drawing:
    """Chain of beta K_{3,3} bricks on 2*beta + 1 vertices per layer, plus
    one middle path for each entry of ``mirrored``."""
    edges = _brick_chain(beta, 3, 3)
    for m in mirrored:
        edges.update(_middle_path(beta, m))
    return Drawing(2 * beta + 1, 2 * beta + 1, frozenset(edges))


def planar4_family(beta: int) -> Drawing:
    """Chain of beta K_{3,3} bricks glued at shared crossing-free edges.

    n = 4*beta + 2, m = 8*beta + 1; at most 4 crossings per edge.
    """
    if beta < 1:
        raise ValueError("beta must be at least 1")
    return _k33_chain(beta)


def _middle_path(beta: int, mirrored: bool) -> list[Edge]:
    """Path of beta - 1 edges through the brick middles of the K_{3,3}
    chain: u_2, v_4, u_6, v_8, ... (layers swapped when mirrored)."""
    edges = []
    for t in range(1, beta):
        if (t % 2 == 1) != mirrored:
            edges.append((2 * t, 2 * t + 2))
        else:
            edges.append((2 * t + 2, 2 * t))
    return edges


def planar5_family(beta: int) -> Drawing:
    """K_{3,3} chain plus a path through the brick middles.

    n = 4*beta + 2, m = 9*beta; at most 5 crossings per edge.
    """
    if beta < 2:
        raise ValueError("beta must be at least 2")
    return _k33_chain(beta, False)


def planar6_family(beta: int) -> Drawing:
    """K_{3,3} chain plus both middle paths (the second one mirrored).

    n = 4*beta + 2, m = 10*beta - 1; at most 6 crossings per edge.
    """
    if beta < 2:
        raise ValueError("beta must be at least 2")
    return _k33_chain(beta, False, True)


def band_offset(k: int) -> int:
    """Band half-width floor(sqrt(k/2)) used by the general construction.

    Integer arithmetic: floor(sqrt(k/2)) equals isqrt(k // 2) for every
    k >= 0 because (isqrt(a) + 1)^2 >= a + 1 > a + 1/2.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    return isqrt(k // 2)


def general_k_family(p: int, k: int) -> Drawing:
    """Band family: each vertex joined to the next ell = floor(sqrt(k/2))
    vertices of the other layer, in both directions (offsets +-1..+-ell).

    n = 2p, m = 2*(ell*p - ell*(ell+1)/2); at most 2*ell^2 - 2*ell + 1 <= k
    crossings per edge, reached once p >= 3*ell - 1.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    ell = band_offset(k)
    if p <= ell:
        raise ValueError(f"p must exceed the band half-width {ell}")
    return _offset_band(p, [o for r in range(1, ell + 1) for o in (r, -r)])


def special_s() -> Drawing:
    """The exceptional 8-vertex, 14-edge drawing with at most 5 crossings
    per edge: K_{4,4} minus the edges (1,4) and (4,1), that is the band
    of offsets -2..2 on the 4x4 grid.

    The two dropped corners are the only cells with more than 5 crossings
    in the full grid, so this is the unique 14-edge 5-planar drawing on a
    4x4 split; the extremal search recovers it, and the regeneration test
    re-verifies it against an exhaustive scan.  Edge (4,4) is
    crossing-free, and edges (2,4) and (4,2) each carry exactly 5
    crossings.
    """
    return _offset_band(4, range(-2, 3))


def _band_counts(p: int, k: int) -> tuple[int, int]:
    ell = band_offset(k)
    return 2 * p, 2 * (ell * p - ell * (ell + 1) // 2)


class Family(NamedTuple):
    """One registry row.  ``generator`` and ``counts`` take the family's
    arguments (none, the size, or the size and k) and return the drawing
    and its closed-form (n, m).  ``min_size`` is the smallest size the
    generator accepts: None when it takes no size, a function of k when
    ``cap`` is None, which means the cap is the spec's k."""

    generator: Callable[..., Drawing]
    min_size: int | Callable[[int], int] | None
    cap: int | None
    counts: Callable[..., tuple[int, int]]


FAMILIES: dict[str, Family] = {
    "opt2planar": Family(opt2planar, 1, 2, lambda beta: (3 * beta + 2, 5 * beta + 1)),
    "planar3": Family(planar3_family, 3, 3, lambda p: (2 * p, 2 * (2 * p) - 4)),
    "planar4": Family(planar4_family, 1, 4, lambda beta: (4 * beta + 2, 8 * beta + 1)),
    "planar5": Family(planar5_family, 2, 5, lambda beta: (4 * beta + 2, 9 * beta)),
    "planar6": Family(planar6_family, 2, 6, lambda beta: (4 * beta + 2, 10 * beta - 1)),
    "general_k": Family(general_k_family, lambda k: band_offset(k) + 1, None, _band_counts),
    "special_s": Family(special_s, None, 5, lambda: (8, 14)),
}

FAMILY_NAMES = tuple(FAMILIES)


def min_size(family: str, k: int | None = None) -> int | None:
    """Smallest size the family's generator accepts, given the spec's k
    where the cap is k; None for a family that takes no size."""
    low = FAMILIES[family].min_size
    return low(k) if callable(low) else low


@dataclass(frozen=True)
class FamilySpec:
    """Selects one family instance: the family name, its size parameter
    (brick count for chains, layer size for bands), and the crossing cap
    k for the general band family; every other family has a fixed cap and
    takes no k."""

    family: str
    size: int = 1
    k: int | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILY_NAMES}")
        if not (_is_int(self.size) and (self.k is None or _is_int(self.k))):
            raise ValueError(f"size and k must be integers, got size={self.size!r}, k={self.k!r}")
        cap = FAMILIES[self.family].cap
        if cap is None and (self.k is None or self.k < 2):
            raise ValueError(f"{self.family} requires k >= 2")
        if cap is not None and self.k is not None:
            raise ValueError(f"{self.family} takes no k: its cap is fixed at {cap}")
        low = min_size(self.family, self.k)
        if low is not None and self.size < low:
            raise ValueError(f"{self.family} needs size >= {low}, got {self.size}")


def _args(spec: FamilySpec) -> tuple[int, ...]:
    family = FAMILIES[spec.family]
    if family.min_size is None:
        return ()
    return (spec.size,) if family.cap is not None else (spec.size, spec.k)


def generate(spec: FamilySpec) -> Drawing:
    """Build the drawing selected by a :class:`FamilySpec`."""
    return FAMILIES[spec.family].generator(*_args(spec))


def advertised_k(spec: FamilySpec) -> int:
    """The per-edge crossing cap each family is built to satisfy."""
    cap = FAMILIES[spec.family].cap
    return spec.k if cap is None else cap


def closed_form(spec: FamilySpec) -> tuple[int, int]:
    """The (n, m) the selected drawing has by construction."""
    return FAMILIES[spec.family].counts(*_args(spec))

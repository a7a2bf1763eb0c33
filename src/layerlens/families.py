"""Deterministic generators for the extremal drawing families.

Every generator returns a :class:`~layerlens.core.Drawing` whose vertex
and edge counts follow a closed form, and whose per-edge crossing count
stays within the advertised cap.  Index ranges are clipped at the layer
boundaries; clipped edges are omitted, never wrapped.

The registry :data:`FAMILIES` is the single source of each family's
minimum size, advertised cap and closed-form (n, m); :class:`FamilySpec`,
:func:`min_size`, :func:`generate`, :func:`advertised_k`,
:func:`closed_form`, the reproduction suite and the band lower bound all
read it.
"""

from __future__ import annotations

from collections.abc import Callable
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

def opt2planar(beta: int) -> Drawing:
    """Chain of beta K_{2,3} bricks, consecutive bricks glued at a shared
    crossing-free edge.

    n = 3*beta + 2, m = 5*beta + 1; at most 2 crossings per edge; exactly
    beta + 1 crossing-free edges, one between each pair of bricks plus the
    two outer ones.
    """
    if beta < 1:
        raise ValueError("beta must be at least 1")
    edges = set()
    for b in range(1, beta + 1):
        for i in (b, b + 1):
            for x in (2 * b - 1, 2 * b, 2 * b + 1):
                edges.add((i, x))
    return Drawing(beta + 1, 2 * beta + 1, frozenset(edges))


def planar3_family(p: int) -> Drawing:
    """Equal layers joined at offsets -1, 0, +1 and +2.

    n = 2p, m = 2n - 4; at most 3 crossings per edge, and no three edges
    pairwise cross.
    """
    if p < 3:
        raise ValueError("p must be at least 3")
    edges = set()
    for i in range(1, p + 1):
        edges.add((i, i))
        if i + 1 <= p:
            edges.add((i, i + 1))
        if i - 1 >= 1:
            edges.add((i, i - 1))
        if i + 2 <= p:
            edges.add((i, i + 2))
    return Drawing(p, p, frozenset(edges))


def _k33_chain(beta: int) -> set[Edge]:
    """Edges of the chain of beta K_{3,3} bricks on 2*beta + 1 vertices
    per layer, consecutive bricks sharing a corner edge."""
    edges = set()
    for b in range(1, beta + 1):
        lo = 2 * b - 1
        for i in range(lo, lo + 3):
            for x in range(lo, lo + 3):
                edges.add((i, x))
    return edges


def planar4_family(beta: int) -> Drawing:
    """Chain of beta K_{3,3} bricks glued at shared crossing-free edges.

    n = 4*beta + 2, m = 8*beta + 1; at most 4 crossings per edge.
    """
    if beta < 1:
        raise ValueError("beta must be at least 1")
    side = 2 * beta + 1
    return Drawing(side, side, frozenset(_k33_chain(beta)))


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
    edges = _k33_chain(beta)
    edges.update(_middle_path(beta, mirrored=False))
    side = 2 * beta + 1
    return Drawing(side, side, frozenset(edges))


def planar6_family(beta: int) -> Drawing:
    """K_{3,3} chain plus both middle paths (the second one mirrored).

    n = 4*beta + 2, m = 10*beta - 1; at most 6 crossings per edge.
    """
    if beta < 2:
        raise ValueError("beta must be at least 2")
    edges = _k33_chain(beta)
    edges.update(_middle_path(beta, mirrored=False))
    edges.update(_middle_path(beta, mirrored=True))
    side = 2 * beta + 1
    return Drawing(side, side, frozenset(edges))


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
    vertices of the other layer, in both directions.

    n = 2p, m = 2*(ell*p - ell*(ell+1)/2); at most 2*ell^2 - 2*ell + 1 <= k
    crossings per edge, reached once p >= 3*ell - 1.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    ell = band_offset(k)
    if p <= ell:
        raise ValueError(f"p must exceed the band half-width {ell}")
    edges = set()
    for i in range(1, p + 1):
        for r in range(1, ell + 1):
            if i + r <= p:
                edges.add((i, i + r))
                edges.add((i + r, i))
    return Drawing(p, p, frozenset(edges))


# The exceptional 8-vertex drawing: the full 4x4 grid minus its two
# anti-diagonal corner edges.  Those corners are the only cells with more
# than 5 crossings in the full grid, so this is the unique 14-edge
# 5-planar drawing on a 4x4 split; the extremal search recovers it, and
# the regeneration test re-verifies the frozen constant against an
# exhaustive scan.
_SPECIAL_S_EDGES: frozenset[Edge] = frozenset(
    (i, x) for i in range(1, 5) for x in range(1, 5) if (i, x) not in ((1, 4), (4, 1))
)


def special_s() -> Drawing:
    """The exceptional 8-vertex, 14-edge drawing with at most 5 crossings
    per edge: K_{4,4} minus the edges (1,4) and (4,1).

    Edge (4,4) is crossing-free, and edges (2,4) and (4,2) each carry
    exactly 5 crossings.
    """
    return Drawing(4, 4, _SPECIAL_S_EDGES)


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
    k for the general band family."""

    family: str
    size: int = 1
    k: int | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILY_NAMES}")
        if not (_is_int(self.size) and (self.k is None or _is_int(self.k))):
            raise ValueError(f"size and k must be integers, got size={self.size!r}, k={self.k!r}")
        if FAMILIES[self.family].cap is None and (self.k is None or self.k < 2):
            raise ValueError(f"{self.family} requires k >= 2")
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

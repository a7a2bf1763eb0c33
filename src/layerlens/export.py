"""Render drawings as DOT, SVG, or a plain CSV edge list.

The DOT and SVG outputs keep the two-layer look of the figures: the top
row above the bottom row, unit horizontal spacing, straight edges.
"""

from __future__ import annotations

from .core import Drawing, crossing_profile

__all__ = ["to_dot", "to_svg", "to_csv", "EXPORT_FORMATS"]

EXPORT_FORMATS = ("dot", "svg", "csv")

_UNIT = 48  # SVG pixels between neighbouring vertices of a layer


def to_dot(d: Drawing) -> str:
    """Graphviz source with rank constraints pinning the two layers."""
    lines = ["graph twolayer {", "  rankdir=TB;", "  node [shape=circle];"]
    lines.append("  { rank=same; " + " ".join(f"u{i};" for i in range(1, d.p + 1)) + " }")
    lines.append("  { rank=same; " + " ".join(f"v{x};" for x in range(1, d.q + 1)) + " }")
    for i, x in d.sorted_edges():
        lines.append(f"  u{i} -- v{x};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_svg(d: Drawing) -> str:
    """Straight-line SVG: u-row on top, v-row below, with a total crossing
    count annotation."""
    total = crossing_profile(d).total
    top_y, bot_y = 40, 160
    width = (max(d.p, d.q) + 1) * _UNIT
    height = bot_y + 50
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'  <text x="10" y="{height - 12}" font-size="14">crossings: {total}</text>',
    ]
    for i, x in d.sorted_edges():
        parts.append(
            f'  <line x1="{i * _UNIT}" y1="{top_y}" x2="{x * _UNIT}" y2="{bot_y}" '
            'stroke="black" stroke-width="1"/>'
        )
    for i in range(1, d.p + 1):
        parts.append(f'  <circle cx="{i * _UNIT}" cy="{top_y}" r="6" fill="white" stroke="black"/>')
        parts.append(f'  <text x="{i * _UNIT - 8}" y="{top_y - 12}" font-size="12">u{i}</text>')
    for x in range(1, d.q + 1):
        parts.append(f'  <circle cx="{x * _UNIT}" cy="{bot_y}" r="6" fill="white" stroke="black"/>')
        parts.append(f'  <text x="{x * _UNIT - 8}" y="{bot_y + 24}" font-size="12">v{x}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def to_csv(d: Drawing) -> str:
    """Edge list with a u,v header, one row per edge in lexicographic
    order."""
    lines = ["u,v"]
    for i, x in d.sorted_edges():
        lines.append(f"{i},{x}")
    return "\n".join(lines) + "\n"

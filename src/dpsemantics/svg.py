"""Minimal static SVG line charts.

Hand-rolled on purpose: output must embed exactly the sampled points the
CSV serializer sees, byte-identically across runs.
"""

from __future__ import annotations

import math
from typing import Sequence

WIDTH, HEIGHT = 640, 480
MARGIN = 60


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def line_chart(
    points: Sequence[tuple[float, float]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    finite = [(x, y) for x, y in points if math.isfinite(x) and math.isfinite(y)]
    if not finite:
        raise ValueError("no finite points to plot")
    xs = [p[0] for p in finite]
    ys = [p[1] for p in finite]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0

    def px(x: float) -> float:
        return MARGIN + (x - x0) / xspan * (WIDTH - 2 * MARGIN)

    def py(y: float) -> float:
        return HEIGHT - MARGIN - (y - y0) / yspan * (HEIGHT - 2 * MARGIN)

    path = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in finite)
    # as xml.sax.saxutils.escape, which imports ssl (1.4 MB RSS on CPython 3.11)
    title, xlabel, ylabel = (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        for text in (title, xlabel, ylabel)
    )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" '
        f'stroke="black"/>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 16}" text-anchor="middle" '
        f'font-size="12">{xlabel}</text>',
        f'<text x="18" y="{HEIGHT // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {HEIGHT // 2})">{ylabel}</text>',
        f'<text x="{MARGIN}" y="{HEIGHT - MARGIN + 16}" font-size="10">{x0:.6g}</text>',
        f'<text x="{WIDTH - MARGIN}" y="{HEIGHT - MARGIN + 16}" text-anchor="end" '
        f'font-size="10">{x1:.6g}</text>',
        f'<text x="{MARGIN - 6}" y="{HEIGHT - MARGIN}" text-anchor="end" '
        f'font-size="10">{y0:.6g}</text>',
        f'<text x="{MARGIN - 6}" y="{MARGIN + 4}" text-anchor="end" '
        f'font-size="10">{y1:.6g}</text>',
        f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" points="{path}"/>',
        "<!-- data",
    ]
    # embed the exact sampled points so the SVG and CSV carry the same data
    parts.extend(f"{x!r},{y!r}" for x, y in points)
    parts.append("-->")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

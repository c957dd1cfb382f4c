"""The articulatory-space figure as a standalone SVG file.

Keeps the toolkit free of plotting dependencies; output is deterministic
for fixed inputs (fixed float formatting, no timestamps).
"""

from __future__ import annotations

import html
from pathlib import Path

import numpy as np

_COLORS = ("#4878a8", "#d65f5f", "#6acc65", "#956cb4", "#8c613c")
_WIDTH, _HEIGHT = 480, 420
# plot area in pixels: margins of 50 left, 16 right, 14 top and 40 bottom
_X0, _X1 = 50, _WIDTH - 16
_Y0, _Y1 = _HEIGHT - 40, 14


def _f(x: float) -> str:
    return f"{x:.2f}"


def _line(x1, y1, x2, y2) -> str:
    return (f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
            'stroke="#333" stroke-width="1.0"/>')


def _text(x, y, s, size, anchor="middle", transform="") -> str:
    return (f'<text x="{_f(x)}" y="{_f(y)}" font-family="sans-serif" '
            f'font-size="{size}" text-anchor="{anchor}"{transform}>'
            f'{html.escape(s, quote=False)}</text>')


def _padded(lo, hi) -> tuple[float, float]:
    """Axis limits with 5% padding; an empty range widens to lo +- 0.5."""
    lo, hi = float(lo), float(hi)
    if hi <= lo:
        lo, hi = lo - 0.5, lo + 0.5
    span = hi - lo
    return lo - 0.05 * span, hi + 0.05 * span


def contour_hull_svg(path, points_by_label: dict[str, np.ndarray],
                     hulls_by_label: dict[str, np.ndarray], title: str) -> None:
    """Point clouds (light) with their convex hull outlines (dark).

    Image coordinates: y grows downward.
    """
    allpts = np.concatenate(list(points_by_label.values()))
    xlo, xhi = _padded(allpts[:, 0].min(), allpts[:, 0].max())
    # image rows grow downward, so the top of the plot is the smallest y
    yhi, ylo = _padded(allpts[:, 1].min(), allpts[:, 1].max())

    def px(x):
        return _X0 + (x - xlo) / (xhi - xlo) * (_X1 - _X0)

    def py(y):
        return _Y0 + (y - ylo) / (yhi - ylo) * (_Y1 - _Y0)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
             f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
             f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
             _line(_X0, _Y0, _X1, _Y0), _line(_X0, _Y0, _X0, _Y1)]
    for t in np.linspace(xlo, xhi, 5):
        x = float(px(t))
        parts += [_line(x, _Y0, x, _Y0 + 4), _text(x, _Y0 + 16, f"{t:.3g}", 9)]
    for t in np.linspace(ylo, yhi, 5):
        y = float(py(t))
        parts += [_line(_X0 - 4, y, _X0, y), _text(_X0 - 7, y + 3, f"{t:.3g}", 9, "end")]
    xmid, ymid = (_X0 + _X1) / 2, (_Y0 + _Y1) / 2
    parts += [_text(xmid, _HEIGHT - 6, "x (px)", 11),
              _text(12, ymid, "y (px)", 11,
                    transform=f' transform="rotate(-90 {_f(12)} {_f(ymid)})"'),
              _text(xmid, 11, title, 12)]
    for k, label in enumerate(sorted(points_by_label)):
        pts = points_by_label[label]
        pts = pts[::max(1, len(pts) // 1500)]
        for x, y in zip(px(pts[:, 0]).tolist(), py(pts[:, 1]).tolist()):
            parts.append(f'<circle cx="{_f(x)}" cy="{_f(y)}" r="1.2" '
                         f'fill="{_COLORS[k % len(_COLORS)]}" fill-opacity="0.25"/>')
    for k, label in enumerate(sorted(hulls_by_label)):
        hull = hulls_by_label[label]
        if len(hull) >= 2:
            ring = np.vstack([hull, hull[:1]])
            coords = " ".join(f"{_f(x)},{_f(y)}" for x, y in
                              zip(px(ring[:, 0]).tolist(), py(ring[:, 1]).tolist()))
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{_COLORS[k % len(_COLORS)]}" stroke-width="2.2" '
                         'stroke-opacity="1.00"/>')
        parts.append(_text(_X1 - 8, _Y1 + 14 * (k + 1), label, 10, "end"))
    Path(path).write_text("\n".join(parts + ["</svg>"]) + "\n", encoding="utf-8")

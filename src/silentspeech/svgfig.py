"""Minimal standalone SVG emission for report figures.

Keeps the toolkit free of plotting dependencies; output is deterministic
for fixed inputs (fixed float formatting, no timestamps).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

_COLORS = ("#4878a8", "#d65f5f", "#6acc65", "#956cb4", "#8c613c")


def _f(x: float) -> str:
    return f"{x:.2f}"


class Canvas:
    def __init__(self, width: int = 480, height: int = 360) -> None:
        self.width = width
        self.height = height
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
        ]

    def line(self, x1, y1, x2, y2, color="#333", width=1.0) -> None:
        self.parts.append(
            f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
            f'stroke="{color}" stroke-width="{width}"/>')

    def polyline(self, xs, ys, color="#333", width=1.0, opacity=1.0) -> None:
        pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in zip(xs, ys))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}" stroke-opacity="{_f(opacity)}"/>')

    def circle(self, x, y, r=2.5, color="#4878a8", opacity=0.8) -> None:
        self.parts.append(
            f'<circle cx="{_f(x)}" cy="{_f(y)}" r="{r}" fill="{color}" '
            f'fill-opacity="{_f(opacity)}"/>')

    def text(self, x, y, s, size=11, anchor="middle", rotate=None) -> None:
        tr = f' transform="rotate({rotate} {_f(x)} {_f(y)})"' if rotate else ""
        self.parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" font-family="sans-serif" '
            f'font-size="{size}" text-anchor="{anchor}"{tr}>{s}</text>')

    def save(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.parts + ["</svg>"]) + "\n")


class Axes:
    """Linear data-to-pixel mapping with tick marks and labels."""

    MARGIN = (50, 16, 14, 40)  # left, right, top, bottom

    def __init__(self, canvas: Canvas, xlim, ylim, xlabel="", ylabel="", title="") -> None:
        self.c = canvas
        ml, mr, mt, mb = self.MARGIN
        self.x0, self.x1 = ml, canvas.width - mr
        self.y0, self.y1 = canvas.height - mb, mt
        self.xlim = self._pad(xlim)
        self.ylim = self._pad(ylim)
        self._frame(xlabel, ylabel, title)

    @staticmethod
    def _pad(lim):
        lo, hi = float(lim[0]), float(lim[1])
        if hi <= lo:
            lo, hi = lo - 0.5, lo + 0.5
        span = hi - lo
        return lo - 0.05 * span, hi + 0.05 * span

    def px(self, x):
        lo, hi = self.xlim
        return self.x0 + (np.asarray(x, dtype=float) - lo) / (hi - lo) * (self.x1 - self.x0)

    def py(self, y):
        lo, hi = self.ylim
        return self.y0 + (np.asarray(y, dtype=float) - lo) / (hi - lo) * (self.y1 - self.y0)

    def _frame(self, xlabel, ylabel, title) -> None:
        c = self.c
        c.line(self.x0, self.y0, self.x1, self.y0)
        c.line(self.x0, self.y0, self.x0, self.y1)
        for t in np.linspace(*self.xlim, 5):
            x = float(self.px(t))
            c.line(x, self.y0, x, self.y0 + 4)
            c.text(x, self.y0 + 16, f"{t:.3g}", size=9)
        for t in np.linspace(*self.ylim, 5):
            y = float(self.py(t))
            c.line(self.x0 - 4, y, self.x0, y)
            c.text(self.x0 - 7, y + 3, f"{t:.3g}", size=9, anchor="end")
        if xlabel:
            c.text((self.x0 + self.x1) / 2, c.height - 6, xlabel)
        if ylabel:
            c.text(12, (self.y0 + self.y1) / 2, ylabel, rotate=-90)
        if title:
            c.text((self.x0 + self.x1) / 2, 11, title, size=12)


def contour_hull_svg(path, points_by_label: dict[str, np.ndarray],
                     hulls_by_label: dict[str, np.ndarray],
                     title="", size=(480, 420)) -> None:
    """Point clouds (light) with their convex hull outlines (dark).

    Image coordinates: y grows downward.
    """
    allpts = np.concatenate([p for p in points_by_label.values() if len(p)])
    c = Canvas(*size)
    ax = Axes(c, (allpts[:, 0].min(), allpts[:, 0].max()),
              (allpts[:, 1].max(), allpts[:, 1].min()),  # flipped: image rows
              "x (px)", "y (px)", title)
    for k, (label, pts) in enumerate(sorted(points_by_label.items())):
        color = _COLORS[k % len(_COLORS)]
        step = max(1, len(pts) // 1500)
        for p in pts[::step]:
            c.circle(float(ax.px(p[0])), float(ax.py(p[1])), r=1.2,
                     color=color, opacity=0.25)
    for k, (label, hull) in enumerate(sorted(hulls_by_label.items())):
        color = _COLORS[k % len(_COLORS)]
        if len(hull) >= 2:
            xs = np.append(hull[:, 0], hull[0, 0])
            ys = np.append(hull[:, 1], hull[0, 1])
            c.polyline([float(v) for v in ax.px(xs)], [float(v) for v in ax.py(ys)],
                       color=color, width=2.2)
        c.text(ax.x1 - 8, ax.y1 + 14 * (k + 1), label, anchor="end", size=10)
    c.save(path)

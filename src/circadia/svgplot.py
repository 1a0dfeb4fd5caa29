"""Minimal deterministic SVG line plots.

No plotting dependency: CLI figures are simple polylines written directly.
Output bytes depend only on the data and labels (fixed palette, fixed tick
format), so rerunning a command reproduces the SVG exactly.
"""

from __future__ import annotations

import numpy as np

from .sweeps import float_rows

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")

_W, _H = 720.0, 480.0
_ML, _MR, _MT, _MB = 72.0, 24.0, 40.0, 56.0


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _finite_limits(series) -> tuple[float, float, float, float]:
    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    keep = np.isfinite(xs) & np.isfinite(ys)
    xs, ys = xs[keep], ys[keep]
    if xs.size == 0:
        return 0.0, 1.0, 0.0, 1.0
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 - x0 <= 0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 <= 0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pad = 0.04 * (y1 - y0)
    return x0, x1, y0 - pad, y1 + pad


def line_plot(path: str, series, xlabel: str = "", ylabel: str = "",
              title: str = "") -> None:
    """Write an SVG polyline chart.

    series: iterable of (name, x_values, y_values). Non-finite points break
    the polyline instead of being drawn.
    """
    series = [(str(n), np.asarray(x, dtype=float), np.asarray(y, dtype=float))
              for n, x, y in series]
    x0, x1, y0, y1 = _finite_limits(series)

    def sx(v):
        return _ML + (v - x0) / (x1 - x0) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - y0) / (y1 - y0) * (_H - _MT - _MB)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:g}" '
        f'height="{_H:g}" viewBox="0 0 {_W:g} {_H:g}">')
    out.append(f'<rect width="{_W:g}" height="{_H:g}" fill="white"/>')
    out.append(
        f'<rect x="{_ML:g}" y="{_MT:g}" width="{_W - _ML - _MR:g}" '
        f'height="{_H - _MT - _MB:g}" fill="none" stroke="#444"/>')
    if title:
        out.append(
            f'<text x="{_W / 2:g}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{_esc(title)}</text>')

    for t in np.linspace(x0, x1, 5):
        px = sx(float(t))
        out.append(
            f'<line x1="{px:.2f}" y1="{_H - _MB:.2f}" x2="{px:.2f}" '
            f'y2="{_H - _MB + 5:.2f}" stroke="#444"/>')
        out.append(
            f'<text x="{px:.2f}" y="{_H - _MB + 20:.2f}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="11">{_fmt(float(t))}</text>')
    for t in np.linspace(y0, y1, 5):
        py = sy(float(t))
        out.append(
            f'<line x1="{_ML - 5:.2f}" y1="{py:.2f}" x2="{_ML:.2f}" '
            f'y2="{py:.2f}" stroke="#444"/>')
        out.append(
            f'<text x="{_ML - 8:.2f}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(float(t))}'
            f'</text>')
    if xlabel:
        out.append(
            f'<text x="{(_ML + _W - _MR) / 2:g}" y="{_H - 14:g}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="13">{_esc(xlabel)}</text>')
    if ylabel:
        out.append(
            f'<text x="16" y="{(_MT + _H - _MB) / 2:g}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:g})">'
            f'{_esc(ylabel)}</text>')

    for i, (name, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = []
        runs = []
        # sx, sy map whole arrays with the scalar operation order
        finite = np.isfinite(xs) & np.isfinite(ys)
        for xv, yv, ok in float_rows(sx(xs), sy(ys), finite):
            if ok:
                pts.append(f"{xv:.2f},{yv:.2f}")
            elif pts:
                runs.append(pts)
                pts = []
        if pts:
            runs.append(pts)
        for run in runs:
            if len(run) == 1:
                cx, cy = run[0].split(",")
                out.append(
                    f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
            else:
                out.append(
                    f'<polyline fill="none" stroke="{color}" '
                    f'stroke-width="1.5" points="{" ".join(run)}"/>')
        if name:
            ly = _MT + 16 + 16 * i
            out.append(
                f'<line x1="{_W - _MR - 150:.2f}" y1="{ly - 4:.2f}" '
                f'x2="{_W - _MR - 126:.2f}" y2="{ly - 4:.2f}" '
                f'stroke="{color}" stroke-width="2"/>')
            out.append(
                f'<text x="{_W - _MR - 120:.2f}" y="{ly:.2f}" '
                f'font-family="sans-serif" font-size="11">{_esc(name)}'
                f'</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(out) + "\n")


def _esc(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))

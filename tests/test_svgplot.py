import math
import re

import numpy as np

from circadia.svgplot import line_plot


def test_polylines_break_at_non_finite_points(tmp_path):
    xs = np.linspace(-1.0, 2.0, 12)
    ys = np.sin(3.0 * xs)
    ys[3] = np.nan          # splits the series
    ys[5] = np.inf          # leaves one isolated point, drawn as a circle
    xs[9] = -np.inf
    path = tmp_path / "plot.svg"
    line_plot(str(path), [("s", xs, ys)])
    svg = path.read_text()

    # oracle: the mapping applied one Python float at a time
    keep = np.isfinite(xs) & np.isfinite(ys)
    x0, x1 = float(xs[keep].min()), float(xs[keep].max())
    y0, y1 = float(ys[keep].min()), float(ys[keep].max())
    pad = 0.04 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    runs, pts = [], []
    for xv, yv in zip(xs.tolist(), ys.tolist()):
        if math.isfinite(xv) and math.isfinite(yv):
            sx = 72.0 + (xv - x0) / (x1 - x0) * (720.0 - 72.0 - 24.0)
            sy = 480.0 - 56.0 - (yv - y0) / (y1 - y0) * (480.0 - 40.0 - 56.0)
            pts.append(f"{sx:.2f},{sy:.2f}")
        elif pts:
            runs.append(pts)
            pts = []
    if pts:
        runs.append(pts)
    assert [len(r) for r in runs] == [3, 1, 3, 2]

    polylines = re.findall(r'points="([^"]*)"', svg)
    circles = re.findall(r'<circle cx="([^"]*)" cy="([^"]*)"', svg)
    assert polylines == [" ".join(r) for r in runs if len(r) > 1]
    assert [f"{cx},{cy}" for cx, cy in circles] == [r[0] for r in runs
                                                   if len(r) == 1]

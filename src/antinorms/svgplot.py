"""Minimal SVG emission for antispheres and autopolar polygons.

Fixed viewport [0, 3]^2 so images from different runs are comparable.
Curves are clipped segment by segment to the box [0, 3.6]^2, a little
beyond the viewport, so a curve that leaves the picture runs off its edge;
a curve that leaves the box and comes back is drawn as separate pieces.
"""

import numpy as np

from .exprs import as_pl

VIEW = 3.0
SIZE = 480
BOX = 1.2 * VIEW


def _map(p):
    x = p[0] / VIEW * SIZE
    y = SIZE - p[1] / VIEW * SIZE
    return f"{x:.2f},{y:.2f}"


def _polyline(points, color, width=2.0, dash=None):
    pts = " ".join(_map(p) for p in points)
    d = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{d}/>')


def _segment_span(p, q):
    """Parameters t0 <= t1 of the part of p + t (q - p), 0 <= t <= 1, inside
    [0, BOX]^2 (Liang-Barsky), or None when the segment misses the box."""
    t0, t1 = 0.0, 1.0
    for i in range(2):
        step = q[i] - p[i]
        for num, den in ((p[i], -step), (BOX - p[i], step)):  # p_i + t step >= 0, <= BOX
            if den == 0:
                if num < 0:
                    return None
            elif den < 0:
                t0 = max(t0, num / den)
            else:
                t1 = min(t1, num / den)
    return (t0, t1) if t0 <= t1 else None


def _clip(points):
    """Pieces of the polyline inside [0, BOX]^2, each segment clipped to the box."""
    pieces, cur = [], []
    for p, q in zip(points[:-1], points[1:]):
        p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        span = _segment_span(p, q)
        if span is None:
            continue
        t0, t1 = span
        if t0 > 0 or not cur:       # the segment enters the box: a new piece
            cur = [p if t0 == 0 else p + t0 * (q - p)]
            pieces.append(cur)
        cur.append(q if t1 == 1 else p + t1 * (q - p))
        if t1 < 1:                  # the segment leaves the box
            cur = []
    return pieces


def antisphere_points(f):
    """Antisphere of a 2-d antinorm, ``render`` clips it: a PL antinorm's
    vertex chain (``polygon_chain``), else the points of ``f.arc``."""
    pl = as_pl(f)
    return polygon_chain(pl.body.vertices()) if pl is not None else list(f.arc.points)


def polygon_chain(V):
    """Vertex chain closed by rays 3 * VIEW long, up from V[0], right from V[-1]."""
    top = V[0] + np.array([0.0, 3 * VIEW])
    right = V[-1] + np.array([3 * VIEW, 0.0])
    return [top, *V, right]


def render(curves=(), points=()):
    """SVG text of a scene with the axes and the unit circle; ``curves`` are
    (points, color, dash) triples and ``points`` (point, color) pairs."""
    ts = np.linspace(0, np.pi / 2, 100)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
        _polyline([(0, 0), (VIEW, 0)], "#888", 1.0),
        _polyline([(0, 0), (0, VIEW)], "#888", 1.0),
        _polyline(np.stack([np.cos(ts), np.sin(ts)], axis=1), "#bbb", 1.0, "4 3"),
    ]
    for pts, color, dash in curves:
        for piece in _clip(list(pts)):
            parts.append(_polyline(piece, color, 2.0, dash))
    for p, color in points:
        x, y = _map(p).split(",")
        parts.append(f'<circle cx="{x}" cy="{y}" r="4" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts)

"""Minimal SVG emission for antispheres and autopolar polygons.

Fixed viewport [0, 3]^2 so images from different runs are comparable.
"""

import numpy as np

VIEW = 3.0
SIZE = 480


def _map(p):
    x = p[0] / VIEW * SIZE
    y = SIZE - p[1] / VIEW * SIZE
    return f"{x:.2f},{y:.2f}"


def _polyline(points, color, width=2.0, dash=None):
    pts = " ".join(_map(p) for p in points)
    d = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{d}/>')


def _clip(points):
    return [p for p in points if p[0] <= 1.2 * VIEW and p[1] <= 1.2 * VIEW]


def antisphere_points(f, n=400):
    """Sampled antisphere of a 2-d antinorm inside the viewport."""
    phis = np.linspace(1e-4, np.pi / 2 - 1e-4, n)
    U = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    vals = f._values(U)
    keep = vals > 1e-9
    return _clip(list(U[keep] / vals[keep, None]))


def polygon_chain(V, reach=3 * VIEW):
    """Vertex chain closed by a vertical ray from V[0] and a horizontal one from V[-1]."""
    top = V[0] + np.array([0.0, reach])
    right = V[-1] + np.array([reach, 0.0])
    return [top, *V, right]


def render(path, curves=(), points=(), unit_circle=True, labels=()):
    """Write an SVG scene; ``curves`` are (points, color, dash) triples."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
        _polyline([(0, 0), (VIEW, 0)], "#888", 1.0),
        _polyline([(0, 0), (0, VIEW)], "#888", 1.0),
    ]
    if unit_circle:
        ts = np.linspace(0, np.pi / 2, 100)
        parts.append(_polyline(np.stack([np.cos(ts), np.sin(ts)], axis=1), "#bbb", 1.0, "4 3"))
    for pts, color, dash in curves:
        pts = _clip(list(pts))
        if len(pts) >= 2:
            parts.append(_polyline(pts, color, 2.0, dash))
    for p, color in points:
        parts.append(f'<circle cx="{_map(p).split(",")[0]}" cy="{_map(p).split(",")[1]}" '
                     f'r="4" fill="{color}"/>')
    for text, p in labels:
        x, y = _map(p).split(",")
        parts.append(f'<text x="{x}" y="{y}" font-size="12" fill="#333">{text}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
    return path

"""Deterministic CSV / SVG emission for wall loci.

Output is byte-stable for fixed inputs: fixed float formatting, stable
element ordering, no timestamps.  The SVG is standalone 1.1 with a viewBox
derived from the viewport; metadata (resolved configuration, warnings such
as an empty locus) goes into a leading desc element as sorted-key JSON.
"""

import json
import math

from .walls import (
    HILB_COORDS,
    SURFACE_COORDS,
    WallLocus,
    hilb_boundary,
    hilb_bounds,
    hilb_wall_line,
    sb_v_surface,
)

SVG_W, SVG_H, SVG_MARGIN = 640, 480, 40
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def _fmt(x) -> str:
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return "nan"
    return format(float(x), ".12g")


def emit_csv(loci, metadata=None) -> str:
    """CSV document with columns coord1,coord2,residual.

    Loci are concatenated in order; '#' comment lines carry the locus labels
    and metadata (including empty-locus warnings).
    """
    lines = []
    meta = dict(metadata or {})
    warnings = [f"empty locus: {loc.label}" for loc in loci if loc.empty]
    if warnings:
        meta["warnings"] = warnings
    lines.append("# " + json.dumps(meta, sort_keys=True, default=str))
    lines.append("coord1,coord2,residual")
    for idx, loc in enumerate(loci):
        lines.append(f"# locus {idx}: {loc.label} in {loc.coord_system}")
        for (x, y), r in zip(loc.points, loc.residuals):
            lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(r)}")
    return "\n".join(lines) + "\n"


class _View:
    def __init__(self, viewport):
        self.x0, self.x1, self.y0, self.y1 = map(float, viewport)

    def sx(self, x):
        return SVG_MARGIN + (x - self.x0) / (self.x1 - self.x0) * (SVG_W - 2 * SVG_MARGIN)

    def sy(self, y):
        return SVG_H - SVG_MARGIN - (y - self.y0) / (self.y1 - self.y0) * (SVG_H - 2 * SVG_MARGIN)

    def contains(self, x, y):
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1


def emit_svg(loci, viewport, metadata=None, curves=None) -> str:
    """Standalone SVG 1.1 with axes, optional reference curves, and loci.

    curves: list of (label, points, style) drawn beneath the loci (used for
    the parabola / boundary-curve clips).
    """
    view = _View(viewport)
    meta = dict(metadata or {})
    meta["viewport"] = list(map(float, viewport))
    warnings = [f"empty locus: {loc.label}" for loc in loci if loc.empty]
    if warnings:
        meta["warnings"] = warnings
    parts = []
    parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_W}" height="{SVG_H}" viewBox="0 0 {SVG_W} {SVG_H}">')
    parts.append("<desc>" + json.dumps(meta, sort_keys=True, default=str) + "</desc>")
    parts.append(f'<rect x="0" y="0" width="{SVG_W}" height="{SVG_H}" fill="white"/>')
    # axes through the origin when visible, else along the viewport edge
    ax_y = view.sy(0.0) if view.y0 <= 0 <= view.y1 else view.sy(view.y0)
    ax_x = view.sx(0.0) if view.x0 <= 0 <= view.x1 else view.sx(view.x0)
    parts.append(f'<line x1="{_fmt(view.sx(view.x0))}" y1="{_fmt(ax_y)}" '
                 f'x2="{_fmt(view.sx(view.x1))}" y2="{_fmt(ax_y)}" '
                 f'stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{_fmt(ax_x)}" y1="{_fmt(view.sy(view.y0))}" '
                 f'x2="{_fmt(ax_x)}" y2="{_fmt(view.sy(view.y1))}" '
                 f'stroke="black" stroke-width="1"/>')
    for label, pts, style in curves or []:
        parts.append(_polyline(pts, view, style, label))
    for idx, loc in enumerate(loci):
        style = loc.meta.get("style", f"stroke:{PALETTE[idx % len(PALETTE)]};fill:none")
        parts.append(_polyline(loc.points, view, style, loc.label))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _polyline(pts, view, style, label):
    segs = []
    cur = []
    for x, y in pts:
        if view.contains(float(x), float(y)):
            cur.append(f"{_fmt(view.sx(float(x)))},{_fmt(view.sy(float(y)))}")
        elif cur:
            segs.append(cur)
            cur = []
    if cur:
        segs.append(cur)
    out = [f"<g><title>{label}</title>"]
    for seg in segs:
        if len(seg) == 1:
            x, y = seg[0].split(",")
            out.append(f'<circle cx="{x}" cy="{y}" r="2.5" style="{style.replace("fill:none", "")}"/>')
        else:
            out.append(f'<polyline points="{" ".join(seg)}" style="{style}" fill="none"/>')
    out.append("</g>")
    return "\n".join(out)


def emit_plot(loci, fmt: str = "svg", viewport=None, metadata=None, curves=None) -> str:
    """Render loci as CSV rows or a standalone SVG; deterministic bytes."""
    if fmt == "csv":
        return emit_csv(loci, metadata)
    if fmt == "svg":
        if viewport is None:
            viewport = _auto_viewport(loci)
        return emit_svg(loci, viewport, metadata, curves)
    raise ValueError(f"unknown plot format {fmt!r}")


def _auto_viewport(loci):
    xs = [float(x) for loc in loci for x, _ in loc.points]
    ys = [float(y) for loc in loci for _, y in loc.points]
    if not xs:
        return (-1.0, 1.0, -1.0, 1.0)
    dx = (max(xs) - min(xs)) or 1.0
    dy = (max(ys) - min(ys)) or 1.0
    return (min(xs) - 0.05 * dx, max(xs) + 0.05 * dx,
            min(ys) - 0.05 * dy, max(ys) + 0.05 * dy)


def figure_surface(c=1, viewport=(-6.0, 6.0, -4.0, 9.0), samples: int = 257,
                   fmt: str = "svg") -> str:
    """Surface wall picture: the parabola clip plus the two standard loci.

    Dashed-line character (1, 0, -c) gives the horizontal wall q = 2c; the
    twisted rank-one character (1, -1, 1/2) gives the sloped wall q = -1 - p.
    """
    from fractions import Fraction

    x0, x1, y0, y1 = viewport
    parabola = [(p, p * p / 4) for p in
                [x0 + (x1 - x0) * i / (samples - 1) for i in range(samples)]]
    loci = [
        sb_v_surface((1, 0, -c), p_range=(x0, x1), samples=samples),
        sb_v_surface((1, -1, Fraction(1, 2)), p_range=(x0, x1), samples=samples),
    ]
    meta = {"figure": "surface", "c": c, "samples": samples}
    return emit_plot(loci, fmt=fmt, viewport=viewport, metadata=meta,
                     curves=[("parabola t1=t2", parabola, "stroke:#555555;stroke-dasharray:4 3")])


def figure_hilb(m: int, viewport=None, samples: int = 257, fmt: str = "svg") -> str:
    """Point-class wall stage: boundary curve plus the two emptiness walls.

    The red line freezes t1 = -M, the green line t3 = -N, with (N, M) the
    integer emptiness bounds of the point class.
    """
    n_bound, m_bound = hilb_bounds(m)
    if viewport is None:
        side = max(100.0, 20.0 * (6.0 * m) ** (1.0 / 3.0))
        viewport = (0.0, side, 0.0, side)
    x0, x1, y0, y1 = viewport
    cube = (6.0 * m) ** (1.0 / 3.0)
    boundary = hilb_boundary(m, t_range=(0.25 * cube, max(4.0 * cube, math.sqrt(x1))),
                             samples=samples)
    red = hilb_wall_line(m, float(m_bound), samples=samples,
                         label=f"boundary wall t1=-{m_bound}")
    red.meta["style"] = "stroke:#d62728;stroke-width:2;fill:none"
    green = hilb_wall_line(m, float(n_bound), samples=samples,
                           label=f"boundary wall t3=-{n_bound}")
    green.meta["style"] = "stroke:#2ca02c;stroke-width:2;fill:none"
    boundary.meta["style"] = "stroke:#1f77b4;stroke-dasharray:2 3;fill:none"
    meta = {"figure": "hilb", "m": m, "N": n_bound, "M": m_bound, "samples": samples}
    return emit_plot([boundary, red, green], fmt=fmt, viewport=viewport, metadata=meta)

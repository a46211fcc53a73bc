"""Minimal hand-written SVG line plots.

Figures here are reporting artifacts, not analysis: a fixed palette, fixed
margins, and no timestamps, so the same data always produces the same bytes.
"""

from __future__ import annotations

import math

__all__ = ["polyline_plot"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_MARGIN = (60.0, 20.0, 30.0, 45.0)   # left, right, top, bottom


def _fmt(x: float) -> str:
    return "%.2f" % x


def _ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def polyline_plot(series, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """Render labelled (xs, ys) series as an SVG document string.

    series is an iterable of (label, xs, ys); non-finite samples are dropped
    from their polyline.
    """
    left, right, top, bottom = _MARGIN
    width, height = 640, 420
    px0, px1 = left, width - right
    py0, py1 = height - bottom, top

    cleaned = []
    for label, xs, ys in series:
        pts = []
        for x, y in zip(xs, ys):
            fx, fy = float(x), float(y)
            if math.isfinite(fx) and math.isfinite(fy):
                pts.append((fx, fy))
        cleaned.append((str(label), pts))

    allpts = [p for _, pts in cleaned for p in pts]
    if allpts:
        xlo = min(p[0] for p in allpts)
        xhi = max(p[0] for p in allpts)
        ylo = min(p[1] for p in allpts)
        yhi = max(p[1] for p in allpts)
    else:
        xlo, xhi, ylo, yhi = 0.0, 1.0, 0.0, 1.0
    if xhi <= xlo:
        xhi = xlo + 1.0
    if yhi <= ylo:
        yhi = ylo + 1.0

    def sx(x):
        return px0 + (x - xlo) / (xhi - xlo) * (px1 - px0)

    def sy(y):
        return py0 + (y - ylo) / (yhi - ylo) * (py1 - py0)

    out = []
    out.append('<svg xmlns="http://www.w3.org/2000/svg" width="%d" '
               'height="%d" viewBox="0 0 %d %d">' % (width, height,
                                                     width, height))
    out.append('<rect width="%d" height="%d" fill="white"/>' % (width, height))
    if title:
        out.append('<text x="%s" y="18" font-family="monospace" '
                   'font-size="13" text-anchor="middle">%s</text>'
                   % (_fmt((px0 + px1) / 2), _escape(title)))

    # axes box and ticks
    out.append('<rect x="%s" y="%s" width="%s" height="%s" fill="none" '
               'stroke="black" stroke-width="1"/>'
               % (_fmt(px0), _fmt(py1), _fmt(px1 - px0), _fmt(py0 - py1)))
    for tx in _ticks(xlo, xhi):
        out.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black"/>'
                   % (_fmt(sx(tx)), _fmt(py0), _fmt(sx(tx)), _fmt(py0 + 4)))
        out.append('<text x="%s" y="%s" font-family="monospace" '
                   'font-size="10" text-anchor="middle">%s</text>'
                   % (_fmt(sx(tx)), _fmt(py0 + 16), "%.4g" % tx))
    for ty in _ticks(ylo, yhi):
        out.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black"/>'
                   % (_fmt(px0 - 4), _fmt(sy(ty)), _fmt(px0), _fmt(sy(ty))))
        out.append('<text x="%s" y="%s" font-family="monospace" '
                   'font-size="10" text-anchor="end">%s</text>'
                   % (_fmt(px0 - 7), _fmt(sy(ty) + 3), "%.4g" % ty))
    if xlabel:
        out.append('<text x="%s" y="%s" font-family="monospace" '
                   'font-size="11" text-anchor="middle">%s</text>'
                   % (_fmt((px0 + px1) / 2), _fmt(height - 8),
                      _escape(xlabel)))
    if ylabel:
        out.append('<text x="14" y="%s" font-family="monospace" '
                   'font-size="11" text-anchor="middle" '
                   'transform="rotate(-90 14 %s)">%s</text>'
                   % (_fmt((py0 + py1) / 2), _fmt((py0 + py1) / 2), _escape(ylabel)))

    for i, (label, pts) in enumerate(cleaned):
        color = _PALETTE[i % len(_PALETTE)]
        if pts:
            coords = " ".join("%s,%s" % (_fmt(sx(x)), _fmt(sy(y)))
                              for x, y in pts)
            out.append('<polyline points="%s" fill="none" stroke="%s" '
                       'stroke-width="1.5"/>' % (coords, color))
        ly = py1 + 14 + 14 * i
        out.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" '
                   'stroke-width="1.5"/>'
                   % (_fmt(px1 - 110), _fmt(ly), _fmt(px1 - 90), _fmt(ly),
                      color))
        out.append('<text x="%s" y="%s" font-family="monospace" '
                   'font-size="10">%s</text>'
                   % (_fmt(px1 - 85), _fmt(ly + 3), _escape(label)))

    out.append('</svg>')
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))

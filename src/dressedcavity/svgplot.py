"""Minimal hand-emitted SVG line plots (no plotting dependency)."""

from __future__ import annotations

import itertools
import math

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
_W, _H = 720, 460
_ML, _MR, _MT, _MB = 70, 20, 34, 52
# A y span at most this fraction of max|y| is rounding noise, drawn as a flat
# line; autoscaled, it would fill the axis under %g tick labels that all read alike.
_FLAT = 1e-9


def _ticks(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-12 * span:
        out.append(round(v, 12))
        v += step
    return out


def line_plot(series, title="", xlabel="", ylabel="", y_clip=None, markers=()) -> str:
    """Render polyline series as an SVG document string.

    ``series`` is a list of (label, xs, ys, dashed) tuples; points with
    non-finite y (or outside ``y_clip``) break the polyline.  ``markers``
    are (x, y) data points drawn as filled circles.
    """
    def shown(y):
        return math.isfinite(y) and (y_clip is None or y_clip[0] <= y <= y_clip[1])

    xs_all = [x for _, xs, _, _ in series for x in xs]
    ys_all = [y for _, _, ys, _ in series for y in ys if shown(y)]
    if not xs_all or not ys_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if y_hi - y_lo <= _FLAT * max(abs(y_lo), abs(y_hi)):  # constant up to rounding
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    axis = 'stroke="#333" stroke-width="1"'
    parts.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" {axis}/>')
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" {axis}/>')
    for tx in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(tx):.1f}" y1="{_H - _MB}" x2="{px(tx):.1f}" '
                     f'y2="{_H - _MB + 5}" {axis}/>')
        parts.append(f'<text x="{px(tx):.1f}" y="{_H - _MB + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{tx:g}</text>')
    for ty in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{_ML - 5}" y1="{py(ty):.1f}" x2="{_ML}" '
                     f'y2="{py(ty):.1f}" {axis}/>')
        parts.append(f'<text x="{_ML - 8}" y="{py(ty):.1f}" text-anchor="end" '
                     f'dominant-baseline="middle" font-family="sans-serif" '
                     f'font-size="11">{ty:g}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 12}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(_MT + _H - _MB) / 2:.0f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.0f})">{ylabel}</text>')

    for i, (label, xs, ys, dashed) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        for ok, run in itertools.groupby(zip(xs, ys), key=lambda xy: shown(xy[1])):
            if ok:
                points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in run)
                parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
                             f'{dash} points="{points}"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_W - _MR - 150}" y1="{ly}" x2="{_W - _MR - 120}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="1.5"{dash}/>')
        parts.append(f'<text x="{_W - _MR - 114}" y="{ly + 4}" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
    for x, y in markers:
        if shown(y):
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="#000"/>')
    parts.append("</svg>")
    return "\n".join(parts)

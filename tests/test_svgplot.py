"""`svgplot.line_plot` against its per-point formulation, byte for byte."""

import itertools
import math

import numpy as np
import pytest

from dressedcavity import svgplot
from dressedcavity.svgplot import _COLORS, _FLAT, _H, _MB, _ML, _MR, _MT, _W, _ticks


def reference_line_plot(series, title="", xlabel="", ylabel="", y_clip=None, markers=()):
    """The plot one Python float at a time: an f-string per point, and
    ``itertools.groupby`` over the shown mask for the polyline runs."""
    def shown(y):
        return math.isfinite(y) and (y_clip is None or y_clip[0] <= y <= y_clip[1])

    xs_all = [x for _, xs, _, _ in series for x in xs]
    ys_all = [y for _, _, ys, _ in series for y in ys if shown(y)]
    if not xs_all or not ys_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if y_hi - y_lo <= _FLAT * max(abs(y_lo), abs(y_hi)):
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


T = np.linspace(0.0, 25.0, 501)
WAVE = np.sin(T) * np.exp(-0.1 * T)


def _with(values, at, fill):
    out = np.array(values, dtype=float)
    out[at] = fill
    return out


CASES = {
    "two series, one dashed": dict(
        series=[("a", T, WAVE, True), ("b", T, 0.5 * np.cos(T) ** 2, False)],
        title="t", xlabel="x", ylabel="y"),
    "nan and inf breaks": dict(series=[
        ("nan", T, _with(WAVE, [0, 17, 18, 300, 500], np.nan), False),
        ("inf", T, _with(WAVE, [1, 2, 250], [np.inf, -np.inf, np.inf]), True)]),
    "clip breaks at both ends": dict(
        series=[("tan", T, np.tan(T), False), ("cos", T, 4.0 * np.cos(T), True)],
        y_clip=(-3.0, 3.0)),
    "a run of one point": dict(
        series=[("lone", T, _with(WAVE, np.r_[0:40, 41:80, 81:501], np.nan), False),
                ("rest", T, WAVE, False)]),
    "a flat series": dict(series=[("E(t)", T, np.full(T.size, np.log(2.0)), False)]),
    "flat up to rounding": dict(
        series=[("E(t)", T, np.log(2.0) + np.where(np.arange(T.size) % 3, 1.1e-16, 0.0),
                 False)]),
    "markers inside and outside the clip": dict(
        series=[("tan", T, np.tan(T), False), ("line", T, 0.3 * T - 2.0, True)],
        y_clip=(-4.0, 4.0),
        markers=[(0.5, np.tan(0.5)), (1.5, np.tan(1.5)), (3.0, -4.0), (4.0, 4.5),
                 (5.0, np.nan)]),
    "python lists": dict(series=[("list", [0, 1, 2, 3], [1.0, -2.0, float("nan"), 0.25],
                                  False)]),
}


@pytest.mark.parametrize("case", CASES.values(), ids=list(CASES))
def test_same_bytes_as_the_per_point_plot(case):
    assert svgplot.line_plot(**case) == reference_line_plot(**case)


@pytest.mark.parametrize("series, y_clip", [
    ([], None),
    ([("empty", [], [], False)], None),
    ([("nan", T, np.full(T.size, np.nan), False)], None),
    ([("clipped", T, WAVE + 10.0, False)], (-1.0, 1.0)),
], ids=["no series", "no points", "all nan", "all clipped"])
def test_nothing_to_plot(series, y_clip):
    for plot in (svgplot.line_plot, reference_line_plot):
        with pytest.raises(ValueError, match="nothing to plot"):
            plot(series, y_clip=y_clip)

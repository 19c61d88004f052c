"""Minimal deterministic SVG emitters (no charting dependency).

Every chart is a 640 x 360 `_Canvas` with its title on top; each picks its
value ranges through `_axis`, which widens a flat range alike on every axis.
"""

from __future__ import annotations

import math

WIDTH, HEIGHT = 640, 360
PAD_L, PAD_R, PAD_T = 60, 20, 30
PLOT_W = WIDTH - PAD_L - PAD_R


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _axis(lo: float, hi: float, below: float, above: float,
          flat: tuple[float, float] = (-0.5, 0.5)) -> tuple[float, float]:
    """The drawn range of values in [lo, hi]: a flat range first widens to
    [lo + flat[0], hi + flat[1]], then each end moves out by its share of the span."""
    if hi - lo < 1e-12:
        lo, hi = lo + flat[0], hi + flat[1]
    span = hi - lo
    return lo - below * span, hi + above * span


class _Canvas:
    """One chart frame: white ground, the title, and a plot area inside the
    fixed left, right and top pads and the chart's own bottom pad."""

    def __init__(self, title: str, pad_b: int):
        self.pad_b = pad_b
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        ]
        self.text(WIDTH / 2, 18, title, size=13)

    def rows(self, lo: float, hi: float):
        """The map of a value to its row: hi at the top pad, lo at the bottom pad."""
        return lambda v: PAD_T + (hi - v) / (hi - lo) * (HEIGHT - PAD_T - self.pad_b)

    def line(self, x1, y1, x2, y2, color="black", width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{width}"{d}/>'
        )

    def rect(self, x, y, w, h, fill="none", color="black"):
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            f'fill="{fill}" stroke="{color}"/>'
        )

    def text(self, x, y, s, size=11, anchor="middle", color="black"):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" font-family="sans-serif" '
            f'text-anchor="{anchor}" fill="{color}">{s}</text>'
        )

    def circle(self, x, y, r=1.5, color="black"):
        self.parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{r}" fill="{color}"/>')

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def boxplot_svg(
    title: str,
    groups: list[str],
    boxes: list[tuple[float, float, float, float, float]],
    theory_lines: list[float] | None = None,
    theory_global: float | None = None,
) -> str:
    """Stacked five-number boxes per group.

    Each box is (low whisker, box low, mid, box high, high whisker); an
    optional per-group theory tick and a global dashed theory line overlay.
    """
    cv = _Canvas(title, pad_b=40)
    values = [v for box in boxes for v in box] + list(theory_lines or [])
    if theory_global is not None:
        values.append(theory_global)
    lo, hi = _axis(min(values), max(values), 0.08, 0.08)
    sy = cv.rows(lo, hi)

    slot = PLOT_W / max(len(groups), 1)
    for tick in range(5):
        v = lo + (hi - lo) * tick / 4
        y = sy(v)
        cv.line(PAD_L, y, WIDTH - PAD_R, y, color="#dddddd")
        cv.text(PAD_L - 6, y + 4, f"{v:.3g}", size=9, anchor="end")

    if theory_global is not None:
        y = sy(theory_global)
        cv.line(PAD_L, y, WIDTH - PAD_R, y, color="blue", dash="6,4")

    for k, (label, box) in enumerate(zip(groups, boxes)):
        cx = PAD_L + (k + 0.5) * slot
        w = 0.5 * slot
        w_lo, b_lo, mid, b_hi, w_hi = box
        cv.line(cx, sy(w_lo), cx, sy(b_lo))
        cv.line(cx, sy(b_hi), cx, sy(w_hi))
        cv.line(cx - w / 4, sy(w_lo), cx + w / 4, sy(w_lo))
        cv.line(cx - w / 4, sy(w_hi), cx + w / 4, sy(w_hi))
        cv.rect(cx - w / 2, sy(b_hi), w, sy(b_lo) - sy(b_hi))
        cv.line(cx - w / 2, sy(mid), cx + w / 2, sy(mid), color="black", width=1.5)
        if theory_lines is not None:
            cv.line(cx - w / 2, sy(theory_lines[k]), cx + w / 2, sy(theory_lines[k]),
                    color="red", width=1.5)
        cv.text(cx, HEIGHT - cv.pad_b + 16, label, size=10)
    return cv.render()


def loglog_svg(
    title: str, xs: list[float], series: dict[str, list[float]],
    fits: dict[str, tuple[float, float]] | None = None,
) -> str:
    """Log-log scatter of each series against xs, with fitted lines and slopes.

    A single x is drawn in the middle of a unit-wide log range."""
    cv = _Canvas(title, pad_b=40)
    lx = [math.log10(x) for x in xs]
    ly_all = [math.log10(v) for ys in series.values() for v in ys if v > 0]
    if not ly_all:
        return cv.render()
    x_lo, x_hi = _axis(min(lx), max(lx), 0.05, 0.05)
    sy = cv.rows(*_axis(min(ly_all), max(ly_all), 0.08, 0.08))

    def sx(v):
        return PAD_L + (v - x_lo) / (x_hi - x_lo) * PLOT_W

    colors = ["black", "red", "blue", "green", "purple", "orange"]
    legend_y = PAD_T + 8
    for idx, (name, ys) in enumerate(sorted(series.items())):
        color = colors[idx % len(colors)]
        pts = [(math.log10(x), math.log10(v)) for x, v in zip(xs, ys) if v > 0]
        for px, py in pts:
            cv.circle(sx(px), sy(py), color=color)
        label = name
        if fits and name in fits:
            slope, intercept = fits[name]
            cv.line(sx(x_lo), sy(intercept + slope * x_lo),
                    sx(x_hi), sy(intercept + slope * x_hi), color=color, width=0.8)
            label = f"{name} (slope {slope:.3f})"
        cv.text(WIDTH - PAD_R - 4, legend_y, label, size=10, anchor="end", color=color)
        legend_y += 14
    cv.text(WIDTH / 2, HEIGHT - 8, "log10 n", size=10)
    return cv.render()


def bars_svg(title: str, labels: list[str], groups: dict[str, list[float]]) -> str:
    """Grouped bars from a zero line; one bar cluster per label."""
    cv = _Canvas(title, pad_b=50)
    values = [v for vs in groups.values() for v in vs] + [0.0]
    sy = cv.rows(*_axis(min(values), max(values), 0.05, 0.1, flat=(0.0, 1.0)))

    colors = ["#444444", "#bb3333", "#3355bb", "#33aa55"]
    slot = PLOT_W / max(len(labels), 1)
    bar_w = slot * 0.8 / max(len(groups), 1)
    for gi, name in enumerate(sorted(groups)):
        color = colors[gi % len(colors)]
        cv.text(PAD_L + 80 * gi + 40, PAD_T + 6, name, size=10, color=color)
        for k, v in enumerate(groups[name]):
            x = PAD_L + k * slot + 0.1 * slot + gi * bar_w
            y0, y1 = sy(0.0), sy(v)
            cv.rect(x, min(y0, y1), bar_w * 0.9, abs(y0 - y1), fill=color, color="none")
    y0 = sy(0.0)
    cv.line(PAD_L, y0, WIDTH - PAD_R, y0)
    for k, label in enumerate(labels):
        cv.text(PAD_L + (k + 0.5) * slot, HEIGHT - cv.pad_b + 16, label, size=10)
    return cv.render()

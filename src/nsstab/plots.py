"""Self-contained SVG plots for the CLI artifacts.

No external renderer: the writers emit hand-built SVG with axes, ticks,
polylines, step plots, and categorical heatmaps.  Each plot is drawn from
the same arrays the subcommand writes to its CSV or JSON artifact.
"""

import functools
import math

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 20, 36, 46
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
OUTCOME_COLORS = {"decay": "#2ca02c", "no-decay": "#ff7f0e", "blowup": "#d62728"}


def _ticks(lo, hi, count=5):
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


class _Canvas:
    def __init__(self, title):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>',
        ]

    def axes(self, x_lo, x_hi, y_lo, y_hi, log_y=False):
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi
        self.log_y = log_y
        x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
        x1, y1 = WIDTH - MARGIN_R, MARGIN_T
        self.parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" '
                          'stroke="black"/>')
        self.parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" '
                          'stroke="black"/>')
        for t in _ticks(x_lo, x_hi):
            px = self.px(t)
            self.parts.append(f'<line x1="{px}" y1="{y0}" x2="{px}" y2="{y0 + 4}" '
                              'stroke="black"/>')
            self.parts.append(f'<text x="{px}" y="{y0 + 18}" text-anchor="middle" '
                              f'font-family="sans-serif" font-size="10">{t:.3g}</text>')
        for t in _ticks(y_lo, y_hi):
            py = self.py_raw(t)
            label = f"1e{t:.1f}" if self.log_y else f"{t:.3g}"
            self.parts.append(f'<line x1="{x0 - 4}" y1="{py}" x2="{x0}" y2="{py}" '
                              'stroke="black"/>')
            self.parts.append(f'<text x="{x0 - 7}" y="{py + 3}" text-anchor="end" '
                              f'font-family="sans-serif" font-size="10">{label}</text>')

    def px(self, x):
        span = self.x_hi - self.x_lo or 1.0
        return MARGIN_L + (x - self.x_lo) / span * (WIDTH - MARGIN_L - MARGIN_R)

    def py_raw(self, y):
        span = self.y_hi - self.y_lo or 1.0
        return HEIGHT - MARGIN_B - (y - self.y_lo) / span * (HEIGHT - MARGIN_T - MARGIN_B)

    def py(self, y):
        if self.log_y:
            if y <= 0:
                return None
            y = math.log10(y)
        return self.py_raw(y)

    def polyline(self, xs, ys, color, label=None, index=0, dash=None):
        pts = []
        for x, y in zip(xs, ys):
            py = self.py(y)
            if py is not None and math.isfinite(py):
                pts.append(f"{self.px(x):.2f},{py:.2f}")
        if pts:
            extra = f' stroke-dasharray="{dash}"' if dash else ""
            self.parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                              f'stroke="{color}" stroke-width="1.5"{extra}/>')
        if label:
            ly = MARGIN_T + 14 * index
            self.parts.append(f'<line x1="{WIDTH - 150}" y1="{ly}" '
                              f'x2="{WIDTH - 130}" y2="{ly}" stroke="{color}"/>')
            self.parts.append(f'<text x="{WIDTH - 125}" y="{ly + 3}" '
                              f'font-family="sans-serif" font-size="10">{label}</text>')

    def rect(self, x0, y0, x1, y1, color):
        self.parts.append(f'<rect x="{x0:.1f}" y="{min(y0, y1):.1f}" '
                          f'width="{abs(x1 - x0):.1f}" height="{abs(y1 - y0):.1f}" '
                          f'fill="{color}" stroke="white"/>')

    def text(self, x, y, s, size=10, anchor="start"):
        self.parts.append(f'<text x="{x:.1f}" y="{y:.1f}" text-anchor="{anchor}" '
                          f'font-family="sans-serif" font-size="{size}">{s}</text>')

    def write(self, path):
        self.parts.append("</svg>")
        with open(path, "w") as fh:
            fh.write("\n".join(self.parts))


def _empty(title):
    cv = _Canvas(title + " (no data)")
    cv.axes(0.0, 1.0, 0.0, 1.0)
    return cv


def _series_plot(data, title, log_y):
    header, cols = data
    finite_vals = [v for col in cols[1:] for v in col
                   if math.isfinite(v) and (not log_y or v > 0)]
    if not finite_vals:
        return _empty(title)
    xs = cols[0]
    y_lo, y_hi = min(finite_vals), max(finite_vals)
    if log_y:
        y_lo, y_hi = math.log10(y_lo) - 0.2, math.log10(y_hi) + 0.2
    cv = _Canvas(title)
    cv.axes(min(xs), max(xs), y_lo, y_hi, log_y=log_y)
    for i, (name, col) in enumerate(zip(header[1:], cols[1:])):
        dash = "4,3" if "bound" in name else None
        cv.polyline(xs, col, PALETTE[i % len(PALETTE)], label=name, index=i,
                    dash=dash)
    return cv


def _staircase_plot(data, title):
    pairs = [(m, d) for m, d in zip(*data) if math.isfinite(d) and d > 0]
    if not pairs:
        return _empty(title)
    xs, ys = [], []
    for i, (m, d) in enumerate(pairs):
        xs.append(m)
        ys.append(d)
        if i + 1 < len(pairs):
            xs.append(pairs[i + 1][0])
            ys.append(d)
    y_lo = math.log10(min(ys)) - 0.2
    y_hi = math.log10(max(ys)) + 0.2
    cv = _Canvas(title)
    cv.axes(min(xs), max(xs), y_lo, y_hi, log_y=True)
    cv.polyline(xs, ys, PALETTE[0], label="D(M)", index=0)
    return cv


def _heatmap_plot(report, title):
    scales = report["scales"]
    outcomes = report["outcomes"]
    cv = _Canvas(title)
    cv.axes(0, max(len(scales), 1), 0, max(len(outcomes), 1))
    w = (WIDTH - MARGIN_L - MARGIN_R) / max(len(scales), 1)
    h = (HEIGHT - MARGIN_T - MARGIN_B) / max(len(outcomes), 1)
    for i, row in enumerate(outcomes):
        for j, outcome in enumerate(row):
            x0 = MARGIN_L + j * w
            y0 = HEIGHT - MARGIN_B - (i + 1) * h
            cv.rect(x0, y0, x0 + w, y0 + h, OUTCOME_COLORS[outcome])
    for j, s in enumerate(scales):
        cv.text(MARGIN_L + (j + 0.5) * w, HEIGHT - MARGIN_B + 18, f"{s:g}",
                anchor="middle")
    cv.text(WIDTH - MARGIN_R, MARGIN_T - 6,
            f"epsilon_hat = {report['epsilon_hat']:g}", anchor="end", size=12)
    return cv


RENDERERS = {
    "decay": functools.partial(_series_plot, log_y=True),
    "line": functools.partial(_series_plot, log_y=False),
    "staircase": _staircase_plot,
    "heatmap": _heatmap_plot,
}


def emit_plot(kind: str, data, out_path, title: str):
    """Render one artifact's data to a standalone SVG at out_path.

    kinds and their data: 'decay' (log-scale lines, a column whose name
    holds "bound" dashed) and 'line', each (header, columns) with the time
    column first; 'staircase', (M values, D values), drawn as D versus M
    over the finite positive D; 'heatmap', the basin report dict with its
    scales, outcomes and epsilon_hat.
    """
    RENDERERS[kind](data, title).write(out_path)

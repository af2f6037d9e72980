"""Hand-rolled SVG charts.

Matplotlib output embeds ids and metadata that vary across versions, which
would break the byte-determinism contract of report emission, so the three
chart styles this package needs are rendered directly. Coordinates are
formatted to fixed precision; identical inputs yield identical bytes.
"""

from __future__ import annotations

import numpy as np

_FONT = 'font-family="monospace" font-size="11"'


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Frame:
    """Maps data coordinates into a padded pixel viewport."""

    def __init__(self, x_range, y_range, width=640, height=420, pad=56):
        self.width, self.height, self.pad = width, height, pad
        x_lo, x_hi = x_range
        y_lo, y_hi = y_range
        # an empty range gets width 1, or more where 1 is lost to rounding
        if x_hi - x_lo <= 0:
            x_hi = x_lo + max(1.0, abs(x_lo) * 1e-9)
        if y_hi - y_lo <= 0:
            y_hi = y_lo + max(1.0, abs(y_lo) * 1e-9)
        span_x = x_hi - x_lo
        span_y = y_hi - y_lo
        self.x_lo, self.x_hi = x_lo - 0.04 * span_x, x_hi + 0.04 * span_x
        self.y_lo, self.y_hi = y_lo - 0.06 * span_y, y_hi + 0.06 * span_y

    def x(self, v: float) -> float:
        frac = (v - self.x_lo) / (self.x_hi - self.x_lo)
        return self.pad + frac * (self.width - 2 * self.pad)

    def y(self, v: float) -> float:
        frac = (v - self.y_lo) / (self.y_hi - self.y_lo)
        return self.height - self.pad - frac * (self.height - 2 * self.pad)


def _document(body: list[str], width=640, height=420) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head, '<rect width="100%" height="100%" fill="white"/>'] + body + ["</svg>"]) + "\n"


def _axes(frame: _Frame, title: str, x_label: str, y_label: str) -> list[str]:
    w, h, p = frame.width, frame.height, frame.pad
    return [
        f'<text x="{w / 2:.0f}" y="20" text-anchor="middle" {_FONT}>{title}</text>',
        f'<line x1="{p}" y1="{h - p}" x2="{w - p}" y2="{h - p}" stroke="black"/>',
        f'<line x1="{p}" y1="{p}" x2="{p}" y2="{h - p}" stroke="black"/>',
        f'<text x="{w / 2:.0f}" y="{h - 12}" text-anchor="middle" {_FONT}>{x_label}</text>',
        f'<text x="16" y="{h / 2:.0f}" text-anchor="middle" {_FONT} '
        f'transform="rotate(-90 16 {h / 2:.0f})">{y_label}</text>',
    ]


def _quantiles(values: np.ndarray):
    q1, med, q3 = (float(np.quantile(values, q, method="linear")) for q in (0.25, 0.5, 0.75))
    return float(values.min()), q1, med, q3, float(values.max())


def render_box_plot(groups: list[tuple[str, list[float]]], title: str, y_label: str) -> str:
    """One box (min, q1, median, q3, max) per labelled group."""
    data = [(label, np.asarray(vals, dtype=float)) for label, vals in groups if len(vals) > 0]
    if not data:
        return _document([f'<text x="320" y="210" text-anchor="middle" {_FONT}>no data</text>'])
    all_vals = np.concatenate([vals for _, vals in data])
    frame = _Frame((0.0, float(len(data))), (float(all_vals.min()), float(all_vals.max())))
    body = _axes(frame, title, "", y_label)
    for i, (label, vals) in enumerate(data):
        lo, q1, med, q3, hi = _quantiles(vals)
        cx = frame.x(i + 0.5)
        half = 0.28 * (frame.x(1) - frame.x(0))
        body.append(
            f'<line x1="{_fmt(cx)}" y1="{_fmt(frame.y(lo))}" x2="{_fmt(cx)}" '
            f'y2="{_fmt(frame.y(hi))}" stroke="black"/>'
        )
        body.append(
            f'<rect x="{_fmt(cx - half)}" y="{_fmt(frame.y(q3))}" width="{_fmt(2 * half)}" '
            f'height="{_fmt(frame.y(q1) - frame.y(q3))}" fill="#9ecae1" stroke="black"/>'
        )
        body.append(
            f'<line x1="{_fmt(cx - half)}" y1="{_fmt(frame.y(med))}" x2="{_fmt(cx + half)}" '
            f'y2="{_fmt(frame.y(med))}" stroke="black" stroke-width="2"/>'
        )
        body.append(
            f'<text x="{_fmt(cx)}" y="{frame.height - frame.pad + 16:.0f}" '
            f'text-anchor="middle" {_FONT}>{label}</text>'
        )
    for tick in np.linspace(all_vals.min(), all_vals.max(), 5):
        body.append(
            f'<text x="{frame.pad - 6}" y="{_fmt(frame.y(tick) + 4)}" '
            f'text-anchor="end" {_FONT}>{tick:.3g}</text>'
        )
    return _document(body)


def render_interval_chart(rows: list[dict], title: str) -> str:
    """Sorted-truth line, mean-prediction dots, and a shaded interval band.

    ``rows`` are interval-table entries with y_true, mean, lower, upper.
    """
    if not rows:
        return _document([f'<text x="320" y="210" text-anchor="middle" {_FONT}>no data</text>'])
    order = sorted(range(len(rows)), key=lambda i: rows[i]["y_true"])
    y_true = [rows[i]["y_true"] for i in order]
    means = [rows[i]["mean"] for i in order]
    lows = [rows[i]["lower"] for i in order]
    highs = [rows[i]["upper"] for i in order]
    lo = float(min(min(lows), min(y_true)))  # a results file may hold integers
    hi = float(max(max(highs), max(y_true)))
    frame = _Frame((0.0, float(len(rows) - 1)), (lo, hi))
    body = _axes(frame, title, "test inputs (sorted by true value)", "prediction")
    band = [f"{_fmt(frame.x(i))},{_fmt(frame.y(v))}" for i, v in enumerate(lows)]
    band += [
        f"{_fmt(frame.x(i))},{_fmt(frame.y(v))}"
        for i, v in reversed(list(enumerate(highs)))
    ]
    body.append(f'<polygon points="{" ".join(band)}" fill="#c6dbef" stroke="none"/>')
    truth = " ".join(f"{_fmt(frame.x(i))},{_fmt(frame.y(v))}" for i, v in enumerate(y_true))
    body.append(
        f'<polyline points="{truth}" fill="none" stroke="#e6550d" '
        'stroke-dasharray="5,3" stroke-width="1.5"/>'
    )
    for i, v in enumerate(means):
        body.append(
            f'<circle cx="{_fmt(frame.x(i))}" cy="{_fmt(frame.y(v))}" r="2.5" fill="#3182bd"/>'
        )
    for tick in np.linspace(lo, hi, 5):
        body.append(
            f'<text x="{frame.pad - 6}" y="{_fmt(frame.y(tick) + 4)}" '
            f'text-anchor="end" {_FONT}>{tick:.3g}</text>'
        )
    return _document(body)


def render_reliability_chart(reliability: dict, title: str) -> str:
    """Reliability curve over the diagonal, with a confidence histogram
    underneath. ``reliability`` is a uq.reliability_diagram dict, the form
    a report holds; an empty bin's statistics are None."""
    edges = reliability["edges"]
    conf = reliability["mean_confidence"]
    freq = reliability["observed_frequency"]
    counts = reliability["counts"]
    width, height = 640, 560
    top = _Frame((0.0, 1.0), (0.0, 1.0), width=width, height=380)
    body = _axes(top, title, "mean predicted probability", "fraction of positives")
    body.append(
        f'<line x1="{_fmt(top.x(0))}" y1="{_fmt(top.y(0))}" x2="{_fmt(top.x(1))}" '
        f'y2="{_fmt(top.y(1))}" stroke="gray" stroke-dasharray="4,4"/>'
    )
    points = [(c, f) for c, f in zip(conf, freq) if c is not None and f is not None]
    if points:
        path = " ".join(f"{_fmt(top.x(c))},{_fmt(top.y(f))}" for c, f in points)
        body.append(f'<polyline points="{path}" fill="none" stroke="#3182bd" stroke-width="1.5"/>')
        for c, f in points:
            body.append(
                f'<circle cx="{_fmt(top.x(c))}" cy="{_fmt(top.y(f))}" r="3" fill="#3182bd"/>'
            )
    total = max(sum(counts), 1)
    hist_top, hist_bottom = 400, height - 24
    for b, count in enumerate(counts):
        x0 = top.x(edges[b])
        x1 = top.x(edges[b + 1])
        bar = (count / total) * (hist_bottom - hist_top)
        body.append(
            f'<rect x="{_fmt(x0 + 1)}" y="{_fmt(hist_bottom - bar)}" '
            f'width="{_fmt(max(x1 - x0 - 2, 1.0))}" height="{_fmt(bar)}" '
            'fill="#9ecae1" stroke="black" stroke-width="0.5"/>'
        )
    body.append(
        f'<line x1="{top.pad}" y1="{hist_bottom}" x2="{width - top.pad}" '
        f'y2="{hist_bottom}" stroke="black"/>'
    )
    body.append(
        f'<text x="{width / 2:.0f}" y="{height - 6}" text-anchor="middle" {_FONT}>'
        "predicted-probability histogram</text>"
    )
    return _document(body, width=width, height=height)

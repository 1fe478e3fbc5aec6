"""Dependency-free SVG convergence plots.

One figure, two panels: a labeled bar chart of iterations per solver, and
log10-scaled polylines of the subdiagonal norm per iteration (one polyline
per solver). The input is a mapping {solver label: trace}; which solves to
plot is the caller's choice, so this module imports nothing from eigenkit.
Exact-zero norms are clamped to 1e-16 so the log scale stays
defined. Output is deterministic: solvers are drawn in sorted-name order
and all coordinates are fixed-precision.
"""

import math
from html import escape

__all__ = ["LOG_FLOOR", "emit_convergence_svg"]

LOG_FLOOR = 1e-16

_WIDTH, _HEIGHT = 960, 430
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

_BAR_BOX = (70.0, 60.0, 400.0, 330.0)    # x0, y0, x1, y1 of the bar panel
_LINE_BOX = (540.0, 60.0, 930.0, 330.0)  # same for the norm panel


def _iteration_count(trace) -> int:
    return trace[-1].iteration if trace else 0


def emit_convergence_svg(traces, path) -> None:
    """Render the two-panel convergence figure for ``traces`` to ``path``.

    ``traces`` maps each solver label to its sequence of TraceRecord, one
    solve per label; raises ``ValueError`` when it is empty.
    """
    if not traces:
        raise ValueError("no trace data to plot")
    series = {str(label): list(trace) for label, trace in traces.items()}
    series = dict(sorted(series.items()))
    labels = list(series)
    colors = {lab: _PALETTE[i % len(_PALETTE)] for i, lab in enumerate(labels)}

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        '<text x="235" y="30" text-anchor="middle" font-size="14">'
        "Iterations required for convergence</text>",
        '<text x="735" y="30" text-anchor="middle" font-size="14">'
        "Subdiagonal norm (log10) per iteration</text>",
    ]
    parts.extend(_bar_panel(series, colors))
    parts.extend(_line_panel(series, colors))
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(parts) + "\n")


def _bar_panel(series, colors):
    x0, y0, x1, y1 = _BAR_BOX
    counts = {lab: _iteration_count(tr) for lab, tr in series.items()}
    top = max(max(counts.values()), 1)
    slot = (x1 - x0) / len(counts)
    bar_w = slot * 0.6
    parts = [f'<g id="iterations-panel" stroke="none">']
    parts.append(
        f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>'
    )
    for i, (lab, count) in enumerate(counts.items()):
        height = (y1 - y0) * count / top
        bx = x0 + slot * i + (slot - bar_w) / 2
        by = y1 - height
        parts.append(
            f'<rect class="bar" data-solver="{escape(lab)}" x="{bx:.2f}" '
            f'y="{by:.2f}" width="{bar_w:.2f}" height="{height:.2f}" '
            f'fill="{colors[lab]}"/>'
        )
        parts.append(
            f'<text x="{bx + bar_w / 2:.2f}" y="{by - 5:.2f}" '
            f'text-anchor="middle">{count}</text>'
        )
        parts.append(
            f'<text class="bar-label" x="{bx + bar_w / 2:.2f}" y="{y1 + 16:.2f}" '
            f'text-anchor="middle">{escape(lab)}</text>'
        )
    parts.append("</g>")
    return parts


def _line_panel(series, colors):
    x0, y0, x1, y1 = _LINE_BOX
    logs = {
        lab: [math.log10(max(rec.subdiag_norm, LOG_FLOOR)) for rec in trace]
        for lab, trace in series.items()
    }
    all_vals = [v for vals in logs.values() for v in vals]
    max_iter = max((_iteration_count(tr) for tr in series.values()), default=1)
    lo = math.floor(min(all_vals, default=math.log10(LOG_FLOOR)))
    hi = math.ceil(max(all_vals, default=0.0))
    if hi <= lo:
        hi = lo + 1

    def px(iteration):
        return x0 + (x1 - x0) * (iteration - 1) / max(max_iter - 1, 1)

    def py(logval):
        return y1 - (y1 - y0) * (logval - lo) / (hi - lo)

    parts = ['<g id="norm-panel" fill="none">']
    parts.append(f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    for tick in range(lo, hi + 1, max(1, (hi - lo) // 6)):
        ty = py(tick)
        parts.append(
            f'<text x="{x0 - 8:.2f}" y="{ty + 4:.2f}" text-anchor="end" '
            f'fill="black">1e{tick}</text>'
        )
        parts.append(
            f'<line x1="{x0 - 4}" y1="{ty:.2f}" x2="{x0}" y2="{ty:.2f}" stroke="black"/>'
        )
    for i, (lab, trace) in enumerate(series.items()):
        if not trace:
            continue
        points = " ".join(
            f"{px(rec.iteration):.2f},{py(val):.2f}"
            for rec, val in zip(trace, logs[lab])
        )
        parts.append(
            f'<polyline class="trace" data-solver="{escape(lab)}" '
            f'points="{points}" stroke="{colors[lab]}" stroke-width="1.5"/>'
        )
        ly = y0 + 16 * i
        parts.append(
            f'<line x1="{x1 - 150:.2f}" y1="{ly:.2f}" x2="{x1 - 130:.2f}" '
            f'y2="{ly:.2f}" stroke="{colors[lab]}" stroke-width="2"/>'
        )
        parts.append(
            f'<text class="legend" x="{x1 - 124:.2f}" y="{ly + 4:.2f}" '
            f'fill="black">{escape(lab)}</text>'
        )
    parts.append("</g>")
    return parts

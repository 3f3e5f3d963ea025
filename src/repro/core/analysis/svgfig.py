"""Pure-stdlib SVG renderings of the paper's figure styles.

No plotting library is required offline, so the two figure styles the
paper uses — grouped bar charts (Figure 3) and alluvial flow diagrams
(Figures 5/6/8) — are generated as standalone SVG documents.  The
artifact exporter drops them in the bundle next to the text renderings;
they open in any browser.
"""

from __future__ import annotations

import html
from typing import List, Sequence, Tuple

from repro.core.analysis.sankey import Flow

__all__ = ["svg_grouped_bars", "svg_flow_diagram"]

_FONT = "font-family='system-ui, sans-serif'"


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text content."""
    return html.escape(text, quote=False)


def _document(width: int, height: int, body: List[str], title: str) -> str:
    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}' "
        f"viewBox='0 0 {width} {height}'>",
        f"<rect width='{width}' height='{height}' fill='white'/>",
        f"<text x='16' y='26' font-size='16' font-weight='bold' {_FONT}>{_escape(title)}</text>",
        *body,
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def svg_grouped_bars(
    rows: Sequence[Tuple[str, float, float]],
    title: str,
    series_labels: Tuple[str, str] = ("regional", "government"),
    max_value: float = 100.0,
) -> str:
    """Figure-3-style horizontal grouped bars: ``(label, a, b)`` rows."""
    if not rows:
        raise ValueError("no rows to draw")
    bar_height, group_gap, top = 10, 10, 56
    chart_left, chart_width = 80, 520
    height = top + len(rows) * (2 * bar_height + group_gap) + 30
    width = chart_left + chart_width + 80
    body: List[str] = [
        # legend
        f"<rect x='{chart_left}' y='34' width='12' height='10' fill='#2b6cb0'/>",
        f"<text x='{chart_left + 18}' y='43' font-size='11' {_FONT}>{_escape(series_labels[0])}</text>",
        f"<rect x='{chart_left + 120}' y='34' width='12' height='10' fill='#c05621'/>",
        f"<text x='{chart_left + 138}' y='43' font-size='11' {_FONT}>{_escape(series_labels[1])}</text>",
    ]
    y = top
    for label, a, b in rows:
        a_width = max(0.0, min(a, max_value)) / max_value * chart_width
        b_width = max(0.0, min(b, max_value)) / max_value * chart_width
        body.append(
            f"<text x='{chart_left - 8}' y='{y + bar_height + 2}' font-size='11' "
            f"text-anchor='end' {_FONT}>{_escape(str(label))}</text>"
        )
        body.append(f"<rect x='{chart_left}' y='{y}' width='{a_width:.1f}' "
                    f"height='{bar_height}' fill='#2b6cb0'/>")
        body.append(f"<text x='{chart_left + a_width + 4:.1f}' y='{y + bar_height - 1}' "
                    f"font-size='9' {_FONT}>{a:.0f}</text>")
        y += bar_height + 2
        body.append(f"<rect x='{chart_left}' y='{y}' width='{b_width:.1f}' "
                    f"height='{bar_height}' fill='#c05621'/>")
        body.append(f"<text x='{chart_left + b_width + 4:.1f}' y='{y + bar_height - 1}' "
                    f"font-size='9' {_FONT}>{b:.0f}</text>")
        y += bar_height + group_gap
    return _document(width, height, body, title)


def svg_flow_diagram(flows: Sequence[Flow], title: str, max_nodes: int = 14) -> str:
    """Alluvial diagram: source nodes left, destination nodes right,
    ribbon thickness proportional to weight (Figures 5/6/8 style)."""
    flows = [f for f in flows if f.weight > 0]
    if not flows:
        raise ValueError("no flows to draw")
    sources: dict = {}
    targets: dict = {}
    for flow in flows:
        sources[flow.source] = sources.get(flow.source, 0) + flow.weight
        targets[flow.target] = targets.get(flow.target, 0) + flow.weight
    left = sorted(sources.items(), key=lambda kv: (-kv[1], kv[0]))[:max_nodes]
    right = sorted(targets.items(), key=lambda kv: (-kv[1], kv[0]))[:max_nodes]
    kept_left = {name for name, _ in left}
    kept_right = {name for name, _ in right}
    drawable = [f for f in flows if f.source in kept_left and f.target in kept_right]

    height_per_unit = 360.0 / max(sum(v for _n, v in left), sum(v for _n, v in right))
    gap, top = 8, 56
    left_x, right_x, node_width, width = 140, 560, 14, 760

    def layout(nodes):
        positions = {}
        y = top
        for name, value in nodes:
            h = max(3.0, value * height_per_unit)
            positions[name] = (y, h)
            y += h + gap
        return positions, y

    left_pos, left_bottom = layout(left)
    right_pos, right_bottom = layout(right)
    height = int(max(left_bottom, right_bottom)) + 24

    body: List[str] = []
    # Ribbons first (under the nodes).  Each node hands out vertical slots
    # in sorted order so ribbons don't overlap at their anchors.
    left_cursor = {name: left_pos[name][0] for name in left_pos}
    right_cursor = {name: right_pos[name][0] for name in right_pos}
    for flow in sorted(drawable, key=lambda f: (-f.weight, f.source, f.target)):
        thickness = max(1.5, flow.weight * height_per_unit)
        y0 = left_cursor[flow.source] + thickness / 2
        y1 = right_cursor[flow.target] + thickness / 2
        left_cursor[flow.source] += thickness
        right_cursor[flow.target] += thickness
        x0, x1 = left_x + node_width, right_x
        mid = (x0 + x1) / 2
        body.append(
            f"<path d='M {x0} {y0:.1f} C {mid} {y0:.1f}, {mid} {y1:.1f}, {x1} {y1:.1f}' "
            f"fill='none' stroke='#4a5568' stroke-opacity='0.35' "
            f"stroke-width='{thickness:.1f}'/>"
        )
    # Nodes and labels.
    for name, value in left:
        y, h = left_pos[name]
        body.append(f"<rect x='{left_x}' y='{y:.1f}' width='{node_width}' height='{h:.1f}' "
                    "fill='#2b6cb0'/>")
        body.append(f"<text x='{left_x - 6}' y='{y + h / 2 + 4:.1f}' font-size='11' "
                    f"text-anchor='end' {_FONT}>{_escape(name)} ({value})</text>")
    for name, value in right:
        y, h = right_pos[name]
        body.append(f"<rect x='{right_x}' y='{y:.1f}' width='{node_width}' height='{h:.1f}' "
                    "fill='#c05621'/>")
        body.append(f"<text x='{right_x + node_width + 6}' y='{y + h / 2 + 4:.1f}' "
                    f"font-size='11' {_FONT}>{_escape(name)} ({value})</text>")
    return _document(width, height, body, title)

"""Human-readable rendering for span trees and metric snapshots."""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .tracing import Span

_INTERESTING_ATTRS = ("rows_in", "rows_out", "rows", "statement", "operator",
                      "model", "rules_applied", "user")


def _attr_text(span: Span) -> str:
    parts = []
    for key in _INTERESTING_ATTRS:
        if key in span.attributes:
            parts.append(f"{key}={span.attributes[key]}")
    for key, value in span.attributes.items():
        if key not in _INTERESTING_ATTRS:
            parts.append(f"{key}={value}")
    return f" [{', '.join(parts)}]" if parts else ""


def render_span_tree(span: Optional[Span]) -> str:
    """ASCII tree of a span and its descendants with millisecond timings."""
    if span is None:
        return "(no trace recorded)"
    lines: List[str] = []

    def visit(node: Span, depth: int) -> None:
        marker = " !" if node.status == "error" else ""
        lines.append(
            f"{'  ' * depth}{node.name}  {node.duration_ms:.3f}ms"
            f"{_attr_text(node)}{marker}"
        )
        if node.error:
            lines.append(f"{'  ' * (depth + 1)}error: {node.error}")
        for child in node.children:
            visit(child, depth + 1)

    visit(span, 0)
    return "\n".join(lines)


def span_to_json(span: Optional[Span], indent: int = 2) -> str:
    """JSON export of a span tree (OTel-ish nested layout)."""
    if span is None:
        return "null"
    return json.dumps(span.to_dict(), indent=indent, default=str)


def render_metrics(snapshot: Dict[str, dict]) -> str:
    """Tabular text rendering of ``MetricsRegistry.snapshot()``."""
    if not snapshot:
        return "(no metrics recorded)"
    lines: List[str] = []
    width = max(len(name) for name in snapshot)
    for name, data in snapshot.items():
        kind = data.get("type", "?")
        if kind == "histogram":
            detail = (
                f"count={data['count']} mean={data['mean']:.3f} "
                f"p50={data['p50']:.3f} p95={data['p95']:.3f} "
                f"p99={data['p99']:.3f} max={data['max']:.3f}"
            )
        else:
            value = data.get("value", 0.0)
            detail = f"value={value:g}"
        lines.append(f"{name.ljust(width)}  {kind:<9} {detail}")
    return "\n".join(lines)

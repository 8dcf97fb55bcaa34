"""Terminal rendering of span trees — the body of ``repro.cli trace``.

Spans arrive as a flat list (the order of a JSONL trace file is emit
order: children before their parents, traces interleaved); rendering
groups them by ``trace_id``, rebuilds each tree from ``parent_id`` links
and prints a box-drawing outline with per-span durations.  Siblings that
would print the same line but for their duration — the hundreds of
``pic.gather`` sections of one run — fold into one line with a count and
their summed time (``pic.gather ×50 (12.3ms)``), and their children fold
together beneath it.  Spans whose parent never made it into the file
(e.g. a crashed launch) are promoted to roots so nothing is silently
dropped.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.telemetry.spans import Span

#: Attributes worth echoing inline after a span's timing.
_SHOWN_ATTRS = ("run_id", "campaign", "executor", "status", "cached",
                "n_runs", "n_pending", "deferred", "worker", "queued_ms",
                "pid", "exception")


def _format_duration(duration_s: Optional[float]) -> str:
    """A compact human duration: ``12.3ms`` under a second, else ``4.56s``."""
    if duration_s is None:
        return "open"
    if duration_s < 1.0:
        return f"{duration_s * 1000.0:.1f}ms"
    return f"{duration_s:.2f}s"


def _format_attrs(span: Span) -> str:
    """The displayed subset of a span's attributes, ``key=value`` joined."""
    parts = []
    for name in _SHOWN_ATTRS:
        if name in span.attrs:
            value = span.attrs[name]
            if name == "run_id" and isinstance(value, str) and len(value) > 12:
                value = value[:12]
            parts.append(f"{name}={value}")
    return " ".join(parts)


def group_traces(spans: Iterable[Span]) -> Dict[str, List[Span]]:
    """Spans grouped by ``trace_id``, each group sorted by start time."""
    groups: Dict[str, List[Span]] = {}
    for span in spans:
        groups.setdefault(span.trace_id, []).append(span)
    for group in groups.values():
        group.sort(key=lambda span: (span.start_s, span.span_id))
    return groups


def _children_index(spans: Sequence[Span]) -> Dict[Optional[str], List[Span]]:
    """Parent span id → children, with orphans filed under ``None``."""
    known = {span.span_id for span in spans}
    children: Dict[Optional[str], List[Span]] = {}
    for span in spans:
        parent = span.parent_id if span.parent_id in known else None
        children.setdefault(parent, []).append(span)
    return children


def _label(span: Span) -> Tuple[str, str]:
    """What a span's line shows besides its duration: the name with the
    error marker, and the bracketed attributes."""
    marker = " !" if span.status != "ok" else ""
    attrs = _format_attrs(span)
    return f"{span.name}{marker}", f"  [{attrs}]" if attrs else ""


def _fold(spans: Iterable[Span]) -> List[List[Span]]:
    """Siblings grouped by :func:`_label`, groups in first-start order."""
    groups: Dict[Tuple[str, str], List[Span]] = {}
    for span in sorted(spans, key=lambda span: (span.start_s, span.span_id)):
        groups.setdefault(_label(span), []).append(span)
    return list(groups.values())


def _render_group(group: List[Span],
                  children: Dict[Optional[str], List[Span]], lead: str,
                  child_prefix: str, lines: List[str]) -> None:
    head, attrs = _label(group[0])
    count = f" ×{len(group)}" if len(group) > 1 else ""
    durations = [span.duration_s for span in group]
    total = None if None in durations else sum(durations)
    lines.append(f"{lead}{head}{count} ({_format_duration(total)}){attrs}")
    folded = _fold(child for span in group
                   for child in children.get(span.span_id, ()))
    for position, child in enumerate(folded):
        last = position == len(folded) - 1
        _render_group(child, children,
                      child_prefix + ("└─ " if last else "├─ "),
                      child_prefix + ("   " if last else "│  "), lines)


def render_trace(spans: Sequence[Span]) -> str:
    """One trace's tree as box-drawing text (roots at column zero), with
    same-line siblings folded into one counted line."""
    children = _children_index(spans)
    lines: List[str] = []
    for group in _fold(children.get(None, ())):
        _render_group(group, children, "", "", lines)
    return "\n".join(lines)


def render_traces(spans: Iterable[Span],
                  run_id: Optional[str] = None) -> str:
    """Every trace in ``spans`` rendered, separated by blank lines.

    Args:
        spans: the flat span list (e.g. from
            :func:`repro.telemetry.export.read_spans`).
        run_id: when given, only traces containing a span whose
            ``run_id`` attribute starts with it are rendered (so the CLI
            accepts truncated ids).
    """
    blocks: List[str] = []
    for trace_id, group in sorted(group_traces(spans).items(),
                                  key=lambda item: item[1][0].start_s):
        if run_id is not None:
            if not any(str(span.attrs.get("run_id", "")).startswith(run_id)
                       for span in group):
                continue
        blocks.append(f"trace {trace_id}\n{render_trace(group)}")
    return "\n\n".join(blocks)

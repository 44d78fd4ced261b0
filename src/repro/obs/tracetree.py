"""Causal trace trees: merge fleet JSONL spans into one tree per op.

The serve layer threads a trace context through the wire protocol —
the client mints a trace id per mutation and the server's (or owning
worker's) dispatch span inherits it; a cluster router fans a tick's
context out to every worker — so one logical op leaves spans in
several processes' JSONL files.  This
module is the read side: feed it the merged span stream of a whole
fleet and it reconstructs one causal tree per trace id, linked by the
``span_id``/``parent`` fields :class:`~repro.obs.trace.TraceSink`
emits.

Ids are 16-hex-digit u64 words (:func:`new_id`), the same words the
wire protocol's ``trace`` field carries, so a span file and a packet
capture name the same op identically.

Spans without a trace context (the PR 6 shape) are ignored here — they
still serve the latency-replay use case, but they are not part of any
causal tree.  A span whose ``parent`` never appears in the stream
(e.g. the client's file was not merged in) becomes a root of its own,
so partial merges degrade to partial trees instead of errors.
"""

from __future__ import annotations

import json
import secrets
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .trace import parse_span


def new_id() -> str:
    """A fresh 16-hex-digit id word for a trace or span."""
    return secrets.token_hex(8)


def load_spans(paths: Iterable[str | Path]) -> list[dict]:
    """Every span object from the given JSONL files, in file order.

    Blank lines are skipped; any other line that is not a JSON object
    raises ``ValueError`` naming ``path:line`` — a trace file is a
    machine artifact, and silent truncation would hide the very spans
    an investigation is after.  (The live reader,
    :meth:`~repro.obs.trace.TraceSink.live_spans`, shares the line
    reader but skips such lines instead.)
    """
    spans: list[dict] = []
    for path in paths:
        with open(path, "rb") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    spans.append(parse_span(line))
                except json.JSONDecodeError as exc:
                    raise json.JSONDecodeError(
                        f"{path}:{lineno}: {exc.msg}", exc.doc, exc.pos
                    ) from None
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
    return spans


@dataclass
class SpanNode:
    """One span plus its resolved children, ordered causally."""

    span: dict
    children: list["SpanNode"] = field(default_factory=list)

    def walk(self):
        """This node then every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()


def _sort_key(node: SpanNode):
    return (node.span.get("t_enq", 0.0), node.span.get("span_id") or "")


def build_trace_trees(spans: Iterable[dict]) -> dict[str, list[SpanNode]]:
    """Group traced spans by trace id and link them into causal trees.

    Returns ``{trace_id: [root nodes]}``.  A healthy end-to-end trace
    has exactly one root (the client span); orphaned spans — parents
    missing from the merged stream — surface as extra roots rather
    than disappearing.

    Duplicate spans — the same ``(trace, span_id)`` seen twice, e.g. a
    live buffer federated through the router *and* the same sink's file
    merged offline — collapse to the first occurrence, so overlapping
    sources never double a node or fork the tree.
    """
    by_trace: dict[str, list[dict]] = {}
    seen: set[tuple[str, str]] = set()
    for span in spans:
        trace = span.get("trace")
        if trace is None:
            continue
        trace = str(trace)
        span_id = span.get("span_id")
        if span_id is not None:
            key = (trace, str(span_id))
            if key in seen:
                continue
            seen.add(key)
        by_trace.setdefault(trace, []).append(span)
    trees: dict[str, list[SpanNode]] = {}
    for trace, members in by_trace.items():
        nodes = {}
        anonymous: list[SpanNode] = []
        for span in members:
            node = SpanNode(span)
            span_id = span.get("span_id")
            if span_id is None:
                anonymous.append(node)
            else:
                nodes[span_id] = node
        roots: list[SpanNode] = []
        for node in list(nodes.values()) + anonymous:
            parent = node.span.get("parent")
            parent_node = nodes.get(parent) if parent is not None else None
            if parent_node is None or parent_node is node:
                roots.append(node)
            else:
                parent_node.children.append(node)
        for node in nodes.values():
            node.children.sort(key=_sort_key)
        roots.sort(key=_sort_key)
        trees[trace] = roots
    return trees


def trace_tree_payload(roots: list[SpanNode]) -> list[dict]:
    """JSON-ready nested form of one trace's tree (the admin endpoint)."""
    def fold(node: SpanNode) -> dict:
        payload = dict(node.span)
        payload["children"] = [fold(child) for child in node.children]
        return payload

    return [fold(root) for root in roots]


def render_trace_tree(trace: str, roots: list[SpanNode]) -> str:
    """Human-readable indented tree for ``engine trace-tree``."""
    lines = [f"trace {trace}"]

    def describe(span: dict) -> str:
        kind = span.get("kind") or "span"
        op = span.get("op", "?")
        who = span.get("tenant")
        where = span.get("resource")
        duration = None
        if "t_reply" in span and "t_enq" in span:
            duration = (span["t_reply"] - span["t_enq"]) * 1e3
        parts = [f"{kind} {op}"]
        if who is not None:
            parts.append(f"tenant={who}")
        if where is not None:
            parts.append(f"resource={where}")
        if span.get("span_id"):
            parts.append(f"span={span['span_id']}")
        if duration is not None:
            parts.append(f"{duration:.3f}ms")
        return " ".join(parts)

    def walk(node: SpanNode, depth: int) -> None:
        lines.append("  " * depth + "- " + describe(node.span))
        for child in node.children:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 1)
    return "\n".join(lines)

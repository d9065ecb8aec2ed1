"""Span tracing from outside the program.

``Tracer.install`` replaces the public functions that ``molmine.cli`` and
``molmine.pipeline`` import with wrappers that record one span per call:
its name, start, end and the index of the enclosing span. Spans stay in a
list in memory until the benchmark writes them out. ``layer_times`` turns
the spans of one round into self times (a span's duration on a given clock
minus that of its child spans) summed per span name.

The names below are the calls through which cli and pipeline reach each
layer. Calls a layer makes internally are not wrapped, so each layer's span
is one boundary crossing. A name the program no longer imports is skipped;
its time then shows up as cli self time.
"""

from __future__ import annotations

import functools
import json
import time

FUNCTIONS = {
    "parse_jsonl": "ingest.parse",
    "parse_csv": "ingest.parse",
    "parse_dblp_xml": "ingest.parse",
    "bucket_by_year": "ingest.bucket",
    "write_jsonl": "ingest.bucket",
    "mine_rules": "rules.mine",
    "sample_transactions": "rules.mine",
    "rules_to_csv": "rules.csv",
    "rules_from_csv": "rules.csv",
    "build_graph": "graph.build",
    "parse_edge_list": "graph.build",
    "communities": "decompose.communities",
    "attribute_vector": "decompose.attributes",
    "attributes_csv": "decompose.attributes",
    "attributes_from_csv": "decompose.attributes",
    "communities_json_dict": "decompose.json",
    "to_dot": "dot.render",
    "hcluster": "cluster.hcluster",
    "match_across_years": "temporal.match",
    "noise_fraction": "temporal.noise",
    "noise_series_csv": "temporal.noise",
    "timelines_to_json_dict": "temporal.json",
    "run_pipeline": "cli",
}
METHODS = {("Dendrogram", "to_json_dict"): "cluster.json"}


def _payload_span(obj) -> str | None:
    """Which layer's document ``json.dumps`` is encoding, if any."""
    if isinstance(obj, dict):
        if "communities" in obj:
            return "decompose.json"
        if "merges" in obj:
            return "cluster.json"
        if "timelines" in obj:
            return "temporal.json"
    return None


class _JsonProxy:
    """Stands in for the ``json`` module inside cli and pipeline so that the
    encoding of each layer's document is timed with that layer."""

    def __init__(self, tracer: "Tracer"):
        self._dumps = {
            span: tracer.wrap(span, json.dumps)
            for span in ("decompose.json", "cluster.json", "temporal.json")
        }

    def dumps(self, obj, *args, **kwargs):
        return self._dumps.get(_payload_span(obj), json.dumps)(obj, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def install(self, modules) -> None:
        """Wrap, for the rest of the process, every traced name the given
        modules import."""
        wrapped: dict[int, object] = {}
        classes = set()
        for module in modules:
            for attr, span in FUNCTIONS.items():
                fn = getattr(module, attr, None)
                if callable(fn):
                    if id(fn) not in wrapped:
                        wrapped[id(fn)] = self.wrap(span, fn)
                    setattr(module, attr, wrapped[id(fn)])
            for (cls_name, method), span in METHODS.items():
                cls = getattr(module, cls_name, None)
                if isinstance(cls, type) and cls not in classes:
                    classes.add(cls)
                    setattr(cls, method, self.wrap(span, getattr(cls, method)))
            if getattr(module, "json", None) is json:
                module.json = _JsonProxy(self)
        for module in modules:  # dispatch tables such as {format: parser}
            for value in list(vars(module).values()):
                if isinstance(value, dict):
                    for key, fn in list(value.items()):
                        if id(fn) in wrapped:
                            value[key] = wrapped[id(fn)]


def layer_times(spans, seconds) -> tuple[dict[str, float], float]:
    """Self time per span name, and the summed duration of top-level spans;
    ``seconds(start, end)`` gives a span's duration."""
    durations = [seconds(start, end) for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for (_, _, _, parent), duration in zip(spans, durations):
        if parent >= 0:
            child[parent] += duration
    selfs: dict[str, float] = {}
    covered = 0.0
    for (name, _, _, parent), duration, inner in zip(spans, durations, child):
        selfs[name] = selfs.get(name, 0.0) + (duration - inner)
        if parent < 0:
            covered += duration
    return selfs, covered

"""Span tracing of the program's public functions, applied from outside.

The tracer replaces each traced function by a timing wrapper, both in its home
module and in every ``antimagic`` namespace that imported it by name, and
restores the originals on ``uninstall``.  Spans are kept in memory; the
per-layer metrics are derived from them after the run.

A span's *own* time is its duration minus the time of child spans in other
layers.  A same-layer child, such as ``induce_coloring`` inside ``certify``,
counts towards its parent, and so does a ``graph`` child of an ``io`` span:
``graph_to_doc`` and ``graph_to_dot`` induce the colouring they print, which
is part of the cost of emitting.  Layer metrics sum the own time of the
outermost span of each layer, so no second is counted twice.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _edges_in(args, kwargs, result):
    return {"edges": len(args[0].edges)}


def _chars_out(args, kwargs, result):
    # every emitted character is ASCII, so characters equal bytes
    return {"bytes": len(result)}


def _solve_note(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    budget = getattr(cfg, "time_budget", None)
    return {"nodes": result.nodes, "budgeted": budget is not None}


# (module, attribute, span name, layer, note); each is wrapped in its home
# module and in every ``antimagic`` namespace that imported it by name
TRACED = (
    ("antimagic.tables", "table_m1", "table_m1", "tables", None),
    ("antimagic.tables", "table_m3", "table_m3", "tables", None),
    ("antimagic.tables", "table_pt", "table_pt", "tables", None),
    ("antimagic.tables", "trace_sequences", "trace_sequences", "tables", None),
    ("antimagic.partition", "partition_ap", "partition_ap", "partition", None),
    ("antimagic.families", "build_family", "build_family", "families", None),
    ("antimagic.families", "verify_instance", "verify_instance", "families", None),
    ("antimagic.families", "family_grid", "family_grid", "families", None),
    ("antimagic.graph", "merge_vertices", "merge_vertices", "graph", _edges_in),
    ("antimagic.graph", "split_vertex", "split", "graph", _edges_in),
    ("antimagic.graph", "split_vertices", "split", "graph", _edges_in),
    ("antimagic.graph", "certify", "certify", "graph", _edges_in),
    ("antimagic.graph", "induce_coloring", "induce_coloring", "graph", None),
    ("antimagic.solver", "solve_chi_la", "solve_chi_la", "solver", _solve_note),
    ("antimagic.io", "graph_to_doc", "graph_to_doc", "io", _edges_in),
    ("antimagic.io", "dumps", "dumps", "io", _chars_out),
    ("antimagic.io", "graph_to_dot", "graph_to_dot", "io", _chars_out),
    ("antimagic.io", "doc_to_graph", "doc_to_graph", "io", None),
    # reading a document back, as ``certify --input`` does
    ("json", "loads", "loads", "io", None),
)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "item", "note")

    def __init__(self, name, layer, start, parent, item):
        self.name, self.layer, self.start = name, layer, start
        self.end, self.parent, self.item, self.note = start, parent, item, None

    def as_dict(self, index):
        return {
            "id": index, "name": self.name, "layer": self.layer,
            "start": self.start, "end": self.end, "parent": self.parent,
            "item": self.item, "note": self.note,
        }


class Tracer:
    """Collects spans from the benchmark's own calls and from wrapped
    program functions.  Not thread-safe: the benchmark is single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), parent, self.item))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, func, name: str, layer: str, note=None):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name, layer)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer.close(index)
                if note is not None and result is not None:
                    tracer.spans[index].note = note(args, kwargs, result)

        traced.__wrapped__ = func
        return traced

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever the package refers to it."""
        package = [
            m for n, m in sys.modules.items()
            if n == "antimagic" or n.startswith("antimagic.")
        ]
        for home, attr, name, layer, note in TRACED:
            module = sys.modules[home]
            original = getattr(module, attr)
            wrapper = self.wrap(original, name, layer, note)
            for ns in [module] + [m for m in package if m is not module]:
                if getattr(ns, attr, None) is original:
                    self._patch(ns, attr, wrapper)
        labeling = sys.modules["antimagic.graph"].EdgeLabeling
        self._patch(labeling, "remapped", self.wrap(labeling.remapped, "remapped", "graph"))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.as_dict(i)) + "\n")


# -- derived metrics ------------------------------------------------------------


def _absorbs(parent: Span, child: Span) -> bool:
    """Whether the child's own time counts towards its parent's."""
    return parent.layer == child.layer or (parent.layer, child.layer) == ("io", "graph")


def own_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time of the descendants it does not
    absorb."""
    own = [s.end - s.start for s in spans]
    # children always follow their parent, so a reverse sweep sees a child's
    # final own time before subtracting from its parent
    for i in range(len(spans) - 1, -1, -1):
        p = spans[i].parent
        if p is None:
            continue
        if _absorbs(spans[p], spans[i]):
            own[p] -= (spans[i].end - spans[i].start) - own[i]
        else:
            own[p] -= spans[i].end - spans[i].start
    return own


def layer_metrics(spans: list[Span], passes: int, scale: float) -> dict:
    """Per-layer metrics per traced pass, in the units of BENCHMARK.json,
    with every time multiplied by ``scale`` (reference seconds per second).

    The benchmark's own ``item`` spans carry the edge count of each item's
    final graph; ratios are taken over the items and edges of those spans.
    """
    own = [t * scale for t in own_times(spans)]
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    notes: dict[str, list] = {}
    for i, s in enumerate(spans):
        if s.parent is not None and spans[s.parent].layer == s.layer and spans[s.parent].name == s.name:
            continue  # split_vertex -> split_vertices is one split
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.parent is None or not _absorbs(spans[s.parent], s):
            secs[s.name] = secs.get(s.name, 0.0) + own[i]
        if s.note:
            notes.setdefault(s.name, []).append(s.note)

    def c(name):
        return calls.get(name, 0)

    def t(*names):
        return sum(secs.get(n, 0.0) for n in names)

    def total(name, key, pred=lambda n: True):
        return sum(n[key] for n in notes.get(name, []) if pred(n))

    per = 1.0 / max(passes, 1)
    table_fns = ("table_m1", "table_m3", "table_pt", "trace_sequences")
    surgery_in = total("merge_vertices", "edges") + total("split", "edges")
    certify_s = t("certify")
    certify_edges = total("certify", "edges")
    solver_s = t("solve_chi_la")
    nodes_all = total("solve_chi_la", "nodes")
    io_s = t("graph_to_doc", "dumps", "graph_to_dot", "doc_to_graph", "loads")
    io_edges = total("graph_to_doc", "edges")
    instances = c("item")
    final_edges = total("item", "edges")
    return {
        "tables.calls": sum(c(n) for n in table_fns) * per,
        "tables.self_s": t(*table_fns) * per,
        "partition.calls": c("partition_ap") * per,
        "partition.self_s": t("partition_ap") * per,
        "families.build_calls": c("build_family") * per,
        "families.build_self_s": t("build_family") * per,
        "families.verify_self_s": t("verify_instance") * per,
        "families.grid_s": t("family_grid") * per,
        "graph.merge_calls": c("merge_vertices") * per,
        "graph.merge_s": t("merge_vertices") * per,
        "graph.split_calls": c("split") * per,
        "graph.split_s": t("split") * per,
        "graph.remap_s": t("remapped") * per,
        "graph.surgery_edges_ratio": surgery_in / final_edges if final_edges else 0.0,
        "graph.certify_calls": c("certify") * per,
        "graph.certify_s": certify_s * per,
        "graph.certify_us_per_edge": certify_s / certify_edges * 1e6 if certify_edges else 0.0,
        "graph.induce_calls_per_instance": c("induce_coloring") / instances if instances else 0.0,
        "solver.calls": c("solve_chi_la") * per,
        "solver.nodes": total("solve_chi_la", "nodes", lambda n: not n["budgeted"]) * per,
        "solver.nodes_per_s": nodes_all / solver_s if solver_s else 0.0,
        "solver.self_s": solver_s * per,
        "io.graph_to_doc_s": t("graph_to_doc") * per,
        "io.dumps_s": t("dumps") * per,
        "io.dot_s": t("graph_to_dot") * per,
        "io.load_s": t("loads", "doc_to_graph") * per,
        "io.bytes_out": (total("dumps", "bytes") + total("graph_to_dot", "bytes")) * per,
        "io.us_per_edge": io_s / io_edges * 1e6 if io_edges else 0.0,
    }

"""Serialization: JSON graph documents, DOT export, CSV tables, run manifests.

All emitted artifacts are byte-stable for fixed inputs and package version:
keys are sorted, vertices and edges are listed in canonical order, and no
timestamps are embedded.  A JSON document round-trips to the identical
certificate bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .errors import UsageError
from .families import FamilyInstance
from .graph import Certificate, EdgeLabeling, Graph, VertexId, edge, induce_coloring
from .partition import EqualSumPartition
from .tables import LabelTable


def _vertex_doc(v: VertexId) -> dict:
    return {"id": str(v), "role": v.role, "indices": list(v.indices)}


def certificate_to_doc(cert: Certificate) -> dict:
    doc = {
        "is_bijective": cert.is_bijective,
        "is_local_antimagic": cert.is_local_antimagic,
        "color_count": cert.color_count,
        "palette": list(cert.palette),
        "degree_census": {
            str(d): {"vertices": count, "colors": list(colors)}
            for d, (count, colors) in cert.degree_census.items()
        },
        "violations": [dict(v) for v in cert.violations],
        "has_triangle": cert.has_triangle,
        "is_connected": cert.is_connected,
    }
    if cert.expected_palette is not None:
        doc["expected_palette"] = list(cert.expected_palette)
        doc["palette_ok"] = cert.palette_ok
    return doc


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def graph_to_doc(
    g: Graph,
    f: EdgeLabeling,
    instance: FamilyInstance | None = None,
    cert: Certificate | None = None,
) -> dict:
    coloring = induce_coloring(g, f)
    doc = {
        "family": instance.family if instance else None,
        "params": _jsonable(instance.params) if instance else {},
        "vertices": [_vertex_doc(v) for v in g.sorted_vertices()],
        "edges": [
            {"a": str(a), "b": str(b), "label": f.labels[(a, b)]}
            for a, b in g.sorted_edges()
        ],
        "colors": {str(v): coloring.colors[v] for v in g.sorted_vertices()},
        "certificate": certificate_to_doc(cert) if cert else None,
    }
    if instance is not None:
        doc["expected_palette"] = list(instance.expected_palette)
    return doc


def _field(obj, key: str, kind: type):
    """``obj[key]``, which must exist and be a ``kind`` (a bool is no int)."""
    if not isinstance(obj, dict) or key not in obj:
        raise UsageError(f"graph document: missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise UsageError(f"graph document: {key!r} is not a {kind.__name__}: {value!r}")
    return value


def doc_to_graph(doc: dict) -> tuple[Graph, EdgeLabeling]:
    """Read a graph document back; any malformed part is a :class:`UsageError`.

    Labels are not range-checked here: that is the certificate's job.
    """
    by_id: dict[str, VertexId] = {}
    seen: set[VertexId] = set()
    for vd in _field(doc, "vertices", list):
        indices = _field(vd, "indices", list)
        for i in indices:
            if not isinstance(i, int) or isinstance(i, bool):
                raise UsageError(f"graph document: vertex index is not an int: {i!r}")
        v = VertexId(_field(vd, "role", str), tuple(indices))
        vid = _field(vd, "id", str)
        if vid in by_id or v in seen:
            raise UsageError(f"graph document: duplicate vertex {vid!r}")
        by_id[vid] = v
        seen.add(v)
    labels = {}
    for ed in _field(doc, "edges", list):
        a, b = _field(ed, "a", str), _field(ed, "b", str)
        for end in (a, b):
            if end not in by_id:
                raise UsageError(f"graph document: unknown vertex id {end!r}")
        if a == b:
            raise UsageError(f"graph document: loop edge at {a!r}")
        e = edge(by_id[a], by_id[b])
        if e in labels:
            raise UsageError(f"graph document: duplicate edge {a!r} -- {b!r}")
        labels[e] = _field(ed, "label", int)
    g = Graph(by_id.values(), labels.keys())
    return g, EdgeLabeling.from_dict(labels)


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def graph_to_dot(g: Graph, f: EdgeLabeling) -> str:
    """DOT with vertex labels "role/indices\\ncolor" and edge labels f(e)."""
    coloring = induce_coloring(g, f)
    lines = ["graph antimagic {"]
    for v in g.sorted_vertices():
        tag = v.role + ("/" + ",".join(map(str, v.indices)) if v.indices else "")
        lines.append(f'  "{v}" [label="{tag}\\n{coloring.colors[v]}"];')
    for a, b in g.sorted_edges():
        lines.append(f'  "{a}" -- "{b}" [label="{f.labels[(a, b)]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def table_to_csv(t: LabelTable) -> str:
    header = "i," + ",".join(str(i) for i in range(1, t.columns + 1))
    lines = [header]
    for name in t.row_names:
        lines.append(name + "," + ",".join(str(x) for x in t.rows[name]))
    return "\n".join(lines) + "\n"


def partition_to_csv(p: EqualSumPartition) -> str:
    lines = ["block,sum,terms"]
    for b, blk in enumerate(p.blocks, start=1):
        lines.append(f"{b},{sum(blk)}," + " ".join(str(x) for x in blk))
    return "\n".join(lines) + "\n"


def labeling_to_doc(f: EdgeLabeling) -> dict:
    return {
        "q": len(f.labels),
        "labels": [
            {"a": str(a), "b": str(b), "label": lab}
            for (a, b), lab in sorted(f.labels.items())
        ],
    }


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def append_manifest(
    out_dir: str | Path,
    command: str,
    parameters: dict,
    version: str,
    input_hashes: dict[str, str],
    outcome: str,
    outputs: list[str],
) -> Path:
    """Append one deterministic JSON line to the run manifest (append-only)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "manifest.jsonl"
    entry = {
        "command": command,
        "parameters": _jsonable(parameters),
        "version": version,
        "input_hashes": input_hashes,
        "outcome": outcome,
        "outputs": outputs,
    }
    with manifest.open("a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return manifest

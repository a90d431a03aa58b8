"""Serialization: JSON graph documents, DOT export, CSV tables, run manifests.

All emitted artifacts are byte-stable for fixed inputs and package version:
keys are sorted, vertices and edges are listed in canonical order, and no
timestamps are embedded.  A JSON document round-trips to the identical
certificate bytes.
"""

from __future__ import annotations

import json
import math
from itertools import chain, repeat
from operator import itemgetter

from . import __version__
from .errors import GraphSurgeryError, UsageError
from .families import FamilyInstance
from .graph import (
    Certificate, EdgeLabeling, Graph, VertexId, _codes, _colors, _columns, _draft, _finished,
    _vertex_ids,
)
from .partition import EqualSumPartition
from .tables import LabelTable


def certificate_to_doc(cert: Certificate) -> dict:
    """The certificate's fields, with each degree's census entry named, and
    with no expected palette or verdict when none was expected."""
    doc = _jsonable(cert._asdict())
    census = doc["degree_census"].items()
    doc["degree_census"] = {d: {"vertices": n, "colors": cs} for d, (n, cs) in census}
    if cert.expected_palette is None:
        del doc["expected_palette"], doc["palette_ok"]
    return doc


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # strict JSON has no nan or infinity
    return value


def _edge_records(g: Graph, f: EdgeLabeling) -> list[dict]:
    """One ``{"a", "b", "label"}`` record per edge, in listing order; ``f`` is finished."""
    _, names, positions, _, lo, hi = g._listed()
    labels = map(f._array.__getitem__, positions)
    return [{"a": names[i], "b": names[j], "label": lab} for i, j, lab in zip(lo, hi, labels)]


def graph_to_doc(
    g: Graph,
    f: EdgeLabeling,
    instance: FamilyInstance | None = None,
    cert: Certificate | None = None,
) -> dict:
    """The JSON document of ``g`` and ``f``: the instance's family, params
    and expected palette, the vertices and edges in listing order, the
    labeling's colouring, and ``cert``'s document, the only writer that
    embeds one."""
    f = _finished(g, f)
    (roles, indices), names, _, at, _, _ = g._listed()
    doc = {
        "family": instance.family if instance else None,
        "params": _jsonable(instance.params) if instance else {},
        "vertices": [
            {"id": name, "role": role, "indices": index}
            for name, role, index in zip(names, roles, map(list, indices))
        ],
        "edges": _edge_records(g, f),
        "colors": dict(zip(names, map(_colors(g, f).__getitem__, at))),
        "certificate": certificate_to_doc(cert) if cert else None,
    }
    if instance is not None:
        doc["expected_palette"] = list(instance.expected_palette)
    return doc


def doc_to_graph(doc: dict) -> tuple[Graph, EdgeLabeling]:
    """Read a graph document back; any malformed part is a :class:`UsageError`.

    A vertex id must be the name its role and indices print as, so that every
    document accepted here is written back as one that is accepted again.
    When every role is a build's and every vertex has at most one index, in
    [0, 2**32 - 2], the vertices read to a build's int codes, which list,
    certify and write as the names do; any other document reads to names.
    Labels are not range-checked here: that is the certificate's job.  The
    graph is made one way, by reading the document a column at a time; a
    document that this read refuses is walked record by record to name its
    first bad record, and one with none holds a value of a type that
    ``json.loads`` does not give, such as a subclass.
    """
    read = _read_columns(doc)
    if read is None:
        _check_records(doc)
        raise UsageError("graph document: a value is not of a type that json.loads gives")
    return read


def _read_columns(doc) -> tuple[Graph, EdgeLabeling] | None:
    """A well-formed document's graph and labeling, each column of a record
    list checked in one pass; None on any irregularity, without naming it."""
    if type(doc) is not dict:
        return None
    vds, eds = doc.get("vertices"), doc.get("edges")
    if type(vds) is not list or type(eds) is not list:
        return None
    if not set(map(type, vds)) <= {dict} or not set(map(type, eds)) <= {dict}:
        return None
    try:
        ids, roles, indices = (list(map(itemgetter(k), vds)) for k in ("id", "role", "indices"))
        ends_a, ends_b, label_col = (list(map(itemgetter(k), eds)) for k in ("a", "b", "label"))
    except KeyError:
        return None
    # exact types: a bool is no int, and a subclass is refused
    if not (
        set(map(type, chain(ids, roles, ends_a, ends_b))) <= {str}
        and set(map(type, indices)) <= {list}
        and set(map(type, chain.from_iterable(indices))) <= {int}
        and set(map(type, label_col)) <= {int}
    ):
        return None
    # a build's roles, each with at most one index, read to codes, which sort
    # as the names do; codes or names print by the decoder that lists them
    vs = _codes(roles, indices) or _vertex_ids(roles, map(tuple, indices))
    if _columns(vs)[2] != ids:
        return None
    # two roles may print alike (role "a_1" and role "a" with index 1)
    at = dict(zip(ids, range(len(ids))))
    a, b = list(map(at.get, ends_a)), list(map(at.get, ends_b))
    if len(at) != len(ids) or None in a or None in b:
        return None
    try:
        return _draft(vs, a, b, label_col)
    except GraphSurgeryError:
        return None


def _field(obj, key: str, kind: type):
    """``obj[key]``, which must exist and be a ``kind`` (a bool is no int)."""
    if not isinstance(obj, dict) or key not in obj:
        raise UsageError(f"graph document: missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise UsageError(f"graph document: {key!r} is not a {kind.__name__}: {value!r}")
    return value


def _check_records(doc) -> None:
    """Raise the first fault of a document, walking it one field at a time."""
    ids: set[str] = set()
    for vd in _field(doc, "vertices", list):
        indices = _field(vd, "indices", list)
        for i in indices:
            if not isinstance(i, int) or isinstance(i, bool):
                raise UsageError(f"graph document: vertex index is not an int: {i!r}")
        v = VertexId(_field(vd, "role", str), tuple(indices))
        vid = _field(vd, "id", str)
        if vid in ids:
            raise UsageError(f"graph document: duplicate vertex {vid!r}")
        if vid != str(v):
            raise UsageError(
                f"graph document: vertex id {vid!r} is not {str(v)!r}, "
                "the name of its role and indices"
            )
        ids.add(vid)
    seen = set()
    for ed in _field(doc, "edges", list):
        a, b = _field(ed, "a", str), _field(ed, "b", str)
        for end in (a, b):
            if end not in ids:
                raise UsageError(f"graph document: unknown vertex id {end!r}")
        if a == b:
            raise UsageError(f"graph document: loop edge at {a!r}")
        pair = (a, b) if a < b else (b, a)
        if pair in seen:
            raise UsageError(f"graph document: duplicate edge {a!r} -- {b!r}")
        seen.add(pair)
        _field(ed, "label", int)


def dumps(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    Given ``indent``, the standard library encodes in pure Python and leaves
    reference cycles.  Here a list of flat records and a str-to-int map each
    take one join, other lists, tuples and str-keyed maps go item by item,
    empties and scalars go to plain ``json.dumps``; only a non-str map key
    reaches ``indent``.
    """
    return _encode(doc, "\n") + "\n"


_str = json.encoder.encode_basestring_ascii
_int = int.__repr__


def _encode(value, nl: str) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` renders it
    nested at the indent that ``nl``, a newline and that indent, ends in."""
    kind = type(value)
    if kind is str:
        return _str(value)
    if kind is int:
        return _int(value)
    if kind in (bool, float) or value is None or (kind in (list, tuple, dict) and not value):
        return json.dumps(value)
    if kind is dict and set(map(type, value)) == {str}:
        inner = nl + "  "
        keys = sorted(value)
        if set(map(type, value.values())) == {int}:
            items = zip(map(_str, keys), map(_int, map(value.__getitem__, keys)))
        else:
            items = ((_str(k), _encode(value[k], inner)) for k in keys)
        return "{" + inner + ("," + inner).join(map(": ".join, items)) + nl + "}"
    if kind is list or kind is tuple:
        inner = nl + "  "
        return _records(value, nl) or "[" + inner + ("," + inner).join(
            [_encode(v, inner) for v in value]) + nl + "]"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", nl)


def _records(rows: list, nl: str) -> str | None:
    """A non-empty list of flat records with one key set, each value a str,
    an int or a list of ints, rendered column by column and put together by
    one join, each key's head between the values; None for any other list."""
    if set(map(type, rows)) != {dict} or set(map(type, rows[0])) != {str}:
        return None
    keys = sorted(rows[0])
    if set(map(len, rows)) != {len(keys)}:
        return None
    try:
        columns = [list(map(itemgetter(k), rows)) for k in keys]
    except KeyError:
        return None
    row_nl = nl + "  "
    key_nl = row_nl + "  "
    item_nl = key_nl + "  "
    rendered = []
    for column in columns:
        kinds = set(map(type, column))
        if kinds == {str}:
            rendered.append(map(_str, column))
        elif kinds == {int}:
            rendered.append(map(_int, column))
        elif kinds == {list} and set(map(type, chain.from_iterable(column))) <= {int}:
            # one template per list length; %d prints an int as its repr
            lengths = list(map(len, column))
            lists = {
                k: "[" + item_nl + ("," + item_nl).join(["%d"] * k) + key_nl + "]" if k else "[]"
                for k in set(lengths)
            }
            rendered.append(map(str.__mod__, map(lists.__getitem__, lengths), map(tuple, column)))
        else:
            return None
    heads = [repeat("," + key_nl + _str(k) + ": ") for k in keys]
    # the first key's head closes the row before and opens its own; the
    # first row's opens the list instead
    first = row_nl + "{" + key_nl + _str(keys[0]) + ": "
    heads[0] = chain(["[" + first], repeat(row_nl + "}," + first))
    pieces = chain.from_iterable(zip(*chain.from_iterable(zip(heads, rendered))))
    return "".join(chain(pieces, [row_nl + "}" + nl + "]"]))


def graph_to_dot(g: Graph, f: EdgeLabeling) -> str:
    """DOT with vertex labels "role/indices\\ncolor" and edge labels f(e):
    each distinct role escaped once, and a vertex line rendered by one
    template per index count."""
    f = _finished(g, f)
    (roles, indices), names, positions, at, lo, hi = g._listed()
    escaped = {role: _dot_escaped(role) for role in set(roles)}
    ids = list(map(_dot_escaped, names))
    templates = [
        '  "%s" [label="%s' + ("/" + ",".join(["%s"] * k) if k else "") + '\\n%s"];'
        for k in range(max(map(len, indices), default=0) + 1)
    ]
    colors, labels = _colors(g, f), f._array
    lines = ["graph antimagic {"]
    lines += [
        templates[len(index)] % (name, escaped[role], *index, colors[i])
        for name, role, index, i in zip(ids, roles, indices, at)
    ]
    lines += [
        f'  "{ids[i]}" -- "{ids[j]}" [label="{labels[p]}"];' for p, i, j in zip(positions, lo, hi)
    ]
    lines.append("}\n")
    return "\n".join(lines)


def _dot_escaped(text: str) -> str:
    """``text`` in a quoted DOT string, where a quote or a backslash is
    escaped, so every accepted document, whatever its roles, gives DOT that
    scans."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def table_to_csv(t: LabelTable) -> str:
    header = "i," + ",".join(str(i) for i in range(1, t.columns + 1))
    lines = [header]
    for name, row in t.rows.items():
        lines.append(name + "," + ",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def partition_to_csv(p: EqualSumPartition) -> str:
    lines = ["block,sum,terms"]
    for b, blk in enumerate(p.blocks, start=1):
        lines.append(f"{b},{sum(blk)}," + " ".join(str(x) for x in blk))
    return "\n".join(lines) + "\n"


def labeling_to_doc(g: Graph, f: EdgeLabeling) -> dict:
    """A labeling of ``g``'s edges, listed as :func:`graph_to_doc` lists them."""
    records = _edge_records(g, _finished(g, f))
    return {"q": len(records), "labels": records}


def append_manifest(
    manifest,
    command: str,
    parameters: dict,
    input_hashes: dict[str, str],
    outcome: str,
    outputs: list[str],
) -> None:
    """Write one deterministic JSON line to the run manifest, open for append, and close it."""
    entry = {
        "command": command,
        "parameters": _jsonable(parameters),
        "version": __version__,
        "input_hashes": input_hashes,
        "outcome": outcome,
        "outputs": outputs,
    }
    with manifest:
        manifest.write(json.dumps(entry, sort_keys=True) + "\n")

"""Graph and labeling types, the induced coloring and the certification engine.

A *local antimagic labeling* of a graph with q edges is a bijection from the
edge set onto [1, q] such that the two endpoints of every edge receive
different induced colors, where the induced color of a vertex is the sum of
the labels on its incident edges.  A labeling that realizes exactly three
distinct induced colors on a graph containing a triangle certifies that the
local antimagic chromatic number of the graph is 3 (upper bound by witness,
lower bound by the chromatic number).

Values here are observationally immutable and the functions pure.  A
:class:`Graph` is what :func:`_draft` makes of a build: its vertices and two
int arrays of edge ends, and the labeling made with it holds the label at
each edge position.  :func:`certify` and the writers work on those arrays.
A build names its vertices by int codes (:func:`_code`), which sort as their
names do, and so does a document read whose every vertex a build could have
named.  Such a graph is listed, certified and written from its codes, and
makes the :class:`VertexId` names (``names``) only on first read; a graph
made by name, or read from any other document, holds its names from the
start.  One decoder, :func:`_columns`, reads an id of either kind to its
role, its index tuple and its id string, the role and one ``_%s`` per index:
the listing, the names of a coded graph, ``str`` of a vertex and the
document read all read it, so the id format is stated once.  The frozenset
views ``vertices`` and ``edges`` are computed on each call.  The names of a
coded graph, the walk and the one listing of a graph (flat columns), and the
colors of a finished labeling, are each built on first use and cached; the
fill is idempotent (a racing second fill computes the same value), so graphs
can be shared across concurrent sweeps.

``edge`` makes the canonical edge, ends sorted, with which a graph and its
labeling are made by name; ``merge_vertices``, ``split_vertices`` and
``split_vertex`` are a name-keyed surgery API.  The package re-exports
none of the four: no build runs surgery, and only the tests and the
benchmark's tracer call it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from itertools import chain, compress, repeat
from operator import add, eq, itemgetter, or_
from types import MappingProxyType
from typing import NamedTuple

from .errors import (
    EmptyPart,
    IdCollision,
    LabelDomainMismatch,
    MergeWouldCreateLoop,
    MergeWouldCreateParallelEdge,
    NotIncident,
    OverlappingBlocks,
    UnknownVertex,
    UsageError,
)


class VertexId(NamedTuple):
    """Role-annotated vertex identity, e.g. ``u_3`` or ``x_2_1``.

    ``role`` is the vertex family letter ("u", "v", "w", "x", "y", "z",
    merged-block vertices "m", ...), and ``indices`` are the 1-based
    subscripts.

    As a tuple it hashes, compares and sorts as ``(role, indices)`` does, in
    C; set iteration and canonical edge order follow from that.
    """

    role: str
    indices: tuple[int, ...] = ()

    def __str__(self) -> str:
        return _columns([self])[2][0]


Edge = tuple[VertexId, VertexId]


def edge(a: VertexId, b: VertexId) -> Edge:
    """Canonical unordered edge; loops are rejected."""
    if a == b:
        raise MergeWouldCreateLoop(f"loop edge at {a}")
    return (a, b) if a < b else (b, a)


def V(role: str, *indices: int) -> VertexId:
    """Shorthand constructor; ``indices`` is a tuple already, so the named
    tuple's ``__new__`` is skipped."""
    return tuple.__new__(VertexId, (role, indices))


# the roles a build names its vertices by, in sort order: role_i is coded as
# the role's slot times 2**32 plus 1 + i, and the role alone as its slot times
# 2**32, so codes sort as the names do
_ROLES = ("m", "u", "v", "w", "x", "y", "z")
_SLOTS = dict(zip(_ROLES, range(0, len(_ROLES) << 32, 1 << 32)))


def _code(role: str, *indices: int) -> int:
    """The int code of ``V(role, *indices)`` for a build's role and at most
    one index, ``i < 2**32 - 1``."""
    return _SLOTS[role] | (indices[0] + 1 if indices else 0)


def _codes(roles: Sequence[str], indices: Sequence[Sequence[int]]) -> list[int] | None:
    """The code of each vertex given by its role and index list, or None
    unless every role is a build's and every vertex has at most one index,
    ``0 <= i < 2**32 - 1``; the types are the caller's to check."""
    if not set(roles) <= _SLOTS.keys() or max(map(len, indices), default=0) > 1:
        return None
    low = [i[0] + 1 if i else 0 for i in indices]
    if min(chain.from_iterable(indices), default=0) < 0 or max(low, default=0) >= 2**32:
        return None
    return list(map(or_, map(_SLOTS.__getitem__, roles), low))


def _columns(ids: Sequence) -> tuple[list[str], list[tuple[int, ...]], list[str]]:
    """The role, the index tuple and the id string of each id, a build's int
    code (:func:`_code`) or a :class:`VertexId`: the one reader of both.  An
    id string is the role and one ``_%s`` per index.  Each distinct index key,
    a code's low word or a name's tuple, gets its tuple and its suffix once,
    by one ``%``, and its vertices share them."""
    if _coded(ids):
        roles, keys = [_ROLES[c >> 32] for c in ids], [c & 0xFFFFFFFF for c in ids]
        tuples = {k: (k - 1,) if k else () for k in set(keys)}
    else:
        roles, keys = list(map(itemgetter(0), ids)), list(map(itemgetter(1), ids))
        tuples = dict(zip(keys, keys))
    suffixes = {k: "_%s" * len(t) % t for k, t in tuples.items()}
    strings = list(map(add, roles, map(suffixes.__getitem__, keys)))
    return roles, list(map(tuples.__getitem__, keys)), strings


def _vertex_ids(roles: Iterable[str], indices: Iterable[tuple[int, ...]]) -> list[VertexId]:
    """The :class:`VertexId` of each role and index tuple, by one C-level map."""
    return list(map(tuple.__new__, repeat(VertexId), zip(roles, indices)))


def _decoded(ids: Sequence) -> list[VertexId]:
    """The name of each id, a code or a name."""
    return _vertex_ids(*_columns(ids)[:2])


def _coded(ids: Sequence) -> bool:
    """Whether a draft's vertex ids are a build's int codes, not names."""
    return bool(ids) and type(ids[0]) is int


def _name(ids: Sequence, i: int) -> VertexId:
    """The name of vertex i of a draft's ids, which an error text prints."""
    return _decoded([ids[i]])[0]


class Graph:
    """Simple undirected graph over :class:`VertexId` vertices, held in index
    space as :func:`_draft` made it.

    Vertex i is named ``names[i]``, and every name is a vertex; edge p joins
    ``a[p]`` and ``b[p]``.  The three are fixed at construction and only
    ever read, and no name -> index dict is kept.  Loops and parallel edges
    are impossible by construction; the graph may be disconnected.  A
    build's graph, and one read from a document that a build could have
    written, holds the int codes of its vertices (:func:`_code`) until
    ``names`` is first read, which makes the names from them and keeps the
    names in their place.  Codes and names are read by one decoder,
    :func:`_columns`.

    ``vertices`` and ``edges`` are frozenset views computed on each call.  The
    names of a coded graph, the walk (degrees, components, triangle; no
    neighbour list) and the listing (:meth:`_listed`, flat columns, read off
    the codes of a coded graph: the one edge order of the certificate, the
    writers, the solver and :meth:`sorted_edges`) are each built on first use
    and cached.  A fill is idempotent (a racing second fill computes the same
    value), so graphs can be shared across threads.
    """

    __slots__ = ("_ids", "a", "b", "_walk", "_listing")

    def __init__(self, vertices: Iterable[VertexId], edges: Iterable[Edge]):
        """The graph that :func:`_draft` makes of ``vertices`` and ``edges``,
        edge p the p-th of ``edges``; it rejects a vertex that is not a
        :class:`VertexId`, one whose role is not a str or whose indices are not
        a tuple of ints (a bool is none), so that it takes exactly the vertices
        a document can carry, a repeated vertex, an edge that is not a pair of
        hashable ends, a loop, an end outside ``vertices``, which it names with
        its edge's position, and two parallel edges."""
        names = list(vertices)
        named = list(map(isinstance, names, repeat(VertexId)))
        if False in named:
            raise UsageError(f"vertex {names[named.index(False)]!r} is not a VertexId")
        for v in names:
            if type(v[0]) is not str or type(v[1]) is not tuple or set(map(type, v[1])) - {int}:
                raise UsageError(f"vertex {v!r} is not a str role and a tuple of int indices")
        at = dict(zip(names, range(len(names)))).get
        edges = list(edges)
        a, b = [], []
        for e in edges:
            try:
                x, y = e
                # an end outside the vertices gets -1, which the draft rejects
                a.append(at(x, -1))
                b.append(at(y, -1))
            except (TypeError, ValueError):  # not two ends, or an unhashable one
                raise UsageError(f"edge {e!r} is not a pair of vertices") from None
        try:
            g, _ = _draft(names, a, b, [0] * len(a))
        except UnknownVertex as exc:
            # the draft names the first such edge; this names its end too
            p = next(p for p, ends in enumerate(zip(a, b)) if -1 in ends)
            x, y = edges[p]
            raise UnknownVertex(f"{exc}: {y if a[p] >= 0 else x!r}") from None
        self._fill(g._ids, g.a, g.b)

    @classmethod
    def _of(cls, ids: list, a: list[int], b: list[int]) -> "Graph":
        """A graph over arrays that :func:`_draft` has checked."""
        g = object.__new__(cls)
        g._fill(ids, a, b)
        return g

    def _fill(self, ids, a, b) -> None:
        # a build's ids are int codes until its names are read; any other
        # graph's ids are its names
        self._ids, self.a, self.b = ids, a, b
        self._walk = self._listing = None

    @property
    def names(self) -> list[VertexId]:
        ids = self._ids
        if _coded(ids):
            ids = self._ids = _decoded(ids)
        return ids

    @property
    def order(self) -> int:
        return len(self._ids)

    @property
    def size(self) -> int:
        return len(self.a)

    @property
    def vertices(self) -> frozenset[VertexId]:
        return frozenset(self.names)

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self._named_edges())

    def _named_edges(self) -> list[Edge]:
        """The canonical edge at each position."""
        names = self.names
        ends = zip(map(names.__getitem__, self.a), map(names.__getitem__, self.b))
        return [(x, y) if x < y else (y, x) for x, y in ends]

    def _walked(self) -> tuple[list[int], list[list[int]], bool]:
        """The degree of each vertex by index, the components as index lists
        and whether some edge's ends share a neighbour, from one walk of the
        edge arrays, whose neighbour lists are dropped once it is done."""
        walk = self._walk
        if walk is None:
            adj: list[list[int]] = [[] for _ in self._ids]
            for x, y in zip(self.a, self.b):
                adj[x].append(y)
                adj[y].append(x)
            seen = bytearray(len(adj))
            comps = []
            for start in range(len(adj)):
                if seen[start]:
                    continue
                seen[start] = 1
                comp = [start]
                for v in comp:  # the loop reads the vertices it appends
                    for w in adj[v]:
                        if not seen[w]:
                            seen[w] = 1
                            comp.append(w)
                comps.append(comp)
            # the larger end's neighbours are made a set, once, and the smaller
            # end's looked up in it, so no edge costs more than its smaller degree
            sets: dict[int, set[int]] = {}
            big = ((x, y) if len(adj[x]) >= len(adj[y]) else (y, x) for x, y in zip(self.a, self.b))
            triangle = any(
                not (sets.get(x) or sets.setdefault(x, set(adj[x]))).isdisjoint(adj[y])
                for x, y in big
            )
            walk = self._walk = (list(map(len, adj)), comps, triangle)
        return walk

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, size={self.size})"

    def _listed(self) -> tuple[tuple, tuple, list[int], list[int], list[int], list[int]]:
        """The canonical order as flat columns, from one sort of the vertices
        and one of the edges: the role and the index tuple of the vertex at
        each rank, as a pair of columns, and its id string, the edge position
        of each listed edge, the vertex index at each rank, and the lower and
        higher end rank of each listed edge.  A coded graph's codes sort as
        its names do, and the one decoder (:func:`_columns`) reads the ranked
        ids, codes or names, into the three vertex columns, so listing a coded
        graph makes no name."""
        listed = self._listing
        if listed is None:
            ids = self._ids
            n, q = len(ids), len(self.a)
            ints = list(range(max(n, q)))
            at = sorted(ints[:n], key=ids.__getitem__)
            roles, indices, strings = _columns(list(map(ids.__getitem__, at)))
            rank = dict(zip(at, ints))
            # ranks and positions share one int per value; an edge's key is its
            # lower rank times n plus its higher rank, which sorts as the pair does
            ends = zip(map(rank.__getitem__, self.a), map(rank.__getitem__, self.b))
            keys = [x * n + y if x < y else y * n + x for x, y in ends]
            pos = sorted(ints[:q], key=keys.__getitem__)
            lo, hi = [ints[keys[p] // n] for p in pos], [ints[keys[p] % n] for p in pos]
            vertices = (tuple(roles), tuple(indices))
            listed = self._listing = (vertices, tuple(strings), pos, at, lo, hi)
        return listed

    def sorted_vertices(self) -> list[VertexId]:
        """The vertices in listing order, made from the listing's role and
        index columns."""
        return _vertex_ids(*self._listed()[0])

    def sorted_edges(self) -> list[Edge]:
        lo, hi = self._listed()[4:]
        vs = self.sorted_vertices()
        return list(zip(map(vs.__getitem__, lo), map(vs.__getitem__, hi)))


class EdgeLabeling:
    """Edge -> positive integer map intended to be a bijection onto [1, q].

    The bijection is *checked* by :func:`certify`, not enforced here, so that
    broken labelings can be represented and reported.  A labeling made by
    name holds a copy of its mapping, which each public function that reads
    it with a graph looks up once, as its finished twin on that graph.  A
    finished labeling, made by :func:`_draft` or as a twin, holds its graph
    and the label at each edge position, builds its mapping from them on
    first use, and keeps the colors of its graph (:func:`_colors`).  Every
    labeling the package returns is finished.  ``labels`` is a read-only
    view, so a labeling is a value.  A label that is not an int or a float
    is a :class:`UsageError`, since no color could be summed from it; a bool
    or a float is kept, for :func:`certify` to report as out of range.
    """

    __slots__ = ("_labels", "_graph", "_array", "_colors")

    def __init__(self, labels: Mapping[Edge, int]):
        labels = dict(labels)
        for e, lab in labels.items():
            if not isinstance(lab, (int, float)):
                raise UsageError(f"edge {e!r} has label {lab!r}, which is not an int or a float")
        self._labels, self._graph, self._array, self._colors = labels, None, None, None

    @classmethod
    def from_dict(cls, labels: Mapping[Edge, int]) -> "EdgeLabeling":
        """``EdgeLabeling(labels)``, which copies ``labels`` too."""
        return cls(labels)

    @classmethod
    def _at(cls, g: Graph, array: list) -> "EdgeLabeling":
        """The labeling of ``g`` with ``array[p]`` on the edge at position p."""
        f = object.__new__(cls)
        f._labels, f._graph, f._array, f._colors = None, g, array, None
        return f

    def _named(self) -> dict[Edge, int]:
        labels = self._labels
        if labels is None:
            labels = self._labels = dict(zip(self._graph._named_edges(), self._array))
        return labels

    @property
    def labels(self) -> Mapping[Edge, int]:
        return MappingProxyType(self._named())

    def remapped(self, edge_map: Mapping[Edge, Edge]) -> "EdgeLabeling":
        """Transfer labels edge-wise through a surgery edge map, which lists
        the edges that move: each is taken out before any is put back, since
        one may move onto another's old place."""
        f = EdgeLabeling(self._named())
        moved = list(map(f._labels.pop, edge_map))
        f._labels.update(zip(edge_map.values(), moved))
        return f

    def __eq__(self, other) -> bool:
        return isinstance(other, EdgeLabeling) and self._named() == other._named()

    def __repr__(self) -> str:
        return f"EdgeLabeling(labels={self._named()!r})"


def _finished(g: Graph, f: EdgeLabeling) -> EdgeLabeling:
    """``f`` if it is finished on ``g`` already, or else its finished twin on
    ``g``, from one lookup by name per edge, which also checks that ``f``
    labels exactly the edges of ``g``."""
    if f._graph is g:
        return f
    labels = f._named()
    try:
        array = list(map(labels.__getitem__, g._named_edges()))
    except KeyError:
        array = None
    if array is None or len(labels) != len(array):
        raise LabelDomainMismatch(
            "labeling domain does not match the edge set "
            f"({len(labels)} labels vs {g.size} edges)"
        )
    return EdgeLabeling._at(g, array)


def _colors(g: Graph, f: EdgeLabeling) -> list[int]:
    """The induced color of each vertex of ``g`` by index: its sum of incident
    labels.  A finished labeling keeps the list, so the certificate and the
    writers of a build share one accumulation; a labeling by name gets a new
    twin each call.  The list is filled before it is kept, so a racing fill
    keeps an equal one."""
    f = _finished(g, f)
    colors = f._colors
    if colors is None:
        colors = [0] * g.order
        for x, y, lab in zip(g.a, g.b, f._array):
            colors[x] += lab
            colors[y] += lab
        f._colors = colors
    return colors


def induce_coloring(g: Graph, f: EdgeLabeling) -> dict[VertexId, int]:
    """The vertex -> color map, a new dict on each call."""
    return dict(zip(g.names, _colors(g, f)))


class Certificate(NamedTuple):
    """Machine-checked evidence about one (graph, labeling) pair, the fields
    of its document.

    ``violations`` collects every bijectivity or adjacency failure (never
    fail-fast); it is empty iff both flags hold.  A palette mismatch against
    ``expected_palette`` is recorded in ``palette_ok`` separately.  The
    colors the checks read stay with the labeling (:func:`_colors`)
    and the components with the graph.
    """

    is_bijective: bool
    is_local_antimagic: bool
    color_count: int
    palette: tuple[int, ...]
    degree_census: dict[int, tuple[int, tuple[int, ...]]]
    violations: tuple[dict, ...]
    has_triangle: bool
    is_connected: bool
    expected_palette: tuple[int, ...] | None = None
    palette_ok: bool | None = None

    def ok(self) -> bool:
        return (
            self.is_bijective
            and self.is_local_antimagic
            and self.palette_ok is not False
        )


def _reported(g: Graph, positions: Iterable[int]) -> list[tuple[int, list[str]]]:
    """Each given edge position with its two end names, in the order of the
    graph's listing; the listing is read only when some position is given."""
    marked = set(positions)
    if not marked:
        return []
    _, names, pos, _, lo, hi = g._listed()
    return [(p, [names[i], names[j]]) for p, i, j in zip(pos, lo, hi) if p in marked]


def certify(
    g: Graph, f: EdgeLabeling, expected_palette: Iterable[int] | None = None
) -> Certificate:
    """Check bijectivity onto [1, q], per-edge color inequality and palette.

    All failures are reported inside the certificate; the only exception is a
    labeling whose domain is not the edge set, which is a type error.

    The checks run over the edge arrays, with no sort: one accumulation of
    the colors, the set of the labels, one comparison of end colors per edge
    and one walk of the int adjacency.  Only offending edges are named, from
    the graph's listing and in its order (duplicates grouped by label), and
    the labels are counted only when one repeats.
    """
    f = _finished(g, f)
    colors, labels, a, b = _colors(g, f), f._array, g.a, g.b
    palette = tuple(sorted(set(colors)))
    q = len(a)

    violations: list[dict] = []
    distinct = set(labels)
    # q distinct exact ints from 1 to q are [1, q]; a bool or a float fails by
    # its type, or as a repeat of an int
    if len(distinct) < q or set(map(type, distinct)) - {int} or (
        distinct and (min(distinct) != 1 or max(distinct) != q)
    ):
        outside = [p for p, lab in enumerate(labels) if type(lab) is not int or not 1 <= lab <= q]
        for p, ends in _reported(g, outside):
            violations.append({"kind": "label_out_of_range", "edge": ends, "label": labels[p]})
        if len(distinct) < q:
            shared = {lab for lab, n in Counter(labels).items() if n > 1}
            by_label: dict[int, list[list[str]]] = {}
            for p, ends in _reported(g, [p for p, lab in enumerate(labels) if lab in shared]):
                by_label.setdefault(labels[p], []).append(ends)
            for lab, es in sorted(by_label.items()):
                violations.append({"kind": "duplicate_label", "label": lab, "edges": es})
    is_bijective = not violations

    clashes = _reported(g, compress(
        range(q), map(eq, map(colors.__getitem__, a), map(colors.__getitem__, b))
    ))
    is_local_antimagic = not clashes
    for p, ends in clashes:
        violations.append({"kind": "adjacent_equal_color", "edge": ends, "color": colors[a[p]]})

    # (degree, color) -> vertex count, with the degrees read off the walk
    # that finds the triangle and the components
    degree, comps, triangle = g._walked()
    pairs = Counter(zip(degree, colors))
    census: dict[int, tuple[int, tuple[int, ...]]] = {}
    for (d, c), n in sorted(pairs.items()):
        count, tones = census.get(d, (0, ()))
        census[d] = (count + n, tones + (c,))

    expected = tuple(sorted(expected_palette)) if expected_palette is not None else None
    palette_ok = None if expected is None else palette == expected

    return Certificate(
        is_bijective=is_bijective,
        is_local_antimagic=is_local_antimagic,
        color_count=len(palette),
        palette=palette,
        degree_census=census,
        violations=tuple(violations),
        has_triangle=triangle,
        is_connected=len(comps) <= 1,
        expected_palette=expected,
        palette_ok=palette_ok,
    )


def _draft(
    names: Iterable[VertexId], a: list[int], b: list[int], labels: list
) -> tuple[Graph, EdgeLabeling]:
    """The graph whose vertex i is named ``names[i]`` and whose edge p joins
    ``a[p]`` and ``b[p]``, and its labeling with ``labels[p]`` on edge p, over
    the given lists: the one name, length, end, loop and parallel-edge check,
    in that order, of every build, document read and graph.  The first edge
    in edge order with an end outside the vertices is named by its position,
    and of two edges that join the same two vertices, the first pair.
    A build's names are int codes, checked as they are; an error text
    decodes the names it prints."""
    names = list(names)
    if len(set(names)) != len(names):
        raise IdCollision("vertex names are not distinct")
    if not len(a) == len(b) == len(labels):
        raise LabelDomainMismatch(f"{len(a)} and {len(b)} edge ends for {len(labels)} labels")
    n = len(names)
    if a and not 0 <= min(min(a), min(b)) <= max(max(a), max(b)) < n:
        p = next(p for p, (x, y) in enumerate(zip(a, b)) if not (0 <= x < n and 0 <= y < n))
        raise UnknownVertex(f"the edge at position {p} has an end outside the vertex list")
    loops = list(map(eq, a, b))
    if True in loops:
        raise MergeWouldCreateLoop(f"loop edge at {_name(names, a[loops.index(True)])}")
    # no edge is a loop, so two edges join the same two vertices exactly
    # when an end pair repeats, in the same order or reversed
    ends = set(zip(a, b))
    if len(ends) != len(a) or not ends.isdisjoint(zip(b, a)):
        first: dict[tuple[int, int], int] = {}
        for p, (x, y) in enumerate(zip(a, b)):
            q = first.setdefault((x, y) if x < y else (y, x), p)
            if q != p:
                u, v = edge(_name(names, x), _name(names, y))
                raise MergeWouldCreateParallelEdge(
                    f"two edges join {u} and {v} (positions {q} and {p})"
                )
    g = Graph._of(names, a, b)
    return g, EdgeLabeling._at(g, labels)


# -- surgery by name -------------------------------------------------------------


def _rewritten(g: Graph, names: list[VertexId], ends: list[Edge]) -> tuple[Graph, dict[Edge, Edge]]:
    """The graph of ``names`` whose edge p is ``ends[p]``, ``g``'s edge p with
    its ends renamed in place, and the old-edge -> new-edge map of ``g``'s
    edges whose names change."""
    out = Graph(names, ends)
    return out, {e: e2 for e, e2 in zip(g._named_edges(), out._named_edges()) if e != e2}


def merge_vertices(
    g: Graph,
    blocks: Iterable[Iterable[VertexId]],
    new_ids: Iterable[VertexId],
) -> tuple[Graph, dict[Edge, Edge]]:
    """Replace each block of vertices by one new vertex named by ``new_ids``,
    appended after the kept vertices in block order; returns the merged graph
    and the old-edge -> new-edge map of the edges that move.

    The blocks are checked in order, each one's members in sorted order.  One
    walk of the edges at a block member, in edge order, names the first loop
    or parallel pair, also one from two blocks; an edge that keeps both its
    ends cannot meet one that ends at a new vertex."""
    blocks = [frozenset(b) for b in blocks]
    new_ids = list(new_ids)
    if len(blocks) != len(new_ids):
        raise OverlappingBlocks(f"{len(blocks)} blocks but {len(new_ids)} replacement ids")
    if len(set(new_ids)) != len(new_ids):
        raise IdCollision("replacement ids are not distinct")
    names, known = g.names, set(g.names)
    to: dict[VertexId, VertexId] = {}
    for block, nid in zip(blocks, new_ids):
        if not block:
            raise OverlappingBlocks("empty block")
        for v in sorted(block):
            if v not in known:
                raise UnknownVertex(f"{v} not in graph")
            if v in to:
                raise OverlappingBlocks(f"{v} appears in two blocks")
            to[v] = nid
    for nid in new_ids:
        if nid in known and nid not in to:
            raise IdCollision(f"replacement id {nid} collides with an existing vertex")

    old = list(zip(map(names.__getitem__, g.a), map(names.__getitem__, g.b)))
    ends = old.copy()
    made: dict[Edge, int] = {}
    for p, (x, y) in enumerate(ends):
        if x in to or y in to:
            ends[p] = x2, y2 = to.get(x, x), to.get(y, y)
            if x2 == y2:
                raise MergeWouldCreateLoop("block members %s and %s are adjacent" % edge(x, y))
            q = made.setdefault(edge(x2, y2), p)
            if q != p:
                raise MergeWouldCreateParallelEdge(
                    "edges %s-%s and %s-%s both become %s-%s (two merged vertices share a neighbor)"
                    % (*edge(*old[q]), *edge(x, y), *edge(x2, y2))
                )
    return _rewritten(g, [v for v in names if v not in to] + new_ids, ends)


def split_vertices(
    g: Graph,
    splits: Iterable[tuple[VertexId, Iterable[Edge], Iterable[Edge], VertexId, VertexId]],
) -> tuple[Graph, dict[Edge, Edge]]:
    """Split several vertices at once, each into two halves named by the
    given ids, appended after the kept vertices in the order given, and
    carrying the two given parts of its edges, as :func:`merge_vertices`
    returns.  A part is a set of edges: one named twice, or in both orders,
    counts once.  Every part is found among the edges, then one walk of the
    splits raises the first fault: the two parts must partition the vertex's
    edges, and every half id be new, so a rewritten edge meets no other."""
    names, known = g.names, set(g.names)
    old = list(zip(map(names.__getitem__, g.a), map(names.__getitem__, g.b)))
    # each edge under both orders of its ends
    position = dict(zip(old, range(len(old))))
    position.update(zip(map(itemgetter(1, 0), old), range(len(old))))

    def positions(v: VertexId, part: Iterable[Edge]) -> list[int]:
        found: dict[int, None] = {}
        for x, y in part:
            p = position.get((x, y))
            if p is None:
                # edge() names a loop as one
                raise NotIncident("%s-%s is not incident to %s" % (*edge(x, y), v))
            found[p] = None
        return list(found)

    resolved = [
        (v, positions(v, part1), positions(v, part2), id1, id2)
        for v, part1, part2, id1, id2 in splits
    ]
    degree = Counter(chain.from_iterable(old))
    split: set[VertexId] = set()
    # the half ids, in the order given, which a collision names
    fresh: dict[VertexId, None] = {}
    half: dict[tuple[int, VertexId], VertexId] = {}
    for v, part1, part2, id1, id2 in resolved:
        if v not in known:
            raise UnknownVertex(f"{v} not in graph")
        if v in split:
            raise OverlappingBlocks(f"{v} split twice")
        split.add(v)
        if not part1 or not part2:
            raise EmptyPart(f"both parts of the split at {v} must be nonempty")
        both = [*part1, *part2]
        for p in both:
            if v not in old[p]:
                raise NotIncident("%s-%s is not incident to %s" % (*edge(*old[p]), v))
        if len(set(both)) != len(both) or len(both) != degree[v]:
            raise NotIncident(f"parts at {v} must partition its incident edges")
        if id1 == id2:
            raise IdCollision(f"split ids at {v} coincide")
        for nid in (id1, id2):
            if nid in fresh:
                raise IdCollision(f"split id {nid} is used by two splits")
            fresh[nid] = None
        half.update(((p, v), id1) for p in part1)
        half.update(((p, v), id2) for p in part2)
    for nid in fresh:
        if nid in known and nid not in split:
            raise IdCollision(f"split id {nid} collides with an existing vertex")

    # each end is read off g, so a half that takes the name of a vertex split
    # later in the same call is not split again
    ends = [(half.get((p, x), x), half.get((p, y), y)) for p, (x, y) in enumerate(old)]
    return _rewritten(g, [v for v in names if v not in split] + list(fresh), ends)


def split_vertex(
    g: Graph,
    v: VertexId,
    part1: Iterable[Edge],
    part2: Iterable[Edge],
    id1: VertexId,
    id2: VertexId,
) -> tuple[Graph, dict[Edge, Edge]]:
    """Split ``v`` into two vertices carrying the two given edge parts."""
    return split_vertices(g, [(v, part1, part2, id1, id2)])

"""Graph and labeling types, the induced coloring and the certification engine.

A *local antimagic labeling* of a graph with q edges is a bijection from the
edge set onto [1, q] such that the two endpoints of every edge receive
different induced colors, where the induced color of a vertex is the sum of
the labels on its incident edges.  A labeling that realizes exactly three
distinct induced colors on a graph containing a triangle certifies that the
local antimagic chromatic number of the graph is 3 (upper bound by witness,
lower bound by the chromatic number).

Values here are observationally immutable and the functions pure.  A
:class:`Graph` derives its adjacency, its connected components and its
canonical listing on first use and caches them; the fill is idempotent (a
racing second fill computes the same value), so graphs can still be shared
freely across concurrent sweeps.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import eq, itemgetter, ne, or_
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    EmptyPart,
    IdCollision,
    LabelDomainMismatch,
    MergeWouldCreateLoop,
    MergeWouldCreateParallelEdge,
    NotIncident,
    OverlappingBlocks,
    UnknownVertex,
)


class VertexId(NamedTuple):
    """Role-annotated vertex identity, e.g. ``u_3`` or ``x_2_1``.

    ``role`` is the vertex family letter ("u", "v", "w", "x", "y", "z",
    split halves "z1"/"z2"/"x1"/"x2", merged-block vertices "m", ...), and
    ``indices`` are the 1-based subscripts.

    As a tuple it hashes, compares and sorts as ``(role, indices)`` does, in
    C; set iteration and canonical edge order follow from that.
    """

    role: str
    indices: tuple[int, ...] = ()

    def __str__(self) -> str:
        if not self.indices:
            return self.role
        return self.role + "_" + "_".join(map(str, self.indices))


Edge = tuple[VertexId, VertexId]


class Listing(NamedTuple):
    """A graph in canonical order: ``vertices`` sorted, ``names[i]`` the id
    string of ``vertices[i]``, and ``pairs`` the edges as index pairs
    ``(i, j)`` with ``i < j``, sorted.  The ranks follow the vertex order, so
    ``pairs`` lists the edges in the order ``sorted(edges)`` does."""

    vertices: tuple[VertexId, ...]
    names: tuple[str, ...]
    pairs: tuple[tuple[int, int], ...]


def edge(a: VertexId, b: VertexId) -> Edge:
    """Canonical unordered edge; loops are rejected."""
    if a == b:
        raise MergeWouldCreateLoop(f"loop edge at {a}")
    return (a, b) if a < b else (b, a)


def _id_strings(vertices: Sequence[VertexId]) -> list[str]:
    """The id string of each vertex, as ``str`` prints it, through one ``%``
    template per index count."""
    top = max(map(len, map(itemgetter(1), vertices)), default=0)
    templates = ["%s" + "_%s" * k for k in range(top + 1)]
    return [templates[len(indices)] % (role, *indices) for role, indices in vertices]


def V(role: str, *indices: int) -> VertexId:
    """Shorthand constructor used throughout the builders; ``indices`` is a
    tuple already, so the named tuple's ``__new__`` is skipped."""
    return tuple.__new__(VertexId, (role, indices))


class Graph:
    """Simple undirected graph over :class:`VertexId` vertices.

    May be disconnected; loops and parallel edges are impossible by
    construction.  ``vertices`` and ``edges`` are fixed at construction;
    the adjacency, the connected components and the canonical listing are
    derived from them on first use and cached, so a graph that only passes
    through surgery never builds them.
    """

    __slots__ = ("vertices", "edges", "_adj", "_components", "_listing")

    def __init__(self, vertices: Iterable[VertexId], edges: Iterable[Edge]):
        vs = frozenset(vertices)
        es = set()
        for a, b in edges:
            e = edge(a, b)
            if e[0] not in vs or e[1] not in vs:
                raise UnknownVertex(f"edge {e} has an endpoint outside the vertex set")
            if e in es:
                raise MergeWouldCreateParallelEdge("two edges join the same two vertices")
            es.add(e)
        self.vertices: frozenset[VertexId] = vs
        self.edges: frozenset[Edge] = frozenset(es)
        self._adj: dict[VertexId, set[VertexId]] | None = None
        self._components: list[frozenset[VertexId]] | None = None
        self._listing: Listing | None = None

    @classmethod
    def _checked(cls, vertices: frozenset[VertexId], edges: frozenset[Edge]) -> "Graph":
        """A graph from parts that are already canonical and consistent: every
        edge an ordered pair of distinct members of ``vertices``.
        :meth:`_Draft.finish` and the document reader build here, having
        checked every edge."""
        g = object.__new__(cls)
        g.vertices, g.edges = vertices, edges
        g._adj = g._components = g._listing = None
        return g

    def _adjacency(self) -> dict[VertexId, set[VertexId]]:
        """The neighbor sets, built on first use and only ever read;
        :meth:`neighbors` hands out a frozen copy."""
        adj = self._adj
        if adj is None:
            adj = {v: set() for v in self.vertices}
            for a, b in self.edges:
                adj[a].add(b)
                adj[b].add(a)
            self._adj = adj
        return adj

    # -- queries --------------------------------------------------------------

    def neighbors(self, v: VertexId) -> frozenset[VertexId]:
        return frozenset(self._adjacency()[v])

    def degree(self, v: VertexId) -> int:
        return len(self._adjacency()[v])

    def incident_edges(self, v: VertexId) -> list[Edge]:
        return [edge(v, n) for n in self._adjacency()[v]]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"Graph(order={len(self.vertices)}, size={len(self.edges)})"

    def listing(self) -> Listing:
        """The canonical listing: one sort of the vertices, one id string per
        vertex, and the edges sorted as pairs of vertex ranks."""
        lst = self._listing
        if lst is None:
            vs = sorted(self.vertices)
            rank = dict(zip(vs, range(len(vs))))
            pairs = sorted([(rank[a], rank[b]) for a, b in self.edges])
            lst = self._listing = Listing(tuple(vs), tuple(_id_strings(vs)), tuple(pairs))
        return lst

    def sorted_vertices(self) -> list[VertexId]:
        return list(self.listing().vertices)

    def sorted_edges(self) -> list[Edge]:
        vs, _, pairs = self.listing()
        return [(vs[i], vs[j]) for i, j in pairs]

    def connected_components(self) -> list[frozenset[VertexId]]:
        """Components as vertex sets, sorted by their smallest vertex."""
        comps = self._components
        if comps is None:
            adj = self._adjacency()
            seen: set[VertexId] = set()
            comps = []
            for start in adj:
                if start in seen:
                    continue
                stack = [start]
                comp = {start}
                while stack:
                    fresh = adj[stack.pop()] - comp
                    comp |= fresh
                    stack.extend(fresh)
                seen |= comp
                comps.append(frozenset(comp))
            # components are disjoint, so their smallest vertices are distinct
            comps.sort(key=min)
            self._components = comps
        return list(comps)

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    def has_triangle(self) -> bool:
        adj = self._adjacency()
        for a, b in self.edges:
            if adj[a] & adj[b]:
                return True
        return False


@dataclass(frozen=True)
class EdgeLabeling:
    """Edge -> positive integer map intended to be a bijection onto [1, q].

    The bijection is *checked* by :func:`certify`, not enforced here, so that
    broken labelings can be represented and reported.
    """

    labels: Mapping[Edge, int]

    @classmethod
    def from_dict(cls, labels: Mapping[Edge, int]) -> "EdgeLabeling":
        return cls(dict(labels))

    def remapped(self, edge_map: Mapping[Edge, Edge]) -> "EdgeLabeling":
        """Transfer labels edge-wise through a surgery edge map, which lists
        the edges that move: each is taken out before any is put back, since
        one may move onto another's old place."""
        labels = dict(self.labels)
        moved = list(map(labels.pop, edge_map))
        labels.update(zip(edge_map.values(), moved))
        return EdgeLabeling(labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, EdgeLabeling) and dict(self.labels) == dict(other.labels)


def induce_coloring(g: Graph, f: EdgeLabeling) -> dict[VertexId, int]:
    """The vertex -> color map: each vertex's sum of incident labels."""
    # frozenset() reuses the hashes the dict stores; a keys view would
    # re-hash every edge to look it up in g.edges
    if frozenset(f.labels) != g.edges:
        raise LabelDomainMismatch(
            "labeling domain does not match the edge set "
            f"({len(f.labels)} labels vs {len(g.edges)} edges)"
        )
    colors = {v: 0 for v in g.vertices}
    for (a, b), lab in f.labels.items():
        colors[a] += lab
        colors[b] += lab
    return colors


@dataclass(frozen=True)
class Certificate:
    """Machine-checked evidence about one (graph, labeling) pair.

    ``violations`` collects every bijectivity or adjacency failure (never
    fail-fast); it is empty iff both flags hold.  A palette mismatch against
    ``expected_palette`` is recorded in ``palette_ok`` separately.
    ``colors``, the induced coloring the checks read, is kept for the writers
    and takes no part in ``==``, ``repr`` or the certificate's document.
    """

    is_bijective: bool
    is_local_antimagic: bool
    color_count: int
    palette: tuple[int, ...]
    degree_census: dict[int, tuple[int, tuple[int, ...]]]
    violations: tuple[dict, ...]
    has_triangle: bool
    is_connected: bool
    colors: dict[VertexId, int] = field(compare=False, repr=False)
    expected_palette: tuple[int, ...] | None = None
    palette_ok: bool | None = None

    def ok(self) -> bool:
        return (
            self.is_bijective
            and self.is_local_antimagic
            and self.palette_ok is not False
        )


def certify(
    g: Graph, f: EdgeLabeling, expected_palette: Iterable[int] | None = None
) -> Certificate:
    """Check bijectivity onto [1, q], per-edge color inequality and palette.

    All failures are reported inside the certificate; the only exception is a
    labeling whose domain is not the edge set, which is a type error.

    A valid labeling costs one pass over the labels and one over the edges.
    Only the offending edges are sorted, so ``violations`` still lists them in
    canonical edge order (duplicates by label).
    """
    colors = induce_coloring(g, f)
    palette = tuple(sorted(set(colors.values())))
    labels = f.labels
    q = len(g.edges)

    violations: list[dict] = []
    counts = Counter(labels.values())
    if counts and (min(counts) < 1 or max(counts) > q):
        for e in sorted(e for e, lab in labels.items() if not 1 <= lab <= q):
            violations.append(
                {"kind": "label_out_of_range", "edge": [str(e[0]), str(e[1])], "label": labels[e]}
            )
    if len(counts) < q:
        shared = {lab for lab, n in counts.items() if n > 1}
        by_label: dict[int, list[Edge]] = {}
        for e in sorted(e for e, lab in labels.items() if lab in shared):
            by_label.setdefault(labels[e], []).append(e)
        for lab, es in sorted(by_label.items()):
            violations.append(
                {
                    "kind": "duplicate_label",
                    "label": lab,
                    "edges": [[str(a), str(b)] for a, b in es],
                }
            )
    is_bijective = not violations

    clashes = sorted((a, b) for a, b in g.edges if colors[a] == colors[b])
    is_local_antimagic = not clashes
    for a, b in clashes:
        violations.append(
            {"kind": "adjacent_equal_color", "edge": [str(a), str(b)], "color": colors[a]}
        )

    # (degree, color) -> vertex count, with the degrees read off the adjacency
    # that the triangle and connectivity checks build anyway
    adj = g._adjacency()
    pairs = Counter(zip(map(len, map(adj.__getitem__, colors)), colors.values()))
    census: dict[int, tuple[int, tuple[int, ...]]] = {}
    for (d, c), n in sorted(pairs.items()):
        count, shades = census.get(d, (0, ()))
        census[d] = (count + n, shades + (c,))

    expected = tuple(sorted(expected_palette)) if expected_palette is not None else None
    palette_ok = None if expected is None else palette == expected

    return Certificate(
        is_bijective=is_bijective,
        is_local_antimagic=is_local_antimagic,
        color_count=len(palette),
        palette=palette,
        degree_census=census,
        violations=tuple(violations),
        has_triangle=g.has_triangle(),
        is_connected=g.is_connected(),
        colors=colors,
        expected_palette=expected,
        palette_ok=palette_ok,
    )


# -- surgery -------------------------------------------------------------------


class _Draft:
    """A graph under construction, in index space.

    Vertex i is named ``names[i]``; ``index`` maps the name of each live
    vertex to its index, so a vertex dies when a surgery takes its name out.
    Edge p joins ``a[p]`` and ``b[p]`` and carries ``labels[p]``.  Surgery
    only rewrites edge ends, and appends each new vertex to ``names`` in the
    order it is given and returns the indices it appends, so every label
    stays at its edge's position and nothing is remapped.  :meth:`finish`
    makes the one :class:`Graph` and :class:`EdgeLabeling`.
    """

    __slots__ = ("names", "index", "a", "b", "labels")

    def __init__(self, names: Iterable[VertexId], a: list[int], b: list[int], labels: list):
        self.names = list(names)
        self.index = dict(zip(self.names, range(len(self.names))))
        if len(self.index) != len(self.names):
            raise IdCollision("vertex names are not distinct")
        if not len(a) == len(b) == len(labels):
            raise LabelDomainMismatch(f"{len(a)} and {len(b)} edge ends for {len(labels)} labels")
        if a and not 0 <= min(min(a), min(b)) <= max(max(a), max(b)) < len(self.names):
            raise UnknownVertex("an edge has an endpoint outside the vertex list")
        loops = list(map(eq, a, b))
        if True in loops:
            raise MergeWouldCreateLoop(f"loop edge at {self.names[a[loops.index(True)]]}")
        self.a, self.b, self.labels = a, b, labels

    def finish(self) -> tuple[Graph, EdgeLabeling]:
        """The graph of the live vertices, each edge named canonically once,
        and its labeling."""
        names = self.names
        ends = zip(map(names.__getitem__, self.a), map(names.__getitem__, self.b))
        labels = dict(zip([(x, y) if x < y else (y, x) for x, y in ends], self.labels))
        if len(labels) != len(self.labels):
            raise MergeWouldCreateParallelEdge("two edges join the same two vertices")
        # both frozensets reuse the hashes their dicts hold
        return Graph._checked(frozenset(self.index), frozenset(labels)), EdgeLabeling(labels)

    def _edge(self, x: int, y: int) -> Edge:
        """The canonical edge between the vertices at ``x`` and ``y``."""
        return edge(self.names[x], self.names[y])

    def merge(self, blocks: Sequence[Sequence[int]], new_ids: Sequence[VertexId]) -> range:
        """Replace each block of vertices by one new vertex named by
        ``new_ids``; returns the indices of the new vertices, in block order.

        All blocks are applied as one simultaneous relabeling of edge ends,
        with a global check that no loop or parallel edge arises (the global
        check also catches collisions between edges from *different* blocks,
        which a per-block common-neighbor test alone would miss).  Only the
        edges at a block vertex are rewritten and checked: every other edge
        keeps both its ends, while a rewritten edge ends at a new vertex, so
        the two kinds never collide.
        """
        if len(blocks) != len(new_ids):
            raise OverlappingBlocks(f"{len(blocks)} blocks but {len(new_ids)} replacement ids")
        if len(set(new_ids)) != len(new_ids):
            raise IdCollision("replacement ids are not distinct")
        names, index = self.names, self.index
        # each member goes to its block's new vertex, appended in block order
        new = range(len(names), len(names) + len(new_ids))
        to: dict[int, int] = {}
        for h, block in zip(new, blocks):
            if not block:
                raise OverlappingBlocks("empty block")
            for v in block:
                if index.get(names[v]) != v:
                    raise UnknownVertex(f"{names[v]} not in graph")
                if v in to:
                    raise OverlappingBlocks(f"{names[v]} appears in two blocks")
                to[v] = h
        for nid in new_ids:
            i = index.get(nid)
            if i is not None and i not in to:
                raise IdCollision(f"replacement id {nid} collides with an existing vertex")

        a, b = self.a, self.b
        a2, b2 = list(map(to.get, a, a)), list(map(to.get, b, b))
        touched = list(compress(range(len(a)), map(or_, map(ne, a, a2), map(ne, b, b2))))
        # named before the edges are checked, so that a clash can name them;
        # they are not live until the edges move
        names += new_ids
        made: dict[tuple[int, int], int] = {}
        for p in touched:
            x, y = a2[p], b2[p]
            if x == y:
                raise MergeWouldCreateLoop(
                    "block members %s and %s are adjacent" % self._edge(a[p], b[p])
                )
            key = (x, y) if x < y else (y, x)
            if key in made:
                q = made[key]
                raise MergeWouldCreateParallelEdge(
                    f"edges {self._edge(a[q], b[q])} and {self._edge(a[p], b[p])} both "
                    f"become {self._edge(x, y)} (two merged vertices share a neighbor)"
                )
            made[key] = p
        self.a, self.b = a2, b2
        for v in to:
            del index[names[v]]
        index.update(zip(new_ids, new))
        return new

    def split(
        self, splits: Sequence[tuple[int, Sequence[tuple[int, int]], Sequence[tuple[int, int]],
                                     VertexId, VertexId]]
    ) -> list[tuple[int, int]]:
        """Split several vertices at once, each into two halves named by the
        given ids and carrying the two given parts of its edges, each edge
        named by its two ends; returns each split's two half indices.

        Equivalent to applying the splits one at a time (an edge joining two
        split vertices is re-pointed at both ends).  Each vertex's two parts
        must partition its edges and both be nonempty, and all half ids must
        be distinct and fresh, so a rewritten edge meets no other edge.
        """
        names, index, a, b = self.names, self.index, self.a, self.b
        # one pass over the edges finds the edges at the split vertices, each
        # under both orders of its ends, and so the degrees of those vertices
        hit = bytearray(len(names))
        for split in splits:
            hit[split[0]] = 1
        touched = list(compress(
            range(len(a)), map(or_, map(hit.__getitem__, a), map(hit.__getitem__, b))
        ))
        ta, tb = list(map(a.__getitem__, touched)), list(map(b.__getitem__, touched))
        at = dict(zip(zip(ta, tb), touched))
        at.update(zip(zip(tb, ta), touched))
        degree = Counter(chain(ta, tb))
        halves: dict[int, tuple[set[int], set[int]]] = {}
        fresh: set[VertexId] = set()
        for v, part1, part2, id1, id2 in splits:
            if index.get(names[v]) != v:
                raise UnknownVertex(f"{names[v]} not in graph")
            if v in halves:
                raise OverlappingBlocks(f"{names[v]} split twice")
            for x, y in chain(part1, part2):
                if x == y:
                    raise MergeWouldCreateLoop(f"loop edge at {names[x]}")
            if not part1 or not part2:
                raise EmptyPart(f"both parts of the split at {names[v]} must be nonempty")
            p1, p2 = set(), set()
            for part, positions in ((part1, p1), (part2, p2)):
                for x, y in part:
                    p = at.get((x, y)) if v == x or v == y else None
                    if p is None:
                        raise NotIncident(f"{self._edge(x, y)} is not incident to {names[v]}")
                    positions.add(p)
            if p1 & p2 or len(p1) + len(p2) != degree[v]:
                raise NotIncident(f"parts at {names[v]} must partition its incident edges")
            if id1 == id2:
                raise IdCollision(f"split ids at {names[v]} coincide")
            for nid in (id1, id2):
                if nid in fresh:
                    raise IdCollision(f"split id {nid} is used by two splits")
                fresh.add(nid)
            halves[v] = (p1, p2)
        for nid in fresh:
            i = index.get(nid)
            if i is not None and i not in halves:
                raise IdCollision(f"split id {nid} collides with an existing vertex")

        # every split name goes before any half comes in, since a half may
        # take the name of a vertex split later in the same call
        for v in halves:
            del index[names[v]]
        made = []
        for v, _, _, id1, id2 in splits:
            made.append((len(names), len(names) + 1))
            for part, nid in zip(halves[v], (id1, id2)):
                index[nid] = h = len(names)
                names.append(nid)
                for p in part:
                    if a[p] == v:
                        a[p] = h
                    else:
                        b[p] = h
        return made


def _surgery(g: Graph, operate) -> tuple[Graph, dict[Edge, Edge]]:
    """Run one surgery kernel on ``g`` by name: ``operate(draft, at)`` gets
    ``g`` as a draft whose edges are labeled with themselves, and ``at``,
    which gives the index of a vertex name.  A name ``g`` lacks gets an
    index that is not live, so the kernel reports it.  Returns the new graph
    and the old-edge -> new-edge map of the edges that move."""
    edges = list(g.edges)
    rank = dict(zip(g.vertices, range(len(g.vertices))))
    d = _Draft(rank, [rank[x] for x, _ in edges], [rank[y] for _, y in edges], edges)
    index, names = d.index, d.names

    def at(v: VertexId) -> int:
        i = index.get(v)
        if i is None:
            i = len(names)
            names.append(v)
        return i

    operate(d, at)
    out, f = d.finish()
    return out, {old: e for e, old in f.labels.items() if e != old}


def merge_vertices(
    g: Graph,
    blocks: Iterable[Iterable[VertexId]],
    new_ids: Iterable[VertexId],
) -> tuple[Graph, dict[Edge, Edge]]:
    """Replace each block of vertices by a single new vertex, as
    :meth:`_Draft.merge` does.

    Returns the merged graph and the old-edge -> new-edge map of the edges
    that move, through which any edge labeling transfers unchanged.
    """
    blocks = [frozenset(b) for b in blocks]
    new_ids = list(new_ids)
    return _surgery(g, lambda d, at: d.merge([list(map(at, b)) for b in blocks], new_ids))


def split_vertices(
    g: Graph,
    splits: Iterable[tuple[VertexId, Iterable[Edge], Iterable[Edge], VertexId, VertexId]],
) -> tuple[Graph, dict[Edge, Edge]]:
    """Split several vertices at once, each into two halves carrying the two
    given incident-edge parts, as :meth:`_Draft.split` does.  Labels transfer
    edge-wise through the returned map of the edges that move.
    """
    splits = list(splits)
    return _surgery(g, lambda d, at: d.split([
        (at(v), [(at(x), at(y)) for x, y in part1], [(at(x), at(y)) for x, y in part2], id1, id2)
        for v, part1, part2, id1, id2 in splits
    ]))


def split_vertex(
    g: Graph,
    v: VertexId,
    part1: Iterable[Edge],
    part2: Iterable[Edge],
    id1: VertexId,
    id2: VertexId,
) -> tuple[Graph, dict[Edge, Edge]]:
    """Split ``v`` into two vertices carrying the two given edge parts.

    ``part1`` and ``part2`` must partition the edges incident to ``v``; both
    must be nonempty.  Labels transfer edge-wise through the returned map.
    """
    return split_vertices(g, [(v, part1, part2, id1, id2)])

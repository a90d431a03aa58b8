"""Graph, labeling and induced-coloring types plus the certification engine.

A *local antimagic labeling* of a graph with q edges is a bijection from the
edge set onto [1, q] such that the two endpoints of every edge receive
different induced colors, where the induced color of a vertex is the sum of
the labels on its incident edges.  A labeling that realizes exactly three
distinct induced colors on a graph containing a triangle certifies that the
local antimagic chromatic number of the graph is 3 (upper bound by witness,
lower bound by the chromatic number).

Everything here is immutable after construction and pure, so values can be
shared freely across concurrent sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

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


@dataclass(frozen=True, order=True)
class VertexId:
    """Role-annotated vertex identity, e.g. ``u_3`` or ``x_2_1``.

    ``role`` is the vertex family letter ("u", "v", "w", "x", "y", "z",
    split halves "z1"/"z2"/"x1"/"x2", merged-block vertices "m", ...), and
    ``indices`` are the 1-based subscripts.
    """

    role: str
    indices: tuple[int, ...] = ()

    def __str__(self) -> str:
        if not self.indices:
            return self.role
        return self.role + "_" + "_".join(str(i) for i in self.indices)


Edge = tuple[VertexId, VertexId]


def edge(a: VertexId, b: VertexId) -> Edge:
    """Canonical unordered edge; loops are rejected."""
    if a == b:
        raise MergeWouldCreateLoop(f"loop edge at {a}")
    return (a, b) if a < b else (b, a)


def V(role: str, *indices: int) -> VertexId:
    """Shorthand constructor used throughout the builders."""
    return VertexId(role, tuple(indices))


class Graph:
    """Simple undirected graph over :class:`VertexId` vertices.

    May be disconnected; loops and parallel edges are impossible by
    construction.  Adjacency is precomputed and the instance is treated as
    immutable.
    """

    __slots__ = ("vertices", "edges", "_adj")

    def __init__(self, vertices: Iterable[VertexId], edges: Iterable[Edge]):
        vs = frozenset(vertices)
        es = set()
        adj: dict[VertexId, set[VertexId]] = {v: set() for v in vs}
        for a, b in edges:
            e = edge(a, b)
            if e[0] not in vs or e[1] not in vs:
                raise UnknownVertex(f"edge {e} has an endpoint outside the vertex set")
            es.add(e)
            adj[e[0]].add(e[1])
            adj[e[1]].add(e[0])
        self.vertices: frozenset[VertexId] = vs
        self.edges: frozenset[Edge] = frozenset(es)
        self._adj: dict[VertexId, frozenset[VertexId]] = {
            v: frozenset(ns) for v, ns in adj.items()
        }

    # -- queries --------------------------------------------------------------

    def neighbors(self, v: VertexId) -> frozenset[VertexId]:
        return self._adj[v]

    def degree(self, v: VertexId) -> int:
        return len(self._adj[v])

    def incident_edges(self, v: VertexId) -> list[Edge]:
        return [edge(v, n) for n in self._adj[v]]

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

    def sorted_vertices(self) -> list[VertexId]:
        return sorted(self.vertices)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def connected_components(self) -> list[frozenset[VertexId]]:
        """Components as vertex sets, sorted by their smallest vertex."""
        seen: set[VertexId] = set()
        comps = []
        for start in self.sorted_vertices():
            if start in seen:
                continue
            stack = [start]
            comp = {start}
            seen.add(start)
            while stack:
                v = stack.pop()
                for n in self._adj[v]:
                    if n not in comp:
                        comp.add(n)
                        seen.add(n)
                        stack.append(n)
            comps.append(frozenset(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    def has_triangle(self) -> bool:
        for a, b in self.edges:
            if self._adj[a] & self._adj[b]:
                return True
        return False

    def count_triangles(self) -> int:
        total = sum(len(self._adj[a] & self._adj[b]) for a, b in self.edges)
        return total // 3


def degree_census(g: Graph) -> dict[int, int]:
    """Exact map degree -> vertex count, used to validate family inventories."""
    census: dict[int, int] = {}
    for v in g.vertices:
        d = g.degree(v)
        census[d] = census.get(d, 0) + 1
    return census


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
        """Transfer labels edge-wise through a surgery edge map."""
        return EdgeLabeling({edge_map.get(e, e): lab for e, lab in self.labels.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, EdgeLabeling) and dict(self.labels) == dict(other.labels)


@dataclass(frozen=True)
class InducedColoring:
    """Vertex -> incident-label sum, with the distinct-color census."""

    colors: Mapping[VertexId, int]
    palette: tuple[int, ...]
    count: int


def induce_coloring(g: Graph, f: EdgeLabeling) -> InducedColoring:
    """Sum incident labels at every vertex; palette is ascending."""
    if set(f.labels) != g.edges:
        raise LabelDomainMismatch(
            "labeling domain does not match the edge set "
            f"({len(f.labels)} labels vs {len(g.edges)} edges)"
        )
    colors = {v: 0 for v in g.vertices}
    for (a, b), lab in f.labels.items():
        colors[a] += lab
        colors[b] += lab
    palette = tuple(sorted(set(colors.values())))
    return InducedColoring(colors, palette, len(palette))


@dataclass(frozen=True)
class Certificate:
    """Machine-checked evidence about one (graph, labeling) pair.

    ``violations`` collects every bijectivity or adjacency failure (never
    fail-fast); it is empty iff both flags hold.  A palette mismatch against
    ``expected_palette`` is recorded in ``palette_ok`` separately.
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


def certify(
    g: Graph, f: EdgeLabeling, expected_palette: Iterable[int] | None = None
) -> Certificate:
    """Check bijectivity onto [1, q], per-edge color inequality and palette.

    All failures are reported inside the certificate; the only exception is a
    labeling whose domain is not the edge set, which is a type error.
    """
    coloring = induce_coloring(g, f)
    q = len(g.edges)
    edges = g.sorted_edges()

    violations: list[dict] = []
    seen: dict[int, list[Edge]] = {}
    for e in edges:
        lab = f.labels[e]
        if not 1 <= lab <= q:
            violations.append(
                {"kind": "label_out_of_range", "edge": [str(e[0]), str(e[1])], "label": lab}
            )
        seen.setdefault(lab, []).append(e)
    for lab, es in sorted(seen.items()):
        if len(es) > 1:
            violations.append(
                {
                    "kind": "duplicate_label",
                    "label": lab,
                    "edges": [[str(a), str(b)] for a, b in es],
                }
            )
    is_bijective = not violations

    antimagic_violations: list[dict] = []
    for a, b in edges:
        if coloring.colors[a] == coloring.colors[b]:
            antimagic_violations.append(
                {
                    "kind": "adjacent_equal_color",
                    "edge": [str(a), str(b)],
                    "color": coloring.colors[a],
                }
            )
    is_local_antimagic = not antimagic_violations
    violations.extend(antimagic_violations)

    census: dict[int, tuple[int, tuple[int, ...]]] = {}
    by_degree: dict[int, list[VertexId]] = {}
    for v in g.vertices:
        by_degree.setdefault(g.degree(v), []).append(v)
    for d, vs in sorted(by_degree.items()):
        census[d] = (len(vs), tuple(sorted({coloring.colors[v] for v in vs})))

    expected = tuple(sorted(expected_palette)) if expected_palette is not None else None
    palette_ok = None if expected is None else coloring.palette == expected

    return Certificate(
        is_bijective=is_bijective,
        is_local_antimagic=is_local_antimagic,
        color_count=coloring.count,
        palette=coloring.palette,
        degree_census=census,
        violations=tuple(violations),
        has_triangle=g.has_triangle(),
        is_connected=g.is_connected(),
        expected_palette=expected,
        palette_ok=palette_ok,
    )


# -- surgery -------------------------------------------------------------------


def merge_vertices(
    g: Graph,
    blocks: Iterable[Iterable[VertexId]],
    new_ids: Iterable[VertexId],
) -> tuple[Graph, dict[Edge, Edge]]:
    """Replace each block of vertices by a single new vertex.

    All blocks are applied as one simultaneous relabeling of edge endpoints,
    with a global check that no loop or parallel edge arises (the global check
    also catches collisions between edges from *different* blocks, which a
    per-block common-neighbor test alone would miss).

    Returns the merged graph and the old-edge -> new-edge map, through which
    any edge labeling transfers unchanged.
    """
    blocks = [frozenset(b) for b in blocks]
    new_ids = list(new_ids)
    if len(blocks) != len(new_ids):
        raise OverlappingBlocks(
            f"{len(blocks)} blocks but {len(new_ids)} replacement ids"
        )
    if len(set(new_ids)) != len(new_ids):
        raise IdCollision("replacement ids are not distinct")

    vmap: dict[VertexId, VertexId] = {}
    for block, nid in zip(blocks, new_ids):
        if not block:
            raise OverlappingBlocks("empty block")
        for v in block:
            if v not in g.vertices:
                raise UnknownVertex(f"{v} not in graph")
            if v in vmap:
                raise OverlappingBlocks(f"{v} appears in two blocks")
            vmap[v] = nid

    survivors = g.vertices - set(vmap)
    for nid in new_ids:
        if nid in survivors:
            raise IdCollision(f"replacement id {nid} collides with an existing vertex")

    new_vertices = survivors | set(new_ids)
    edge_map: dict[Edge, Edge] = {}
    new_edges: dict[Edge, Edge] = {}
    for e in g.edges:
        a, b = vmap.get(e[0], e[0]), vmap.get(e[1], e[1])
        if a == b:
            raise MergeWouldCreateLoop(
                f"block members {e[0]} and {e[1]} are adjacent"
            )
        ne = edge(a, b)
        if ne in new_edges:
            other = new_edges[ne]
            raise MergeWouldCreateParallelEdge(
                f"edges {other} and {e} both become {ne} "
                "(two merged vertices share a neighbor)"
            )
        new_edges[ne] = e
        edge_map[e] = ne

    return Graph(new_vertices, new_edges), edge_map


def split_vertices(
    g: Graph,
    splits: Iterable[tuple[VertexId, Iterable[Edge], Iterable[Edge], VertexId, VertexId]],
) -> tuple[Graph, dict[Edge, Edge]]:
    """Split several vertices at once, each into two halves carrying the two
    given incident-edge parts.

    Equivalent to applying the splits sequentially (an edge joining two split
    vertices is re-pointed at both ends), but rebuilds the graph only once.
    Each vertex's two parts must partition its incident edges and both be
    nonempty.  Labels transfer edge-wise through the returned map.
    """
    splits = list(splits)
    # half[v] maps each of v's incident edges to its receiving half id
    half: dict[VertexId, dict[Edge, VertexId]] = {}
    new_vertices = set(g.vertices)
    fresh: set[VertexId] = set()
    for v, part1, part2, id1, id2 in splits:
        if v not in g.vertices:
            raise UnknownVertex(f"{v} not in graph")
        if v in half:
            raise OverlappingBlocks(f"{v} split twice")
        p1 = {edge(*e) for e in part1}
        p2 = {edge(*e) for e in part2}
        incident = set(g.incident_edges(v))
        if not p1 or not p2:
            raise EmptyPart(f"both parts of the split at {v} must be nonempty")
        for e in p1 | p2:
            if e not in incident:
                raise NotIncident(f"{e} is not incident to {v}")
        if p1 & p2 or p1 | p2 != incident:
            raise NotIncident(f"parts at {v} must partition its incident edges")
        if id1 == id2:
            raise IdCollision(f"split ids at {v} coincide")
        half[v] = {}
        for e in p1:
            half[v][e] = id1
        for e in p2:
            half[v][e] = id2
        new_vertices.discard(v)
        fresh.update((id1, id2))
    for nid in fresh:
        if nid in new_vertices:
            raise IdCollision(f"split id {nid} collides with an existing vertex")
    new_vertices |= fresh

    edge_map: dict[Edge, Edge] = {}
    new_edges = []
    for e in g.edges:
        a = half[e[0]][e] if e[0] in half else e[0]
        b = half[e[1]][e] if e[1] in half else e[1]
        ne = edge(a, b)
        if ne != e:
            edge_map[e] = ne
        new_edges.append(ne)
    return Graph(new_vertices, new_edges), edge_map


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

"""Graph surgery, coloring and certification engine tests."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import antimagic
import hub_reference
from adjacency import components, incident_edges, neighbors
from antimagic import graph, io
from antimagic.errors import (
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
from antimagic.families import _join_cells, build_family, verify_instance
from antimagic.graph import (
    EdgeLabeling,
    Graph,
    V,
    VertexId,
    _draft,
    certify,
    edge,
    induce_coloring,
    merge_vertices,
    split_vertex,
    split_vertices,
)
from antimagic.solver import SearchConfig, solve_chi_la
from antimagic.tables import table_m1


def path3():
    a, b, c = V("a"), V("b"), V("c")
    g = Graph([a, b, c], [edge(a, b), edge(b, c)])
    f = EdgeLabeling.from_dict({edge(a, b): 1, edge(b, c): 2})
    return g, f, (a, b, c)


@pytest.mark.parametrize(
    "edges, error",
    [
        ([(V("a"), V("b")), (V("b"), V("a")), (V("b"), V("c"))], MergeWouldCreateParallelEdge),
        ([(V("a"), V("b")), (V("b"), V("b"))], MergeWouldCreateLoop),
        ([(V("a"), V("b")), (V("c"), V("d"))], UnknownVertex),
    ],
    ids=["repeated_edge", "loop", "endpoint_outside"],
)
def test_graph_rejects_what_a_simple_graph_cannot_hold(edges, error):
    # a repeated edge would collapse into one, and labels zipped onto the
    # edge list would then certify as a non-bijection with no reason given
    with pytest.raises(error):
        Graph([V("a"), V("b"), V("c")], edges)


def test_a_repeated_edge_is_named_at_its_first_repeat_in_edge_order():
    # the check itself is one set; only a failure walks the ends to name them
    vs = [V("v", i) for i in range(5)]
    edges = [(vs[0], vs[1]), (vs[3], vs[2]), (vs[1], vs[2]), (vs[2], vs[3]), (vs[1], vs[0])]
    with pytest.raises(MergeWouldCreateParallelEdge) as info:
        Graph(vs, edges)
    assert str(info.value) == "two edges join v_2 and v_3 (positions 1 and 3)"


def test_an_end_outside_the_vertices_is_named_with_its_edge_position():
    u, v, w = V("u"), V("v"), V("w")
    outside = "the edge at position 1 has an end outside the vertex list"
    with pytest.raises(UnknownVertex) as info:
        Graph([u, v], [(u, v), (u, w)])
    assert str(info.value) == f"{outside}: {w!r}"
    # the first such edge in edge order, and its end that is not a vertex
    with pytest.raises(UnknownVertex) as info:
        Graph([u, v], [(v, u), ("x", v), (u, w)])
    assert str(info.value) == f"{outside}: 'x'"
    # a draft's ends are indices: it names the edge alone
    with pytest.raises(UnknownVertex) as info:
        _draft([u, v], [0, 1, 0], [1, 2, -1], [1, 2, 3])
    assert str(info.value) == outside
    # the names are still checked first
    with pytest.raises(IdCollision):
        Graph([u, u], [(u, w)])


def test_an_edge_from_a_vertex_to_itself_is_a_loop():
    with pytest.raises(MergeWouldCreateLoop, match="^loop edge at a_1$"):
        edge(V("a", 1), V("a", 1))


def test_a_draft_with_edge_arrays_of_unequal_length_is_a_domain_mismatch():
    # checked after the names and before any end
    names = [V("a"), V("b"), V("c")]
    for a, b, labels, message in [
        ([0, 1], [1], [1, 2], "2 and 1 edge ends for 2 labels"),
        ([0], [1], [1, 2], "1 and 1 edge ends for 2 labels"),
        ([0, 9], [1, 2], [1], "2 and 2 edge ends for 1 labels"),
    ]:
        with pytest.raises(LabelDomainMismatch) as info:
            _draft(names, a, b, labels)
        assert str(info.value) == message


def test_graph_rejects_a_repeated_vertex():
    # a repeat is a name clash, as in any draft, not a vertex to drop
    a, b = V("a"), V("b")
    with pytest.raises(IdCollision, match="^vertex names are not distinct$"):
        Graph([a, b, a], [edge(a, b)])


@pytest.mark.parametrize(
    "vertices, edges, named",
    [
        # ints would read as a build's codes, m_0, m_1, m_2
        ([1, 2, 3], [(1, 2), (2, 3)], "1"),
        (["a", "b"], [("a", "b")], "'a'"),
        ([V("a"), ("b", ()), ("c", ())], [], "('b', ())"),
    ],
    ids=["ints", "strs", "plain_tuple"],
)
def test_graph_refuses_a_vertex_that_is_not_a_vertex_id(vertices, edges, named):
    with pytest.raises(UsageError) as info:
        Graph(vertices, edges)
    assert type(info.value) is UsageError
    assert str(info.value) == f"vertex {named} is not a VertexId"


@pytest.mark.parametrize(
    "bad",
    [VertexId(3, (1,)), VertexId("u", 5), VertexId("u", [1]), V("u", True), V("u", 1.5)],
    ids=["int_role", "int_indices", "list_indices", "bool_index", "float_index"],
)
def test_graph_refuses_a_vertex_whose_role_is_not_a_str_or_whose_indices_are_not_ints(bad):
    # a graph made by name takes exactly the vertices a document can carry:
    # V("u", True) equals V("u", 1) and would share its suffix, u_1
    with pytest.raises(UsageError) as info:
        Graph([V("w"), bad], [])
    assert type(info.value) is UsageError
    assert str(info.value) == f"vertex {bad!r} is not a str role and a tuple of int indices"
    # a vertex that is no VertexId at all is named first, wherever it stands
    with pytest.raises(UsageError, match="^vertex 'x' is not a VertexId$"):
        Graph([bad, "x"], [])


@pytest.mark.parametrize(
    "bad",
    [(V("u"), V("v"), V("w")), (V("u"),), (V("u"), [1]), 5],
    ids=["three_ends", "one_end", "unhashable_end", "not_iterable"],
)
def test_graph_refuses_an_edge_that_is_not_a_pair_of_vertices(bad):
    vs = [V("u"), V("v"), V("w")]
    with pytest.raises(UsageError) as info:
        Graph(vs, [(vs[0], vs[1]), bad])
    assert type(info.value) is UsageError
    assert str(info.value) == f"edge {bad!r} is not a pair of vertices"
    # an edge given as a list is a pair
    listed = Graph(vs, [[vs[0], vs[1]], [vs[2], vs[1]]])
    assert listed == Graph(vs, [(vs[0], vs[1]), (vs[1], vs[2])])


def test_a_graph_keeps_the_order_of_the_edges_it_is_given():
    # edge p is the p-th edge given, its ends as given, under every hash seed
    vs = [V("v", i) for i in range(9)]
    es = [(vs[i], vs[(i + 1) % 9]) for i in (6, 0, 5, 3, 8, 1, 7, 2, 4)]
    g = Graph(vs, es)
    assert [(g.names[x], g.names[y]) for x, y in zip(g.a, g.b)] == es
    assert g.sorted_edges() == sorted(edge(*e) for e in es)


def test_every_graph_names_only_its_vertices():
    # a surgery's dead vertices go at its finish, so each way to make a graph
    # gives one whose names are its vertices, with no name index
    hub_lists, _, _ = hub_reference.df(1, 1)  # splits, then merges, as one draft
    built, f, inst = build_family("df", r=1, s=1)
    g, _ = _disjoint_cells(1)
    x = [V("x", i) for i in (1, 2, 3)]
    at_x1 = incident_edges(neighbors(g), x[0])
    merged, _ = merge_vertices(g, [x], [V("x")])
    # the live vertices keep their order, and the new one comes last
    assert merged.names == [v for v in g.names if v not in x] + [V("x")]
    graphs = [
        built,
        io.doc_to_graph(json.loads(io.dumps(io.graph_to_doc(built, f, inst))))[0],
        Graph(built.vertices, built.edges),
        merged,
        split_vertices(g, [(x[0], at_x1[:1], at_x1[1:], V("h", 1), V("h", 2))])[0],
        split_vertex(g, x[0], at_x1[1:], at_x1[:1], V("h", 1), V("h", 2))[0],
        hub_reference.draft(*hub_lists)[0],
    ]
    for h in graphs:
        assert len(h.names) == h.order == len(set(h.names)) and not hasattr(h, "index")
    assert graphs[-1] == built


# --- vertex ids and derived structures ------------------------------------------


def test_vertex_id_orders_hashes_and_prints_as_its_tuple():
    # artifact order and set iteration order rest on these
    ids = [V("x1"), V("x", 1, 1), V("x", 2), V("x", 1), V("w", 3), V("x"), V("x1", 1)]
    assert sorted(ids) == sorted(ids, key=lambda v: (v.role, v.indices))
    assert V("x") < V("x", 1) < V("x", 1, 1) < V("x", 2) < V("x1") < V("x1", 1)
    assert hash(V("u", 1)) == hash(("u", (1,)))
    assert str(V("x")) == "x" and str(V("x", 2, 1)) == "x_2_1"
    assert V("u", 1) == VertexId("u", (1,))
    assert VertexId("u") == V("u") and V("u").indices == ()
    for field, value in (("role", "v"), ("indices", (2,))):
        with pytest.raises(AttributeError):
            setattr(V("u", 1), field, value)


def test_v_makes_exactly_the_vertex_id_of_its_arguments():
    for role, indices in (("u", ()), ("x", (1,)), ("x1", (2, 1)), ("m", (0, 5, 70))):
        v = V(role, *indices)
        assert type(v) is VertexId
        assert v == VertexId(role, tuple(indices))
        assert (v.role, v.indices) == (role, indices) and type(v.indices) is tuple
        assert str(v) == "_".join([role, *map(str, indices)])


def test_the_package_leaves_the_surgery_api_to_its_graph_module():
    # the surgery API, and edge, the canonical edge that the by-name API takes
    by_name = {"edge", "merge_vertices", "split_vertex", "split_vertices"}
    assert not by_name & set(antimagic.__all__)
    assert not [name for name in antimagic.__all__ if not hasattr(antimagic, name)]
    assert not [name for name in by_name if hasattr(antimagic, name)]
    assert all(callable(getattr(graph, name)) for name in by_name)
    assert callable(graph.EdgeLabeling.remapped)


def _ranked(g):
    """The listing's columns that hold no edge position or vertex index,
    which a surgery round renumbers: the role and the index tuple at each
    rank, their id strings and each listed edge's two end ranks."""
    (roles, indices), names, _, _, lo, hi = g._listed()
    return roles, indices, names, lo, hi


def _views(g):
    """What ``certify`` reads off the cached walk (the census and the
    triangle flag), the component orders that ``verify_instance`` reads off
    it, and the cached listing's ranked columns."""
    f = EdgeLabeling.from_dict({e: lab for lab, e in enumerate(sorted(g.edges), start=1)})
    cert = certify(g, f)
    orders = tuple(sorted(map(len, g._walked()[1])))
    return cert.degree_census, orders, cert.has_triangle, _ranked(g)


def test_listing_is_one_sort_of_the_vertices_and_edges():
    g, _, _ = build_family("gn", n=10, indices=(1,))
    roles, indices, names, lo, hi = _ranked(g)
    assert graph._coded(g._ids)  # a build's listing is read off its codes
    vs = list(zip(roles, indices))
    assert vs == sorted(g.vertices) == g.sorted_vertices()
    assert list(names) == [str(v) for v in sorted(g.vertices)]
    assert [(vs[i], vs[j]) for i, j in zip(lo, hi)] == sorted(g.edges) == g.sorted_edges()
    assert all(i < j for i, j in zip(lo, hi))
    assert g._listed() is g._listed()
    # the order of a vertex's names is not the order of its ids
    assert VertexId("x", (10,)) < VertexId("x1") < VertexId("x1", (2,))
    h = Graph([V("x", 10), V("x1"), V("x", 2)], [edge(V("x", 10), V("x1"))])
    assert _ranked(h) == (
        ("x", "x", "x1"), ((2,), (10,), ()), ("x_2", "x_10", "x1"), [1], [2]
    )
    assert h.sorted_vertices() == [V("x", 2), V("x", 10), V("x1")]


def test_derived_structures_agree_across_a_surgery_round():
    g, _, _ = build_family("gn", n=10, indices=(1,))  # two components
    before = _views(g)
    assert len(before[1]) == 2
    near = neighbors(g)
    hub = next(v for v in g.sorted_vertices() if len(near[v]) >= 3)
    incident = incident_edges(near, hub)
    h1, h2 = V("h", 1), V("h", 2)
    split, _ = split_vertices(g, [(hub, incident[:1], incident[1:], h1, h2)])
    assert [len(neighbors(split)[h]) for h in (h1, h2)] == [1, len(incident) - 1]
    assert _ranked(split) != before[3]
    back, _ = merge_vertices(split, [{h1, h2}], [hub])
    assert back == g
    assert _views(g) == before
    assert _views(back) == before
    assert _ranked(back) == _ranked(g) and back.sorted_edges() == g.sorted_edges()


def test_threads_sharing_a_graph_fill_its_caches_consistently():
    # large enough (q = 605) that a fill of the colors spans thread switches
    built, labeling, inst = build_family("gn", n=120, indices=(1, 2))
    cert = certify(built, labeling, inst.expected_palette)
    expected = (
        *_views(Graph(built.vertices, built.edges)), cert, induce_coloring(built, labeling),
        built.names, built.sorted_vertices(),
    )
    g = Graph(built.vertices, built.edges)  # nothing derived yet
    # a finished labeling of g that keeps no colors yet, which every thread certifies
    f = graph._finished(g, EdgeLabeling(labeling.labels))
    assert f._colors is None
    # a build's graph whose names every thread makes from its codes, and lists
    h = build_family("gn", n=120, indices=(1, 2))[0]
    assert graph._coded(h._ids)

    # the threads start their fills together, so a fill can see another's
    start = threading.Barrier(8, timeout=30)

    def views():
        start.wait()
        seen = certify(g, f, inst.expected_palette)
        colors = dict(zip(g.names, graph._colors(g, f)))
        return (*_views(g), seen, colors, h.names, h.sorted_vertices())

    results = []
    threads = [threading.Thread(target=lambda: results.append(views())) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * len(threads)
    assert dict(zip(g.names, f._colors)) == expected[-3]


def test_a_certified_written_graph_keeps_flat_columns_only():
    # fb n=755 (q = 3,775): a walk that kept its neighbour lists would hold
    # about 254 KB and a listing with a tuple per edge about 693 KB; the flat
    # caches hold about 45 KB and 400 KB
    g, f, inst = build_family("fb", n=755)
    graph._colors(g, f)  # the labeling's own cache, outside the count
    g.names  # and the names the build's codes make on first read
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        verify_instance(g, f, inst)
        walked = tracemalloc.get_traced_memory()[0] - start
        io.graph_to_doc(g, f, inst)
        io.graph_to_dot(g, f)
        listed = tracemalloc.get_traced_memory()[0] - start - walked
    finally:
        tracemalloc.stop()
    assert walked < 80_000 and listed < 480_000, (walked, listed)
    # the walk keeps a degree per vertex and the components, no neighbour list
    degree, comps, triangle = g._walked()
    assert set(map(type, degree)) == {int} and triangle is True
    assert sorted(chain.from_iterable(comps)) == list(range(g.order))


# --- merge --------------------------------------------------------------------


def _disjoint_cells(k):
    """The graph and labeling of 2k+1 fan cells, cell i on its own hub x_i."""
    n = 2 * k + 1
    hubs = [graph._code("x", i) for i in range(1, n + 1)]
    return _draft(*_join_cells(table_m1(k), hubs, [(range(n), range(n))]))


def test_merge_nine_cells_into_one_fan():
    g, f = _disjoint_cells(4)  # 9 cells, 45 edges
    assert len(g.edges) == 45
    merged, emap = merge_vertices(g, [{V("x", i) for i in range(1, 10)}], [V("x")])
    f2 = f.remapped(emap)
    assert len(merged.edges) == 45
    assert len(neighbors(merged)[V("x")]) == 27
    assert sorted(f2.labels.values()) == list(range(1, 46))
    # the fan that fb lays on its one hub
    assert (merged, f2) == build_family("fb", n=9)[:2]


def test_merge_empty_block_list_is_identity():
    g, f = _disjoint_cells(1)
    merged, emap = merge_vertices(g, [], [])
    assert merged == g
    assert f.remapped(emap) == f


def test_merge_into_three_fans():
    g, _ = _disjoint_cells(4)
    blocks = [
        {V("x", 1), V("x", 5), V("x", 9)},
        {V("x", 3), V("x", 4), V("x", 8)},
        {V("x", 2), V("x", 6), V("x", 7)},
    ]
    merged, _ = merge_vertices(g, blocks, [V("y", a) for a in (1, 2, 3)])
    assert len(components(merged)) == 3


def test_merge_adjacent_pair_is_a_loop():
    g, _, (a, b, c) = path3()
    with pytest.raises(MergeWouldCreateLoop):
        merge_vertices(g, [{a, b}], [V("m")])


@pytest.mark.parametrize("path, block, new_id, become", [
    ([V("a"), V("b"), V("c")], {V("a"), V("c")}, V("m"), "edges a-b and b-c both become b-m"),
    # a member that keeps its name moves its edges all the same
    ([V("a", 0), V("a", 2), V("a", 1)], {V("a", 0), V("a", 1)}, V("a", 0),
     "edges a_0-a_2 and a_1-a_2 both become a_0-a_2"),
], ids=["fresh_id", "self_renamed"])
def test_merge_common_neighbor_is_a_parallel_edge(path, block, new_id, become):
    g = Graph(path, [edge(x, y) for x, y in zip(path, path[1:])])
    message = re.escape(f"{become} (two merged vertices share a neighbor)")
    with pytest.raises(MergeWouldCreateParallelEdge, match=f"^{message}$"):
        merge_vertices(g, [block], [new_id])


def test_merge_cross_block_parallel_edge_detected():
    # a1-b1 and a2-b2 with blocks {a1,a2}, {b1,b2}: no common neighbors inside
    # either block, yet the merge would double the edge
    a1, a2, b1, b2 = V("a", 1), V("a", 2), V("b", 1), V("b", 2)
    g = Graph([a1, a2, b1, b2], [edge(a1, b1), edge(a2, b2)])
    with pytest.raises(MergeWouldCreateParallelEdge):
        merge_vertices(g, [{a1, a2}, {b1, b2}], [V("a"), V("b")])


def test_merge_overlapping_blocks():
    g, _, (a, b, c) = path3()
    with pytest.raises(OverlappingBlocks):
        merge_vertices(g, [{a}, {a}], [V("m", 1), V("m", 2)])


# --- split --------------------------------------------------------------------


def test_split_degree_two_conserves_edges():
    g, f, (a, b, c) = path3()
    g2, emap = split_vertex(g, b, [edge(a, b)], [edge(b, c)], V("b", 1), V("b", 2))
    assert len(g2.edges) == 2
    near = neighbors(g2)
    assert len(near[V("b", 1)]) == len(near[V("b", 2)]) == 1
    f2 = f.remapped(emap)
    assert f2.labels[edge(a, V("b", 1))] == 1
    assert f2.labels[edge(V("b", 2), c)] == 2


def test_split_fan_hub_like_diamond_construction():
    g, _ = _disjoint_cells(1)
    x1 = V("x", 1)
    to_w = [edge(x1, V("w", 1))]
    to_uv = [edge(x1, V("u", 1)), edge(x1, V("v", 1))]
    g2, _ = split_vertex(g, x1, to_w, to_uv, V("x1", 1), V("x2", 1))
    near = neighbors(g2)
    assert len(near[V("x1", 1)]) == 1
    assert len(near[V("x2", 1)]) == 2
    assert len(g2.edges) == len(g.edges)


def test_split_ids_shared_by_two_splits_collide():
    # sharing h2 would re-join v and w, and v-x2 and w-x2 would both become
    # h2-x2: a split must neither merge vertices nor lose an edge
    x1, v, x2, w, x3 = V("x", 1), V("v"), V("x", 2), V("w"), V("x", 3)
    g = Graph([x1, v, x2, w, x3], [edge(x1, v), edge(v, x2), edge(x2, w), edge(w, x3)])
    splits = [
        (v, [edge(v, x1)], [edge(v, x2)], V("h", 1), V("h", 2)),
        (w, [edge(w, x2)], [edge(w, x3)], V("h", 2), V("h", 3)),
    ]
    with pytest.raises(IdCollision, match="used by two splits"):
        split_vertices(g, splits)


@pytest.mark.parametrize("v, part1, part2, id2, error, message", [
    ("b", [], ["ab", "bc"], V("b", 2), EmptyPart, "^both parts of the split at b must be nonempty$"),
    # b-c is an edge of the graph, but not at a
    ("a", ["ab"], ["bc"], V("a", 2), NotIncident, "^b-c is not incident to a$"),
    # a-c is no edge of the graph
    ("b", ["ab"], ["ca"], V("b", 2), NotIncident, "^a-c is not incident to b$"),
    ("b", ["ab"], ["bc"], V("b", 1), IdCollision, "^split ids at b coincide$"),
])
def test_split_rejects_foreign_and_empty_parts(v, part1, part2, id2, error, message):
    g, _, _ = path3()

    def named(part):
        return [(V(x), V(y)) for x, y in part]

    with pytest.raises(error, match=message):
        split_vertex(g, V(v), named(part1), named(part2), V(v, 1), id2)


def test_merge_then_resplit_roundtrip():
    g, f, _ = path3()
    d = V("d")
    g = Graph(list(g.vertices) + [d], list(g.edges) + [edge(V("c"), d)])
    f = EdgeLabeling.from_dict({**f.labels, edge(V("c"), d): 3})
    a, d = V("a"), V("d")
    merged, emap = merge_vertices(g, [{a, d}], [V("m")])
    fm = f.remapped(emap)
    near = neighbors(g)
    part_a = [edge(V("m"), n) for n in near[a]]
    part_d = [edge(V("m"), n) for n in near[d]]
    back, emap2 = split_vertex(merged, V("m"), part_a, part_d, a, d)
    assert back == g
    assert fm.remapped(emap2) == f


# --- coloring and certification -------------------------------------------------


def test_induce_coloring_single_edge():
    a, b = V("a"), V("b")
    g = Graph([a, b], [edge(a, b)])
    colors = induce_coloring(g, EdgeLabeling.from_dict({edge(a, b): 1}))
    assert colors == {a: 1, b: 1}


def test_induce_coloring_fan3():
    g, f, _ = build_family("fb", n=3)
    assert sorted(set(induce_coloring(g, f).values())) == [15, 16, 99]


def test_certify_path3():
    g, f, (a, b, c) = path3()
    cert = certify(g, f)
    assert cert.is_bijective and cert.is_local_antimagic
    assert cert.palette == (1, 2, 3)
    assert cert.color_count == 3
    assert not cert.has_triangle
    assert cert.violations == ()


def test_certify_fan9_expected_palette():
    g, f, _ = build_family("fb", n=9)
    cert = certify(g, f, expected_palette=[42, 46, 864])
    assert cert.ok()
    assert cert.palette == (42, 46, 864)
    assert cert.has_triangle
    assert cert.degree_census[2] == (18, (46,))
    assert cert.degree_census[3] == (9, (42,))
    assert cert.degree_census[27] == (1, (864,))


def test_certify_duplicate_label_reported():
    g, _, (a, b, c) = path3()
    bad = EdgeLabeling.from_dict({edge(a, b): 2, edge(b, c): 2})
    cert = certify(g, bad)
    assert not cert.is_bijective
    dups = [v for v in cert.violations if v["kind"] == "duplicate_label"]
    assert dups and dups[0]["label"] == 2
    assert len(dups[0]["edges"]) == 2


def test_certify_adjacent_equal_color_reported():
    # bijective K4 labeling where two adjacent vertices both sum to 10
    a, b, c, d = (V(r) for r in "abcd")
    g = Graph([a, b, c, d], [edge(p, q) for p, q in
                             [(a, b), (a, c), (a, d), (b, c), (b, d), (c, d)]])
    f = EdgeLabeling.from_dict({
        edge(a, b): 1, edge(a, c): 2, edge(a, d): 6,
        edge(b, c): 5, edge(b, d): 4, edge(c, d): 3,
    })
    cert = certify(g, f)
    assert cert.is_bijective
    assert not cert.is_local_antimagic
    bad = [v for v in cert.violations if v["kind"] == "adjacent_equal_color"]
    assert bad and bad[0]["color"] == 10


def _color_fills(monkeypatch) -> list:
    """Each color list that a labeling keeps from now on, in the order kept:
    the labeling's slot is wrapped, so every kept accumulation is counted."""
    fills, slot = [], EdgeLabeling._colors

    def kept(f, colors):
        if colors is not None:
            fills.append(colors)
        slot.__set__(f, colors)

    monkeypatch.setattr(EdgeLabeling, "_colors", property(slot.__get__, kept))
    return fills


@pytest.mark.parametrize(
    "family, params", [("fb", {"n": 9}), ("tb", {"n": 8}), ("gn", {"n": 10, "indices": (1,)})]
)
def test_a_finished_build_induces_its_coloring_once(family, params, monkeypatch):
    fills = _color_fills(monkeypatch)
    g, f, inst = build_family(family, **params)
    assert f._colors is None and fills == []
    cert = certify(g, f, inst.expected_palette)
    colors = f._colors
    assert fills == [colors] and graph._colors(g, f) is colors
    # the writers print it, with or without the certificate
    with_cert, without = io.graph_to_doc(g, f, inst, cert), io.graph_to_doc(g, f, inst)
    dot = io.graph_to_dot(g, f)
    coloring = induce_coloring(g, f)
    assert len(fills) == 1 and f._colors is colors
    assert coloring == dict(zip(g.names, colors))
    assert with_cert["colors"] == {str(v): c for v, c in coloring.items()}
    printed = dict(re.findall(r'^  "([^"]+)" \[label="[^"]*\\n(\d+)"\];$', dot, re.M))
    assert printed == {str(v): str(c) for v, c in coloring.items()}
    assert with_cert.pop("certificate") == io.certificate_to_doc(cert)
    assert without.pop("certificate") is None
    assert with_cert == without
    # the coloring is the labeling's, not a field of the certificate
    assert "colors" not in cert._fields and "component_orders" not in cert._fields
    assert "colors" not in io.certificate_to_doc(cert)
    # a labeling rebuilt by name accumulates on a new twin on every call, and
    # keeps none itself
    by_name = EdgeLabeling.from_dict(f.labels)
    assert induce_coloring(g, by_name) == coloring and len(fills) == 2
    assert certify(g, by_name, inst.expected_palette) == cert and len(fills) == 3
    assert by_name._colors is None
    # and so does the finished labeling read on an equal graph, which leaves
    # its own graph's colors in place
    same = Graph(g.vertices, g.edges)
    assert induce_coloring(same, f) == coloring and len(fills) == 4
    assert certify(same, f, inst.expected_palette) == cert and len(fills) == 5
    assert f._colors is colors


def test_induce_coloring_is_a_value():
    g, f, inst = build_family("fb", n=5)
    by_name = EdgeLabeling.from_dict(f.labels)
    for labeling in (f, by_name):
        first = induce_coloring(g, labeling)
        cert = certify(g, labeling, inst.expected_palette)
        again = induce_coloring(g, labeling)
        assert again == first and again is not first
        first.update(dict.fromkeys(first, 1))
        assert induce_coloring(g, labeling) == again
        assert certify(g, labeling, inst.expected_palette) == cert and cert.ok()
    assert dict(zip(g.names, f._colors)) == again
    # each call on a labeling by name makes a new finished twin
    assert by_name._colors is None


def test_a_labeling_by_name_is_looked_up_once_per_call(monkeypatch):
    g, f, inst = build_family("fb", n=3)
    by_name = EdgeLabeling.from_dict(f.labels)
    calls = []
    real = Graph._named_edges
    monkeypatch.setattr(Graph, "_named_edges", lambda self: calls.append(1) or real(self))
    uses = {
        "certify": certify,
        "induce_coloring": induce_coloring,
        "graph_to_doc": io.graph_to_doc,
        "graph_to_dot": io.graph_to_dot,
        "labeling_to_doc": io.labeling_to_doc,
        "seeded solve": lambda g, f: solve_chi_la(g, SearchConfig(max_edges=15), f),
    }
    for name, use in uses.items():
        for labeling, lookups in ((by_name, 1), (f, 0)):
            calls.clear()
            use(g, labeling)
            assert len(calls) == lookups, (name, labeling is f)


def test_a_labeling_is_a_value():
    g, f, _ = build_family("fb", n=3)
    e = g.sorted_edges()[0]
    with pytest.raises(TypeError):
        f.labels[e] = 999
    assert f == build_family("fb", n=3)[1] and certify(g, f).is_bijective
    # a labeling by name keeps a copy of the mapping it is given
    m = dict(f.labels)
    h, k = EdgeLabeling(m), EdgeLabeling.from_dict(m)
    m[e] = 5
    assert h.labels[e] == k.labels[e] == f.labels[e] != 5
    with pytest.raises(TypeError):
        h.labels[e] = 5
    assert h == k == f and repr(h) == repr(f) == f"EdgeLabeling(labels={dict(f.labels)!r})"


def test_certificate_palette_mismatch_flagged_separately():
    g, f, _ = build_family("fb", n=3)
    cert = certify(g, f, expected_palette=[1, 2, 3])
    assert cert.palette_ok is False
    assert cert.is_bijective and cert.is_local_antimagic
    # violations stay empty iff both flags hold
    assert cert.violations == ()


def _broken(family, params, changes=(), swaps=()):
    """A built instance with some labels overwritten and some swapped, both
    addressed by position in canonical edge order."""
    g, f, inst = build_family(family, **params)
    es = g.sorted_edges()
    labels = dict(f.labels)
    for i, lab in changes:
        labels[es[i]] = lab
    for i, j in swaps:
        labels[es[i]], labels[es[j]] = labels[es[j]], labels[es[i]]
    return g, EdgeLabeling(labels), inst.expected_palette


def _isolated_vertex_case():
    a, b, c, d = V("a"), V("b"), V("c"), V("d")
    g = Graph([a, b, c, d], [edge(a, b), edge(b, c)])
    return g, EdgeLabeling({edge(a, b): 2, edge(b, c): 2}), None


# sha256 of io.dumps(certificate_to_doc(...)) for broken labelings: frozen
# goldens of the violation lists, their order included
BROKEN_CERTIFICATES = {
    "out_of_range": (
        lambda: _broken("fb", {"n": 3}, changes=[(0, 0), (7, 16), (12, -3)]),
        "819c92e950947bbb5b027260e6869810f522a1fd59eeab427c1695c1fdbb88c1",
    ),
    "duplicate": (
        lambda: _broken("fb", {"n": 3}, changes=[(2, 5), (9, 5), (4, 11), (14, 1)]),
        "6fc7bec7795b0107acbf7a1b770ee771253640b94bc93d089904dad4281033d2",
    ),
    "adjacent_equal": (
        lambda: _broken("fb", {"n": 3}, swaps=[(11, 12)]),
        "4a32af687b4d85a836ec95c07c4642ef38383b32ed3a196bb7ba59c9f5f51244",
    ),
    "mixed": (
        lambda: _broken("fb", {"n": 3}, changes=[(0, 2), (2, 8), (8, 16), (10, -1), (14, 8)]),
        "eaf00ac4a2f8d2b16afdf76f20fa95d84bb54c8d25b782e0a54dc3fdc4319115",
    ),
    "mixed_tb10": (
        lambda: _broken("tb", {"n": 10}, changes=[(i, (7 * i) % 40) for i in range(0, 55, 3)]),
        "f36ad12a4c0afea82285cf9b25d62bdf934c6c39ee0b06f4ad4716839e572a2c",
    ),
    "mixed_gn10": (
        lambda: _broken(
            "gn", {"n": 10, "indices": (1,)},
            changes=[(i, (7 * i) % 64 - 3) for i in range(1, 55, 3)],
        ),
        "d213dbe1ddc396e56a2efc0d1f7bebc7e9619587ef64d89db3297d4157111337",
    ),
    "isolated": (
        _isolated_vertex_case,
        "26f3f81c564a58793fedb7c792c058f896243beb363a02f7c47dd5321724a652",
    ),
}


@pytest.mark.parametrize("case", sorted(BROKEN_CERTIFICATES))
def test_broken_labeling_certificates_match_their_goldens(case):
    make, digest = BROKEN_CERTIFICATES[case]
    g, f, expected = make()
    text = io.dumps(io.certificate_to_doc(certify(g, f, expected)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("labels, violations", [
    ((1.5, 2), [{"kind": "label_out_of_range", "edge": ["a", "b"], "label": 1.5}]),
    ((True, 2), [{"kind": "label_out_of_range", "edge": ["a", "b"], "label": True}]),
    ((2, 1.0), [{"kind": "label_out_of_range", "edge": ["b", "c"], "label": 1.0}]),
    # one equal to an int label is counted with it, and still named
    ((1, 1.0), [
        {"kind": "label_out_of_range", "edge": ["b", "c"], "label": 1.0},
        {"kind": "duplicate_label", "label": 1, "edges": [["a", "b"], ["b", "c"]]},
    ]),
], ids=["float", "bool", "integral-float", "float-equal-to-an-int"])
def test_a_label_that_is_not_an_int_is_out_of_range(labels, violations):
    # the path a-b-c labelled (1.5, 2) used to certify as a bijection
    a, b, c = V("a"), V("b"), V("c")
    g = Graph([a, b, c], [edge(a, b), edge(b, c)])
    f = EdgeLabeling(dict(zip([edge(a, b), edge(b, c)], labels)))
    cert = certify(g, f)
    assert not cert.is_bijective
    assert list(cert.violations) == violations
    assert induce_coloring(g, f) == {a: labels[0], b: labels[0] + labels[1], c: labels[1]}
    # nor does the solver take it as its seed
    with pytest.raises(UsageError, match="initial witness is not a local antimagic labeling"):
        solve_chi_la(g, initial_witness=f)


@pytest.mark.parametrize("label", ["3", None, [3], 3 + 0j], ids=["str", "none", "list", "complex"])
def test_a_label_that_is_not_a_number_is_refused_at_every_entry_point(label):
    # no color can be summed from a label that is neither an int nor a
    # float; each entry point once raised a raw TypeError on one
    a, b, c = V("a"), V("b"), V("c")
    g = Graph([a, b, c], [edge(a, b), edge(b, c)])
    labels = {edge(a, b): label, edge(b, c): 2}
    message = f"edge {edge(a, b)!r} has label {label!r}, which is not an int or a float"
    for call in (
        EdgeLabeling,
        lambda labels: certify(g, EdgeLabeling(labels)),
        lambda labels: induce_coloring(g, EdgeLabeling(labels)),
        lambda labels: solve_chi_la(g, initial_witness=EdgeLabeling(labels)),
    ):
        with pytest.raises(UsageError) as info:
            call(labels)
        assert str(info.value) == message


def test_mixed_violations_keep_their_order():
    # out of range by edge, then duplicates by label, then equal colors by edge
    g, f, expected = BROKEN_CERTIFICATES["mixed"][0]()
    assert list(certify(g, f, expected).violations) == [
        {"kind": "label_out_of_range", "edge": ["v_2", "w_2"], "label": 16},
        {"kind": "label_out_of_range", "edge": ["v_3", "w_3"], "label": -1},
        {"kind": "duplicate_label", "label": 2, "edges": [["u_1", "w_1"], ["u_3", "w_3"]]},
        {
            "kind": "duplicate_label",
            "label": 8,
            "edges": [["u_2", "w_2"], ["w_2", "x"], ["w_3", "x"]],
        },
        {"kind": "adjacent_equal_color", "edge": ["v_1", "w_1"], "color": 16},
        {"kind": "adjacent_equal_color", "edge": ["v_3", "w_3"], "color": 9},
    ]


def _reversed_gn():
    """gn(10, (1,)) handed to ``Graph`` in reverse listing order, so that edge
    position p is the (q-1-p)-th listed, with a labeling that breaks the
    bijection both ways and makes two adjacent colors equal."""
    g, f, _ = build_family("gn", n=10, indices=(1,))
    h = Graph(sorted(g.vertices, reverse=True), g.sorted_edges()[::-1])
    es = h.sorted_edges()
    labels = dict(f.labels)
    for k in range(0, len(es), 4):
        labels[es[k]] = (7 * k) % 40
    return h, EdgeLabeling(labels)


def _merged_reversed_gn():
    """The reversed gn with u_1 and u_9 merged into a_1, which lists first:
    the merge takes both out, renumbers the rest and re-ranks their edges."""
    h, f = _reversed_gn()
    g, moved = merge_vertices(h, [[V("u", 1), V("u", 9)]], [V("a", 1)])
    assert len(g.names) == g.order
    return g, f.remapped(moved)


def _listed_violations(g, f):
    """The violations read straight off the listing's ranked columns: each
    listed edge named by ``names``, in listing order (the duplicates grouped
    by label)."""
    roles, indices, names, lo, hi = _ranked(g)
    vs = list(zip(roles, indices))
    pairs = list(zip(lo, hi))
    ends = [[names[i], names[j]] for i, j in pairs]
    labels = [f.labels[vs[i], vs[j]] for i, j in pairs]
    colors = induce_coloring(g, f)
    q = len(pairs)
    by_label = {}
    for e, lab in zip(ends, labels):
        by_label.setdefault(lab, []).append(e)
    return [
        {"kind": "label_out_of_range", "edge": e, "label": lab}
        for e, lab in zip(ends, labels) if type(lab) is not int or not 1 <= lab <= q
    ] + [
        {"kind": "duplicate_label", "label": lab, "edges": es}
        for lab, es in sorted(by_label.items()) if len(es) > 1
    ] + [
        {"kind": "adjacent_equal_color", "edge": e, "color": colors[vs[i]]}
        for e, (i, j) in zip(ends, pairs) if colors[vs[i]] == colors[vs[j]]
    ]


@pytest.mark.parametrize("make", [_reversed_gn, _merged_reversed_gn], ids=["reversed", "merged"])
def test_violations_are_named_and_ordered_by_the_listing(make):
    g, f = make()
    positions = g._listed()[2]
    assert positions != sorted(positions)
    cert = certify(g, f)
    kinds = Counter(v["kind"] for v in cert.violations)
    assert kinds.keys() == {"label_out_of_range", "duplicate_label", "adjacent_equal_color"}
    assert min(kinds.values()) >= 2
    assert list(cert.violations) == _listed_violations(g, f)


def test_a_passing_certificate_counts_only_its_census(monkeypatch):
    g, f, inst = build_family("gn", n=10, indices=(1,))
    es = g.sorted_edges()
    labels = dict(f.labels)
    # finished before the patch, as a build's labeling is
    outside = graph._finished(g, EdgeLabeling({**labels, es[0]: 0}))
    repeated = graph._finished(g, EdgeLabeling({**labels, es[0]: labels[es[1]]}))
    made = []

    class Counting(Counter):
        def __init__(self, *args):
            made.append(1)
            super().__init__(*args)

    monkeypatch.setattr(graph, "Counter", Counting)
    monkeypatch.setattr(Graph, "_named_edges", lambda self: pytest.fail("an edge was named"))
    # the labels are counted only when one repeats
    for labeling, ok, counters in ((f, True, 1), (outside, False, 1), (repeated, False, 2)):
        made.clear()
        assert certify(g, labeling, inst.expected_palette).ok() is ok
        assert len(made) == counters


def test_certify_is_pure():
    g, f, _ = build_family("fb", n=5)
    assert certify(g, f) == certify(g, f)


# --- labelings by name against the graph's edge positions -------------------------


ALIGNED_CASES = [("fb", {"n": 9}), ("tb", {"n": 8}), ("gn", {"n": 10, "indices": (1,)})]


def _artifacts(g, f, inst):
    """The certificate, graph, DOT and labeling texts of one instance."""
    cert = certify(g, f, inst.expected_palette)
    return (
        io.dumps(io.certificate_to_doc(cert)),
        io.dumps(io.graph_to_doc(g, f, inst, cert)),
        io.graph_to_dot(g, f),
        io.dumps(io.labeling_to_doc(g, f)),
    )


@pytest.mark.parametrize("family, params", ALIGNED_CASES)
def test_a_labeling_rebuilt_by_name_certifies_as_the_finished_one(family, params):
    # as a harness that swaps two labels rebuilds it: by name, dict order shuffled
    g, f, inst = build_family(family, **params)
    items = list(f.labels.items())
    random.Random(family).shuffle(items)
    by_name = type(f).from_dict(dict(items))
    assert list(by_name.labels) != list(f.labels)
    assert _artifacts(g, by_name, inst) == _artifacts(g, f, inst)
    # a finished labeling read on an equal graph is looked up by name as well
    same = Graph(g.vertices, g.edges)
    assert _artifacts(same, f, inst) == _artifacts(g, f, inst)


def test_a_labeling_of_other_edges_is_a_label_domain_mismatch():
    g, f, _ = build_family("fb", n=3)
    first = g.sorted_edges()[0]
    labels = dict(f.labels)
    lacking = {e: lab for e, lab in labels.items() if e != first}
    extra = {**labels, edge(V("p"), V("q")): 16}
    moved = {**lacking, edge(V("p"), V("q")): labels[first]}
    for bad, counts in ((lacking, "14 labels vs 15 edges"), (extra, "16 labels vs 15 edges"),
                        (moved, "15 labels vs 15 edges")):
        message = f"^labeling domain does not match the edge set \\({counts}\\)$"
        for use in (certify, induce_coloring, io.graph_to_dot, io.labeling_to_doc):
            with pytest.raises(LabelDomainMismatch, match=message):
                use(g, EdgeLabeling(bad))
    # a finished labeling of another build, which keeps its own graph's coloring
    other, finished, _ = build_family("fb", n=5)
    induce_coloring(other, finished)
    message = "^labeling domain does not match the edge set \\(25 labels vs 15 edges\\)$"
    for use in (certify, induce_coloring, io.graph_to_dot, io.graph_to_doc, io.labeling_to_doc):
        with pytest.raises(LabelDomainMismatch, match=message):
            use(g, finished)


# --- census --------------------------------------------------------------------


def _census(g, f):
    return {d: count for d, (count, _) in certify(g, f).degree_census.items()}


def test_degree_census_examples():
    g, f, _ = build_family("fb", n=7)
    assert _census(g, f) == {2: 14, 3: 7, 21: 1}
    g, f, _ = build_family("df", r=2, s=3)  # r=2, s=3: degrees 2, 3 and 3s=9
    assert _census(g, f) == {2: 30, 3: 15, 9: 5}
    g, f, _ = build_family("tb", n=6)
    assert _census(g, f) == {3: 14, 4: 7}


def test_triangle_census_of_bracelet():
    for n in (2, 6, 10):
        g, _, _ = build_family("tb", n=n)
        # each triangle is counted once at each of its three edges
        near = neighbors(g)
        triangles = sum(len(near[a] & near[b]) for a, b in g.edges) // 3
        assert triangles == 2 * n + 2
        assert len(g.edges) == 5 * n + 5


# --- property tests -------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(1, 16))))
def test_fan3_any_bijection_certifies_bijective(perm):
    g, f, _ = build_family("fb", n=3)
    relabeled = EdgeLabeling.from_dict(
        {e: perm[lab - 1] for e, lab in f.labels.items()}
    )
    cert = certify(g, relabeled)
    assert cert.is_bijective
    # violations nonempty exactly when a flag dropped
    assert bool(cert.violations) == (not cert.is_local_antimagic)


# --- surgery against the full-rewrite reference -----------------------------------


def reference_merge(g, blocks, new_ids):
    """Merge by rewriting and re-checking every edge, then rebuilding the graph
    through the public constructor: the algorithm ``merge_vertices`` had before
    it touched only the edges at a block vertex.  The edges are checked in
    sorted order, which is the order of their positions in a graph made from
    sorted edges, as ``small_graphs`` makes them."""
    blocks = [frozenset(b) for b in blocks]
    new_ids = list(new_ids)
    if len(blocks) != len(new_ids):
        raise OverlappingBlocks(f"{len(blocks)} blocks but {len(new_ids)} replacement ids")
    if len(set(new_ids)) != len(new_ids):
        raise IdCollision("replacement ids are not distinct")
    vmap = {}
    for block, nid in zip(blocks, new_ids):
        if not block:
            raise OverlappingBlocks("empty block")
        for v in sorted(block):
            if v not in g.vertices:
                raise UnknownVertex(f"{v} not in graph")
            if v in vmap:
                raise OverlappingBlocks(f"{v} appears in two blocks")
            vmap[v] = nid
    survivors = g.vertices - set(vmap)
    for nid in new_ids:
        if nid in survivors:
            raise IdCollision(f"replacement id {nid} collides with an existing vertex")
    edge_map, new_edges = {}, {}
    for e in sorted(g.edges):
        a, b = vmap.get(e[0], e[0]), vmap.get(e[1], e[1])
        if a == b:
            raise MergeWouldCreateLoop(f"block members {e[0]} and {e[1]} are adjacent")
        ne = edge(a, b)
        if ne in new_edges:
            raise MergeWouldCreateParallelEdge(
                "edges %s-%s and %s-%s both become %s-%s "
                "(two merged vertices share a neighbor)" % (*new_edges[ne], *e, *ne)
            )
        new_edges[ne] = e
        edge_map[e] = ne
    return Graph(survivors | set(new_ids), new_edges), edge_map


def reference_split(g, splits):
    """Split by rewriting every edge and rebuilding the graph through the
    public constructor, as ``split_vertices`` did before it touched only the
    edges at a split vertex."""
    half = {}
    new_vertices = set(g.vertices)
    fresh = []  # in the order the splits give them, which a collision names
    for v, part1, part2, id1, id2 in splits:
        if v not in g.vertices:
            raise UnknownVertex(f"{v} not in graph")
        if v in half:
            raise OverlappingBlocks(f"{v} split twice")
        p1 = {edge(*e) for e in part1}
        p2 = {edge(*e) for e in part2}
        incident = {e for e in g.edges if v in e}
        if not p1 or not p2:
            raise EmptyPart(f"both parts of the split at {v} must be nonempty")
        for e in p1 | p2:
            if e not in incident:
                raise NotIncident("%s-%s is not incident to %s" % (*e, v))
        if p1 & p2 or p1 | p2 != incident:
            raise NotIncident(f"parts at {v} must partition its incident edges")
        if id1 == id2:
            raise IdCollision(f"split ids at {v} coincide")
        half[v] = {**dict.fromkeys(p1, id1), **dict.fromkeys(p2, id2)}
        new_vertices.discard(v)
        fresh += (id1, id2)
    for nid in fresh:
        if nid in new_vertices:
            raise IdCollision(f"split id {nid} collides with an existing vertex")
    edge_map, new_edges = {}, []
    for e in g.edges:
        a = half[e[0]][e] if e[0] in half else e[0]
        b = half[e[1]][e] if e[1] in half else e[1]
        ne = edge(a, b)
        if ne != e:
            edge_map[e] = ne
        new_edges.append(ne)
    return Graph(new_vertices.union(fresh), new_edges), edge_map


def _outcome(surgery, *args):
    """The graph and the map of moved edges, or the exception's type and text."""
    try:
        g, emap = surgery(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return g, emap


def _kernel(g, surgery, *args):
    """The finished arrays ``(names, a, b)`` of ``g`` after the index-space
    ``surgery`` of :class:`hub_reference.SurgeryDraft` (``"merge"`` or
    ``"split"``) with ``args``, and the names of the vertices it returns."""
    d = hub_reference.SurgeryDraft(g.names, list(g.a), list(g.b), [0] * g.size)
    made = getattr(d, surgery)(*args)
    new = [d.names[h] for h in made]
    out, _ = d.finish()
    return (out.names, out.a, out.b), new


def _merge_kernel(g, blocks, new_ids):
    at = dict(zip(g.names, range(g.order)))
    return _kernel(g, "merge", [[at[v] for v in b] for b in blocks], new_ids)


def _split_kernel(g, splits):
    """:func:`_kernel` of the splits, each part given as the positions of its
    edges, an edge named twice once."""
    at = dict(zip(g.names, range(g.order)))
    position = dict(zip(g._named_edges(), range(g.size)))

    def positions(part):
        return list(dict.fromkeys(position[edge(x, y)] for x, y in part))

    return _kernel(g, "split", [
        (at[v], positions(part1), positions(part2), id1, id2)
        for v, part1, part2, id1, id2 in splits
    ])


def _arrays(g):
    return g.names, g.a, g.b


def _assert_labels_transfer(g, edge_map, reference_map):
    """``remapped`` through the surgery's map of moved edges relabels as the
    full rewrite of every label through the reference's map does."""
    f = EdgeLabeling.from_dict({e: lab for lab, e in enumerate(sorted(g.edges), start=1)})
    want = {reference_map.get(e, e): lab for e, lab in f.labels.items()}
    assert f.remapped(edge_map).labels == want


# vertex names: a graph holds a prefix of a_0..a_5, m_0..m_5 are fresh (m_5
# also serves as a vertex the graph lacks)
NAMES = [V("a", i) for i in range(6)] + [V("m", i) for i in range(6)]
UNKNOWN = V("m", 5)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    vs = NAMES[:n]
    pairs = [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)]
    return Graph(vs, [pair for pair in pairs if draw(st.booleans())])


def _ids(data, count):
    """Distinct ids, mostly fresh, sometimes existing vertex names."""
    pool = data.draw(st.permutations(NAMES[6:]) | st.permutations(NAMES))
    return list(pool[:count])


@settings(max_examples=400, deadline=None)
@given(small_graphs(), st.data())
def test_merge_matches_the_full_rewrite_reference(g, data):
    # UNKNOWN joins a block only when the blocks outgrow the graph
    order = data.draw(st.permutations(sorted(g.vertices))) + [UNKNOWN]
    sizes = data.draw(st.lists(st.sampled_from([1, 1, 2, 2, 3, 3, 0]), max_size=3))
    blocks, at = [], 0
    for size in sizes:
        blocks.append(set(order[at:at + size]))
        at += size
    if blocks and data.draw(st.integers(min_value=0, max_value=9)) == 0:
        blocks[-1].add(order[0])  # maybe in two blocks
    new_ids = _ids(data, len(blocks) + data.draw(st.sampled_from([0, 0, 0, 0, 1])))
    if len(new_ids) > 1 and data.draw(st.integers(min_value=0, max_value=9)) == 0:
        new_ids[1] = new_ids[0]
    got = _outcome(merge_vertices, g, blocks, new_ids)
    want = _outcome(reference_merge, g, blocks, new_ids)
    if isinstance(want[0], Graph):
        _assert_labels_transfer(g, got[1], want[1])
        # the live names in order, then the new ids; each edge at its position
        assert _merge_kernel(g, blocks, new_ids) == (_arrays(got[0]), new_ids)
        # an edge the map leaves out keeps its identity, as one mapped onto itself
        want = (want[0], {e: ne for e, ne in want[1].items() if ne != e})
        assert got[0].edges == Graph(got[0].vertices, got[0].edges).edges  # canonical
    assert got == want


@settings(max_examples=400, deadline=None)
@given(small_graphs(), st.data())
def test_split_matches_the_full_rewrite_reference(g, data):
    vs = data.draw(st.lists(st.sampled_from(sorted(g.vertices) + [UNKNOWN]), max_size=3))
    # half ids are never shared between splits, which the reference would let
    # through; a pair may coincide within one split
    ids = _ids(data, 2 * len(vs))
    if vs and data.draw(st.integers(min_value=0, max_value=9)) == 0:
        ids[1] = ids[0]
    splits = []
    for i, v in enumerate(vs):
        incident = sorted(e for e in g.edges if v in e)
        order = data.draw(st.permutations(incident))
        inner = st.integers(min_value=1, max_value=max(1, len(order) - 1))
        cut = data.draw(inner | st.integers(min_value=0, max_value=len(order)))
        part1, part2 = list(order[:cut]), list(order[cut:])
        tweak = data.draw(st.integers(min_value=0, max_value=9))
        if tweak == 0 and g.edges:
            part2.append(data.draw(st.sampled_from(sorted(g.edges))))  # maybe foreign
        elif tweak == 1 and part2:
            part2.pop()  # maybe leaves an incident edge out
        part1 = [(b, a) if data.draw(st.booleans()) else (a, b) for a, b in part1]
        splits.append((v, part1, part2, ids[2 * i], ids[2 * i + 1]))
    got = _outcome(split_vertices, g, splits)
    want = _outcome(reference_split, g, splits)
    if isinstance(want[0], Graph):
        _assert_labels_transfer(g, got[1], want[1])
        halves = [nid for *_, id1, id2 in splits for nid in (id1, id2)]
        assert _split_kernel(g, splits) == (_arrays(got[0]), halves)
        assert got[0].edges == Graph(got[0].vertices, got[0].edges).edges  # canonical
    assert got == want


# the faults the two tests above draw, each named here so that no Hypothesis
# release decides whether a run meets it
A0, A1, A2, A3 = NAMES[:4]
M0, M1, M2 = NAMES[6:9]


def _path4():
    return Graph([A0, A1, A2, A3], [(A0, A1), (A1, A2), (A2, A3)])


@pytest.mark.parametrize("blocks, new_ids, fault", [
    ([{A0}, {A2}], [M0], (OverlappingBlocks, "2 blocks but 1 replacement ids")),
    ([{A0}, {A2}], [M0, M0], (IdCollision, "replacement ids are not distinct")),
    ([set()], [M0], (OverlappingBlocks, "empty block")),
    ([{A0, UNKNOWN}], [M0], (UnknownVertex, "m_5 not in graph")),
    ([{A0}], [A2], (IdCollision, "replacement id a_2 collides with an existing vertex")),
], ids=["too_few_ids", "repeated_id", "empty_block", "unknown_vertex", "colliding_id"])
def test_each_merge_fault_is_raised_as_the_reference_raises_it(blocks, new_ids, fault):
    g = _path4()
    assert _outcome(merge_vertices, g, blocks, new_ids) == fault
    assert _outcome(reference_merge, g, blocks, new_ids) == fault


@pytest.mark.parametrize("splits, fault", [
    ([(UNKNOWN, [], [], M0, M1)], (UnknownVertex, "m_5 not in graph")),
    ([(A1, [(A0, A1)], [(A1, A2)], M0, M1), (A1, [(A0, A1)], [(A1, A2)], M2, A3)],
     (OverlappingBlocks, "a_1 split twice")),
    ([(A1, [(A0, A1)], [(A1, A2)], M0, A3)],
     (IdCollision, "split id a_3 collides with an existing vertex")),
], ids=["unknown_vertex", "split_twice", "colliding_id"])
def test_each_split_fault_is_raised_as_the_reference_raises_it(splits, fault):
    g = _path4()
    assert _outcome(split_vertices, g, splits) == fault
    assert _outcome(reference_split, g, splits) == fault


@pytest.mark.parametrize("later_first", [False, True])
def test_a_half_may_take_the_name_of_a_vertex_split_in_the_same_call(later_first):
    a = [V("a", i) for i in range(4)]
    g = Graph(a, [edge(a[i], a[(i + 1) % 4]) for i in range(4)])
    splits = [
        (a[0], [(a[0], a[1])], [(a[0], a[3])], a[1], V("m", 0)),
        (a[1], [(a[1], a[0])], [(a[1], a[2])], V("m", 1), V("m", 2)),
    ]
    if later_first:
        splits.reverse()
    got = split_vertices(g, splits)
    assert got == reference_split(g, splits)
    assert got[0].vertices == {a[1], a[2], a[3], V("m", 0), V("m", 1), V("m", 2)}
    halves = [nid for *_, id1, id2 in splits for nid in (id1, id2)]
    assert _split_kernel(g, splits) == (_arrays(got[0]), halves)


SRC = Path(__file__).resolve().parent.parent / "src"

COLLIDING_SPLIT = """
from antimagic.graph import Graph, V, edge, split_vertices
a = [V("a", i) for i in range(8)]
g = Graph(a, [edge(a[i], a[i + 1]) for i in range(7)])
try:
    split_vertices(g, [(a[1], [(a[0], a[1])], [(a[1], a[2])], a[5], a[6])])
except Exception as exc:
    print(type(exc).__name__, exc)
"""


UNKNOWN_BLOCK = """
from antimagic.graph import Graph, V, edge, merge_vertices
a = [V("a", i) for i in range(3)]
g = Graph(a, [edge(a[0], a[1]), edge(a[1], a[2])])
try:
    merge_vertices(g, [{V("q", 1), V("q", 2), V("q", 3)}], [V("m")])
except Exception as exc:
    print(type(exc).__name__, exc)
"""


def test_a_merge_names_the_least_member_of_a_block_that_fails():
    # a block is a set, walked in sorted order, so the error names q_1
    # under every hash seed
    want = "UnknownVertex q_1 not in graph"
    for seed in range(6):
        out = subprocess.run(
            [sys.executable, "-c", UNKNOWN_BLOCK], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": str(seed)},
        ).stdout.strip()
        assert out == want, seed


def test_a_split_names_the_first_colliding_id_in_the_order_given():
    # both halves take the name of a vertex that stays; the error names the
    # first of them under every hash seed
    want = "IdCollision split id a_5 collides with an existing vertex"
    for seed in range(6):
        out = subprocess.run(
            [sys.executable, "-c", COLLIDING_SPLIT], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": str(seed)},
        ).stdout.strip()
        assert out == want, seed
    a = [V("a", i) for i in range(8)]
    g = Graph(a, [edge(a[i], a[i + 1]) for i in range(7)])
    splits = [(a[1], [(a[0], a[1])], [(a[1], a[2])], a[5], a[6])]
    assert _outcome(reference_split, g, splits) == (IdCollision, want.split(" ", 1)[1])


def _chord():
    """The path a_0 a_1 a_2 a_3 with the chord a_1a_3: a_1 has three edges,
    a_2 two."""
    a = [V("a", i) for i in range(4)]
    return Graph(a, [edge(a[0], a[1]), edge(a[1], a[2]), edge(a[1], a[3]), edge(a[2], a[3])])


@pytest.mark.parametrize("v, part1, part2, message", [
    # a_0-a_1 is an edge of the graph, but not at a_2
    (2, [(1, 2)], [(0, 1)], "^a_0-a_1 is not incident to a_2$"),
    # a_0-a_2 is no edge of the graph
    (2, [(1, 2)], [(0, 2)], "^a_0-a_2 is not incident to a_2$"),
    # a_2-a_3 in both parts
    (2, [(1, 2), (2, 3)], [(2, 3)], "^parts at a_2 must partition its incident edges$"),
    # the same edge in both parts, named in both orders
    (2, [(1, 2), (2, 3)], [(3, 2)], "^parts at a_2 must partition its incident edges$"),
    (2, [(1, 2)], [(2, 1)], "^parts at a_2 must partition its incident edges$"),
    # a_1-a_3 is left out
    (1, [(0, 1)], [(1, 2)], "^parts at a_1 must partition its incident edges$"),
])
def test_parts_that_do_not_partition_the_vertex_edges_are_not_incident(v, part1, part2, message):
    g = _chord()
    a = sorted(g.vertices)

    def named(part):
        return [(a[x], a[y]) for x, y in part]

    with pytest.raises(NotIncident, match=message):
        split_vertex(g, a[v], named(part1), named(part2), V("h", 1), V("h", 2))
    # a failed split leaves the graph as it was
    assert _arrays(g) == _arrays(_chord())


def test_an_edge_named_twice_in_a_part_counts_once():
    g = _chord()
    a = sorted(g.vertices)
    once = split_vertex(g, a[2], [(a[1], a[2])], [(a[2], a[3])], V("h", 1), V("h", 2))
    twice = split_vertex(g, a[2], [(a[1], a[2]), (a[2], a[1]), (a[1], a[2])], [(a[3], a[2])],
                         V("h", 1), V("h", 2))
    assert twice == once
    assert _arrays(twice[0]) == _arrays(once[0])


@pytest.mark.parametrize("v, part1, part2, id2, first_fault", [
    (V("m"), [(1, 2)], [(2, 3)], V("h", 2), UnknownVertex),
    (V("a", 2), [], [(2, 3)], V("h", 2), EmptyPart),
    (V("a", 2), [(1, 2)], [(2, 3)], V("h", 1), IdCollision),
], ids=["unknown_vertex", "empty_part", "coinciding_ids"])
def test_every_part_is_found_among_the_edges_before_any_split_is_checked(v, part1, part2, id2,
                                                                         first_fault):
    # the first split is at fault; the second names a_0-a_2, which the graph
    # lacks, and that is raised first.  This pins the order of the checks as
    # it stands, an unknown vertex included; a change of that order changes
    # this test with it
    g = _chord()
    a = sorted(g.vertices)
    splits = [
        (v, [(a[x], a[y]) for x, y in part1], [(a[x], a[y]) for x, y in part2], V("h", 1), id2),
        (a[1], [(a[0], a[1]), (a[0], a[2])], [(a[1], a[2]), (a[1], a[3])], V("h", 3), V("h", 4)),
    ]
    with pytest.raises(NotIncident, match="^a_0-a_2 is not incident to a_1$"):
        split_vertices(g, splits)
    # a check of the splits one by one would meet the first split's fault
    assert _outcome(reference_split, g, splits)[0] is first_fault

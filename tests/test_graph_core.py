"""Graph surgery, coloring and certification engine tests."""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic.errors import (
    EmptyPart,
    MergeWouldCreateLoop,
    MergeWouldCreateParallelEdge,
    NotIncident,
    OverlappingBlocks,
)
from antimagic.families import _fan_cells, build_df, build_family, build_fb, build_tb
from antimagic.graph import (
    EdgeLabeling,
    Graph,
    V,
    VertexId,
    certify,
    degree_census,
    edge,
    induce_coloring,
    merge_vertices,
    split_vertex,
    split_vertices,
)


def path3():
    a, b, c = V("a"), V("b"), V("c")
    g = Graph([a, b, c], [edge(a, b), edge(b, c)])
    f = EdgeLabeling.from_dict({edge(a, b): 1, edge(b, c): 2})
    return g, f, (a, b, c)


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


def _views(g):
    return (
        {v: (g.neighbors(v), g.degree(v)) for v in g.vertices},
        g.connected_components(),
    )


def test_derived_structures_agree_across_a_surgery_round():
    g, _, _ = build_family("gn", n=10, indices=(1,))  # two components
    before = _views(g)
    assert len(before[1]) == 2
    hub = next(v for v in g.sorted_vertices() if g.degree(v) >= 3)
    incident = sorted(g.incident_edges(hub))
    h1, h2 = V("h", 1), V("h", 2)
    split, _ = split_vertices(g, [(hub, incident[:1], incident[1:], h1, h2)])
    assert split.degree(h1) == 1 and split.degree(h2) == len(incident) - 1
    back, _ = merge_vertices(split, [{h1, h2}], [hub])
    assert back == g
    assert _views(g) == before
    assert _views(back) == before


def test_connected_components_hands_back_a_copy():
    g, _, _ = build_family("gn", n=10, indices=(1,))
    first = g.connected_components()
    first.append(frozenset({V("stray")}))
    first[0] = frozenset()
    second = g.connected_components()
    assert len(second) == 2 and all(second)
    assert not g.is_connected()


def test_threads_sharing_a_graph_fill_its_caches_consistently():
    built, _, _ = build_family("gn", n=10, indices=(1,))
    expected = _views(Graph(built.vertices, built.edges))
    g = Graph(built.vertices, built.edges)  # nothing derived yet
    results = []
    threads = [threading.Thread(target=lambda: results.append(_views(g))) for _ in range(8)]
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


# --- merge --------------------------------------------------------------------


def test_merge_nine_cells_into_one_fan():
    g, f = _fan_cells(4)  # 9 cells, 45 edges
    assert len(g.edges) == 45
    merged, emap = merge_vertices(g, [{V("x", i) for i in range(1, 10)}], [V("x")])
    f2 = f.remapped(emap)
    assert len(merged.edges) == 45
    assert merged.degree(V("x")) == 27
    assert sorted(f2.labels.values()) == list(range(1, 46))


def test_merge_empty_block_list_is_identity():
    g, f = _fan_cells(1)
    merged, emap = merge_vertices(g, [], [])
    assert merged == g
    assert f.remapped(emap) == f


def test_merge_into_three_fans():
    g, _ = _fan_cells(4)
    blocks = [
        {V("x", 1), V("x", 5), V("x", 9)},
        {V("x", 3), V("x", 4), V("x", 8)},
        {V("x", 2), V("x", 6), V("x", 7)},
    ]
    merged, _ = merge_vertices(g, blocks, [V("y", a) for a in (1, 2, 3)])
    assert len(merged.connected_components()) == 3


def test_merge_adjacent_pair_is_a_loop():
    g, _, (a, b, c) = path3()
    with pytest.raises(MergeWouldCreateLoop):
        merge_vertices(g, [{a, b}], [V("m")])


def test_merge_common_neighbor_is_a_parallel_edge():
    g, _, (a, b, c) = path3()
    with pytest.raises(MergeWouldCreateParallelEdge):
        merge_vertices(g, [{a, c}], [V("m")])


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
    assert g2.degree(V("b", 1)) == g2.degree(V("b", 2)) == 1
    f2 = f.remapped(emap)
    assert f2.labels[edge(a, V("b", 1))] == 1
    assert f2.labels[edge(V("b", 2), c)] == 2


def test_split_fan_hub_like_diamond_construction():
    g, _ = _fan_cells(1)
    x1 = V("x", 1)
    to_w = [edge(x1, V("w", 1))]
    to_uv = [edge(x1, V("u", 1)), edge(x1, V("v", 1))]
    g2, _ = split_vertex(g, x1, to_w, to_uv, V("x1", 1), V("x2", 1))
    assert g2.degree(V("x1", 1)) == 1
    assert g2.degree(V("x2", 1)) == 2
    assert len(g2.edges) == len(g.edges)


def test_split_rejects_foreign_and_empty_parts():
    g, _, (a, b, c) = path3()
    with pytest.raises(EmptyPart):
        split_vertex(g, b, [], [edge(a, b), edge(b, c)], V("b", 1), V("b", 2))
    with pytest.raises(NotIncident):
        split_vertex(g, a, [edge(a, b)], [edge(b, c)], V("a", 1), V("a", 2))


def test_merge_then_resplit_roundtrip():
    g, f, _ = path3()
    d = V("d")
    g = Graph(list(g.vertices) + [d], list(g.edges) + [edge(V("c"), d)])
    f = EdgeLabeling.from_dict({**f.labels, edge(V("c"), d): 3})
    a, d = V("a"), V("d")
    merged, emap = merge_vertices(g, [{a, d}], [V("m")])
    fm = f.remapped(emap)
    part_a = [edge(V("m"), n) for n in g.neighbors(a)]
    part_d = [edge(V("m"), n) for n in g.neighbors(d)]
    back, emap2 = split_vertex(merged, V("m"), part_a, part_d, a, d)
    assert back == g
    assert fm.remapped(emap2) == f


# --- coloring and certification -------------------------------------------------


def test_induce_coloring_single_edge():
    a, b = V("a"), V("b")
    g = Graph([a, b], [edge(a, b)])
    col = induce_coloring(g, EdgeLabeling.from_dict({edge(a, b): 1}))
    assert col.colors[a] == col.colors[b] == 1
    assert col.count == 1


def test_induce_coloring_fan3():
    g, f, _ = build_fb(3)
    col = induce_coloring(g, f)
    assert col.palette == (15, 16, 99)


def test_certify_path3():
    g, f, (a, b, c) = path3()
    cert = certify(g, f)
    assert cert.is_bijective and cert.is_local_antimagic
    assert cert.palette == (1, 2, 3)
    assert cert.color_count == 3
    assert not cert.has_triangle
    assert cert.violations == ()


def test_certify_fan9_expected_palette():
    g, f, _ = build_fb(9)
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


def test_certificate_palette_mismatch_flagged_separately():
    g, f, _ = build_fb(3)
    cert = certify(g, f, expected_palette=[1, 2, 3])
    assert cert.palette_ok is False
    assert cert.is_bijective and cert.is_local_antimagic
    # violations stay empty iff both flags hold
    assert cert.violations == ()


def test_certify_is_pure():
    g, f, _ = build_fb(5)
    assert certify(g, f) == certify(g, f)


# --- census --------------------------------------------------------------------


def test_degree_census_examples():
    g, _, _ = build_fb(7)
    assert degree_census(g) == {2: 14, 3: 7, 21: 1}
    g, _, _ = build_df(2, 3)  # r=2, s=3: degrees 2, 3 and 3s=9
    assert degree_census(g) == {2: 30, 3: 15, 9: 5}
    g, _, _ = build_tb(6)
    assert degree_census(g) == {3: 14, 4: 7}


def test_triangle_census_of_bracelet():
    for n in (2, 6, 10):
        g, _, _ = build_tb(n)
        assert g.count_triangles() == 2 * n + 2
        assert len(g.edges) == 5 * n + 5


# --- property tests -------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(1, 16))))
def test_fan3_any_bijection_certifies_bijective(perm):
    g, f, _ = build_fb(3)
    relabeled = EdgeLabeling.from_dict(
        {e: perm[lab - 1] for e, lab in f.labels.items()}
    )
    cert = certify(g, relabeled)
    assert cert.is_bijective
    # violations nonempty exactly when a flag dropped
    assert bool(cert.violations) == (not cert.is_local_antimagic)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_split_then_merge_roundtrip(data):
    g, f, _ = build_fb(3)
    candidates = [v for v in g.sorted_vertices() if g.degree(v) >= 2]
    v = data.draw(st.sampled_from(candidates))
    incident = sorted(g.incident_edges(v))
    cut = data.draw(st.integers(min_value=1, max_value=len(incident) - 1))
    shuffled = data.draw(st.permutations(incident))
    part1, part2 = shuffled[:cut], shuffled[cut:]
    h1, h2 = V("h", 1), V("h", 2)
    split, emap = split_vertex(g, v, part1, part2, h1, h2)
    fs = f.remapped(emap)
    back, emap2 = merge_vertices(split, [{h1, h2}], [v])
    assert back == g
    assert fs.remapped(emap2) == f

"""Exact solver tests, gated by a plain permutation-enumeration oracle."""

from itertools import permutations

import pytest

from antimagic.errors import K2Component, UsageError
from antimagic.families import build_family
from antimagic.graph import EdgeLabeling, Graph, V, certify, edge
from antimagic.solver import SearchConfig, solve_chi_la, verify_lower_bound


def brute_chi_la(g):
    """Oracle: minimum color count over all q! labelings, or None if no
    labeling is local antimagic."""
    edges = g.sorted_edges()
    q = len(edges)
    best = None
    for perm in permutations(range(1, q + 1)):
        colors = {v: 0 for v in g.vertices}
        for e, lab in zip(edges, perm):
            colors[e[0]] += lab
            colors[e[1]] += lab
        if any(colors[a] == colors[b] for a, b in edges):
            continue
        count = len(set(colors.values()))
        best = count if best is None else min(best, count)
    return best


def fan_one_blade():
    u, v, w, x = V("u"), V("v"), V("w"), V("x")
    return Graph(
        [u, v, w, x],
        [edge(u, w), edge(v, w), edge(x, u), edge(x, v), edge(x, w)],
    )


def triangle():
    a, b, c = V("a"), V("b"), V("c")
    return Graph([a, b, c], [edge(a, b), edge(b, c), edge(a, c)])


def path(n):
    vs = [V("p", i) for i in range(n)]
    return Graph(vs, [edge(vs[i], vs[i + 1]) for i in range(n - 1)])


def cycle(n):
    vs = [V("c", i) for i in range(n)]
    return Graph(vs, [edge(vs[i], vs[(i + 1) % n]) for i in range(n)])


def star(n):
    hub = V("h")
    leaves = [V("l", i) for i in range(1, n + 1)]
    return Graph([hub] + leaves, [edge(hub, leaf) for leaf in leaves])


def test_fan_one_blade_is_three():
    res = solve_chi_la(fan_one_blade())
    assert res.status == "exact"
    assert res.chi_la == 3 == brute_chi_la(fan_one_blade())
    assert res.elapsed < 1.0


def test_triangle_and_path():
    assert solve_chi_la(triangle()).chi_la == 3 == brute_chi_la(triangle())
    assert solve_chi_la(path(3)).chi_la == 3 == brute_chi_la(path(3))


@pytest.mark.parametrize(
    "g", [path(4), path(5), cycle(4), cycle(5), cycle(6), star(3), star(4)],
    ids=["P4", "P5", "C4", "C5", "C6", "K13", "K14"],
)
def test_small_graphs_match_enumeration_oracle(g):
    res = solve_chi_la(g)
    assert res.status == "exact"
    assert res.chi_la == brute_chi_la(g)


@pytest.mark.parametrize(
    "g, known",
    [(path(n), 3) for n in range(3, 11)]
    + [(cycle(n), 3) for n in range(3, 11)]
    + [(star(n), n + 1) for n in range(2, 9)],
    ids=[f"P{n}" for n in range(3, 11)]
    + [f"C{n}" for n in range(3, 11)]
    + [f"K1,{n}" for n in range(2, 9)],
)
def test_known_values(g, known):
    # chi_la = 3 for paths and cycles and n+1 for K1,n (Arumugam et al.,
    # Graphs Combin. 2017)
    res = solve_chi_la(g)
    assert res.status == "exact"
    assert res.chi_la == known


@pytest.mark.parametrize("n", [9, 10])
def test_cycle_proof_node_bound(n):
    res = solve_chi_la(cycle(n))
    assert res.status == "exact" and res.chi_la == 3
    assert res.nodes <= 10_000


@pytest.mark.parametrize("shape", [cycle, path])
def test_search_does_not_depend_on_vertex_names(shape):
    """Renaming the vertices leaves the search tree unchanged, so the solver's
    cost is a property of the graph."""
    g = shape(10)
    nodes = {solve_chi_la(g).nodes}
    for shift in (3, 7):
        rename = {v: V("r", (v.indices[0] * shift) % 10) for v in g.vertices}
        renamed = Graph(list(rename.values()), [edge(rename[a], rename[b]) for a, b in g.edges])
        nodes.add(solve_chi_la(renamed).nodes)
    assert len(nodes) == 1


def test_result_at_least_lower_bound():
    for g in (fan_one_blade(), triangle(), path(4), cycle(6), star(3)):
        res = solve_chi_la(g)
        assert res.chi_la >= verify_lower_bound(g)


def test_lower_bound_values():
    assert verify_lower_bound(fan_one_blade()) == 3
    assert verify_lower_bound(cycle(4)) == 2
    assert verify_lower_bound(Graph([V("a")], [])) == 1
    g, _, _ = build_family("fb", n=5)
    assert verify_lower_bound(g) == 3


def test_witness_certifies_result():
    res = solve_chi_la(fan_one_blade())
    cert = certify(fan_one_blade(), res.witness)
    assert cert.is_bijective and cert.is_local_antimagic
    assert cert.color_count == res.chi_la


def test_automorphic_relabeling_same_answer():
    # the same abstract graph under renamed vertex ids
    vs = [V("q", 9 - i) for i in range(4)]
    u, v, w, x = vs
    g = Graph(vs, [edge(u, w), edge(v, w), edge(x, u), edge(x, v), edge(x, w)])
    assert solve_chi_la(g).chi_la == solve_chi_la(fan_one_blade()).chi_la


def test_k2_rejected():
    a, b = V("a"), V("b")
    with pytest.raises(K2Component, match="^component a-b is a K2$"):
        solve_chi_la(Graph([a, b], [edge(a, b)]))
    # also inside a disjoint union, named by id strings as an edge is
    c, d, e = V("c", 1), V("d", 1, 2), V("e")
    g = Graph([a, b, c, d, e], [edge(a, e), edge(c, d), edge(b, e)])
    with pytest.raises(K2Component, match="^component c_1-d_1_2 is a K2$"):
        solve_chi_la(g)


def test_oversized_graph_reports_infeasible_size():
    g, f, _ = build_family("fb", n=3)  # 15 edges > default cap of 10
    res = solve_chi_la(g, initial_witness=f)
    assert res.status == "infeasible_size"
    assert res.chi_la is None
    assert res.witness == f


def test_target_mode_with_witness_proves_exactness():
    g = fan_one_blade()
    full = solve_chi_la(g)
    res = solve_chi_la(
        g, SearchConfig(target_colors=2), initial_witness=full.witness
    )
    # exhausting the space under bound 3 proves chi_la = 3 exactly
    assert res.status == "exact"
    assert res.chi_la == 3


@pytest.mark.parametrize(
    "family, params",
    [("fb", {"n": 3}), ("pt", {"n": 2}), ("tb", {"n": 2}), ("df", {"r": 1, "s": 1})],
    ids=["fb3", "pt2", "tb2", "df11"],
)
def test_witness_at_the_lower_bound_is_exact_without_search(family, params):
    # a 3-colour witness plus a triangle is already a proof
    g, f, _ = build_family(family, **params)
    res = solve_chi_la(g, SearchConfig(max_edges=15, time_budget=0.5), initial_witness=f)
    assert (res.status, res.chi_la, res.nodes) == ("exact", 3, 0)
    assert res.witness == f


def test_search_stops_at_the_lower_bound():
    # the first 3-colouring of the fan meets the triangle bound: exact even
    # when it also reaches the target
    res = solve_chi_la(fan_one_blade(), SearchConfig(target_colors=3))
    assert res.status == "exact"
    assert res.chi_la == 3
    assert certify(fan_one_blade(), res.witness).color_count == 3


def test_target_mode_without_witness_reports_nonexistence():
    res = solve_chi_la(triangle(), SearchConfig(target_colors=2))
    assert res.status == "exact"
    assert res.chi_la is None  # nothing with <= 2 colors exists


def test_target_below_the_lower_bound_is_exact_without_search():
    # fb3 has a triangle, so no labeling has 2 colors; the search used to
    # spend its whole budget proving that
    g, _, _ = build_family("fb", n=3)
    res = solve_chi_la(g, SearchConfig(max_edges=15, target_colors=2, time_budget=0.5))
    assert (res.status, res.chi_la, res.nodes) == ("exact", None, 0)


def test_invalid_witness_rejected():
    g = fan_one_blade()
    labels = {e: i + 1 for i, e in enumerate(g.sorted_edges())}
    labels[g.sorted_edges()[0]] = 2  # duplicate
    with pytest.raises(UsageError):
        solve_chi_la(g, initial_witness=EdgeLabeling.from_dict(labels))

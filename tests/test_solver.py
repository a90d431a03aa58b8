"""Exact solver tests, gated by a plain permutation-enumeration oracle."""

from itertools import combinations, combinations_with_replacement, permutations

import pytest

from antimagic import graph, solver
from antimagic.errors import K2Component, LabelDomainMismatch, UsageError
from antimagic.families import build_family
from antimagic.graph import EdgeLabeling, Graph, V, certify, edge
from antimagic.solver import (
    PRUNE_REASONS, SearchConfig, _floor, _sum_fits, _walk, solve_chi_la,
)


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


def complete(n):
    vs = [V("k", i) for i in range(n)]
    return Graph(vs, [edge(vs[i], vs[j]) for j in range(n) for i in range(j)])


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


# node counts of the search that proved these values by exhausting its tree
# under the triangle bound
EXHAUSTIVE_NODES = {"C9": 1_779, "C10": 2_036, "P10": 537, "P11": 3_035, "K1,8": 69_281}


@pytest.mark.parametrize("n", [9, 10])
def test_cycle_proof_node_bound(n):
    res = solve_chi_la(cycle(n))
    assert res.status == "exact" and res.chi_la == 3
    assert res.nodes <= EXHAUSTIVE_NODES[f"C{n}"]


@pytest.mark.parametrize(
    "g, known, name",
    [(path(10), 3, "P10"), (path(11), 3, "P11"), (star(8), 9, "K1,8")],
    ids=["P10", "P11", "K1,8"],
)
def test_proofs_take_no_more_nodes_than_the_exhaustive_search(g, known, name):
    res = solve_chi_la(g)
    assert (res.status, res.chi_la) == ("exact", known)
    assert res.nodes <= EXHAUSTIVE_NODES[name]


@pytest.mark.parametrize(
    "family, params, ceiling",
    [
        ("fb", {"n": 3}, 2_200),
        ("pt", {"n": 2}, 10_000),
        ("df", {"r": 1, "s": 1}, 9_500),
        ("tb", {"n": 2}, 225_000),
    ],
    ids=["fb3", "pt2", "df11", "tb2"],
)
def test_q15_instances_are_proved_without_a_witness(family, params, ceiling):
    # an independent check of chi_la = 3 that does not use the construction;
    # the ceilings are about twice the node counts of these proofs
    g, _, _ = build_family(family, **params)
    res = solve_chi_la(g, SearchConfig(max_edges=15))
    assert (res.status, res.chi_la, res.floor, res.passes) == ("exact", 3, 3, 1)
    assert certify(g, res.witness).color_count == 3
    assert res.nodes <= ceiling


@pytest.mark.parametrize("shape", [cycle, path])
def test_search_does_not_depend_on_vertex_names(shape):
    """Renaming the vertices leaves the search tree unchanged, so the solver's
    cost and its counters are properties of the graph."""
    g = shape(10)

    def counters(res):
        return res.nodes, res.floor, res.floor_rule, res.passes, tuple(res.prunes.items())

    seen = {counters(solve_chi_la(g))}
    for shift in (3, 7):
        rename = {v: V("r", (v.indices[0] * shift) % 10) for v in g.vertices}
        renamed = Graph(list(rename.values()), [edge(rename[a], rename[b]) for a, b in g.edges])
        seen.add(counters(solve_chi_la(renamed)))
    assert len(seen) == 1
    (counts,) = seen
    assert counts[4][0][0] == "clash" and sum(n for _, n in counts[4]) > 0


def _chromatic(g):
    """The chromatic lower bound of a graph with an edge: 3 with an odd
    cycle, 2 otherwise."""
    return 2 if _walk(g).sides is not None else 3


def test_result_at_least_lower_bound():
    for g in (fan_one_blade(), triangle(), path(4), cycle(6), star(3)):
        res = solve_chi_la(g)
        assert res.chi_la >= _floor(_walk(g), g.size)[0] >= _chromatic(g)


def disjoint(*graphs):
    """The disjoint union, each graph's vertices tagged by its position."""

    def tag(k, v):
        return V(f"{v.role}{k}", *v.indices)

    return Graph(
        [tag(k, v) for k, h in enumerate(graphs) for v in h.vertices],
        [edge(tag(k, a), tag(k, b)) for k, h in enumerate(graphs) for a, b in h.edges],
    )


def test_odd_cycle_and_edge_rules():
    g, _, _ = build_family("fb", n=5)
    # an odd cycle without a triangle has no proper 2-colouring either
    for h in (fan_one_blade(), g, cycle(5)):
        assert _chromatic(h) == 3
        assert _floor(_walk(h), h.size) == (3, "odd_cycle")
    # bipartite, with no leaf, and disconnected, so the sum rule does not apply
    for h in (disjoint(cycle(4), cycle(4)), disjoint(cycle(4), cycle(6))):
        assert _chromatic(h) == 2
        assert _floor(_walk(h), h.size) == (2, "edge")
    # connected and bipartite: the sum rule beats the edge rule
    for h in (cycle(4), cycle(6)):
        assert _chromatic(h) == 2
        assert _floor(_walk(h), h.size) == (3, "sum")
    # no edge: the solver's own rule
    res = solve_chi_la(Graph([V("a")], []))
    assert (res.chi_la, res.floor, res.floor_rule) == (1, 1, "no_edges")


@pytest.mark.parametrize(
    "g, floor",
    [
        (fan_one_blade(), (3, "odd_cycle")),
        (cycle(9), (3, "odd_cycle")),
        # 2 + 2 vertices: equal sides
        (cycle(4), (3, "sum")),
        # sides 3 and 3
        (cycle(6), (3, "sum")),
        # sides 3 and 2, q(q+1)/2 = 10: 3 does not divide it
        (path(5), (3, "sum")),
        # sides 2 and 1, q(q+1)/2 = 3; the sum rule comes before the leaves
        (path(3), (3, "sum")),
        # sides 1 and 3, q(q+1)/2 = 6: both divide it, so only the leaves count
        (star(3), (4, "pendant")),
        (star(8), (9, "pendant")),
        # K1,3 plus a triangle: the three leaves beat the odd cycle
        (Graph([V("h"), *[V("l", i) for i in range(3)], V("a"), V("b"), V("c")],
               [edge(V("h"), V("l", i)) for i in range(3)]
               + [edge(V("a"), V("b")), edge(V("b"), V("c")), edge(V("a"), V("c"))]),
         (4, "pendant")),
    ],
    ids=["fan", "C9", "C4", "C6", "P5", "P3", "K1,3", "K1,8", "K13+K3"],
)
def test_floor_rules(g, floor):
    assert _floor(_walk(g), len(g.edges)) == floor
    assert floor[0] >= _chromatic(g)


def test_sum_rule_needs_a_connected_graph():
    # 2K1,2 (two paths P3): each path's sides are 2 and 1, but the two
    # components may swap their colours, so only the leaves count
    g = Graph(
        [V("a", i) for i in range(3)] + [V("b", i) for i in range(3)],
        [edge(V(r, 0), V(r, 1)) for r in "ab"] + [edge(V(r, 1), V(r, 2)) for r in "ab"],
    )
    assert _floor(_walk(g), len(g.edges)) == (5, "pendant")
    assert solve_chi_la(g).chi_la == brute_chi_la(g)


def with_isolated(g, count):
    """``g`` plus ``count`` isolated vertices."""
    return Graph([*g.vertices, *(V("i", j) for j in range(count))], g.edges)


def k24():
    a, b = [V("a", i) for i in range(2)], [V("b", i) for i in range(4)]
    return Graph(a + b, [edge(x, y) for x in a for y in b])


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize(
    "base", [lambda: path(3), triangle, lambda: path(4), lambda: cycle(4), lambda: star(3),
             lambda: cycle(5), lambda: disjoint(path(3), path(3)), k24],
    ids=["P3", "C3", "P4", "C4", "K1,3", "C5", "2P3", "K2,4"],
)
def test_isolated_vertices_add_one_colour_to_the_floor_and_to_chi_la(base, count):
    # every vertex with an edge has a positive colour and an isolated one 0,
    # so both the floor and chi_la are those of the graph without them plus 1;
    # the sum rule still applies to C4 and P3, whose edges form one component,
    # and counts neither side of K2,4 with the isolated vertices (on side 0,
    # they would make its sides 4 and 4 and the floor 4, over chi_la = 3)
    g, h = base(), with_isolated(base(), count)
    assert _floor(_walk(h), h.size) == (_floor(_walk(g), g.size)[0] + 1, "isolated")
    res = solve_chi_la(h)
    assert (res.status, res.floor_rule) == ("exact", "isolated")
    assert res.chi_la == brute_chi_la(h) == brute_chi_la(g) + 1


def test_an_isolated_vertex_beside_a_fan_is_proved_at_its_floor():
    # fb n=3 has chi_la = 3; with an isolated vertex the floor is 4, so the
    # first pass proves it, where the odd-cycle floor 3 needed a whole
    # exhausted pass first (612,748 nodes)
    g, _, _ = build_family("fb", n=3)
    res = solve_chi_la(with_isolated(g, 1), SearchConfig(max_edges=15))
    assert (res.status, res.chi_la, res.floor, res.floor_rule, res.passes) == (
        "exact", 4, 4, "isolated", 1
    )
    assert res.nodes < 2_000


def test_deepening_raises_the_floor_pass_by_pass():
    # chi_la(K4) = 4 (Arumugam et al.): the odd-cycle floor 3 is exhausted
    # first, then the first labeling of the second pass is optimal
    res = solve_chi_la(complete(4))
    assert (res.status, res.chi_la, res.floor, res.floor_rule, res.passes) == (
        "exact", 4, 3, "odd_cycle", 2
    )
    assert set(res.prunes) == set(PRUNE_REASONS)


def test_each_result_gets_its_own_prune_counts():
    results = [
        solve_chi_la(Graph([V("a")], [])),  # no edges
        solve_chi_la(Graph([], [])),
        solve_chi_la(cycle(12)),  # infeasible_size
        solve_chi_la(cycle(13)),
        solve_chi_la(cycle(5)),  # a search
        solve_chi_la(cycle(7)),
    ]
    assert [r.status for r in results] == ["exact"] * 2 + ["infeasible_size"] * 2 + ["exact"] * 2
    for r in results:
        assert type(r.prunes) is dict and list(r.prunes) == list(PRUNE_REASONS)
    assert [r.prunes == dict.fromkeys(PRUNE_REASONS, 0) for r in results] == [True] * 4 + [False] * 2
    assert len({id(r.prunes) for r in results}) == len(results)


def _sums_of(colours, m):
    """Every sum of m colours drawn with repeats from ``colours``, by enumeration."""
    return {sum(pick) for pick in combinations_with_replacement(colours, m)}


@pytest.mark.parametrize("top, most", [(40, 4), (20, 12)])
def test_the_three_colour_sum_check_is_exact(top, most):
    # every colour triple in 0..top and m <= most, and every need from one
    # below the smallest sum to one above the largest
    for colours in combinations(range(top + 1), 3):
        for m in range(most + 1):
            fits = {
                need for need in range(m * colours[0] - 1, m * colours[2] + 2)
                if _sum_fits(list(colours), m, need)
            }
            assert fits == _sums_of(colours, m), (colours, m)


@pytest.mark.parametrize("count", [1, 2, 4])
def test_the_sum_bounds_admit_every_reachable_sum(count):
    # other colour counts get the bounds only: every sum between m times the
    # smallest and m times the largest colour passes
    for colours in combinations(range(13), count):
        for m in range(9):
            lo, hi = m * colours[0], m * colours[-1]
            fits = {need for need in range(lo - 1, hi + 2) if _sum_fits(list(colours), m, need)}
            assert _sums_of(colours, m) <= fits == set(range(lo, hi + 1)), (colours, m)


def test_passes_stop_below_the_seeded_witness():
    # a 4-colour witness of K4: exhausting target 3 proves it optimal, and the
    # seeded witness is the one passed back
    g = complete(4)
    first = solve_chi_la(g)
    res = solve_chi_la(g, initial_witness=first.witness)
    assert (res.status, res.chi_la, res.passes) == ("exact", 4, 1)
    assert res.witness == first.witness
    assert res.nodes < first.nodes


def test_target_search_with_a_looser_witness_proves_only_the_target():
    # a triangle 0-1-2 with a pendant at 0 and at 1: chi_la = 4 above the
    # odd-cycle floor 3; a 5-colour witness and target 3 leave chi_la open
    # between 4 and 5, but that nothing has 3 colours is proved
    vs = [V("v", i) for i in range(5)]
    es = [edge(vs[a], vs[b]) for a, b in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4)]]
    g = Graph(vs, es)
    witness = EdgeLabeling.from_dict(dict(zip(es, [1, 2, 3, 5, 4])))
    assert certify(g, witness).color_count == 5
    res = solve_chi_la(g, SearchConfig(target_colors=3), initial_witness=witness)
    assert (res.status, res.chi_la, res.passes) == ("exact", None, 1)
    assert res.witness == witness
    assert solve_chi_la(g, initial_witness=witness).chi_la == 4 == brute_chi_la(g)


def test_every_witness_the_solver_returns_keeps_its_coloring():
    g = Graph([V("a"), V("b")], [])
    cases = [(g, solve_chi_la(g), None)]
    # a 3-colour witness of fb3 by name: exact at the floor, and too large
    fb3, f, _ = build_family("fb", n=3)
    seed = EdgeLabeling.from_dict(f.labels)
    res = solve_chi_la(fb3, SearchConfig(max_edges=15), initial_witness=seed)
    assert (res.status, res.chi_la, res.nodes) == ("exact", 3, 0)
    cases.append((fb3, res, seed))
    res = solve_chi_la(fb3, SearchConfig(max_edges=14), initial_witness=seed)
    assert res.status == "infeasible_size"
    cases.append((fb3, res, seed))
    # a 5-colour witness by name, with target 3
    vs = [V("v", i) for i in range(5)]
    es = [edge(vs[a], vs[b]) for a, b in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4)]]
    g = Graph(vs, es)
    seed = EdgeLabeling.from_dict(dict(zip(es, [1, 2, 3, 5, 4])))
    res = solve_chi_la(g, SearchConfig(target_colors=3), initial_witness=seed)
    assert (res.status, res.chi_la) == ("exact", None)
    cases.append((g, res, seed))
    for g, res, seed in cases:
        assert graph._colors(g, res.witness) is graph._colors(g, res.witness)
        assert seed is None or res.witness == seed


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), 0, -1, 0.0, True, "1"])
def test_search_config_rejects_a_budget_that_is_not_finite_and_positive(budget):
    # a nan budget used to be accepted and then never stopped the search
    with pytest.raises(UsageError, match="time budget is not a finite positive number"):
        SearchConfig(time_budget=budget)


def test_search_config_accepts_a_finite_positive_budget():
    assert SearchConfig(time_budget=0.5).time_budget == 0.5
    assert SearchConfig(time_budget=2).time_budget == 2
    assert SearchConfig().time_budget is None


@pytest.mark.parametrize("max_edges", [-1, -5, 1.5, 10.0, True, False, "10", None])
def test_search_config_rejects_a_max_edges_that_is_not_a_count(max_edges):
    # a negative cap used to pass and make every graph "infeasible_size"
    for make in (lambda: SearchConfig(max_edges=max_edges), lambda: SearchConfig(max_edges),
                 lambda: SearchConfig()._replace(max_edges=max_edges)):
        with pytest.raises(UsageError, match=r"^max_edges is not an int >= 0: "):
            make()


@pytest.mark.parametrize("target", [0, -1, 2.0, True, False, "3"])
def test_search_config_rejects_a_target_that_is_not_a_positive_count(target):
    # target 0 used to pass and report a vacuous "nothing has 0 colours"
    with pytest.raises(UsageError, match=r"^target_colors is not None or an int >= 1: "):
        SearchConfig(target_colors=target)


def test_search_config_accepts_counts():
    assert SearchConfig(max_edges=0).max_edges == 0
    assert SearchConfig(max_edges=15, target_colors=1).target_colors == 1
    assert SearchConfig().target_colors is None
    res = solve_chi_la(triangle(), SearchConfig(max_edges=0))
    assert (res.status, res.chi_la, res.floor) == ("infeasible_size", None, 3)


def test_time_budget_covers_every_pass():
    # tb2 needs far more than 4,096 nodes at its floor, so the first time
    # check ends the search
    g, _, _ = build_family("tb", n=2)
    res = solve_chi_la(g, SearchConfig(max_edges=15, time_budget=1e-9))
    assert (res.status, res.chi_la, res.witness, res.passes) == ("budget_exhausted", None, None, 1)
    assert res.nodes == 4_096


def test_witness_certifies_result():
    res = solve_chi_la(fan_one_blade())
    cert = certify(fan_one_blade(), res.witness)
    assert cert.is_bijective and cert.is_local_antimagic
    assert cert.color_count == res.chi_la


def test_the_witness_is_built_by_edge_position():
    # the edges (u, w), (v, w), (x, u), (x, v), (x, w) at positions 0..4, so
    # the listing, which sorts x < w < v < u, reads them in reverse; the
    # labels by name are the first labeling found
    vs = [V("q", 9 - i) for i in range(4)]
    u, v, w, x = vs
    g = Graph._of(vs, [0, 1, 3, 3, 3], [2, 2, 0, 1, 2])
    assert g._listed()[2] == [4, 3, 2, 1, 0]
    res = solve_chi_la(g)
    assert res.witness._graph is g
    assert res.witness == EdgeLabeling(
        {edge(x, w): 1, edge(x, v): 2, edge(x, u): 3, edge(w, u): 4, edge(w, v): 5}
    )
    assert certify(g, res.witness) == certify(g, EdgeLabeling(dict(res.witness.labels)))


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
    # ends in vertex order, which is not the order of their id strings
    x1, x_1 = V("x1"), V("x", 1)
    assert x_1 < x1 and str(x1) < str(x_1)
    with pytest.raises(K2Component, match="^component x_1-x1 is a K2$"):
        solve_chi_la(Graph([a, b, e, x1, x_1], [edge(a, e), edge(b, e), edge(x1, x_1)]))


def test_a_witness_free_solve_reads_the_graph_only_through_its_listing(monkeypatch):
    # the K2 check, the floor and the search share one walk of the listing
    cases = [(cycle(9), 3), (path(10), 3), (star(8), 9)]

    def refuse(*args):
        raise AssertionError("the solver read the graph past its listing")

    for name in ("sorted_vertices", "sorted_edges", "_named_edges", "_walked"):
        monkeypatch.setattr(Graph, name, refuse)
    for name in ("vertices", "edges"):
        monkeypatch.setattr(Graph, name, property(refuse))
    for g, known in cases:
        res = solve_chi_la(g)
        assert (res.status, res.chi_la) == ("exact", known)


def test_a_graph_without_edges_is_solved_without_a_search():
    res = solve_chi_la(Graph([V("a")], []))
    assert (res.chi_la, res.status, res.floor, res.floor_rule) == (1, "exact", 1, "no_edges")
    assert res.witness == EdgeLabeling({}) and res.nodes == 0
    empty = solve_chi_la(Graph([], []))
    assert (empty.chi_la, empty.status, empty.floor) == (0, "exact", 0)
    # a seeded witness is checked against the edges here too
    seeded = solve_chi_la(Graph([V("a")], []), initial_witness=EdgeLabeling({}))
    assert seeded.witness == EdgeLabeling({}) and seeded.status == "exact"
    with pytest.raises(LabelDomainMismatch, match=r"\(1 labels vs 0 edges\)"):
        solve_chi_la(Graph([V("a")], []), initial_witness=EdgeLabeling({edge(V("a"), V("b")): 1}))


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


def test_the_search_order_is_made_only_for_a_pass(monkeypatch):
    calls = []
    real = solver._search_order
    monkeypatch.setattr(solver, "_search_order", lambda *args: calls.append(1) or real(*args))
    g, f, _ = build_family("fb", n=3)
    cfg = SearchConfig(max_edges=15, time_budget=0.5)
    # a witness at the floor, and a target below it: no pass runs
    assert solve_chi_la(g, cfg, initial_witness=f).nodes == 0
    assert solve_chi_la(g, SearchConfig(max_edges=15, target_colors=2)).nodes == 0
    assert calls == []
    assert solve_chi_la(fan_one_blade()).chi_la == 3
    assert calls == [1]


def test_invalid_witness_rejected():
    g = fan_one_blade()
    labels = {e: i + 1 for i, e in enumerate(g.sorted_edges())}
    labels[g.sorted_edges()[0]] = 2  # duplicate
    with pytest.raises(UsageError):
        solve_chi_la(g, initial_witness=EdgeLabeling.from_dict(labels))

"""Exhaustive solver oracle: every small graph, up to isomorphism.

The graphs are generated by edge augmentation from the empty graph: a new
edge joins two present vertices, a present vertex to a new one, or two new
vertices.  That reaches every graph without isolated vertices.  Each level is
deduplicated by a canonical form: the minimum edge list over the vertex
orders that keep the classes of a degree refinement in place, taken per
component.  ``solve_chi_la`` must prove the same value as the permutation
oracle on every graph without a K2 component.
"""

import hashlib
from itertools import permutations, product

import pytest

from antimagic import io
from antimagic.families import build_family
from antimagic.graph import Graph, V, edge
from antimagic.solver import SearchConfig, _floor, _walk, solve_chi_la
from test_solver import brute_chi_la

MAX_EDGES = 7
# graphs without isolated vertices and with m = 1..7 edges, up to isomorphism
# (OEIS A000664)
KNOWN_COUNTS = [1, 2, 5, 11, 26, 68, 177]
# sha256 over io.dumps(labeling_to_doc(g, witness)) of the first labeling
# found for every case below, in order, and then for fb3, pt2 and df(1,1)
WITNESS_SHA256 = "b8a2430ede6788b08486f5be43d7dec3ebaed1e94808b8f6140b881b2a020c9e"
# sha256 over repr((nodes, floor, floor_rule, passes, prunes as items)) of the
# solve of every case below, in order, and then of fb3, pt2, df(1,1) and tb2:
# the search tree, which a faster kernel must leave as it is
SEARCH_TREE_SHA256 = "e44f302bf4946dace45ca66379630afb3aebbffd81b968872c1fc1d1217d7013"


def _refined_classes(vs: list[int], nbrs: dict[int, list[int]]) -> dict[int, int]:
    """Colour refinement from the degrees: a vertex's class is its old class
    and the sorted classes of its neighbours, ranked, until the number of
    classes stops growing.  The ranks depend on the graph's shape only."""
    cls = {v: len(nbrs[v]) for v in vs}
    while True:
        sig = {v: (cls[v], tuple(sorted(cls[w] for w in nbrs[v]))) for v in vs}
        rank = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        refined = {v: rank[sig[v]] for v in vs}
        if len(rank) == len(set(cls.values())):
            return refined
        cls = refined


def _canonical_component(vs: list[int], edges: list[tuple[int, int]]) -> tuple:
    nbrs = {v: [] for v in vs}
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    cls = _refined_classes(vs, nbrs)
    groups = [[v for v in vs if cls[v] == c] for c in sorted(set(cls.values()))]
    best = None
    for orders in product(*(permutations(grp) for grp in groups)):
        pos = {v: i for i, v in enumerate(v for order in orders for v in order)}
        form = tuple(sorted(tuple(sorted((pos[a], pos[b]))) for a, b in edges))
        if best is None or form < best:
            best = form
    return (len(vs), best)


def canonical(edges: frozenset) -> tuple:
    """The graph's canonical form: its components' forms, sorted."""
    comp: dict[int, int] = {}
    for a, b in sorted(edges):
        ra, rb = comp.setdefault(a, a), comp.setdefault(b, b)
        if ra != rb:
            for v, r in comp.items():
                if r == rb:
                    comp[v] = ra
    parts: dict[int, list] = {}
    for a, b in edges:
        parts.setdefault(comp[a], []).append((a, b))
    return tuple(sorted(
        _canonical_component(sorted({v for e in es for v in e}), es) for es in parts.values()
    ))


def graphs_by_size(max_edges: int) -> list[list[frozenset]]:
    """One representative edge set (vertices 0..n-1) per isomorphism class of
    graphs without isolated vertices, for each size 1..max_edges."""
    levels = [[frozenset()]]
    for _ in range(max_edges):
        seen: dict[tuple, frozenset] = {}
        for es in levels[-1]:
            n = len({v for e in es for v in e})
            grown = [(i, j) for j in range(n) for i in range(j) if (i, j) not in es]
            grown += [(i, n) for i in range(n)] + [(n, n + 1)]
            for e in grown:
                bigger = es | {e}
                seen.setdefault(canonical(bigger), bigger)
        levels.append(list(seen.values()))
    return levels[1:]


def _has_k2_component(es: frozenset) -> bool:
    deg: dict[int, int] = {}
    for a, b in es:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    return any(deg[a] == deg[b] == 1 for a, b in es)


def _graph(es: frozenset) -> Graph:
    vs = [V("v", i) for i in range(len({v for e in es for v in e}))]
    return Graph(vs, [edge(vs[a], vs[b]) for a, b in es])


LEVELS = graphs_by_size(MAX_EDGES)
CASES = [
    es for level in LEVELS for es in level if not _has_k2_component(es)
]


def test_the_generator_finds_every_graph_once():
    assert [len(level) for level in LEVELS] == KNOWN_COUNTS
    # a relabelled copy has the same form, a different graph another one
    assert canonical(frozenset({(0, 1), (1, 2)})) == canonical(frozenset({(2, 0), (0, 1)}))
    assert canonical(frozenset({(0, 1), (2, 3)})) != canonical(frozenset({(0, 1), (1, 2)}))


@pytest.mark.parametrize("size", range(2, MAX_EDGES + 1))  # K2 is the only 1-edge graph
def test_solver_equals_the_permutation_oracle_on_every_graph(size):
    for es in CASES:
        if len(es) != size:
            continue
        g = _graph(es)
        res = solve_chi_la(g)
        brute = brute_chi_la(g)
        assert (res.status, res.chi_la) == ("exact", brute), sorted(es)
        assert _floor(_walk(g), len(g.edges)) == (res.floor, res.floor_rule)
        assert res.floor <= brute, sorted(es)


def _q15(*families: str) -> list:
    params = {"fb": {"n": 3}, "pt": {"n": 2}, "df": {"r": 1, "s": 1}, "tb": {"n": 2}}
    return [(build_family(f, **params[f])[0], SearchConfig(max_edges=15)) for f in families]


def test_the_search_tree_is_pinned():
    """The same labels tried in the same order with the same prunes give the
    same node and prune counts on every graph."""
    digest = hashlib.sha256()
    for g, cfg in [(_graph(es), SearchConfig()) for es in CASES] + _q15("fb", "pt", "df", "tb"):
        res = solve_chi_la(g, cfg)
        tree = (res.nodes, res.floor, res.floor_rule, res.passes, tuple(res.prunes.items()))
        digest.update(repr(tree).encode())
    assert digest.hexdigest() == SEARCH_TREE_SHA256


def test_the_first_labeling_found_is_pinned():
    """A prune that cut a subtree holding a labeling within the target would
    change the first labeling a pass finds."""
    solved = [(_graph(es), SearchConfig()) for es in CASES] + _q15("fb", "pt", "df")
    digest = hashlib.sha256()
    for g, cfg in solved:
        digest.update(io.dumps(io.labeling_to_doc(g, solve_chi_la(g, cfg).witness)).encode())
    assert digest.hexdigest() == WITNESS_SHA256

"""Exact branch-and-bound search for the local antimagic chromatic number.

Desk-scale independent oracle: exhaustively assigns the labels 1..q to edges
depth-first, pruning a branch as soon as a fully-assigned vertex matches an
adjacent fully-assigned vertex's sum, or the count of distinct completed
colors reaches the current bound.  Completed-vertex colors are final, so the
distinct count is monotone along a branch and the prune is safe.

The searcher is meant for graphs of at most ~10 edges, where it re-derives,
independently of the constructions, values such as chi_la of the one-blade
fan.  Larger graphs can still be probed with a time budget; the result then
carries the best incumbent and is never claimed exact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import K2Component
from .graph import EdgeLabeling, Graph, certify

_TIME_CHECK_MASK = 0xFFF


@dataclass(frozen=True)
class SearchConfig:
    max_edges: int = 10
    target_colors: int | None = None
    symmetry_pruning: bool = True
    time_budget: float | None = None  # seconds


@dataclass(frozen=True)
class SolveResult:
    """``status`` semantics:

    * ``exact`` -- the pruned space was exhausted: ``chi_la`` is the proven
      minimum (or, in target mode with no witness found, ``None`` meaning the
      minimum exceeds the target).
    * ``budget_exhausted`` -- stopped early (time budget, or the early-exit
      target was reached); ``witness`` holds the best incumbent found.
    * ``infeasible_size`` -- the graph exceeds ``max_edges``.
    """

    chi_la: int | None
    witness: EdgeLabeling | None
    status: str
    nodes: int = 0
    elapsed: float = 0.0


def verify_lower_bound(g: Graph) -> int:
    """The cheap chromatic lower bound: 3 with a triangle, 2 with an edge."""
    if g.has_triangle():
        return 3
    if g.edges:
        return 2
    return 1


def _automorphisms(g: Graph):
    """All adjacency-preserving vertex bijections, by degree-refined
    backtracking.  Only called on tiny graphs (the solver's size cap)."""
    vs = g.sorted_vertices()
    idx = {v: i for i, v in enumerate(vs)}
    n = len(vs)
    adj = [[False] * n for _ in range(n)]
    for a, b in g.edges:
        adj[idx[a]][idx[b]] = adj[idx[b]][idx[a]] = True
    deg = [sum(row) for row in adj]
    sig = [
        (deg[i], tuple(sorted(deg[j] for j in range(n) if adj[i][j])))
        for i in range(n)
    ]
    candidates = [[j for j in range(n) if sig[j] == sig[i]] for i in range(n)]

    perm = [-1] * n
    used = [False] * n
    out: list[tuple[int, ...]] = []

    def extend(i: int) -> None:
        if i == n:
            out.append(tuple(perm))
            return
        for j in candidates[i]:
            if used[j]:
                continue
            if all(adj[i][p] == adj[j][perm[p]] for p in range(i)):
                perm[i] = j
                used[j] = True
                extend(i + 1)
                used[j] = False
                perm[i] = -1

    extend(0)
    return idx, out


def _edge_orbit_representatives(g: Graph) -> set[int]:
    """Indices (into the sorted edge list) of one edge per automorphism orbit."""
    idx, autos = _automorphisms(g)
    edges = g.sorted_edges()
    eidx = {}
    for i, (a, b) in enumerate(edges):
        eidx[(idx[a], idx[b])] = i
        eidx[(idx[b], idx[a])] = i

    parent = list(range(len(edges)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in autos:
        for i, (a, b) in enumerate(edges):
            j = eidx[(perm[idx[a]], perm[idx[b]])]
            ra, rb = find(i), find(j)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return {find(i) for i in range(len(edges))}


def solve_chi_la(
    g: Graph,
    cfg: SearchConfig = SearchConfig(),
    initial_witness: EdgeLabeling | None = None,
) -> SolveResult:
    """Minimum distinct-color count over all local antimagic labelings.

    ``initial_witness`` seeds the incumbent (it must itself be a valid local
    antimagic labeling).  ``cfg.target_colors`` is an early-exit bound: the
    search stops as soon as a labeling that good is found; exhausting the
    pruned space instead still proves either the exact minimum or that the
    minimum exceeds the target.  Graphs with a K2 component admit no local
    antimagic labeling at all and are rejected loudly.
    """
    for comp in g.connected_components():
        if len(comp) == 2:
            raise K2Component(f"component {sorted(comp)} is a K2")

    q = len(g.edges)
    if q == 0:
        return SolveResult(1 if g.vertices else 0, EdgeLabeling({}), "exact")
    if q > cfg.max_edges:
        return SolveResult(None, initial_witness, "infeasible_size")

    start = time.monotonic()
    vs = g.sorted_vertices()
    vidx = {v: i for i, v in enumerate(vs)}
    edges = g.sorted_edges()
    deg = [g.degree(v) for v in vs]
    # constrain hubs early: edges ordered by endpoint degree sum, descending
    order = sorted(
        range(q),
        key=lambda i: (-(deg[vidx[edges[i][0]]] + deg[vidx[edges[i][1]]]), i),
    )
    ends = [(vidx[edges[i][0]], vidx[edges[i][1]]) for i in order]
    neighbor_ids = [[vidx[u] for u in g.neighbors(v)] for v in vs]

    # up to automorphism, the top label q may be pinned to orbit representatives
    if cfg.symmetry_pruning:
        reps = _edge_orbit_representatives(g)
        allows_q = [order[pos] in reps for pos in range(q)]
    else:
        allows_q = [True] * q

    incumbent_count: int | None = None
    incumbent: dict | None = None
    if initial_witness is not None:
        cert = certify(g, initial_witness)
        if not (cert.is_bijective and cert.is_local_antimagic):
            raise ValueError("initial witness is not a local antimagic labeling")
        incumbent_count = cert.color_count
        incumbent = dict(initial_witness.labels)

    best = incumbent_count if incumbent_count is not None else q + 2
    target = cfg.target_colors

    sums = [0] * len(vs)
    remaining = deg[:]
    assigned = [0] * q
    used = [False] * (q + 1)
    # isolated vertices carry the empty-sum color 0 in every labeling
    completed: dict[int, int] = {0: deg.count(0)} if 0 in deg else {}
    nodes = 0

    def complete_vertex(vid: int) -> bool:
        c = sums[vid]
        for nb in neighbor_ids[vid]:
            if remaining[nb] == 0 and sums[nb] == c:
                return False
        completed[c] = completed.get(c, 0) + 1
        return True

    def uncomplete_vertex(vid: int) -> None:
        c = sums[vid]
        completed[c] -= 1
        if not completed[c]:
            del completed[c]

    def dfs(pos: int) -> bool:
        """Returns True to abort the whole search (time budget or target)."""
        nonlocal nodes, best, incumbent, incumbent_count
        if pos == q:
            count = len(completed)
            if count < best:
                best = count
                incumbent_count = count
                incumbent = {edges[order[p]]: assigned[p] for p in range(q)}
                if target is not None and count <= target:
                    return True
            return False
        nodes += 1
        if cfg.time_budget is not None and nodes & _TIME_CHECK_MASK == 0:
            if time.monotonic() - start > cfg.time_budget:
                return True
        a, b = ends[pos]
        top = q + 1 if allows_q[pos] else q
        for lab in range(1, top):
            if used[lab]:
                continue
            bound = best if target is None else min(best, target + 1)
            used[lab] = True
            assigned[pos] = lab
            sums[a] += lab
            sums[b] += lab
            remaining[a] -= 1
            remaining[b] -= 1
            alive = True
            entered = []
            for vid in (a, b):
                if remaining[vid] == 0:
                    if complete_vertex(vid):
                        entered.append(vid)
                    else:
                        alive = False
                        break
            if alive and len(completed) >= bound:
                alive = False
            if alive and dfs(pos + 1):
                return True
            for vid in entered:
                uncomplete_vertex(vid)
            remaining[a] += 1
            remaining[b] += 1
            sums[a] -= lab
            sums[b] -= lab
            used[lab] = False
        return False

    aborted = dfs(0)
    elapsed = time.monotonic() - start
    witness = EdgeLabeling(incumbent) if incumbent is not None else None

    # an abort (time budget, or the target reached) leaves minimality
    # unproven; a target above the witness only proves that nothing <= target
    # exists, so the witness bound is loose
    if aborted or (
        target is not None and incumbent_count is not None and incumbent_count > target + 1
    ):
        return SolveResult(None, witness, "budget_exhausted", nodes, elapsed)
    return SolveResult(incumbent_count, witness, "exact", nodes, elapsed)

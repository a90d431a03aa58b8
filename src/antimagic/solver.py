"""Exact branch-and-bound search for the local antimagic chromatic number.

Desk-scale independent oracle: exhaustively assigns the labels 1..q to edges
depth-first, pruning a branch as soon as a fully-assigned vertex matches an
adjacent fully-assigned vertex's sum, or the count of distinct completed
colors reaches the current bound.  Completed-vertex colors are final, so the
distinct count is monotone along a branch and the prune is safe.  The search
ends as soon as an incumbent meets the lower bound of
:func:`verify_lower_bound`, which proves it optimal.

The searcher is meant for graphs of at most ~10 edges, where it re-derives,
independently of the constructions, values such as chi_la of the one-blade
fan.  Larger graphs can still be probed with a time budget; the result then
carries the best incumbent and is claimed exact only if it meets the lower
bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import K2Component, UsageError
from .graph import EdgeLabeling, Graph, certify

_TIME_CHECK_MASK = 0xFFF


@dataclass(frozen=True)
class SearchConfig:
    max_edges: int = 10
    target_colors: int | None = None
    time_budget: float | None = None  # seconds


@dataclass(frozen=True)
class SolveResult:
    """``status`` semantics:

    * ``exact`` -- the pruned space was exhausted, or the incumbent meets
      :func:`verify_lower_bound`: ``chi_la`` is the proven minimum (or, in
      target mode with no witness found, ``None`` meaning the minimum exceeds
      the target).
    * ``budget_exhausted`` -- stopped early (time budget, or the early-exit
      target was reached) above the lower bound; ``witness`` holds the best
      incumbent found.
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


def _search_order(deg: list[int], ends: list[tuple[int, int]]) -> list[int]:
    """Edge indices in the order the search labels them.

    A branch is pruned only where a vertex completes, so the next edge is the
    one that completes the most vertices, then the one that meets the
    latest-placed edge (a walk, not a scatter), then the one with the largest
    endpoint degree sum.  Vertex names break only the remaining ties, so on
    paths, cycles and stars every naming gets an isomorphic order and the same
    search tree.
    """
    left = deg[:]
    latest = [-1] * len(deg)
    rest = list(range(len(ends)))
    order: list[int] = []

    def key(i: int) -> tuple:
        a, b = ends[i]
        completes = (left[a] == 1) + (left[b] == 1)
        return (-completes, -max(latest[a], latest[b]), -(deg[a] + deg[b]), i)

    while rest:
        i = min(rest, key=key)
        rest.remove(i)
        a, b = ends[i]
        left[a] -= 1
        left[b] -= 1
        latest[a] = latest[b] = len(order)
        order.append(i)
    return order


def solve_chi_la(
    g: Graph,
    cfg: SearchConfig = SearchConfig(),
    initial_witness: EdgeLabeling | None = None,
) -> SolveResult:
    """Minimum distinct-color count over all local antimagic labelings.

    ``initial_witness`` seeds the incumbent; one that is not a local antimagic
    labeling of ``g`` is a :class:`UsageError`.  ``cfg.target_colors`` is an
    early-exit bound: the search stops as soon as a labeling that good is
    found; exhausting the pruned space instead still proves either the exact
    minimum or that the minimum exceeds the target.  An incumbent that meets
    :func:`verify_lower_bound` is optimal, so the search ends there (with 0
    nodes when the seeded witness already does).  Graphs with a K2 component
    admit no local antimagic labeling at all and are rejected loudly.
    """
    for comp in g.connected_components():
        if len(comp) == 2:
            raise K2Component(f"component {'-'.join(map(str, sorted(comp)))} is a K2")

    q = len(g.edges)
    if q == 0:
        return SolveResult(1 if g.vertices else 0, EdgeLabeling({}), "exact")
    start = time.monotonic()
    # checked first, so that no result carries a witness that is not one
    cert = None if initial_witness is None else certify(g, initial_witness)
    if cert is not None and not (cert.is_bijective and cert.is_local_antimagic):
        raise UsageError("initial witness is not a local antimagic labeling")
    if q > cfg.max_edges:
        return SolveResult(None, initial_witness, "infeasible_size")

    floor = verify_lower_bound(g)
    incumbent_count: int | None = None
    incumbent: dict | None = None
    if cert is not None:
        incumbent_count = cert.color_count
        if incumbent_count == floor:
            return SolveResult(
                incumbent_count, initial_witness, "exact", 0, time.monotonic() - start
            )
        incumbent = dict(initial_witness.labels)
    if cfg.target_colors is not None and cfg.target_colors < floor:
        # no labeling has fewer colors than the lower bound: nothing to search
        return SolveResult(None, initial_witness, "exact", 0, time.monotonic() - start)

    vs, _, pairs = g.listing()
    edges = g.sorted_edges()
    deg = [0] * len(vs)
    neighbor_ids: list[list[int]] = [[] for _ in vs]
    for a, b in pairs:
        deg[a] += 1
        deg[b] += 1
        neighbor_ids[a].append(b)
        neighbor_ids[b].append(a)
    order = _search_order(deg, pairs)
    ends = [pairs[i] for i in order]

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
        """Returns True to end the whole search (time budget, target or the
        lower bound reached)."""
        nonlocal nodes, best, incumbent, incumbent_count
        if pos == q:
            count = len(completed)
            if count < best:
                best = count
                incumbent_count = count
                incumbent = {edges[order[p]]: assigned[p] for p in range(q)}
                if count == floor or (target is not None and count <= target):
                    return True
            return False
        nodes += 1
        if cfg.time_budget is not None and nodes & _TIME_CHECK_MASK == 0:
            if time.monotonic() - start > cfg.time_budget:
                return True
        a, b = ends[pos]
        for lab in range(1, q + 1):
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

    # above the lower bound, an abort (time budget, or the target reached)
    # leaves minimality unproven; a target above the witness only proves that
    # nothing <= target exists, so the witness bound is loose
    if incumbent_count != floor and (aborted or (
        target is not None and incumbent_count is not None and incumbent_count > target + 1
    )):
        return SolveResult(None, witness, "budget_exhausted", nodes, elapsed)
    return SolveResult(incumbent_count, witness, "exact", nodes, elapsed)

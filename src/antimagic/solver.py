"""Exact branch-and-bound search for the local antimagic chromatic number.

Desk-scale independent oracle: assigns the labels 1..q to edges depth-first
and proves chi_la at a floor, the lower bound of :func:`_floor` (an odd
cycle, the pendant vertices, or the two-colour sum rule, plus one for the
colour 0 of isolated vertices).  The search runs in passes, with a colour
target of floor, floor + 1, and so on: a pass prunes a branch when a
completed vertex matches an adjacent completed vertex's sum (``clash``) or
when the distinct completed colours exceed the target (``colour_bound``).
Once the target is full every open vertex must end on a completed colour,
and :func:`solve_chi_la` proves three more rules from that: an edge that
completes a vertex tries only the labels that close it on a completed colour
(the others count as ``colour_bound``); a vertex the last edge touched must
be able to reach such a colour, exactly through its one open edge or within
its sum interval (``interval``); and the open vertices' colours must add up
to q(q+1) less the completed ones (``sum``).
Completed-vertex colours are final, so the distinct count is monotone along
a branch and every prune is safe.  A pass that is exhausted proves chi_la
above its target, so the first labeling a pass finds is optimal.  The K2
check, the floor and the search read the graph in one walk of its listing,
:func:`_walk`: its neighbour lists, 2-colouring and components.

The search is one flat kernel, the recursive ``dfs`` of :func:`solve_chi_la`,
since in Python most of a node's cost is calls: it moves the open-edge
counts of an edge's two ends once per node, not once per label, checks each
end the label completes against its neighbours and enters its colour in
line, and undoes both after the label; only ``may_end`` and
:func:`_sum_fits` are calls.  The witness is built by edge position, so it
is a labeling of the graph itself and ``certify`` reads it without a lookup
by name.

The searcher is meant for graphs of up to about 15 edges, where it re-derives,
independently of the constructions, values such as chi_la of the one-blade
fan and of the smallest built instances.  Larger graphs can be probed with a
time budget; the result is then exact only if a pass finished the proof.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from typing import NamedTuple

from .errors import K2Component, UsageError
from .graph import EdgeLabeling, Graph, _finished, certify

_TIME_CHECK_MASK = 0xFFF
PRUNE_REASONS = ("clash", "colour_bound", "interval", "sum")
_Walk = namedtuple("_Walk", "nbrs sides comps")  # what the solver reads of a graph


class _SearchFields(NamedTuple):
    max_edges: int = 10
    target_colors: int | None = None
    time_budget: float | None = None  # seconds


class SearchConfig(_SearchFields):
    """The search's bounds, checked whenever one is made, ``_replace`` too."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        edges, target, budget = self
        if type(edges) is not int or edges < 0:  # ``type``: a bool is no count
            raise UsageError(f"max_edges is not an int >= 0: {edges!r}")
        if target is not None and (type(target) is not int or target < 1):
            raise UsageError(f"target_colors is not None or an int >= 1: {target!r}")
        if budget is not None and not (
            isinstance(budget, (int, float)) and not isinstance(budget, bool)
            and 0 < budget < math.inf
        ):
            # nan compares false with everything, so it never stopped a search
            raise UsageError(f"time budget is not a finite positive number of seconds: {budget!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class SolveResult(NamedTuple):
    """``status`` semantics:

    * ``exact`` -- ``chi_la`` is the proven minimum: a pass found a labeling
      with as many colours as its target after every lower target was
      exhausted, or the seeded witness meets the floor or has one colour
      more than the last exhausted target.  ``chi_la`` is ``None`` when the search proved that
      no labeling has at most ``target_colors`` colours (or none is local
      antimagic at all); ``witness`` is then the seed's finished twin on the
      graph, equal to the seed.
    * ``budget_exhausted`` -- the time budget ran out before the proof;
      ``witness`` is the seed's finished twin, if any.
    * ``infeasible_size`` -- the graph exceeds ``max_edges``.

    ``floor`` is the lower bound proved before the search and ``floor_rule``
    the rule of :func:`_floor` that gave it (``no_edges`` for a graph
    without edges); ``passes`` counts the targets
    searched and ``prunes`` the branches cut for each reason of
    ``PRUNE_REASONS``.  All of these, and ``nodes``, depend on the graph only,
    not on its vertex names; ``elapsed`` is the wall time.
    """

    chi_la: int | None
    witness: EdgeLabeling | None
    status: str
    nodes: int = 0
    elapsed: float = 0.0
    floor: int = 0
    floor_rule: str = ""
    passes: int = 0
    prunes: dict[str, int] | None = None  # the solver passes a fresh dict to each result


def _walk(g: Graph) -> _Walk:
    """One walk over the listed edges of ``g._listed()``: each rank's neighbours
    in listing order, a proper 2-colouring (0 or 1 each) or ``None`` if ``g``
    has an odd cycle, and the components as rank lists in order of their
    smallest rank."""
    vs, _, _, _, lo, hi = g._listed()
    nbrs: list[list[int]] = [[] for _ in vs]
    for a, b in zip(lo, hi):
        nbrs[a].append(b)
        nbrs[b].append(a)
    side = [-1] * len(vs)
    bipartite = True
    comps = []
    for root in range(len(vs)):
        if side[root] >= 0:
            continue
        side[root] = 0
        comp = [root]
        for v in comp:  # the loop reads the vertices it appends
            for w in nbrs[v]:
                if side[w] < 0:
                    side[w] = 1 - side[v]
                    comp.append(w)
                elif side[w] == side[v]:
                    bipartite = False
        comps.append(comp)
    return _Walk(nbrs, side if bipartite else None, comps)


def _floor(walk: _Walk, q: int) -> tuple[int, str]:
    """The largest proved lower bound on chi_la of a graph with q ≥ 1 edges,
    no K2 component and the walk ``walk``, and the rule behind it.  The rules:

    * ``edge`` 2, or ``odd_cycle`` 3 when the walk found no 2-colouring.  A
      local antimagic colouring is a proper vertex colouring, since adjacent
      vertices take different sums, and a graph with an odd cycle has no
      proper 2-colouring.
    * ``sum`` 3, for a connected bipartite graph with sides A and B, when
      |A| = |B| or one of them does not divide q(q+1)/2.  A connected
      bipartite graph has one proper 2-colouring up to swapping the colours,
      so a 2-colour labeling gives A one colour c1 and B another c2.  Every
      edge has one end in A, so |A|·c1 is the sum of all labels, q(q+1)/2,
      and so is |B|·c2; equal sides would give c1 = c2 on adjacent vertices.
    * ``pendant`` l + 1, with l ≥ 1 vertices of degree 1.  No two of them
      are adjacent (that would be a K2 component), so their edges are l
      distinct edges and their colours l distinct labels, each at most q.
      The edge labelled q has an end of degree at least 2, again since no
      K2 component exists, and that end's colour exceeds q.

    The first of the largest bounds in that order wins, over the graph less
    its isolated vertices, whose components the sum rule counts.  With
    i ≥ 1 isolated vertices that bound b becomes ``isolated`` b + 1.  The
    isolated vertices have the empty sum 0 in every labeling, and every other
    vertex has an edge and so a positive colour.  The labelings of the graph
    are those of the graph less its isolated vertices, with the one colour 0
    added, so chi_la is that graph's plus 1, and b bounds that graph's.
    """
    sides, nbrs = walk.sides, walk.nbrs
    # each isolated vertex is a component of its own, on side 0
    isolated = sum(not nb for nb in nbrs)
    rules = [(2, "edge") if sides is not None else (3, "odd_cycle")]
    if sides is not None and len(walk.comps) - isolated == 1:
        half = q * (q + 1) // 2
        side_b = sides.count(1)
        side_a = len(sides) - side_b - isolated
        if side_a == side_b or half % side_a or half % side_b:
            rules.append((3, "sum"))
    leaves = sum(len(nb) == 1 for nb in nbrs)
    if leaves:
        rules.append((leaves + 1, "pendant"))
    floor, rule = max(rules, key=lambda rule: rule[0])
    return (floor + 1, "isolated") if isolated else (floor, rule)


def _sum_fits(colours: list[int], m: int, need: int) -> bool:
    """Whether m ≥ 0 colours drawn, with repeats, from the sorted distinct
    ``colours`` can add up to ``need``.

    Each colour lies between the smallest and the largest, so the sum lies
    between m times each.  With three colours c1 < c2 < c3 the test is exact:
    x of c2, y of c3 and the rest of c1 add up to need if and only if
    need − m·c1 = x(c2 − c1) + y(c3 − c1) with x, y ≥ 0 and x + y ≤ m, and
    the loop tries every y.  Other counts get the bounds only.
    """
    if not m * colours[0] <= need <= m * colours[-1]:
        return False
    if len(colours) != 3:
        return True
    c1, c2, c3 = colours
    rest = need - m * c1
    for y in range(min(m, rest // (c3 - c1)) + 1):
        x, r = divmod(rest - y * (c3 - c1), c2 - c1)
        if not r and x + y <= m:
            return True
    return False


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

    The search runs one pass per colour target, from the floor of
    :func:`_floor` up, and ends at the first labeling a pass finds: every
    lower target was exhausted, so it is optimal.  The passes stop below the
    colour count of ``initial_witness`` (whose count is then proven if they
    are all exhausted), at ``cfg.target_colors`` and at |V| colours; a
    seeded witness at the floor is exact with 0 nodes.  ``cfg.time_budget``
    covers all passes.  A witness that is not a local antimagic labeling of
    ``g`` is a :class:`UsageError`.  Graphs with a K2 component admit no
    local antimagic labeling at all and are rejected loudly.
    """
    vs, names, positions, _, lo, hi = g._listed()
    walk = _walk(g)
    for comp in walk.comps:
        if len(comp) == 2:
            raise K2Component(f"component {names[min(comp)]}-{names[max(comp)]} is a K2")

    q = len(lo)
    start = time.monotonic()
    # checked first, so that no result carries a witness that is not one
    seed = None if initial_witness is None else _finished(g, initial_witness)
    if q == 0:
        chi = 1 if vs else 0
        return SolveResult(chi, EdgeLabeling._at(g, []), "exact", floor=chi, floor_rule="no_edges",
                           prunes=dict.fromkeys(PRUNE_REASONS, 0))
    cert = None if seed is None else certify(g, seed)
    if cert is not None and not (cert.is_bijective and cert.is_local_antimagic):
        raise UsageError("initial witness is not a local antimagic labeling")
    floor, floor_rule = _floor(walk, q)
    if q > cfg.max_edges:
        return SolveResult(None, seed, "infeasible_size", floor=floor,
                           floor_rule=floor_rule, prunes=dict.fromkeys(PRUNE_REASONS, 0))

    # a labeling has at most |V| colours; a pass below the witness can only
    # improve on it; a pass above the user's target is not asked for
    last = len(vs)
    if cert is not None:
        last = min(last, cert.color_count - 1)
    if cfg.target_colors is not None:
        last = min(last, cfg.target_colors)

    nbrs = walk.nbrs
    deg = [len(nb) for nb in nbrs]
    # ordered only for a pass to search
    order = _search_order(deg, list(zip(lo, hi))) if floor <= last else []
    ends = [(lo[i], hi[i]) for i in order]

    sums = [0] * len(vs)
    remaining = deg[:]
    assigned = [0] * q
    used = [False] * (q + 1)
    # isolated vertices carry the empty-sum color 0 in every labeling
    completed: dict[int, int] = {0: deg.count(0)} if 0 in deg else {}
    # the open vertices, and the sum their colours must reach: every label
    # counts at both ends, so all colours add up to q(q+1)
    left, need = len(vs) - deg.count(0), q * (q + 1)
    cut = [0] * len(PRUNE_REASONS)  # the prunes, by index into PRUNE_REASONS
    budget = cfg.time_budget
    nodes = 0
    target = floor
    found = False
    timed_out = False

    def may_end(vid: int) -> bool:
        """With the target full, an open vertex must end on a completed
        colour that none of its completed neighbours has.  With one open
        edge left, that edge's label is such a colour less its sum, and
        must be unused and in 1..q: the test is exact.  With more, its open
        edges take distinct unused labels, so its colour lies between its
        sum plus the smallest and its sum plus the largest of them.  Each
        colour that passes is then looked for among the neighbours."""
        d, s = remaining[vid], sums[vid]
        if d == 1:
            lo, hi = s + 1, s + q
        else:
            lo = hi = s
            lab, taken = 1, 0
            while taken < d:
                if not used[lab]:
                    lo += lab
                    taken += 1
                lab += 1
            lab, taken = q, 0
            while taken < d:
                if not used[lab]:
                    hi += lab
                    taken += 1
                lab -= 1
        for c in completed:
            if lo <= c <= hi and (d > 1 or not used[c - s]):
                for nb in nbrs[vid]:
                    if sums[nb] == c and not remaining[nb]:
                        break
                else:
                    return True
        return False

    def dfs(pos: int) -> bool:
        """Returns True to end the pass: a labeling within the target was
        found, or the time budget ran out.  The edge at ``pos`` is (a, b);
        their open-edge counts drop once for the node, and a label that
        completes an end checks it against its completed neighbours and
        enters its colour, which the loop undoes."""
        nonlocal nodes, found, timed_out, left, need
        if pos == q:
            found = True
            return True
        nodes += 1
        if budget is not None and nodes & _TIME_CHECK_MASK == 0:
            if time.monotonic() - start > budget:
                timed_out = True
                return True
        a, b = ends[pos]
        remaining[a] -= 1
        remaining[b] -= 1
        ra, rb = remaining[a], remaining[b]
        if len(completed) == target and not (ra and rb):
            # the edge completes a, b or both, and an end completed on a new
            # colour would exceed the target.  So every label is a
            # colour_bound prune but the labels c - sum, for a completed
            # colour c, that close each end it completes: those, unused and
            # in 1..q, ascending, as the loop below would try them
            v, w = (a, b) if not ra else (b, a)
            s = sums[v]
            labels = [c - s for c in sorted(completed) if 0 < c - s <= q and not used[c - s]]
            if not (ra or rb):
                s = sums[w]
                labels = [lab for lab in labels if s + lab in completed]
            cut[1] += q - pos - len(labels)  # q - pos labels are unused
        else:
            labels = [lab for lab in range(1, q + 1) if not used[lab]]
        for lab in labels:
            used[lab] = True
            assigned[pos] = lab
            sa = sums[a] = sums[a] + lab
            sb = sums[b] = sums[b] + lab
            reason = -1
            enter_a = enter_b = False
            if not ra:
                for nb in nbrs[a]:
                    if sums[nb] == sa and not remaining[nb]:
                        reason = 0  # clash
                        break
                else:
                    enter_a = True
                    completed[sa] = completed.get(sa, 0) + 1
                    left -= 1
                    need -= sa
            if not rb and reason < 0:
                for nb in nbrs[b]:
                    if sums[nb] == sb and not remaining[nb]:
                        reason = 0
                        break
                else:
                    enter_b = True
                    completed[sb] = completed.get(sb, 0) + 1
                    left -= 1
                    need -= sb
            if reason < 0:
                colours = len(completed)
                if colours > target:
                    reason = 1  # colour_bound
                elif colours == target:
                    if (ra and not may_end(a)) or (rb and not may_end(b)):
                        reason = 2  # interval
                    # the open vertices end on completed colours; the sum
                    # changes only where a vertex completes, and the parent
                    # checked the state this label leaves otherwise
                    elif (enter_a or enter_b) and not _sum_fits(sorted(completed), left, need):
                        reason = 3  # sum
            if reason >= 0:
                cut[reason] += 1
            elif dfs(pos + 1):
                return True
            if enter_a:
                left += 1
                need += sa
                if completed[sa] == 1:
                    del completed[sa]
                else:
                    completed[sa] -= 1
            if enter_b:
                left += 1
                need += sb
                if completed[sb] == 1:
                    del completed[sb]
                else:
                    completed[sb] -= 1
            sums[a] = sa - lab
            sums[b] = sb - lab
            used[lab] = False
        remaining[a] = ra + 1
        remaining[b] = rb + 1
        return False

    passes = 0
    while target <= last and not found and not timed_out:
        passes += 1
        dfs(0)
        if not found and not timed_out:
            target += 1  # the pass proved chi_la > target

    def result(chi_la, witness, status) -> SolveResult:
        return SolveResult(chi_la, witness, status, nodes, time.monotonic() - start,
                           floor, floor_rule, passes, dict(zip(PRUNE_REASONS, cut)))

    if found:
        # the label of each edge, placed at that edge's position in g
        labels = [0] * q
        for p, lab in zip(order, assigned):
            labels[positions[p]] = lab
        return result(target, EdgeLabeling._at(g, labels), "exact")
    if timed_out:
        return result(None, seed, "budget_exhausted")
    # chi_la >= target: the floor, raised past every exhausted pass
    if cert is not None and cert.color_count == target:
        return result(target, seed, "exact")
    return result(None, seed, "exact")

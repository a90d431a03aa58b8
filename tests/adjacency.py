"""A graph's neighbours and components read off its ``vertices`` and
``edges`` views alone, so that a test's oracle leans on no adjacency of the
engine's own."""

from antimagic.graph import edge


def neighbors(g):
    """Each vertex of ``g`` mapped to the set of its neighbours."""
    near = {v: set() for v in g.vertices}
    for x, y in g.edges:
        near[x].add(y)
        near[y].add(x)
    return near


def incident_edges(near, v):
    """The edges at ``v``, sorted, given the map that :func:`neighbors`
    returns."""
    return sorted(edge(v, n) for n in near[v])


def components(g):
    """The components of ``g`` as vertex sets, sorted by their smallest
    vertex."""
    near = neighbors(g)
    seen, comps = set(), []
    for start in sorted(near):
        if start in seen:
            continue
        comp = {start}
        todo = [start]
        while todo:
            for w in near[todo.pop()] - comp:
                comp.add(w)
                todo.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return comps

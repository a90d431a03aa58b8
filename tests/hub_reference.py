"""The bases built by hub surgery and the families merged by the merge
kernel: a reference for the builders that lay their cells on their hubs, for
``gn``, which swaps its hubs' rail edges, and for ``_merged``, which lays
its blocks on their merged vertices.

Each fan-cell reference labels 2k+1 cells with private hubs x_1 .. x_(2k+1)
(np3o3: one run x_i_a per hub a, :func:`np3o3_cells`), then merges the hubs
as the surgery construction did, after splitting the outer hubs in ``df``.  The ``gn``
reference splits two hubs of the bracelet per index and re-merges the halves
crosswise.  :func:`merged` and :func:`tb` are ``_merged`` and ``_tb`` as
they were when every merge ran the merge kernel, which lives here now, in
:class:`SurgeryDraft`, with the split kernel.  Each returns what its
builder returns, with the instance taken from the builder itself, or scaled
as ``_merged`` scales it (the claims do not depend on how the graph is
laid), except that its lists hold the draft itself in a fifth slot after a
builder's four (:func:`handed`), which :func:`fresh`, :func:`merged` and
:func:`draft` tell by the lists' length.  ``BUILDERS`` holds the real
builders as they were at import, so a reference still calls them while
:func:`use_references` has put the references in their place.  The
references run under :func:`use_references`, which builds each base that a
merge or ``gn`` reads once, and each merge and split runs on a fresh copy of
it (:func:`fresh`).
"""

from itertools import chain, repeat

from antimagic import families, graph
from antimagic.graph import V, VertexId
from antimagic.partition import _position_blocks
from antimagic.tables import table_m1, table_m3

BUILDERS = {
    "fb": families._fb, "tfb": families._tfb, "df": families._df,
    "np3o3": families._np3_o3, "gn": families._gn, "tb": families._tb, "pt": families._pt,
}
KEPT = ("tfb", "df", "tb")  # with _pt, the bases that use_references builds once
DRAFT = families._draft


class SurgeryDraft:
    """A draft that merges and splits by index, unchecked, as the package's
    kernels did: vertex i is named ``names[i]``, and edge p joins ``a[p]``
    and ``b[p]`` and carries ``labels[p]``.  A surgery rewrites edge ends,
    appends each new vertex to ``names`` and returns the indices it appends,
    so every label stays at its edge's position.  ``index`` maps each live
    vertex's name to its index; a vertex dies when a surgery takes its name
    out, and :meth:`finish` renumbers the live vertices in order, for
    ``graph._draft`` to check."""

    __slots__ = ("names", "a", "b", "labels", "index")

    def __init__(self, names, a, b, labels):
        self.names, self.a, self.b, self.labels = list(names), a, b, labels
        self.index = dict(zip(self.names, range(len(self.names))))

    def merge(self, blocks, new_ids):
        """Each block of indices onto one new vertex, in block order."""
        new = range(len(self.names), len(self.names) + len(new_ids))
        to = {v: h for h, block in zip(new, blocks) for v in block}
        self.a, self.b = [to.get(v, v) for v in self.a], [to.get(v, v) for v in self.b]
        for v in to:
            del self.index[self.names[v]]
        self.names += new_ids
        self.index.update(zip(new_ids, new))
        return new

    def split(self, splits):
        """Each (v, part1, part2, id1, id2), parts as edge positions, into two
        halves; split i's halves at 2i and 2i+1 of what it returns."""
        new = range(len(self.names), len(self.names) + 2 * len(splits))
        for (v, part1, part2, _, _), h in zip(splits, new[::2]):
            for part, half in ((part1, h), (part2, h + 1)):
                for p in part:
                    if self.a[p] == v:
                        self.a[p] = half
                    else:
                        self.b[p] = half
        # every split name goes before any half comes in, since a half may
        # take the name of a vertex split later in the same call
        for v, *_ in splits:
            del self.index[self.names[v]]
        halves = [nid for *_, id1, id2 in splits for nid in (id1, id2)]
        self.names += halves
        self.index.update(zip(halves, new))
        return new

    def finish(self):
        """The graph and labeling of the live vertices, renumbered in order."""
        live = sorted(self.index.values())
        to = dict(zip(live, range(len(live)))).__getitem__
        names = list(map(self.names.__getitem__, live))
        return DRAFT(names, list(map(to, self.a)), list(map(to, self.b)), self.labels)


def named(ids):
    """Vertex ids by name: each int code that a builder names a vertex by,
    decoded, and each name as it is; the one way a test reads a builder's
    names."""
    ids = list(ids)
    decoded = iter(graph._decoded([v for v in ids if type(v) is int]))
    return [next(decoded) if type(v) is int else v for v in ids]


def _vertices(role, *columns):
    return map(tuple.__new__, repeat(VertexId), zip(repeat(role), zip(*columns)))


def _fan_at(role, i, k):
    """The index of ``role``_i in :func:`surgery_cells`: a run of 2k+1 per role."""
    return "uvwx".index(role) * (2 * k + 1) + i - 1


def surgery_cells(k):
    """2k+1 disjoint fan cells (one P3 plus its own hub) labeled column-wise."""
    n = 2 * k + 1
    u, v, w, x = (range(j * n, (j + 1) * n) for j in range(4))
    rows = table_m1(k).rows
    return SurgeryDraft(
        list(chain.from_iterable(_vertices(role, range(1, n + 1)) for role in "uvwx")),
        [*u, *v, *x, *x, *x],
        [*w, *w, *w, *u, *v],
        [*rows["uw"], *rows["vw"], *rows["xw"], *rows["xu"], *rows["xv"]],
    )


def fb(n):
    _, inst = BUILDERS["fb"](n)
    k = (n - 1) // 2
    d = surgery_cells(k)
    d.merge([range(_fan_at("x", 1, k), _fan_at("x", n + 1, k))], [V("x")])
    return handed(d), inst


def tfb(t, s):
    _, inst = BUILDERS["tfb"](t, s)[:2]
    k = (t * s - 1) // 2
    d = surgery_cells(k)
    columns = [sorted(2 * k + 1 - p for p in blk) for blk in _position_blocks(t, s)]
    blocks = [[_fan_at("x", c, k) for c in cols] for cols in columns]
    d.merge(blocks, [V("y", a) for a in range(1, t + 1)])
    return handed(d), inst, columns


def df(r, s):
    _, inst = BUILDERS["df"](r, s)[:2]
    m = (2 * r + 1) * s
    k = (m - 1) // 2
    d = surgery_cells(k)

    # cell i has its hub x_i at 3m+i-1 and the hub's edges to w_i, u_i, v_i
    # at 2m+i-1, 3m+i-1, 4m+i-1; the first half keeps the edge to w_i
    def outer(first):
        return chain(range(first, first + r * s), range(first + (r + 1) * s, first + m))

    cells = list(outer(1))
    halves = d.split(list(zip(
        outer(3 * m), zip(outer(2 * m)), zip(outer(3 * m), outer(4 * m)),
        _vertices("x1", cells), _vertices("x2", cells),
    )))
    x1, x2 = halves[::2], halves[1::2]
    blocks = [range(3 * m + r * s, 3 * m + (r + 1) * s)]
    for near, far in zip(range(0, r * s, s), range((2 * r - 1) * s, (r - 1) * s, -s)):
        blocks += [[*x1[near:near + s], *x2[far:far + s]], [*x2[near:near + s], *x1[far:far + s]]]
    hubs = d.merge(blocks, [V("x"), *(V(role, j) for j in range(1, r + 1) for role in "yz")])
    return handed(d), inst, hubs


def np3o3_cells(k):
    """2k+1 P3 cells, each joined to its own three hubs x_i_1, x_i_2, x_i_3
    (one run x_i_a per hub a), labeled column-wise by the 11-row matrix, with
    w, u, v at end a of each hub edge."""
    n = 2 * k + 1
    rows = table_m3(k).rows
    u, v, w, *x = (range(j * n, (j + 1) * n) for j in range(6))
    ends_a, ends_b, labels = [*u, *v], [*w, *w], [*rows["L"], *rows["R"]]
    for a, xa in enumerate(x, start=1):
        ends_a += [*w, *u, *v]
        ends_b += [*xa, *xa, *xa]
        labels += [*rows[f"C{a}"], *rows[f"L{a}"], *rows[f"R{a}"]]
    return SurgeryDraft(
        [*chain.from_iterable(_vertices(role, range(1, n + 1)) for role in "uvw"),
         *chain.from_iterable(_vertices("x", range(1, n + 1), repeat(a)) for a in (1, 2, 3))],
        ends_a, ends_b, labels,
    )


def np3o3(n):
    _, inst = BUILDERS["np3o3"](n)
    d = np3o3_cells((n - 1) // 2)
    d.merge([range(j * n, (j + 1) * n) for j in (3, 4, 5)], [V("x", a) for a in (1, 2, 3)])
    return handed(d), inst


def merged(built, family, params, blocks, color, degree, new_ids=None):
    """``_merged`` through the merge kernel, on a reference's draft or a
    builder's lists, by name."""
    lists, base = built
    d = lists[4] if len(lists) == 5 else SurgeryDraft(named(lists[0]), *lists[1:])
    r, s = len(blocks), len(blocks[0])
    palette = families._palette(*(s * c if c == color else c for c in base.expected_palette))
    census = families._census(*base.expected_census.items(), (degree, -r * s), (s * degree, r))
    inst = families.FamilyInstance(family, params, palette, census)
    new = d.merge(blocks, named(new_ids or [V("m", b) for b in range(1, r + 1)]))
    return handed(d), inst, new


def tb(n):
    pairs = [(0, 1)] + [(1 + 2 * i, 2 * n + 2 + 2 * i) for i in range(1, n + 1)]
    return merged(
        families._pt(n), "tb", {"n": n, "k": n // 2}, pairs, 10 * (n // 2) + 6, 2,
        list(_vertices("z", range(0, 2 * n + 1, 2))),
    )


def gn(n, indices):
    _, inst, _ = BUILDERS["gn"](n, indices)
    (*_, d), _, hubs = families._tb(n)  # a copy of the kept tb reference
    hub = dict(zip(range(0, 2 * n + 1, 2), hubs))

    # on the rails of _pt the edge u_j u_(j+1) is at position j and
    # v_j v_(j+1) at 2n+2+j, so the lower half of z_m keeps the edges to
    # u_(m-1), v_(m-1), at m-1 and 2n+1+m, and the upper half those to
    # u_(m+1), v_(m+1)
    remerged = [m for ia in indices for m in (8 * ia - 2, 16 * ia - 4)]
    halves = d.split([
        (hub[m], (m - 1, 2 * n + 1 + m), (m, 2 * n + 2 + m), V("z1", m), V("z2", m))
        for m in remerged
    ])
    # index ia's halves are lo1, lo2, hi1, hi2 at h .. h+3: the lower half
    # of z_lo goes with the upper half of z_hi, and crosswise
    blocks = [block for h in halves[::4] for block in ([h, h + 3], [h + 1, h + 2])]
    hub.update(zip(remerged, d.merge(blocks, list(_vertices("z", remerged)))))

    cuts = [range(8 * ia, 16 * ia - 3, 2) for ia in indices]
    cut = set().union(*cuts)
    rims = [[hub[m] for m in hub if m not in cut]] + [[hub[m] for m in c] for c in cuts]
    return handed(d), inst, rims


REFERENCES = {"fb": fb, "tfb": tfb, "df": df, "np3o3": np3o3, "gn": gn, "tb": tb}


def handed(d):
    """A reference's draft as a builder's lists, with the draft itself in a
    fifth slot, which :func:`draft` finishes as it is: a surgery draft keeps
    the names of the vertices it took out, which no lists can say."""
    return d.names, d.a, d.b, d.labels, d


def draft(*lists):
    """``_draft``, which finishes a reference's own draft as it is."""
    return lists[4].finish() if len(lists) == 5 else DRAFT(*lists)


def fresh(lists):
    """A copy of a builder's lists, or of a reference's own draft as lists,
    for a kernel or a builder to rewrite: :meth:`SurgeryDraft.merge` and ``split``
    rewrite their draft, and ``_gn`` swaps the ends of the lists it reads."""
    if len(lists) == 4:
        names, a, b, labels = lists
        return names, list(a), list(b), labels
    names, a, b, labels, draft = lists
    d = object.__new__(SurgeryDraft)
    d.names, d.index, d.a, d.b, d.labels = list(names), dict(draft.index), list(a), list(b), labels
    return handed(d)


def use_references(monkeypatch, kept=None):
    """Build the six bases, and every family made from one, by surgery, and
    make every merge through the merge kernel.  The bases that a merge or
    ``gn`` reads, ``_pt``, ``tfb``, ``df`` and ``tb``, are each built once
    for each distinct argument list, into ``kept``, which a test passes to
    keep them over several calls, and each call hands out a fresh copy."""
    kept = {} if kept is None else kept

    def once(builder):
        def base(*args):
            key = (builder, *args)
            if key not in kept:
                kept[key] = builder(*args)
            lists, *extras = kept[key]
            return fresh(lists), *extras
        return base

    for family, ref in REFERENCES.items():
        monkeypatch.setattr(
            families, BUILDERS[family].__name__, once(ref) if family in KEPT else ref
        )
        monkeypatch.setitem(families._BUILDERS, family, ref)
    monkeypatch.setattr(families, "_pt", once(BUILDERS["pt"]))
    monkeypatch.setattr(families, "_merged", merged)
    monkeypatch.setattr(families, "_draft", draft)

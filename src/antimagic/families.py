"""Builders for every labeled graph family, laid on their hubs and merged vertices.

Each builder returns its unfinished ``(lists, instance, *extras)``: the
instance pins the family tag, validated parameters, the closed-form expected
palette and the expected degree census.  :func:`build_family` alone finishes
the lists, into ``(graph, labeling, instance)``.  The builders perform the
constructions exactly, all in index space, with labels read off the rows of
one of the three matrices, into plain lists, and name each vertex by the int
code of its name (:func:`antimagic.graph._code`), so a build makes no name.
The bases ``fb``, ``tfb``, ``df`` and ``np3o3`` lay each labeled cell
straight onto the hubs it shares through the one cell builder,
:func:`_join_cells`, which reads each join's rows off the table by position,
and state their palette and census through :func:`_join_claims`, from the
colors the table states; ``pt`` lays its rails and rungs.  Every other
family lays blocks of a base's vertices on merged vertices through
``_merged``, and ``gn`` swaps rail edges between pairs of a bracelet's hubs:
both only rewrite edge ends, so labels stay with their edges.  One draft
and one graph are made per build, and a builder takes only parameters its
instance records: ``gb`` reads its base off ``indices``.

Correctness authority is the certificate, not the construction: every
builder's output is expected to pass :func:`antimagic.graph.certify` with
exactly three induced colors equal to the closed forms.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    ConditionViolated,
    GraphSurgeryError,
    InvalidFactorization,
    InvalidIndices,
    InvalidParams,
    InvalidParity,
    InvariantError,
    NoValidPartition,
    OverlappingBlocks,
    UsageError,
)
from .graph import EdgeLabeling, Graph, _code, _colors, _draft, _name, certify
from .partition import _position_blocks
from .tables import LabelTable, _join_colors, _join_rows, _odd_factorizations, _pt_colors
from .tables import _sequences, table_m1, table_m3, table_pt


class FamilyInstance(NamedTuple):
    """Family tag, validated parameters and the claims to certify."""

    family: str
    params: dict
    expected_palette: tuple[int, ...]
    expected_census: dict[int, int]
    expected_component_orders: tuple[int, ...] | None = None


BuildResult = tuple[Graph, EdgeLabeling, FamilyInstance]


def _palette(*colors: int) -> tuple[int, ...]:
    """The sorted closed-form colors, distinct for every valid parameter."""
    return tuple(sorted(colors))


def _census(*pairs: tuple[int, int]) -> dict[int, int]:
    # sum the counts of each degree (roles can share one: 3s == 3 at s=1), drop zeros
    out: dict[int, int] = {}
    for d, c in pairs:
        out[d] = out.get(d, 0) + c
    return {d: c for d, c in out.items() if c}


# the vertex codes, the two ends of each edge by index and the label at
# each edge position: the arguments of the build's one draft (graph._draft)
Lists = tuple
Built = tuple[Lists, FamilyInstance]


def _vertices(role: str, column: Iterable[int]) -> Iterator[int]:
    """``_vertices("u", range(1, 4))`` is the codes of u_1, u_2, u_3, made in C."""
    return map(_code(role, 0).__add__, column)


def _merged(
    built: Built,
    family: str,
    params: dict,
    blocks: Sequence[Sequence[int]],
    color: int,
    degree: int,
    new_ids: Sequence[int] | None = None,
) -> tuple[Lists, FamilyInstance, range]:
    """Lay ``blocks`` of a base on merged vertices coded ``new_ids``, m_1..m_r
    unless given, and scale its claims to match.  Returns the merged lists
    and the indices of the new vertices.

    The blocks are trusted to be r blocks of s vertices of one independent
    class of ``color`` and ``degree``, and r and s are read off them.  Labels
    stay with their edges, so a block is one vertex of color s*color and
    degree s*degree: the color becomes s*color and r*s vertices of degree d
    become r vertices of degree s*d.  The certificate checks the scaled
    palette and census, as it checks the tables and the partition.

    One index list sends each member to its block's vertex and every other
    vertex to its place once the members are gone; the codes drop the
    members and end with the new ids.  Nothing here checks the moved edges:
    the build's one draft does (:func:`_draft`).  A member met in two
    blocks is named here.
    """
    lists, base = built
    names, a, b, labels = lists
    r, s = len(blocks), len(blocks[0])
    palette = _palette(*(s * c if c == color else c for c in base.expected_palette))
    census = _census(*base.expected_census.items(), (degree, -r * s), (s * degree, r))
    ids = new_ids or [_code("m", j) for j in range(1, r + 1)]

    # plain loops over a list: faster here than C-level maps over a dict
    top = len(names) - sum(map(len, blocks))
    new = range(top, top + r)
    to: list = [None] * len(names)
    for h, block in zip(new, blocks):
        for v in block:
            to[v] = h
    if to.count(None) != top:
        seen: set[int] = set()  # the first member met again, in block order
        twice = next(v for v in chain.from_iterable(blocks) if v in seen or seen.add(v))
        raise OverlappingBlocks(f"{_name(names, twice)} appears in two blocks")
    kept = [v for v, h in enumerate(to) if h is None]
    for i, v in enumerate(kept):
        to[v] = i
    laid = (
        [*map(names.__getitem__, kept), *ids],
        list(map(to.__getitem__, a)), list(map(to.__getitem__, b)), labels,
    )
    return laid, FamilyInstance(family, params, palette, census), new


# ---------------------------------------------------------------------------
# Cells joined to m hubs, and the m = 1 families: fans and diamond fans
# ---------------------------------------------------------------------------


def _fan_at(role: str, i: int, k: int) -> int:
    """The index of ``role``_i in :func:`_join_cells`: a run of 2k+1 per role."""
    return "uvw".index(role) * (2 * k + 1) + i - 1


def _join_cells(
    table: LabelTable,
    hubs: Sequence[int],
    joins: Sequence[tuple[Sequence[int], Sequence[int]]],
) -> Lists:
    """2k+1 cells labeled column-wise and laid on their hubs: cell i is the
    P3 u_i w_i v_i, and in join j w_i is joined to ``hubs[w_hub[i-1]]`` and
    u_i, v_i to ``hubs[uv_hub[i-1]]``, for ``(w_hub, uv_hub) = joins[j]``.

    The table's rows are read by position (:func:`antimagic.tables._join_rows`):
    the two path rows label u-w and v-w, and join j's hub-w, hub-u and hub-v
    edges carry its C, L and R rows.  The u, v, w runs come first, then the
    hubs; the path edges first, then each join's in turn.
    """
    n = table.columns
    (uw, vw), rows = _join_rows(table)
    # one int per vertex index, which every edge end at that vertex shares
    ends = list(range(3 * n + len(hubs)))
    u, v, w, x = ends[:n], ends[n:2 * n], ends[2 * n:3 * n], ends[3 * n:]
    a, b, labels = [*u, *v], [*w, *w], [*uw, *vw]
    for (w_hub, uv_hub), (c, left, right) in zip(joins, rows):
        xw, xuv = list(map(x.__getitem__, w_hub)), list(map(x.__getitem__, uv_hub))
        a += [*xw, *xuv, *xuv]
        b += [*w, *u, *v]
        labels += [*c, *left, *right]
    return (
        [*chain.from_iterable(_vertices(role, range(1, n + 1)) for role in "uvw"), *hubs],
        a, b, labels,
    )


def _join_claims(table: LabelTable, hubs: int) -> tuple[tuple, dict]:
    """The palette and census of the 2k+1 cells on ``table``'s m joins, each
    of the ``hubs`` hubs taking p = m(2k+1)/hubs columns' joins: the colors
    of w and of u, v that the table states, and p hub shares; degree m+1 for
    u and v, m+2 for w, 3p for a hub.  Closed forms, never read off the lists."""
    w, uv, share = _join_colors(table.kind, table.k)
    n, m = table.columns, len(_join_rows(table)[1])
    p = m * n // hubs
    return _palette(w, uv, p * share), _census((m + 1, 2 * n), (m + 2, n), (3 * p, hubs))


def _fb(n: int) -> Built:
    """Fan with n blades: all 2k+1 cells on one hub x."""
    if n == 1:
        raise InvalidParity("n = 1 is handled by the exact solver, not a builder")
    if n < 3 or n % 2 == 0:
        raise InvalidParity(f"fan builder needs odd n >= 3, got {n}")
    k = (n - 1) // 2
    hub, table = [0] * n, table_m1(k)
    d = _join_cells(table, [_code("x")], [(hub, hub)])
    return d, FamilyInstance("fb", {"n": n, "k": k}, *_join_claims(table, 1))


def _tfb(t: int, s: int) -> tuple[Lists, FamilyInstance, list[list[int]]]:
    """t disjoint fans with s blades each, the cells on hubs y_1..y_t grouped
    by an equal-sum partition of the cell hub sums (an arithmetic
    progression); plus each fan's sorted cell columns."""
    if t < 3 or s < 3 or t % 2 == 0 or s % 2 == 0:
        raise InvalidFactorization(f"need odd t, s >= 3, got t={t}, s={s}")
    k = (t * s - 1) // 2

    # cell i has hub sum 23k+14-2i, so cell 2k+1-p has the p-th smallest;
    # the positions are read unchecked, as tables are; the certificate checks the sums
    columns = [sorted(2 * k + 1 - p for p in blk) for blk in _position_blocks(t, s)]
    hub = [0] * (2 * k + 1)
    for a, cols in enumerate(columns):
        for c in cols:
            hub[c - 1] = a
    table = table_m1(k)
    d = _join_cells(table, [_code("y", a) for a in range(1, t + 1)], [(hub, hub)])

    inst = FamilyInstance(
        "tfb", {"t": t, "s": s, "k": k}, *_join_claims(table, t),
        expected_component_orders=tuple([3 * s + 1] * t),
    )
    return d, inst, columns


def _df(r: int, s: int) -> tuple[Lists, FamilyInstance, range]:
    """r diamond fans plus one fan: 2r+1 blocks of s cells, the middle
    block on one hub x and every other cell's w on one hub and its u, v on
    another, crosswise between opposite blocks; plus the hubs x, y_1, z_1,
    ..., y_r, z_r."""
    if r < 1 or s < 1 or s % 2 == 0:
        raise InvalidParams(f"need r >= 1 and odd s >= 1, got r={r}, s={s}")
    m = (2 * r + 1) * s
    k = (m - 1) // 2

    # block j holds cells (j-1)s+1 .. js.  Hub y_j (at 2j-1) takes the w
    # of block j <= r and the u, v of its opposite block 2r+2-j, hub z_j
    # (at 2j) the other two, and the middle block r+1 is a fan on x (at 0)
    ys, zs = range(1, 2 * r, 2), range(2, 2 * r + 1, 2)

    def by_block(near: range, far: range) -> list[int]:
        return list(chain.from_iterable(repeat(h, s) for h in (*near, 0, *reversed(far))))

    hubs = [_code("x"), *(_code(role, j) for j in range(1, r + 1) for role in "yz")]
    table = table_m1(k)
    d = _join_cells(table, hubs, [(by_block(ys, zs), by_block(zs, ys))])

    inst = FamilyInstance(
        "df", {"r": r, "s": s, "k": k}, *_join_claims(table, 2 * r + 1),
        expected_component_orders=tuple(sorted([6 * s + 2] * r + [3 * s + 1])),
    )
    return d, inst, range(3 * m, 3 * m + 2 * r + 1)


def _fan_class(variant: int, k: int) -> tuple[tuple[str, ...], int, int]:
    """Roles, color and degree of the fan cell class that variant 1 (the
    degree-2 rim vertices u, v) or 2 (the degree-3 path centers w) merges."""
    w, uv, _ = _join_colors("m1", k)
    return (("u", "v"), uv, 2) if variant == 1 else (("w",), w, 3)


def _fb_merged(variant: int, r: int, s: int) -> tuple[Lists, FamilyInstance, range]:
    """Merge the degree-2 rim vertices (variant 1) or the degree-3 path
    centers (variant 2) across the t = r fan components."""
    if r < 3 or s < 3 or r % 2 == 0 or s % 2 == 0:
        raise InvalidFactorization(f"need odd r, s >= 3, got r={r}, s={s}")
    d, base, comp_cols = _tfb(r, s)
    k = base.params["k"]
    roles, color, degree = _fan_class(variant, k)
    # block (j, role) takes the j-th cell of every fan component
    rows = list(zip(*comp_cols))
    return _merged(
        (d, base), f"fb{variant}", {"r": r, "s": s, "k": k},
        [[_fan_at(role, c, k) for c in row] for row in rows for role in roles],
        color, degree, [_code(role, j) for j in range(1, s + 1) for role in roles],
    )


def _df_merged(variant: int, r: int, s: int) -> tuple[Lists, FamilyInstance, range]:
    """Merge one fan cell class of a diamond-fan union into equal blocks:
    variant 1 the degree-2 class into 2s blocks, variant 2 the degree-3
    class into s blocks.  Each block takes one vertex from the fan
    component and, per diamond component, one from each of its two hub
    sides, so block members never share a neighbor.
    """
    if s < 3 or s % 2 == 0:
        raise InvalidParams(f"variant {variant} needs odd s >= 3, got s={s}")
    d, base, _ = _df(r, s)
    k = base.params["k"]

    # one column of cells for the fan (block r+1), one for each hub side of
    # each diamond (blocks j and 2r+2-j, which start at cells (j-1)s+1 and
    # (2r+1-j)s+1); block b takes the b-th class member of every column
    roles, color, degree = _fan_class(variant, k)
    firsts = [_fan_at(role, 1, k) for role in roles]
    starts = [r * s, *chain.from_iterable((j * s, (2 * r - j) * s) for j in range(r))]
    blocks = list(zip(*(
        [i for first in firsts for i in range(first + start, first + start + s)]
        for start in starts
    )))
    return _merged((d, base), f"df{variant}", {"r": r, "s": s, "k": k}, blocks, color, degree)


def _df3(r: int, s: int, r1: int) -> tuple[Lists, FamilyInstance, range]:
    """Merge the 2r+1 hubs of a diamond-fan union into r1 blocks of
    r2 = (2r+1)/r1 consecutive hubs."""
    if r1 < 3 or (2 * r + 1) % r1 or (2 * r + 1) // r1 < 3:
        raise InvalidFactorization(
            f"variant 3 needs 2r+1 = r1*r2 with r1, r2 >= 3, got r={r}, r1={r1}"
        )
    d, base, hubs = _df(r, s)
    k = base.params["k"]
    r2 = (2 * r + 1) // r1
    return _merged(
        (d, base), "df3", {"r": r, "s": s, "k": k, "r1": r1, "r2": r2},
        [hubs[c * r2: (c + 1) * r2] for c in range(r1)], s * _join_colors("m1", k)[2], 3 * s,
    )


# ---------------------------------------------------------------------------
# Peanuts and bracelets
# ---------------------------------------------------------------------------


def _pt(n: int) -> Built:
    """Peanut graph: two 3-cycles and n 6-cycles on two rails plus rungs;
    x, y, u_i, v_i are 0, 1, 1+i, 2n+2+i."""
    if n < 2 or n % 2:
        raise InvalidParity(
            f"peanut builder needs even n >= 2 (odd n is open), got {n}"
        )
    k = n // 2
    t = table_pt(k)
    tr = _sequences(t)

    top = 2 * n + 1
    rail1 = [0, *range(2, top + 2), 1]
    rail2 = [0, *range(top + 2, 2 * top + 2), 1]
    r3 = t.rows["R3"]
    # rung j joins u_(2j-1) and v_(2j-1)
    d = (
        [_code("x"), _code("y"), *_vertices("u", range(1, top + 1)),
         *_vertices("v", range(1, top + 1))],
        rail1[:-1] + rail2[:-1] + list(range(2, top + 2, 2)),
        rail1[1:] + rail2[1:] + list(range(top + 2, 2 * top + 2, 2)),
        [*tr.s1, *tr.s2, *(r3[col - 1] for col in tr.r3_columns)],
    )
    palette = _palette(*_pt_colors(k))
    inst = FamilyInstance(
        "pt", {"n": n, "k": k}, palette,
        _census((2, 2 * n + 2), (3, 2 * n + 2)),
    )
    return d, inst


def _tb(n: int) -> tuple[Lists, FamilyInstance, range]:
    """Triangular bracelet: the peanut with its rails zipped together, x, y
    and each u_(2i), v_(2i) into z_(2i); plus the hubs z_0, z_2, ..., z_(2n)
    in rim order."""
    pairs = [(0, 1)] + [(1 + 2 * i, 2 * n + 2 + 2 * i) for i in range(1, n + 1)]
    return _merged(
        _pt(n), "tb", {"n": n, "k": n // 2}, pairs, _pt_colors(n // 2)[0], 2,
        list(_vertices("z", range(0, 2 * n + 1, 2))),
    )


def _deal(rims: Sequence[Sequence[int]], r: int) -> list[list[int]]:
    """Deal an independent color class into r equal blocks; every caller
    has checked that r >= 1 divides the class size.

    The caller hands the class over as ``rims``, cycles on which two members
    share a neighbor only when they are consecutive, cyclically.  The rims
    are laid end to end and position i goes to block i mod r, so consecutive
    members land in different blocks when r >= 2.  A rim a_0..a_(L-1) whose
    first member is in block p closes from block p+L-1 back to p, which
    clashes exactly when L = 1 (mod r) and L > 1, so L >= r+1.  Then a_(L-2)
    and a_(L-1) swap, into blocks p and p-1: the first has its rim neighbors
    a_(L-3) and a_(L-1) in blocks p-2 and p-1, the second both of its own in
    block p, and for r >= 3 these all differ.  Block sizes are unchanged.
    With r = 1 the premise is that no two members share a neighbor at all.

    The build's one draft certifies the deal, not a merge: :func:`_merged`
    lays the blocks unchecked, and a shared neighbor in a block, which means
    the rims broke the premise, is two edges joining the same two vertices,
    which the draft finds and names.
    """
    order: list[int] = []
    for rim in rims:
        rim = list(rim)
        if len(rim) > 1 and len(rim) % r == 1:
            rim[-2], rim[-1] = rim[-1], rim[-2]
        order += rim
    return [order[b::r] for b in range(r)]


def _pt_tb_merged(
    base: str, variant: int, n: int, r: int
) -> tuple[Lists, FamilyInstance, range]:
    """Merge one color class of the peanut or bracelet into r equal blocks.

    Variants 1 and 2 merge the two degree-3 classes, variant 3 the degree-2
    class (peanut) or degree-4 class (bracelet).  Size constraints follow the
    underlying statements: the peanut degree-3 merges allow a single block
    (r >= 1) because its class members never share a neighbor, while the
    bracelet variants require r and the block size to be odd and >= 3.
    """
    k = n // 2
    pair, low, high = _pt_colors(k)
    # the merged class: its color and degree in the base graph
    color, degree = ((low, 3), (high, 3), (pair, 2) if base == "pt" else (2 * pair, 4))[variant - 1]
    if base == "pt" and variant == 3:
        s = (2 * n + 2) // r if r >= 2 and (2 * n + 2) % r == 0 else 0
        if not 2 <= s <= n + 1:
            raise NoValidPartition(
                f"need r >= 2 with block size 2 <= (2n+2)/r <= n+1, got r={r}, n={n}"
            )
    else:
        least = 1 if base == "pt" else 3
        s = (n + 1) // r if r >= 1 and (n + 1) % r == 0 else 0
        # r and s divide n+1, which is odd for every n that the base accepts
        if r < least or s < 3:
            raise NoValidPartition(
                f"need odd r >= {least} with odd block size (n+1)/r >= 3, got r={r}, n={n}"
            )

    d, inst, *hubs = (_pt if base == "pt" else _tb)(n)
    if variant == 3:
        # x, u_2, ..., u_(2n), y, v_(2n), ..., v_2 of the peanut, or the
        # degree-4 hubs of the bracelet, which _tb returns in rim order
        items = hubs[0] if hubs else [
            0, *range(3, 2 * n + 2, 2), 1, *range(4 * n + 2, 2 * n + 3, -2)
        ]
    else:
        # one member per rung, ordered along the cycle so conflicts are
        # local.  Rung j joins u_(2j-1) and v_(2j-1), whose rail edges
        # carry pair j of S1 and of S2.  S1 opens with an (R2, R1) pair
        # and then alternates (R5, R4) and (R2, R1) pairs, the odd-k tail
        # included.  So by property (C), which test_table_proofs proves
        # for every k and the certificate checks in every build, u_(2j-1)
        # has color 9k+6 for odd j and 21k+12 for even j, and v_(2j-1)
        # the other one.  The bracelet zips only even rail vertices, so
        # its rungs keep these colors.  Rung j is edge 4n+3+j, with
        # u_(2j-1) at end a, in both: a merge moves no edge
        ends = d[1], d[2]
        items = [ends[j % 2 != variant % 2][4 * n + 3 + j] for j in range(1, n + 2)]
    return _merged(
        (d, inst), f"{base}{variant}", {"n": n, "k": k, "r": r, "s": s},
        _deal([items], r), color, degree,
    )


def valid_gn_index_lists(n: int) -> list[tuple[int, ...]]:
    """All index lists i1 < ... < ir with 8*i(a+1) > 16*ia - 2 and n >= 8*ir - 2, sorted."""
    top = (n + 2) // 8
    out: list[tuple[int, ...]] = []

    def grow(prefix: list[int]) -> None:
        out.append(tuple(prefix))
        # 8*next > 16*last - 2 over the integers means next >= 2*last
        for nxt in range(2 * prefix[-1], top + 1):
            grow(prefix + [nxt])

    for first in range(1, top + 1):
        grow([first])
    return out


def _gn(n: int, indices: Sequence[int]) -> tuple[Lists, FamilyInstance, list[list[int]]]:
    """Disjoint union of bracelets cut out of one big bracelet; plus the
    hubs of each bracelet in cycle order, the bracelet of u_1 first.

    For each index ia, the degree-4 hubs z_lo and z_hi at cycle positions
    lo = 8*ia-2 and hi = 16*ia-4 swap their upper rail edges, which
    detaches one bracelet with 4*ia-2 rim cells.  Edges keep their labels.
    """
    indices = tuple(indices)
    if not indices or any(i < 1 for i in indices) or list(indices) != sorted(set(indices)):
        raise InvalidIndices(f"indices must be strictly increasing positives, got {indices}")
    for a in range(len(indices) - 1):
        if not 8 * indices[a + 1] > 16 * indices[a] - 2:
            raise ConditionViolated(
                "a", f"8*{indices[a + 1]} <= 16*{indices[a]} - 2"
            )
    if n < 8 * indices[-1] - 2:
        raise ConditionViolated("b", f"n = {n} < 8*{indices[-1]} - 2")

    d, base, hubs = _tb(n)
    k = base.params["k"]
    hub = dict(zip(range(0, 2 * n + 1, 2), hubs))

    # on the rails of _pt the edges from z_m to u_(m+1) and v_(m+1) are at
    # positions m and 2n+2+m, with z_m at end a.  Swapping them between z_lo
    # and z_hi leaves z_lo its lower half and z_hi's upper half, and z_hi
    # the other two
    ends = d[1]
    for ia in indices:
        lo, hi = 8 * ia - 2, 16 * ia - 4
        for p, q in ((lo, hi), (2 * n + 2 + lo, 2 * n + 2 + hi)):
            ends[p], ends[q] = ends[q], ends[p]

    # index ia cuts z_(8ia) .. z_(16ia-4) out into a bracelet of their own
    cuts = [range(8 * ia, 16 * ia - 3, 2) for ia in indices]
    cut = set().union(*cuts)
    rims = [[hub[m] for m in hub if m not in cut]] + [[hub[m] for m in c] for c in cuts]

    s = n - sum(4 * ia - 1 for ia in indices)
    orders = sorted([3 * (s + 1)] + [3 * (4 * ia - 1) for ia in indices])
    # the swaps keep every color and degree
    inst = FamilyInstance(
        "gn", {"n": n, "k": k, "indices": indices, "s": s},
        base.expected_palette, base.expected_census,
        expected_component_orders=tuple(orders),
    )
    return d, inst, rims


def _gb(
    n: int, r: int, s: int, indices: Sequence[int] | None = None
) -> tuple[Lists, FamilyInstance, range]:
    """Generalized bracelet: merge the n+1 degree-4 vertices of the bracelet,
    or of the bracelet union G(n; indices) when ``indices`` are given, into
    r blocks of s without common neighbors, dealt bracelet by bracelet
    along the rims (see :func:`_deal`).  The base is recorded as its family."""
    if n < 8 or n % 2:
        raise InvalidParity(f"need even n >= 8, got {n}")
    if r < 3 or s < 3 or r * s != n + 1:
        raise InvalidFactorization(f"need n+1 = r*s with r, s >= 3, got {r}*{s}")
    if indices is None:
        d, base_inst, hubs = _tb(n)
        rims = [hubs]
    else:
        d, base_inst, rims = _gn(n, indices)
    k = base_inst.params["k"]
    params = {"n": n, "k": k, "r": r, "s": s, "base": base_inst.family}
    if indices is not None:
        params["indices"] = tuple(indices)
    return _merged((d, base_inst), "gb", params, _deal(rims, r), 2 * _pt_colors(k)[0], 4)


# ---------------------------------------------------------------------------
# m = 3: triple-hub joins
# ---------------------------------------------------------------------------


def _np3_o3(n: int) -> Built:
    """n paths P3 joined to three independent hubs x_1, x_2, x_3, labeled by
    the 11-row matrix: the cells of :func:`_join_cells`, each join on one hub."""
    if n < 3 or n % 2 == 0:
        raise InvalidParity(f"need odd n >= 3, got {n}")
    k = (n - 1) // 2
    hubs, table = [_code("x", a) for a in (1, 2, 3)], table_m3(k)
    d = _join_cells(table, hubs, [([a] * n, [a] * n) for a in range(3)])
    return d, FamilyInstance("np3o3", {"n": n, "k": k}, *_join_claims(table, 3))


# ---------------------------------------------------------------------------
# Dispatch, verification and sweep grids
# ---------------------------------------------------------------------------

# each returns its unfinished (lists, instance, *extras)
_BUILDERS: dict[str, Callable[..., tuple]] = {
    "fb": _fb,
    "tfb": _tfb,
    "df": _df,
    "fb1": partial(_fb_merged, 1),
    "fb2": partial(_fb_merged, 2),
    "df1": partial(_df_merged, 1),
    "df2": partial(_df_merged, 2),
    "df3": _df3,
    "pt": _pt,
    "tb": _tb,
    "pt1": partial(_pt_tb_merged, "pt", 1),
    "pt2": partial(_pt_tb_merged, "pt", 2),
    "pt3": partial(_pt_tb_merged, "pt", 3),
    "tb1": partial(_pt_tb_merged, "tb", 1),
    "tb2": partial(_pt_tb_merged, "tb", 2),
    "tb3": partial(_pt_tb_merged, "tb", 3),
    "gn": _gn,
    "gb": _gb,
    "np3o3": _np3_o3,
}
FAMILY_TAGS = tuple(_BUILDERS)


def _check_binding(family: str, builder: Callable, params: dict) -> None:
    """Raise the usage error of parameters that ``builder`` does not take.
    Called only once a check or a call has failed, so neither the import nor
    a good call pays for reading the signature."""
    import inspect

    try:
        inspect.signature(builder).bind(**params)
    except TypeError as exc:
        raise InvalidParams(f"bad parameters for {family}: {exc}") from None


def build_family(family: str, **params) -> BuildResult:
    """Build one instance of ``family``: its builder's lists, finished by the
    build's one draft.  The builder chose every merge of the lists, so a
    surgery fault in them, a clash of ``_merged``'s blocks and the draft's
    included, is an :class:`InvariantError`, here and nowhere else."""
    try:
        builder = _BUILDERS[family]
    except KeyError:
        raise InvalidParams(f"unknown family {family!r}; known: {FAMILY_TAGS}") from None
    # exact types: a bool passes for an int, and a float fails deep in a
    # builder; a parameter the builder does not take is named as that first
    for key, value in params.items():
        if key == "indices":
            ok = type(value) in (list, tuple) and not {type(i) for i in value} - {int}
            kind = "a list or tuple of ints"
        else:
            ok, kind = type(value) is int, "an int"
        if not ok:
            _check_binding(family, builder, params)
            raise InvalidParams(f"bad parameters for {family}: {key} must be {kind}, got {value!r}")
    try:
        # drop the extras before the draft: held through it, they raise peak RSS
        lists, inst = builder(**params)[:2]
        return (*_draft(*lists), inst)
    except GraphSurgeryError as exc:
        raise InvariantError(f"{family}{params}: surgery on its own draft failed: {exc}") from None
    except TypeError:
        # only a binding failure is a usage error; a TypeError raised inside
        # a builder is a bug and propagates unchanged
        _check_binding(family, builder, params)
        raise


def _first_violations(cert, kinds: tuple[str, ...]) -> str:
    """The first three violations of the given kinds, each as its kind, its
    edge (or the edges sharing a label) and its label or color."""
    named = []
    for v in cert.violations:
        if v["kind"] in kinds:
            edges = [v["edge"]] if "edge" in v else v["edges"]
            value = f"label {v['label']}" if "label" in v else f"color {v['color']}"
            named.append(f"{v['kind']} at {' and '.join('-'.join(e) for e in edges)} ({value})")
    return ": " + ", ".join(named[:3]) + (", ..." if len(named) > 3 else "")


def _first_named(g: Graph, test: Callable[[int], bool]) -> str:
    """`` (first x)``, naming x, the first vertex in listing order whose index
    passes ``test``; empty when no vertex does."""
    _, names, _, at, _, _ = g._listed()
    first = next((name for name, i in zip(names, at) if test(i)), None)
    return "" if first is None else f" (first {first})"


def verify_instance(g: Graph, f: EdgeLabeling, inst: FamilyInstance):
    """Certify one built instance against every claim it carries.

    Checks: bijective labels, local antimagic, exactly 3 colors, palette
    equal to the closed forms, triangle present, degree census, and (when
    recorded) the component orders, read off the walk that the certificate
    made.  Raises :class:`InvariantError` with the full problem list on any
    failure, naming the first vertex in listing order outside the palette and
    of each degree whose count is off; returns the certificate otherwise.
    """
    cert = certify(g, f, inst.expected_palette)
    problems = []
    if not cert.is_bijective:
        problems.append(
            "labels are not a bijection onto [1, q]"
            + _first_violations(cert, ("label_out_of_range", "duplicate_label"))
        )
    if not cert.is_local_antimagic:
        problems.append(
            "labeling is not local antimagic"
            + _first_violations(cert, ("adjacent_equal_color",))
        )
    if cert.color_count != 3:
        problems.append(f"{cert.color_count} colors instead of 3")
    if cert.palette_ok is False:
        colors, allowed = _colors(g, f), set(inst.expected_palette)
        problems.append(
            f"palette {cert.palette} != expected {inst.expected_palette}"
            + _first_named(g, lambda i: colors[i] not in allowed)
        )
    if not cert.has_triangle:
        problems.append("no triangle: 3-color lower bound does not apply")
    actual_census = {d: count for d, (count, _) in cert.degree_census.items()}
    degree, comps, _ = g._walked()
    for d in sorted(actual_census.keys() | inst.expected_census.keys()):
        count, expected = actual_census.get(d, 0), inst.expected_census.get(d, 0)
        if count != expected:
            # a merge scales a claim it does not check, which can go negative
            claim = f"an impossible claim of {expected}" if expected < 0 else f"expected {expected}"
            problems.append(
                f"degree {d}: {count} vertices, {claim}"
                + _first_named(g, lambda i: degree[i] == d)
            )
    if inst.expected_component_orders is not None:
        orders = tuple(sorted(map(len, comps)))
        if orders != inst.expected_component_orders:
            problems.append(
                f"component orders {orders} != expected {inst.expected_component_orders}"
            )
    if problems:
        raise InvariantError(
            f"{inst.family}{inst.params} failed: " + "; ".join(problems)
        )
    return cert


# the one bound each family's grid reads, and each bound's default
GRID_BOUND = {
    **dict.fromkeys(("fb", "tfb", "df", "fb1", "fb2", "df1", "df2", "df3", "np3o3"), "max_size"),
    **dict.fromkeys(("pt", "tb", "pt1", "pt2", "pt3", "tb1", "tb2", "tb3", "gb"), "max_n"),
    "gn": "gn_max_n",
}
_BOUND_DEFAULT = {"max_size": 199, "max_n": 200, "gn_max_n": 60}

# the grids of t fans of s blades, s odd: the parameter, whether t = 2r + 1
# hubs (the diamond fans), the least s, and whether the grid skips k = 2 (mod 4),
# a carve-out of the grid's alone: fb1 and df1 build at every odd 2k+1
_FAN_GRIDS = {
    "tfb": ("t", False, 3, False), "fb1": ("r", False, 3, True), "fb2": ("r", False, 3, False),
    "df": ("r", True, 1, False), "df1": ("r", True, 3, True), "df2": ("r", True, 3, False),
}


def family_grid(family: str, bound: int | None = None) -> list[tuple[dict, str | None]]:
    """Enumerate one family's sweepable grid up to ``bound``, the one bound
    ``GRID_BOUND[family]`` names, or up to that bound's default when None.

    Returns (params, excluded_reason) pairs; excluded entries are the
    points the grid alone carves out (k = 2 mod 4 for the degree-2 class
    merges, which build there too) and are reported as skipped, not failed.
    """
    if family not in GRID_BOUND:
        raise InvalidParams(f"unknown family {family!r}")
    top = _BOUND_DEFAULT[GRID_BOUND[family]] if bound is None else bound
    out: list[tuple[dict, str | None]] = []
    if family in ("fb", "np3o3"):
        out = [({"n": n}, None) for n in range(3, top + 1, 2)]
    elif family in _FAN_GRIDS:
        name, hubs, least, excludes = _FAN_GRIDS[family]
        for t in range(3, top // least + 1, 2):
            for s in range(least, top // t + 1, 2):
                excluded = excludes and (t * s - 1) // 2 % 4 == 2
                params = {name: t // 2 if hubs else t, "s": s}
                out.append((params, "k = 2 (mod 4) excluded" if excluded else None))
    elif family == "df3":
        for r in range(4, (top - 1) // 2 + 1):
            hubs = 2 * r + 1
            for r1, r2 in _odd_factorizations(hubs, 3):
                if r2 < 3:
                    continue
                for s in range(1, top // hubs + 1, 2):
                    out.append(({"r": r, "s": s, "r1": r1}, None))
    elif family in ("pt", "tb"):
        out = [({"n": n}, None) for n in range(2, top + 1, 2)]
    elif family == "pt3":
        for n in range(2, top + 1, 2):
            for r in range(2, 2 * n + 3):
                if (2 * n + 2) % r == 0 and 2 <= (2 * n + 2) // r <= n + 1:
                    out.append(({"n": n, "r": r}, None))
    elif family in ("pt1", "pt2", "tb1", "tb2", "tb3", "gb"):
        # n+1 = r*s with s >= 3; the bracelets also need r >= 3, which no
        # n < 8 allows, since 3, 5 and 7 are prime
        least = 1 if family in ("pt1", "pt2") else 3
        for n in range(2, top + 1, 2):
            for r, s in _odd_factorizations(n + 1, least):
                if s >= 3:
                    params = {"n": n, "r": r, "s": s} if family == "gb" else {"n": n, "r": r}
                    out.append((params, None))
    else:  # gn
        for n in range(2, top + 1, 2):
            for indices in valid_gn_index_lists(n):
                out.append(({"n": n, "indices": indices}, None))
    return out


def sweep_family(family: str, bound: int | None = None) -> list[dict]:
    """Build and verify one family's grid up to ``bound``; one record per instance.

    A point that fails its certificate is recorded as ``fail``, one whose
    build raises a usage error as ``error``; either way the sweep goes on.
    """
    records = []
    for params, excluded in family_grid(family, bound):
        rec = {"family": family, "params": params}
        if excluded is not None:
            rec["status"] = "excluded"
            rec["reason"] = excluded
        else:
            try:
                g, f, inst = build_family(family, **params)
                cert = verify_instance(g, f, inst)
                rec["status"] = "pass"
                rec["palette"] = list(cert.palette)
                rec["order"] = g.order
                rec["size"] = g.size
            except InvariantError as exc:
                rec["status"] = "fail"
                rec["reason"] = str(exc)
            except UsageError as exc:
                rec["status"] = "error"
                rec["reason"] = str(exc)
        records.append(rec)
    return records

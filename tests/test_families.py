"""Per-family construction tests: golden palettes, frozen label sequences,
structure checks, and the parameter guards."""

import hashlib
import inspect
import json
import sys
from functools import partial

import pytest

from adjacency import components, neighbors
from grid_artifacts import POINTS, grid_points
from grid_pass import grid_pass
from hub_reference import SurgeryDraft, named, use_references
from antimagic import families, graph, io
from antimagic.cli import main
from antimagic.errors import (
    ConditionViolated,
    InvalidFactorization,
    InvalidIndices,
    InvalidParams,
    InvalidParity,
    InvariantError,
    MergeWouldCreateLoop,
    MergeWouldCreateParallelEdge,
    NoValidPartition,
)
from antimagic.families import (
    build_family,
    family_grid,
    sweep_family,
    valid_gn_index_lists,
    verify_instance,
)
from antimagic.graph import (
    EdgeLabeling,
    V,
    certify,
    edge,
    induce_coloring,
    merge_vertices,
)
from antimagic.tables import LabelTable, table_m1, table_m3, table_pt


def built_ok(family, **params):
    g, f, inst = build_family(family, **params)
    cert = verify_instance(g, f, inst)
    return g, f, inst, cert


def _labels_at(g, f, v):
    return {f.labels[edge(v, u)] for u in neighbors(g)[v]}


def _blocks_read_off(g, f, new, members):
    """The merged blocks of a build, read off its graph: for each vertex of
    ``new``, in order, the sorted names of the ``members`` (vertex -> labels in
    the base) whose labels it carries.  Labels travel with their edges, so a
    merged vertex carries exactly the labels of its block."""
    blocks = []
    for m in new:
        labels = _labels_at(g, f, m)
        block = sorted(v for v, own in members.items() if own <= labels)
        assert set().union(*(members[v] for v in block)) == labels
        blocks.append(tuple(map(str, block)))
    return tuple(blocks)


def _merged_blocks(base, merged):
    """The blocks a merged build made of its base build, in the order of the
    merged vertices' ids.  A merge may reuse a member's name, so vertices are
    told apart by labels: the members are the base vertices whose labels no
    merged vertex carries alone, and the new vertices those whose labels no
    base vertex does."""
    (g0, f0, _), (g, f, _) = base, merged
    before = {frozenset(_labels_at(g0, f0, v)): v for v in g0.vertices}
    after = {frozenset(_labels_at(g, f, v)): v for v in g.vertices}
    members = {v: set(labels) for labels, v in before.items() if labels not in after}
    new = sorted(v for labels, v in after.items() if labels not in before)
    return _blocks_read_off(g, f, new, members)


# --- fans ---------------------------------------------------------------------


def test_fb_small_palettes():
    _, _, inst, cert = built_ok("fb", n=3)
    assert cert.palette == (15, 16, 99)
    _, _, inst, cert = built_ok("fb", n=9)
    assert cert.palette == (42, 46, 864)


def test_fb9_hub_color_is_last_three_rows_total():
    g, f, _ = build_family("fb", n=9)
    assert induce_coloring(g, f)[V("x")] == (7 * 4 + 4) * (6 * 4 + 3) == 864
    assert len(neighbors(g)[V("x")]) == 27


@pytest.mark.parametrize("call, error, message", [
    (lambda: build_family("tfb", t=2, s=3), InvalidFactorization,
     "need odd t, s >= 3, got t=2, s=3"),
    (lambda: build_family("df", r=0, s=1), InvalidParams,
     "need r >= 1 and odd s >= 1, got r=0, s=1"),
    (lambda: build_family("df1", r=1, s=1), InvalidParams, "variant 1 needs odd s >= 3, got s=1"),
    (lambda: build_family("gb", n=9, r=2, s=5), InvalidParity, "need even n >= 8, got 9"),
    (lambda: build_family("gb", n=14, r=3, s=4), InvalidFactorization,
     "need n+1 = r*s with r, s >= 3, got 3*4"),
    (lambda: build_family("gb", n=14, r=3, s=5, base="gn"), InvalidParams,
     "bad parameters for gb: got an unexpected keyword argument 'base'"),
    (lambda: build_family("gb", n=14, r=3, s=5, indices=()), InvalidIndices,
     "indices must be strictly increasing positives, got ()"),
    (lambda: build_family("nope"), InvalidParams,
     f"unknown family 'nope'; known: {families.FAMILY_TAGS}"),
    (lambda: family_grid("nope"), InvalidParams, "unknown family 'nope'"),
    (lambda: build_family("fb", n=8), InvalidParity, "fan builder needs odd n >= 3, got 8"),
    (lambda: build_family("fb", n=1), InvalidParity,
     "n = 1 is handled by the exact solver, not a builder"),
    (lambda: build_family("pt", n=5), InvalidParity,
     "peanut builder needs even n >= 2 (odd n is open), got 5"),
    (lambda: build_family("np3o3", n=4), InvalidParity, "need odd n >= 3, got 4"),
], ids=["tfb-t2", "df-r0", "df1-s1", "gb-n9", "gb-s4", "gb-base-is-not-a-parameter", "gb-no-indices",
        "build-unknown", "grid-unknown", "fb-even", "fb-unit", "pt-odd", "np3o3-even"])
def test_builder_usage_errors_raise_their_type_and_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_tfb_3x3_matches_the_example_blocks():
    g, f, inst = build_family("tfb", t=3, s=3)
    # hub x_c of fan cell c carries column c of rows xw, xu and xv
    rows = table_m1(inst.params["k"]).rows
    members = {V("x", c): {rows[r][c - 1] for r in ("xw", "xu", "xv")} for c in range(1, 10)}
    record = _blocks_read_off(g, f, [V("y", a) for a in (1, 2, 3)], members)
    as_sets = {frozenset(b) for b in record}
    assert as_sets == {
        frozenset({"x_1", "x_5", "x_9"}),
        frozenset({"x_3", "x_4", "x_8"}),
        frozenset({"x_2", "x_6", "x_7"}),
    }
    colors = induce_coloring(g, f)
    assert [colors[V("y", a)] for a in (1, 2, 3)] == [288, 288, 288]


def test_tfb_3x5_palette():
    _, _, _, cert = built_ok("tfb", t=3, s=5)
    assert cert.palette == (69, 76, 795)


def test_tfb_merged_hub_color_equals_row_sum():
    for t, s in [(3, 3), (5, 3), (3, 7)]:
        g, f, inst = build_family("tfb", t=t, s=s)
        k = inst.params["k"]
        colors = induce_coloring(g, f)
        for a in range(1, t + 1):
            assert colors[V("y", a)] == s * (21 * k + 12)


# --- diamond fans ---------------------------------------------------------------


def test_df_1_3_is_df6_plus_fb3():
    g, _, inst, cert = built_ok("df", r=1, s=3)
    assert cert.palette == (42, 46, 288)
    orders = sorted(len(c) for c in components(g))
    assert orders == [10, 20]  # fan on 10 vertices + diamond fan on 20


def test_df_4_1_component_pairing():
    g, f, inst = build_family("df", r=4, s=1)
    # the j-th diamond couples cells j and 10-j; hub y_j sees w_j and u/v_{10-j}
    near = neighbors(g)
    for j in range(1, 5):
        nbrs = near[V("y", j)]
        assert V("w", j) in nbrs
        assert V("u", 10 - j) in nbrs and V("v", 10 - j) in nbrs
    assert len(components(g)) == 5
    verify_instance(g, f, inst)


def test_df_1_1_palette():
    _, _, _, cert = built_ok("df", r=1, s=1)
    assert cert.palette == (15, 16, 33)


def test_df_census_formula():
    for r, s in [(1, 3), (2, 3), (3, 1), (2, 5)]:
        g, f, _ = build_family("df", r=r, s=s)
        expected = {}
        for d, c in ((2, (4 * r + 2) * s), (3, (2 * r + 1) * s), (3 * s, 2 * r + 1)):
            expected[d] = expected.get(d, 0) + c
        census = certify(g, f).degree_census
        assert {d: count for d, (count, _) in census.items()} == expected


# --- merged fans -----------------------------------------------------------------


def test_fb_merged_palettes():
    _, _, _, cert = built_ok("fb1", r=3, s=3)
    assert cert.palette == (42, 138, 288)
    _, _, _, cert = built_ok("fb2", r=3, s=3)
    assert cert.palette == (46, 126, 288)


def test_df_merged_palettes():
    _, _, _, cert = built_ok("df2", r=1, s=3)
    assert cert.palette == (46, 126, 288)
    _, _, _, cert = built_ok("df3", r=4, s=1, r1=3)
    assert cert.palette == (42, 46, 288)


def test_fb1_and_df1_build_at_k_2_mod_4():
    # t = 3 fans of s = 7 blades, so k = 10: fb1 merges the rim vertices of
    # tfb(3, 7), df1 those of df(1, 7); 2s rim blocks of t members each
    for family, params in (("fb1", {"r": 3, "s": 7}), ("df1", {"r": 1, "s": 7})):
        _, _, inst, cert = built_ok(family, **params)
        assert inst.params["k"] == 10
        assert cert.palette == (96, 318, 1554)  # 9k+6, t(10k+6), s(21k+12)
        census = {d: count for d, (count, _) in cert.degree_census.items()}
        assert census == {3: 21, 21: 3, 6: 14}  # ts centers, t hubs, 2s rim blocks


def test_fb1_and_df1_certify_every_point_their_grid_excludes():
    # the default grid skips k = 2 (mod 4); the builders do not
    def skipped(bound):
        return [
            (family, params)
            for family in ("fb1", "df1")
            for params, excluded in family_grid(family, bound)
            if excluded is not None
        ]

    points = skipped(None)
    assert len(points) == 72
    for family, params in points + skipped(999)[::16]:
        _, _, inst, _ = built_ok(family, **params)
        assert inst.params["k"] % 4 == 2, (family, params)


@pytest.mark.parametrize(
    "params",
    [{"r": 4, "s": 999, "r1": 2}, {"r": 0, "s": 1, "r1": 3}, {"r": 3, "s": 1, "r1": 3}],
    ids=["r1", "r-and-r1", "prime-hub-count"],  # 2r+1 = 7 is prime
)
def test_df3_checks_r1_before_it_builds_its_base(params, monkeypatch):
    def base(r, s):
        raise AssertionError("df3 built its base before it checked r1")

    # a bad r1 is refused first, also where r is bad too
    monkeypatch.setattr(families, "_df", base)
    with pytest.raises(InvalidFactorization) as info:
        build_family("df3", **params)
    assert str(info.value) == (
        "variant 3 needs 2r+1 = r1*r2 with r1, r2 >= 3, "
        f"got r={params['r']}, r1={params['r1']}"
    )


@pytest.mark.parametrize("family, params, error, message", [
    ("pt1", {"n": 4, "r": 2}, NoValidPartition,
     "need odd r >= 1 with odd block size (n+1)/r >= 3, got r=2, n=4"),
    ("pt2", {"n": 4, "r": 5}, NoValidPartition,
     "need odd r >= 1 with odd block size (n+1)/r >= 3, got r=5, n=4"),
    ("pt3", {"n": 20000, "r": 7}, NoValidPartition,
     "need r >= 2 with block size 2 <= (2n+2)/r <= n+1, got r=7, n=20000"),
    ("pt1", {"n": 3, "r": 2}, NoValidPartition,
     "need odd r >= 1 with odd block size (n+1)/r >= 3, got r=2, n=3"),
    ("tb1", {"n": 20000, "r": 2}, NoValidPartition,
     "need odd r >= 3 with odd block size (n+1)/r >= 3, got r=2, n=20000"),
    ("tb2", {"n": 14, "r": 1}, NoValidPartition,
     "need odd r >= 3 with odd block size (n+1)/r >= 3, got r=1, n=14"),
    ("tb3", {"n": 14, "r": 15}, NoValidPartition,
     "need odd r >= 3 with odd block size (n+1)/r >= 3, got r=15, n=14"),
    ("tb3", {"n": 6, "r": 7}, NoValidPartition,  # n+1 = 7 is prime, so no r = 7 with s >= 3
     "need odd r >= 3 with odd block size (n+1)/r >= 3, got r=7, n=6"),
    ("tb3", {"n": 4, "r": 5}, NoValidPartition,  # n < 8
     "need odd r >= 3 with odd block size (n+1)/r >= 3, got r=5, n=4"),
    ("df2", {"r": 1, "s": 4}, InvalidParams, "variant 2 needs odd s >= 3, got s=4"),
    ("fb2", {"r": 2, "s": 5}, InvalidFactorization, "need odd r, s >= 3, got r=2, s=5"),
    ("fb2", {"r": 3, "s": 1}, InvalidFactorization, "need odd r, s >= 3, got r=3, s=1"),
], ids=["pt1", "pt2", "pt3", "pt1-odd-n", "tb1", "tb2", "tb3", "tb3-prime", "tb3-small-n",
        "df2-even-s", "fb2-even-r", "fb2-unit-s"])
def test_merged_builders_refuse_before_they_build_their_base(
    family, params, error, message, monkeypatch
):
    def base(*args):
        raise AssertionError(f"{family} built its base before it checked {params}")

    # a bad parameter is refused first, also where the base would refuse n too
    for name in ("_pt", "_tb", "_df", "_tfb"):
        monkeypatch.setattr(families, name, base)
    with pytest.raises(error) as info:
        build_family(family, **params)
    assert str(info.value) == message


def test_no_build_merges_or_splits_and_each_makes_one_draft():
    # every family lays its graph, and the package holds no surgery kernel
    # (test_no_build_path_runs_a_kernel); the grid pass counts each build's
    # drafts
    for family, points in grid_pass().points.items():
        for point in points:
            assert point.drafts == 1, (family, point.params)


# sha256 over repr((family, g.names)) of each family's build at the first
# point of its default grid that the grid does not exclude, in FAMILY_TAGS
# order, as the builders named their vertices by VertexId
FIRST_POINT_NAMES_SHA256 = "c06f3808ebd377f4d7159cc85ec03460ca5f4457dba88dbdce077b0bf73b5c5f"


def test_a_build_and_its_certificate_make_no_vertex_name(monkeypatch):
    # a build names its vertices by int codes, and only a reader of names
    # (here the digest) decodes them, to the names the builders once made
    decoded = []
    monkeypatch.setattr(graph, "_decoded", lambda codes: decoded.append(codes))
    built = []
    for family in families.FAMILY_TAGS:
        params = next(p for p, excluded in family_grid(family) if excluded is None)
        g, f, inst = build_family(family, **params)
        verify_instance(g, f, inst)
        assert set(map(type, g._ids)) == {int}, family
        built.append((family, g))
        bound = {"max_size": 27, "max_n": 8, "gn_max_n": 14}[families.GRID_BOUND[family]]
        statuses = {r["status"] for r in sweep_family(family, bound)}
        assert "pass" in statuses and statuses <= {"pass", "excluded"}, family
    assert decoded == []
    monkeypatch.undo()
    digest = hashlib.sha256()
    for family, g in built:
        digest.update(repr((family, g.names)).encode())
    assert digest.hexdigest() == FIRST_POINT_NAMES_SHA256


def _patchable():
    """What the grid pass patches, as it stands."""
    return (
        graph._draft, families._draft, io._draft, families.build_family, families.verify_instance,
    )


UNPATCHED = _patchable()  # as it was before any test ran the pass


def test_the_grid_pass_walks_the_artifact_grid_and_undoes_its_patches():
    walked = [(family, p.params) for family, points in grid_pass().points.items() for p in points]
    assert len(walked) == POINTS and walked == grid_points()
    assert _patchable() == UNPATCHED


# sha256 over repr((names, a, b, labels)) of the draft of each build below,
# in turn, as SurgeryDraft.finish receives it: every vertex, dead ones included, and
# edge position of the builds that split by edge position, as the builders
# that split by end pairs left them.  The drafts are those of hub surgery
# (hub_reference), which splits the hubs of df and gn
SPLIT_DRAFTS = [
    ("df", {"r": 1, "s": 1}), ("df", {"r": 3, "s": 5}), ("df1", {"r": 1, "s": 3}),
    ("df2", {"r": 2, "s": 3}), ("df3", {"r": 4, "s": 1, "r1": 3}),
    ("gn", {"n": 30, "indices": (1, 2, 4)}),
]
SPLIT_DRAFTS_SHA256 = "124a4ec521d58eae8b0490c0399fab2b12d4e2ae8d3385d560c4008385491dbe"


def test_the_split_families_finish_their_pinned_drafts(monkeypatch):
    use_references(monkeypatch)
    digest, finish = hashlib.sha256(), SurgeryDraft.finish

    def hashed(d):
        digest.update(repr((d.names, d.a, d.b, d.labels)).encode())
        return finish(d)

    monkeypatch.setattr(SurgeryDraft, "finish", hashed)
    for family, params in SPLIT_DRAFTS:
        build_family(family, **params)
    assert digest.hexdigest() == SPLIT_DRAFTS_SHA256


# --- peanuts ---------------------------------------------------------------------


def pt_label_arrays(k):
    """Piecewise closed forms for the peanut rails and rungs, 1-based: an
    oracle derived independently of the traced sequences the builder walks.

    Returns ``(p1, p2, rungs)`` where ``p1[m]`` labels the m-th edge of the
    u-rail, ``p2[m]`` the m-th edge of the v-rail (m = 1..4k+2, edge 1 leaving
    the first cap), and ``rungs[j]`` labels the j-th rung (j = 1..2k+1).
    Even k fills k/2 eight-edge rounds; odd k stops the last round after the
    first half, which lands the rails on the four-term tail values.
    """
    p1 = [0] * (4 * k + 3)
    p2 = [0] * (4 * k + 3)
    rungs = [0] * (2 * k + 2)

    p1[1], p1[2] = 3 * k + 2, 2 * k + 1
    p2[1], p2[2] = 7 * k + 4, 10 * k + 5
    rungs[1] = 4 * k + 3

    if k % 2 == 0:
        first_half = last_half = range(1, k // 2 + 1)
    else:
        first_half = range(1, (k + 1) // 2 + 1)
        last_half = range(1, (k + 1) // 2)

    for i in first_half:
        p1[8 * i - 5] = 8 * k + 3 + 2 * i
        p1[8 * i - 4] = 8 * k + 5 - i
        p1[8 * i - 3] = 2 * k + 1 + i
        p1[8 * i - 2] = 2 * k + 2 - 2 * i
        p2[8 * i - 5] = 2 * i - 1
        p2[8 * i - 4] = 4 * k + 3 - i
        p2[8 * i - 3] = 6 * k + 3 + i
        p2[8 * i - 2] = 10 * k + 6 - 2 * i
        rungs[4 * i - 2] = 5 * k + 4 - i
        rungs[4 * i - 1] = 5 * k + 3 + i
    for i in last_half:
        p1[8 * i - 1] = 8 * k + 4 + 2 * i
        p1[8 * i] = 7 * k + 4 - i
        p1[8 * i + 1] = 3 * k + 2 + i
        p1[8 * i + 2] = 2 * k + 1 - 2 * i
        p2[8 * i - 1] = 2 * i
        p2[8 * i] = 3 * k + 2 - i
        p2[8 * i + 1] = 7 * k + 4 + i
        p2[8 * i + 2] = 10 * k + 5 - 2 * i
        rungs[4 * i] = 6 * k + 4 - i
        rungs[4 * i + 1] = 4 * k + 3 + i

    assert all(p1[1:]) and all(p2[1:]) and all(rungs[1:])
    return p1, p2, rungs


def test_pt_labels_agree_with_traced_sequences():
    # dual route: the builder walks the pt matrix through the traced
    # sequences, the oracle above uses piecewise closed forms; they must
    # produce the same labeling
    for k in range(1, 25):
        g, f, _ = build_family("pt", n=2 * k)
        p1, p2, rungs = pt_label_arrays(k)
        rail1 = [V("x")] + [V("u", i) for i in range(1, 4 * k + 2)] + [V("y")]
        rail2 = [V("x")] + [V("v", i) for i in range(1, 4 * k + 2)] + [V("y")]
        for m in range(1, 4 * k + 3):
            assert f.labels[edge(rail1[m - 1], rail1[m])] == p1[m]
            assert f.labels[edge(rail2[m - 1], rail2[m])] == p2[m]
        for j in range(1, 2 * k + 2):
            rung = edge(V("u", 2 * j - 1), V("v", 2 * j - 1))
            assert f.labels[rung] == rungs[j]


def test_pt4_rail_sequence_and_palette():
    g, f, inst, cert = built_ok("pt", n=4)
    assert cert.palette == (24, 26, 54)
    rail1 = [V("x")] + [V("u", i) for i in range(1, 10)] + [V("y")]
    labels = [f.labels[edge(rail1[m - 1], rail1[m])] for m in range(1, 11)]
    assert labels == [8, 5, 21, 20, 6, 4, 22, 17, 9, 3]


def test_pt10_rung_labels():
    g, f, _, _ = built_ok("pt", n=10)
    rungs = [
        f.labels[edge(V("u", 2 * j - 1), V("v", 2 * j - 1))] for j in range(1, 12)
    ]
    assert rungs == [23, 28, 29, 33, 24, 27, 30, 32, 25, 26, 31]


def test_pt2_smallest_case():
    _, _, _, cert = built_ok("pt", n=2)
    assert cert.palette == (15, 16, 33)


def test_pt_degree2_color_is_10k_plus_6():
    g, f, inst = build_family("pt", n=4)
    colors = induce_coloring(g, f)
    for v, nbrs in neighbors(g).items():
        if len(nbrs) == 2:
            assert colors[v] == 26


def test_pt_degree3_colors_alternate_along_rails():
    g, f, inst = build_family("pt", n=8)
    k = 4
    colors = induce_coloring(g, f)
    u_colors = [colors[V("u", 2 * j - 1)] for j in range(1, 2 * k + 2)]
    v_colors = [colors[V("v", 2 * j - 1)] for j in range(1, 2 * k + 2)]
    lo, hi = 9 * k + 6, 21 * k + 12
    assert u_colors == [lo if j % 2 else hi for j in range(1, 2 * k + 2)]
    assert v_colors == [hi if j % 2 else lo for j in range(1, 2 * k + 2)]


# --- bracelets -------------------------------------------------------------------


def test_tb10_palette():
    _, _, _, cert = built_ok("tb", n=10)
    assert cert.palette == (51, 112, 117)


def test_tb2_order_size_palette():
    g, _, _, cert = built_ok("tb", n=2)
    assert len(g.vertices) == 9 and len(g.edges) == 15
    assert cert.palette == (15, 32, 33)


def test_tb30_rung_sequence_golden():
    _, f30, _ = build_family("tb", n=30)
    rungs = [f30.labels[edge(V("u", 2 * j - 1), V("v", 2 * j - 1))] for j in range(1, 32)]
    assert rungs == [
        63, 78, 79, 93, 64, 77, 80, 92, 65, 76, 81, 91, 66, 75, 82, 90, 67,
        74, 83, 89, 68, 73, 84, 88, 69, 72, 85, 87, 70, 71, 86,
    ]


def _tb_cycle_labels(n, rail):
    """Consecutive edge labels of the bracelet cycle through one rail."""
    g, f, _ = build_family("tb", n=n)
    cycle = [V("z", 0)]
    for j in range(1, n + 2):
        cycle.append(V(rail, 2 * j - 1))
        cycle.append(V("z", 2 * j) if j <= n else V("z", 0))
    return [f.labels[edge(cycle[i], cycle[i + 1])] for i in range(len(cycle) - 1)]


def test_tb30_rail_cycle_labels_golden():
    assert _tb_cycle_labels(30, "u") == [
        47, 31, 125, 124, 32, 30, 126, 108, 48, 29, 127, 123, 33, 28, 128,
        107, 49, 27, 129, 122, 34, 26, 130, 106, 50, 25, 131, 121, 35, 24,
        132, 105, 51, 23, 133, 120, 36, 22, 134, 104, 52, 21, 135, 119, 37,
        20, 136, 103, 53, 19, 137, 118, 38, 18, 138, 102, 54, 17, 139, 117,
        39, 16,
    ]
    assert _tb_cycle_labels(30, "v") == [
        109, 155, 1, 62, 94, 154, 2, 46, 110, 153, 3, 61, 95, 152, 4, 45,
        111, 151, 5, 60, 96, 150, 6, 44, 112, 149, 7, 59, 97, 148, 8, 43,
        113, 147, 9, 58, 98, 146, 10, 42, 114, 145, 11, 57, 99, 144, 12, 41,
        115, 143, 13, 56, 100, 142, 14, 40, 116, 141, 15, 55, 101, 140,
    ]


# --- merged peanuts / bracelets ---------------------------------------------------


def test_pt3_smallest_example():
    _, _, _, cert = built_ok("pt3", n=2, r=3)
    assert cert.palette == (15, 32, 33)


def test_tb3_and_gb_examples():
    _, _, _, cert = built_ok("tb3", n=8, r=3)
    assert cert.palette == (42, 96, 276)
    _, _, _, cert = built_ok("gb", n=8, r=3, s=3)
    assert cert.palette == (42, 96, 276)
    _, _, _, cert = built_ok("gb", n=14, r=3, s=5)
    assert cert.palette == (69, 159, 760)


def test_tb3_is_gb_over_the_bracelet_at_every_grid_point():
    points = grid_pass().points
    assert len(points["tb3"]) == len(points["gb"]) == 144
    for tb3, gb in zip(points["tb3"], points["gb"]):
        params, n, r = tb3.params, tb3.params["n"], tb3.params["r"]
        assert gb.params == {"n": n, "r": r, "s": (n + 1) // r}, params
        if gb.digest != tb3.digest:  # only a mismatch builds the two again
            g, f, _ = build_family("tb3", n=n, r=r)
            g2, f2, _ = build_family("gb", **gb.params)
            assert io.graph_to_doc(g2, f2) == io.graph_to_doc(g, f), params
            assert io.graph_to_dot(g2, f2) == io.graph_to_dot(g, f), params
        assert gb.instance.expected_palette == tb3.instance.expected_palette, params
        assert gb.instance.expected_census == tb3.instance.expected_census, params


def test_pt1_merged_color_distinct_since_linear():
    # with block size 3 the merged color 3(9k+6) = 27k+18 always clears 21k+12
    g, f, inst, cert = built_ok("pt1", n=2, r=1)
    k = 1
    assert set(cert.palette) == {10 * k + 6, 3 * (9 * k + 6), 21 * k + 12}


def test_merged_block_assignment_explicit():
    items = [V("z", 0)] + [V("z", 2 * i) for i in range(1, 9)]
    blocks = [items[b::3] for b in range(3)]
    g, f, inst, cert = built_ok("tb3", n=8, r=3)
    assert cert.palette == (42, 96, 276)
    assert _merged_blocks(build_family("tb", n=8), (g, f, inst)) == tuple(
        tuple(str(v) for v in sorted(b)) for b in blocks
    )


def test_merged_block_with_common_neighbors_rejected():
    # consecutive bracelet hubs share two rim vertices: parallel edge guard
    g, _, _ = build_family("tb", n=8)
    items = [V("z", 0)] + [V("z", 2 * i) for i in range(1, 9)]
    blocks = [items[0:3], items[3:6], items[6:9]]
    with pytest.raises(MergeWouldCreateParallelEdge):
        merge_vertices(g, blocks, [V("m", b + 1) for b in range(3)])


@pytest.mark.parametrize(
    "base, variant, n, r",
    [("pt", 1, 8, 3), ("pt", 2, 8, 3), ("pt", 3, 2, 3),
     ("tb", 1, 8, 3), ("tb", 2, 8, 3), ("tb", 3, 8, 3)],
    ids=["pt1", "pt2", "pt3", "tb1", "tb2", "tb3"],
)
def test_degree_class_merges_induce_no_coloring(monkeypatch, base, variant, n, r):
    # the construction states every merged class; none is read off a coloring.
    # Every module of the package holding the accumulation is patched, so a
    # builder that imports it by name is caught too, and induce_coloring
    # calls it through the graph module.
    calls = []
    real = graph._colors
    for name, module in list(sys.modules.items()):
        if name.startswith("antimagic") and getattr(module, "_colors", None) is real:
            monkeypatch.setattr(module, "_colors", lambda g, f: calls.append(1) or real(g, f))
    build_family(f"{base}{variant}", n=n, r=r)
    assert calls == []


def test_rung_endpoint_colors_alternate_for_every_peanut_and_bracelet():
    # the oracle for the rung classes that the degree-3 merges take from the
    # construction: u_(2j-1) has 9k+6 for odd j and 21k+12 for even j
    for n in range(2, 201, 2):
        k = n // 2
        lo, hi = 9 * k + 6, 21 * k + 12
        for family in ("pt", "tb"):
            g, f, _ = build_family(family, n=n)
            colors = induce_coloring(g, f)
            for j in range(1, n + 2):
                u, v = colors[V("u", 2 * j - 1)], colors[V("v", 2 * j - 1)]
                assert (u, v) == ((lo, hi) if j % 2 else (hi, lo)), (family, n, j)


# --- bracelet unions --------------------------------------------------------------


def test_gn_10_splits_into_tb7_and_tb2():
    g, _, inst, cert = built_ok("gn", n=10, indices=(1,))
    orders = sorted(len(c) for c in components(g))
    assert orders == [9, 24]  # bracelets with 2 and 7 rim cells
    assert inst.params["s"] == 7
    assert cert.palette == (51, 112, 117)


def test_gn_30_with_indices_1_2_4():
    g, _, inst, _ = built_ok("gn", n=30, indices=(1, 2, 4))
    comps = components(g)
    assert sorted(map(len, comps)) == [9, 18, 21, 45]
    # every component is a bracelet: order 3(m+1), size 5(m+1), census checks
    near = neighbors(g)
    for comp in comps:
        m = len(comp) // 3 - 1
        comp_edges = [e for e in g.edges if e[0] in comp]
        assert len(comp_edges) == 5 * m + 5
        degs = sorted(len(near[v]) for v in comp)
        assert degs == [3] * (2 * m + 2) + [4] * (m + 1)


def test_gn_split_vertices_carry_the_stated_labels():
    # after the crosswise re-merge the two surgery vertices carry the two
    # label pairs of each half; check both parities of k
    for n, ia in [(10, 1), (12, 1)]:
        g, f, _ = build_family("gn", n=n, indices=[ia])
        k = n // 2
        lo, hi = 8 * ia - 2, 16 * ia - 4
        lo_labels = _labels_at(g, f, V("z", lo))
        hi_labels = _labels_at(g, f, V("z", hi))
        assert lo_labels == {
            2 * k + 2 - 2 * ia, 10 * k + 6 - 2 * ia,  # lower half kept
            2 * k + 1 + 2 * ia, 6 * k + 3 + 2 * ia,  # upper half of the mate
        }
        assert hi_labels == {
            8 * k + 4 + 2 * ia, 2 * ia,
            8 * k + 5 - 2 * ia, 4 * k + 3 - 2 * ia,
        }
        assert sum(lo_labels) == sum(hi_labels) == 20 * k + 12


def test_gn_condition_guards():
    with pytest.raises(ConditionViolated) as info:
        build_family("gn", n=30, indices=[2, 3])  # 8*3 = 24 <= 16*2 - 2 = 30
    assert info.value.which == "a"
    with pytest.raises(ConditionViolated) as info:
        build_family("gn", n=10, indices=[2])  # 10 < 8*2 - 2
    assert info.value.which == "b"
    with pytest.raises(InvalidIndices):
        build_family("gn", n=10, indices=[])
    with pytest.raises(InvalidIndices):
        build_family("gn", n=10, indices=[2, 1])


def test_gn_index_list_enumeration_n30():
    lists = set(valid_gn_index_lists(30))
    assert lists == {
        (1,), (2,), (3,), (4,),
        (1, 2), (1, 3), (1, 4), (2, 4),
        (1, 2, 4),
    }


def test_gb_over_gn_base():
    g, f, inst, cert = built_ok("gb", n=14, r=3, s=5, indices=(1,))
    assert cert.palette[2] == 5 * (20 * 7 + 12)


def _bracelet_rims(g):
    near = neighbors(g)
    return [sorted(v for v in comp if len(near[v]) == 4) for comp in components(g)]


def test_gb_over_gn_deals_each_bracelet_rim():
    # the stride-r round-robin of the sorted hubs puts two hubs with a common
    # neighbor into one block; the deal goes bracelet by bracelet instead
    base = build_family("gn", n=20, indices=(1, 2))
    g = base[0]
    hubs = sorted(v for v, nbrs in neighbors(g).items() if len(nbrs) == 4)
    round_robin = [hubs[b::3] for b in range(3)]
    with pytest.raises(MergeWouldCreateParallelEdge):
        merge_vertices(g, round_robin, [V("m", b + 1) for b in range(3)])

    *merged, cert = built_ok("gb", n=20, r=3, s=7, indices=(1, 2))
    assert cert.palette[2] == 7 * (20 * 10 + 12)
    record = _merged_blocks(base, merged)
    assert record != tuple(
        tuple(str(v) for v in sorted(b)) for b in round_robin
    )
    # rims of 11, 3 and 7 hubs; the one of 7 = 1 (mod 3) swaps its last two
    rims = _bracelet_rims(g)
    assert [len(rim) for rim in rims] == [11, 3, 7]
    order = rims[0] + rims[1] + rims[2][:5] + [rims[2][6], rims[2][5]]
    assert record == tuple(
        tuple(str(v) for v in sorted(order[b::3])) for b in range(3)
    )


def test_gb_over_gn_swaps_the_end_of_a_rim_of_1_mod_r():
    g, _, _ = build_family("gn", n=38, indices=(5,))
    rims = _bracelet_rims(g)
    assert sorted(len(rim) for rim in rims) == [19, 20]
    dealt = rims[0] + rims[1]
    with pytest.raises(MergeWouldCreateParallelEdge):
        merge_vertices(g, [dealt[b::3] for b in range(3)], [V("m", b + 1) for b in range(3)])
    built_ok("gb", n=38, r=3, s=13, indices=(5,))


def _merged_by_name(base, family, params, blocks, color, degree, new_ids=None):
    """``families._merged`` on a fresh unfinished base, its blocks and new ids
    given by vertex name."""
    lists, inst = base()
    at = {v: i for i, v in enumerate(named(lists[0]))}
    blocks = [[at[v] for v in block] for block in blocks]
    new_ids = new_ids and [graph._code(v.role, *v.indices) for v in new_ids]
    return families._merged((lists, inst), family, params, blocks, color, degree, new_ids)


def _finished_merge(*args):
    """The graph and labeling of :func:`_merged_by_name`'s lists, finished
    as ``build_family`` finishes them."""
    return families._draft(*_merged_by_name(*args)[0])


def _scrambled(rim):
    """``rim`` with its second member moved behind its fourth: rim neighbors
    z_0 and z_2 of a bracelet both land at a position = 0 (mod 3)."""
    return [*rim[:1], *rim[2:4], rim[1], *rim[4:]]


def test_merge_class_out_of_rim_order_raises_the_merge_fault():
    (rim,) = _bracelet_rims(build_family("tb", n=8)[0])
    params = {"n": 8, "k": 4, "r": 3, "s": 3}
    base = lambda: families._tb(8)[:2]  # noqa: E731
    _finished_merge(base, "tb3", params, families._deal([rim], 3), 92, 4)
    # the draft's finish names the fault; build_family converts it
    with pytest.raises(MergeWouldCreateParallelEdge) as info:
        _finished_merge(base, "tb3", params, families._deal([_scrambled(rim)], 3), 92, 4)
    assert str(info.value) == "two edges join m_1 and u_1 (positions 0 and 1)"


CLASHING_BLOCKS = [
    # u_1 and v_1 share their path center w_1 and their fan hub
    pytest.param(
        lambda: families._tfb(3, 3)[:2], "fb1", 10 * 4 + 6, 2, [V("u", 1), V("v", 1)],
        MergeWouldCreateParallelEdge, "two edges join m_1 and w_1 (positions 0 and 9)",
        id="shared-neighbor-fb1",
    ),
    # w_4 and w_5 both hang on the fan hub x
    pytest.param(
        lambda: families._df(1, 3)[:2], "df2", 9 * 4 + 6, 3, [V("w", 4), V("w", 5)],
        MergeWouldCreateParallelEdge, "two edges join m_1 and x (positions 21 and 22)",
        id="shared-neighbor-df2",
    ),
    # u_2 and u_4 share the rail vertex u_3
    pytest.param(
        lambda: families._pt(2), "tb", 10 * 1 + 6, 2, [V("u", 2), V("u", 4)],
        MergeWouldCreateParallelEdge, "two edges join m_1 and u_3 (positions 2 and 3)",
        id="shared-neighbor-tb",
    ),
    # u_2 and u_4 share u_3, at positions 2 and 3, and v_1 and v_2 meet at 7:
    # the draft names a loop before any parallel pair
    pytest.param(
        lambda: families._pt(2), "tb", 10 * 1 + 6, 2, [V("u", 2), V("u", 4), V("v", 1), V("v", 2)],
        MergeWouldCreateLoop, "loop edge at m_1", id="loop-after-a-shared-neighbor-tb",
    ),
    # the clash of a base's own merge, u_2 and u_4 into z_2, outlives a
    # later merge that is sound by itself
    pytest.param(
        lambda: _merged_by_name(
            lambda: families._pt(2), "tb", {}, [[V("u", 2), V("u", 4)]], 16, 2, [V("z", 2)]
        )[:2],
        "gb", 20 * 1 + 12, 4, [V("x"), V("y")],
        MergeWouldCreateParallelEdge, "two edges join u_3 and z_2 (positions 2 and 3)",
        id="clash-in-the-base-gb",
    ),
    # z_0 and u_1 are adjacent
    pytest.param(
        lambda: families._tb(8)[:2], "gb", 20 * 4 + 12, 4, [V("z", 0), V("u", 1)],
        MergeWouldCreateLoop, "loop edge at m_1", id="adjacent-gb",
    ),
]


@pytest.mark.parametrize("base, family, color, degree, block, fault, message", CLASHING_BLOCKS)
def test_clashing_blocks_of_a_merged_family_raise_the_merge_fault(
    base, family, color, degree, block, fault, message
):
    with pytest.raises(fault) as info:
        _finished_merge(base, family, {}, [block], color, degree)
    assert type(info.value) is fault and str(info.value) == message


def _fb1_rim_blocks():
    """fb1's rim blocks at r = s = 3, by name, as ``_fb_merged`` deals them."""
    rows = zip(*families._tfb(3, 3)[2])
    return [[V(role, c) for c in row] for row in rows for role in "uv"]


@pytest.mark.parametrize(
    "base, family, blocks, color, degree, message",
    [
        # m_1 = {u_2, v_2} has degree 4 and color 32, m_2 = {u_4} degree 2 and color 16
        (lambda: families._pt(2), "tb", [[V("u", 2), V("v", 2)], [V("u", 4)]], 16, 2,
         "tb{} failed: 4 colors instead of 3; palette (15, 16, 32, 33) != expected "
         "(15, 32, 33) (first m_2); degree 2: 4 vertices, expected 2 (first m_2); "
         "degree 4: 1 vertices, expected 2 (first m_1)"),
        # the rim class, of color 46, claimed at the path centers' 42
        (lambda: families._tfb(3, 3)[:2], "fb1", _fb1_rim_blocks(), 42, 2,
         "fb1{} failed: palette (42, 138, 288) != expected (46, 126, 288) (first m_1)"),
        # tb's own blocks, the whole degree-2 class, claimed at a degree the
        # peanut has no vertex of
        (lambda: families._pt(2), "tb", [[V("x"), V("y")], [V("u", 2), V("v", 2)],
                                         [V("u", 4), V("v", 4)]], 16, 5,
         "tb{} failed: degree 2: 0 vertices, expected 6; "
         "degree 4: 3 vertices, expected 0 (first m_1); "
         "degree 5: 0 vertices, an impossible claim of -6; degree 10: 0 vertices, expected 3"),
    ],
    ids=["unequal-blocks", "color-not-the-class", "degree-not-in-the-base"],
)
def test_a_wrong_claim_of_a_merge_fails_its_certificate(
    base, family, blocks, color, degree, message
):
    # _merged trusts its blocks and its claim, and scales the claim as given
    lists, inst, _ = _merged_by_name(base, family, {}, blocks, color, degree)
    g, f = families._draft(*lists)
    with pytest.raises(InvariantError) as info:
        verify_instance(g, f, inst)
    assert str(info.value) == message


def test_a_clash_in_fb1_blocks_fails_its_sweep_point(monkeypatch):
    real = families._tfb

    def swapped(t, s):
        d, inst, comp_cols = real(t, s)
        # the first row of cells now takes two cells of the first fan, whose
        # rim vertices meet at its hub
        comp_cols[0][1], comp_cols[1][0] = comp_cols[1][0], comp_cols[0][1]
        return d, inst, comp_cols

    monkeypatch.setattr(families, "_tfb", swapped)
    (rec,) = sweep_family("fb1", 9)
    assert rec["status"] == "fail"
    assert rec["reason"] == (
        "fb1{'r': 3, 's': 3}: surgery on its own draft failed: "
        "two edges join u_2 and y_2 (positions 29 and 30)"
    )


def _tfb_blocks_sharing_a_hub(monkeypatch):
    """tfb's hub positions with the largest of block 0, the position of cell
    1, put in block 1 as well, in place of its largest."""
    real = families._position_blocks

    def shared(t, s):
        blocks = real(t, s)
        blocks[1][blocks[1].index(max(blocks[1]))] = max(blocks[0])
        return blocks

    monkeypatch.setattr(families, "_position_blocks", shared)


def _pt_tb_blocks_sharing_a_member(monkeypatch):
    """Every deal with the first member of block 0 in block 1 as well."""
    real = families._deal

    def shared(rims, r):
        blocks = real(rims, r)
        blocks[1][0] = blocks[0][0]
        return blocks

    monkeypatch.setattr(families, "_deal", shared)


def _pt_tb_rims_out_of_order(monkeypatch):
    """Every deal of rims scrambled as :func:`_scrambled` does."""
    real = families._deal
    monkeypatch.setattr(families, "_deal", lambda rims, r: real(list(map(_scrambled, rims)), r))


def _join_cells_with_a_parallel_edge(monkeypatch):
    """Joined cells with edge 0 laid twice, which only the finish sees."""
    real = families._join_cells

    def doubled(*args):
        names, a, b, labels = real(*args)
        return names, [*a, a[0]], [*b, b[0]], [*labels, len(labels) + 1]

    monkeypatch.setattr(families, "_join_cells", doubled)


SURGERY_FAULTS = [
    # a merge of _merged that is no clash of the blocks
    pytest.param(
        _pt_tb_blocks_sharing_a_member, "tb1", {"n": 8, "r": 3}, "u_1 appears in two blocks",
        id="merged-overlap",
    ),
    # a clash of the blocks of _merged
    pytest.param(
        _pt_tb_rims_out_of_order, "tb3", {"n": 8, "r": 3},
        "two edges join m_1 and u_1 (positions 0 and 1)", id="merged-clash",
    ),
    # the finish of the draft, of an m = 1 and of an m = 3 join: np3o3 lays
    # its cells through the one cell builder, as fb does
    pytest.param(
        _join_cells_with_a_parallel_edge, "fb", {"n": 5},
        "two edges join u_1 and w_1 (positions 0 and 25)", id="finish",
    ),
    pytest.param(
        _join_cells_with_a_parallel_edge, "np3o3", {"n": 3},
        "two edges join u_1 and w_1 (positions 0 and 33)", id="finish-np3o3",
    ),
]


@pytest.mark.parametrize("patch, family, params, fault", SURGERY_FAULTS)
def test_a_surgery_fault_in_a_builders_own_draft_is_an_invariant_error(
    patch, family, params, fault, monkeypatch, tmp_path
):
    patch(monkeypatch)
    with pytest.raises(InvariantError) as info:
        build_family(family, **params)
    assert str(info.value) == f"{family}{params}: surgery on its own draft failed: {fault}"
    # so its sweep point fails, and a sweep exits 1, not 2
    bound = families.GRID_BOUND[family]
    limit = 27 if bound == "max_size" else 8
    records = sweep_family(family, limit)
    assert records and {r["status"] for r in records} == {"fail"}
    flag = "--" + bound.replace("_", "-")
    assert main(["--out", str(tmp_path), "sweep", "--family", family, flag, str(limit)]) == 1


def test_no_build_path_runs_a_kernel(monkeypatch, tmp_path):
    # the build's draft is one function, and no class of the package holds a
    # kernel, so the merge-fault tests above, run again here, name their
    # faults with none
    assert inspect.isfunction(graph._draft)
    classes = [
        c for name, module in sys.modules.items() if name.startswith("antimagic")
        for c in vars(module).values() if isinstance(c, type) and c.__module__ == name
    ]
    assert graph.Graph in classes and graph.EdgeLabeling in classes
    assert not [c for c in classes if {"merge", "split"} & set(dir(c))]
    runs = [
        *(lambda mp, c=c: test_clashing_blocks_of_a_merged_family_raise_the_merge_fault(*c.values)
          for c in CLASHING_BLOCKS),
        lambda mp: test_merge_class_out_of_rim_order_raises_the_merge_fault(),
        test_a_clash_in_fb1_blocks_fails_its_sweep_point,
        *(lambda mp, c=c: test_a_surgery_fault_in_a_builders_own_draft_is_an_invariant_error(
            *c.values, mp, tmp_path) for c in SURGERY_FAULTS),
    ]
    for run in runs:
        with monkeypatch.context() as patched:
            run(patched)


def test_a_tfb_partition_with_a_cell_in_two_fans_builds_and_fails_its_certificate(
    monkeypatch, tmp_path
):
    # tfb lays each cell on the hub of the last block naming it and trusts
    # the partition, so the certificate, not a merge, rejects a bad one
    _tfb_blocks_sharing_a_hub(monkeypatch)
    g, f, inst = build_family("tfb", t=3, s=3)
    # cell 1 moves to y_2, and cell 3, which no block names now, stays on
    # y_1: their hub sums differ by 4
    with pytest.raises(InvariantError) as info:
        verify_instance(g, f, inst)
    assert str(info.value) == (
        "tfb{'t': 3, 's': 3, 'k': 4} failed: 5 colors instead of 3; "
        "palette (42, 46, 284, 288, 292) != expected (42, 46, 288) (first y_1)"
    )
    records = sweep_family("tfb", 27)
    assert records and {r["status"] for r in records} == {"fail"}
    assert main(["--out", str(tmp_path), "sweep", "--family", "tfb", "--max-size", "27"]) == 1


@pytest.mark.parametrize(
    "family, params, base",
    [
        ("fb1", {"r": 3, "s": 5}, lambda: build_family("tfb", t=3, s=5)),
        ("df2", {"r": 2, "s": 3}, lambda: build_family("df", r=2, s=3)),
        ("tb", {"n": 10}, lambda: build_family("pt", n=10)),
        ("pt3", {"n": 10, "r": 2}, lambda: build_family("pt", n=10)),
        ("gb", {"n": 14, "r": 5, "s": 3}, lambda: build_family("tb", n=14)),
    ],
    ids=["fb_merged", "df_merged", "tb", "pt_tb_merged", "gb"],
)
def test_partition_record_names_the_merged_blocks(family, params, base):
    g0, f0, _ = base()
    g, f, inst = build_family(family, **params)
    # each merged vertex carries exactly the labels of its block's members,
    # and no base vertex is in two blocks
    record = _merged_blocks((g0, f0, None), (g, f, inst))
    assert record and all(record)
    assert sum(map(len, record)) == len(set().union(*record))
    assert len({len(b) for b in record}) == 1
    assert len(g.vertices) == len(g0.vertices) - sum(map(len, record)) + len(record)


def test_tb_records_its_zipped_rail_pairs():
    assert _merged_blocks(build_family("pt", n=4), build_family("tb", n=4)) == (
        ("x", "y"), ("u_2", "v_2"), ("u_4", "v_4"), ("u_6", "v_6"), ("u_8", "v_8"),
    )


def test_gb_with_indices_builds_over_gn_and_records_its_base():
    # the cut indices alone choose the base, which the instance records
    g_tb, _, over_tb = build_family("gb", n=14, r=3, s=5)
    g_gn, _, over_gn, _ = built_ok("gb", n=14, r=3, s=5, indices=[1])
    assert over_tb.params == {"n": 14, "k": 7, "r": 3, "s": 5, "base": "tb"}
    assert over_gn.params == {"n": 14, "k": 7, "r": 3, "s": 5, "base": "gn", "indices": (1,)}
    assert g_gn != g_tb


# --- triple-hub joins --------------------------------------------------------------


def test_np3o3_k1_labels_match_table():
    g, f, _ = build_family("np3o3", n=3)
    t = table_m3(1)
    for i in (1, 2, 3):
        assert f.labels[edge(V("u", i), V("w", i))] == t.rows["L"][i - 1]
        assert f.labels[edge(V("v", i), V("w", i))] == t.rows["R"][i - 1]
        for a in (1, 2, 3):
            assert f.labels[edge(V("w", i), V("x", a))] == t.rows[f"C{a}"][i - 1]
            assert f.labels[edge(V("u", i), V("x", a))] == t.rows[f"L{a}"][i - 1]
            assert f.labels[edge(V("v", i), V("x", a))] == t.rows[f"R{a}"][i - 1]


def test_np3o3_palettes():
    _, _, _, cert = built_ok("np3o3", n=3)
    assert cert.palette == (40, 77, 180)
    _, _, _, cert = built_ok("np3o3", n=5)
    assert cert.palette == (65, 127, 495)


def test_np3o3_center_colors():
    g, f, _ = build_family("np3o3", n=7)
    colors = induce_coloring(g, f)
    k = 3
    for i in range(1, 8):
        assert colors[V("w", i)] == 25 * k + 15
        assert colors[V("u", i)] == colors[V("v", i)] == 50 * k + 27


# --- grids ---------------------------------------------------------------------


def test_fb1_grid_marks_exclusions():
    grid = family_grid("fb1", 25)
    excluded = {tuple(sorted(p.items())) for p, reason in grid if reason}
    assert (("r", 3), ("s", 7)) in excluded  # rs=21 -> k=10 = 2 (mod 4)
    allowed = [p for p, reason in grid if not reason]
    assert {"r": 3, "s": 3} in allowed


def test_grid_bound_names_the_one_bound_each_grid_reads():
    small = {"max_size": 9, "max_n": 4, "gn_max_n": 10}
    for family in families.FAMILY_TAGS:
        read = families.GRID_BOUND[family]
        assert family_grid(family, small[read]) != family_grid(family), family
    # a bound the family does not read is refused, not ignored
    with pytest.raises(TypeError):
        family_grid("fb", max_n=4)
    with pytest.raises(TypeError):
        sweep_family("pt", max_size=3)


# sha256 over json.dumps([family, bounds, grid]) of every family at each bound
# set below, in turn, family by family, each grid at the one bound of the set it
# reads: the defaults, a small set, a mid set, all zero and one larger than the
# defaults
GRID_BOUNDS = [
    {}, dict(max_size=9, max_n=4, gn_max_n=10), dict(max_size=57, max_n=44, gn_max_n=30),
    dict(max_size=0, max_n=0, gn_max_n=0), dict(max_size=401, max_n=300, gn_max_n=90),
]
GRIDS_SHA256 = "597862b4508b348b8c2df8029212562cb1144e0114bba0034930d3766d3fe1c3"


def test_every_grid_at_five_bound_sets_is_pinned():
    digest = hashlib.sha256()
    for family in families.FAMILY_TAGS:
        read = families.GRID_BOUND[family]
        for bounds in GRID_BOUNDS:
            grid = family_grid(family, bounds.get(read))
            digest.update(json.dumps([family, bounds, grid]).encode())
    assert digest.hexdigest() == GRIDS_SHA256


def test_gn_grid_respects_conditions():
    grid = family_grid("gn", 30)
    combos = {(p["n"], p["indices"]) for p, _ in grid}
    assert (30, (1, 2, 4)) in combos
    assert all(8 * idx[-1] - 2 <= n for n, idx in combos)


# --- the paper's closed forms for the merged families -----------------------------


def _census(*pairs):
    out = {}
    for d, c in pairs:
        out[d] = out.get(d, 0) + c
    return out


def derived_closed_forms(family, params):
    """Palette and degree census of a derived family as the paper writes them
    out, one branch per family: the oracle of the scaling rule the builders
    derive these claims from."""
    n, r, s = params.get("n"), params.get("r"), params.get("s")
    if family in ("fb1", "fb2"):
        k = (r * s - 1) // 2
        if family == "fb1":
            return (
                {9 * k + 6, r * (10 * k + 6), s * (21 * k + 12)},
                _census((3, r * s), (2 * r, 2 * s), (3 * s, r)),
            )
        return (
            {10 * k + 6, r * (9 * k + 6), s * (21 * k + 12)},
            _census((2, 2 * r * s), (3 * r, s), (3 * s, r)),
        )
    if family in ("df1", "df2", "df3"):
        k = ((2 * r + 1) * s - 1) // 2
        if family == "df1":
            return (
                {9 * k + 6, (2 * r + 1) * (10 * k + 6), s * (21 * k + 12)},
                _census((3, (2 * r + 1) * s), (2 * (2 * r + 1), 2 * s), (3 * s, 2 * r + 1)),
            )
        if family == "df2":
            return (
                {10 * k + 6, (2 * r + 1) * (9 * k + 6), s * (21 * k + 12)},
                _census((2, (4 * r + 2) * s), (3 * (2 * r + 1), s), (3 * s, 2 * r + 1)),
            )
        r1 = params["r1"]
        r2 = (2 * r + 1) // r1
        return (
            {10 * k + 6, 9 * k + 6, r2 * s * (21 * k + 12)},
            _census((2, (4 * r + 2) * s), (3, (2 * r + 1) * s), (3 * s * r2, r1)),
        )
    k = n // 2
    if family in ("tb", "gn"):
        return {9 * k + 6, 21 * k + 12, 20 * k + 12}, _census((3, 2 * n + 2), (4, n + 1))
    if family == "gb":
        return (
            {9 * k + 6, 21 * k + 12, s * (20 * k + 12)},
            _census((3, 2 * n + 2), (4 * s, r)),
        )
    if family == "pt3":
        s = (2 * n + 2) // r
        return (
            {s * (10 * k + 6), 9 * k + 6, 21 * k + 12},
            _census((3, 2 * n + 2), (2 * s, r)),
        )
    s = (n + 1) // r
    if family == "pt1":
        palette = {10 * k + 6, s * (9 * k + 6), 21 * k + 12}
    elif family == "pt2":
        palette = {10 * k + 6, 9 * k + 6, s * (21 * k + 12)}
    elif family == "tb1":
        palette = {s * (9 * k + 6), 21 * k + 12, 20 * k + 12}
    elif family == "tb2":
        palette = {9 * k + 6, s * (21 * k + 12), 20 * k + 12}
    else:
        assert family == "tb3"
        return (
            {s * (20 * k + 12), 9 * k + 6, 21 * k + 12},
            _census((3, 2 * n + 2), (4 * s, r)),
        )
    if family.startswith("pt"):
        return palette, _census((2, 2 * n + 2), (3, n + 1), (3 * s, r))
    return palette, _census((3, n + 1), (4, n + 1), (3 * s, r))


DERIVED_FAMILIES = (
    "tb", "fb1", "fb2", "df1", "df2", "df3", "pt1", "pt2", "pt3",
    "tb1", "tb2", "tb3", "gn", "gb",
)


@pytest.mark.parametrize("family", DERIVED_FAMILIES)
def test_derived_claims_equal_the_closed_forms(family):
    points = [p for p, excluded in family_grid(family) if excluded is None][:5]
    assert len(points) == 5
    for params in points:
        _, _, inst = build_family(family, **params)
        palette, census = derived_closed_forms(family, params)
        assert len(palette) == 3, params
        assert inst.expected_palette == tuple(sorted(palette)), params
        assert inst.expected_census == census, params


# --- dispatch and sweeps -----------------------------------------------------------


@pytest.mark.parametrize(
    "family, params",
    [(family, next(p for p, reason in family_grid(family) if reason is None))
     for family in families.FAMILY_TAGS]
    + [("gb", {"n": 14, "r": 3, "s": 5, "indices": (1,)})],
    ids=list(families.FAMILY_TAGS) + ["gb-over-gn"],
)
def test_a_build_makes_one_graph_and_remaps_no_labels(monkeypatch, family, params):
    # merge_vertices, split_vertices and split_vertex each make a Graph too,
    # so a builder that called them would show here as a second graph
    calls = []
    init, of = graph.Graph.__init__, graph.Graph._of.__func__

    def made(*args):
        calls.append("graph")
        return of(*args)

    monkeypatch.setattr(graph.Graph, "__init__", lambda *args: calls.append("graph") or init(*args))
    monkeypatch.setattr(graph.Graph, "_of", classmethod(made))
    monkeypatch.setattr(graph.EdgeLabeling, "remapped", lambda *args: calls.append("remapped"))
    g, f, inst = build_family(family, **params)
    assert calls == ["graph"]
    verify_instance(g, f, inst)


def test_the_tables_that_name_the_families_agree():
    # the CLI choices, the builders and the sweep grids each list the tags
    assert len(set(families.FAMILY_TAGS)) == len(families.FAMILY_TAGS)
    assert set(families._BUILDERS) == set(families.FAMILY_TAGS) == set(families.GRID_BOUND)


def test_build_family_unknown_keyword_is_invalid_params():
    for family, params, message in [
        ("fb", dict(n=9, m=3), "bad parameters for fb: got an unexpected keyword argument 'm'"),
        ("fb1", dict(r=3), "bad parameters for fb1: missing a required argument: 's'"),
        ("pt1", dict(n=5), "bad parameters for pt1: missing a required argument: 'r'"),
        # a parameter the family does not take is named as that, not by its type
        ("fb", dict(n=3, color="red"),
         "bad parameters for fb: got an unexpected keyword argument 'color'"),
        ("gn", dict(n=6, indices=(1,), r=2.0),
         "bad parameters for gn: got an unexpected keyword argument 'r'"),
        # only df3 merges the hubs into r1 blocks
        ("df1", dict(r=1, s=3, r1=99), "bad parameters for df1: got an unexpected keyword argument 'r1'"),
        ("df2", dict(r=1, s=3, r1=99), "bad parameters for df2: got an unexpected keyword argument 'r1'"),
        ("df3", dict(r=4, s=1), "bad parameters for df3: missing a required argument: 'r1'"),
    ]:
        with pytest.raises(InvalidParams) as info:
            build_family(family, **params)
        assert str(info.value) == message


@pytest.mark.parametrize("family, params, message", [
    ("gn", dict(n=10, indices=(True,)), "indices must be a list or tuple of ints, got (True,)"),
    ("gn", dict(n=10, indices=(1.0,)), "indices must be a list or tuple of ints, got (1.0,)"),
    ("gn", dict(n=10, indices=1), "indices must be a list or tuple of ints, got 1"),
    ("fb", dict(n=3.0), "n must be an int, got 3.0"),
    ("fb", dict(n=True), "n must be an int, got True"),
    ("tfb", dict(t=3.0, s=3), "t must be an int, got 3.0"),
    ("gb", dict(n=8, r=3.0, s=3), "r must be an int, got 3.0"),
    ("df3", dict(r=4, s=1, r1=3.0), "r1 must be an int, got 3.0"),
    ("pt", dict(n=2.0), "n must be an int, got 2.0"),
], ids=["gn-bool-index", "gn-float-index", "gn-int-indices", "fb-float", "fb-bool", "tfb-float",
        "gb-float", "df3-float", "pt-float"])
def test_build_family_takes_only_exact_int_parameters(family, params, message):
    with pytest.raises(InvalidParams) as info:
        build_family(family, **params)
    assert str(info.value) == f"bad parameters for {family}: {message}"


def test_no_builder_takes_a_parameter_its_family_never_records():
    # an option a builder takes and ignores would show here as a name that
    # no instance records
    recorded = {family: set() for family in families.FAMILY_TAGS}
    points = [(family, next(p for p, reason in family_grid(family) if reason is None))
              for family in families.FAMILY_TAGS]
    for family, params in points + [("gb", {"n": 14, "r": 3, "s": 5, "indices": (1,)})]:
        recorded[family] |= set(build_family(family, **params)[2].params)
    for family, builder in families._BUILDERS.items():
        taken = set(inspect.signature(builder).parameters)
        assert taken <= recorded[family], (family, taken - recorded[family])


def test_build_family_lets_a_builder_type_error_through(monkeypatch):
    def broken(n):
        raise TypeError("bug inside the builder")

    monkeypatch.setitem(families._BUILDERS, "fb", broken)
    with pytest.raises(TypeError, match="bug inside the builder"):
        build_family("fb", n=9)

    # a partial-wrapped family binds the parameters its function has left
    def broken_merge(base, variant, n, r):
        raise TypeError(f"bug inside {base}{variant}")

    monkeypatch.setitem(families._BUILDERS, "pt1", partial(broken_merge, "pt", 1))
    with pytest.raises(TypeError, match="bug inside pt1"):
        build_family("pt1", n=5, r=1)
    with pytest.raises(InvalidParams, match="missing a required argument: 'r'"):
        build_family("pt1", n=5)


def test_sweep_records_a_usage_error_and_goes_on(monkeypatch):
    real = families._BUILDERS["fb"]

    def flaky(n):
        if n == 7:
            raise InvalidParity("injected")
        return real(n)

    monkeypatch.setitem(families._BUILDERS, "fb", flaky)
    records = sweep_family("fb", 11)
    assert [r["params"]["n"] for r in records] == [3, 5, 7, 9, 11]
    assert [r["status"] for r in records] == ["pass", "pass", "error", "pass", "pass"]
    assert records[2]["reason"] == "injected"


def test_failure_report_names_the_first_violations():
    g, f, inst = build_family("fb", n=5)
    es = g.sorted_edges()
    labels = dict(f.labels)
    labels[es[17]], labels[es[21]] = labels[es[21]], labels[es[17]]
    with pytest.raises(InvariantError) as info:
        verify_instance(g, EdgeLabeling(labels), inst)
    assert str(info.value) == (
        "fb{'n': 5, 'k': 2} failed: labeling is not local antimagic: "
        "adjacent_equal_color at u_2-w_2 (color 26), "
        "adjacent_equal_color at v_2-w_2 (color 26), "
        "adjacent_equal_color at v_4-w_4 (color 24)"
    )

    labels[es[0]], labels[es[3]], labels[es[7]], labels[es[9]] = 0, labels[es[4]], 99, -4
    with pytest.raises(InvariantError) as info:
        verify_instance(g, EdgeLabeling(labels), inst)
    # three shown, the duplicate after them elided
    assert str(info.value).startswith(
        "fb{'n': 5, 'k': 2} failed: labels are not a bijection onto [1, q]: "
        "label_out_of_range at u_1-w_1 (label 0), "
        "label_out_of_range at u_4-x (label 99), "
        "label_out_of_range at u_5-x (label -4), ...; "
        "labeling is not local antimagic: "
        "adjacent_equal_color at v_2-w_2 (color 26), "
        "adjacent_equal_color at v_4-w_4 (color 24); "
    )


def test_failure_report_names_the_edges_sharing_a_label():
    g, f, inst = build_family("fb", n=5)
    es = g.sorted_edges()
    labels = dict(f.labels)
    labels[es[3]] = labels[es[4]]
    with pytest.raises(InvariantError, match=r"duplicate_label at u_2-x and u_3-w_3 \(label 5\)"):
        verify_instance(g, EdgeLabeling(labels), inst)


def test_failure_report_names_each_census_degree_that_differs():
    g, f, inst = build_family("fb", n=5)  # census {2: 10, 3: 5, 15: 1}
    doctored = inst._replace(expected_census={2: 10, 3: 7, 4: 1})
    with pytest.raises(InvariantError) as info:
        verify_instance(g, f, doctored)
    assert str(info.value) == (
        "fb{'n': 5, 'k': 2} failed: "
        "degree 3: 5 vertices, expected 7 (first w_1); "
        "degree 4: 0 vertices, expected 1; "
        "degree 15: 1 vertices, expected 0 (first x)"
    )


# --- a build trusts its table; the certificate catches a corrupted one ---------


def _corrupted(t, cell, other, duplicate=False):
    """``t`` with ``other``'s entry copied into ``cell``, or the two swapped;
    each cell is (row name, 1-based column)."""
    rows = {name: list(row) for name, row in t.rows.items()}
    (ra, ca), (rb, cb) = cell, other
    if duplicate:
        rows[ra][ca - 1] = rows[rb][cb - 1]
    else:
        rows[ra][ca - 1], rows[rb][cb - 1] = rows[rb][cb - 1], rows[ra][ca - 1]
    return LabelTable(t.kind, t.k, {name: tuple(row) for name, row in rows.items()})


_PT_BUILDS = [
    ("pt", {"n": 6}), ("tb", {"n": 6}), ("pt1", {"n": 6, "r": 1}), ("pt3", {"n": 6, "r": 2}),
]
# at k = 3: the swaps that break (A), (B) and (C) of the traced sequences
# (test_tables.test_sequence_checks_reject_a_corrupted_table), and a swapped
# and a duplicated cell of m1 and of m3
_CORRUPTED = [
    ("table_pt", table_pt(3), cells, False, family, params)
    for cells in ((("R1", 4), ("R2", 4)), (("R1", 1), ("R1", 2)), (("R3", 1), ("R3", 2)))
    for family, params in _PT_BUILDS
] + [
    (name, table, cells, duplicate, family, params)
    for name, table, cells, builds in [
        ("table_m1", table_m1(3), (("uw", 1), ("uw", 2)),
         [("fb", {"n": 7}), ("df", {"r": 3, "s": 1})]),
        ("table_m3", table_m3(3), (("L", 1), ("L", 2)), [("np3o3", {"n": 7})]),
    ]
    for duplicate in (False, True)
    for family, params in builds
]


@pytest.mark.parametrize(
    "table_fn, table, cells, duplicate, family, params", _CORRUPTED,
    ids=[f"{t.kind}-{c[0][0]}{c[0][1]}{'dup' if dup else 'swap'}{c[1][0]}{c[1][1]}-{fam}"
         for _, t, c, dup, fam, _ in _CORRUPTED],
)
def test_a_corrupted_table_is_rejected_by_the_certificate_not_the_build(
    monkeypatch, table_fn, table, cells, duplicate, family, params
):
    bad = _corrupted(table, *cells, duplicate)
    real = getattr(families, table_fn)
    monkeypatch.setattr(families, table_fn, lambda k: bad if k == bad.k else real(k))
    built = build_family(family, **params)
    with pytest.raises(InvariantError):
        verify_instance(*built)

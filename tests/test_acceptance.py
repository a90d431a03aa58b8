"""Acceptance suite: every stated criterion at its stated tolerance.

All checks are exact integer identities (tolerance zero).  Each criterion
prints one PASS line with its runtime; run with ``pytest -s`` to see them.
"""

import hashlib
import json
import random
import time

import pytest

from adjacency import components, incident_edges, neighbors
from antimagic import io
from antimagic.errors import InfeasibleShape
from antimagic.families import (
    build_family,
    valid_gn_index_lists,
    verify_instance,
    _join_cells,
)
from antimagic.graph import (
    EdgeLabeling,
    Graph,
    V,
    _code,
    _draft,
    certify,
    edge,
    induce_coloring,
    merge_vertices,
    split_vertex,
)
from antimagic.partition import partition_ap
from antimagic.solver import SearchConfig, solve_chi_la
from antimagic.tables import (
    _odd_factorizations,
    check_m1_observations,
    check_m3_observations,
    table_m1,
    table_m3,
    table_pt,
    trace_sequences,
)
from grid_pass import grid_pass
from test_partition import brute_force_feasible


def _report(criterion, elapsed):
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s)")


def test_criterion_1_table_goldens():
    started = time.monotonic()

    t = table_m3(1)
    assert t.rows == {
        "L": (1, 3, 2), "R": (5, 4, 6),
        "C1": (9, 8, 7), "C2": (15, 14, 13), "C3": (10, 11, 12),
        "L1": (21, 19, 20), "L2": (28, 30, 29), "L3": (27, 25, 26),
        "R1": (33, 31, 32), "R2": (17, 18, 16), "R3": (22, 24, 23),
    }

    t2 = table_pt(2)
    assert [t2.rows[r] for r in ("R1", "R2", "R3", "R4", "R5")] == [
        (1, 3, 5, 2, 4), (10, 9, 8, 7, 6), (13, 12, 11, 15, 14),
        (20, 19, 18, 17, 16), (21, 23, 25, 22, 24),
    ]
    t5 = table_pt(5)
    assert [t5.rows[r] for r in ("R1", "R2", "R3", "R4", "R5")] == [
        (1, 3, 5, 7, 9, 11, 2, 4, 6, 8, 10),
        (22, 21, 20, 19, 18, 17, 16, 15, 14, 13, 12),
        (28, 27, 26, 25, 24, 23, 33, 32, 31, 30, 29),
        (44, 43, 42, 41, 40, 39, 38, 37, 36, 35, 34),
        (45, 47, 49, 51, 53, 55, 46, 48, 50, 52, 54),
    ]

    tr2 = trace_sequences(t2)
    assert tr2.s1 == (8, 5, 21, 20, 6, 4, 22, 17, 9, 3)
    assert tr2.s2 == (18, 25, 1, 10, 16, 24, 2, 7, 19, 23)
    tr5 = trace_sequences(t5)
    assert tr5.s1 == (17, 11, 45, 44, 12, 10, 46, 38, 18, 9, 47, 43,
                      13, 8, 48, 37, 19, 7, 49, 42, 14, 6)
    assert tr5.s2 == (39, 55, 1, 22, 34, 54, 2, 16, 40, 53, 3, 21,
                      35, 52, 4, 15, 41, 51, 5, 20, 36, 50)

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report("1 (table goldens)", elapsed)


def test_criterion_2_observation_suites():
    started = time.monotonic()
    for k in range(1, 201):
        check_m1_observations(table_m1(k))  # incl. every odd factorization
        trace_sequences(table_pt(k))  # raises on any (A)-(C) violation
        check_m3_observations(table_m3(k))
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report("2 (observation suites, k in [1,200])", elapsed)


def test_criterion_3_family_certification_sweep():
    swept = grid_pass()
    totals = {}
    for family, records in swept.records.items():
        # a grid point whose build raises a usage error is a `fail`, as
        # wrong a result as a failed certificate
        bad = [r for r in records if r["status"] not in ("pass", "excluded")]
        assert not bad, f"{family}: {bad[:3]}"
        totals[family] = (
            sum(1 for r in records if r["status"] == "pass"),
            sum(1 for r in records if r["status"] == "excluded"),
        )
    assert totals["fb"][0] == 99
    assert totals["pt"][0] == totals["tb"][0] == 100
    assert totals["fb1"][1] > 0  # the k = 2 (mod 4) exclusions are reported
    # the report that `sweep --family all` writes, pinned byte for byte
    report = [r for records in swept.records.values() for r in records]
    assert len(report) == 3411
    assert hashlib.sha256(io.dumps({"records": report}).encode()).hexdigest() == (
        "517b565a8117032d170844da78a2e77aa69fa0feeab14ad2196d2888be177b74"
    )
    elapsed = swept.seconds  # the pass's own sweep
    assert elapsed < 300.0
    counts = ", ".join(f"{fam}:{n}" for fam, (n, _) in totals.items())
    _report(f"3 (family sweep: {counts})", elapsed)


def test_criterion_3_gb_over_every_gn_base_up_to_n44():
    # every index list of every shape: the deal must cover them all
    started = time.monotonic()
    shapes = 0
    for n in range(8, 45, 2):
        for r, s in _odd_factorizations(n + 1, 3):
            if s < 3:
                continue
            for indices in valid_gn_index_lists(n):
                g, f, inst = build_family("gb", n=n, r=r, s=s, indices=indices)
                verify_instance(g, f, inst)
                shapes += 1
    assert shapes == 142
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report(f"3 (gb over gn, {shapes} shapes with n <= 44)", elapsed)


def test_criterion_4_golden_value_spot_checks():
    started = time.monotonic()

    def bracelet_sizes(g):
        sizes = []
        near = neighbors(g)
        for comp in components(g):
            m = len(comp) // 3 - 1
            comp_edges = [e for e in g.edges if e[0] in comp]
            assert len(comp_edges) == 5 * m + 5
            degs = sorted(len(near[v]) for v in comp)
            assert degs == [3] * (2 * m + 2) + [4] * (m + 1)
            sizes.append(m)
        return sorted(sizes)

    g30, f30, inst30 = build_family("gn", n=30, indices=(1, 2, 4))
    verify_instance(g30, f30, inst30)
    assert bracelet_sizes(g30) == [2, 5, 6, 14]

    g10, f10, inst10 = build_family("gn", n=10, indices=(1,))
    verify_instance(g10, f10, inst10)
    assert bracelet_sizes(g10) == [2, 7]

    _, ftb, _ = build_family("tb", n=30)
    rungs = [ftb.labels[edge(V("u", 2 * j - 1), V("v", 2 * j - 1))] for j in range(1, 32)]
    assert rungs == [
        63, 78, 79, 93, 64, 77, 80, 92, 65, 76, 81, 91, 66, 75, 82, 90, 67,
        74, 83, 89, 68, 73, 84, 88, 69, 72, 85, 87, 70, 71, 86,
    ]

    nine = _join_cells(table_m1(4), [_code("x", i) for i in range(1, 10)], [(range(9), range(9))])
    g9, f9 = _draft(*nine)
    blocks = [
        {V("x", 1), V("x", 5), V("x", 9)},
        {V("x", 3), V("x", 4), V("x", 8)},
        {V("x", 2), V("x", 6), V("x", 7)},
    ]
    merged, emap = merge_vertices(g9, blocks, [V("y", a) for a in (1, 2, 3)])
    colors = induce_coloring(merged, f9.remapped(emap))
    assert [colors[V("y", a)] for a in (1, 2, 3)] == [288, 288, 288]

    _report("4 (golden-value spot checks)", time.monotonic() - started)


def test_criterion_5_exact_solver():
    started = time.monotonic()

    u, v, w, x = V("u"), V("v"), V("w"), V("x")
    fan1 = Graph([u, v, w, x],
                 [edge(u, w), edge(v, w), edge(x, u), edge(x, v), edge(x, w)])
    t0 = time.monotonic()
    res = solve_chi_la(fan1)
    assert res.status == "exact" and res.chi_la == 3
    assert time.monotonic() - t0 < 1.0

    a, b, c = V("a"), V("b"), V("c")
    assert solve_chi_la(Graph([a, b, c], [edge(a, b), edge(b, c), edge(a, c)])).chi_la == 3
    assert solve_chi_la(Graph([a, b, c], [edge(a, b), edge(b, c)])).chi_la == 3

    # the smallest built instances: seed with the construction witness and
    # hunt for a 2-coloring within a budget; none may be found (chi >= 3)
    for family, params in [("fb", {"n": 3}), ("pt", {"n": 2}),
                           ("tb", {"n": 2}), ("df", {"r": 1, "s": 1})]:
        g, f, inst = build_family(family, **params)
        res = solve_chi_la(
            g,
            SearchConfig(max_edges=15, target_colors=2, time_budget=2.0),
            initial_witness=f,
        )
        assert res.status in ("exact", "budget_exhausted")
        witness_cert = certify(g, res.witness)
        assert witness_cert.color_count == 3, f"{family}: 2-coloring claimed"
        if res.status == "exact":
            assert res.chi_la == 3

    _report("5 (exact solver)", time.monotonic() - started)


def test_criterion_6_magic_partition():
    started = time.monotonic()
    for t in range(1, 226, 2):
        for s in range(1, 226 // t + 1, 2):
            if t > 1 and s == 1:
                with pytest.raises(InfeasibleShape):
                    partition_ap(19 * 7 + 12, 2, t, s)
                continue
            part = partition_ap(19 * 7 + 12, 2, t, s)
            total = sum(19 * 7 + 12 + 2 * i for i in range(t * s))
            assert all(sum(b) == total // t for b in part.blocks)
            assert t * (total // t) == total

    for t in range(1, 16, 2):
        for s in range(1, 16 // t + 1, 2):
            values = [5 + 3 * i for i in range(t * s)]
            oracle = brute_force_feasible(values, t, s)
            try:
                partition_ap(5, 3, t, s)
                assert oracle, f"{t}x{s}: produced a partition the oracle rejects"
            except InfeasibleShape:
                assert not oracle, f"{t}x{s}: oracle finds a partition we refuse"

    _report("6 (equal-sum partitions)", time.monotonic() - started)


def test_criterion_7_roundtrips():
    started = time.monotonic()
    rng = random.Random(20260810)

    pool = []
    for family, params in [("fb", {"n": 3}), ("pt", {"n": 4}), ("tb", {"n": 4}),
                           ("df", {"r": 1, "s": 1}), ("np3o3", {"n": 3})]:
        g, f, _ = build_family(family, **params)
        vs = g.sorted_vertices()
        near = neighbors(g)
        # pairs that are non-adjacent with no common neighbors can merge and
        # split back; a fan has none (the hub sees everything)
        mergeable = [
            (a, b)
            for i, a in enumerate(vs)
            for b in vs[i + 1:]
            if b not in near[a] and not (near[a] & near[b])
        ]
        pool.append((g, f, certify(g, f), near, mergeable))

    split_ids = (V("h", 1), V("h", 2))
    for trial in range(10_000):
        g, f, base_cert, near, mergeable = pool[trial % len(pool)]
        if trial % 2 == 0 or not mergeable:
            # split a random vertex, then merge the halves back
            candidates = [v for v in g.sorted_vertices() if len(near[v]) >= 2]
            v = rng.choice(candidates)
            incident = incident_edges(near, v)
            rng.shuffle(incident)
            cut = rng.randrange(1, len(incident))
            split, emap = split_vertex(g, v, incident[:cut], incident[cut:], *split_ids)
            fs = f.remapped(emap)
            back, emap2 = merge_vertices(split, [set(split_ids)], [v])
            fb = fs.remapped(emap2)
        else:
            # merge a random safe pair, then split it apart again
            a, b = mergeable[rng.randrange(len(mergeable))]
            m = V("rt")
            merged, emap = merge_vertices(g, [{a, b}], [m])
            fm = f.remapped(emap)
            part_a = [edge(m, nb) for nb in near[a]]
            part_b = [edge(m, nb) for nb in near[b]]
            back, emap2 = split_vertex(merged, m, part_a, part_b, a, b)
            fb = fm.remapped(emap2)
        assert back == g
        assert fb == f
        if trial % 50 == 0:
            assert certify(back, fb) == base_cert

    # JSON round trip reproduces certificates byte-identically
    for family, params in [("fb", {"n": 9}), ("gn", {"n": 10, "indices": (1,)}),
                           ("np3o3", {"n": 5})]:
        g, f, inst = build_family(family, **params)
        cert = certify(g, f, inst.expected_palette)
        text = io.dumps(io.graph_to_doc(g, f, inst, cert))
        g2, f2 = io.doc_to_graph(json.loads(text))
        cert2 = certify(g2, f2, inst.expected_palette)
        assert io.dumps(io.certificate_to_doc(cert2)) == io.dumps(io.certificate_to_doc(cert))
        assert io.dumps(io.graph_to_doc(g2, f2, inst, cert2)) == text

    _report("7 (10k merge/split round-trips + JSON round-trips)", time.monotonic() - started)

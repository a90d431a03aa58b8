"""``certify`` against the certifier it replaced, which worked by vertex name.

``reference_certify`` keys everything by :class:`VertexId`: the colours, a
dict of neighbour sets, the components and a sort of every edge.  The
certifier under test works on the graph's int arrays.  Both must give the
same certificate document, violations and their order included, on every
stride-sampled grid document and on each of its mutations, both as read and
rebuilt by name.
"""

import json
import random
from collections import Counter

import pytest

from adjacency import components, neighbors
from antimagic import families, io
from antimagic.errors import LabelDomainMismatch
from antimagic.graph import Certificate, EdgeLabeling, Graph, certify, induce_coloring
from grid_pass import grid_pass
from test_document_oracle import MUTATIONS, _move_an_edge_end


def reference_certify(g, f, expected_palette=None):
    """The certificate by vertex name, one loop per check, with the colours
    and the sorted component orders that it read."""
    labels = f.labels
    if frozenset(labels) != g.edges:
        raise LabelDomainMismatch(
            "labeling domain does not match the edge set "
            f"({len(labels)} labels vs {len(g.edges)} edges)"
        )
    colors = {v: 0 for v in g.vertices}
    for (a, b), lab in labels.items():
        colors[a] += lab
        colors[b] += lab
    palette = tuple(sorted(set(colors.values())))
    q = len(g.edges)

    violations = []
    counts = Counter(labels.values())
    if counts and (min(counts) < 1 or max(counts) > q):
        for e in sorted(e for e, lab in labels.items() if not 1 <= lab <= q):
            violations.append(
                {"kind": "label_out_of_range", "edge": [str(e[0]), str(e[1])], "label": labels[e]}
            )
    if len(counts) < q:
        shared = {lab for lab, n in counts.items() if n > 1}
        by_label = {}
        for e in sorted(e for e, lab in labels.items() if lab in shared):
            by_label.setdefault(labels[e], []).append(e)
        for lab, es in sorted(by_label.items()):
            violations.append(
                {
                    "kind": "duplicate_label",
                    "label": lab,
                    "edges": [[str(a), str(b)] for a, b in es],
                }
            )
    is_bijective = not violations

    clashes = sorted((a, b) for a, b in g.edges if colors[a] == colors[b])
    for a, b in clashes:
        violations.append(
            {"kind": "adjacent_equal_color", "edge": [str(a), str(b)], "color": colors[a]}
        )

    adj, comps = neighbors(g), components(g)
    pairs = Counter((len(adj[v]), c) for v, c in colors.items())
    census = {}
    for (d, c), n in sorted(pairs.items()):
        count, shades = census.get(d, (0, ()))
        census[d] = (count + n, shades + (c,))

    expected = tuple(sorted(expected_palette)) if expected_palette is not None else None
    cert = Certificate(
        is_bijective=is_bijective,
        is_local_antimagic=not clashes,
        color_count=len(palette),
        palette=palette,
        degree_census=census,
        violations=tuple(violations),
        has_triangle=any(adj[a] & adj[b] for a, b in g.edges),
        is_connected=len(comps) <= 1,
        expected_palette=expected,
        palette_ok=None if expected is None else palette == expected,
    )
    return cert, colors, tuple(sorted(map(len, comps)))


def _assert_same(g, f, expected_palette, where):
    """Both certifiers agree on the graph read from a document, whose edge
    positions follow the canonical order, and on the same graph and labeling
    rebuilt by name, whose edge positions follow set iteration order."""
    want, colors, orders = reference_certify(g, f, expected_palette)
    by_name = Graph(g.vertices, g.edges), EdgeLabeling.from_dict(f.labels)
    for h, labeling in ((g, f), by_name):
        got = certify(h, labeling, expected_palette)
        assert io.certificate_to_doc(got) == io.certificate_to_doc(want), where
        # what verify_instance and the writers read after the certificate
        assert tuple(sorted(map(len, h._walked()[1]))) == orders, where
        assert dict(induce_coloring(h, labeling)) == colors, where


@pytest.mark.parametrize("family", families.FAMILY_TAGS)
def test_certify_matches_the_reference_on_every_sampled_document(family):
    for params, inst, text, _ in grid_pass().stride[family]:
        g, f = io.doc_to_graph(json.loads(text))
        _assert_same(g, f, inst.expected_palette, params)


@pytest.mark.parametrize("mutate", (*MUTATIONS, _move_an_edge_end),
                         ids=lambda m: m.__name__.strip("_"))
@pytest.mark.parametrize("family", families.FAMILY_TAGS)
def test_certify_matches_the_reference_on_every_mutation(family, mutate):
    rng = random.Random(f"reference {family} {mutate.__name__}")
    for params, inst, text, _ in grid_pass().stride[family]:
        doc = json.loads(text)
        mutate(rng, doc)
        g, f = io.doc_to_graph(doc)
        _assert_same(g, f, inst.expected_palette, params)


def test_the_comparison_meets_moves_that_change_the_components():
    # moving an edge end can change the components, and join the components
    # of a disconnected graph; the comparison above must meet such graphs, or
    # is_connected and the component orders are compared only where they do
    # not change
    changed = joined = 0
    for family in families.FAMILY_TAGS:
        rng = random.Random(f"reference {family} {_move_an_edge_end.__name__}")
        for params, inst, text, _ in grid_pass().stride[family]:
            doc = json.loads(text)
            _move_an_edge_end(rng, doc)
            (before, _, orders_before), (after, _, orders_after) = (
                _reference_of(json.loads(text)), _reference_of(doc)
            )
            changed += orders_before != orders_after
            joined += after.is_connected and not before.is_connected
    assert changed > 0 and joined > 0


def _reference_of(doc):
    return reference_certify(*io.doc_to_graph(doc))

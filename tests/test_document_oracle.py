"""An independent check of emitted graph documents, and byte pins of the
middle of the default grid.

``oracle`` reads a graph document as plain JSON and checks the paper's
definition on it directly: it shares no code with ``antimagic.graph``, so a
fault in the certifier cannot hide a fault in a builder.  The sample is every
16th non-excluded point of each family's default grid (217 documents).
"""

import hashlib
import json
import random

import pytest

from antimagic import families, io
from antimagic.errors import InvariantError
from antimagic.graph import certify
from grid_pass import grid_pass


def oracle(doc):
    """(labels are a bijection onto 1..q, adjacent vertex sums differ, a
    triangle exists, the number of distinct vertex sums) of a document."""
    ends = [(e["a"], e["b"]) for e in doc["edges"]]
    labels = [e["label"] for e in doc["edges"]]
    bijective = sorted(labels) == list(range(1, len(labels) + 1))
    sums = {v["id"]: 0 for v in doc["vertices"]}
    neighbours = {v: set() for v in sums}
    for (a, b), label in zip(ends, labels):
        sums[a] += label
        sums[b] += label
        neighbours[a].add(b)
        neighbours[b].add(a)
    antimagic = all(sums[a] != sums[b] for a, b in ends)
    triangle = any(neighbours[a] & neighbours[b] for a, b in ends)
    return bijective, antimagic, triangle, len(set(sums.values()))


# a local antimagic 3-colouring of a graph with a triangle: chi_la = 3
ACCEPTED = (True, True, True, 3)


def verdict(cert):
    """The certificate's answers to the oracle's four questions."""
    return cert.is_bijective, cert.is_local_antimagic, cert.has_triangle, cert.color_count


def _swap_at_a_vertex(rng, doc):
    """Swap the labels of two edges that share a vertex."""
    at = {}
    for e in doc["edges"]:
        at.setdefault(e["a"], []).append(e)
        at.setdefault(e["b"], []).append(e)
    first, second = rng.sample(at[rng.choice(sorted(v for v in at if len(at[v]) > 1))], 2)
    first["label"], second["label"] = second["label"], first["label"]


def _duplicate_label(rng, doc):
    first, second = rng.sample(doc["edges"], 2)
    first["label"] = second["label"]


def _label_out_of_range(rng, doc):
    rng.choice(doc["edges"])["label"] = rng.choice([0, -1, len(doc["edges"]) + 1])


MUTATIONS = (_swap_at_a_vertex, _duplicate_label, _label_out_of_range)


def _move_an_edge_end(rng, doc):
    """Move one end of one edge to a vertex that is neither that end nor a
    neighbour of the other end; the edge keeps its label.  The labels stay a
    bijection, so only the sums can give the move away."""
    neighbours = {v["id"]: {v["id"]} for v in doc["vertices"]}
    for e in doc["edges"]:
        neighbours[e["a"]].add(e["b"])
        neighbours[e["b"]].add(e["a"])
    while True:
        e = rng.choice(doc["edges"])
        moved, kept = rng.sample(("a", "b"), 2)
        targets = sorted(neighbours.keys() - neighbours[e[kept]])
        if targets:
            e[moved] = rng.choice(targets)
            return


# sha256 over the JSON documents plus the DOT exports of every 16th
# non-excluded default-grid point of each family, in grid order; recorded
# while the builders still worked on VertexId-keyed graphs
STRIDE_DIGESTS = {
    "fb": "b825bbeb59ee767517b9490e88e5059982c0c0f02b58ed850b22fa23db72594e",
    "tfb": "0e61b4b75d637176d35c74ed0466f18f8915c1659822af3eac20c7228a8c3657",
    "df": "6bd3eca48f77136351337e36a5383a96b4a4951231dcb37e28f6c2793497f51f",
    "fb1": "83b873273e4bd4ac2b1f257a87b0e6352c9218124e2d0bc64314309b9aaf52dc",
    "fb2": "e99f857c0f4577a26bc17ce7d6fedba5d2a520a41f31dd34ec8567dea9834ffd",
    "df1": "edffa5e25af46f61b59a7d01c8669e71dc8ce78b9449d2ce25a2b6d8b6952d98",
    "df2": "4a75e4743113f52a507b8dd2f69d599e00f86b1ceafc5cc7462a3b6e79dba916",
    "df3": "a2ce0bdde33afb8de703ac8d209aa55f5c6c5f9b18d1b597ff07ea9b92901541",
    "pt": "65cb03bbd716b3a84927162f0569996da5364ebcf57b54afed6a0bcc6d230ced",
    "tb": "d07562401589337ccf4896dc6705aafd8362487e706c1487ec0bdea55780d6e3",
    "pt1": "ea0f32325c9c498b56e6275e817f1154fedaad4c0dd2049d9c7bc81e13775cae",
    "pt2": "30ac1221c6d2aa15d466df19faa2de73d889cfcf47621d9ee205c205bf269e1e",
    "pt3": "fe6c8644fcb6121d0dbe9b8d99055f28795a73904999fabef1fd01e6f97fa148",
    "tb1": "87eb0d3d3c45b85154c400fa48757b2c03734242f9b670529a0956814698dccc",
    "tb2": "6e6bad8fd65e330f73a643f92324892d9b8b0b3334c9f9d3d5f0ea33d59eac6a",
    "tb3": "57ec77a02b88a9af2f77a122c8892966e752c6bec3e4f712cca77d5544d08bc6",
    "gn": "d1b6f76f88087a55fb3b00c408b3db35e040a7078d959fd9c8fcd17400d79646",
    "gb": "5be6593d43b0168e50949aa2f2ce7ad39089e03fe4c6d7cc3f30b62a8134803d",
    "np3o3": "fc0ecb8cdabe937beeaf5a8c92dfb3eb5376b49255bf094e98b22af548cb307f",
}


@pytest.mark.parametrize("family", families.FAMILY_TAGS)
def test_every_16th_grid_point_artifacts_are_byte_stable(family):
    digest = hashlib.sha256()
    for _, _, text, dot in grid_pass().stride[family]:
        digest.update((text + dot).encode())
    assert digest.hexdigest() == STRIDE_DIGESTS[family]


@pytest.mark.parametrize("family", families.FAMILY_TAGS)
def test_the_oracle_passes_every_sampled_document_as_its_certificate_does(family):
    for params, inst, text, _ in grid_pass().stride[family]:
        doc = json.loads(text)
        cert = doc["certificate"]
        assert oracle(doc) == ACCEPTED, params
        assert oracle(doc) == (
            cert["is_bijective"], cert["is_local_antimagic"], cert["has_triangle"],
            cert["color_count"],
        ), params


@pytest.mark.parametrize("family", families.FAMILY_TAGS)
def test_the_oracle_and_the_certificate_agree_on_mutated_documents(family):
    rng = random.Random(family)
    for i, (params, inst, text, _) in enumerate(grid_pass().stride[family]):
        mutate = MUTATIONS[i % len(MUTATIONS)]
        doc = json.loads(text)
        mutate(rng, doc)
        g, f = io.doc_to_graph(doc)
        want = oracle(doc)
        assert verdict(certify(g, f, inst.expected_palette)) == want, (params, mutate.__name__)
        if mutate is not _swap_at_a_vertex:
            assert not want[0], (params, mutate.__name__)
        if want != ACCEPTED:
            with pytest.raises(InvariantError):
                families.verify_instance(g, f, inst)


@pytest.mark.parametrize("family", families.FAMILY_TAGS)
def test_the_oracle_and_the_certificate_agree_when_an_edge_end_moves(family):
    rng = random.Random("move " + family)
    for params, inst, text, _ in grid_pass().stride[family]:
        doc = json.loads(text)
        _move_an_edge_end(rng, doc)
        g, f = io.doc_to_graph(doc)
        want = oracle(doc)
        assert want[0], params
        assert verdict(certify(g, f, inst.expected_palette)) == want, params
        if want != ACCEPTED:
            with pytest.raises(InvariantError):
                families.verify_instance(g, f, inst)

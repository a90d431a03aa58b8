"""The benchmark's workloads: seeded inputs, the call chain of one item, and
the oracle each item's output must pass.

Every workload splits its timed phase into ``passes`` passes, a constant of
the workload, and runs each pass ``repeats`` times, so a seed fixes the work
of a run.  ``pass_inputs(p)`` derives pass p's inputs from the seed (outside
the timed region); ``items(inputs)`` yields ``(key, thunk)`` pairs, and each
thunk runs one item's call chain and returns a :class:`Result`.  Its
``artifact`` is the item's canonical output, whose sha256 the harness compares
with the digest taken at the seed commit (``reference/<workload>.json``).  The
program's functions are always looked up through their modules at call time,
so the tracer's wrappers take effect.  ``passes`` and ``repeats`` are sized so
that a run lasts about ``run_seconds`` of ``BENCHMARK.json`` on a 2-core
machine at the seed commit.
"""

from __future__ import annotations

import json
import random
import time
from typing import NamedTuple

# one grid pass certifies one point of every GRID_STRATUM consecutive points
# (ordered by edge count) of every family: about 1/GRID_STRATUM of the grid
GRID_STRATUM = 32

# large: one instance per slot and pass, drawn from a band of 8 valid values;
# the bands hold neighbouring values, so that every seed gives a pass of
# similar cost
LARGE_BANDS = {
    "fb": [{"n": 751 + 2 * i} for i in range(8)],
    "tb": [{"n": 750 + 2 * i} for i in range(8)],
    # r = 2 merges a class of n+1 vertices: quadratic in _no_conflict_partition
    "pt3": [{"n": 360 + 2 * i, "r": 2} for i in range(8)],
    # seven indices cut 14 split_vertex rebuilds out of one bracelet
    "gn": [{"n": 510 + 2 * i, "indices": (1, 2, 4, 8, 16, 32, 64)} for i in range(8)],
    # n + 1 = 3 s: three blocks of s = 187 + 2 i degree-4 hubs
    "gb": [{"n": 560 + 6 * i, "r": 3, "s": 187 + 2 * i} for i in range(8)],
}

# solve: chi_la is 3 for cycles and paths and n + 1 for the star K1,n
# (Arumugam et al., Graphs Combin. 2017); the q = 15 family instances carry a
# 3-colour witness and contain a triangle, so their chi_la is 3 as well
SOLVE_EXACT = (
    ("C9", "cycle", 9, 3),
    ("C10", "cycle", 10, 3),
    ("P10", "path", 10, 3),
    ("P11", "path", 11, 3),
    ("K1,8", "star", 8, 9),
)
SOLVE_WITNESS = (
    ("fb3", "fb", {"n": 3}),
    ("pt2", "pt", {"n": 2}),
    ("tb2", "tb", {"n": 2}),
    ("df(1,1)", "df", {"r": 1, "s": 1}),
)
SOLVE_BUDGET_S = 0.25


class Result(NamedTuple):
    edges: int  # edges of the item's final graph
    seconds: float  # time of the item's call chain
    artifact: str  # canonical output, checked against the reference digest
    exact: bool  # chi_la is proven: a certified 3-colouring with a triangle, or a complete search
    # the time is a search budget, not work done: left out of us_per_edge
    budgeted: bool = False


class WrongOutput(Exception):
    """An item's output contradicts the oracle."""


def item_key(family: str, params: dict) -> str:
    return family + " " + json.dumps(params, sort_keys=True)


def proves_three(cert) -> bool:
    """A local antimagic colouring is proper, so a triangle needs 3 colours:
    a certified 3-colouring of a graph with a triangle proves chi_la = 3."""
    return cert.ok() and cert.color_count == 3 and cert.has_triangle


class Grid:
    """Stratified sample of the default ``family_grid`` of all 19 families,
    each point built with ``build_family`` and checked with
    ``verify_instance``: the path of ``sweep --family all``."""

    name = "grid"
    passes, repeats = 2, 3

    def __init__(self, am, reference: dict, seed: int, stratum: int = GRID_STRATUM):
        self.am, self.stratum = am, stratum
        rng = random.Random(f"grid/{seed}")
        self.strata: dict[str, list[list[int]]] = {}
        for family in am.families.FAMILY_TAGS:
            points = am.families.family_grid(family)
            live = [i for i, (params, excluded) in enumerate(points) if excluded is None]
            # excluded points are carved out by the statements, not built by sweeps
            live.sort(key=lambda i: (reference.get(item_key(family, points[i][0]), [0])[0], i))
            strata = [live[j:j + stratum] for j in range(0, len(live), stratum)]
            for s in strata:
                rng.shuffle(s)
            self.strata[family] = strata

    def pass_inputs(self, p: int) -> dict[str, list[int]]:
        k = p % self.stratum
        return {f: [s[k] for s in strata if k < len(s)] for f, strata in self.strata.items()}

    def items(self, inputs: dict[str, list[int]]):
        families = self.am.families
        for family, indices in inputs.items():
            points = families.family_grid(family)
            for i in indices:
                params = points[i][0]
                yield item_key(family, params), lambda f=family, p=params: self.item(f, p)

    def item(self, family: str, params: dict) -> Result:
        families = self.am.families
        t0 = time.perf_counter()
        g, f, inst = families.build_family(family, **params)
        cert = families.verify_instance(g, f, inst)
        seconds = time.perf_counter() - t0
        record = {
            "family": family, "params": params, "status": "pass",
            "palette": list(cert.palette), "order": len(g.vertices), "size": len(g.edges),
        }
        return Result(len(g.edges), seconds, json.dumps(record, sort_keys=True), proves_three(cert))


class Large:
    """A few big single instances through the CLI's ``build --certify --emit
    both`` then ``certify --input`` path, as library calls."""

    name = "large"
    passes, repeats = 2, 5

    def __init__(self, am, reference: dict, seed: int, bands: dict = LARGE_BANDS):
        self.am, self.bands = am, bands
        self.seed = seed

    def pass_inputs(self, p: int) -> list[tuple[str, dict]]:
        rng = random.Random(f"large/{self.seed}/{p}")
        return [(family, rng.choice(band)) for family, band in self.bands.items()]

    def items(self, inputs):
        for family, params in inputs:
            yield item_key(family, params), lambda f=family, p=params: self.item(f, p)

    def item(self, family: str, params: dict) -> Result:
        am = self.am
        t0 = time.perf_counter()
        g, f, inst = am.families.build_family(family, **params)
        cert = am.families.verify_instance(g, f, inst)
        text = am.io.dumps(am.io.graph_to_doc(g, f, inst, cert))
        dot = am.io.graph_to_dot(g, f)
        doc = json.loads(text)
        g2, f2 = am.io.doc_to_graph(doc)
        cert2 = am.graph.certify(g2, f2, doc.get("expected_palette"))
        cert_text = am.io.dumps(am.io.certificate_to_doc(cert2))
        seconds = time.perf_counter() - t0
        # canonical JSON by the standard library, which the tracer leaves
        # alone, so the check adds nothing to the io figures
        if canonical(am.io.certificate_to_doc(cert2)) != canonical(am.io.certificate_to_doc(cert)):
            raise WrongOutput("the re-imported document certifies differently")
        return Result(len(g.edges), seconds, text + dot + cert_text, proves_three(cert2))


def canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def _shape_edges(shape: str, n: int) -> tuple[int, list[tuple[int, int]]]:
    if shape == "cycle":
        return n, [(i, (i + 1) % n) for i in range(n)]
    if shape == "path":
        return n, [(i, i + 1) for i in range(n - 1)]
    return n + 1, [(0, i) for i in range(1, n + 1)]  # star K1,n


class Solve:
    """``solve_chi_la`` on solver-size cycles, paths and a star without a
    witness, and on four q = 15 family instances seeded with their 3-colour
    witness under a short time budget."""

    name = "solve"
    # the search time of a case moves by a fifth or more with the seed's
    # vertex-name permutation, far more than between repeats of one
    # permutation, so a run averages six permutations instead of repeating
    passes, repeats = 6, 1

    def __init__(self, am, reference: dict, seed: int,
                 exact=SOLVE_EXACT, witness=SOLVE_WITNESS):
        self.am, self.seed = am, seed
        self.bases = [
            (name, *_shape_edges(shape, n), None, known)
            for name, shape, n, known in exact
        ]
        for name, family, params in witness:
            g, f, _ = am.families.build_family(family, **params)
            vs = g.sorted_vertices()
            index = {v: i for i, v in enumerate(vs)}
            pairs = [(index[a], index[b]) for a, b in g.sorted_edges()]
            labels = [f.labels[e] for e in g.sorted_edges()]
            self.bases.append((name, len(vs), pairs, labels, 3))

    def pass_inputs(self, p: int) -> list[tuple]:
        """Every graph with its vertex names permuted by the seed, which
        changes the solver's search order but not the answer."""
        graph = self.am.graph
        rng = random.Random(f"solve/{self.seed}/{p}")
        out = []
        for name, order, pairs, labels, known in self.bases:
            names = [graph.V("v", i) for i in rng.sample(range(1, order + 1), order)]
            edges = [graph.edge(names[a], names[b]) for a, b in pairs]
            g = graph.Graph(names, edges)
            witness = None if labels is None else graph.EdgeLabeling.from_dict(dict(zip(edges, labels)))
            out.append((name, g, witness, known))
        return out

    def items(self, inputs):
        for name, g, witness, known in inputs:
            yield name, lambda n=name, g=g, w=witness, k=known: self.item(n, g, w, k)

    def item(self, name: str, g, witness, known: int) -> Result:
        am = self.am
        if witness is None:
            cfg = am.solver.SearchConfig()
        else:
            cfg = am.solver.SearchConfig(max_edges=15, time_budget=SOLVE_BUDGET_S)
        t0 = time.perf_counter()
        res = am.solver.solve_chi_la(g, cfg, initial_witness=witness)
        seconds = time.perf_counter() - t0
        if res.witness is None:
            raise WrongOutput(f"{name}: no witness ({res.status})")
        cert = am.graph.certify(g, res.witness)
        if not (cert.is_bijective and cert.is_local_antimagic):
            raise WrongOutput(f"{name}: the witness does not certify")
        if res.status == "exact" and res.chi_la != known:
            raise WrongOutput(f"{name}: chi_la = {res.chi_la}, expected {known}")
        if cert.color_count != known:
            raise WrongOutput(f"{name}: witness has {cert.color_count} colours, expected {known}")
        summary = {"case": name, "order": len(g.vertices), "size": len(g.edges),
                   "witness_colors": cert.color_count}
        if witness is None:
            # no budget: the answer must be proven; under a budget the status
            # depends on the clock, so it stays out of the canonical summary
            if res.status != "exact":
                raise WrongOutput(f"{name}: status {res.status} without a budget")
            summary.update(status=res.status, chi_la=res.chi_la)
        return Result(len(g.edges), seconds, json.dumps(summary, sort_keys=True),
                      res.status == "exact", witness is not None)


WORKLOADS = {w.name: w for w in (Grid, Large, Solve)}

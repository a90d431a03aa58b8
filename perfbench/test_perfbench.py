"""Self-test of the benchmark at tiny sizes.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import Span, Tracer, own_times  # noqa: E402
from workloads import Grid, Large, Solve, item_key  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
GRID_REFERENCE = run.load_reference("grid")["items"]

# per-layer metrics that count work rather than time it
COUNTS = {"tables.calls", "partition.calls", "families.build_calls", "graph.merge_calls",
          "graph.split_calls", "graph.surgery_edges_ratio", "graph.certify_calls",
          "graph.induce_calls_per_instance", "solver.calls", "solver.nodes", "io.bytes_out"}

TINY_LARGE = {"fb": [{"n": 7}], "gn": [{"n": 30, "indices": (1, 2)}], "pt3": [{"n": 6, "r": 2}]}
TINY_SOLVE = {"exact": (("C5", "cycle", 5, 3), ("K1,3", "star", 3, 4)),
              "witness": (("fb3", "fb", {"n": 3}),)}


def self_reference(workload) -> dict:
    """Reference digests taken from the workload itself, for tiny items that
    the recorded reference does not cover."""
    items = {}
    for key, thunk in workload.items(workload.pass_inputs(0)):
        result = thunk()
        items[key] = [result.edges, run.sha256(result.artifact)[:16]]
    return items


def tiny_workloads(am):
    grid = Grid(am, GRID_REFERENCE, seed=5, stratum=10**6)
    large = Large(am, {}, seed=5, bands=TINY_LARGE)
    solve = Solve(am, {}, seed=5, **TINY_SOLVE)
    for w in (grid, large, solve):
        w.passes, w.repeats = 1, 2
    return [
        (grid, GRID_REFERENCE),
        (large, self_reference(large)),
        (solve, self_reference(solve)),
    ]


def swap_two_labels(build):
    """A builder whose labeling has the labels of two edges exchanged: still a
    bijection, but no longer the construction's labeling."""

    def swapped(family, **params):
        g, f, inst = build(family, **params)
        a, b = g.sorted_edges()[:2]
        labels = dict(f.labels)
        labels[a], labels[b] = labels[b], labels[a]
        return g, type(f).from_dict(labels), inst

    return swapped


class MetricNames(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.am = run.import_program()

    def test_every_metric_of_the_spec_is_reported(self):
        e2e = [m["name"] for m in SPEC["end_to_end"]]
        layers = [m["name"] for m in SPEC["per_layer"]]
        for workload, reference in tiny_workloads(self.am):
            with self.subTest(workload=workload.name):
                plain = run.Run(reference, None)
                groups = run.measure(workload, plain, trace=False)
                self.assertEqual(plain.failed, 0, plain.failures)
                self.assertEqual(list(run.end_to_end(groups, [0.1], plain.peak_rss_mb, plain.scale())), e2e)

                traced = run.Run(reference, Tracer())
                groups = run.measure(workload, traced, trace=True)
                self.assertEqual(traced.failed, 0, traced.failures)
                self.assertEqual(list(run.per_layer(groups, traced.tracer, traced.scale())), layers)
                self.assertTrue(traced.tracer.spans)

    def test_counts_repeat_exactly_for_a_seed(self):
        for workload, reference in tiny_workloads(self.am):
            with self.subTest(workload=workload.name):
                counts = []
                for _ in range(2):
                    traced = run.Run(reference, Tracer())
                    groups = run.measure(workload, traced, trace=True)
                    metrics = run.per_layer(groups, traced.tracer, traced.scale())
                    counts.append({k: v for k, v in metrics.items() if k in COUNTS})
                self.assertEqual(counts[0], counts[1])
                self.assertEqual(len(counts[0]), len(COUNTS))

    def test_tracer_restores_the_program(self):
        before = self.am.families.certify
        loads = json.loads
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(self.am.families.certify, before)
        self.assertIsNot(self.am.graph.certify, before)
        self.assertIsNot(json.loads, loads)
        tracer.uninstall()
        self.assertIs(self.am.families.certify, before)
        self.assertIs(self.am.graph.certify, before)
        self.assertIs(json.loads, loads)


class OwnTime(unittest.TestCase):
    def test_io_keeps_its_graph_children(self):
        doc = Span("graph_to_doc", "io", 0.0, None, "x")
        induce = Span("induce_coloring", "graph", 1.0, 0, "x")
        build = Span("build_family", "families", 4.0, None, "x")
        certify = Span("certify", "graph", 5.0, 2, "x")
        doc.end, induce.end, build.end, certify.end = 3.0, 2.0, 8.0, 7.0
        self.assertEqual(own_times([doc, induce, build, certify]), [3.0, 1.0, 2.0, 2.0])


class FailureAccounting(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.am = run.import_program()

    def run_two(self, workload, reference, first, second):
        """Run two items with labels swapped in the first; return the Run."""
        families = self.am.families
        r = run.Run(reference, None)
        with mock.patch.object(families, "build_family", swap_two_labels(families.build_family)):
            bad = r.item(first, lambda: workload.item(*split_key(first)), traced=False)
        good = r.item(second, lambda: workload.item(*split_key(second)), traced=False)
        self.assertEqual(bad, (None, None))
        self.assertIsNotNone(good[0])
        return r

    def test_swapped_labels_fail_a_grid_item(self):
        grid = Grid(self.am, GRID_REFERENCE, seed=0, stratum=10**6)
        r = self.run_two(grid, GRID_REFERENCE,
                         item_key("fb", {"n": 9}), item_key("tb", {"n": 4}))
        self.assertEqual((r.attempted, r.failed), (2, 1))
        self.assertIn("fb", r.failures[0])

    def test_swapped_labels_fail_a_large_item(self):
        large = Large(self.am, {}, seed=0, bands=TINY_LARGE)
        reference = self_reference(large)
        keys = list(reference)
        r = self.run_two(large, reference, keys[0], keys[1])
        self.assertEqual((r.attempted, r.failed), (2, 1))

    def test_any_exception_is_counted_and_the_run_goes_on(self):
        r = run.Run({}, None)
        self.assertEqual(r.item("a", lambda: self.am.families.build_family("fb", n=4), False),
                         (None, None))
        self.assertEqual(r.item("b", lambda: {}["missing"], False), (None, None))
        self.assertEqual((r.attempted, r.failed), (2, 2))
        self.assertIn("InvalidParity", r.failures[0])
        self.assertIn("KeyError", r.failures[1])


def split_key(key: str):
    family, params = key.split(" ", 1)
    return family, json.loads(params)


class WithoutTheProgram(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        (run.HERE / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.HERE / "out") as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

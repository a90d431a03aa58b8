"""Run one benchmark workload against the ``antimagic`` sources of this checkout.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 24 --trace 0

A closed loop with one client: a single process, no extra threads, each item
starting when the previous one has finished.  The timed phase runs the
workload's fixed number of passes, each over its own inputs (derived by
``workloads.py`` from the seed and the pass number), and repeats them a fixed
number of times, so a seed fixes the work of a run.  ``--seconds`` does not
change the work: the workloads are sized to fill ``run_seconds`` of
``BENCHMARK.json``, and the harness prints how long the timed phase took.
An item's time is the median of its repeats: the machine is shared, and one
repeat can be slowed, or sped up, by the neighbours.  The neighbours also
slow the whole machine for minutes at a time, so every reported time is in
*reference seconds*: a fixed piece of pure-Python work, ``reference_work``, is
timed about four times a second between items, and times are multiplied by
(``REFERENCE_S`` over its median time in the run) ** ``REFERENCE_POWER``.

Every item's output is checked by its oracle and against the digest recorded
at the seed commit; a failed item is counted, its exception type printed, and
the run goes on.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones: a traced round of the passes is added, and the spans are
written to ``perfbench/out/``.  Human-readable lines come first; the last line
of standard output is one JSON object.  The exit code is 0 if every item
passed, 1 if one failed, 2 if the program cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
# every set-up then compiles the package from source, whether or not the
# environment would cache bytecode, so setup_s means the same in every run
sys.dont_write_bytecode = True

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 25
# about the median time of reference_work on a shared 2-core Xeon with
# Python 3.11: at that speed a reported time is the raw time
REFERENCE_S = 0.020
# between the machine's fast and slow spells the program's times moved with
# about this power of reference_work's time: 0.5 on solve, 0.6 on large and
# 0.75-0.85 on grid (perfbench/README.md)
REFERENCE_POWER = 0.65
REFERENCE_EVERY_S = 0.25
MODULES = ("families", "graph", "io", "solver")


class ProgramMissing(Exception):
    pass


def import_program():
    """Import the package afresh from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "antimagic" or n.startswith("antimagic.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        am = importlib.import_module("antimagic")
        for m in MODULES:
            importlib.import_module("antimagic." + m)
    except ImportError as exc:
        raise ProgramMissing(f"cannot import antimagic from {src}: {exc}") from None
    if src.resolve() not in Path(am.__file__).resolve().parents:
        raise ProgramMissing(f"antimagic was imported from {am.__file__}, not {src}")
    return am


def load_reference(workload: str) -> dict:
    return json.loads((HERE / "reference" / f"{workload}.json").read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, by ``statistics.quantiles`` (exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def reference_work() -> int:
    """Fixed pure-Python work in the style of the program, but none of its
    code: tuple keys, dicts of sets, sums, a sort and a breadth-first search
    over a pseudo-random graph of 3000 vertices.  It slows down with the
    machine, by the same factor as the program."""
    n, x = 3000, 12345
    adj: dict[int, set] = {}
    for i in range(4 * n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        a, b = i % n, x % n
        if a != b:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    sums = {v: sum(nb) for v, nb in adj.items()}
    order = sorted(adj, key=lambda v: (len(adj[v]), sums[v], v))
    seen, frontier = {order[0]}, [order[0]]
    while frontier:
        frontier = [w for v in frontier for w in adj[v] if w not in seen and not seen.add(w)]
    return len(seen)


class Run:
    """Counts, failures and machine-speed samples of one workload run."""

    def __init__(self, reference: dict, tracer: Tracer | None):
        self.reference = reference
        self.tracer = tracer
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.peak_rss_mb: float | None = None
        self.reference_times: list[float] = []
        self._next_reference = 0.0

    def sample_speed(self) -> float:
        """Time ``reference_work`` if it is due; return the seconds spent."""
        t0 = time.perf_counter()
        if t0 < self._next_reference:
            return 0.0
        reference_work()
        t1 = time.perf_counter()
        self.reference_times.append(t1 - t0)
        self._next_reference = t1 + REFERENCE_EVERY_S
        return t1 - t0

    def scale(self) -> float:
        """Reference seconds per second of this run."""
        return (REFERENCE_S / statistics.median(self.reference_times)) ** REFERENCE_POWER

    def item(self, key: str, thunk, traced: bool):
        """Run one item; return its result and the sha256 of its artifact,
        or ``(None, None)`` if it raised or its output is wrong."""
        self.attempted += 1
        span = None
        if traced:
            self.tracer.item = key
            span = self.tracer.open("item", "harness")
        try:
            result = thunk()
            digest = sha256(result.artifact)
            expected = self.reference.get(key)
            if expected is None:
                raise LookupError("no reference output for this item")
            if digest[:16] != expected[1]:
                raise ValueError(f"output digest {digest[:16]} != reference {expected[1]}")
        except Exception as exc:  # every failure is counted; the run goes on
            self.failed += 1
            self.failures.append(f"{key}: {type(exc).__name__}: {exc}")
            if len(self.failures) <= 3:
                traceback.print_exc(file=sys.stderr)
            return None, None
        finally:
            if span is not None:
                self.tracer.close(span)
        if span is not None:
            self.tracer.spans[span].note = {"edges": result.edges}
        # drop the artifact, so that memory held by the benchmark stays small
        return result._replace(artifact=""), digest

    def one_pass(self, workload, inputs, traced: bool):
        """Seconds of one pass over ``inputs`` and its ``(result, digest)`` pairs."""
        if traced:
            self.tracer.install()
        t0 = time.perf_counter()
        outcomes, sampling = [], 0.0
        for key, thunk in workload.items(inputs):
            sampling += self.sample_speed()
            outcomes.append(self.item(key, thunk, traced))
        seconds = time.perf_counter() - t0 - sampling
        if traced:
            self.tracer.uninstall()
        if self.peak_rss_mb is None:
            # later passes repeat the same work; they would add only the
            # fragmentation of a long-lived heap.  ru_maxrss is in KiB on Linux
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return seconds, outcomes


def measure(workload, run: Run, trace: bool) -> list[dict]:
    """The timed phase: the workload's passes, each over its own inputs, run
    ``workload.repeats`` times in rounds (round r runs every pass once), so
    that the repeats of an item lie far apart in time.  Tracing adds one
    traced round."""
    inputs = [workload.pass_inputs(p) for p in range(workload.passes)]
    groups = [{"passes": [], "traced": None} for _ in inputs]
    for _ in range(workload.repeats):
        for group, pass_inputs in zip(groups, inputs):
            group["passes"].append(run.one_pass(workload, pass_inputs, False))
    if trace:
        for group, pass_inputs in zip(groups, inputs):
            group["traced"] = run.one_pass(workload, pass_inputs, True)
    return groups


def median_repeat(group: dict) -> list:
    """Per item of the group, its result with the median time of its repeats,
    or None if a repeat failed."""
    typical = []
    for repeats in zip(*(outcomes for _, outcomes in group["passes"])):
        results = [r for r, _ in repeats]
        typical.append(None if None in results else
                       results[0]._replace(seconds=statistics.median(r.seconds for r in results)))
    return typical


def end_to_end(groups: list[dict], setup_times: list[float], peak_rss_mb: float,
               scale: float) -> dict:
    """The end-to-end metrics, with every time multiplied by ``scale``."""
    results = [r for g in groups for r in median_repeat(g) if r is not None]
    us_per_edge = [r.seconds * scale / r.edges * 1e6 for r in results if not r.budgeted]
    outcomes = [r for g in groups for _, out in g["passes"] for r, _ in out]
    wall_s = sum(r.seconds for r in results) * scale
    return {
        "setup_s": statistics.median(setup_times) * scale,
        "wall_s": wall_s,
        "edges_per_s": sum(r.edges for r in results) / wall_s,
        "us_per_edge_p50": quantile(us_per_edge, 50),
        "us_per_edge_p90": quantile(us_per_edge, 90),
        "peak_rss_mb": peak_rss_mb,
        "exact_ratio": sum(r.exact for r in outcomes if r) / len(outcomes),
    }


def per_layer(groups: list[dict], tracer: Tracer, scale: float) -> dict:
    metrics = layer_metrics(tracer.spans, len(groups), scale)
    metrics["trace.overhead_ratio"] = statistics.median(
        g["traced"][0] / statistics.median(s for s, _ in g["passes"]) for g in groups
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    reference = load_reference(args.workload)
    cls = WORKLOADS[args.workload]

    # set-up: a fresh import of the package plus the workload's input
    # generation, repeated so that its median is steady
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            am = workload = None
            gc.collect()
            t0 = time.perf_counter()
            am = import_program()
            workload = cls(am, reference["items"], args.seed)
            setup_times.append(time.perf_counter() - t0)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    run = Run(reference["items"], tracer)
    t0 = time.perf_counter()
    groups = measure(workload, run, bool(args.trace))
    timed_s = time.perf_counter() - t0

    first = groups[0]["passes"][0][1]
    digest = sha256("".join((d or "-") + "\n" for _, d in first))
    at_default = args.seed == reference["default_seed"]
    correct = run.failed == 0 and (not at_default or digest == reference["digest"])

    print(f"workload {args.workload}, seed {args.seed}: {workload.passes} passes, "
          f"{workload.repeats} repeats, {run.attempted} items, {run.failed} failed, "
          f"timed phase {timed_s:.1f} s (--seconds {args.seconds:g})")
    for line in run.failures:
        print("  FAIL " + line)
    verdict = ""
    if at_default:
        verdict = (" (matches the seed commit)" if digest == reference["digest"]
                   else " (DIFFERS from the seed commit)")
    print(f"  pass-0 output digest {digest}{verdict}")
    print(f"  failed_ratio = {run.failed / run.attempted} ratio")
    scale = run.scale()
    print(f"  reference_work median {statistics.median(run.reference_times) * 1e3:.2f} ms "
          f"over {len(run.reference_times)} samples: times below are multiplied by {scale:.4f}")

    if args.trace:
        values = per_layer(groups, tracer, scale)
        tracer.dump(HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        values = end_to_end(groups, setup_times, run.peak_rss_mb, scale)
        raw = sum(r.seconds for g in groups for r in median_repeat(g) if r)
        print(f"  unscaled: wall {raw:.4f} s, set-up {statistics.median(setup_times):.4f} s")
        samples = sum(1 for g in groups for r in median_repeat(g) if r and not r.budgeted)
        print(f"  us_per_edge percentiles over {samples} items")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {}
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"  {name} = {value} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

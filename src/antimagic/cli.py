"""Command-line front end: tables, builds, partitions, sweeps, solving.

Exit codes: 0 all checks passed, 1 an invariant failed, 2 usage error.
Every run appends one deterministic line to ``<out>/manifest.jsonl``, opened
before the command runs (if it cannot be, exit 2 with nothing written); its
``outputs`` names each file the run wrote, in order, even if a later step failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from functools import partial
from pathlib import Path

from . import io
from .errors import InvariantError, UsageError
from .families import FAMILY_TAGS, GRID_BOUND, build_family, sweep_family, verify_instance
from .graph import certify
from .partition import partition_ap
from .solver import SearchConfig, solve_chi_la
from .tables import (
    check_m1_observations,
    check_m3_observations,
    make_table,
    trace_sequences,
)


def _write(out: str, outputs: list[str], name: str, content: str) -> None:
    path = Path(out) / name
    try:
        path.write_text(content)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None
    outputs.append(str(path))


def cmd_table(args, write) -> tuple[int, str]:
    t = make_table(args.kind, args.k)
    write(f"table_{args.kind}_k{args.k}.csv", io.table_to_csv(t))
    if args.kind == "m1":
        report = check_m1_observations(t)
        # JSON keys are strings: block (r, s) becomes "rxs"
        report["block_sums"] = {
            f"{r}x{s}": total for (r, s), total in report["block_sums"].items()
        }
    elif args.kind == "m3":
        report = check_m3_observations(t)
    else:
        tr = trace_sequences(t)
        report = {"k": t.k, "s1": list(tr.s1), "s2": list(tr.s2)}
    write(f"table_{args.kind}_k{args.k}_report.json", io.dumps(report))
    print(f"table {args.kind} k={args.k}: all observations hold")
    return 0, "pass"


_BUILD_INTS = ("n", "t", "s", "r", "r1")  # the int options of ``build``, in help order


def _build_params(args) -> dict:
    params = {key: getattr(args, key) for key in _BUILD_INTS if getattr(args, key) is not None}
    if args.indices is not None:
        try:
            params["indices"] = tuple(int(x) for x in args.indices.split(","))
        except ValueError:
            raise UsageError(f"indices are not comma-separated ints: {args.indices!r}") from None
    return params


def _param_stem(family: str, params: dict) -> str:
    parts = []
    for key, val in sorted(params.items()):
        if key == "k":
            continue
        if isinstance(val, tuple):
            val = "-".join(str(x) for x in val)
        parts.append(f"{key}{val}")
    return family + "_" + "_".join(parts)


def cmd_build(args, write) -> tuple[int, str]:
    params = _build_params(args)
    g, f, inst = build_family(args.family, **params)
    # a false claim raises, so a failed build writes no document
    cert = verify_instance(g, f, inst)
    print(
        f"{args.family}{inst.params}: colors={cert.color_count} "
        f"palette={list(cert.palette)} OK"
    )
    stem = _param_stem(args.family, inst.params)
    if args.emit in ("json", "both"):
        write(stem + ".json", io.dumps(io.graph_to_doc(g, f, inst, cert)))
    if args.emit in ("dot", "both"):
        write(stem + ".dot", io.graph_to_dot(g, f))
    return 0, "pass"


def cmd_partition(args, write) -> tuple[int, str]:
    part = partition_ap(args.first, args.step, args.t, args.s)
    csv = io.partition_to_csv(part)
    sys.stdout.write(csv)
    write(f"partition_{args.first}_{args.step}_{args.t}x{args.s}.csv", csv)
    return 0, f"target={part.target}"


_BOUNDS = tuple(dict.fromkeys(GRID_BOUND.values()))  # the grid bounds, once each


def _flag(bound: str) -> str:
    return "--" + bound.replace("_", "-")


def cmd_sweep(args, write) -> tuple[int, str]:
    families = FAMILY_TAGS if args.family == "all" else (args.family,)
    if args.family != "all":
        read = GRID_BOUND[args.family]
        unread = sorted(b for b in _BOUNDS if b != read and getattr(args, b) is not None)
        if unread:
            flags = [_flag(b) for b in [read] + unread]
            raise UsageError(
                f"the {args.family} grid reads only {flags[0]}, not {', '.join(flags[1:])}"
            )

    all_records = []
    for family in families:
        records = sweep_family(family, getattr(args, GRID_BOUND[family]))
        counts = {
            status: sum(1 for r in records if r["status"] == status)
            for status in ("pass", "fail", "excluded")
        }
        print(
            f"{family}: {counts['pass']} pass, {counts['fail']} fail, "
            f"{counts['excluded']} excluded"
        )
        for rec in records:
            if rec["status"] == "fail":
                print(f"  FAIL {rec['params']}: {rec['reason']}")
        all_records.extend(records)
    if not all_records:
        raise UsageError(f"the bounds leave the {args.family} sweep no grid point")

    write("sweep_report.json", io.dumps({"records": all_records}))
    if any(rec["status"] == "fail" for rec in all_records):
        return 1, "fail"
    return 0, "pass"


def cmd_solve(args, write, doc: dict) -> tuple[int, str]:
    g, f = io.doc_to_graph(doc)
    cfg = SearchConfig(
        max_edges=args.max_edges,
        target_colors=args.target,
        time_budget=args.time_budget,
    )
    result = solve_chi_la(g, cfg, initial_witness=f if args.use_witness else None)
    # the JSON is the result's fields less the clock, which stdout alone shows
    summary = result._asdict()
    del summary["elapsed"]
    summary["witness"] = io.labeling_to_doc(g, result.witness) if result.witness else None
    prunes = " ".join(f"{reason}={n}" for reason, n in result.prunes.items())
    rate = result.nodes / result.elapsed if result.elapsed else 0.0
    print(
        f"chi_la = {result.chi_la} ({result.status}, {result.nodes} nodes, "
        f"floor {result.floor} by {result.floor_rule}, {result.passes} passes, "
        f"prunes {prunes}, {result.elapsed:.3f} s, {rate:.0f} nodes/s)"
    )
    write(Path(args.input).stem + "_solve.json", io.dumps(summary))
    return (2 if result.status == "infeasible_size" else 0), result.status


def cmd_certify(args, write, doc: dict) -> tuple[int, str]:
    g, f = io.doc_to_graph(doc)
    expected = doc.get("expected_palette")
    if expected is not None and not (
        isinstance(expected, list)
        and all(isinstance(c, int) and not isinstance(c, bool) for c in expected)
    ):
        raise UsageError(f"expected_palette is not a list of ints: {expected!r}")
    cert = certify(g, f, expected)
    ok = cert.ok()
    print(
        f"bijective={cert.is_bijective} local_antimagic={cert.is_local_antimagic} "
        f"colors={cert.color_count} palette={list(cert.palette)}"
    )
    write(Path(args.input).stem + "_certificate.json", io.dumps(io.certificate_to_doc(cert)))
    return (0 if ok else 1), ("pass" if ok else "fail")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise :class:`UsageError` instead of
    exiting, so that ``main`` can write the manifest line first."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="antimagic",
        description="Construct, certify and solve local antimagic 3-colorings",
    )
    parser.add_argument("--out", default="out", help="output directory (manifest lives here)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="emit one label matrix as CSV and check its observations")
    p.add_argument("--kind", required=True, choices=["m1", "pt", "m3"])
    p.add_argument("--k", required=True, type=int)

    p = sub.add_parser("build", help="build and certify one labeled family instance")
    p.add_argument("--family", required=True, choices=list(FAMILY_TAGS))
    for key in _BUILD_INTS:
        p.add_argument("--" + key, type=int)
    p.add_argument("--indices", help="comma-separated split indices (gn, and gb over gn)")
    p.add_argument("--emit", choices=["json", "dot", "both"], default="json",
                   help="files to write (default: json)")

    p = sub.add_parser("partition", help="equal-sum partition of an AP")
    p.add_argument("--first", required=True, type=int)
    p.add_argument("--step", required=True, type=int)
    p.add_argument("--t", required=True, type=int)
    p.add_argument("--s", required=True, type=int)

    p = sub.add_parser("sweep", help="build + certify a family grid")
    p.add_argument("--family", required=True, choices=list(FAMILY_TAGS) + ["all"])
    for bound in _BOUNDS:
        readers = "/".join(t for t in FAMILY_TAGS if GRID_BOUND[t] == bound)
        p.add_argument(_flag(bound), type=int, help=f"bound of the {readers} grids")

    p = sub.add_parser("solve", help="exact chi_la search on a graph document")
    p.add_argument("--input", required=True)
    # SearchConfig checks the three bounds
    p.add_argument("--max-edges", type=int, default=SearchConfig().max_edges)
    p.add_argument("--target", type=int)
    p.add_argument("--time-budget", type=float)
    p.add_argument("--use-witness", action="store_true",
                   help="seed the incumbent with the document's labeling")

    p = sub.add_parser("certify", help="certify a graph document and its expected_palette")
    p.add_argument("--input", required=True)

    return parser


_HANDLERS = {
    "table": cmd_table,
    "build": cmd_build,
    "partition": cmd_partition,
    "sweep": cmd_sweep,
    "solve": cmd_solve,
    "certify": cmd_certify,
}


def _usable_out(out: str):
    """Make ``--out`` and open its manifest for append; None after a usage error."""
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
        return (Path(out) / "manifest.jsonl").open("a")
    except OSError as exc:
        print(f"usage error: --out {out} cannot hold the run manifest: {exc}", file=sys.stderr)
        return None


def main(argv: list[str] | None = None) -> int:
    # argparse fills ``args`` as it parses: an ``--out`` given before a parse error
    # is honoured, and until the parse succeeds the manifest records the raw argv
    args = argparse.Namespace()
    parameters = {"argv": list(sys.argv[1:] if argv is None else argv)}
    parse_error, input_hashes, docs, outputs = None, {}, [], []
    try:
        make_parser().parse_args(argv, namespace=args)
    except UsageError as exc:
        parse_error = exc
    manifest = _usable_out(args.out)
    try:
        if parse_error is not None:
            raise parse_error
        if manifest is None:
            return 2
        parameters = {k: v for k, v in vars(args).items() if k != "command"}
        if getattr(args, "input", None) is not None:
            # one read: the manifest hashes the very bytes that are parsed
            try:
                data = Path(args.input).read_bytes()
            except OSError as exc:
                raise UsageError(f"cannot read {args.input}: {exc}") from None
            input_hashes[args.input] = hashlib.sha256(data).hexdigest()
            try:
                docs.append(json.loads(data.decode()))
            except (ValueError, RecursionError) as exc:  # json.loads recurses per nesting
                raise UsageError(f"{args.input} is not a JSON document: {exc}") from None
        code, outcome = _HANDLERS[args.command](args, partial(_write, args.out, outputs), *docs)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        code, outcome = 2, f"usage error: {exc}"
    except InvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        code, outcome = 1, f"invariant failure: {exc}"
    except BaseException as exc:
        outcome = f"internal error: {type(exc).__name__}: {exc}"
        raise
    finally:
        if manifest is not None:
            io.append_manifest(manifest, args.command, parameters, input_hashes, outcome, outputs)
    if parse_error is not None:
        raise SystemExit(2)
    return code

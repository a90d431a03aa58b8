"""Command-line front end: tables, builds, partitions, sweeps, solving.

Exit codes: 0 all checks passed, 1 an invariant failed, 2 usage error.
Every run appends one deterministic line to ``<out>/manifest.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__, io
from .errors import AntimagicError, InvariantError, UsageError
from .families import FAMILY_TAGS, build_family, sweep_family
from .graph import certify
from .partition import ApSpec, partition_ap
from .solver import SearchConfig, solve_chi_la
from .tables import (
    check_m1_observations,
    check_m3_observations,
    make_table,
    trace_sequences,
)


def _parse_palette(text: str) -> list[int] | None:
    if text == "auto":
        return None
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"palette is not 'auto' or comma-separated ints: {text!r}") from None


def _load_doc(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise UsageError(f"{path} is not a JSON document: {exc}") from None


def _write(out_dir: Path, name: str, content: str) -> str:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(content)
    return str(path)


def cmd_table(args, out_dir: Path) -> tuple[int, str, list[str]]:
    t = make_table(args.kind, args.k)
    outputs = [_write(out_dir, f"table_{args.kind}_k{args.k}.csv", io.table_to_csv(t))]
    if args.check:
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
        outputs.append(
            _write(out_dir, f"table_{args.kind}_k{args.k}_report.json", io.dumps(report))
        )
        print(f"table {args.kind} k={args.k}: all observations hold")
    return 0, "pass", outputs


def _build_params(args) -> dict:
    params: dict = {}
    if args.n is not None:
        params["n"] = args.n
    for key in ("t", "s", "r", "r1"):
        val = getattr(args, key)
        if val is not None:
            params[key] = val
    if args.indices:
        try:
            params["indices"] = tuple(int(x) for x in args.indices.split(","))
        except ValueError:
            raise UsageError(f"indices are not comma-separated ints: {args.indices!r}") from None
    if args.base and args.family == "gb":
        params["base"] = args.base
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


def cmd_build(args, out_dir: Path) -> tuple[int, str, list[str]]:
    params = _build_params(args)
    g, f, inst = build_family(args.family, **params)
    cert = None
    code, outcome = 0, "built"
    if args.certify:
        expected = (
            inst.expected_palette
            if args.expect_palette == "auto"
            else _parse_palette(args.expect_palette)
        )
        cert = certify(g, f, expected)
        ok = cert.ok() and cert.color_count == 3
        code, outcome = (0, "pass") if ok else (1, "fail")
        print(
            f"{args.family}{inst.params}: colors={cert.color_count} "
            f"palette={list(cert.palette)} "
            f"{'OK' if ok else 'FAILED: ' + json.dumps([dict(v) for v in cert.violations])}"
        )
    stem = _param_stem(args.family, inst.params)
    outputs = []
    if args.emit in ("json", "both"):
        outputs.append(
            _write(out_dir, stem + ".json", io.dumps(io.graph_to_doc(g, f, inst, cert)))
        )
    if args.emit in ("dot", "both"):
        outputs.append(_write(out_dir, stem + ".dot", io.graph_to_dot(g, f)))
    return code, outcome, outputs


def cmd_partition(args, out_dir: Path) -> tuple[int, str, list[str]]:
    spec = ApSpec(args.first, args.step, args.t * args.s)
    part = partition_ap(spec, args.t, args.s)
    csv = io.partition_to_csv(part)
    sys.stdout.write(csv)
    outputs = [
        _write(out_dir, f"partition_{args.first}_{args.step}_{args.t}x{args.s}.csv", csv)
    ]
    return 0, f"target={part.target}", outputs


def cmd_sweep(args, out_dir: Path) -> tuple[int, str, list[str]]:
    families = FAMILY_TAGS if args.family == "all" else (args.family,)
    grid_kwargs = {}
    if args.max_size is not None:
        grid_kwargs["max_size"] = args.max_size
    if args.max_n is not None:
        grid_kwargs["max_n"] = args.max_n
    if args.gn_max_n is not None:
        grid_kwargs["gn_max_n"] = args.gn_max_n

    all_records = []
    for family in families:
        records = sweep_family(family, **grid_kwargs)
        counts = {
            status: sum(1 for r in records if r["status"] == status)
            for status in ("pass", "fail", "error", "excluded")
        }
        print(
            f"{family}: {counts['pass']} pass, {counts['fail']} fail, "
            f"{counts['error']} error, {counts['excluded']} excluded"
        )
        for rec in records:
            if rec["status"] in ("fail", "error"):
                print(f"  {rec['status'].upper()} {rec['params']}: {rec['reason']}")
        all_records.extend(records)

    report_name = args.report or "sweep_report.json"
    outputs = [_write(out_dir, report_name, io.dumps({"records": all_records}))]
    statuses = {rec["status"] for rec in all_records}
    if "fail" in statuses:
        return 1, "fail", outputs
    if "error" in statuses:
        return 2, "error", outputs
    return 0, "pass", outputs


def cmd_solve(args, out_dir: Path) -> tuple[int, str, list[str]]:
    g, f = io.doc_to_graph(_load_doc(args.input))
    cfg = SearchConfig(
        max_edges=args.max_edges,
        target_colors=args.target,
        time_budget=args.time_budget,
    )
    result = solve_chi_la(g, cfg, initial_witness=f if args.use_witness else None)
    summary = {
        "status": result.status,
        "chi_la": result.chi_la,
        "nodes": result.nodes,
        "witness": io.labeling_to_doc(result.witness) if result.witness else None,
    }
    print(f"chi_la = {result.chi_la} ({result.status}, {result.nodes} nodes)")
    outputs = [_write(out_dir, Path(args.input).stem + "_solve.json", io.dumps(summary))]
    return (2 if result.status == "infeasible_size" else 0), result.status, outputs


def cmd_certify(args, out_dir: Path) -> tuple[int, str, list[str]]:
    doc = _load_doc(args.input)
    g, f = io.doc_to_graph(doc)
    expected = None
    if args.expect_palette == "auto":
        expected = doc.get("expected_palette")
    elif args.expect_palette is not None:
        expected = _parse_palette(args.expect_palette)
    cert = certify(g, f, expected)
    ok = cert.ok()
    print(
        f"bijective={cert.is_bijective} local_antimagic={cert.is_local_antimagic} "
        f"colors={cert.color_count} palette={list(cert.palette)}"
    )
    outputs = [
        _write(
            out_dir,
            Path(args.input).stem + "_certificate.json",
            io.dumps(io.certificate_to_doc(cert)),
        )
    ]
    return (0 if ok else 1), ("pass" if ok else "fail"), outputs


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

    p = sub.add_parser("table", help="emit one label matrix as CSV")
    p.add_argument("--kind", required=True, choices=["m1", "pt", "m3"])
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--check", action="store_true", help="run the observation suite")

    p = sub.add_parser("build", help="build one labeled family instance")
    p.add_argument("--family", required=True, choices=list(FAMILY_TAGS))
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--r1", type=int)
    p.add_argument("--indices", help="comma-separated split indices (gn/gb)")
    p.add_argument("--base", choices=["tb", "gn"], help="gb base graph")
    p.add_argument("--emit", choices=["json", "dot", "both"], default="json",
                   help="files to write (default: json)")
    p.add_argument("--certify", action="store_true")
    p.add_argument("--expect-palette", default="auto",
                   help="'auto' or comma-separated color values")

    p = sub.add_parser("partition", help="equal-sum partition of an AP")
    p.add_argument("--first", required=True, type=int)
    p.add_argument("--step", required=True, type=int)
    p.add_argument("--t", required=True, type=int)
    p.add_argument("--s", required=True, type=int)

    p = sub.add_parser("sweep", help="build + certify a family grid")
    p.add_argument("--family", required=True, choices=list(FAMILY_TAGS) + ["all"])
    p.add_argument("--max-size", type=int, help="size bound for fb/tfb/df/np3o3 grids")
    p.add_argument("--max-n", type=int, help="order-parameter bound for pt/tb grids")
    p.add_argument("--gn-max-n", type=int, help="bound for the gn grid")
    p.add_argument("--report", help="report file name inside --out")

    p = sub.add_parser("solve", help="exact chi_la search on a graph document")
    p.add_argument("--input", required=True)
    p.add_argument("--max-edges", type=int, default=10)
    p.add_argument("--target", type=int)
    p.add_argument("--time-budget", type=float)
    p.add_argument("--use-witness", action="store_true",
                   help="seed the incumbent with the document's labeling")

    p = sub.add_parser("certify", help="certify a graph document")
    p.add_argument("--input", required=True)
    p.add_argument("--expect-palette", help="'auto' or comma-separated values")

    return parser


_HANDLERS = {
    "table": cmd_table,
    "build": cmd_build,
    "partition": cmd_partition,
    "sweep": cmd_sweep,
    "solve": cmd_solve,
    "certify": cmd_certify,
}


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = argparse.Namespace()
    try:
        parser.parse_args(argv, namespace=args)
    except UsageError as exc:
        # argparse fills ``args`` as it parses, so an ``--out`` given before
        # the error is honoured; otherwise it still holds the default
        print(f"usage error: {exc}", file=sys.stderr)
        io.append_manifest(
            args.out,
            args.command,
            {"argv": list(sys.argv[1:] if argv is None else argv)},
            __version__,
            {},
            f"usage error: {exc}",
            [],
        )
        raise SystemExit(2) from None
    out_dir = Path(args.out)

    input_hashes = {}
    try:
        if getattr(args, "input", None):
            try:
                input_hashes[args.input] = io.sha256_file(args.input)
            except OSError as exc:
                raise UsageError(f"cannot read {args.input}: {exc}") from None
        code, outcome, outputs = _HANDLERS[args.command](args, out_dir)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        code, outcome, outputs = 2, f"usage error: {exc}", []
    except InvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        code, outcome, outputs = 1, f"invariant failure: {exc}", []
    except AntimagicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code, outcome, outputs = 2, str(exc), []

    io.append_manifest(
        out_dir,
        args.command,
        {k: v for k, v in vars(args).items() if k not in ("command",)},
        __version__,
        input_hashes,
        outcome,
        outputs,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())

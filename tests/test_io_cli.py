"""Serialization round-trips, export formats, and the command-line front end."""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic import families, io
from antimagic.cli import main
from antimagic.errors import InvalidParity, InvariantError, UsageError
from antimagic.families import build_family
from antimagic.graph import certify
from antimagic.tables import table_m3


def test_json_roundtrip_identical_certificate_bytes():
    g, f, inst = build_family("fb", n=9)
    cert = certify(g, f, inst.expected_palette)
    doc = io.graph_to_doc(g, f, inst, cert)
    text = io.dumps(doc)

    g2, f2 = io.doc_to_graph(json.loads(text))
    cert2 = certify(g2, f2, inst.expected_palette)
    assert cert2 == cert
    assert io.dumps(io.certificate_to_doc(cert2)) == io.dumps(io.certificate_to_doc(cert))
    assert io.dumps(io.graph_to_doc(g2, f2, inst, cert2)) == text


def test_json_roundtrip_all_family_shapes():
    for family, params in [
        ("df", {"r": 1, "s": 1}),
        ("tb", {"n": 4}),
        ("gn", {"n": 10, "indices": (1,)}),
        ("np3o3", {"n": 3}),
    ]:
        g, f, inst = build_family(family, **params)
        doc = json.loads(io.dumps(io.graph_to_doc(g, f, inst)))
        g2, f2 = io.doc_to_graph(doc)
        assert g2 == g and f2 == f


def test_dot_export_contains_colors_and_labels():
    g, f, inst = build_family("fb", n=3)
    dot = io.graph_to_dot(g, f)
    assert dot.startswith("graph antimagic {")
    assert '"x" [label="x\\n99"];' in dot
    assert '[label="15"]' in dot  # the top edge label appears
    assert dot.count(" -- ") == 15


def test_table_csv_golden():
    csv = io.table_to_csv(table_m3(1))
    lines = csv.strip().split("\n")
    assert lines[0] == "i,1,2,3"
    assert lines[1] == "L,1,3,2"
    assert lines[-1] == "R3,22,24,23"
    assert len(lines) == 12


# sha256 of the JSON document plus the DOT export of the first (smallest)
# non-excluded default-grid point of every family, recorded before VertexId
# became a NamedTuple.  Both artifacts list vertices and edges in VertexId
# order, so these pin that the keys sort as (role, indices) tuples do.
ARTIFACT_DIGESTS = {
    "fb": "14921bef193a46d566c41a60b1cf25e89304951fed29c97b5c34ae9dde8f5fad",
    "tfb": "dad226b2615cc9ff164bc47744d7e6d4f39fd468b7397e4be095633564064144",
    "df": "7d5da1b60bfbde540404900fd30b034db8db8ad11354891d0568655891dba024",
    "fb1": "d7d777ff44bd050920666657d7f4be8f8a2a91adf2e64f4f5060e9f295f1a7ee",
    "fb2": "f737f8e97050fe0841cc86af9540231204b379fb5a5c4aa123e7e8c0c2e9a4f8",
    "df1": "50939166ab909e11c9c476c747d9f9c3ae2ce0b2a470eb8c543fad777b19f257",
    "df2": "152a94185659683c1261e584ddb9cf8bab239948e72b8e7fc9732f2d3f20cfc8",
    "df3": "fa5018a78f81512ec878efc06004ad403f50251530600b34ad036239e3fd027b",
    "pt": "149f1cecd88376bffdee146d11ec95eff70dd85d4f0c787162d9e87a8c53359b",
    "tb": "21c1547c9ea8abc556cec6478fa394ef8c9cdb509909d5d5c290a81b5ed3cbcb",
    "pt1": "8bb1fd6a466edebaf854535f38e5068e3c269685e3e8a012f9bf137f6d02761c",
    "pt2": "e71463cec49dfefde3be9ad52fe6e67131526a6760d9bb9d4ae6ae30ec25ee57",
    "pt3": "892a55be6111a699ca3ace3fe655824fd4bce01f4890a836fcc2a3e8a8434748",
    "tb1": "3ddf9301703a37f979242b046ac08b36a68357660d6f087c0d3d07b583d8b87f",
    "tb2": "025ff1402039e0b9837e732c3c0178344bbbf8ef1c893d0f51d3e98c7bd9786d",
    "tb3": "11329c57bc3f8780ae6923e8aaa562a9462418b381433f12da3a736154e7434d",
    "gn": "93ec09f280b893da21b109e5a088ba137b9d3beeaa87f8e221d049de00efa3a2",
    "gb": "07a6a3c9525f0b978466ab2c9e109a2baa0fcb9b85d96da78ebeba925c915b3a",
    "np3o3": "1a8059c042d65ec8ca5ef1b3a6d95de520a88988af3e9339dfd080992db5243d",
}


def test_smallest_grid_point_artifacts_are_byte_stable():
    assert set(ARTIFACT_DIGESTS) == set(families.FAMILY_TAGS)
    for family, digest in ARTIFACT_DIGESTS.items():
        params = next(p for p, reason in families.family_grid(family) if reason is None)
        g, f, inst = build_family(family, **params)
        cert = families.verify_instance(g, f, inst)
        text = io.dumps(io.graph_to_doc(g, f, inst, cert)) + io.graph_to_dot(g, f)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (family, params)


# --- CLI -------------------------------------------------------------------------


def test_cli_table_check(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "table", "--kind", "m3", "--k", "1", "--check"])
    assert code == 0
    assert "observations hold" in capsys.readouterr().out
    csv = (tmp_path / "table_m3_k1.csv").read_text()
    assert csv.splitlines()[1] == "L,1,3,2"
    assert (tmp_path / "manifest.jsonl").exists()


def test_cli_table_check_m1_writes_its_report(tmp_path):
    code = main(["--out", str(tmp_path), "table", "--kind", "m1", "--k", "4", "--check"])
    assert code == 0
    report = json.loads((tmp_path / "table_m1_k4_report.json").read_text())
    assert report["block_sums"] == {"3x3": 288, "9x1": 96}


def test_cli_table_usage_error(tmp_path):
    code = main(["--out", str(tmp_path), "table", "--kind", "m1", "--k", "0"])
    assert code == 2


def test_cli_build_certify(tmp_path, capsys):
    code = main([
        "--out", str(tmp_path), "build", "--family", "fb", "--n", "9",
        "--certify", "--emit", "both",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "colors=3" in out
    doc = json.loads((tmp_path / "fb_n9.json").read_text())
    assert doc["certificate"]["palette"] == [42, 46, 864]
    dot = (tmp_path / "fb_n9.dot").read_text()
    assert "864" in dot


def test_cli_build_parity_error_is_usage(tmp_path):
    code = main(["--out", str(tmp_path), "build", "--family", "fb", "--n", "8"])
    assert code == 2


def test_cli_build_gn(tmp_path, capsys):
    code = main([
        "--out", str(tmp_path), "build", "--family", "gn", "--n", "10",
        "--indices", "1", "--certify",
    ])
    assert code == 0
    assert "colors=3" in capsys.readouterr().out


def test_cli_partition(tmp_path, capsys):
    code = main([
        "--out", str(tmp_path), "partition", "--first", "88", "--step", "2",
        "--t", "3", "--s", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "block,sum,terms"
    assert all(line.split(",")[1] == "288" for line in out.splitlines()[1:])


def test_cli_sweep_small(tmp_path, capsys):
    code = main([
        "--out", str(tmp_path), "sweep", "--family", "fb", "--max-size", "21",
        "--report", "fb_report.json",
    ])
    assert code == 0
    assert "10 pass, 0 fail" in capsys.readouterr().out
    report = json.loads((tmp_path / "fb_report.json").read_text())
    assert len(report["records"]) == 10


def test_cli_solve_and_certify_roundtrip(tmp_path, capsys):
    # emit the one-blade fan via the cells of the k=1 table is overkill here;
    # build a df(1,1), certify it from file, then solve a small subgraph doc
    code = main([
        "--out", str(tmp_path), "build", "--family", "df", "--n", "0",
    ])
    assert code == 2  # df needs r and s, not n

    code = main(["--out", str(tmp_path), "build", "--family", "tb", "--n", "2"])
    assert code == 0
    doc_path = tmp_path / "tb_n2.json"
    assert doc_path.exists()

    code = main([
        "--out", str(tmp_path), "certify", "--input", str(doc_path),
        "--expect-palette", "auto",
    ])
    assert code == 0
    cert_doc = json.loads((tmp_path / "tb_n2_certificate.json").read_text())
    assert cert_doc["palette"] == [15, 32, 33]
    assert cert_doc["palette_ok"] is True

    code = main([
        "--out", str(tmp_path), "solve", "--input", str(doc_path),
        "--max-edges", "15", "--target", "2", "--use-witness",
        "--time-budget", "5",
    ])
    assert code == 0
    solve_doc = json.loads((tmp_path / "tb_n2_solve.json").read_text())
    assert solve_doc["status"] in ("exact", "budget_exhausted")
    if solve_doc["status"] == "exact":
        assert solve_doc["chi_la"] == 3


def test_cli_manifest_appends(tmp_path):
    main(["--out", str(tmp_path), "table", "--kind", "m1", "--k", "2"])
    main(["--out", str(tmp_path), "table", "--kind", "pt", "--k", "2"])
    lines = (tmp_path / "manifest.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2
    entries = [json.loads(line) for line in lines]
    assert all(e["version"] for e in entries)
    assert entries[0]["command"] == "table"


def test_cli_outputs_are_byte_stable(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        main(["--out", str(out), "build", "--family", "pt", "--n", "4", "--certify"])
    assert (a / "pt_n4.json").read_bytes() == (b / "pt_n4.json").read_bytes()


# --- malformed input ------------------------------------------------------------


def _tb2_doc():
    g, f, inst = build_family("tb", n=2)
    return json.loads(io.dumps(io.graph_to_doc(g, f, inst)))


def _broken_docs():
    """(what is wrong, document) for each malformation doc_to_graph rejects."""
    cases = []
    doc = _tb2_doc()
    del doc["edges"]
    cases.append(("missing key", doc))
    doc = _tb2_doc()
    del doc["vertices"][0]["role"]
    cases.append(("missing vertex key", doc))
    doc = _tb2_doc()
    doc["edges"][0]["a"] = "nowhere_9"
    cases.append(("unknown vertex id", doc))
    doc = _tb2_doc()
    doc["edges"][0]["label"] = "7"
    cases.append(("string label", doc))
    doc = _tb2_doc()
    doc["edges"][0]["label"] = True
    cases.append(("bool label", doc))
    doc = _tb2_doc()
    doc["edges"].append(dict(doc["edges"][0], label=99))
    cases.append(("duplicate edge", doc))
    doc = _tb2_doc()
    doc["edges"].append({"a": doc["edges"][0]["b"], "b": doc["edges"][0]["a"], "label": 99})
    cases.append(("reversed duplicate edge", doc))
    doc = _tb2_doc()
    doc["edges"][0]["b"] = doc["edges"][0]["a"]
    cases.append(("loop", doc))
    return cases


def test_doc_to_graph_rejects_malformed_documents():
    for what, doc in _broken_docs():
        with pytest.raises(UsageError):
            io.doc_to_graph(doc)
            pytest.fail(f"{what} was accepted")


def _json_values():
    scalars = st.none() | st.booleans() | st.integers(-3, 40) | st.sampled_from(
        ["u", "v", "x", "u_1", "v_1", "x_1", "a", "b", "id", "role", "label"]
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(
            st.sampled_from(["vertices", "edges", "id", "role", "indices", "a", "b", "label"]),
            inner,
            max_size=5,
        ),
        max_leaves=25,
    )


def _near_documents():
    vertex = st.fixed_dictionaries({
        "id": st.sampled_from(["u", "v", "x", "u_1"]),
        "role": st.sampled_from(["u", "v", "x"]),
        "indices": st.lists(st.integers(0, 2), max_size=1),
    })
    edge_doc = st.fixed_dictionaries({
        "a": st.sampled_from(["u", "v", "x", "u_1", "w"]),
        "b": st.sampled_from(["u", "v", "x", "u_1", "w"]),
        "label": st.integers(-1, 5) | st.booleans(),
    })
    return st.fixed_dictionaries({
        "vertices": st.lists(vertex, max_size=4),
        "edges": st.lists(edge_doc, max_size=4),
    })


@settings(max_examples=300, deadline=None)
@given(_json_values() | _near_documents())
def test_doc_to_graph_returns_a_graph_or_raises_usage_error(doc):
    try:
        g, f = io.doc_to_graph(doc)
    except UsageError:
        return
    assert set(f.labels) == g.edges


def test_cli_certify_and_solve_reject_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for command in ("certify", "solve"):
        assert main(["--out", str(tmp_path), command, "--input", str(bad)]) == 2
    broken = _broken_docs()
    for what, doc in broken:
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert main(["--out", str(tmp_path), "certify", "--input", str(path)]) == 2, what
    entries = [json.loads(line) for line in (tmp_path / "manifest.jsonl").read_text().splitlines()]
    assert len(entries) == 2 + len(broken)
    assert all(e["outcome"].startswith("usage error") for e in entries)


def test_cli_bad_palette_is_usage(tmp_path):
    code = main([
        "--out", str(tmp_path), "build", "--family", "fb", "--n", "3",
        "--certify", "--expect-palette", "abc",
    ])
    assert code == 2
    entry = json.loads((tmp_path / "manifest.jsonl").read_text())
    assert entry["outcome"].startswith("usage error")


def test_cli_missing_input_writes_a_manifest_line(tmp_path):
    code = main(["--out", str(tmp_path), "certify", "--input", str(tmp_path / "absent.json")])
    assert code == 2
    entry = json.loads((tmp_path / "manifest.jsonl").read_text())
    assert entry["outcome"].startswith("usage error")


def test_cli_solve_infeasible_size_is_usage(tmp_path):
    main(["--out", str(tmp_path), "build", "--family", "tb", "--n", "2"])
    code = main([
        "--out", str(tmp_path), "solve", "--input", str(tmp_path / "tb_n2.json"),
        "--max-edges", "10",
    ])
    assert code == 2
    entry = json.loads((tmp_path / "manifest.jsonl").read_text().splitlines()[-1])
    assert entry["outcome"] == "infeasible_size"


def test_cli_build_emits_json_by_default_and_has_no_global_format(tmp_path):
    assert main(["--out", str(tmp_path), "build", "--family", "fb", "--n", "3"]) == 0
    assert (tmp_path / "fb_n3.json").exists() and not (tmp_path / "fb_n3.dot").exists()
    entry = json.loads((tmp_path / "manifest.jsonl").read_text())
    assert "seed" not in entry["parameters"] and "emit_default" not in entry["parameters"]
    for flag in (["--seed", "1"], ["--format", "dot"]):
        argv = ["--out", str(tmp_path)] + flag + ["build", "--family", "fb", "--n", "3"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        entry = json.loads((tmp_path / "manifest.jsonl").read_text().splitlines()[-1])
        assert entry["outcome"].startswith("usage error")
        assert entry["parameters"] == {"argv": argv}
        assert entry["outputs"] == []


@pytest.mark.parametrize("argv, command, manifest_dir", [
    (["--out", "given", "build", "--family", "fb", "--n", "3", "--bogus"], "build", "given"),
    (["--out", "given", "build", "--n", "3"], "build", "given"),
    (["--out", "given", "build", "--family", "zz", "--n", "3"], "build", "given"),
    (["--out", "given", "table", "--kind", "m1", "--k", "one"], "table", "given"),
    (["--out", "given"], None, "given"),
    # no usable --out: the line goes to the default directory
    (["build", "--family", "zz"], "build", "out"),
    (["--out"], None, "out"),
])
def test_cli_argparse_errors_exit_2_with_a_manifest_line(
    tmp_path, monkeypatch, argv, command, manifest_dir
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    (line,) = (tmp_path / manifest_dir / "manifest.jsonl").read_text().splitlines()
    entry = json.loads(line)
    assert entry["outcome"].startswith("usage error")
    assert entry["command"] == command
    assert entry["parameters"] == {"argv": argv}


# random command lines: no --help, no --out (each example writes to its own
# directory), no sweep and no large sizes, so every example is fast.  Each
# subcommand maps its options to the values tried (None for a flag); "x",
# "zz" and "-1" are malformed on purpose
_SMALL = ["-1", "0", "1", "2", "3", "5", "x"]
_ARGV_OPTIONS = {
    "table": {"--kind": ["m1", "m3", "pt", "zz"], "--k": _SMALL, "--check": None},
    "build": {
        "--family": ["fb", "tb", "df", "gn", "pt3", "zz"], "--n": _SMALL + ["10"],
        "--t": _SMALL, "--s": _SMALL, "--r": _SMALL, "--indices": ["1", "1,2", "x"],
        "--emit": ["json", "dot", "both", "zz"], "--certify": None,
        "--expect-palette": ["auto", "1,2,3", "x"],
    },
    "partition": {"--first": _SMALL, "--step": _SMALL, "--t": _SMALL, "--s": _SMALL},
    "solve": {"--input": ["absent.json"], "--max-edges": _SMALL, "--use-witness": None},
    "certify": {"--input": ["absent.json"], "--expect-palette": ["auto", "x"]},
}
_ARGV_TOKENS = sorted(
    {"--bogus"}
    | set(_ARGV_OPTIONS)
    | {token for opts in _ARGV_OPTIONS.values() for name, values in opts.items()
       for token in [name] + (values or [])}
)


@st.composite
def _argv(draw):
    """A subcommand with some of its options in any order, or any token list."""
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(_ARGV_TOKENS), max_size=8))
    command = draw(st.sampled_from(sorted(_ARGV_OPTIONS)))
    options = _ARGV_OPTIONS[command]
    argv = [command]
    for name in draw(st.lists(st.sampled_from(sorted(options)), unique=True)):
        argv += [name] if options[name] is None else [name, draw(st.sampled_from(options[name]))]
    return argv


@settings(max_examples=200, deadline=None)
@given(_argv())
def test_cli_any_argv_exits_0_1_or_2_with_one_manifest_line(argv):
    with tempfile.TemporaryDirectory() as out:
        try:
            code = main(["--out", out] + argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 1, 2)
        assert len((Path(out) / "manifest.jsonl").read_text().splitlines()) == 1


def test_cli_sweep_exit_codes(tmp_path, monkeypatch, capsys):
    real = families._BUILDERS["fb"]

    def flaky(n):
        if n == 7:
            raise InvalidParity("injected")
        return real(n)

    monkeypatch.setitem(families._BUILDERS, "fb", flaky)
    code = main(["--out", str(tmp_path), "sweep", "--family", "fb", "--max-size", "11"])
    assert code == 2
    assert "4 pass, 0 fail, 1 error, 0 excluded" in capsys.readouterr().out

    def failing(n):
        if n == 9:
            raise InvariantError("injected")
        return flaky(n)

    monkeypatch.setitem(families._BUILDERS, "fb", failing)
    code = main(["--out", str(tmp_path), "sweep", "--family", "fb", "--max-size", "11"])
    assert code == 1

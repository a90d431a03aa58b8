"""Serialization round-trips, export formats, and the command-line front end."""

import builtins
import collections
import functools
import gc
import hashlib
import io as std_io
import json
import math
import random
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antimagic import cli, errors, families, io, tables
from antimagic.cli import main, make_parser
from antimagic.errors import InvalidParity, InvariantError, UsageError
from antimagic.families import build_family
from antimagic.graph import Edge, EdgeLabeling, Graph, VertexId, certify
from antimagic.tables import table_m3
from grid_pass import grid_pass


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
    # the grid pass keeps the texts of each family's first point
    assert set(ARTIFACT_DIGESTS) == set(families.FAMILY_TAGS)
    for family, digest in ARTIFACT_DIGESTS.items():
        params, _, text, dot = grid_pass().stride[family][0]
        assert params == next(p for p, reason in families.family_grid(family) if reason is None)
        assert hashlib.sha256((text + dot).encode()).hexdigest() == digest, (family, params)


# the same digests for the last (largest) non-excluded default-grid point of
# every family, recorded before the merged families shared one merge step
LAST_ARTIFACT_DIGESTS = {
    "fb": "ab0a1ff605c73d93a8eab96a509e400e3aa19d783e3a18f9ed6b6b58bfc2bff7",
    "tfb": "22a0f7d4abb6d892b56a484e2c408d61e1f75cbd2005a868634bd0cd1cfeb0c1",
    "df": "a97b0247e5bbc1f8a449e53417f6ecb43bb7456a730eda9b60250a6d8b1c0e9a",
    "fb1": "df3a23ed1ed2afae708bac6c70cdb09c9d225db82da9faf837bef5d15141ee93",
    "fb2": "d8fc1c6496baab4d4d5d00d39d1650efe2bb9c3db9652d803b9fd2974e1efd2e",
    "df1": "8dc2270c994380c569af9dae63837126ddc690626f7ddf3c365e5d8570f1b8dd",
    "df2": "3a9b54b7ab332dad41e047fc3bb6175ecf508012e79ca9947b1f26ea29d543d7",
    "df3": "bb4735fa2366fb31c9de6fb6e446f5aa66dab27843a1293c7304c63ddf694fac",
    "pt": "2e2d1f4104346d11eae3e813f4b3fead52989326bd18d0bf0672e3b0ee1adb5d",
    "tb": "1d2ec51850e3f2972e0977f15709f7ce2fc03e977f123467cea136ebe2b9ba49",
    "pt1": "93237252ae499a5e8e0b29bbee201d1d8c953d44c117d476bf54d39820925f26",
    "pt2": "7da0391b526b5c693001fb026146fbfbbc1a869c3bea90b93c8150132ce06425",
    "pt3": "0e9ca421a452fc5590062659ba9cc2c5774fcf8cdc5148a43a644a2f219246a6",
    "tb1": "fe3ca2162634df8e15f8b74d89b0de52cbf628a9096dabfdb09ce158babdce50",
    "tb2": "b384a1627e8fccb58c729629a8f69e467f4e87239252c56a6ba512f4e060de6a",
    "tb3": "5d1c1c230933960e8341b0c6d64252d8e8c6371374761d7b79d4b2803dc9392f",
    "gn": "5c45e5b71d1598a82c441b32fe15ea45e3072b5ce1477f6d5075bda16d3c8f74",
    "gb": "e62e7f66ccf666bf6c43ee32f42a2faea1da69c3f9346db88a3d24f64143b1ce",
    "np3o3": "73155537843a4968ed13c675782b73c24e151288a332bd9426660802af8b7d64",
}


def test_last_grid_point_artifacts_are_byte_stable():
    assert set(LAST_ARTIFACT_DIGESTS) == set(families.FAMILY_TAGS)
    for family, digest in LAST_ARTIFACT_DIGESTS.items():
        params = [p for p, reason in families.family_grid(family) if reason is None][-1]
        g, f, inst = build_family(family, **params)
        cert = families.verify_instance(g, f, inst)
        text = io.dumps(io.graph_to_doc(g, f, inst, cert)) + io.graph_to_dot(g, f)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (family, params)


# sha256 of the JSON document plus the DOT export of one instance of each band
# of the benchmark's large workload, recorded while documents were still
# written by json.dumps and listed by sorting the graph for each artifact
LARGE_ARTIFACT_DIGESTS = [
    ("fb", {"n": 751}, "e1176ea1c6f16ff943057dc86debfe47285069e4ff82db79072781a2c05bdef6"),
    ("tb", {"n": 750}, "4228cd94ec28f4e4b38abbab14eee0af0a427b20585c22dea871d9e110d24162"),
    ("pt3", {"n": 360, "r": 2}, "86b11a6b5dd25c667b051f9a5cf7fe689590e1c35c69ada70aad23cbd1ff57c3"),
    ("gn", {"n": 510, "indices": (1, 2, 4, 8, 16, 32, 64)},
     "1b05e3cb157257d86d5c6a737b139b3483e8adfd4805ded69fa355e79714fc34"),
    ("gb", {"n": 560, "r": 3, "s": 187},
     "fb9997fc1923aa4a21d4cd9a6a0cc7ea9f88ce3ab588827b06f962a4ea5a3217"),
]


@pytest.mark.parametrize("family, params, digest", LARGE_ARTIFACT_DIGESTS,
                         ids=[family for family, _, _ in LARGE_ARTIFACT_DIGESTS])
def test_large_instance_artifacts_are_byte_stable(family, params, digest):
    g, f, inst = build_family(family, **params)
    cert = families.verify_instance(g, f, inst)
    doc = io.graph_to_doc(g, f, inst, cert)
    text = io.dumps(doc)
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    text += io.graph_to_dot(g, f)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


_TEXT = st.text(max_size=5) | st.sampled_from(
    ["", "%", "%s", "%%(a)s", '"', "\\", "\n", "\x00\x1f", "\u2028", "é", "😀", "a_1"]
)
_KEYS = st.sampled_from(["a", "b", "id", "label", "indices", "%s", "é", "\t"]) | _TEXT
_INTS = st.integers() | st.integers(-3, 40)
_SCALARS = st.none() | st.booleans() | _INTS | st.floats() | _TEXT


def _record_lists(*kinds):
    """Non-empty lists of records sharing one key set; the values of each key
    come from one of ``kinds``, so most lists take the writer's template."""
    def rows(columns):
        return st.lists(st.fixed_dictionaries(dict(columns)), min_size=1, max_size=4)
    column = st.tuples(_KEYS, st.sampled_from(kinds))
    return st.lists(column, min_size=1, max_size=3, unique_by=lambda c: c[0]).flatmap(rows)


_FLAT = (_TEXT, _INTS, st.lists(_INTS, max_size=3), _TEXT | _INTS | st.lists(_INTS, max_size=3))


@st.composite
def _ragged_record_lists(draw):
    """Record lists in which one record gains or loses a key."""
    rows = [dict(r) for r in draw(_record_lists(*_FLAT))]
    row = rows[draw(st.integers(0, len(rows) - 1))]
    if draw(st.booleans()):
        row[draw(_KEYS)] = draw(_FLAT[-1])
    else:
        del row[draw(st.sampled_from(sorted(row)))]
    return rows


def _dumps_inputs():
    return st.recursive(
        _SCALARS
        | _record_lists(*_FLAT)
        | _record_lists(*_FLAT, _SCALARS, st.lists(_SCALARS, max_size=2).map(tuple))
        | st.dictionaries(_KEYS, _INTS, max_size=4),
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(_KEYS, inner, max_size=4)
        | st.lists(st.dictionaries(_KEYS, inner, max_size=3), max_size=3),
        max_leaves=30,
    )


@settings(max_examples=300, deadline=None)
@given(_dumps_inputs())
# nested lists of scalars, rendered item by item
@example([[1, 2], [3, [4, -5]], [], [[]]])
@example([True, False, None, [None, [True, False]], {}])
@example([1.5, -0.0, 1e300, float("inf"), float("-inf"), float("nan"), [2.25, [-1e-7]]])
@example({"a": [[1, None], [True, 0.5]], "b": [[], {}], "c": [], "d": {}})
@example([[{"a": 1}], [{"a": True}, {"a": None}], {"a": [1.0, [None]]}])
# tuples, rendered as lists, and the empty one as []
@example(((), (1, ("a", ())), [()], {"a": (None, 2.5)}))
# a dict with keys other than str, rendered by the standard library, also nested
@example({1: "a", 2: [3]})
@example([{1: "a", 2: [3]}, {"b": {2: None}}])
def test_dumps_equals_the_standard_library(value):
    assert io.dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(
    _record_lists(*_FLAT)
    | _ragged_record_lists()
    | st.dictionaries(_KEYS, _record_lists(*_FLAT), min_size=1, max_size=3)
    | st.lists(_record_lists(*_FLAT), min_size=1, max_size=3)
)
def test_dumps_renders_record_lists_as_the_standard_library_does(value):
    assert io.dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_dumps_equals_the_standard_library_on_the_documents_it_writes():
    g, f, inst = build_family("df", r=1, s=1)
    cert = certify(g, f, inst.expected_palette)
    docs = [
        io.graph_to_doc(g, f, inst, cert),
        io.graph_to_doc(g, f),
        io.certificate_to_doc(cert),
        io.labeling_to_doc(g, f),
        {"records": families.sweep_family("fb", 15)},
    ]
    for doc in docs:
        assert io.dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_dumps_of_a_graph_document_leaves_no_reference_cycle():
    # an indented json.dumps builds an encoder whose closures form cycles
    g, f, inst = build_family("fb", n=755)
    cert = families.verify_instance(g, f, inst)
    docs = [io.graph_to_doc(g, f, inst, cert), io.graph_to_doc(g, f)]
    gc.collect()
    gc.disable()
    try:
        for doc in docs:
            io.dumps(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dumps_of_a_sweep_report_leaves_no_reference_cycle():
    # gn's records carry their indices as tuples, rendered as lists are
    doc = {"records": families.sweep_family("gn")}
    assert {type(r["params"]["indices"]) for r in doc["records"]} == {tuple}
    gc.collect()
    gc.disable()
    try:
        text = io.dumps(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


# a quoted DOT string as a DOT reader scans it: a backslash takes the next
# character with it, so an escaped quote does not end the string
_DOT_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')


def test_dot_of_every_accepted_document_scans_into_its_quoted_strings():
    # a role may hold a double quote or end in a backslash
    vertices = [('u"q', [1]), ("w\\", []), ("x", [])]
    ids = ['u"q_1', "w\\", "x"]
    doc = {
        "vertices": [{"id": i, "role": r, "indices": ix} for i, (r, ix) in zip(ids, vertices)],
        "edges": [{"a": ids[0], "b": ids[1], "label": 1}, {"a": ids[1], "b": ids[2], "label": 2},
                  {"a": ids[0], "b": ids[2], "label": 3}],
    }
    g, f = io.doc_to_graph(doc)
    lines = io.graph_to_dot(g, f).splitlines()
    assert lines[0] == "graph antimagic {" and lines[-1] == "}"

    def unescaped(text):
        return re.sub(r'\\([\\"])', r"\1", text)

    scanned = [
        (_DOT_STRING.sub("Q", line), list(map(unescaped, _DOT_STRING.findall(line))))
        for line in lines[1:-1]
    ]
    # the vertex label keeps DOT's own line break, \n, after the role
    assert scanned == [
        ("  Q [label=Q];", ['u"q_1', 'u"q/1\\n4']),
        ("  Q [label=Q];", ["w\\", "w\\\\n3"]),
        ("  Q [label=Q];", ["x", "x\\n5"]),
        ("  Q -- Q [label=Q];", ['u"q_1', "w\\", "1"]),
        ("  Q -- Q [label=Q];", ['u"q_1', "x", "3"]),
        ("  Q -- Q [label=Q];", ["w\\", "x", "2"]),
    ]


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


@pytest.mark.parametrize("k", range(1, 9))
def test_cli_table_check_reports_the_closed_forms_of_m1_and_m3(tmp_path, k):
    n = 2 * k + 1
    expected = {
        "m1": {
            "k": k, "S1": 9 * k + 6, "S2": 10 * k + 6, "ap_first": 23 * k + 12,
            "ap_last": 19 * k + 12, "grand_total": (7 * k + 4) * (6 * k + 3),
            # one block sum per factorization 2k+1 = r*s with r >= 3
            "block_sums": {
                f"{r}x{n // r}": n // r * (21 * k + 12) for r in range(3, n + 1) if n % r == 0
            },
        },
        "m3": {
            "k": k, "first_five": 25 * k + 15, "side_sum": 50 * k + 27,
            "class_total": (2 * k + 1) * (39 * k + 21),
        },
    }
    for kind, report in expected.items():
        assert main(["--out", str(tmp_path), "table", "--kind", kind, "--k", str(k), "--check"]) == 0
        assert json.loads((tmp_path / f"table_{kind}_k{k}_report.json").read_text()) == report


def test_cli_table_check_pt_writes_the_traced_sequences(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "table", "--kind", "pt", "--k", "3", "--check"])
    assert code == 0
    assert "table pt k=3: all observations hold" in capsys.readouterr().out
    traced = tables.trace_sequences(tables.table_pt(3))
    report = json.loads((tmp_path / "table_pt_k3_report.json").read_text())
    assert report == {"k": 3, "s1": list(traced.s1), "s2": list(traced.s2)}


def test_cli_table_usage_error(tmp_path):
    code = main(["--out", str(tmp_path), "table", "--kind", "m1", "--k", "0"])
    assert code == 2


def test_cli_table_refuses_a_matrix_that_is_not_a_bijection(tmp_path, monkeypatch, capsys):
    # R4 stepping by -2 instead of -1 repeats entries of other rows; a build
    # trusts its table, so only the table command checks the bijection
    monkeypatch.setitem(tables._PIECES["pt"], "R4", ((5, 8, -2),))
    with pytest.raises(InvariantError, match=r"^pt matrix not bijective at k=2$"):
        tables.make_table("pt", 2)
    code = main(["--out", str(tmp_path), "table", "--kind", "pt", "--k", "2"])
    assert code == 1
    assert "invariant failure: pt matrix not bijective at k=2" in capsys.readouterr().err
    entry = json.loads((tmp_path / "manifest.jsonl").read_text())
    assert entry["outcome"] == "invariant failure: pt matrix not bijective at k=2"
    assert entry["outputs"] == []
    t = tables.table_pt(2)
    assert sorted(t.all_entries()) != list(range(1, 26))


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


def test_importing_the_package_leaves_inspect_unloaded():
    # only a failed parameter check reads a builder's signature
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(families.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    code = "import sys, antimagic, antimagic.cli, antimagic.io; print('inspect' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout == "False\n"


def test_python_dash_m_antimagic_runs_the_cli_and_returns_its_exit_code(tmp_path):
    # __main__ is the module the interpreter runs; main() is tested in process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(families.__file__).parents[1]), env.get("PYTHONPATH")])
    )

    def run(out, *argv):
        cmd = [sys.executable, "-m", "antimagic", "--out", str(out), *argv]
        return subprocess.run(cmd, env=env, cwd=tmp_path, capture_output=True, timeout=120)

    built = run(
        tmp_path / "build", "build", "--family", "fb", "--n", "9", "--certify", "--emit", "both"
    )
    assert built.returncode == 0, built.stderr
    assert sorted(p.name for p in (tmp_path / "build").iterdir()) == [
        "fb_n9.dot", "fb_n9.json", "manifest.jsonl",
    ]
    assert len((tmp_path / "build" / "manifest.jsonl").read_text().splitlines()) == 1
    bare = run(tmp_path / "bare")
    assert bare.returncode == 2, bare.stderr
    assert len((tmp_path / "bare" / "manifest.jsonl").read_text().splitlines()) == 1


def test_cli_certified_build_induces_the_coloring_once(tmp_path, monkeypatch):
    # every color list a labeling keeps goes through its slot, wrapped here
    made, slot = [], EdgeLabeling._colors

    def kept(f, colors):
        if colors is not None:
            made.append(1)
        slot.__set__(f, colors)

    monkeypatch.setattr(EdgeLabeling, "_colors", property(slot.__get__, kept))
    code = main([
        "--out", str(tmp_path), "build", "--family", "tb", "--n", "8",
        "--certify", "--emit", "both",
    ])
    assert code == 0
    assert len(made) == 1  # the certificate's; both writers read the labeling's


def test_dot_is_the_same_from_the_certified_coloring_and_from_a_fresh_one():
    for point, g, f, _ in _sample_documents():
        certify(g, f)
        assert io.graph_to_dot(g, f) == io.graph_to_dot(g, EdgeLabeling.from_dict(f.labels)), point


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


def test_cli_partition_of_a_shape_that_is_not_positive_is_usage(tmp_path, capsys):
    code = main([
        "--out", str(tmp_path), "partition", "--first", "1", "--step", "1",
        "--t", "0", "--s", "3",
    ])
    assert code == 2
    assert capsys.readouterr().err == "usage error: block shape 0x3 is not positive\n"
    (line,) = (tmp_path / "manifest.jsonl").read_text().splitlines()
    entry = json.loads(line)
    assert entry["outcome"] == "usage error: block shape 0x3 is not positive"
    assert entry["outputs"] == []


def test_cli_sweep_small(tmp_path, capsys):
    code = main([
        "--out", str(tmp_path), "sweep", "--family", "fb", "--max-size", "21",
        "--report", "fb_report.json",
    ])
    assert code == 0
    assert "10 pass, 0 fail" in capsys.readouterr().out
    report = json.loads((tmp_path / "fb_report.json").read_text())
    assert len(report["records"]) == 10


@pytest.mark.parametrize("report", ["sub/r.json", "../r.json", ".", "..", "absolute"])
def test_cli_sweep_report_outside_out_is_usage(tmp_path, capsys, report):
    out = tmp_path / "out"
    if report == "absolute":
        report = str(tmp_path / "r.json")
    code = main(["--out", str(out), "sweep", "--family", "fb", "--max-size", "5",
                 "--report", report])
    assert code == 2
    assert "fb:" not in capsys.readouterr().out  # rejected before sweeping
    entry = json.loads((out / "manifest.jsonl").read_text())
    assert entry["outcome"].startswith("usage error: --report")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["manifest.jsonl", "out"]


def test_cli_sweep_report_named_manifest_is_usage(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "sweep", "--family", "fb", "--max-size", "5",
                 "--report", "manifest.jsonl"])
    assert code == 2
    assert "fb:" not in capsys.readouterr().out  # rejected before sweeping
    lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["outcome"].startswith("usage error: --report")


@pytest.mark.parametrize("family, bounds", [
    ("fb", ["--max-size", "-5"]),
    ("gn", ["--gn-max-n", "1"]),
    ("all", ["--max-size", "1", "--max-n", "1", "--gn-max-n", "1"]),
], ids=["fb", "gn", "all"])
def test_cli_sweep_with_no_grid_point_is_usage(tmp_path, family, bounds):
    # a sweep that certifies nothing has passed nothing
    assert main(["--out", str(tmp_path), "sweep", "--family", family, *bounds]) == 2
    (line,) = (tmp_path / "manifest.jsonl").read_text().splitlines()
    assert json.loads(line)["outcome"] == (
        f"usage error: the bounds leave the {family} sweep no grid point"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.jsonl"]


@pytest.mark.parametrize("argv, output", [
    (["sweep", "--family", "fb", "--max-size", "5", "--report", "x"], "x"),
    (["build", "--family", "fb", "--n", "3"], "fb_n3.json"),
], ids=["sweep-report", "build-document"])
def test_cli_an_output_that_cannot_be_written_is_usage(tmp_path, capsys, argv, output):
    (tmp_path / output).mkdir()  # a directory in the output's place
    assert main(["--out", str(tmp_path), *argv]) == 2
    prefix = f"usage error: cannot write {tmp_path / output}: "
    assert prefix in capsys.readouterr().err
    (line,) = (tmp_path / "manifest.jsonl").read_text().splitlines()
    entry = json.loads(line)
    assert entry["outcome"].startswith(prefix) and entry["outputs"] == []


@pytest.mark.parametrize("argv, written, failed", [
    (["build", "--family", "fb", "--n", "3", "--emit", "both"], "fb_n3.json", "fb_n3.dot"),
    (["table", "--kind", "m1", "--k", "2", "--check"],
     "table_m1_k2.csv", "table_m1_k2_report.json"),
], ids=["build-dot", "table-report"])
def test_cli_a_failed_write_leaves_the_earlier_outputs_named(tmp_path, argv, written, failed):
    (tmp_path / failed).mkdir()  # a directory in the second output's place
    assert main(["--out", str(tmp_path), *argv]) == 2
    (line,) = (tmp_path / "manifest.jsonl").read_text().splitlines()
    entry = json.loads(line)
    assert entry["outcome"].startswith(f"usage error: cannot write {tmp_path / failed}: ")
    # the manifest names the file the run wrote before the failure
    assert entry["outputs"] == [str(tmp_path / written)]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [failed, written, "manifest.jsonl"]
    )


def test_cli_an_internal_error_writes_its_manifest_line_and_raises(tmp_path, monkeypatch):
    def broken(args, write):
        write("first.txt", "x\n")
        raise RuntimeError("broken handler")

    # neither a usage error nor an invariant failure: the run's line names
    # the error and the file written before it, and the error goes on up
    monkeypatch.setitem(cli._HANDLERS, "table", broken)
    with pytest.raises(RuntimeError, match="broken handler"):
        main(["--out", str(tmp_path), "table", "--kind", "m1", "--k", "2"])
    (line,) = (tmp_path / "manifest.jsonl").read_text().splitlines()
    entry = json.loads(line)
    assert entry["command"] == "table"
    assert entry["outcome"] == "internal error: RuntimeError: broken handler"
    assert entry["outputs"] == [str(tmp_path / "first.txt")]


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


def test_cli_solve_reports_the_floor_passes_and_prunes(tmp_path, capsys):
    main(["--out", str(tmp_path), "build", "--family", "fb", "--n", "3"])
    capsys.readouterr()
    code = main([
        "--out", str(tmp_path), "solve", "--input", str(tmp_path / "fb_n3.json"),
        "--max-edges", "15",
    ])
    assert code == 0
    doc = json.loads((tmp_path / "fb_n3_solve.json").read_text())
    assert (doc["status"], doc["chi_la"], doc["floor"], doc["floor_rule"], doc["passes"]) == (
        "exact", 3, 3, "odd_cycle", 1
    )
    assert list(doc["prunes"]) == ["clash", "colour_bound", "interval", "sum"]
    # the counters are deterministic; the time is on stdout only
    assert "elapsed" not in doc and "time" not in doc
    prunes = " ".join(f"{k}={v}" for k, v in doc["prunes"].items())
    out = capsys.readouterr().out
    line = re.fullmatch(
        rf"chi_la = 3 \(exact, {doc['nodes']} nodes, floor 3 by odd_cycle, 1 passes, "
        rf"prunes {prunes}, \d+\.\d{{3}} s, (\d+) nodes/s\)\n",
        out,
    )
    assert line and int(line[1]) > 0, out  # the search's speed, on stdout only
    assert "nodes_per_s" not in doc


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
    """(what is wrong, the message naming it, document) for each malformation
    doc_to_graph rejects."""
    cases = []
    doc = _tb2_doc()
    del doc["edges"]
    cases.append(("missing key", "missing key 'edges'", doc))
    doc = _tb2_doc()
    del doc["vertices"][0]["role"]
    cases.append(("missing vertex key", "missing key 'role'", doc))
    doc = _tb2_doc()
    doc["edges"][0]["a"] = "nowhere_9"
    cases.append(("unknown vertex id", "unknown vertex id 'nowhere_9'", doc))
    doc = _tb2_doc()
    doc["edges"][0]["label"] = "7"
    cases.append(("string label", "'label' is not a int: '7'", doc))
    doc = _tb2_doc()
    doc["edges"][0]["label"] = True
    cases.append(("bool label", "'label' is not a int: True", doc))
    doc = _tb2_doc()
    doc["edges"].append(dict(doc["edges"][0], label=99))
    cases.append(("duplicate edge", "duplicate edge 'u_1' -- 'v_1'", doc))
    doc = _tb2_doc()
    doc["edges"].append({"a": doc["edges"][0]["b"], "b": doc["edges"][0]["a"], "label": 99})
    cases.append(("reversed duplicate edge", "duplicate edge 'v_1' -- 'u_1'", doc))
    doc = _tb2_doc()
    doc["edges"][0]["b"] = doc["edges"][0]["a"]
    cases.append(("loop", "loop edge at 'u_1'", doc))
    doc = _tb2_doc()
    doc["vertices"] += [
        {"id": "p", "role": "x_1", "indices": []},
        {"id": "q", "role": "x", "indices": [1]},
    ]
    cases.append((
        "ids that are not the names of their vertices",
        "vertex id 'p' is not 'x_1', the name of its role and indices",
        doc,
    ))
    return cases


def test_doc_to_graph_rejects_malformed_documents():
    for what, message, doc in _broken_docs():
        with pytest.raises(UsageError, match="^graph document: " + re.escape(message) + "$"):
            io.doc_to_graph(doc)
            pytest.fail(f"{what} was accepted")


def test_doc_to_graph_rejects_an_id_that_does_not_round_trip():
    # both vertices print as x_1: read under other ids they would be written
    # back as two vertices of one name
    p = {"id": "p", "role": "x_1", "indices": []}
    q = {"id": "q", "role": "x", "indices": [1]}
    doc = {"vertices": [p, q], "edges": [{"a": "p", "b": "q", "label": 1}]}
    with pytest.raises(UsageError, match="vertex id 'p' is not 'x_1'"):
        io.doc_to_graph(doc)
    doc = {"vertices": [dict(p, id="x_1"), dict(q, id="x_1")], "edges": []}
    with pytest.raises(UsageError, match="duplicate vertex 'x_1'"):
        io.doc_to_graph(doc)


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


NOT_JSON_TYPES = "graph document: a value is not of a type that json.loads gives"


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
    except UsageError as exc:
        assert str(exc) != NOT_JSON_TYPES  # every value here has a json.loads type
        return
    assert set(f.labels) == g.edges


@st.composite
def _named_documents(draw):
    """Documents near the accepted ones: distinct vertices, several of which
    print alike, whose ids name them but for at most one, joined by distinct
    edges."""
    pool = [("x", ()), ("x", (1,)), ("x_1", ()), ("x", (1, 2)), ("x_1", (2,)), ("x_1_2", ()),
            ("x1", ()), ("x", (-1,)), ("x", (2,)), ("x", (10,))]
    vertices = [
        {"id": str(VertexId(role, indices)), "role": role, "indices": list(indices)}
        for role, indices in draw(st.lists(st.sampled_from(pool), max_size=6, unique=True))
    ]
    if vertices and draw(st.booleans()):
        i = draw(st.integers(0, len(vertices) - 1))
        vertices[i] = dict(vertices[i], id=draw(st.sampled_from(["p", "x", "x_1", "x_1_2"])))
    ends = st.integers(0, max(len(vertices) - 1, 0))
    pairs = draw(st.lists(
        st.tuples(ends, ends).filter(lambda p: p[0] != p[1]),
        max_size=8, unique_by=frozenset,
    )) if len(vertices) > 1 else []
    edges = [
        {"a": vertices[i]["id"], "b": vertices[j]["id"], "label": draw(st.integers(-1, 5))}
        for i, j in pairs
    ]
    return {"vertices": vertices, "edges": edges}


@settings(max_examples=300, deadline=None)
@given(_named_documents())
def test_an_accepted_document_is_written_back_as_an_accepted_one(doc):
    try:
        g, f = io.doc_to_graph(doc)
    except UsageError:
        return
    again = json.loads(io.dumps(io.graph_to_doc(g, f)))
    g2, f2 = io.doc_to_graph(again)
    assert g2 == g and f2 == f
    assert io.graph_to_dot(g2, f2) == io.graph_to_dot(g, f)


# --- the reader against its per-record reference ----------------------------------


def _reference_field(obj, key, kind):
    if not isinstance(obj, dict) or key not in obj:
        raise UsageError(f"graph document: missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise UsageError(f"graph document: {key!r} is not a {kind.__name__}: {value!r}")
    return value


def reference_doc_to_graph(doc):
    """The reader as it was before it read a well-formed document a column at a
    time: every field of every record checked in turn, the first fault raised."""
    by_id = {}
    for vd in _reference_field(doc, "vertices", list):
        indices = _reference_field(vd, "indices", list)
        for i in indices:
            if not isinstance(i, int) or isinstance(i, bool):
                raise UsageError(f"graph document: vertex index is not an int: {i!r}")
        v = VertexId(_reference_field(vd, "role", str), tuple(indices))
        vid = _reference_field(vd, "id", str)
        if vid in by_id:
            raise UsageError(f"graph document: duplicate vertex {vid!r}")
        if vid != str(v):
            raise UsageError(
                f"graph document: vertex id {vid!r} is not {str(v)!r}, "
                "the name of its role and indices"
            )
        by_id[vid] = v
    labels: dict[Edge, int] = {}
    for ed in _reference_field(doc, "edges", list):
        a, b = _reference_field(ed, "a", str), _reference_field(ed, "b", str)
        va, vb = by_id.get(a), by_id.get(b)
        if va is None:
            raise UsageError(f"graph document: unknown vertex id {a!r}")
        if vb is None:
            raise UsageError(f"graph document: unknown vertex id {b!r}")
        if a == b:
            raise UsageError(f"graph document: loop edge at {a!r}")
        e = (va, vb) if va < vb else (vb, va)
        if e in labels:
            raise UsageError(f"graph document: duplicate edge {a!r} -- {b!r}")
        labels[e] = _reference_field(ed, "label", int)
    return Graph(by_id.values(), labels), EdgeLabeling(labels)


def _read(reader, doc):
    """The graph and labeling read, with its dict order, or the usage error's
    message; any other exception propagates."""
    try:
        g, f = reader(doc)
    except UsageError as exc:
        return "rejected", str(exc)
    return g, f, list(f.labels.items())


def _grid_sample(stride):
    """Every ``stride``-th non-excluded point of each family's default grid,
    the first included, in grid order."""
    return [
        (family, params)
        for family in families.FAMILY_TAGS
        for params in [p for p, reason in families.family_grid(family) if reason is None][::stride]
    ]


@functools.lru_cache(maxsize=None)
def _sample_documents():
    """The graph, labeling and emitted document text of each point of a
    1-in-50 sample of the default grid, built once for the tests that share
    them."""
    out = []
    for family, params in _grid_sample(50):
        g, f, inst = build_family(family, **params)
        out.append(((family, params), g, f, io.dumps(io.graph_to_doc(g, f, inst))))
    return out


def _some(rng, records, keep=lambda r: True):
    """A random record that is a dict and passes ``keep``, so that a second
    fault never trips over the first."""
    return rng.choice([r for r in records if isinstance(r, dict) and keep(r)])


def _has_list_indices(record):
    return isinstance(record.get("indices"), list)


def _bool_index(rng, doc):
    vd = _some(rng, doc["vertices"], _has_list_indices)
    vd["indices"] = vd["indices"] + [rng.choice([True, False])]
    rng.shuffle(vd["indices"])


def _bool_label(rng, doc):
    _some(rng, doc["edges"])["label"] = rng.choice([True, False])


def _listed_vertex(rng, doc):
    i = rng.randrange(len(doc["vertices"]))
    doc["vertices"][i] = rng.choice([list, str])(doc["vertices"][i])


def _listed_edge(rng, doc):
    i = rng.randrange(len(doc["edges"]))
    doc["edges"][i] = rng.choice([list, str])(doc["edges"][i])


def _string_indices(rng, doc):
    vd = _some(rng, doc["vertices"], _has_list_indices)
    vd["indices"] = ",".join(map(str, vd["indices"])) or "1"


def _missing_key(rng, doc):
    records, keys = rng.choice([(doc["vertices"], ["id", "role", "indices"]),
                                (doc["edges"], ["a", "b", "label"])])
    key = rng.choice(keys)
    del _some(rng, records, lambda r: key in r)[key]


def _unknown_end(rng, doc):
    _some(rng, doc["edges"])[rng.choice("ab")] = rng.choice(["nowhere", "u_0", "", "x_1_1_1"])


def _loop(rng, doc):
    ed = _some(rng, doc["edges"], lambda r: "a" in r)
    ed["b"] = ed["a"]


def _reversed_duplicate(rng, doc):
    ed = _some(rng, doc["edges"], lambda r: {"a", "b", "label"} <= r.keys())
    doc["edges"].insert(rng.randrange(len(doc["edges"]) + 1),
                        {"a": ed["b"], "b": ed["a"], "label": ed["label"]})


def _swapped_ids(rng, doc):
    first = _some(rng, doc["vertices"], lambda r: "id" in r)
    second = _some(rng, doc["vertices"], lambda r: "id" in r and r["id"] != first["id"])
    first["id"], second["id"] = second["id"], first["id"]


FAULTS = [_bool_index, _bool_label, _listed_vertex, _listed_edge, _string_indices,
          _missing_key, _unknown_end, _loop, _reversed_duplicate, _swapped_ids]


def _extra_keys(rng, doc):
    _some(rng, doc["vertices"])["note"] = rng.choice([None, 1, "x", [True]])
    _some(rng, doc["edges"])[rng.choice(["color", "id", "role"])] = 0


def _two_faults(rng, doc):
    for fault in rng.sample(FAULTS, 2):
        fault(rng, doc)


@pytest.mark.parametrize("mutation", FAULTS + [_two_faults, _extra_keys],
                         ids=lambda m: m.__name__.lstrip("_"))
def test_doc_to_graph_matches_the_per_record_reference_on_mutated_documents(mutation):
    rng = random.Random(mutation.__name__)
    for point, g, f, text in _sample_documents():
        assert _read(io.doc_to_graph, json.loads(text))[:2] == (g, f)
        doc = json.loads(text)
        mutation(rng, doc)
        want = _read(reference_doc_to_graph, doc)
        # every fault is one the reference rejects; extra keys are read past
        assert (want[0] == "rejected") == (mutation is not _extra_keys), point
        assert _read(io.doc_to_graph, doc) == want, point


@settings(max_examples=300, deadline=None)
@given(_json_values() | _near_documents() | _named_documents())
def test_doc_to_graph_matches_the_per_record_reference(doc):
    assert _read(io.doc_to_graph, doc) == _read(reference_doc_to_graph, doc)


class _Name(str):
    pass


class _Count(int):
    pass


def _ordered_record(doc):
    doc["edges"][0] = collections.OrderedDict(doc["edges"][0])


def _named_id(doc):
    doc["vertices"][0]["id"] = _Name(doc["vertices"][0]["id"])


def _counted_label(doc):
    doc["edges"][-1]["label"] = _Count(doc["edges"][-1]["label"])


def _ordered_document(doc):
    return collections.OrderedDict(doc)


@pytest.mark.parametrize("retype", [_ordered_record, _named_id, _counted_label, _ordered_document],
                         ids=lambda r: r.__name__.lstrip("_"))
def test_doc_to_graph_refuses_a_value_of_a_type_json_loads_does_not_give(retype):
    # the record walk finds no fault in these, and the reference reads them;
    # a graph is made only by the column read, which takes exact types
    g, f, inst = build_family("fb", n=3)
    doc = json.loads(io.dumps(io.graph_to_doc(g, f, inst)))
    doc = retype(doc) or doc
    assert _read(reference_doc_to_graph, doc)[:2] == (g, f)
    with pytest.raises(UsageError) as info:
        io.doc_to_graph(doc)
    assert str(info.value) == NOT_JSON_TYPES


def test_cli_certify_and_solve_reject_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for command in ("certify", "solve"):
        assert main(["--out", str(tmp_path), command, "--input", str(bad)]) == 2
    broken = _broken_docs()
    for what, _, doc in broken:
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert main(["--out", str(tmp_path), "certify", "--input", str(path)]) == 2, what
    entries = [json.loads(line) for line in (tmp_path / "manifest.jsonl").read_text().splitlines()]
    assert len(entries) == 2 + len(broken)
    assert all(e["outcome"].startswith("usage error") for e in entries)


def test_cli_bad_palette_is_usage(tmp_path):
    # build checks the instance's own claims and takes no palette
    with pytest.raises(SystemExit) as info:
        main(["--out", str(tmp_path), "build", "--family", "fb", "--n", "9",
              "--expect-palette", "1,2,3"])
    assert info.value.code == 2
    entry = json.loads((tmp_path / "manifest.jsonl").read_text())
    assert entry["outcome"].startswith("usage error")
    assert not (tmp_path / "fb_n9.json").exists()
    assert main(["--out", str(tmp_path), "build", "--family", "tb", "--n", "2"]) == 0
    code = main([
        "--out", str(tmp_path), "certify", "--input", str(tmp_path / "tb_n2.json"),
        "--expect-palette", "abc",
    ])
    assert code == 2
    entry = json.loads((tmp_path / "manifest.jsonl").read_text().splitlines()[-1])
    assert entry["outcome"].startswith("usage error")
    # a document's own expected_palette must be absent, null or a list of ints
    doc = json.loads((tmp_path / "tb_n2.json").read_text())
    for bad in (5, [1, "a"], "abc", [[1]], [15, True, 33]):
        path = tmp_path / "bad_palette.json"
        path.write_text(json.dumps(dict(doc, expected_palette=bad)))
        code = main([
            "--out", str(tmp_path), "certify", "--input", str(path),
            "--expect-palette", "auto",
        ])
        assert code == 2, bad
        entry = json.loads((tmp_path / "manifest.jsonl").read_text().splitlines()[-1])
        assert entry["outcome"].startswith("usage error"), bad
    for good in (None, [15, 32, 33]):
        path.write_text(json.dumps(dict(doc, expected_palette=good)))
        assert main(["--out", str(tmp_path), "certify", "--input", str(path),
                     "--expect-palette", "auto"]) == 0, good


def test_cli_build_certify_checks_every_claim(tmp_path, monkeypatch):
    real = families._BUILDERS["gn"]

    def false_claims(n, indices):
        d, inst, *extras = real(n, indices)
        return d, inst._replace(
            expected_census={3: 22, 4: 10}, expected_component_orders=(9, 25)
        ), *extras

    argv = ["build", "--family", "gn", "--n", "10", "--indices", "1", "--certify"]
    monkeypatch.setitem(families._BUILDERS, "gn", false_claims)
    assert main(["--out", str(tmp_path / "false")] + argv) == 1
    entry = json.loads((tmp_path / "false" / "manifest.jsonl").read_text())
    assert entry["outcome"] == (
        "invariant failure: gn{'n': 10, 'k': 5, 'indices': (1,), 's': 7} failed: "
        "degree 4: 11 vertices, expected 10 (first z_0); "
        "component orders (9, 24) != expected (9, 25)"
    )
    assert entry["outputs"] == []
    assert list((tmp_path / "false").iterdir()) == [tmp_path / "false" / "manifest.jsonl"]

    # the true claims pass, and the document holds the certificate of every claim
    monkeypatch.undo()
    assert main(["--out", str(tmp_path / "true")] + argv) == 0
    g, f, inst = build_family("gn", n=10, indices=(1,))
    cert = families.verify_instance(g, f, inst)
    assert (tmp_path / "true" / "gn_indices1_n10_s7.json").read_text() == io.dumps(
        io.graph_to_doc(g, f, inst, cert)
    )


def test_cli_sweep_bound_the_family_grid_ignores_is_usage(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "sweep", "--family", "pt", "--max-size", "3",
                 "--gn-max-n", "2"])
    assert code == 2
    assert "pt:" not in capsys.readouterr().out  # rejected before sweeping
    entry = json.loads((tmp_path / "manifest.jsonl").read_text())
    assert entry["outcome"] == (
        "usage error: the pt grid reads only --max-n, not --gn-max-n, --max-size"
    )
    assert entry["outputs"] == []
    # a family's own bound is read, and the whole sweep reads all three
    assert main(["--out", str(tmp_path), "sweep", "--family", "pt", "--max-n", "4"]) == 0
    assert main(["--out", str(tmp_path), "sweep", "--family", "all", "--max-size", "5",
                 "--max-n", "2", "--gn-max-n", "2"]) == 0
    assert "gn: 0 pass" in capsys.readouterr().out


def test_cli_build_base_is_an_unknown_option(tmp_path):
    # gb reads its base off --indices, so build has no --base
    argv = ["--out", str(tmp_path), "build", "--family", "gb", "--n", "14", "--r", "3",
            "--s", "5", "--base", "gn"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    (line,) = (tmp_path / "manifest.jsonl").read_text().splitlines()
    entry = json.loads(line)
    assert entry["outcome"] == "usage error: antimagic: unrecognized arguments: --base gn"
    assert entry["parameters"] == {"argv": argv}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.jsonl"]


@pytest.mark.parametrize("family", ["df1", "df2"])
def test_cli_build_df1_and_df2_refuse_r1(tmp_path, family):
    code = main(["--out", str(tmp_path), "build", "--family", family, "--r", "1", "--s", "3",
                 "--r1", "99"])
    assert code == 2
    (line,) = (tmp_path / "manifest.jsonl").read_text().splitlines()
    entry = json.loads(line)
    assert (entry["outcome"], entry["outputs"]) == (
        f"usage error: bad parameters for {family}: got an unexpected keyword argument 'r1'", []
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.jsonl"]


def test_readme_cli_examples_parse():
    # a removed option must not linger in the documented command lines
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    lines = block.splitlines()
    assert lines and all(line.startswith("antimagic ") for line in lines)
    assert "antimagic --out out build --family gb --n 14 --r 3 --s 5 --indices 1 --certify" in lines
    parser = make_parser()
    for line in lines:
        parser.parse_args(line.split()[1:])


def test_cli_build_gb_over_gn_with_a_rim_of_1_mod_r_certifies(tmp_path):
    # the bracelet of index 2 has 7 hubs, 7 = 1 (mod 3)
    code = main([
        "--out", str(tmp_path), "build", "--family", "gb", "--n", "44", "--r", "3",
        "--s", "15", "--indices", "2", "--certify",
    ])
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["--out", "afile", "table", "--kind", "m1", "--k", "1"],
    ["--out", "afile", "--bogus"],
    ["--out", "afile/sub", "table", "--kind", "m1", "--k", "1"],
    # a manifest that cannot be opened stops the run before it writes anything
    ["--out", "held", "build", "--family", "fb", "--n", "3"],
])
def test_cli_out_that_cannot_be_a_directory_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    (tmp_path / "held" / "manifest.jsonl").mkdir(parents=True)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "usage error: --out" in capsys.readouterr().err
    # the manifest has nowhere to go, and nothing else was written
    assert (tmp_path / "afile").read_text() == ""
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "afile", "held", "held/manifest.jsonl",
    ]


def test_cli_missing_input_writes_a_manifest_line(tmp_path):
    code = main(["--out", str(tmp_path), "certify", "--input", str(tmp_path / "absent.json")])
    assert code == 2
    entry = json.loads((tmp_path / "manifest.jsonl").read_text())
    assert entry["outcome"].startswith("usage error")


@pytest.mark.parametrize("argv", [
    ["certify"],
    ["solve", "--use-witness", "--max-edges", "15"],
], ids=["certify", "solve"])
def test_cli_reads_its_input_once_and_hashes_the_bytes_it_parsed(tmp_path, monkeypatch, argv):
    # a second read could parse another file than the one the manifest hashes
    main(["--out", str(tmp_path), "build", "--family", "fb", "--n", "3"])
    path = tmp_path / "fb_n3.json"
    opens = []
    real_open = std_io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(path):
            opens.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(std_io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(["--out", str(tmp_path), argv[0], "--input", str(path)] + argv[1:]) == 0
    monkeypatch.undo()
    assert len(opens) == 1, opens
    entry = json.loads((tmp_path / "manifest.jsonl").read_text().splitlines()[-1])
    assert entry["input_hashes"] == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


@pytest.mark.parametrize("name, data, message", [
    ("absent.json", None, "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
    ("adir", "dir", "cannot read {path}: [Errno 21] Is a directory: '{path}'"),
    ("bad.json", b"{not json", "{path} is not a JSON document: Expecting property name "
     "enclosed in double quotes: line 1 column 2 (char 1)"),
    ("bom.json", b"\xef\xbb\xbf{}", "{path} is not a JSON document: Unexpected UTF-8 BOM "
     "(decode using utf-8-sig): line 1 column 1 (char 0)"),
    ("latin1.json", b'{"\xe9": 1}', "{path} is not a JSON document: 'utf-8' codec can't "
     "decode byte 0xe9 in position 2: invalid continuation byte"),
    ("deep.json", b"[" * 200_000 + b"]" * 200_000, "{path} is not a JSON document: "),
], ids=["missing", "directory", "bad-json", "bom", "invalid-utf-8", "too-deep"])
def test_cli_input_that_cannot_be_read_or_parsed_is_usage(tmp_path, capsys, name, data, message):
    # bytes that were read are hashed even when they do not parse; a too-deep
    # document's RecursionError is worded by CPython, so only its prefix is pinned
    path = tmp_path / name
    if data == "dir":
        path.mkdir()
    elif data is not None:
        path.write_bytes(data)
    message = "usage error: " + message.format(path=path)
    for command in ("certify", "solve"):
        out = tmp_path / command
        assert main(["--out", str(out), command, "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1 and err.endswith("\n")
        if name != "deep.json":
            assert err == message + "\n"
        entry = json.loads((out / "manifest.jsonl").read_text())
        assert (entry["outcome"], entry["outputs"]) == (err[:-1], [])
        hashed = {} if data in (None, "dir") else {str(path): hashlib.sha256(data).hexdigest()}
        assert entry["input_hashes"] == hashed


@pytest.mark.parametrize("argv", [
    ["certify", "--input", ""],
    ["solve", "--input", ""],
    ["build", "--family", "tb", "--n", "8", "--indices", ""],
    ["sweep", "--family", "fb", "--max-size", "5", "--report", ""],
], ids=["certify-input", "solve-input", "build-indices", "sweep-report"])
def test_cli_empty_string_flags_are_usage(tmp_path, monkeypatch, argv):
    # an empty value is checked as given, not taken for an absent flag
    monkeypatch.chdir(tmp_path)
    assert main(["--out", "out"] + argv) == 2
    (line,) = (tmp_path / "out" / "manifest.jsonl").read_text().splitlines()
    assert json.loads(line)["outcome"].startswith("usage error")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["manifest.jsonl", "out"]


@pytest.mark.parametrize("budget", ["nan", "-1", "0", "inf", "x"])
def test_cli_solve_budget_that_is_not_finite_and_positive_is_usage(tmp_path, capsys, budget):
    # a nan budget used to be accepted and then never stopped the search;
    # argparse reads a float and SearchConfig alone checks it, as it checks
    # --max-edges and --target
    main(["--out", str(tmp_path), "build", "--family", "fb", "--n", "3"])
    argv = [
        "--out", str(tmp_path), "solve", "--input", str(tmp_path / "fb_n3.json"),
        "--time-budget", budget,
    ]
    if budget == "x":
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        message = "antimagic solve: argument --time-budget: invalid float value: 'x'"
    else:
        assert main(argv) == 2
        message = f"time budget is not a finite positive number of seconds: {float(budget)!r}"
    assert f"usage error: {message}\n" in capsys.readouterr().err
    lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
    assert len(lines) == 2  # the build's and the solve's

    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    entry = json.loads(lines[-1], parse_constant=refuse)
    assert (entry["command"], entry["outcome"], entry["outputs"]) == (
        "solve", f"usage error: {message}", []
    )
    if budget == "x":
        assert entry["parameters"] == {"argv": argv}
    else:
        assert entry["parameters"]["max_edges"] == 10  # SearchConfig's default
        # a budget that is not finite is kept as its repr
        seconds = float(budget)
        assert entry["parameters"]["time_budget"] == (
            seconds if math.isfinite(seconds) else repr(seconds)
        )
    assert not (tmp_path / "fb_n3_solve.json").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--max-edges", "-5", "max_edges is not an int >= 0: -5"),
    ("--target", "0", "target_colors is not None or an int >= 1: 0"),
    ("--target", "-2", "target_colors is not None or an int >= 1: -2"),
])
def test_cli_solve_max_edges_or_target_out_of_range_is_usage(tmp_path, capsys, flag, value, message):
    # both used to run and print a vacuous answer
    main(["--out", str(tmp_path / "build"), "build", "--family", "fb", "--n", "3"])
    code = main([
        "--out", str(tmp_path / "solve"), "solve",
        "--input", str(tmp_path / "build" / "fb_n3.json"), flag, value,
    ])
    assert code == 2
    assert f"usage error: {message}" in capsys.readouterr().err
    (line,) = (tmp_path / "solve" / "manifest.jsonl").read_text().splitlines()
    entry = json.loads(line)
    assert (entry["command"], entry["outcome"], entry["outputs"]) == (
        "solve", f"usage error: {message}", []
    )
    assert sorted(p.name for p in (tmp_path / "solve").iterdir()) == ["manifest.jsonl"]


def test_cli_solve_infeasible_size_is_usage(tmp_path):
    main(["--out", str(tmp_path), "build", "--family", "tb", "--n", "2"])
    code = main([
        "--out", str(tmp_path), "solve", "--input", str(tmp_path / "tb_n2.json"),
        "--max-edges", "10",
    ])
    assert code == 2
    entry = json.loads((tmp_path / "manifest.jsonl").read_text().splitlines()[-1])
    assert entry["outcome"] == "infeasible_size"


@pytest.mark.parametrize("max_edges", ["15", "10"], ids=["searched", "above-max-edges"])
def test_cli_solve_witness_that_is_not_local_antimagic_is_usage(tmp_path, capsys, max_edges):
    # above --max-edges the witness used to be echoed unchecked into the document
    main(["--out", str(tmp_path), "build", "--family", "fb", "--n", "3"])
    doc_path = tmp_path / "fb_n3.json"
    doc = json.loads(doc_path.read_text())
    doc["edges"][1]["label"] = doc["edges"][0]["label"]  # two edges share a label
    doc_path.write_text(json.dumps(doc))
    code = main([
        "--out", str(tmp_path), "solve", "--input", str(doc_path),
        "--max-edges", max_edges, "--use-witness",
    ])
    assert code == 2
    message = "usage error: initial witness is not a local antimagic labeling"
    assert message in capsys.readouterr().err
    lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
    assert len(lines) == 2  # the build's and the solve's
    entry = json.loads(lines[-1])
    assert (entry["command"], entry["outcome"], entry["outputs"]) == ("solve", message, [])
    assert not (tmp_path / "fb_n3_solve.json").exists()


def test_every_error_is_a_usage_error_or_an_invariant_failure():
    # main maps these two kinds to exit 2 and 1; no third kind can reach it
    kinds = [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.AntimagicError)
        and c is not errors.AntimagicError
    ]
    assert len(kinds) > 2
    for kind in kinds:
        assert issubclass(kind, (UsageError, InvariantError)), kind.__name__


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
        (line,) = (Path(out) / "manifest.jsonl").read_text().splitlines()
        # the line names exactly the files the run wrote
        written = [str(p) for p in Path(out).iterdir() if p.name != "manifest.jsonl"]
        assert sorted(json.loads(line)["outputs"]) == sorted(written)


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

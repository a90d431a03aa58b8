"""The value types' contract: field names, order, defaults and repr text,
equality by fields, and fields that cannot be assigned."""

import ast
import dataclasses
import hashlib
import importlib
import inspect
import pkgutil

import pytest

import antimagic
from antimagic import io
from antimagic.families import build_family
from antimagic.graph import Certificate, EdgeLabeling, Graph, V, certify
from antimagic.partition import partition_ap
from antimagic.solver import SearchConfig, solve_chi_la
from antimagic.tables import table_m1, table_pt, trace_sequences

# each type: a function making an instance the way the package makes it, the
# repr of what it makes, and a function making one that differs in a field
CASES = {
    "LabelTable": (
        lambda: table_m1(1),
        "LabelTable(kind='m1', k=1, rows={'uw': (1, 3, 2), 'vw': (5, 4, 6), "
        "'xw': (9, 8, 7), 'xu': (15, 13, 14), 'xv': (11, 12, 10)})",
        lambda: table_m1(2),
    ),
    "TracedSequences": (
        lambda: trace_sequences(table_pt(1)),
        "TracedSequences(s1=(5, 3, 13, 12, 4, 2), s2=(11, 15, 1, 6, 10, 14), "
        "r3_columns=(2, 1, 3))",
        lambda: trace_sequences(table_pt(3)),
    ),
    "EqualSumPartition": (
        lambda: partition_ap(88, 2, 3, 3),
        "EqualSumPartition(blocks=((104, 96, 88), (100, 98, 90), (102, 94, 92)), target=288)",
        lambda: partition_ap(90, 2, 3, 3),
    ),
    "FamilyInstance": (
        lambda: build_family("tfb", t=3, s=3)[2],
        "FamilyInstance(family='tfb', params={'t': 3, 's': 3, 'k': 4}, "
        "expected_palette=(42, 46, 288), expected_census={2: 18, 3: 9, 9: 3}, "
        "expected_component_orders=(10, 10, 10))",
        lambda: build_family("fb", n=3)[2],
    ),
    "SearchConfig": (
        lambda: SearchConfig(max_edges=15, time_budget=0.25),
        "SearchConfig(max_edges=15, target_colors=None, time_budget=0.25)",
        lambda: SearchConfig(max_edges=15, time_budget=0.5),
    ),
    "SolveResult": (
        lambda: solve_chi_la(Graph([V("a")], [])),
        "SolveResult(chi_la=1, witness=EdgeLabeling(labels={}), status='exact', nodes=0, "
        "elapsed=0.0, floor=1, floor_rule='no_edges', passes=0, "
        "prunes={'clash': 0, 'colour_bound': 0, 'interval': 0, 'sum': 0})",
        lambda: solve_chi_la(Graph([], [])),
    ),
}
# the fields of each type, in order
FIELDS = {
    "LabelTable": ("kind", "k", "rows"),
    "TracedSequences": ("s1", "s2", "r3_columns"),
    "EqualSumPartition": ("blocks", "target"),
    "FamilyInstance": (
        "family", "params", "expected_palette", "expected_census", "expected_component_orders",
    ),
    "SearchConfig": ("max_edges", "target_colors", "time_budget"),
    "SolveResult": (
        "chi_la", "witness", "status", "nodes", "elapsed", "floor", "floor_rule", "passes",
        "prunes",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_value_type_repr_equality_and_frozen_fields(name):
    make, text, make_other = CASES[name]
    value = make()
    assert type(value).__name__ == name and type(value) is getattr(antimagic, name)
    assert repr(value) == text
    assert make() == value and not make() != value
    assert make_other() != value
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    assert repr(value) == text


def test_defaults_of_the_value_types():
    assert repr(SearchConfig()) == "SearchConfig(max_edges=10, target_colors=None, time_budget=None)"
    inst = build_family("fb", n=3)[2]
    assert repr(inst) == (
        "FamilyInstance(family='fb', params={'n': 3, 'k': 1}, expected_palette=(15, 16, 99), "
        "expected_census={2: 6, 3: 3, 9: 1}, expected_component_orders=None)"
    )


def test_no_class_is_a_dataclass():
    modules = [antimagic] + [
        importlib.import_module(f"antimagic.{m.name}")
        for m in pkgutil.iter_modules(antimagic.__path__) if m.name != "__main__"
    ]
    classes = {
        cls for module in modules for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__.startswith("antimagic")
    }
    assert not {cls for cls in classes if dataclasses.is_dataclass(cls)}
    value_types = {Certificate} | {getattr(antimagic, name) for name in CASES}
    assert value_types <= classes
    assert all(issubclass(cls, tuple) and cls._fields for cls in value_types)
    assert Certificate._fields == CERTIFICATE_FIELDS
    assert Certificate._field_defaults == {"expected_palette": None, "palette_ok": None}
    # no module imports dataclasses at all
    for module in modules:
        tree = ast.parse(inspect.getsource(module))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "dataclasses" not in imported, module.__name__


def _broken_fb3():
    """fb n=3 with one label out of range, one label shared and one edge
    whose ends clash."""
    g, f, inst = build_family("fb", n=3)
    es = g.sorted_edges()
    labels = dict(f.labels)
    labels[es[0]] = 16
    labels[es[1]] = labels[es[2]]
    labels[es[3]], labels[es[5]] = labels[es[5]], labels[es[3]]
    return g, EdgeLabeling(labels), inst


# each certificate's repr, and the sha256 of its dumped certificate_to_doc
CERTIFICATES = {
    "fb9": (
        lambda: build_family("fb", n=9),
        "Certificate(is_bijective=True, is_local_antimagic=True, color_count=3, "
        "palette=(42, 46, 864), degree_census={2: (18, (46,)), 3: (9, (42,)), "
        "27: (1, (864,))}, violations=(), has_triangle=True, is_connected=True, "
        "expected_palette=(42, 46, 864), palette_ok=True)",
        "3605fac20074675f645f1ab91cc31668575285b280284ba98f93bd071efb699a",
    ),
    "tb8": (
        lambda: build_family("tb", n=8),
        "Certificate(is_bijective=True, is_local_antimagic=True, color_count=3, "
        "palette=(42, 92, 96), degree_census={3: (18, (42, 96)), 4: (9, (92,))}, "
        "violations=(), has_triangle=True, is_connected=True, "
        "expected_palette=(42, 92, 96), palette_ok=True)",
        "78b1e884e1c9cc18dfaf2700a23ec531bf9121e273efdfee64ffba8aef239fa1",
    ),
    "gn10": (
        lambda: build_family("gn", n=10, indices=(1,)),
        "Certificate(is_bijective=True, is_local_antimagic=True, color_count=3, "
        "palette=(51, 112, 117), degree_census={3: (22, (51, 117)), 4: (11, (112,))}, "
        "violations=(), has_triangle=True, is_connected=False, "
        "expected_palette=(51, 112, 117), palette_ok=True)",
        "ac06b14a0b2deb1913156c46a00842ae4f7098f72007aa19d9ba0a8b1d7d9b4f",
    ),
    "broken": (
        _broken_fb3,
        "Certificate(is_bijective=False, is_local_antimagic=False, color_count=6, "
        "palette=(15, 16, 17, 19, 30, 87), degree_census={2: (6, (15, 16, 17, 19)), "
        "3: (3, (15, 30)), 9: (1, (87,))}, violations=({'kind': 'label_out_of_range', "
        "'edge': ['u_1', 'w_1'], 'label': 16}, {'kind': 'duplicate_label', 'label': 3, "
        "'edges': [['u_1', 'x'], ['u_2', 'w_2']]}, {'kind': 'adjacent_equal_color', "
        "'edge': ['u_3', 'w_3'], 'color': 15}), has_triangle=True, is_connected=True, "
        "expected_palette=(15, 16, 99), palette_ok=False)",
        "4cab893306a797436a28eea62a95c7992c6a0b132b0fda029da20ca973971e1d",
    ),
}
CERTIFICATE_FIELDS = (
    "is_bijective", "is_local_antimagic", "color_count", "palette", "degree_census",
    "violations", "has_triangle", "is_connected", "expected_palette", "palette_ok",
)


@pytest.mark.parametrize("name", CERTIFICATES)
def test_certificate_repr_equality_and_document(name):
    make, text, digest = CERTIFICATES[name]
    g, f, inst = make()
    cert = certify(g, f, inst.expected_palette)
    assert type(cert) is Certificate and cert.ok() == (name != "broken")
    assert repr(cert) == text
    doc = io.dumps(io.certificate_to_doc(cert))
    assert hashlib.sha256(doc.encode()).hexdigest() == digest
    # the certificate of the same labeling rebuilt by name is equal
    again = certify(g, EdgeLabeling.from_dict(f.labels), inst.expected_palette)
    assert again == cert and not again != cert
    # one without the expected palette, or of another graph, is not
    assert certify(g, f) != cert and not certify(g, f) == cert
    for other, (make_other, _, _) in CERTIFICATES.items():
        if other != name:
            h, f2, inst2 = make_other()
            assert certify(h, f2, inst2.expected_palette) != cert
    for field in CERTIFICATE_FIELDS:
        with pytest.raises(AttributeError):
            setattr(cert, field, getattr(cert, field))
    assert repr(cert) == text

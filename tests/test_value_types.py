"""The value types' contract: field names, order, defaults and repr text,
equality by fields, and fields that cannot be assigned."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import antimagic
from antimagic.families import build_family
from antimagic.graph import Certificate, Graph, V
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


def test_certificate_is_the_one_dataclass():
    modules = [antimagic] + [
        importlib.import_module(f"antimagic.{m.name}")
        for m in pkgutil.iter_modules(antimagic.__path__) if m.name != "__main__"
    ]
    classes = {
        cls for module in modules for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__.startswith("antimagic")
    }
    assert {cls for cls in classes if dataclasses.is_dataclass(cls)} == {Certificate}
    assert {getattr(antimagic, name) for name in CASES} <= classes

"""Certificates must survive ``python -O``, which strips every ``assert``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
from antimagic import families, partition
from antimagic.errors import InvariantError, SequenceSchemeViolated
from antimagic.tables import LabelTable, table_pt, trace_sequences
from antimagic.families import FAMILY_TAGS, build_family, family_grid, verify_instance

if not sys.flags.optimize:
    sys.exit("not running under -O")

# a small slice of the grid still certifies
for family in FAMILY_TAGS:
    for params, excluded in family_grid(family)[:2]:
        if excluded is None:
            verify_instance(*build_family(family, **params))

# k = 2 (mod 4), which the grid skips, certifies too
verify_instance(*build_family("fb1", r=3, s=7))
verify_instance(*build_family("df1", r=1, s=7))

# a corrupted partition is caught by the certificate, not by an assert
real = partition._position_blocks

def swapped(t, s):
    blocks = real(t, s)
    blocks[0][0], blocks[1][0] = blocks[1][0], blocks[0][0]
    return blocks

def doubled(t, s):
    blocks = real(t, s)
    blocks[0][0] = blocks[1][0]
    return blocks

for corrupt in (swapped, doubled):
    partition._position_blocks = corrupt
    try:
        partition.partition_ap(1, 1, 3, 5)
    except InvariantError:
        continue
    sys.exit(f"{corrupt.__name__} partition was not rejected")
partition._position_blocks = real

# a build trusts its positions, as it trusts its tables: positions with
# unequal sums build, and the certificate rejects the graph
families._position_blocks = swapped
try:
    verify_instance(*build_family("tfb", t=3, s=3))
except InvariantError:
    pass
else:
    sys.exit("the tfb build of positions with unequal sums was not rejected")
families._position_blocks = real

# triple offsets with the right sums that are no permutation: only the
# certificate's cover check can tell
real_offsets = partition._triple_offsets

def repeated(t):
    h = (t - 1) // 2
    return [h] * t, [2 * h - i for i in range(t)]

partition._triple_offsets = repeated
try:
    partition.partition_ap(1, 1, 3, 5)
except InvariantError:
    pass
else:
    sys.exit("repeated triple offsets were not rejected")
partition._triple_offsets = real_offsets

# a corrupted pt table breaks the traced sequences, not an assert
pt = table_pt(3)
rows = dict(pt.rows)
rows["R3"] = (rows["R3"][1], rows["R3"][0], *rows["R3"][2:])
corrupted = LabelTable("pt", 3, rows)
try:
    trace_sequences(corrupted)
except SequenceSchemeViolated:
    pass
else:
    sys.exit("corrupted pt table was not rejected")

# a build trusts its table: the same table builds, and the certificate
# rejects the graph
families.table_pt = lambda k: corrupted
built = build_family("pt", n=6)
try:
    verify_instance(*built)
except InvariantError:
    pass
else:
    sys.exit("the pt build of a corrupted table was not rejected")
families.table_pt = table_pt

# a merged build's one draft names the fault of its merges, with no
# assert: scrambled rims clash in tb3, and a member dealt to two blocks
# overlaps in tb1
real_deal = families._deal

def scrambled(rims, r):
    return real_deal([[*rim[:1], *rim[2:4], rim[1], *rim[4:]] for rim in rims], r)

def shared(rims, r):
    blocks = real_deal(rims, r)
    blocks[1][0] = blocks[0][0]
    return blocks

for deal, family, fault in [
    (scrambled, "tb3", "two edges join m_1 and u_1 (positions 0 and 1)"),
    (shared, "tb1", "u_1 appears in two blocks"),
]:
    families._deal = deal
    params = {"n": 8, "r": 3}
    try:
        build_family(family, **params)
    except InvariantError as exc:
        if str(exc) != f"{family}{params}: surgery on its own draft failed: {fault}":
            sys.exit(f"{family}: {exc}")
    else:
        sys.exit(f"the {family} build of faulty blocks was not rejected")
families._deal = real_deal

# the solver's floors and prunes hold without asserts: chi_la(K1,4) = 5 by
# the pendant floor, C4 and P5 by the sum floor, C5 by the odd cycle; the
# colour-sum prune cuts the proofs for C9 and fb3, and their prunes by
# reason are those of the search tree that tests/test_solver_oracle.py pins
from antimagic.graph import Graph, V, certify, edge
from antimagic.solver import SearchConfig, solve_chi_la

PRUNES = {
    "C9": {"clash": 0, "colour_bound": 155, "interval": 115, "sum": 60},
    "fb3": {"clash": 293, "colour_bound": 377, "interval": 3193, "sum": 1909},
}

def graph(n, pairs):
    vs = [V("v", i) for i in range(n)]
    return Graph(vs, [edge(vs[a], vs[b]) for a, b in pairs])

for name, g, known in [
    ("K1,4", graph(5, [(0, i) for i in range(1, 5)]), 5),
    ("C4", graph(4, [(i, (i + 1) % 4) for i in range(4)]), 3),
    ("C5", graph(5, [(i, (i + 1) % 5) for i in range(5)]), 3),
    ("P5", graph(5, [(i, i + 1) for i in range(4)]), 3),
    ("C9", graph(9, [(i, (i + 1) % 9) for i in range(9)]), 3),
    ("fb3", build_family("fb", n=3)[0], 3),
]:
    res = solve_chi_la(g, SearchConfig(max_edges=15))
    if (res.status, res.chi_la) != ("exact", known):
        sys.exit(f"{name}: {res.status} {res.chi_la}, expected exact {known}")
    if certify(g, res.witness).color_count != known:
        sys.exit(f"{name}: the witness does not have {known} colours")
    if name in ("C9", "fb3") and not res.prunes["sum"]:
        sys.exit(f"{name}: the colour-sum prune never fired")
    if name in PRUNES and res.prunes != PRUNES[name]:
        sys.exit(f"{name}: prunes {res.prunes}, expected {PRUNES[name]}")
print("ok")
"""


def test_certificates_hold_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_the_package_has_no_assert():
    # -O strips them, so no check of the package may be an assert
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "antimagic").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []

"""Proofs for every k >= 1 of the three label matrices, read off their pieces.

A row of ``tables._PIECES`` is one or two pieces (c0, c1, d), the entry
c0 + c1*k + d*i on columns 1..k+1 (first piece) and k+2..2k+1 (last piece).
A form here is affine in k and a column or loop index i, kept as its three
coefficients (constant, k, i).  Two forms agree for every k and i exactly
when their coefficients do, so each property below becomes a list of such
identities.  Where a statement needs every arithmetic progression in it to be
nonempty, it holds symbolically from a computed k0 on and the k below k0 are
checked from the pieces one by one.  A proof that fails raises
:class:`Unproved`.

Observations (4) and (6) of m1 are proved for any 5-row table that meets
(1)-(3), not only for the pieces, which is why ``check_m1_observations``
reports them and checks only (1), (2), (3) and (5).
"""

import random
import re
from fractions import Fraction

import pytest

from antimagic.errors import ObservationViolated
from antimagic.tables import (
    _PIECES,
    _join_colors,
    _odd_factorizations,
    _peanut_walk,
    _pt_colors,
    _table,
    check_m1_observations,
    check_m3_observations,
    make_table,
    table_m1,
)


class Unproved(Exception):
    pass


def form(c=0, k=0, i=0):
    return (c, k, i)


def add(*forms):
    return tuple(map(sum, zip(*forms)))


def scale(a, f):
    return tuple(a * x for x in f)


def at(f, k, i=0):
    return f[0] + f[1] * k + f[2] * i


def put(f, i):
    """``f`` with its index i replaced by the form ``i``."""
    return add(form(f[0], f[1]), scale(f[2], i))


def require(ok, claim):
    if not ok:
        raise Unproved(claim)


# the two halves of a row: the first and the last piece, on these columns
HALVES = ((form(1), form(1, 1)), (form(2, 1), form(1, 2)))


def piece(row, half):
    return row[-half]


def entry(row, k, i):
    c0, c1, d = row[-(i > k + 1)]
    return c0 + c1 * k + d * i


def rows_at(pieces, k):
    """The matrix at k, entry by entry from the pieces."""
    columns = range(1, 2 * k + 2)
    return {name: tuple(entry(row, k, i) for i in columns) for name, row in pieces.items()}


def chain(runs, step, first, last, claim):
    """Runs of one residue class, each (low end, high end) of a progression
    of ``step``, must tile first, first+step, ..., last end to end."""
    runs = list(runs)
    end = add(first, form(-step))
    while runs:
        nxt = [run for run in runs if run[0] == add(end, form(step))]
        require(len(nxt) == 1, f"{claim}: no single run starts at {end} + {step}")
        runs.remove(nxt[0])
        end = nxt[0][1]
    require(end == last, f"{claim}: the runs end at {end}, not {last}")


def from_k(f, p):
    """The least k = p (mod 2), k >= 1, from which the form ``f`` in k is
    >= 0, or None when it never is."""
    require(f[1] >= 0, f"{f} falls as k grows")
    k = 2 - p
    while at(f, k) < 0:
        if f[1] == 0:
            return None
        k += 2
    return k


# -- each bijection onto [1, N(k)] ---------------------------------------------


def prove_bijection(pieces):
    """Split k by parity, and each piece into progressions of step 2 with
    affine ends; each parity class of values must be tiled from its least
    member to N(k) or N(k)-1.  Returns the k0 of each parity of k."""
    n = form(len(pieces), 2 * len(pieces))
    k0 = []
    for p in (0, 1):
        least = k0_p = 2 - p  # the least k >= 1 of parity p
        runs = {0: [], 1: []}
        for name, row in pieces.items():
            for half, (a, b) in enumerate(HALVES):
                f = piece(row, half)
                d = f[2]
                require(abs(d) in (1, 2), f"row {name}: step {d} is not +-1 or +-2")
                # columns first, first+cs, ..., last step the values by 2; the
                # parity of b - first is the same for every k of parity p
                cs = 3 - abs(d)
                for first in (add(a, form(j)) for j in range(cs)):
                    last = add(b, form(-(at(add(b, scale(-1, first)), least) % cs)))
                    nonempty = from_k(add(last, scale(-1, first)), p)
                    if nonempty is None:
                        continue
                    k0_p = max(k0_p, nonempty)
                    low, high = put(f, first), put(f, last)
                    if d < 0:
                        low, high = high, low
                    runs[at(low, least) % 2].append((low, high))
        for r, class_runs in runs.items():
            top = n if at(n, least) % 2 == r else add(n, form(-1))
            chain(class_runs, 2, form(2 - r), top, f"k = {p} (mod 2), values = {r} (mod 2)")
        for k in range(least, k0_p, 2):
            values = sorted(v for row in rows_at(pieces, k).values() for v in row)
            require(values == list(range(1, at(n, k) + 1)), f"not bijective at k={k}")
        k0.append(k0_p)
    return tuple(k0)


# -- m1 observations (1)-(5) and m3 (a)-(c) ------------------------------------


def prove_columns(pieces, names, expected, claim):
    """The rows ``names`` sum to the form ``expected`` in every column."""
    for half in (0, 1):
        got = add(*(piece(pieces[name], half) for name in names))
        require(got == expected, f"{claim}: rows {names} sum to {got} in half {half}")


def prove_total(pieces, names, expected, claim):
    """Over all columns the rows ``names`` total ``expected(k)``.  Both sides
    are polynomials of degree <= 2 in k, a piece summing over columns whose
    ends are affine in k, so three values of k prove it."""
    for k in (1, 2, 3):
        rows = rows_at(pieces, k)
        got = sum(sum(rows[name]) for name in names)
        require(got == expected(k), f"{claim}: rows {names} total {got} at k={k}")


def prove_m1(pieces):
    prove_columns(pieces, ("uw", "vw", "xw"), form(6, 9), "(1)")
    prove_columns(pieces, ("uw", "xu"), form(6, 10), "(2)")
    prove_columns(pieces, ("vw", "xv"), form(6, 10), "(2)")
    # 23k+12 - 2(i-1) in column i
    prove_columns(pieces, ("xw", "xu", "xv"), form(14, 23, -2), "(3)")
    # step -1 within each half, and from column k+1 to k+2
    first, last = (add(piece(pieces["xu"], h), piece(pieces["xv"], h)) for h in (0, 1))
    require(first[2] == last[2] == -1, "(4): rows 4+5 do not step by -1 in a half")
    require(put(last, form(2, 1)) == add(put(first, form(1, 1)), form(-1)), "(4): at k+2")
    prove_total(pieces, ("xw", "xu", "xv"), lambda k: (7 * k + 4) * (6 * k + 3), "(5)")


# S1 and S2 of (1) and (2), (3)'s sum in column i and a hub's share of one
# column, which (5) totals over the 2k+1 columns
M1_SUMS = {"S1": form(6, 9), "S2": form(6, 10), "(3)": form(14, 23, -2),
           "share": form(12, 21)}


def prove_m1_4_and_6(s1, s2, ap, share):
    """(4) and (6) of m1 hold in any 5-row table that meets (1)-(3).

    Let d_i = uw_i + vw_i.  (1) gives xw_i = S1 - d_i and (2) gives
    xu_i + xv_i = 2*S2 - d_i, so the last three rows of column i sum to
    S1 + 2*S2 - 2*d_i, which (3) sets to 23k+14 - 2i: d_i = 3k+2+i, and
    rows (4,5) sum to 17k+10-i, which steps by -1: (4).

    With 2k+1 = r*s, the reflection i -> 2k+2-i maps the columns
    (j-1)s+1..js of block j onto (r-j)s+1..(r+1-j)s, block r+1-j, and the
    middle block onto itself.  So (6) holds when row 3 in column i and rows
    (4,5) in column 2k+2-i sum to one hub share, and the last three rows in
    the two columns to two: a block of s columns then sums to s shares.
    """
    twice_d = add(s1, scale(2, s2), scale(-1, ap))
    require(all(x % 2 == 0 for x in twice_d), "(3) gives no integral d_i")
    d = tuple(x // 2 for x in twice_d)
    xw, rows45 = add(s1, scale(-1, d)), add(scale(2, s2), scale(-1, d))
    require(rows45[2] == -1, f"(4): rows 4+5 sum to {rows45}")
    mirror = form(2, 2, -1)
    require(add(xw, put(rows45, mirror)) == share, "(6): a pair of blocks")
    require(add(ap, put(ap, mirror)) == scale(2, share), "(6): the middle block")


def m1_observations_4_and_6(t):
    """The checks of (4) and (6) that ``check_m1_observations`` made before
    the proof above: each shape's block sum, or :class:`ObservationViolated`."""
    n, share = t.columns, _join_colors("m1", t.k)[2]
    _, _, xw, xu, xv = t.rows.values()
    last3 = [xw[i] + xu[i] + xv[i] for i in range(n)]
    rows45 = [xu[i] + xv[i] for i in range(n)]
    if any(rows45[i] - rows45[i + 1] != 1 for i in range(n - 1)):
        raise ObservationViolated(4, "rows 4+5 column sums do not decrease by 1")
    block_sums = {}
    for br, bs in _odd_factorizations(n):
        s3 = bs * share
        for j in range(1, br + 1):
            paired = sum(xw[(j - 1) * bs:j * bs]) + sum(rows45[(br - j) * bs:(br + 1 - j) * bs])
            if paired != s3:
                raise ObservationViolated(6, f"blocks ({j}, {br + 1 - j}) pair to {paired}")
        if sum(last3[(br - 1) // 2 * bs:(br + 1) // 2 * bs]) != s3:
            raise ObservationViolated(6, "middle block")
        block_sums[(br, bs)] = s3
    return block_sums


def prove_m3(pieces):
    prove_columns(pieces, ("L", "R", "C1", "C2", "C3"), form(15, 25), "(a)")
    prove_columns(pieces, ("L", "L1", "L2", "L3"), form(27, 50), "(b)")
    prove_columns(pieces, ("R", "R1", "R2", "R3"), form(27, 50), "(b)")
    for a in (1, 2, 3):
        names = (f"C{a}", f"R{a}", f"L{a}")
        prove_total(pieces, names, lambda k: (2 * k + 1) * (39 * k + 21), "(c)")


# -- pt (A)-(C) along the peanut walk -------------------------------------------

# _peanut_walk(k) restated: a head, a body for each i = 1..floor(k/2) and, for
# odd k, a tail.  Each step is a column, a form in k and i, and whether it is a
# top pair: there S1 takes (R2, R1) and S2 (R4, R5), elsewhere (R5, R4) and
# (R1, R2).
HEAD = ((form(1, 1), True),)
BODY = ((form(0, 0, 1), False), (form(2, 2, -1), True), (form(1, 1, 1), False),
        (form(1, 1, -1), True))
HALF = Fraction(1, 2)
TAIL = ((form(HALF, HALF), False), (form(3 * HALF, 3 * HALF), True))


def _twice(steps):
    """The steps with twice their column, whose coefficients are integers."""
    return [(tuple(int(2 * x) for x in col), top) for col, top in steps]


def restated_walk(k, head=_twice(HEAD), body=_twice(BODY), tail=_twice(TAIL)):
    walk = [((a + b * k) // 2, top) for (a, b, _), top in head]
    for i in range(1, k // 2 + 1):
        walk += [((a + b * k + c * i) // 2, top) for (a, b, c), top in body]
    if k % 2:
        walk += [((a + b * k) // 2, top) for (a, b, _), top in tail]
    return walk


def holds_from(f, k):
    """The affine form ``f`` in k is >= 0 for every k' >= k (of k's parity)."""
    return f[1] >= 0 and at(f, k) >= 0


def half_of(col, ends, k):
    """The half that holds column ``col`` at both ``ends`` of its index range,
    for every k' >= k of k's parity."""
    for half, (a, b) in enumerate(HALVES):
        cols = [put(col, i) for i in ends]
        if all(holds_from(add(c, scale(-1, a)), k) and holds_from(add(b, scale(-1, c)), k)
               for c in cols):
            return half
    raise Unproved(f"column {col} leaves its half")


def step(pieces, col, top, half):
    """A step of the walk: its pairs of S1 and S2, its row-3 entry, and top."""
    at_col = {name: put(piece(row, half), col) for name, row in pieces.items()}
    r1, r2, r3, r4, r5 = at_col.values()
    return ((r2, r1), (r4, r5), r3, top) if top else ((r5, r4), (r1, r2), r3, top)


def shifted(st, i):
    """The step ``st`` with its index i replaced by the form ``i``."""
    (a, b), (c, d), r3, top = st
    return (put(a, i), put(b, i)), (put(c, i), put(d, i)), put(r3, i), top


# the pt scheme's pair sum of (A) and (B), and the low and high sums of (C)
PT_SUMS = {"pair": form(6, 10), "low": form(6, 9), "high": form(12, 21)}


def prove_sequences(steps, last, links, k=None):
    """(A) on the first and ``last`` steps, (B) on each linked pair of steps
    and (C) on each step: as identities, or at ``k`` when it is given."""
    def same(f, g):
        return f == g if k is None else at(f, k) == at(g, k)

    pair, low, high = PT_SUMS.values()
    (s1, s2, _, _), (t1, t2, _, _) = steps[0], last
    require(same(add(s1[0], s2[0]), pair) and same(add(t1[-1], t2[-1]), pair), "(A)")
    for (s1, s2, _, _), (t1, t2, _, _) in links:
        require(same(add(s1[1], t1[0]), pair) and same(add(s2[1], t2[0]), pair), "(B)")
    for s1, s2, r3, top in steps:
        with_r3 = (low, high) if top else (high, low)
        require(same(add(*s1, r3), with_r3[0]) and same(add(*s2, r3), with_r3[1]), "(C)")


def prove_pt(pieces):
    """(A)-(C) for every k, and the walk visits each column once.  Returns
    the k0 of each parity of k."""
    k0 = []
    for p in (0, 1):
        k0_p = 2 + p  # the least k of parity p with a body
        last_i = form(-p * HALF, HALF)
        ends = (form(1), last_i)
        head = [step(pieces, c, top, half_of(c, ends[:1], k0_p)) for c, top in HEAD]
        body = [step(pieces, c, top, half_of(c, ends, k0_p)) for c, top in BODY]
        tail = [step(pieces, c, top, half_of(c, ends[:1], k0_p)) for c, top in TAIL[:2 * p]]
        last = tail[-1] if p else shifted(body[-1], last_i)
        links = [(head[0], shifted(body[0], form(1))), *zip(body, body[1:]),
                 (body[-1], shifted(body[0], form(1, 0, 1)))]
        if p:
            links += [(shifted(body[-1], last_i), tail[0]), (tail[0], tail[1])]
        prove_sequences(head + body + tail, last, links)
        # each body step runs over i = 1..last_i, nonempty from k0_p on
        runs = [(c, c) for c, _ in HEAD + TAIL[:2 * p]]
        runs += [(put(c, ends[c[2] < 0]), put(c, ends[c[2] > 0])) for c, _ in BODY]
        chain(runs, 1, form(1), form(1, 2), f"k = {p} (mod 2): the walk's columns")
        for k in range(2 - p, k0_p, 2):
            steps = [step(pieces, form(c), top, c > k + 1) for c, top in restated_walk(k)]
            prove_sequences(steps, steps[-1], list(zip(steps, steps[1:])), k)
        k0.append(k0_p)
    return tuple(k0)


PROOFS = {"m1": prove_m1, "pt": prove_pt, "m3": prove_m3}


@pytest.mark.parametrize("kind", sorted(PROOFS))
def test_the_pieces_are_the_tables(kind):
    for k in range(1, 61):
        assert make_table(kind, k).rows == rows_at(_PIECES[kind], k)


@pytest.mark.parametrize("kind", sorted(PROOFS))
def test_each_table_is_a_bijection_for_every_k(kind):
    # even k from 2 on symbolically; odd k from 3 on, and k = 1 entry by entry
    assert prove_bijection(_PIECES[kind]) == (2, 3)


def test_m1_observations_1_to_5_hold_for_every_k():
    prove_m1(_PIECES["m1"])


def test_m1_observations_4_and_6_follow_from_1_to_3_in_any_table():
    prove_m1_4_and_6(*M1_SUMS.values())


@pytest.mark.parametrize("name, changed, claim", [
    ("(3)", form(14, 23, -4), "(4)"), ("(3)", form(16, 23, -2), "(6): a pair"),
    ("share", form(12, 22), "(6): a pair"),
])
def test_a_changed_sum_fails_the_proof_of_4_and_6(name, changed, claim):
    # S1 and S2 cancel: row 3 and rows (4,5) in columns i and 2k+2-i sum to
    # half of what (3) gives the two columns, whatever S1 and S2 are
    with pytest.raises(Unproved, match=re.escape(claim)):
        prove_m1_4_and_6(*{**M1_SUMS, name: changed}.values())


def _meeting_1_to_3(k, rng):
    """m1 at k with each column's u-w label moved by a free amount, and the
    v-w, x-u and x-v labels moved to keep (1)-(3)."""
    t = table_m1(k)
    uw, vw, xw, xu, xv = t.rows.values()
    e = [rng.randint(-10 * k, 10 * k) for _ in uw]
    moved = ([a + x for a, x in zip(uw, e)], [a - x for a, x in zip(vw, e)], xw,
             [a - x for a, x in zip(xu, e)], [a + x for a, x in zip(xv, e)])
    return t._replace(rows=dict(zip(t.rows, map(tuple, moved))))


def test_every_table_that_meets_1_to_3_passes_the_checks_of_4_and_6():
    # the proof above against the checks it replaced, which report each block
    # sum as check_m1_observations does: on m1 and on tables off its pieces
    rng = random.Random(0)
    for k in range(1, 13):
        for t in [table_m1(k), *(_meeting_1_to_3(k, rng) for _ in range(25))]:
            assert check_m1_observations(t)["block_sums"] == m1_observations_4_and_6(t)


def test_the_checks_of_4_and_6_fail_a_table_that_breaks_3():
    # column 1's u-w label up by 1 and column 2's down, with the x-w and x-u
    # labels moved to keep (1), (2) and (5): (3) and (4) fail
    t = table_m1(2)
    rows = dict(t.rows)
    for name, d in (("uw", 1), ("xw", -1), ("xu", -1)):
        row = rows[name]
        rows[name] = (row[0] + d, row[1] - d, *row[2:])
    with pytest.raises(ObservationViolated) as info:
        m1_observations_4_and_6(t._replace(rows=rows))
    assert info.value.index == 4


def test_m3_observations_a_to_c_hold_for_every_k():
    prove_m3(_PIECES["m3"])


# a join table's rows in the order that families._join_cells reads them by
# position: the two path rows (u-w, v-w), then m C rows (hub-w), m L rows
# (hub-u) and m R rows (hub-v); with the colors of w, of u and v, and the
# total of each hub's C, L and R rows
JOINS = {
    "m1": ((("uw", "vw"), ("xw",), ("xu",), ("xv",)),
           form(6, 9), form(6, 10), lambda k: (7 * k + 4) * (6 * k + 3)),
    "m3": ((("L", "R"), ("C1", "C2", "C3"), ("L1", "L2", "L3"), ("R1", "R2", "R3")),
           form(15, 25), form(27, 50), lambda k: (2 * k + 1) * (39 * k + 21)),
}


@pytest.mark.parametrize("kind", sorted(JOINS))
def test_a_join_table_lists_its_path_rows_then_its_c_l_and_r_rows(kind):
    blocks, w_color, uv_color, hub_total = JOINS[kind]
    pieces, m = _PIECES[kind], len(blocks[1])
    names = list(pieces)
    assert len(names) == 2 + 3 * m
    # read by position, as the builder reads them
    by_position = [names[:2], *(names[2 + b * m: 2 + (b + 1) * m] for b in range(3))]
    assert by_position == list(map(list, blocks))
    (uw, vw), cs, ls, rs = by_position
    prove_columns(pieces, (uw, vw, *cs), w_color, "w")
    prove_columns(pieces, (uw, *ls), uv_color, "u")
    prove_columns(pieces, (vw, *rs), uv_color, "v")
    for join in zip(cs, ls, rs):
        prove_total(pieces, join, hub_total, "hub")


@pytest.mark.parametrize("kind", sorted(JOINS))
def test_the_stated_join_colors_are_the_proven_forms(kind):
    # tables._JOINS, which the checks and the builders read, against the
    # forms proven above; the hub share is a hub's total over 2k+1 columns
    _, w_color, uv_color, hub_total = JOINS[kind]
    for k in range(1, 61):
        share, rest = divmod(hub_total(k), 2 * k + 1)
        assert rest == 0
        assert _join_colors(kind, k) == (at(w_color, k), at(uv_color, k), share)


def test_the_stated_pt_colors_are_the_proven_forms():
    # tables._PT_COLORS, which trace_sequences and the pt-based builders
    # read, against the pair, low and high sums that prove_pt proves
    for k in range(1, 61):
        assert _pt_colors(k) == tuple(at(f, k) for f in PT_SUMS.values())


def test_m3_is_grown_from_m1():
    m1, m3 = _PIECES["m1"], _PIECES["m3"]
    # the path rows and the first C row are m1's
    assert (m3["L"], m3["R"], m3["C1"]) == (m1["uw"], m1["vw"], m1["xw"])
    # L1 and R2 are m1's L and R rows shifted by 2 + 4k: (c0, c1) by (2, 4)
    shifted = {name: tuple((c0 + 2, c1 + 4, d) for c0, c1, d in m1[name]) for name in ("xu", "xv")}
    assert (m3["L1"], m3["R2"]) == (shifted["xu"], shifted["xv"])


def test_the_restated_walk_is_the_peanut_walk():
    for k in range(1, 501):
        assert restated_walk(k) == _peanut_walk(k)


def test_pt_properties_a_to_c_hold_for_every_k():
    assert prove_pt(_PIECES["pt"]) == (2, 3)


def _mutants(pieces):
    """Each table that differs from ``pieces`` in one coefficient by +-1."""
    for name, row in pieces.items():
        for j, part in enumerate(row):
            for c in range(3):
                for delta in (-1, 1):
                    changed = list(part)
                    changed[c] += delta
                    yield f"{name}[{j}][{c}]{delta:+d}", {
                        **pieces, name: (*row[:j], tuple(changed), *row[j + 1:]),
                    }


@pytest.mark.parametrize("kind", sorted(PROOFS))
def test_every_one_coefficient_change_fails_both_proofs(kind):
    for label, pieces in _mutants(_PIECES[kind]):
        for proof in (prove_bijection, PROOFS[kind]):
            with pytest.raises(Unproved):
                proof(pieces)


@pytest.mark.parametrize(
    "kind, check, labels",
    [("m1", check_m1_observations, (1, 2)), ("m3", check_m3_observations, ("a", "b"))],
)
def test_every_one_coefficient_change_fails_the_runtime_check(kind, check, labels, monkeypatch):
    # a path-row or C-row change breaks w's column sums, which every column
    # checks first; an L-row or R-row change leaves them and breaks u's or v's.
    # A change to a zero step is left out: _table cannot lay one
    names = list(_PIECES[kind])
    m = (len(names) - 2) // 3
    cases = 0
    for label, pieces in _mutants(_PIECES[kind]):
        if any(d == 0 for row in pieces.values() for *_, d in row):
            continue
        expected = labels[names.index(label.partition("[")[0]) >= 2 + m]
        monkeypatch.setitem(_PIECES, kind, pieces)
        for k in range(1, 6):
            with pytest.raises(ObservationViolated) as info:
                check(_table(kind, k))
            assert info.value.index == expected, (label, k)
            cases += 1
    assert cases == {"m1": 245, "m3": 535}[kind]

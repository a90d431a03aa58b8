"""Closed-form generators for the three odd-width label matrices.

Three integer matrices drive every construction in this package:

* ``m1`` -- 5 x (2k+1) with entries bijective on [1, 10k+5]; rows are named
  after the fan-blade edges they label (uw, vw, xw, xu, xv).
* ``pt`` -- 5 x (2k+1), also bijective on [1, 10k+5]; rows R1..R5 feed the
  peanut/bracelet constructions through two traced sequences S1 and S2,
  whose sums are stated once, in ``_PT_COLORS``.
* ``m3`` -- 11 x (2k+1) bijective on [1, 22k+11] for the triple-hub join
  families.  The join tables ``m1`` and ``m3`` order their rows as the cell
  builder and the check read them (:func:`_join_rows`): two path rows, then
  m C, m L and m R rows (m = 1, 3).  Their colors are stated once, in
  ``_JOINS``, and one check, :func:`_check_join`, holds both tables to them.

Each row is stated once, in ``_PIECES``, as one or two pieces (c0, c1, d),
the entry c0 + c1*k + d*i in column i: the first piece on columns 1..k+1,
the last on k+2..2k+1 (a row of one piece uses it on both), each evaluated
with one ``range``.  ``tests/test_table_proofs.py`` proves from the same
pieces each bijection, observations (1)-(5) and (a)-(c), and properties
(A)-(C) for every k >= 1, and for any 5-row table that m1's observations (4)
and (6) follow from (1)-(3), so those two are reported, not checked.  So a
build trusts its table and the certificate checks what it builds; the checks
here run only where a table is the output: :func:`make_table` checks the
bijection, :func:`trace_sequences` (A)-(C).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidK, InvariantError, ObservationViolated, SequenceSchemeViolated


class LabelTable(NamedTuple):
    """One named-row integer matrix with 2k+1 columns.

    The key order of ``rows`` is the row order of the matrix.
    """

    kind: str
    k: int
    rows: dict[str, tuple[int, ...]]

    @property
    def columns(self) -> int:
        return 2 * self.k + 1

    def all_entries(self) -> list[int]:
        return [x for row in self.rows.values() for x in row]


def _check_k(k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise InvalidK(f"k must be a positive integer, got {k!r}")


# the rows of each kind as pieces (see above), in row order
_PIECES = {
    "m1": {
        "uw": ((-1, 0, 2), (-2, -2, 2)),
        "vw": ((3, 3, -1), (4, 5, -1)),
        "xw": ((4, 6, -1),),
        "xu": ((7, 10, -2), (8, 12, -2)),
        "xv": ((3, 7, 1), (2, 5, 1)),
    },
    "pt": {
        "R1": ((-1, 0, 2), (-2, -2, 2)),
        "R2": ((3, 4, -1),),
        "R3": ((4, 5, -1), (5, 7, -1)),
        "R4": ((5, 8, -1),),
        "R5": ((3, 8, 2), (2, 6, 2)),
    },
    "m3": {
        "L": ((-1, 0, 2), (-2, -2, 2)),
        "R": ((3, 3, -1), (4, 5, -1)),
        "C1": ((4, 6, -1),),
        "C2": ((6, 10, -1),),
        "C3": ((3, 6, 1),),
        "L1": ((9, 14, -2), (10, 16, -2)),
        "L2": ((8, 18, 2), (7, 16, 2)),
        "L3": ((11, 18, -2), (12, 20, -2)),
        "R1": ((13, 22, -2), (14, 24, -2)),
        "R2": ((5, 11, 1), (4, 9, 1)),
        "R3": ((6, 14, 2), (5, 12, 2)),
    },
}


def _table(kind: str, k: int) -> LabelTable:
    """The ``kind`` matrix at k, each row as the two ``range``s of its pieces."""
    _check_k(k)
    rows = {}
    for name, pieces in _PIECES[kind].items():
        (a0, a1, a), (b0, b1, b) = pieces[0], pieces[-1]
        at1, at2 = a0 + a1 * k + a, b0 + b1 * k + b * (k + 2)  # columns 1 and k+2
        rows[name] = (*range(at1, at1 + a * (k + 1), a), *range(at2, at2 + b * k, b))
    return LabelTable(kind, k, rows)


def table_m1(k: int) -> LabelTable:
    """The fan-blade matrix: entries are a permutation of [1, 10k+5]."""
    return _table("m1", k)


def table_pt(k: int) -> LabelTable:
    """The peanut matrix: entries are a permutation of [1, 10k+5]."""
    return _table("pt", k)


def table_m3(k: int) -> LabelTable:
    """The triple-hub matrix: entries are a permutation of [1, 22k+11]."""
    return _table("m3", k)


def make_table(kind: str, k: int) -> LabelTable:
    """The ``kind`` matrix at k, checked to be a bijection onto its range."""
    if kind not in _PIECES:
        raise InvalidK(f"unknown table kind {kind!r}")
    t = _table(kind, k)
    if sorted(t.all_entries()) != list(range(1, len(t.rows) * t.columns + 1)):
        raise InvariantError(f"{kind} matrix not bijective at k={k}")
    return t


# -- the hub joins -------------------------------------------------------------

# each join's colors of w and of u and v, and a hub's share of one column
# (a hub's rows total 2k+1 shares), each (c0, c1) for c0 + c1*k
_JOINS = {"m1": ((6, 9), (6, 10), (12, 21)), "m3": ((15, 25), (27, 50), (21, 39))}


def _join_colors(kind: str, k: int) -> tuple[int, int, int]:
    return tuple(c0 + c1 * k for c0, c1 in _JOINS[kind])


def _join_rows(t: LabelTable) -> tuple[list, list]:
    """A join table's two path rows (u-w, v-w) and each join's C, L and R rows
    (hub-w, hub-u, hub-v), by position: of 3m+2 rows, hub a's are rows[2+a::m]."""
    rows, m = [*t.rows.values()], len(t.rows) // 3
    return rows[:2], [rows[2 + a::m] for a in range(m)]


def _check_join(t: LabelTable, labels: tuple) -> tuple[int, int, int]:
    """Hold a join table to its colors, and return them: column by column,
    w's rows (the path rows and each C row), u's (u-w and each L row) and
    v's (v-w and each R row) must sum to theirs, else observation
    ``labels[0]`` (w) or ``labels[1]`` fails; then each hub's rows must
    total 2k+1 shares, else ``labels[2]`` fails."""
    w, uv, share = _join_colors(t.kind, t.k)
    (uw, vw), joins = _join_rows(t)
    cs, ls, rs = zip(*joins)
    sums = (("w", (uw, vw, *cs), w), ("u", (uw, *ls), uv), ("v", (vw, *rs), uv))
    for i in range(t.columns):
        for vertex, rows, color in sums:
            if (total := sum(row[i] for row in rows)) != color:
                detail = f"column {i + 1}: {vertex}'s rows sum to {total} != {color}"
                raise ObservationViolated(labels[vertex != "w"], detail)
    for a, rows in enumerate(joins, 1):
        if (total := sum(map(sum, rows))) != t.columns * share:
            raise ObservationViolated(labels[2], f"hub {a}'s rows total {total} != 2k+1 shares")
    return w, uv, share


def _odd_factorizations(n: int, min_r: int = 3):
    """All (r, s) with r*s == n and r >= min_r; n odd so both factors are odd."""
    for r in range(min_r, n + 1):
        if n % r == 0:
            yield r, n // r


def check_m1_observations(t: LabelTable) -> dict:
    """The six structural properties of the fan-blade matrix:

    1, 2, 5. its join's colors (:func:`_check_join`): every column's rows
       1-3 (w's) sum to S1, rows 1, 4 (u's) and 2, 5 (v's) to S2, and the
       last three rows (the hub's) total 2k+1 hub shares;
    3. last-three-row column sums form the AP 23k+12 .. 19k+12, step -2;
    4. rows (4,5) column sums form an AP with step -1;
    6. for every factorization 2k+1 = r*s with r >= 3, splitting the columns
       into r blocks of s, the row-3 sum of block j plus the rows-(4,5) sum of
       block r+1-j is S3 = s hub shares, and the middle block's last-three-row
       sum is also S3.

    Only (1), (2), (3) and (5) are checked: any 5-row table that meets
    (1)-(3) meets (4) and (6) (``tests/test_table_proofs.py``), so those two
    are reported, not checked.  Raises :class:`ObservationViolated` on the
    first failure; returns the computed constants, ``block_sums`` each S3.
    """
    if t.kind != "m1":
        raise InvalidK("observations (1)-(6) apply to the m1 table")
    k, n = t.k, t.columns
    s1, s2, share = _check_join(t, (1, 2, 5))
    _, _, xw, xu, xv = t.rows.values()

    if [sum(col) for col in zip(xw, xu, xv)] != [*range(23 * k + 12, 19 * k + 11, -2)]:
        raise ObservationViolated(3, "last-3-rows column sums are not the stated AP")

    return {
        "k": k, "S1": s1, "S2": s2, "ap_first": 23 * k + 12, "ap_last": 19 * k + 12,
        "grand_total": n * share,
        "block_sums": {(r, s): s * share for r, s in _odd_factorizations(n)},
    }


def check_m3_observations(t: LabelTable) -> dict:
    """Verify the triple-hub matrix's observations (a)-(c), its join's
    colors (:func:`_check_join`), and report them."""
    if t.kind != "m3":
        raise InvalidK("observations (a)-(c) apply to the m3 table")
    top, side, share = _check_join(t, ("a", "b", "c"))
    return {"k": t.k, "first_five": top, "side_sum": side, "class_total": t.columns * share}


# -- traced sequences -----------------------------------------------------------


class TracedSequences(NamedTuple):
    """The two sequences S1, S2 walked out of the pt table.

    Positions are 1-based.  ``r3_columns[j-1]`` is the column whose pair of
    consecutive terms (2j-1, 2j) the j-th row-3 entry accompanies; it is the
    rung-label order of the peanut construction.
    """

    s1: tuple[int, ...]
    s2: tuple[int, ...]
    r3_columns: tuple[int, ...]


# the pt scheme's pair sum (A, B) and low and high sums (C), each (c0, c1) for
# c0 + c1*k: the peanut's colors; the bracelet's zipped hubs take two pair sums
_PT_COLORS = ((6, 10), (6, 9), (12, 21))


def _pt_colors(k: int) -> tuple[int, int, int]:
    return tuple(c0 + c1 * k for c0, c1 in _PT_COLORS)


def _peanut_walk(k: int) -> list[tuple[int, bool]]:
    """The columns S1 and S2 visit, in order, each with whether it is a top pair.

    At a top column S1 takes (R2, R1) and S2 takes (R4, R5); at any other
    column S1 takes (R5, R4) and S2 takes (R1, R2).  Odd k ends on a
    two-column tail.
    """
    walk = [(k + 1, True)]
    for i in range(1, k // 2 + 1):
        walk += [(i, False), (2 * k + 2 - i, True), (k + 1 + i, False), (k + 1 - i, True)]
    if k % 2:
        walk += [((k + 1) // 2, False), ((3 * k + 3) // 2, True)]
    return walk


def _sequences(t: LabelTable) -> TracedSequences:
    """S1, S2 and the rung order read off the pt table along the walk, unchecked."""
    r1, r2, _, r4, r5 = t.rows.values()
    s1: list[int] = []
    s2: list[int] = []
    walk = _peanut_walk(t.k)
    for col, top in walk:
        i = col - 1
        if top:
            s1 += (r2[i], r1[i])
            s2 += (r4[i], r5[i])
        else:
            s1 += (r5[i], r4[i])
            s2 += (r1[i], r2[i])
    return TracedSequences(tuple(s1), tuple(s2), tuple(col for col, _ in walk))


def trace_sequences(t: LabelTable) -> TracedSequences:
    """Trace S1 and S2 and check their three defining properties:

    (A) first terms of S1 and S2 sum to 10k+6, and so do the last terms;
    (B) within each sequence the terms at positions (2r, 2r+1) sum to 10k+6;
    (C) the terms at positions (2j-1, 2j), which share a column, sum with
        that column's row-3 entry to 9k+6 when drawn from the top two rows
        or 21k+12 from the bottom two.

    Each pair is read from one column of the walk, which visits every column
    once for every k, so S1 and S2 cover rows R1, R2, R4 and R5 exactly once.
    """
    if t.kind != "pt":
        raise InvalidK("sequences are traced from the pt table")
    k = t.k
    walk = _peanut_walk(k)
    tr = _sequences(t)
    s1, s2 = tr.s1, tr.s2

    pair_sum, low, high = _pt_colors(k)
    if s1[0] + s2[0] != pair_sum or s1[-1] + s2[-1] != pair_sum:
        raise SequenceSchemeViolated("first/last cross-sequence sums are off (A)")
    for seq in (s1, s2):
        for r in range(1, 2 * k + 1):
            if seq[2 * r - 1] + seq[2 * r] != pair_sum:
                raise SequenceSchemeViolated(
                    f"positions {2 * r},{2 * r + 1} do not sum to {pair_sum} (B)"
                )

    r3 = t.rows["R3"]
    for j, (col, top) in enumerate(walk):
        with_r3 = s1[2 * j] + s1[2 * j + 1] + r3[col - 1]
        expected, complement = (low, high) if top else (high, low)
        if with_r3 != expected:
            raise SequenceSchemeViolated(
                f"pair {j + 1} + row-3 entry sums to {with_r3}, expected {expected} (C)"
            )
        # the companion pair in S2 sits in the complementary row class
        if s2[2 * j] + s2[2 * j + 1] + r3[col - 1] != complement:
            raise SequenceSchemeViolated(f"pair {j + 1} of S2 breaks the complement (C)")

    return tr

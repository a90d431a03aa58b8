"""Golden and structural tests for the three label matrices.

The closed forms in antimagic.tables are gated here against independently
encoded per-column endpoint formulas, against frozen full matrices for
small k, and against frozen traced-sequence values.
"""

import hashlib
import re

import pytest

from antimagic import io
from antimagic.errors import InvalidK, ObservationViolated, SequenceSchemeViolated
from antimagic.tables import (
    check_m1_observations,
    check_m3_observations,
    make_table,
    table_m1,
    table_m3,
    table_pt,
    trace_sequences,
)

# --- endpoint cells, encoded independently of the generators ----------------
# Each entry: (half, column as a function of k, {row: value as a function of k}).
# "lo" columns must satisfy col <= k+1, "hi" columns k+2 <= col <= 2k+1.

M1_ENDPOINTS = [
    ("lo", lambda k: 1, {"uw": lambda k: 1, "vw": lambda k: 3 * k + 2, "xw": lambda k: 6 * k + 3, "xu": lambda k: 10 * k + 5, "xv": lambda k: 7 * k + 4}),
    ("lo", lambda k: 2, {"uw": lambda k: 3, "vw": lambda k: 3 * k + 1, "xw": lambda k: 6 * k + 2, "xu": lambda k: 10 * k + 3, "xv": lambda k: 7 * k + 5}),
    ("lo", lambda k: 3, {"uw": lambda k: 5, "vw": lambda k: 3 * k, "xw": lambda k: 6 * k + 1, "xu": lambda k: 10 * k + 1, "xv": lambda k: 7 * k + 6}),
    ("lo", lambda k: k, {"uw": lambda k: 2 * k - 1, "vw": lambda k: 2 * k + 3, "xw": lambda k: 5 * k + 4, "xu": lambda k: 8 * k + 7, "xv": lambda k: 8 * k + 3}),
    ("lo", lambda k: k + 1, {"uw": lambda k: 2 * k + 1, "vw": lambda k: 2 * k + 2, "xw": lambda k: 5 * k + 3, "xu": lambda k: 8 * k + 5, "xv": lambda k: 8 * k + 4}),
    ("hi", lambda k: k + 2, {"uw": lambda k: 2, "vw": lambda k: 4 * k + 2, "xw": lambda k: 5 * k + 2, "xu": lambda k: 10 * k + 4, "xv": lambda k: 6 * k + 4}),
    ("hi", lambda k: k + 3, {"uw": lambda k: 4, "vw": lambda k: 4 * k + 1, "xw": lambda k: 5 * k + 1, "xu": lambda k: 10 * k + 2, "xv": lambda k: 6 * k + 5}),
    ("hi", lambda k: 2 * k - 1, {"uw": lambda k: 2 * k - 4, "vw": lambda k: 3 * k + 5, "xw": lambda k: 4 * k + 5, "xu": lambda k: 8 * k + 10, "xv": lambda k: 7 * k + 1}),
    ("hi", lambda k: 2 * k, {"uw": lambda k: 2 * k - 2, "vw": lambda k: 3 * k + 4, "xw": lambda k: 4 * k + 4, "xu": lambda k: 8 * k + 8, "xv": lambda k: 7 * k + 2}),
    ("hi", lambda k: 2 * k + 1, {"uw": lambda k: 2 * k, "vw": lambda k: 3 * k + 3, "xw": lambda k: 4 * k + 3, "xu": lambda k: 8 * k + 6, "xv": lambda k: 7 * k + 3}),
]

PT_ENDPOINTS = [
    ("lo", lambda k: 1, {"R1": lambda k: 1, "R2": lambda k: 4 * k + 2, "R3": lambda k: 5 * k + 3, "R4": lambda k: 8 * k + 4, "R5": lambda k: 8 * k + 5}),
    ("lo", lambda k: 2, {"R1": lambda k: 3, "R2": lambda k: 4 * k + 1, "R3": lambda k: 5 * k + 2, "R4": lambda k: 8 * k + 3, "R5": lambda k: 8 * k + 7}),
    ("lo", lambda k: 3, {"R1": lambda k: 5, "R2": lambda k: 4 * k, "R3": lambda k: 5 * k + 1, "R4": lambda k: 8 * k + 2, "R5": lambda k: 8 * k + 9}),
    ("lo", lambda k: k - 2, {"R1": lambda k: 2 * k - 5, "R2": lambda k: 3 * k + 5, "R3": lambda k: 4 * k + 6, "R4": lambda k: 7 * k + 7, "R5": lambda k: 10 * k - 1}),
    ("lo", lambda k: k - 1, {"R1": lambda k: 2 * k - 3, "R2": lambda k: 3 * k + 4, "R3": lambda k: 4 * k + 5, "R4": lambda k: 7 * k + 6, "R5": lambda k: 10 * k + 1}),
    ("lo", lambda k: k, {"R1": lambda k: 2 * k - 1, "R2": lambda k: 3 * k + 3, "R3": lambda k: 4 * k + 4, "R4": lambda k: 7 * k + 5, "R5": lambda k: 10 * k + 3}),
    ("lo", lambda k: k + 1, {"R1": lambda k: 2 * k + 1, "R2": lambda k: 3 * k + 2, "R3": lambda k: 4 * k + 3, "R4": lambda k: 7 * k + 4, "R5": lambda k: 10 * k + 5}),
    ("hi", lambda k: k + 2, {"R1": lambda k: 2, "R2": lambda k: 3 * k + 1, "R3": lambda k: 6 * k + 3, "R4": lambda k: 7 * k + 3, "R5": lambda k: 8 * k + 6}),
    ("hi", lambda k: k + 3, {"R1": lambda k: 4, "R2": lambda k: 3 * k, "R3": lambda k: 6 * k + 2, "R4": lambda k: 7 * k + 2, "R5": lambda k: 8 * k + 8}),
    ("hi", lambda k: k + 4, {"R1": lambda k: 6, "R2": lambda k: 3 * k - 1, "R3": lambda k: 6 * k + 1, "R4": lambda k: 7 * k + 1, "R5": lambda k: 8 * k + 10}),
    ("hi", lambda k: 2 * k - 1, {"R1": lambda k: 2 * k - 4, "R2": lambda k: 2 * k + 4, "R3": lambda k: 5 * k + 6, "R4": lambda k: 6 * k + 6, "R5": lambda k: 10 * k}),
    ("hi", lambda k: 2 * k, {"R1": lambda k: 2 * k - 2, "R2": lambda k: 2 * k + 3, "R3": lambda k: 5 * k + 5, "R4": lambda k: 6 * k + 5, "R5": lambda k: 10 * k + 2}),
    ("hi", lambda k: 2 * k + 1, {"R1": lambda k: 2 * k, "R2": lambda k: 2 * k + 2, "R3": lambda k: 5 * k + 4, "R4": lambda k: 6 * k + 4, "R5": lambda k: 10 * k + 4}),
]

M3_ENDPOINTS = [
    ("lo", lambda k: 1, {"L": lambda k: 1, "R": lambda k: 3 * k + 2, "C1": lambda k: 6 * k + 3, "C2": lambda k: 10 * k + 5, "C3": lambda k: 6 * k + 4, "L1": lambda k: 14 * k + 7, "L2": lambda k: 18 * k + 10, "L3": lambda k: 18 * k + 9, "R1": lambda k: 22 * k + 11, "R2": lambda k: 11 * k + 6, "R3": lambda k: 14 * k + 8}),
    ("lo", lambda k: 2, {"L": lambda k: 3, "R": lambda k: 3 * k + 1, "C1": lambda k: 6 * k + 2, "C2": lambda k: 10 * k + 4, "C3": lambda k: 6 * k + 5, "L1": lambda k: 14 * k + 5, "L2": lambda k: 18 * k + 12, "L3": lambda k: 18 * k + 7, "R1": lambda k: 22 * k + 9, "R2": lambda k: 11 * k + 7, "R3": lambda k: 14 * k + 10}),
    ("lo", lambda k: 3, {"L": lambda k: 5, "R": lambda k: 3 * k, "C1": lambda k: 6 * k + 1, "C2": lambda k: 10 * k + 3, "C3": lambda k: 6 * k + 6, "L1": lambda k: 14 * k + 3, "L2": lambda k: 18 * k + 14, "L3": lambda k: 18 * k + 5, "R1": lambda k: 22 * k + 7, "R2": lambda k: 11 * k + 8, "R3": lambda k: 14 * k + 12}),
    ("lo", lambda k: k, {"L": lambda k: 2 * k - 1, "R": lambda k: 2 * k + 3, "C1": lambda k: 5 * k + 4, "C2": lambda k: 9 * k + 6, "C3": lambda k: 7 * k + 3, "L1": lambda k: 12 * k + 9, "L2": lambda k: 20 * k + 8, "L3": lambda k: 16 * k + 11, "R1": lambda k: 20 * k + 13, "R2": lambda k: 12 * k + 5, "R3": lambda k: 16 * k + 6}),
    ("lo", lambda k: k + 1, {"L": lambda k: 2 * k + 1, "R": lambda k: 2 * k + 2, "C1": lambda k: 5 * k + 3, "C2": lambda k: 9 * k + 5, "C3": lambda k: 7 * k + 4, "L1": lambda k: 12 * k + 7, "L2": lambda k: 20 * k + 10, "L3": lambda k: 16 * k + 9, "R1": lambda k: 20 * k + 11, "R2": lambda k: 12 * k + 6, "R3": lambda k: 16 * k + 8}),
    ("hi", lambda k: k + 2, {"L": lambda k: 2, "R": lambda k: 4 * k + 2, "C1": lambda k: 5 * k + 2, "C2": lambda k: 9 * k + 4, "C3": lambda k: 7 * k + 5, "L1": lambda k: 14 * k + 6, "L2": lambda k: 18 * k + 11, "L3": lambda k: 18 * k + 8, "R1": lambda k: 22 * k + 10, "R2": lambda k: 10 * k + 6, "R3": lambda k: 14 * k + 9}),
    ("hi", lambda k: k + 3, {"L": lambda k: 4, "R": lambda k: 4 * k + 1, "C1": lambda k: 5 * k + 1, "C2": lambda k: 9 * k + 3, "C3": lambda k: 7 * k + 6, "L1": lambda k: 14 * k + 4, "L2": lambda k: 18 * k + 13, "L3": lambda k: 18 * k + 6, "R1": lambda k: 22 * k + 8, "R2": lambda k: 10 * k + 7, "R3": lambda k: 14 * k + 11}),
    ("hi", lambda k: 2 * k, {"L": lambda k: 2 * k - 2, "R": lambda k: 3 * k + 4, "C1": lambda k: 4 * k + 4, "C2": lambda k: 8 * k + 6, "C3": lambda k: 8 * k + 3, "L1": lambda k: 12 * k + 10, "L2": lambda k: 20 * k + 7, "L3": lambda k: 16 * k + 12, "R1": lambda k: 20 * k + 14, "R2": lambda k: 11 * k + 4, "R3": lambda k: 16 * k + 5}),
    ("hi", lambda k: 2 * k + 1, {"L": lambda k: 2 * k, "R": lambda k: 3 * k + 3, "C1": lambda k: 4 * k + 3, "C2": lambda k: 8 * k + 5, "C3": lambda k: 8 * k + 4, "L1": lambda k: 12 * k + 8, "L2": lambda k: 20 * k + 9, "L3": lambda k: 16 * k + 10, "R1": lambda k: 20 * k + 12, "R2": lambda k: 11 * k + 5, "R3": lambda k: 16 * k + 7}),
]


def _check_endpoints(table, endpoints, k):
    for half, col_fn, cells in endpoints:
        col = col_fn(k)
        if half == "lo" and not 1 <= col <= k + 1:
            continue
        if half == "hi" and not k + 2 <= col <= 2 * k + 1:
            continue
        for row, val_fn in cells.items():
            assert table.rows[row][col - 1] == val_fn(k), (
                f"k={k} row={row} col={col}"
            )


@pytest.mark.parametrize("k", list(range(1, 201)))
def test_endpoint_cells_match_closed_forms(k):
    _check_endpoints(table_m1(k), M1_ENDPOINTS, k)
    _check_endpoints(table_pt(k), PT_ENDPOINTS, k)
    _check_endpoints(table_m3(k), M3_ENDPOINTS, k)


def test_m1_k1_full_matrix():
    t = table_m1(1)
    assert t.rows["uw"] == (1, 3, 2)
    assert t.rows["vw"] == (5, 4, 6)
    assert t.rows["xw"] == (9, 8, 7)
    assert t.rows["xu"] == (15, 13, 14)
    assert t.rows["xv"] == (11, 12, 10)


def test_pt_k2_full_matrix():
    t = table_pt(2)
    assert t.rows["R1"] == (1, 3, 5, 2, 4)
    assert t.rows["R2"] == (10, 9, 8, 7, 6)
    assert t.rows["R3"] == (13, 12, 11, 15, 14)
    assert t.rows["R4"] == (20, 19, 18, 17, 16)
    assert t.rows["R5"] == (21, 23, 25, 22, 24)


def test_pt_k5_full_matrix():
    t = table_pt(5)
    assert t.rows["R1"] == (1, 3, 5, 7, 9, 11, 2, 4, 6, 8, 10)
    assert t.rows["R2"] == (22, 21, 20, 19, 18, 17, 16, 15, 14, 13, 12)
    assert t.rows["R3"] == (28, 27, 26, 25, 24, 23, 33, 32, 31, 30, 29)
    assert t.rows["R4"] == (44, 43, 42, 41, 40, 39, 38, 37, 36, 35, 34)
    assert t.rows["R5"] == (45, 47, 49, 51, 53, 55, 46, 48, 50, 52, 54)


def test_m3_k1_full_matrix():
    t = table_m3(1)
    expected = {
        "L": (1, 3, 2),
        "R": (5, 4, 6),
        "C1": (9, 8, 7),
        "C2": (15, 14, 13),
        "C3": (10, 11, 12),
        "L1": (21, 19, 20),
        "L2": (28, 30, 29),
        "L3": (27, 25, 26),
        "R1": (33, 31, 32),
        "R2": (17, 18, 16),
        "R3": (22, 24, 23),
    }
    assert t.rows == expected


@pytest.mark.parametrize("k", [1, 2, 3, 7, 20, 101, 200])
def test_bijectivity(k):
    assert sorted(table_m1(k).all_entries()) == list(range(1, 10 * k + 6))
    assert sorted(table_pt(k).all_entries()) == list(range(1, 10 * k + 6))
    assert sorted(table_m3(k).all_entries()) == list(range(1, 22 * k + 12))


def test_make_table_refuses_an_unknown_kind():
    with pytest.raises(InvalidK) as info:
        make_table("m2", 1)
    assert type(info.value) is InvalidK and str(info.value) == "unknown table kind 'm2'"


def test_invalid_k():
    for maker in (table_m1, table_pt, table_m3):
        with pytest.raises(InvalidK):
            maker(0)
        with pytest.raises(InvalidK):
            maker(-3)
        for flag in (True, False):
            with pytest.raises(InvalidK):
                maker(flag)


@pytest.mark.parametrize(
    "check, table, message",
    [
        (check_m1_observations, table_pt(3), "observations (1)-(6) apply to the m1 table"),
        (check_m3_observations, table_m1(3), "observations (a)-(c) apply to the m3 table"),
        (trace_sequences, table_m1(3), "sequences are traced from the pt table"),
    ],
    ids=["m1", "m3", "pt"],
)
def test_every_table_check_refuses_a_table_of_another_kind_as_misuse(check, table, message):
    # a usage error, of one class in every check, not a broken invariant
    with pytest.raises(InvalidK) as info:
        check(table)
    assert type(info.value) is InvalidK and str(info.value) == message


# --- m1 observations ---------------------------------------------------------


def test_m1_observation_constants_k1():
    report = check_m1_observations(table_m1(1))
    assert report["S1"] == 15
    assert report["S2"] == 16
    assert report["grand_total"] == 99 == (7 + 4) * (6 + 3)
    # r=3, s=1 blocks are single columns paired (j, 4-j)
    assert report["block_sums"][(3, 1)] == 33


def test_m1_observation_block_k4():
    report = check_m1_observations(table_m1(4))
    assert report["block_sums"][(3, 3)] == 288 == 3 * (21 * 4 + 12)


def test_m1_observation_k4_column1_last_three():
    t = table_m1(4)
    assert t.rows["xw"][0] + t.rows["xu"][0] + t.rows["xv"][0] == 104 == 23 * 4 + 12
    assert (27, 45, 32) == (t.rows["xw"][0], t.rows["xu"][0], t.rows["xv"][0])


@pytest.mark.parametrize("k", list(range(1, 61)))
def test_m1_observations_sweep(k):
    check_m1_observations(table_m1(k))


def test_m1_observation_detects_corruption():
    t = table_m1(2)
    rows = dict(t.rows)
    rows["uw"] = tuple(x + 1 for x in rows["uw"])
    broken = type(t)("m1", 2, rows)
    with pytest.raises(ObservationViolated):
        check_m1_observations(broken)


def test_m1_observation_3_detects_a_hub_share_moved_between_columns():
    # column 1's u-w label up by 1 and column 2's down, with the hub's w and
    # u rows moved to keep every column sum and the hub total: (1), (2) and
    # (5) hold, and the last-three-row sums read 23k+10, 23k+12, ...
    t = table_m1(2)
    rows = dict(t.rows)
    for name, d in (("uw", 1), ("xw", -1), ("xu", -1)):
        row = rows[name]
        rows[name] = (row[0] + d, row[1] - d, *row[2:])
    with pytest.raises(ObservationViolated) as info:
        check_m1_observations(t._replace(rows=rows))
    assert info.value.index == 3
    assert str(info.value).endswith("last-3-rows column sums are not the stated AP")


# --- m3 observations ---------------------------------------------------------


def test_m3_observations_k1_values():
    report = check_m3_observations(table_m3(1))
    assert report["first_five"] == 40  # 1+5+9+15+10 in column 1
    assert report["side_sum"] == 77
    assert report["class_total"] == 180 == 3 * 60
    t = table_m3(1)
    assert sum(t.rows[r][0] for r in ("L", "R", "C1", "C2", "C3")) == 40
    assert (
        sum(t.rows["C1"]) + sum(t.rows["R1"]) + sum(t.rows["L1"])
        == 9 + 8 + 7 + 33 + 31 + 32 + 21 + 19 + 20
        == 180
    )


@pytest.mark.parametrize("k", list(range(1, 61)))
def test_m3_observations_sweep(k):
    check_m3_observations(table_m3(k))


@pytest.mark.parametrize(
    "make, check, moves, label",
    [
        # uw up, xw and xu down: w's and u's sums hold, the hub loses 2 (and
        # (3) fails too, but the join check, (5) among it, runs first)
        (table_m1, check_m1_observations, {"uw": 1, "xw": -1, "xu": -1}, 5),
        # C1 up, C2 down: w's sum holds, hubs 1 and 2 do not
        (table_m3, check_m3_observations, {"C1": 1, "C2": -1}, "c"),
    ],
    ids=["m1", "m3"],
)
def test_a_hub_total_off_with_every_column_sum_kept_fails_the_join_check(
    make, check, moves, label
):
    t = make(2)
    rows = {name: (row[0] + moves.get(name, 0), *row[1:]) for name, row in t.rows.items()}
    with pytest.raises(ObservationViolated) as info:
        check(t._replace(rows=rows))
    assert info.value.index == label


# --- traced sequences ---------------------------------------------------------


def test_sequences_k2_golden():
    tr = trace_sequences(table_pt(2))
    assert tr.s1 == (8, 5, 21, 20, 6, 4, 22, 17, 9, 3)
    assert tr.s2 == (18, 25, 1, 10, 16, 24, 2, 7, 19, 23)


def test_sequences_k5_golden():
    tr = trace_sequences(table_pt(5))
    assert tr.s1 == (17, 11, 45, 44, 12, 10, 46, 38, 18, 9, 47, 43,
                     13, 8, 48, 37, 19, 7, 49, 42, 14, 6)
    assert tr.s2 == (39, 55, 1, 22, 34, 54, 2, 16, 40, 53, 3, 21,
                     35, 52, 4, 15, 41, 51, 5, 20, 36, 50)


def test_sequences_even_k_midpoint_cells():
    # the half-way cells called out for even k: (R1, k/2+1) = k+1 and
    # (R5, k/2+1) = 9k+5
    for k in (2, 4, 10):
        t = table_pt(k)
        assert t.rows["R1"][k // 2] == k + 1
        assert t.rows["R5"][k // 2] == 9 * k + 5


@pytest.mark.parametrize("k", list(range(1, 61)))
def test_sequences_properties_sweep(k):
    # trace_sequences raises SequenceSchemeViolated if any of the three
    # observations fail, so a clean return is the assertion
    tr = trace_sequences(table_pt(k))
    assert len(tr.s1) == len(tr.s2) == 4 * k + 2
    assert set(tr.s1).isdisjoint(tr.s2)
    r3 = set(table_pt(k).rows["R3"])
    assert r3.isdisjoint(tr.s1) and r3.isdisjoint(tr.s2)
    assert sorted(tr.r3_columns) == list(range(1, 2 * k + 2))


def test_sequences_odd_k_tail_columns():
    for k in (1, 3, 5, 9, 15):
        tr = trace_sequences(table_pt(k))
        assert list(tr.r3_columns[-2:]) == [(k + 1) // 2, (3 * k + 3) // 2]


def _pt3_swapped(row_a, col_a, row_b, col_b):
    """table_pt(3) with the cells (row_a, col_a) and (row_b, col_b) swapped."""
    t = table_pt(3)
    rows = {name: list(row) for name, row in t.rows.items()}
    rows[row_a][col_a - 1], rows[row_b][col_b - 1] = (
        rows[row_b][col_b - 1], rows[row_a][col_a - 1],
    )
    return type(t)("pt", 3, {name: tuple(row) for name, row in rows.items()})


@pytest.mark.parametrize(
    "table, message",
    [
        (_pt3_swapped("R1", 4, "R2", 4), "first/last cross-sequence sums are off (A)"),
        (_pt3_swapped("R1", 1, "R1", 2), "positions 2,3 do not sum to 36 (B)"),
        (_pt3_swapped("R3", 1, "R3", 2), "pair 2 + row-3 entry sums to 74, expected 75 (C)"),
        # S2's terms at positions 2 and 3, a (B) pair, trade places: (A), (B)
        # and S1's (C) hold, and S2's first pair with its row-3 entry is off
        (_pt3_swapped("R5", 4, "R1", 1), "pair 1 of S2 breaks the complement (C)"),
    ],
    ids=["A", "B", "C", "C-S2"],
)
def test_sequence_checks_reject_a_corrupted_table(table, message):
    # each swap breaks one property; (A), (B), (C) are checked in that order
    with pytest.raises(SequenceSchemeViolated, match=re.escape(message)):
        trace_sequences(table)


def test_sequence_pair_sums():
    for k in (1, 2, 6, 13):
        tr = trace_sequences(table_pt(k))
        for seq in (tr.s1, tr.s2):
            for r in range(1, 2 * k + 1):
                assert seq[2 * r - 1] + seq[2 * r] == 10 * k + 6
        assert tr.s1[0] + tr.s2[0] == 10 * k + 6
        assert tr.s1[-1] + tr.s2[-1] == 10 * k + 6


# --- frozen digests -------------------------------------------------------------


def test_table_csvs_for_k_up_to_200_are_frozen():
    h = hashlib.sha256()
    for kind in ("m1", "pt", "m3"):
        for k in range(1, 201):
            h.update(io.table_to_csv(make_table(kind, k)).encode())
    assert h.hexdigest() == "1d05018bb088118d4418ddd105e64e7b697b4ffdc17df38e833493a8a822481f"


def test_traced_sequences_for_k_up_to_500_are_frozen():
    h = hashlib.sha256()
    for k in range(1, 501):
        tr = trace_sequences(table_pt(k))
        h.update(repr((k, tr.s1, tr.s2, tr.r3_columns)).encode())
    assert h.hexdigest() == "b5344c7d343868cbffb422ac00118a7f283bc95483b179015c51b728e94c02b0"

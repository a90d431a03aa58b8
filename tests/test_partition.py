"""Equal-sum partition tests, gated by a brute-force set-partition oracle."""

import pytest

from antimagic.errors import InfeasibleShape
from antimagic.partition import partition_ap


def brute_force_feasible(values, t, s):
    """Independent oracle: does any partition of ``values`` into t blocks of
    s terms with equal sums exist?  Plain exhaustive search with the
    first-free-slot canonicalization; values must be distinct."""
    total = sum(values)
    if total % t:
        return False
    target = total // t
    values = sorted(values, reverse=True)
    blocks = [[] for _ in range(t)]
    sums = [0] * t

    def place(i):
        if i == len(values):
            return all(x == target for x in sums)
        v = values[i]
        tried = set()
        for b in range(t):
            key = (sums[b], len(blocks[b]))
            if key in tried:
                continue
            tried.add(key)
            if len(blocks[b]) == s or sums[b] + v > target:
                continue
            blocks[b].append(v)
            sums[b] += v
            if place(i + 1):
                return True
            blocks[b].pop()
            sums[b] -= v
        return False

    return place(0)


def test_nine_term_shape_3x3():
    part = partition_ap(88, 2, 3, 3)
    assert part.target == 288
    assert {frozenset(b) for b in part.blocks} == {
        frozenset({104, 96, 88}),
        frozenset({100, 98, 90}),
        frozenset({102, 94, 92}),
    }


def test_single_block():
    part = partition_ap(5, 3, 1, 7)
    assert part.target == sum(5 + 3 * i for i in range(7))
    assert len(part.blocks) == 1


def test_unit_ap_3x3():
    part = partition_ap(1, 1, 3, 3)
    assert part.target == 15
    assert brute_force_feasible(list(range(1, 10)), 3, 3)


@pytest.mark.parametrize("t,s", [(3, 3), (3, 5), (5, 3), (1, 1), (1, 9), (9, 1), (5, 1), (15, 1), (1, 15)])
def test_feasibility_agrees_with_oracle(t, s):
    values = [7 + 2 * i for i in range(t * s)]
    oracle = brute_force_feasible(values, t, s)
    try:
        part = partition_ap(7, 2, t, s)
        produced = True
        assert all(sum(b) == part.target for b in part.blocks)
    except InfeasibleShape:
        produced = False
    assert produced == oracle


def test_block_sums_across_grid():
    for t in range(1, 16, 2):
        for s in range(1, 226 // t + 1, 2):
            if t > 1 and s == 1:
                continue
            part = partition_ap(19, 2, t, s)
            values = [19 + 2 * i for i in range(t * s)]
            mean_times_s = s * (values[0] + values[-1]) // 2
            assert all(sum(b) == mean_times_s for b in part.blocks)
            assert sorted(v for b in part.blocks for v in b) == values


def test_deterministic():
    a = partition_ap(100, 4, 7, 5)
    b = partition_ap(100, 4, 7, 5)
    assert a == b
    # canonical descending order inside blocks
    assert all(list(blk) == sorted(blk, reverse=True) for blk in a.blocks)


def test_infeasible_shapes():
    with pytest.raises(InfeasibleShape):
        partition_ap(1, 1, 2, 3)  # even t out of scope
    with pytest.raises(InfeasibleShape):
        partition_ap(1, 1, 3, 2)  # even s out of scope
    with pytest.raises(InfeasibleShape):
        partition_ap(1, 1, 3, 1)  # distinct singletons can't tie
    with pytest.raises(InfeasibleShape):
        partition_ap(1, 0, 3, 3)  # a constant progression has no step


@pytest.mark.parametrize("t, s", [(0, 3), (3, 0), (-1, 3)])
def test_a_shape_that_is_not_positive_is_refused(t, s):
    with pytest.raises(InfeasibleShape, match=f"^block shape {t}x{s} is not positive$"):
        partition_ap(1, 1, t, s)

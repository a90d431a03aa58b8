"""Equal-sum partition of an arithmetic progression into odd-shaped blocks.

The hub-merging constructions need the t*s induced hub sums, which form an
arithmetic progression, grouped into t blocks of s terms with one common
block sum (the "magic rectangle with constant row sum").  Only equal *row*
sums are required here, so this module solves the weaker equal-sum-partition
problem.

Because block values are affine in their positions, it suffices to partition
the positions 0..t*s-1.  For odd t and odd s >= 3 an explicit scheme always
works: three leading slices of t consecutive positions are combined by a
pair of offset permutations with constant offset sum, and every remaining
pair of slices is combined by reflection.  Equal sums hold by construction:
block i's leading triple sums to 3t + (i + a[i] + b[i]) = 3t + 3(t-1)/2 and
every reflected pair (lo+i, lo+2t-1-i) sums to 2lo + 2t - 1, neither
depending on i.  The produced partition is still certified unconditionally.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InfeasibleShape, InvariantError


class EqualSumPartition(NamedTuple):
    blocks: tuple[tuple[int, ...], ...]
    target: int


def _triple_offsets(t: int) -> tuple[list[int], list[int]]:
    """Two permutations a, b of [0, t) with i + a[i] + b[i] == 3(t-1)/2.

    For t = 2h+1: a maps [0..h] -> [h..2h] and [h+1..2h] -> [0..h-1];
    b picks up the exact remainder, hitting the even then odd residues.
    """
    h = (t - 1) // 2
    a = [h + i if i <= h else i - h - 1 for i in range(t)]
    b = [3 * h - i - a[i] for i in range(t)]
    return a, b


def _position_blocks(t: int, s: int) -> list[list[int]]:
    """t blocks of s positions from [0, t*s) with equal position sums,
    unchecked: :func:`partition_ap` certifies what it returns, and the
    ``tfb`` build reads the blocks as builds read their tables, so no build
    runs a partition check."""
    if t == 1:
        return [list(range(s))]
    if s == 1:
        raise InfeasibleShape(
            f"{t} singleton blocks of distinct terms cannot have equal sums"
        )
    blocks = [[] for _ in range(t)]
    a, b = _triple_offsets(t)
    for i in range(t):
        blocks[i].extend([i, t + a[i], 2 * t + b[i]])
    lo = 3 * t
    while lo < t * s:
        for i in range(t):
            blocks[i].extend([lo + i, lo + 2 * t - 1 - i])
        lo += 2 * t
    return blocks


def partition_ap(first: int, step: int, t: int, s: int) -> EqualSumPartition:
    """Partition the t*s terms ``first, first+step, ...`` into t blocks of s
    terms with equal block sums.

    Only odd t and s are in scope; a singleton-block shape with t > 1 is
    mathematically infeasible and raises :class:`InfeasibleShape`.  Within a
    block the values are listed descending, so blocks are canonical and the
    whole function is deterministic.
    """
    if t < 1 or s < 1:
        raise InfeasibleShape(f"block shape {t}x{s} is not positive")
    if t % 2 == 0 or s % 2 == 0:
        raise InfeasibleShape(f"block shape {t}x{s} has an even side")
    if step < 1:
        raise InfeasibleShape("AP step must be positive")

    values = [first + step * i for i in range(t * s)]
    blocks = [[values[p] for p in blk] for blk in _position_blocks(t, s)]
    target = sum(values) // t

    # unconditional certificate: disjoint cover with one common sum
    if sorted(v for b in blocks for v in b) != values:
        raise InvariantError(f"{t}x{s} partition does not cover the AP")
    if any(sum(b) != target for b in blocks):
        raise InvariantError(f"{t}x{s} partition has unequal block sums")

    canonical = tuple(tuple(sorted(b, reverse=True)) for b in blocks)
    return EqualSumPartition(canonical, target)

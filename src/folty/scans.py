"""Sorted-list index primitives for the practical engine's forward scans.

All three functions map each entry of a sorted timestamp list ``l1`` to an
index into a second sorted list ``l2``. Misses are encoded as ``len(l2)``,
one past the last valid index, so callers test ``index < len(l2)``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence


def find_exceeding_entry_ls(l1: Sequence[int], l2: Sequence[int]) -> list[int]:
    """For each x in l1, index of the first entry of l2 that is >= x.

    Both lists must be sorted non-decreasing. Single merged forward scan,
    O(len(l1) + len(l2)). Misses map to len(l2).
    """
    n2 = len(l2)
    out = []
    j = 0
    for x in l1:
        while j < n2 and l2[j] < x:
            j += 1
        out.append(j)
    return out


def find_exceeding_entry_bs(l1: Sequence[int], l2: Sequence[int]) -> list[int]:
    """Binary-search variant of :func:`find_exceeding_entry_ls`.

    Same output contract (first entry >= x, non-strict), O(len(l1) log len(l2)).
    """
    return [bisect_left(l2, x) for x in l1]


def find_bounding_entry(l1: Sequence[int], l2: Sequence[int], y: int) -> list[int]:
    """For each x in l1, index of the last entry of l2 that is <= x + y.

    Both lists sorted non-decreasing, y >= 0. Misses (l2 entirely above the
    bound) map to len(l2). Two-pointer scan, O(len(l1) + len(l2)).
    """
    n2 = len(l2)
    out = []
    j = 0
    for x in l1:
        bound = x + y
        while j < n2 and l2[j] <= bound:
            j += 1
        # j is now the first index with l2[j] > bound
        out.append(j - 1 if j > 0 else n2)
    return out

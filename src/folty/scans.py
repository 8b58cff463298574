"""Sorted-list index primitive for the practical engine's forward scans.

It maps each entry of a sorted timestamp list ``l1`` to an index into a
second sorted list ``l2``. Misses are encoded as ``len(l2)``, one past the
last valid index, so callers test ``index < len(l2)``.
"""

from __future__ import annotations

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

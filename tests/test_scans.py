"""Scan-primitive contracts against a per-element reference scan."""

import random

from hypothesis import given, strategies as st

from folty.scans import find_exceeding_entry_ls


def naive_exceeding(l1, l2):
    out = []
    for x in l1:
        for j, y in enumerate(l2):
            if y >= x:
                out.append(j)
                break
        else:
            out.append(len(l2))
    return out


def test_exceeding_ls_examples():
    assert find_exceeding_entry_ls([1, 5, 9], [2, 3, 10]) == [0, 2, 2]
    assert find_exceeding_entry_ls([20], [2, 3, 10]) == [3]
    assert find_exceeding_entry_ls([5], [5]) == [0]


def test_random_corpus_matches_naive():
    rng = random.Random(20240817)
    for _ in range(10_000):
        l1 = sorted(rng.randint(0, 100) for _ in range(rng.randint(0, 64)))
        l2 = sorted(rng.randint(0, 100) for _ in range(rng.randint(0, 64)))
        assert find_exceeding_entry_ls(l1, l2) == naive_exceeding(l1, l2)


sorted_lists = st.lists(st.integers(min_value=-1000, max_value=1000), max_size=80).map(sorted)


@given(sorted_lists, sorted_lists)
def test_exceeding_outputs_monotone_nondecreasing(l1, l2):
    entries = find_exceeding_entry_ls(l1, l2)
    assert entries == sorted(entries)

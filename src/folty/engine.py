"""Per-edge triangle-closing counts split by a degeneracy orientation.

For a temporal edge e on static pair {x, y}, let s be the endpoint with the
smaller peeling rank. A common neighbor w of x and y closes a triangle with
e = (x, y, t) when there are edges (x, w, t2) and (y, w, t3) with
t <= t2 <= t3 <= t + delta. The counting is split into

  out_count[e]  closing neighbors w with rank(w) > rank(s), found by chained
                searches over the lists incident to s;
  in_count[e]   closing neighbors with rank(w) < rank(s), found by giving
                each entry of w's evidence its own disjoint range of t and
                counting the ranges that contain e's t.

Both passes walk the same list of static triangles (a, b, c) with
rank(a) < rank(b) < rank(c), enumerated once per ordering along the
degeneracy orientation and kept as the orientation entries (ab, ac, bc) of
their edges (DegeneracyOrdering.triangle_entries). The low vertex a is the
out-side witness for pairs {a,b} and {a,c}, and the in-side witness for
pair {b,c}. Either way only the lists of pairs that touch a are expanded
entry by entry.

Both passes are vectorized over the graph's CSR pair layout. A job names its
lists by pair id; every chained lookup is one np.searchsorted on the
composite key pair_id * R + t_rank (TemporalGraph.pair_comp). The pair ids
of x -> y and y -> x are gathered once per (graph, ordering) for every
entry x -> y, through the static edge it lies on (TemporalGraph.entry_pairs),
so a triangle's six directed pair ids are gathers by its entries.
count_tables lists the triangles, then builds that map, inside its
"triangles" lap. One generator (_expand)
serves both passes: it slices the entry columns BLOCK triangles at a time
into jobs and expands one list of each job (the out side's L1, the in
side's L2) in blocks of about BLOCK entries through _blocks and _entries,
which the triangle listing uses too; the graph layer's BLOCK, read at call
time, bounds the temporaries of both layers. _next_entry is the one chained
lookup: the out side calls it at most twice per entry, the in side once.
KEY_CAP bounds the hits or ranges collected before a fold credits them
(_capped). Window checks compare a later time minus an earlier one as an
unsigned 64-bit difference, read only where it is not negative, so
timestamps at the int64 extremes and any delta are exact.

The chains themselves do not depend on delta: only the window checks do,
and until the fold they use only the largest window. The first ones come
before any lookup and judge lists by each pair's first and last timestamp
alone (two gathers per count call): both sides' jobs have the same shape,
a credited list C, then L2 and L3, and a chain t <= t2 <= t3 <= t + d needs
each earlier list to start no later than each later one ends, and each later
one to start within d of each earlier one's end (_may_close). _expand
drops the jobs that fail this before it expands them, and the out side drops
each L1 entry that fails it, with the entry's time as C, before its first
lookup, which therefore always finds an entry. Since t3 >= t2, the out side
then cuts a chain whose L2 entry is already past the window after its first
lookup, before the second; the final check drops the chains that close
outside it. So one expansion serves every delta of a sweep (count_tables),
and one driver (_counts) folds either side's parts into its (window, edge)
table.
The out side buckets each hit's window t3 - t by the sorted windows and
adds a running sum over them at each fold. The in side keeps each range
once, as the parts of its bounds that no window changes and its t3; each
fold sorts the upper bounds once and cuts the lower bound per window. A
single delta is the one-window case.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import graph
from .graph import DegeneracyOrdering, StaticGraph, TemporalGraph, build_static, degeneracy_order
from .graph import _blocks, _entries

# The passes do not use the stabbing tree; the name stays importable from
# this module because the benchmark's tracer and its tests look it up here.
from .segtree import IntervalSegmentTree  # noqa: F401

#: Out-side hits (span, eid: 16 bytes each) or in-side ranges (floor, hi,
#: t3: 24 bytes each) collected before one fold credits them to the table.
KEY_CAP = 1 << 22

_SIGN = np.uint64(1 << 63)
_I64_MIN = np.int64(-(2**63))


class CountTable:
    """Per-edge closing-neighbor tallies for one delta.

    in_array, out_array and totals_array are int64 arrays indexed by edge
    id. in_count, out_count and totals() give the same as lists of Python
    ints, built on first use. The two columns must be 1-D and of equal
    length, else ValueError: numpy would broadcast them.
    """

    def __init__(self, in_count: Sequence[int], out_count: Sequence[int], delta: int):
        self.in_array = np.asarray(in_count, dtype=np.int64)
        self.out_array = np.asarray(out_count, dtype=np.int64)
        if self.in_array.ndim != 1 or self.in_array.shape != self.out_array.shape:
            raise ValueError(f"count columns must be 1-D, equally long: {self.in_array.shape}, {self.out_array.shape}")
        self.totals_array = self.in_array + self.out_array
        self.delta = delta
        self._pair_max: np.ndarray | None = None
        self._nonzero: tuple[np.ndarray, np.ndarray] | None = None

    def __repr__(self) -> str:
        return f"CountTable(in_count={self.in_count}, out_count={self.out_count}, delta={self.delta})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountTable):
            return NotImplemented
        return (
            self.delta == other.delta
            and np.array_equal(self.in_array, other.in_array)
            and np.array_equal(self.out_array, other.out_array)
        )

    __hash__ = None  # type: ignore[assignment]

    @cached_property
    def in_count(self) -> list[int]:
        return self.in_array.tolist()

    @cached_property
    def out_count(self) -> list[int]:
        return self.out_array.tolist()

    @cached_property
    def _totals(self) -> list[int]:
        return self.totals_array.tolist()

    def totals(self) -> list[int]:
        return self._totals

    def pair_max(self, g: TemporalGraph) -> np.ndarray:
        """The largest total over each directed pair's edges, in the pair
        order of g, the graph this table counts; built on first use."""
        if self._pair_max is None:
            self._pair_max = g.pair_max(self.totals_array)
        return self._pair_max

    def nonzero(self, g: TemporalGraph) -> tuple[np.ndarray, np.ndarray]:
        """The edges with a non-zero total, ascending, and their pair ids in
        g, the graph this table counts; built on first use."""
        if self._nonzero is None:
            self._nonzero = g.nonzero_edges(self.totals_array)
        return self._nonzero


def oriented_triangles(
    static: StaticGraph, ordering: DegeneracyOrdering
) -> Iterator[tuple[int, int, list[int]]]:
    """Yield (a, b, cs) with Python ints: for the oriented edge (a, b), every
    c that a and b both point to, ascending. Each static triangle appears
    exactly once, with rank(a) < rank(b) < rank(c) for every yielded c. A
    view over ordering.triangle_entries(); the passes read the entries
    directly."""
    ab, ac, _ = ordering.triangle_entries()
    heads = np.flatnonzero(np.diff(ab, prepend=-1))  # rows ascend by ab, the edge a -> b
    first = ab[heads]
    a = np.searchsorted(ordering.out_start, first, "right") - 1
    bounds = np.append(heads, len(ab)).tolist()
    cs = ordering.out_nbr[ac].tolist()
    for x, y, lo, hi in zip(a.tolist(), ordering.out_nbr[first].tolist(), bounds, bounds[1:]):
        yield x, y, cs[lo:hi]


def _window(g: TemporalGraph, delta: int) -> int:
    """The floor of delta clamped to the timestamp span: timestamps are
    integers, so the floor closes the same triangles, and so does every
    window larger than the span, which always fits in 64 bits unsigned."""
    if not delta >= 0:  # NaN too
        raise ValueError("delta must be >= 0")
    span = int(g.t_distinct[-1]) - int(g.t_distinct[0]) if g.m else 0
    return math.floor(min(delta, span))


def _windows(g: TemporalGraph, deltas: Iterable[int]) -> np.ndarray:
    """The distinct clamped windows of deltas, ascending, as uint64."""
    return np.array(sorted({_window(g, d) for d in deltas}), dtype=np.uint64)


def _minus(t: np.ndarray, d: np.uint64) -> np.ndarray:
    """t - d for int64 t and uint64 d, saturated at the int64 minimum."""
    u = t.view(np.uint64)
    return np.where(d > u ^ _SIGN, _I64_MIN, (u - d).view(np.int64))


def _expand(
    g: TemporalGraph,
    ordering: DegeneracyOrdering,
    lists: tuple[tuple[int, ...], ...],
    expanded: int,
    bounds: tuple[np.ndarray, np.ndarray],
    last: np.uint64,
) -> Iterator[tuple[np.ndarray, ...]]:
    """Yield (i, c, l2, l3): the entries i of the jobs' lists in row
    `expanded` of `lists`, about graph.BLOCK at a time, and per entry its
    job's credited pair c and pairs l2 and l3.

    Every triangle gives the same jobs, graph.BLOCK triangles at a time:
    the lists c, l2 and l3 of each are rows 0, 1 and 2 of `lists`, read as
    indices into the triangle's directed pairs (ab, ba, ac, ca, bc, cb).
    Each pair id is a gather from g.entry_pairs by the triangle's
    orientation entries. Jobs with an absent pair (-1) are dropped, and so
    are the jobs whose pairs' first and last times (`bounds`, each indexed
    by pair id) leave no room for a chain within the window `last`
    (_may_close).
    """
    fwd, bwd = g.entry_pairs(ordering)
    entries = ordering.triangle_entries()
    start, block = g.pair_start, graph.BLOCK
    for lo in range(0, len(entries[0]), block):
        ab, ac, bc = (column[lo : lo + block] for column in entries)
        jobs = np.stack((fwd[ab], bwd[ab], fwd[ac], bwd[ac], fwd[bc], bwd[bc]))[np.array(lists)].reshape(len(lists), -1)
        jobs = jobs.compress((jobs >= 0).all(axis=0), axis=1)
        jobs = jobs.compress(_may_close(jobs, bounds, last), axis=1)
        for rows in _blocks(start, jobs[expanded]):
            i, job = _entries(start, jobs[expanded, rows])
            yield (i, *jobs[:, rows].take(job, axis=1))


def _fits(f1: np.ndarray, l1: np.ndarray, f2: np.ndarray, l2: np.ndarray, last: np.uint64) -> np.ndarray:
    """Whether lists that start at f1 and f2 and end at l1 and l2 can hold
    t1 <= t2 <= t1 + last: the first starts no later than the second ends,
    and the second starts within last of the first's end. f2 - l1 is a
    uint64 difference, read only where f2 > l1, where it is exact."""
    return (f1 <= l2) & ((f2 <= l1) | (f2.view(np.uint64) - l1.view(np.uint64) <= last))


def _may_close(jobs: np.ndarray, bounds: tuple[np.ndarray, np.ndarray], last: np.uint64) -> np.ndarray:
    """Whether jobs whose lists C, L2 and L3 are the rows of `jobs` can hold
    a chain t <= t2 <= t3 <= t + last: each earlier list fits each later
    one (_fits), by the lists' first and last times (`bounds`). Since
    t3 - t2 <= t3 - t, one window serves all three pairs. The times are
    gathered one pair of lists at a time, so that no more than four rows of
    them are held at once."""
    first, final = bounds
    keep = np.ones(jobs.shape[1], dtype=bool)
    for early, late in ((0, 1), (0, 2), (1, 2)):
        x, y = jobs[early], jobs[late]
        keep &= _fits(first[x], final[x], first[y], final[y], last)
    return keep


def _next_entry(g: TemporalGraph, i: np.ndarray, qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """For entries i of pairs qa: the first entry of pair qb at or after
    each one's time. Where qb has none, the index is past qb's list (it is
    below g.pair_start[qb + 1] exactly when the entry exists): the next
    pair's first entry, or m when qb is the last pair, so a gather by it
    must be clamped."""
    return np.searchsorted(g.pair_comp, g.pair_comp[i] + (qb - qa) * len(g.t_distinct))


def _capped(parts: Iterable[tuple[np.ndarray, ...]]) -> Iterator[tuple[np.ndarray, ...]]:
    """The parts' columns, concatenated over runs of consecutive parts.
    A run ends before a part that would take it past KEY_CAP rows, so it
    holds at most KEY_CAP unless one part alone holds more. Empty runs are
    skipped."""
    run: list[tuple[np.ndarray, ...]] = []
    held = 0
    for part in parts:
        if held and held + len(part[0]) > KEY_CAP:
            yield tuple(map(np.concatenate, zip(*run)))
            run, held = [], 0
        run.append(part)
        held += len(part[0])
    if held:
        yield tuple(map(np.concatenate, zip(*run)))


def out_pass(
    g: TemporalGraph,
    static: StaticGraph,
    ordering: DegeneracyOrdering,
    delta: int,
) -> np.ndarray:
    """out_count[e] for every edge, as an int64 array: closing neighbors on
    the source's out side. The one-window case of count_tables."""
    return _counts(g, ordering, _windows(g, [delta]), _out_hits, _fold)[0]


def _counts(
    g: TemporalGraph, ordering: DegeneracyOrdering, windows: np.ndarray, parts: Callable, fold: Callable
) -> np.ndarray:
    """One side's counts for each of one or more ascending uint64 windows,
    as an int64 array of shape (len(windows), m): the parts that side
    collects within the last window (_out_hits or _in_ranges), given each
    pair's first and last timestamp, folded into the table at most KEY_CAP
    at a time (_capped) by fold(table, g, windows, *part) (_fold or
    _fold_ranges)."""
    table = np.zeros((len(windows), g.m), dtype=np.int64)
    bounds = g.pair_ts[g.pair_start[:-1]], g.pair_ts[g.pair_start[1:] - 1]
    for part in _capped(parts(g, ordering, bounds, windows[-1])):
        fold(table, g, windows, *part)
    return table


def _out_hits(
    g: TemporalGraph, ordering: DegeneracyOrdering, bounds: tuple[np.ndarray, np.ndarray], last: np.uint64
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(span, eid) per block: the out side's hits within the window `last`.

    Each triangle (a, b, c) gives four (L1, L2, L3) jobs: pair {a, b} with
    witness c as (E_ab, E_ac, E_bc) and (E_ba, E_bc, E_ac), and pair {a, c}
    with witness b as (E_ac, E_ab, E_cb) and (E_ca, E_cb, E_ab). An L1 edge at
    t is credited iff the first L2 entry at or after t, then the first L3
    entry at or after that, exist and the latter is within the window of t.
    L1 is the credited list, so _expand drops the jobs whose lists cannot
    close within `last`, and each L1 entry at t is dropped before the first
    lookup unless t fits L2 and L3 by their first and last times
    (_fits). The kept entries have t <= the last time of L2, so their first
    lookup always finds an entry. Since t3 >= t2, a chain whose L2 entry is
    past `last` cannot close, so it is cut before the second lookup. No
    other step depends on the window, so each hit is collected once, with
    its span t3 - t.
    """
    first, final = bounds
    ts, top = g.pair_ts.view(np.uint64), g.m - 1
    for i, q1, q2, q3 in _expand(g, ordering, ((0, 1, 2, 3), (2, 4, 0, 5), (4, 2, 5, 0)), 0, bounds, last):
        t = g.pair_ts[i]
        keep = np.flatnonzero(_fits(t, t, first[q2], final[q2], last) & _fits(t, t, first[q3], final[q3], last))
        i, q1, q2, q3, t = (a.take(keep) for a in (i, q1, q2, q3, t.view(np.uint64)))
        j = _next_entry(g, i, q1, q2)
        keep = np.flatnonzero(ts[j] - t <= last)
        i, j, q2, q3, t = (a.take(keep) for a in (i, j, q2, q3, t))
        k = _next_entry(g, j, q2, q3)
        span = ts[np.minimum(k, top)] - t
        keep = np.flatnonzero((k < g.pair_start[q3 + 1]) & (span <= last))
        yield span.take(keep), g.pair_eid.take(i.take(keep))


def _fold(table: np.ndarray, g: TemporalGraph, windows: np.ndarray, span: np.ndarray, eid: np.ndarray) -> None:
    """Credit each hit to every window that admits its span (no span
    exceeds the last): one bincount counts it at the first such window,
    and a running sum over the windows carries it to every larger one.
    eid is a fresh array, reused as the key."""
    nw, m = table.shape
    if nw > 1:
        eid += np.searchsorted(windows[:-1], span) * m
    counts = np.bincount(eid, minlength=table.size).reshape(nw, m)
    for row in range(1, nw):  # row-wise: a cumsum along axis 0 runs m short loops
        counts[row] += counts[row - 1]
    table += counts


def in_pass(
    g: TemporalGraph,
    static: StaticGraph,
    ordering: DegeneracyOrdering,
    delta: int,
) -> np.ndarray:
    """in_count[e] for every edge, as an int64 array: closing neighbors on
    the source's in side. The one-window case of count_tables."""
    return _counts(g, ordering, _windows(g, [delta]), _in_ranges, _fold_ranges)[0]


def _in_ranges(
    g: TemporalGraph, ordering: DegeneracyOrdering, bounds: tuple[np.ndarray, np.ndarray], last: np.uint64
) -> Iterator[tuple[np.ndarray, ...]]:
    """(floor, hi, t3) per block: the in side's ranges that the window
    `last` does not empty.

    Each triangle (a, b, c) gives the target pair (b, c) the witness a, with
    L2 = E_ba and L3 = E_ca, and the target (c, b) the same with the lists
    swapped. The target pair is the credited list, so _expand drops the
    jobs whose lists cannot close within `last`. The first L3 entry at or
    after an L2 entry f, at t3, gets no earlier as f moves later. So a
    target edge at t has the witness iff the first f at or after t, the one
    with t(prev f) < t <= t(f), has t3 - d <= t: each f credits its own
    range of target times, (t(prev f), t(f)] cut below at t3 - d. One job's
    ranges are disjoint, and an f at the time of the entry before it in L2
    has an empty one.

    A range is [lo, hi) in the key space of pair_comp, offset to the target
    pair: hi is the key of f plus one, and lo the larger of floor (the key
    of prev f plus one, or the target pair's first key for L2's head) and
    the key of the first timestamp at or after t3 - d. Only lo depends on
    the window, so each range is kept once, as (floor, hi, t3).
    """
    r = len(g.t_distinct)
    comp, start, ts, top = g.pair_comp, g.pair_start, g.pair_ts.view(np.uint64), g.m - 1
    for i, pt, q2, q3 in _expand(g, ordering, ((4, 5), (1, 3), (3, 1)), 1, bounds, last):
        k = _next_entry(g, i, q2, q3)
        t3 = ts[np.minimum(k, top)]
        head = i == start[q2]
        # An entry at the time of the one before it has an empty range.
        keep = np.flatnonzero((k < start[q3 + 1]) & (head | (comp[i - 1] != comp[i])) & (t3 - ts[i] <= last))
        i, t3, head, q2, base = i.take(keep), t3.take(keep), head.take(keep), q2.take(keep), pt.take(keep) * r
        shift = base - q2 * r + 1
        yield np.where(head, base, comp[i - 1] + shift), comp[i] + shift, t3.view(np.int64)


def _fold_ranges(
    table: np.ndarray, g: TemporalGraph, windows: np.ndarray, floor: np.ndarray, hi: np.ndarray, t3: np.ndarray
) -> None:
    """Credit each entry of the target pairs that the ranges touch, per
    window, with the number of ranges [lo, hi) that hold its key q:
    #(lo <= q) - #(hi <= q), to which a range of another pair, or one the
    window empties (lo = hi), adds 0. The hi keys are sorted and looked up
    once; each window cuts its own lo."""
    r = len(g.t_distinct)
    pair = floor // r
    pairs = np.sort(pair)
    e, _ = _entries(g.pair_start, pairs[np.diff(pairs, prepend=-1) != 0])
    q, rows = g.pair_comp[e], g.pair_eid[e]
    below = np.searchsorted(np.sort(hi), q, "right")
    base = pair * r
    times, at = np.unique(t3, return_inverse=True)  # each distinct t3 is cut once per window
    for row, d in zip(table, windows):
        lo = np.minimum(np.maximum(floor, base + np.searchsorted(g.t_distinct, _minus(times, d))[at]), hi)
        lo.sort()
        row[rows] += np.searchsorted(lo, q, "right") - below


def count_tables(
    g: TemporalGraph,
    deltas: Sequence[int],
    static: StaticGraph | None = None,
    ordering: DegeneracyOrdering | None = None,
    lap: Callable[[str], object] | None = None,
) -> list[CountTable]:
    """One count table per delta, in the order given, from one expansion.

    Deltas may repeat and come in any order; deltas that clamp to the same
    window share one table's arrays. `lap`, if given, is called once each
    with "triangles", "out_pass" and "in_pass" as each phase ends; the
    triangle listing and the entry-to-pair map are built in the first.
    """
    deltas = list(deltas)
    if not deltas:
        return []
    windows = _windows(g, deltas)
    if ordering is None:
        ordering = degeneracy_order(build_static(g) if static is None else static)
    lap = lap or (lambda phase: None)
    ordering.triangle_entries()
    g.entry_pairs(ordering)
    lap("triangles")
    outs = _counts(g, ordering, windows, _out_hits, _fold)
    lap("out_pass")
    ins = _counts(g, ordering, windows, _in_ranges, _fold_ranges)
    lap("in_pass")
    picks = np.searchsorted(windows, np.array([_window(g, delta) for delta in deltas], dtype=np.uint64))
    return [CountTable(ins[j], outs[j], delta) for delta, j in zip(deltas, picks)]


def compute_counts(
    g: TemporalGraph,
    delta: int,
    static: StaticGraph | None = None,
    ordering: DegeneracyOrdering | None = None,
    threads: int = 1,
) -> CountTable:
    """Run both passes and return the per-edge count table: the one-delta
    case of count_tables.

    `threads` is accepted for interface stability; execution is
    single-threaded, so results are identical for every value.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    return count_tables(g, [delta], static, ordering)[0]

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
of x -> y and y -> x are found once per (graph, ordering) for each entry
x -> y that a triangle uses (TemporalGraph.entry_pairs), so a triangle's
six directed pair ids are gathers by its entries. The passes slice the
entry columns TRIANGLE_BLOCK triangles at a time into jobs, and jobs run in
blocks of about BLOCK expanded entries, so temporaries stay small. The
block expansion is the graph layer's _blocks and _entries, which its
triangle listing uses too. Window checks compare t3 - t as an unsigned
64-bit difference, so timestamps at the int64 extremes and any delta are
exact.

The chains themselves do not depend on delta: only the final window check
does. So one expansion serves every delta of a sweep (count_tables). The out
side buckets each hit's window t3 - t by the sorted windows and takes a
cumulative sum over them; the in side finds its chains once per block and
builds the ranges per window. A single delta is the one-window case.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .graph import DegeneracyOrdering, StaticGraph, TemporalGraph, build_static, degeneracy_order
from .graph import _blocks, _entries

# The passes do not use the stabbing tree; the name stays importable from
# this module because the benchmark's tracer and its tests look it up here.
from .segtree import IntervalSegmentTree  # noqa: F401

#: Triangles turned into jobs at a time.
TRIANGLE_BLOCK = 2048
#: Expanded list entries per vectorized block (a block may exceed it by the
#: size of its last list, since one list is never split).
BLOCK = 8192
#: Out-side hits or in-side ranges (16 bytes each) collected before one fold
#: credits them to the count table, and the most table cells (m per window,
#: 8 bytes each) one expansion fills: more windows than KEY_CAP // m run as
#: separate expansions of at most that many.
KEY_CAP = 1 << 22

_SIGN = np.uint64(1 << 63)
_I64_MIN = np.int64(-(2**63))


class CountTable:
    """Per-edge closing-neighbor tallies for one delta.

    in_array, out_array and totals_array are int64 arrays indexed by edge
    id. in_count, out_count and totals() give the same as lists of Python
    ints, built on first use.
    """

    __slots__ = ("in_array", "out_array", "totals_array", "delta", "_lists", "_pair_max")

    def __init__(self, in_count: Sequence[int], out_count: Sequence[int], delta: int):
        self.in_array = np.asarray(in_count, dtype=np.int64)
        self.out_array = np.asarray(out_count, dtype=np.int64)
        self.totals_array = self.in_array + self.out_array
        self.delta = delta
        self._lists: dict[str, list[int]] = {}
        self._pair_max: np.ndarray | None = None

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

    def _list(self, name: str) -> list[int]:
        if name not in self._lists:
            self._lists[name] = getattr(self, name).tolist()
        return self._lists[name]

    @property
    def in_count(self) -> list[int]:
        return self._list("in_array")

    @property
    def out_count(self) -> list[int]:
        return self._list("out_array")

    def totals(self) -> list[int]:
        return self._list("totals_array")

    def pair_max(self, g: TemporalGraph) -> np.ndarray:
        """The largest total over each directed pair's edges, in the pair
        order of g, the graph this table counts; built on first use."""
        if self._pair_max is None:
            self._pair_max = g.pair_max(self.totals_array)
        return self._pair_max


def oriented_triangles(
    static: StaticGraph, ordering: DegeneracyOrdering
) -> Iterator[tuple[int, int, list[int]]]:
    """Yield (a, b, cs) with Python ints: for the oriented edge (a, b), every
    c in out_adj[a] & out_adj[b], ascending. Each static triangle appears
    exactly once, with rank(a) < rank(b) < rank(c) for every yielded c. A
    view over ordering.triangles(); the passes read the arrays directly."""
    a, b, c = ordering.triangles()
    heads = np.flatnonzero((np.diff(a, prepend=-1) != 0) | (np.diff(b, prepend=-1) != 0))
    bounds = np.append(heads, len(c)).tolist()
    cs = c.tolist()
    for x, y, lo, hi in zip(a[heads].tolist(), b[heads].tolist(), bounds, bounds[1:]):
        yield x, y, cs[lo:hi]


def _window(g: TemporalGraph, delta: int) -> int:
    """delta clamped to the timestamp span: every larger window closes the
    same triangles, and the span always fits in 64 bits unsigned."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    span = int(g.t_distinct[-1]) - int(g.t_distinct[0]) if g.m else 0
    return min(delta, span)


def _windows(g: TemporalGraph, deltas: Iterable[int]) -> np.ndarray:
    """The distinct clamped windows of deltas, ascending, as uint64."""
    return np.array(sorted({_window(g, d) for d in deltas}), dtype=np.uint64)


def _minus(t: np.ndarray, d: np.uint64) -> np.ndarray:
    """t - d for int64 t and uint64 d, saturated at the int64 minimum."""
    u = t.view(np.uint64)
    return np.where(d > u ^ _SIGN, _I64_MIN, (u - d).view(np.int64))


def _triangle_blocks(g: TemporalGraph, ordering: DegeneracyOrdering) -> Iterator[tuple[np.ndarray, ...]]:
    """The pair ids of each triangle's directed pairs (ab, ba, ac, ca, bc,
    cb), -1 where a pair has no edge, TRIANGLE_BLOCK triangles at a time.
    Each column is a gather from g.entry_pairs by the triangles' orientation
    entries."""
    fwd, bwd = g.entry_pairs(ordering)
    entries = ordering.triangle_entries()
    for lo in range(0, len(entries[0]), TRIANGLE_BLOCK):
        ab, ac, bc = (column[lo : lo + TRIANGLE_BLOCK] for column in entries)
        yield fwd[ab], bwd[ab], fwd[ac], bwd[ac], fwd[bc], bwd[bc]


def out_pass(
    g: TemporalGraph,
    static: StaticGraph,
    ordering: DegeneracyOrdering,
    delta: int,
) -> np.ndarray:
    """out_count[e] for every edge, as an int64 array: closing neighbors on
    the source's out side. The one-window case of _out_counts."""
    return _out_counts(g, ordering, _windows(g, [delta]))[0]


def _out_counts(g: TemporalGraph, ordering: DegeneracyOrdering, windows: np.ndarray) -> np.ndarray:
    """out_count for each of one or more ascending uint64 windows, as an
    int64 array of shape (len(windows), m).

    Each triangle (a, b, c) gives four (L1, L2, L3) jobs: pair {a, b} with
    witness c as (E_ab, E_ac, E_bc) and (E_ba, E_bc, E_ac), and pair {a, c}
    with witness b as (E_ac, E_ab, E_cb) and (E_ca, E_cb, E_ab). An L1 edge at
    t is credited iff the first L2 entry at or after t, then the first L3
    entry at or after that, exist and the latter is within the window of t.
    The chain does not depend on the window, so each hit is collected once
    with its span t3 - t and counted under the first window that admits it
    (_fold); a cumulative sum over the windows then credits it to that
    window and every larger one.
    """
    nw, m = len(windows), g.m
    table = np.zeros(nw * m, dtype=np.int64)
    spans: list[np.ndarray] = []
    eids: list[np.ndarray] = []
    pending = 0
    r = len(g.t_distinct)
    comp, start, ts = g.pair_comp, g.pair_start, g.pair_ts
    for ab, ba, ac, ca, bc, cb in _triangle_blocks(g, ordering):
        p1 = np.concatenate((ab, ba, ac, ca))
        p2 = np.concatenate((ac, bc, ab, cb))
        p3 = np.concatenate((bc, ac, cb, ab))
        keep = (p1 >= 0) & (p2 >= 0) & (p3 >= 0)
        p1, p2, p3 = p1[keep], p2[keep], p3[keep]
        for block in _blocks(start, p1, BLOCK):
            i, job = _entries(start, p1[block])
            q1, q2, q3 = p1[block][job], p2[block][job], p3[block][job]
            j = np.searchsorted(comp, comp[i] + (q2 - q1) * r)
            hit = j < start[q2 + 1]
            i, j, q2, q3 = i[hit], j[hit], q2[hit], q3[hit]
            k = np.searchsorted(comp, comp[j] + (q3 - q2) * r)
            hit = k < start[q3 + 1]
            i, k = i[hit], k[hit]
            span = ts[k].view(np.uint64) - ts[i].view(np.uint64)
            hit = span <= windows[-1]
            spans.append(span[hit])
            eids.append(g.pair_eid[i[hit]])
            pending += len(spans[-1])
            if pending >= KEY_CAP:
                _fold(table, windows, spans, eids)
                pending = 0
    _fold(table, windows, spans, eids)
    counts = table.reshape(nw, m)
    for row in range(1, nw):  # row-wise: a cumsum along axis 0 runs m short loops
        counts[row] += counts[row - 1]
    return counts


def _fold(table: np.ndarray, windows: np.ndarray, spans: list[np.ndarray], eids: list[np.ndarray]) -> None:
    """Count the collected hits into the flat (window, edge) table, each at
    the first window that admits its span (no span exceeds the last), with
    one bincount; then clear them."""
    if eids:
        key = np.concatenate(eids)
        if len(windows) > 1:
            key += np.searchsorted(windows[:-1], np.concatenate(spans)) * (len(table) // len(windows))
        table += np.bincount(key, minlength=len(table))
        spans.clear()
        eids.clear()


def in_pass(
    g: TemporalGraph,
    static: StaticGraph,
    ordering: DegeneracyOrdering,
    delta: int,
) -> np.ndarray:
    """in_count[e] for every edge, as an int64 array: closing neighbors on
    the source's in side. The one-window case of _in_counts."""
    return _in_counts(g, ordering, _windows(g, [delta]))[0]


def _in_counts(g: TemporalGraph, ordering: DegeneracyOrdering, windows: np.ndarray) -> np.ndarray:
    """in_count for each of one or more ascending uint64 windows, as an
    int64 array of shape (len(windows), m).

    Each triangle (a, b, c) gives the target pair (b, c) the witness a, with
    L2 = E_ba and L3 = E_ca, and the target (c, b) the same with the lists
    swapped. The first L3 entry at or after an L2 entry f, at t3, gets no
    earlier as f moves later. So a target edge at t has the witness iff the
    first f at or after t, the one with t(prev f) < t <= t(f), has
    t3 - d <= t: each f credits its own range of target times, (t(prev f),
    t(f)] cut below at t3 - d. One job's ranges are disjoint, and an f at
    the time of the entry before it in L2 has an empty one.

    A range is [lo, hi) in the key space of pair_comp, offset to the target
    pair: hi is the key of f plus one, lo the larger of rank(prev f) + 1 and
    the rank of the first timestamp at or after t3 - d. The chains (f, t3)
    do not depend on the window; the ranges are built per window, largest
    first, since each smaller window keeps a subset of them. _fold_ranges
    credits them to the target edges.
    """
    in_count = np.zeros((len(windows), g.m), dtype=np.int64)
    los: list[list[np.ndarray]] = [[] for _ in windows]
    his: list[list[np.ndarray]] = [[] for _ in windows]
    pending = 0
    r = len(g.t_distinct)
    comp, start, ts = g.pair_comp, g.pair_start, g.pair_ts
    for _, ba, _, ca, bc, cb in _triangle_blocks(g, ordering):
        pt = np.concatenate((bc, cb))
        p2 = np.concatenate((ba, ca))
        p3 = np.concatenate((ca, ba))
        keep = (pt >= 0) & (p2 >= 0) & (p3 >= 0)
        pt, p2, p3 = pt[keep], p2[keep], p3[keep]
        for block in _blocks(start, p2, BLOCK):
            i, job = _entries(start, p2[block])
            q2, q3 = p2[block][job], p3[block][job]
            k = np.searchsorted(comp, comp[i] + (q3 - q2) * r)
            head = i == start[q2]
            # An entry at the time of the one before it has an empty range.
            hit = (k < start[q3 + 1]) & (head | (comp[i - 1] != comp[i]))
            i, k, job, head, q2 = i[hit], k[hit], job[hit], head[hit], q2[hit]
            span = ts[k].view(np.uint64) - ts[i].view(np.uint64)
            hit = span <= windows[-1]
            i, t3, job, head, q2, span = i[hit], ts[k[hit]], job[hit], head[hit], q2[hit], span[hit]
            base = pt[block][job] * r
            hi = comp[i] - q2 * r + base + 1
            floor = np.where(head, base, comp[i - 1] - q2 * r + base + 1)
            # Largest window first: each smaller one keeps a subset.
            for j in range(len(windows) - 1, -1, -1):
                los[j].append(np.maximum(floor, base + np.searchsorted(g.t_distinct, _minus(t3, windows[j]))))
                his[j].append(hi)
                pending += len(hi)
                if j:
                    sel = span <= windows[j - 1]
                    t3, span, hi, floor, base = t3[sel], span[sel], hi[sel], floor[sel], base[sel]
            if pending >= KEY_CAP:
                _fold_ranges(in_count, g, los, his)
                pending = 0
    if pending:
        _fold_ranges(in_count, g, los, his)
    return in_count


def _fold_ranges(
    in_count: np.ndarray, g: TemporalGraph, los: list[list[np.ndarray]], his: list[list[np.ndarray]]
) -> None:
    """Credit each entry of the target pairs that the collected ranges
    touch, per window, with the number of ranges [lo, hi) that hold its key
    q: #(lo <= q) - #(hi <= q), to which a range of another pair adds 0.
    Then clear the ranges."""
    r = len(g.t_distinct)
    pairs = np.sort(np.concatenate(los[-1]) // r)  # the largest window touches every pair
    e, _ = _entries(g.pair_start, pairs[np.diff(pairs, prepend=-1) != 0])
    q, rows = g.pair_comp[e], g.pair_eid[e]
    for row, lo, hi in zip(in_count, los, his):
        if lo:
            lo_keys, hi_keys = np.sort(np.concatenate(lo)), np.sort(np.concatenate(hi))
            row[rows] += np.searchsorted(lo_keys, q, "right") - np.searchsorted(hi_keys, q, "right")
        lo.clear()
        hi.clear()


def count_tables(
    g: TemporalGraph,
    deltas: Sequence[int],
    static: StaticGraph | None = None,
    ordering: DegeneracyOrdering | None = None,
    lap: Callable[[str], object] | None = None,
) -> list[CountTable]:
    """One count table per delta, in the order given, from one expansion.

    Deltas may repeat and come in any order; deltas that clamp to the same
    window share one table's arrays. When m times the number of windows
    exceeds KEY_CAP, the windows run in groups, one expansion per group.
    `lap`, if given, is called with "triangles", "out_pass" and "in_pass"
    as each phase ends (the last two once per group).
    """
    deltas = list(deltas)
    windows = _windows(g, deltas)
    if static is None:
        static = build_static(g)
    if ordering is None:
        ordering = degeneracy_order(static)
    lap = lap or (lambda phase: None)
    g.entry_pairs(ordering)
    lap("triangles")
    group = max(1, KEY_CAP // max(g.m, 1))
    outs: list[np.ndarray] = []
    ins: list[np.ndarray] = []
    for lo in range(0, len(windows), group):
        outs.extend(_out_counts(g, ordering, windows[lo : lo + group]))
        lap("out_pass")
        ins.extend(_in_counts(g, ordering, windows[lo : lo + group]))
        lap("in_pass")
    column = {int(w): j for j, w in enumerate(windows)}
    picks = [column[_window(g, delta)] for delta in deltas]
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

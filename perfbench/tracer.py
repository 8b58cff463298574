"""In-memory spans and counters, attached to folty from the outside.

The tracer wraps the functions each layer exposes, at the names its callers
look them up (``folty.cli.parse_edge_list``, ``folty.engine.out_pass``, ...),
and restores them afterwards; no folty source changes. Spans go only at
boundaries crossed a bounded number of times per operation. Calls made once
per element (scans, segment-tree operations, ``common_of``) get counters only,
because a timed span on each of them would dominate what it measures.

A span is ``[name, parent, start, end, busy]``. ``busy`` equals
``end - start`` except for iteration spans, which accumulate only the time
spent inside the wrapped iterator. A span's self time is its busy time minus
the busy time of its children; spans are strictly nested (one thread), so
children never overlap.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

NAME, PARENT, START, END, BUSY = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._cells: list[tuple[tuple[str, ...], list[int]]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.clock(), None, 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[END] = self.clock()
        span[BUSY] = span[END] - span[START]
        self._stack.pop()

    def span(self, name: str, fn):
        """`fn` wrapped so each call records one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def iter_span(self, name: str, fn):
        """`fn` (returning an iterator) wrapped so the time spent producing
        items, not just the call, lands in one span per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            idx = None
            while True:
                if idx is None:
                    idx = self._open(name)
                    start = self.spans[idx][START]
                else:
                    self._stack.append(idx)
                    start = self.clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    end = self.clock()
                    self.spans[idx][END] = end
                    self.spans[idx][BUSY] += end - start
                    self._stack.pop()
                yield item

        return wrapper

    def cell(self, *names: str) -> list[int]:
        """A list of counters, one per name, that wrappers bump by index
        (cheaper than keyed updates on per-element calls); see `counts`."""
        cell = [0] * len(names)
        self._cells.append((names, cell))
        return cell

    def counts(self) -> Counter:
        merged: Counter = Counter()
        for names, cell in self._cells:
            for name, value in zip(names, cell):
                merged[name] += value
        return merged

    # -- patching --------------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``; skipped when absent."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_busy = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_busy[span[PARENT]] += span[BUSY]
        out: dict[str, float] = defaultdict(float)
        for span, covered in zip(self.spans, child_busy):
            out[span[NAME]] += span[BUSY] - covered
        return dict(out)

    def busy(self) -> dict[str, float]:
        """Summed busy time (self plus children) per span name."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[NAME]] += span[BUSY]
        return dict(out)

    def records(self) -> list[dict]:
        return [
            {"name": s[NAME], "parent": s[PARENT], "start": s[START], "end": s[END], "busy": s[BUSY]}
            for s in self.spans
        ]


def install_folty(tracer: Tracer) -> None:
    """Attach the benchmark's spans and counters to the folty modules."""
    from folty import cli, engine, graph, queries

    for attr, name in (
        ("parse_edge_list", "graph.parse"),
        ("build_static", "graph.build_static"),
        ("degeneracy_order", "graph.degeneracy_order"),
        ("graph_stats", "graph.graph_stats"),
        ("run_query", "cli.run"),
        ("run_sweep", "cli.run"),
    ):
        tracer.patch(cli, attr, functools.partial(tracer.span, name))

    cells = tracer.cell("queries.threshold_calls", "queries.solutions")

    def threshold(name):
        def make(fn):
            timed = tracer.span(name, fn)

            def wrapper(*args, **kwargs):
                solset = timed(*args, **kwargs)
                cells[0] += 1
                cells[1] += solset.total
                return solset

            return functools.wraps(fn)(wrapper)

        return make

    for kind in ("eea", "eae", "eaa"):
        tracer.patch(cli, f"eval_{kind}", threshold(f"queries.eval_{kind}"))
    # eval_eaa reaches eval_eea through the queries module.
    tracer.patch(queries, "eval_eea", functools.partial(tracer.span, "queries.eval_eea"))

    tracer.patch(engine, "oriented_triangles", functools.partial(tracer.iter_span, "engine.triangles"))
    tracer.patch(engine, "out_pass", functools.partial(tracer.span, "engine.out_pass"))
    tracer.patch(engine, "in_pass", functools.partial(tracer.span, "engine.in_pass"))

    scans = tracer.cell("scans.calls", "scans.entries")

    def count_scan(fn):
        @functools.wraps(fn)
        def wrapper(l1, l2, *rest):
            scans[0] += 1
            scans[1] += len(l1) + len(l2)
            return fn(l1, l2, *rest)

        return wrapper

    for attr in ("find_exceeding_entry_ls", "find_exceeding_entry_bs", "find_bounding_entry"):
        tracer.patch(engine, attr, count_scan)
    tracer.patch(engine, "IntervalSegmentTree", lambda cls: _counting_tree(cls, tracer))

    common = tracer.cell("queries.common_of_calls")

    def count_common(fn):
        @functools.wraps(fn)
        def wrapper(self, u, v):
            common[0] += 1
            return fn(self, u, v)

        return wrapper

    tracer.patch(graph.StaticGraph, "common_of", count_common)
    tracer.patch(graph.StaticGraph, "common_counts", lambda fn: _first_call_span(tracer, fn))


def _first_call_span(tracer: Tracer, fn):
    """Span only the first call per object: the one that builds the table."""
    seen: set[int] = set()
    timed = tracer.span("graph.common_counts", fn)

    @functools.wraps(fn)
    def wrapper(self):
        if id(self) in seen:
            return fn(self)
        seen.add(id(self))
        return timed(self)

    return wrapper


def _counting_tree(base: type, tracer: Tracer) -> type:
    cell = tracer.cell("segtree.trees", "segtree.inserts", "segtree.lookups", "segtree.visits")

    class CountingTree(base):
        __slots__ = ()

        def __init__(self, timestamps):
            super().__init__(timestamps)
            cell[0] += 1

        def insert_list(self, intervals, vertex):
            before = self.visits
            super().insert_list(intervals, vertex)
            cell[1] += 1
            cell[3] += self.visits - before

        def lookup(self, t):
            before = self.visits
            result = super().lookup(t)
            cell[2] += 1
            cell[3] += self.visits - before
            return result

    CountingTree.__name__ = base.__name__
    return CountingTree

"""Thresholded query evaluation over per-edge count tables.

Three query kinds share one counting core:

  eea  enumerate certificate edges (u, v, t) whose closing-neighbor count
       reaches a tau fraction of the universe (the destination's
       neighborhood, or the endpoints' common neighborhood);
  eae  vertices u for which a tau fraction of neighbors v admit some edge
       (u, v, t) with at least one closing neighbor;
  eaa  vertices u for which a tau1 fraction of neighbors v admit some
       certificate edge at level tau2.

Thresholds are array masks over the graph's CSR pair layout. One universe
size per directed pair (x, y), degree[y] or the common count of static edge
{x, y}, gives each edge the least count max(1, ceil(tau * size)) it needs to
certify; the least counts are int64 array arithmetic when tau's numerator
times the largest size and its denominator fit int64, and come from a table
built in Python integers otherwise, so any Fraction tau stays exact. An edge
only certifies if it has at least one closing neighbor, so empty universes
never satisfy the quantifier vacuously, and eea thresholds only the edges
with a non-zero total: found with their pair ids once per count table
(CountTable.nonzero). Every eval_* reads its counts as a CountTable of one
entry per edge (as_table), so per-edge totals from the practical or oracle
engine build this state once per table too.

eae and eaa share one vertex path, built from state that no tau changes: the
common-neighbor universe sizes, once per graph (TemporalGraph.pair_common),
and each pair's largest total, once per count table (CountTable.pair_max).
Since a pair's edges share one universe size, some edge of the pair
certifies iff its largest total does. So a cell costs one least-count table,
one compare over pairs, one bincount of the hit pairs' sources and one
compare over vertices. eae takes the pairs whose largest total is >= 1, and
eaa those that reach the tau2 least count.

An answer (SolutionSet) is kept as the columns these masks select: int64
arrays, with dense vertex ids that the graph's orig maps to original ids
when read. Its total is the length of a column. The Certificate or
VertexSolution rows are built only when `solutions` is first read, so a
sweep, which reads totals, and the CLI's writers, which format the columns,
build none.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .engine import CountTable, _window
from .graph import StaticGraph, TemporalGraph

_I64_MAX = 2**63 - 1


class ParameterError(ValueError):
    """Invalid query parameter (threshold, kind, or universe)."""


class Universe(Enum):
    DST = "dst"
    COMMON = "common"


class Certificate(NamedTuple):
    src: int
    dst: int
    t: int
    count: int
    universe_size: int


class VertexSolution(NamedTuple):
    vertex: int
    satisfied: int
    degree: int


class SolutionSet:
    """Query answer: certificate edges for eea, vertices for eae/eaa.

    Certificates come out sorted by (t, eid); vertices ascending by original
    id. The eval_* functions hold the answer as columns, one int64 array per
    field of the row type (Certificate or VertexSolution), whose vertex
    columns hold dense ids that the graph's orig maps to original ids.
    SolutionSet(kind, solutions, total), as the oracle calls it, holds a
    list of rows instead. `total` always equals len(solutions) and reading
    it builds nothing; `solutions`, the list of rows, is built on first
    read.
    """

    def __init__(self, kind: str, solutions: list | None, total: int):
        self.kind = kind
        self.total = total
        if solutions is not None:
            self.solutions = solutions
        self._columns: tuple[np.ndarray, ...] = ()
        self._orig: list[int] = []

    @classmethod
    def _from_columns(cls, kind: str, columns: tuple[np.ndarray, ...], orig: list[int]) -> SolutionSet:
        solset = cls(kind, None, len(columns[0]))
        solset._columns = columns
        solset._orig = orig
        return solset

    @property
    def row(self) -> type:
        """The row type: Certificate for eea, VertexSolution otherwise."""
        return Certificate if self.kind == "eea" else VertexSolution

    def columns(self) -> list[list[int]]:
        """One list of Python ints per field of the row type, with original
        vertex ids; built without building the rows."""
        if not self._columns:
            return [list(column) for column in zip(*self.solutions)] or [[] for _ in self.row._fields]
        ids = 2 if self.kind == "eea" else 1  # src and dst, or vertex
        orig = self._orig.__getitem__
        return [list(map(orig, c.tolist())) if i < ids else c.tolist() for i, c in enumerate(self._columns)]

    @cached_property
    def solutions(self) -> list:
        row = self.row
        return [row(*values) for values in zip(*self.columns())]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SolutionSet):
            return NotImplemented
        return (self.kind, self.total, self.solutions) == (other.kind, other.total, other.solutions)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SolutionSet(kind={self.kind!r}, solutions={self.solutions!r}, total={self.total})"


@dataclass(frozen=True)
class QuerySpec:
    """A fully-bound query: kind, window, thresholds, universe."""

    kind: str
    delta: int
    tau: Fraction
    tau2: Fraction | None = None
    universe: Universe = Universe.DST

    def __post_init__(self):
        object.__setattr__(self, "kind", validate_kind(self.kind))
        object.__setattr__(self, "universe", _universe(self.universe))
        _check_tau(self.tau)
        if self.kind == "eaa":
            if self.tau2 is None:
                raise ParameterError("eaa requires both tau1 and tau2")
            _check_tau(self.tau2)
        if not self.delta >= 0:  # NaN too
            raise ParameterError("delta must be >= 0")


def validate_kind(kind: str) -> str:
    k = kind.lower()
    if k in ("eea", "eae", "eaa"):
        return k
    if k.startswith("a"):
        raise ParameterError(
            f"query {kind!r} begins with a universal quantifier and has no "
            "solution set; rewrite it with negation and de Morgan's laws into "
            "an existential-prefix query (eea, eae, or eaa)"
        )
    raise ParameterError(f"unknown query kind {kind!r}; expected eea, eae, or eaa")


def _universe(universe: Universe | str) -> Universe:
    """universe as a Universe member: the member itself or its value."""
    try:
        return Universe(universe)
    except ValueError:
        raise ParameterError(f"unknown universe {universe!r}; expected dst or common") from None


_PERCENT = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*%\s*$")


def parse_tau(text: str | Fraction | float) -> Fraction:
    """Exact rational threshold from '0.25', '25%', or '1/4' forms, a
    Fraction, or a float read through its repr (0.1 is 1/10)."""
    if isinstance(text, Fraction):
        tau = text
    else:
        s = str(text).strip()
        m = _PERCENT.match(s)
        try:
            tau = Fraction(m.group(1)) / 100 if m else Fraction(s)
        except (ValueError, ZeroDivisionError):  # NaN and infinite floats too
            raise ParameterError(f"cannot parse threshold {text!r}") from None
    _check_tau(tau, text)
    return tau


def _check_tau(tau: Fraction, shown: object = None) -> None:
    """Refuse a tau that is not rational or not in (0, 1]; a range error
    names `shown`, the text tau was read from, if given."""
    if not isinstance(tau, numbers.Rational):
        raise ParameterError(f"threshold must be rational, got {tau!r}; parse_tau reads floats and text exactly")
    if not (0 < tau <= 1):
        raise ParameterError(f"threshold must be in (0, 1], got {tau if shown is None else shown}")


def as_table(counts: CountTable | Sequence[int], delta: int | None = None) -> CountTable:
    """counts as a CountTable: a table as it is, and per-edge totals, as the
    practical and oracle engines give them, on the out side with zeros on
    the in side. The eval_* functions read every table through it, so the
    state a table builds once (pair_max, nonzero) serves every engine."""
    if isinstance(counts, CountTable):
        return counts
    totals = np.asarray(counts, dtype=np.int64)
    return CountTable(np.zeros_like(totals), totals, delta)


def _table(g: TemporalGraph, counts: CountTable | Sequence[int]) -> CountTable:
    """counts as a CountTable (as_table), refused unless it has one entry
    per edge of g."""
    table = as_table(counts)
    if len(table.totals_array) != g.m:
        raise ParameterError(f"counts have {len(table.totals_array)} entries, the graph {g.m} edges")
    return table


def _least(tau: Fraction, sizes: np.ndarray, floor: int) -> np.ndarray:
    """Per size s, the least integer c >= floor with c >= tau * s. When
    p * max(sizes) and q fit int64 (tau = p / q), ceil(p * s / q) is taken
    on the array; otherwise from a table over 0..max(sizes) in Python
    integers. Either way any Fraction stays exact."""
    p, q = tau.numerator, tau.denominator
    top = int(sizes.max(initial=0))
    if p * top <= _I64_MAX and q <= _I64_MAX:
        return np.maximum(-(-p * sizes.astype(np.int64, copy=False) // q), floor)
    table = [-(-p * s // q) for s in range(top + 1)]
    return np.maximum(np.array(table, dtype=np.int64), floor)[sizes]


def _pair_sizes(
    g: TemporalGraph, static: StaticGraph, universe: Universe | str, pairs: np.ndarray | slice = slice(None)
) -> np.ndarray:
    """Universe size of each directed pair (x, y) of `pairs` (pair ids, all
    by default): degree[y], or the common count of static edge {x, y}.
    universe is a Universe member or its value; anything else raises
    ParameterError."""
    if _universe(universe) is Universe.DST:
        return np.diff(static.adj_start)[g.pair_key[pairs] % g.n]
    return g.pair_common(static)[pairs]


def eval_eea(
    g: TemporalGraph,
    static: StaticGraph,
    counts: CountTable | Sequence[int],
    tau: Fraction,
    universe: Universe | str = Universe.DST,
) -> SolutionSet:
    """Certificate edges (u, v, t) with count >= 1 and count >= tau * |U|:
    only the edges with a non-zero total are thresholded."""
    _check_tau(tau)
    table = _table(g, counts)
    eids, pairs = table.nonzero(g)
    count = table.totals_array[eids]
    size = _pair_sizes(g, static, universe, pairs)
    keep = count >= _least(tau, size, 1)
    eids = eids[keep]
    return SolutionSet._from_columns("eea", (g.src[eids], g.dst[eids], g.ts[eids], count[keep], size[keep]), g.orig)


def _vertex_query(
    g: TemporalGraph,
    static: StaticGraph,
    hit: np.ndarray,
    tau: Fraction,
    kind: str,
) -> SolutionSet:
    """Vertices u with >= tau * |N(u)| neighbors v such that the directed
    pair (u, v) qualifies (hit is a mask over pair ids)."""
    satisfied = np.bincount(g.pair_key[hit] // g.n, minlength=g.n)
    degree = np.diff(static.adj_start)
    vertices = np.flatnonzero(satisfied >= _least(tau, degree, 0))
    return SolutionSet._from_columns(kind, (vertices, satisfied[vertices], degree[vertices]), g.orig)


def eval_eae(
    g: TemporalGraph,
    static: StaticGraph,
    counts: CountTable | Sequence[int],
    tau: Fraction,
) -> SolutionSet:
    """Vertices u with >= tau * |N(u)| neighbors v reachable by an edge
    u -> v that closes at least one triangle."""
    _check_tau(tau)
    return _vertex_query(g, static, _table(g, counts).pair_max(g) >= 1, tau, "eae")


def eval_eaa(
    g: TemporalGraph,
    static: StaticGraph,
    counts: CountTable | Sequence[int],
    tau1: Fraction,
    tau2: Fraction,
    universe: Universe | str = Universe.DST,
) -> SolutionSet:
    """Vertices u with >= tau1 * |N(u)| neighbors v that carry some
    level-tau2 certificate edge u -> v: eae over the pairs whose largest
    total reaches the tau2 least count."""
    _check_tau(tau1)
    _check_tau(tau2)
    hit = _table(g, counts).pair_max(g) >= _least(tau2, _pair_sizes(g, static, universe), 1)
    return _vertex_query(g, static, hit, tau1, "eaa")


def practical_counts(g: TemporalGraph, static: StaticGraph, delta: int) -> list[int]:
    """Baseline count[] walking every static triangle from the lower-degree
    endpoint of each static edge, both edge directions per triangle, using
    forward-scan chains only. delta is refused if negative or NaN, and
    otherwise read as the integer floor of its clamp to the timestamp span,
    as the engines read it."""
    delta = _window(g, delta)
    count = [0] * g.m
    sets = static.adj_sets
    pair = g.pair
    for u, v in static.edges:
        x, y = (u, v) if static.degree[u] <= static.degree[v] else (v, u)
        e_uv = pair(u, v)
        e_vu = pair(v, u)
        other = sets[y]
        for w in static.adj[x]:
            if w not in other:
                continue
            e_uw = pair(u, w)
            e_vw = pair(v, w)
            _chain(e_uv[0], e_uv[1], e_uw[1], e_vw[1], delta, count)
            _chain(e_vu[0], e_vu[1], e_vw[1], e_uw[1], delta, count)
    return count


def _chain(eids1, ts1, ts2, ts3, delta, count):
    """Credit each L1 edge at t whose first L2 entry at or after t, at t2,
    is followed by a first L3 entry at or after t2 within delta of t.

    Both entries only move later as t does, so one forward scan keeps them
    in t2 and t3, steps through L2 and L3 only when t passes them, and
    stops as soon as either list runs out."""
    it2, it3 = iter(ts2), iter(ts3)
    t2 = t3 = float("-inf")
    for eid, t in zip(eids1, ts1):
        while t2 < t:
            t2 = next(it2, None)
            if t2 is None:
                return
        while t3 < t2:
            t3 = next(it3, None)
            if t3 is None:
                return
        if t3 <= t + delta:
            count[eid] += 1


def practical_eea(
    g: TemporalGraph,
    static: StaticGraph,
    delta: int,
    tau: Fraction,
    universe: Universe | str = Universe.DST,
) -> SolutionSet:
    """Baseline end-to-end eea: practical counting plus the shared threshold."""
    counts = practical_counts(g, static, delta)
    return eval_eea(g, static, counts, tau, universe)

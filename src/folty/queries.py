"""Thresholded query evaluation over per-edge count tables.

Three query kinds share one counting core:

  eea  enumerate certificate edges (u, v, t) whose closing-neighbor count
       reaches a tau fraction of the universe (the destination's
       neighborhood, or the endpoints' common neighborhood);
  eae  vertices u for which a tau fraction of neighbors v admit some edge
       (u, v, t) with at least one closing neighbor;
  eaa  vertices u for which a tau1 fraction of neighbors v admit some
       certificate edge at level tau2.

All threshold comparisons are exact: tau is a Fraction and the test
count * q >= p * |universe| is integer arithmetic. An edge only certifies if
it has at least one closing neighbor, so empty universes never satisfy the
quantifier vacuously.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .engine import CountTable
from .graph import StaticGraph, TemporalGraph
from .scans import find_exceeding_entry_ls


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


@dataclass
class SolutionSet:
    """Query answer: certificate edges for eea, vertices for eae/eaa.

    Certificates come out sorted by (t, eid); vertices ascending by original
    id. `total` always equals len(solutions).
    """

    kind: str
    solutions: list
    total: int


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
        _check_tau(self.tau)
        if self.kind == "eaa":
            if self.tau2 is None:
                raise ParameterError("eaa requires both tau1 and tau2")
            _check_tau(self.tau2)
        if self.delta < 0:
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


_PERCENT = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*%\s*$")


def parse_tau(text: str | Fraction | float) -> Fraction:
    """Exact rational threshold from '0.25', '25%', or '1/4' forms."""
    if isinstance(text, Fraction):
        tau = text
    elif isinstance(text, float):
        tau = Fraction(str(text))
    else:
        s = text.strip()
        m = _PERCENT.match(s)
        try:
            tau = Fraction(m.group(1)) / 100 if m else Fraction(s)
        except (ValueError, ZeroDivisionError):
            raise ParameterError(f"cannot parse threshold {text!r}") from None
    _check_tau(tau)
    return tau


def _check_tau(tau: Fraction) -> None:
    if not (0 < tau <= 1):
        raise ParameterError(f"threshold must be in (0, 1], got {tau}")


def _totals(counts: CountTable | Sequence[int]) -> Sequence[int]:
    if isinstance(counts, CountTable):
        return counts.totals()
    return counts


def _meets(value: int, tau: Fraction, size: int) -> bool:
    return value * tau.denominator >= tau.numerator * size


def _universe_size(static: StaticGraph, u: int, v: int, universe: Universe) -> int:
    if universe is Universe.DST:
        return static.degree[v]
    return static.common_of(u, v)


def eval_eea(
    g: TemporalGraph,
    static: StaticGraph,
    counts: CountTable | Sequence[int],
    tau: Fraction,
    universe: Universe = Universe.DST,
) -> SolutionSet:
    """Certificate edges (u, v, t) with count >= 1 and count >= tau * |U|."""
    _check_tau(tau)
    totals = _totals(counts)
    p, q = tau.numerator, tau.denominator
    certs: list[Certificate] = []
    orig = g.orig
    for eid in range(g.m):
        c = totals[eid]
        if c < 1:
            continue
        u = g.src[eid]
        v = g.dst[eid]
        size = _universe_size(static, u, v, universe)
        if c * q >= p * size:
            certs.append(Certificate(orig[u], orig[v], g.ts[eid], c, size))
    return SolutionSet("eea", certs, len(certs))


def _satisfied_pairs(g: TemporalGraph, qualifies: np.ndarray) -> set[tuple[int, int]]:
    """Directed dense pairs (u, v) with some edge u->v where qualifies[eid]."""
    if not len(g.pair_key):
        return set()
    hit = np.logical_or.reduceat(qualifies[g.pair_eid], g.pair_start[:-1])
    return {divmod(key, g.n) for key in g.pair_key[hit].tolist()}


def _vertex_solutions(
    g: TemporalGraph,
    static: StaticGraph,
    satisfied_pairs: set[tuple[int, int]],
    tau: Fraction,
    kind: str,
) -> SolutionSet:
    sols: list[VertexSolution] = []
    for u in range(g.n):
        satisfied = sum(1 for v in static.adj[u] if (u, v) in satisfied_pairs)
        if _meets(satisfied, tau, static.degree[u]):
            sols.append(VertexSolution(g.orig[u], satisfied, static.degree[u]))
    return SolutionSet(kind, sols, len(sols))


def eval_eae(
    g: TemporalGraph,
    static: StaticGraph,
    counts: CountTable | Sequence[int],
    tau: Fraction,
) -> SolutionSet:
    """Vertices u with >= tau * |N(u)| neighbors v reachable by an edge
    u -> v that closes at least one triangle."""
    _check_tau(tau)
    totals = _totals(counts)
    sat = _satisfied_pairs(g, np.asarray(totals, dtype=np.int64) >= 1)
    return _vertex_solutions(g, static, sat, tau, "eae")


def eval_eaa(
    g: TemporalGraph,
    static: StaticGraph,
    counts: CountTable | Sequence[int],
    tau1: Fraction,
    tau2: Fraction,
    universe: Universe = Universe.DST,
) -> SolutionSet:
    """Vertices u with >= tau1 * |N(u)| neighbors v that carry some
    level-tau2 certificate edge u -> v."""
    _check_tau(tau1)
    certs = eval_eea(g, static, counts, tau2, universe)
    index = {orig: i for i, orig in enumerate(g.orig)}
    sat = {(index[c.src], index[c.dst]) for c in certs.solutions}
    out = _vertex_solutions(g, static, sat, tau1, "eaa")
    return out


def practical_counts(g: TemporalGraph, static: StaticGraph, delta: int) -> list[int]:
    """Baseline count[] walking every static triangle from the lower-degree
    endpoint of each static edge, both edge directions per triangle, using
    forward-scan chains only."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
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
            _chain_ls(e_uv[0], e_uv[1], e_uw[1], e_vw[1], delta, count)
            _chain_ls(e_vu[0], e_vu[1], e_vw[1], e_uw[1], delta, count)
    return count


def _chain_ls(eids1, ts1, ts2, ts3, delta, count):
    if not eids1 or not ts2 or not ts3:
        return
    l12 = find_exceeding_entry_ls(ts1, ts2)
    l23 = find_exceeding_entry_ls(ts2, ts3)
    n2 = len(ts2)
    n3 = len(ts3)
    for i, eid in enumerate(eids1):
        j = l12[i]
        if j < n2:
            k = l23[j]
            if k < n3 and ts3[k] <= ts1[i] + delta:
                count[eid] += 1


def practical_eea(
    g: TemporalGraph,
    static: StaticGraph,
    delta: int,
    tau: Fraction,
    universe: Universe = Universe.DST,
) -> SolutionSet:
    """Baseline end-to-end eea: practical counting plus the shared threshold."""
    counts = practical_counts(g, static, delta)
    return eval_eea(g, static, counts, tau, universe)

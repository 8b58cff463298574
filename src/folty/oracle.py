"""Brute-force reference implementation.

Transcribes the triangle predicate and the query semantics literally, with
no orientation, no interval machinery, and no shared code with the engines.
Any disagreement with the fast paths is a bug in the fast paths. Complexity
is deliberately unbounded, so the entry points refuse inputs above a
configurable edge-count ceiling instead of silently running forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graph import StaticGraph, TemporalGraph, build_static
from .queries import Certificate, QuerySpec, SolutionSet, Universe, VertexSolution

DEFAULT_CEILING = 10_000


class OracleCeilingError(RuntimeError):
    """Input too large for the brute-force reference."""


@dataclass
class OracleCounts:
    """Per-edge count of distinct closing neighbors, with optional witnesses."""

    count: list[int]
    witnesses: list[list[tuple[int, int, int]]] | None = None


def oracle_counts(
    g: TemporalGraph,
    delta: int,
    static: StaticGraph | None = None,
    max_edges: int = DEFAULT_CEILING,
    collect_witnesses: bool = False,
) -> OracleCounts:
    """count[e] = number of distinct common neighbors w of e's endpoints with
    some (src, w, t2), (dst, w, t3) satisfying t <= t2 <= t3 <= t + delta.

    Distinct w, not (t2, t3) pairs: many parallel witnesses still count once.
    Timestamps are integers, so delta counts as its floor, compared in
    integer arithmetic; no chain of int64 timestamps spans more than 2**64.
    A negative or NaN delta is refused.
    """
    if not delta >= 0:  # NaN too
        raise ValueError("delta must be >= 0")
    window = math.floor(min(delta, 2**64))
    if g.m > max_edges:
        raise OracleCeilingError(
            f"{g.m} temporal edges exceeds the oracle ceiling of {max_edges}"
        )
    if static is None:
        static = build_static(g)
    sets = static.adj_sets
    count = [0] * g.m
    witnesses: list[list[tuple[int, int, int]]] = [[] for _ in range(g.m)]
    src, dst, ts = g.edge_lists
    for eid in range(g.m):
        x = src[eid]
        y = dst[eid]
        t = ts[eid]
        hi = t + window
        for w in sorted(sets[x] & sets[y]):
            found = None
            for t2 in g.pair(x, w)[1]:
                if t2 < t:
                    continue
                if t2 > hi:
                    break
                for t3 in g.pair(y, w)[1]:
                    if t3 > hi:
                        break
                    if t3 >= t2:
                        found = (w, t2, t3)
                        break
                if found:
                    break
            if found:
                count[eid] += 1
                if collect_witnesses:
                    witnesses[eid].append(found)
    return OracleCounts(count, witnesses if collect_witnesses else None)


def oracle_solutions(
    g: TemporalGraph,
    delta: int,
    query: QuerySpec,
    static: StaticGraph | None = None,
    max_edges: int = DEFAULT_CEILING,
    counts: list[int] | None = None,
) -> SolutionSet:
    """Query solutions computed straight from the definitions.

    The universal thresholds are evaluated independently of the query layer:
    a brute-force count table, Fraction arithmetic, and the literal
    quantifier readings (the vertex queries in particular do not go through
    the certificate-set reduction). `counts` may carry a precomputed
    ``oracle_counts(...).count`` for the same graph and delta.
    """
    if static is None:
        static = build_static(g)
    if counts is None:
        counts = oracle_counts(g, delta, static, max_edges=max_edges).count
    tau = query.tau
    if query.kind == "eea":
        certs = _certificates(g, static, counts, tau, query.universe)
        return SolutionSet("eea", certs, len(certs))
    if query.kind == "eae":
        sols = []
        for u in range(g.n):
            satisfied = sum(
                1
                for v in static.adj[u]
                if any(counts[eid] >= 1 for eid in g.pair(u, v)[0])
            )
            if _meets(satisfied, tau, static.degree[u]):
                sols.append(VertexSolution(g.orig[u], satisfied, static.degree[u]))
        return SolutionSet("eae", sols, len(sols))
    if query.kind == "eaa":
        tau2 = query.tau2
        assert tau2 is not None
        sols = []
        for u in range(g.n):
            satisfied = 0
            for v in static.adj[u]:
                ok = False
                for eid in g.pair(u, v)[0]:
                    size = _universe_size(static, u, v, query.universe)
                    if counts[eid] >= 1 and _meets(counts[eid], tau2, size):
                        ok = True
                        break
                if ok:
                    satisfied += 1
            if _meets(satisfied, tau, static.degree[u]):
                sols.append(VertexSolution(g.orig[u], satisfied, static.degree[u]))
        return SolutionSet("eaa", sols, len(sols))
    raise ValueError(f"unknown query kind {query.kind!r}")


def _universe_size(static: StaticGraph, u: int, v: int, universe: Universe) -> int:
    if universe is Universe.DST:
        return static.degree[v]
    return len(static.adj_sets[u] & static.adj_sets[v])


def _meets(value: int, tau: Fraction, size: int) -> bool:
    return value * tau.denominator >= tau.numerator * size


def _certificates(g, static, counts, tau, universe):
    certs = []
    src, dst, ts = g.edge_lists
    for eid in range(g.m):
        c = counts[eid]
        if c < 1:
            continue
        u = src[eid]
        v = dst[eid]
        size = _universe_size(static, u, v, universe)
        if _meets(c, tau, size):
            certs.append(Certificate(g.orig[u], g.orig[v], ts[eid], c, size))
    return certs

"""Counting-pass semantics: unit cases plus oracle equivalence."""

import random

from conftest import brute_closing_neighbors, random_temporal_graph
from folty.engine import (
    CountTable,
    compute_counts,
    in_pass,
    out_pass,
    oriented_triangles,
)
from folty.graph import TemporalGraph, build_static, degeneracy_order
from folty.oracle import oracle_counts


def brute_case(ts1, ts2, ts3, delta):
    """Expected increments for one (L1, L2, L3) triple: exhaustive pairs."""
    hits = []
    for t in ts1:
        ok = any(
            t <= t2 <= t3 <= t + delta
            for t2 in ts2
            for t3 in ts3
        )
        hits.append(1 if ok else 0)
    return hits


def _passes(edges, delta):
    g = TemporalGraph.from_edges(edges)
    s = build_static(g)
    o = degeneracy_order(s)
    return g, out_pass(g, s, o, delta), in_pass(g, s, o, delta)


def _counts_of(g, counts, x, y):
    """counts of the edges x -> y (original ids) in (t, eid) order."""
    return [counts[e] for e in range(g.m) if (g.orig[g.src[e]], g.orig[g.dst[e]]) == (x, y)]


#: (L1, L2, L3) pairs of the two out-side job shapes on the triangle 1, 2, 3,
#: which peels 1 first: L1 is on pair {1, 2}, the witness is 3.
OUT_CASES = {1: ((1, 2), (1, 3), (2, 3)), 2: ((2, 1), (2, 3), (1, 3))}


def out_case_hits(case, ts1, ts2, ts3, delta):
    """out_pass count of each L1 edge, in timestamp order.

    An empty L2 or L3 is replaced by one reversed edge, which keeps the
    static triangle but is never read for an L1 edge with witness 3."""
    l1, l2, l3 = OUT_CASES[case]
    edges = [(*l1, t) for t in ts1] + [(*l2, t) for t in ts2] + [(*l3, t) for t in ts3]
    for (x, y), ts in ((l2, ts2), (l3, ts3)):
        if not ts:
            edges.append((y, x, 0))
    g, out, _ = _passes(edges, delta)
    return _counts_of(g, out, *l1)


def interval_hits(ts2, ts3, delta, probes):
    """in_pass count of target edges 2 -> 3 at each probe time, with witness
    1 (peeled first) evidenced by L2 = E_{2,1} and L3 = E_{3,1}."""
    edges = [(2, 3, t) for t in probes] + [(2, 1, t) for t in ts2] + [(3, 1, t) for t in ts3]
    for (x, y), ts in (((2, 1), ts2), ((3, 1), ts3)):
        if not ts:
            edges.append((y, x, 0))
    g, _, inc = _passes(edges, delta)
    return _counts_of(g, inc, 2, 3)


class TestOutCases:
    def test_case1_window_hit(self):
        assert out_case_hits(1, [10], [12], [15], 10) == [1]

    def test_case1_window_miss(self):
        assert out_case_hits(1, [10], [12], [15], 4) == [0]

    def test_case1_empty_l2(self):
        assert out_case_hits(1, [10], [], [15], 100) == [0]

    def test_case2_hit(self):
        assert out_case_hits(2, [10], [11], [13], 5) == [1]

    def test_case2_order_violation(self):
        assert out_case_hits(2, [10], [16], [13], 5) == [0]

    def test_case2_empty_l3(self):
        assert out_case_hits(2, [10], [11], [], 5) == [0]

    def test_cases_match_exhaustive_pairs(self):
        rng = random.Random(77)
        for _ in range(400):
            ts1 = sorted(rng.randint(0, 40) for _ in range(rng.randint(1, 6)))
            ts2 = sorted(rng.randint(0, 40) for _ in range(rng.randint(0, 6)))
            ts3 = sorted(rng.randint(0, 40) for _ in range(rng.randint(0, 6)))
            delta = rng.choice([0, 1, 5, 20])
            want = brute_case(ts1, ts2, ts3, delta)
            assert out_case_hits(1, ts1, ts2, ts3, delta) == want
            assert out_case_hits(2, ts1, ts2, ts3, delta) == want


class TestIntervalSet:
    # An L2 entry at t2 whose first L3 entry at or after it is at t3 credits
    # the target times in (t2 of the L2 entry before it, t2], cut below at
    # t3 - delta; probing the target pair just outside and at both ends
    # shows exactly which t it certifies.
    def test_basic_interval(self):
        assert interval_hits([12], [15], 10, [4, 5, 12, 13]) == [0, 1, 1, 0]

    def test_window_violation_empty(self):
        assert interval_hits([12], [30], 10, [4, 5, 12, 13, 20, 30]) == [0] * 6

    def test_empty_l2(self):
        assert interval_hits([], [30], 10, [20, 25, 30]) == [0, 0, 0]

    def test_overlapping_intervals_count_one_witness_once(self):
        # 10 credits [3, 10] and 14 credits (10, 14], not [8, 14]: the ranges
        # are disjoint, so the witness counts once
        assert interval_hits([10, 14], [13, 18], 10, [2, 3, 9, 14, 15]) == [0, 1, 1, 1, 0]

    def test_intervals_match_exhaustive_pairs(self):
        rng = random.Random(78)
        for _ in range(200):
            probes = sorted(rng.randint(0, 40) for _ in range(rng.randint(1, 6)))
            ts2 = sorted(rng.randint(0, 40) for _ in range(rng.randint(0, 6)))
            ts3 = sorted(rng.randint(0, 40) for _ in range(rng.randint(0, 6)))
            delta = rng.choice([0, 1, 5, 20])
            want = brute_case(probes, ts2, ts3, delta)
            assert interval_hits(ts2, ts3, delta, probes) == want


class TestPasses:
    def test_out_pass_triangle(self):
        g = TemporalGraph.from_edges([(1, 2, 10), (1, 3, 12), (2, 3, 15)])
        s = build_static(g)
        o = degeneracy_order(s)
        assert out_pass(g, s, o, 10).tolist() == [1, 0, 0]
        assert in_pass(g, s, o, 10).tolist() == [0, 0, 0]

    def test_out_pass_window_excluded(self):
        g = TemporalGraph.from_edges([(1, 2, 10), (1, 3, 12), (2, 3, 25)])
        s = build_static(g)
        o = degeneracy_order(s)
        assert out_pass(g, s, o, 10).tolist() == [0, 0, 0]

    def test_triangle_free_all_zero(self):
        g = TemporalGraph.from_edges([(1, 2, 5), (2, 3, 6), (3, 4, 7), (4, 1, 8)])
        ct = compute_counts(g, 100)
        assert ct.totals() == [0, 0, 0, 0]

    def test_in_pass_low_rank_common_neighbor(self):
        # vertex 1 peels first, so it is the in-side witness for pair {2, 3}
        g = TemporalGraph.from_edges([(2, 3, 10), (2, 1, 12), (3, 1, 15)])
        s = build_static(g)
        o = degeneracy_order(s)
        assert in_pass(g, s, o, 10).tolist() == [1, 0, 0]
        assert out_pass(g, s, o, 10).tolist() == [0, 0, 0]

    def test_in_pass_two_witnesses(self):
        # vertices 1 and 2 both peel below 3 and 4; edge (3,4) gains two
        g = TemporalGraph.from_edges(
            [
                (3, 4, 10),
                (3, 1, 11),
                (4, 1, 12),
                (3, 2, 13),
                (4, 2, 14),
                (3, 4, 99),
            ]
        )
        ct = compute_counts(g, 10)
        assert ct.in_count[0] == 2
        assert ct.totals()[0] == 2

    def test_delta_zero_distinct_timestamps(self):
        g = TemporalGraph.from_edges([(1, 2, 10), (1, 3, 12), (2, 3, 15)])
        assert compute_counts(g, 0).totals() == [0, 0, 0]

    def test_delta_zero_equal_timestamps(self):
        g = TemporalGraph.from_edges([(1, 2, 10), (1, 3, 10), (2, 3, 10)])
        assert compute_counts(g, 0).totals() == [1, 0, 0]

    def test_triangle_enumeration_ranks(self):
        rng = random.Random(3)
        g = random_temporal_graph(rng, max_vertices=25, max_edges=150)
        s = build_static(g)
        o = degeneracy_order(s)
        seen = set()
        for a, b, common in oriented_triangles(s, o):
            for c in common:
                assert o.pi[a] < o.pi[b] < o.pi[c]
                key = frozenset((a, b, c))
                assert key not in seen
                seen.add(key)


class TestOracleEquivalence:
    def test_counts_match_oracle(self):
        rng = random.Random(0xE0E0)
        for _ in range(40):
            g = random_temporal_graph(rng, max_vertices=18, max_edges=120)
            for delta in (0, 1, 5, 20, 1000):
                assert compute_counts(g, delta).totals() == oracle_counts(g, delta).count

    def test_in_out_split_matches_rank_partition(self):
        rng = random.Random(0xE0E1)
        for _ in range(25):
            g = random_temporal_graph(rng, max_vertices=15, max_edges=90)
            s = build_static(g)
            o = degeneracy_order(s)
            for delta in (0, 5, 50):
                ct = compute_counts(g, delta, s, o)
                closing = brute_closing_neighbors(g, delta)
                for eid in range(g.m):
                    x, y = g.src[eid], g.dst[eid]
                    source = x if o.pi[x] < o.pi[y] else y
                    want_out = sum(1 for w in closing[eid] if o.pi[w] > o.pi[source])
                    want_in = sum(1 for w in closing[eid] if o.pi[w] < o.pi[source])
                    assert ct.out_count[eid] == want_out
                    assert ct.in_count[eid] == want_in

    def test_count_bounds(self):
        rng = random.Random(0xE0E2)
        for _ in range(15):
            g = random_temporal_graph(rng, max_vertices=15, max_edges=90)
            s = build_static(g)
            o = degeneracy_order(s)
            ct = compute_counts(g, 500, s, o)
            common = dict(zip(s.edges, s.common_counts().tolist()))
            in_adj_count = [0] * g.n
            for u in range(g.n):
                for v in o.out_adj[u]:
                    in_adj_count[v] += 1
            for eid in range(g.m):
                x, y = g.src[eid], g.dst[eid]
                source = x if o.pi[x] < o.pi[y] else y
                assert ct.out_count[eid] <= len(o.out_adj[source])
                assert ct.in_count[eid] <= in_adj_count[source]
                key = (x, y) if x < y else (y, x)
                assert ct.in_count[eid] + ct.out_count[eid] <= common[key]

    def test_delta_monotonicity(self):
        rng = random.Random(0xE0E3)
        for _ in range(10):
            g = random_temporal_graph(rng, max_vertices=15, max_edges=90)
            prev = None
            for delta in (0, 1, 5, 20, 1000):
                cur = compute_counts(g, delta).totals()
                if prev is not None:
                    assert all(a <= b for a, b in zip(prev, cur))
                prev = cur

    def test_heavy_timestamp_aliasing(self):
        # tiny timestamp alphabets plus parallel edges stress the boundary
        # (non-strict) comparisons in every chain
        rng = random.Random(0xA11A5)
        for _ in range(150):
            n = rng.randint(3, 10)
            tset = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
            edges = []
            for _ in range(rng.randint(3, 80)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.append((u, v, rng.choice(tset)))
            if not edges:
                continue
            g = TemporalGraph.from_edges(edges)
            for delta in (0, 1, 2, 10):
                assert compute_counts(g, delta).totals() == oracle_counts(g, delta).count

    def test_threads_do_not_change_results(self):
        rng = random.Random(0xE0E4)
        g = random_temporal_graph(rng, max_vertices=20, max_edges=150)
        base = compute_counts(g, 20, threads=1)
        for threads in (2, 4):
            other = compute_counts(g, 20, threads=threads)
            assert (other.in_count, other.out_count) == (base.in_count, base.out_count)

    def test_count_table_totals(self):
        ct = CountTable([1, 0], [2, 3], 5)
        assert ct.totals() == [3, 3]


class TestOrderingCache:
    """One (static, ordering) serves every delta: its triangle list is built
    once and reused, and the counts equal fresh per-delta runs."""

    def test_deltas_in_any_order_match_fresh_runs_and_oracle(self):
        rng = random.Random(0xCAC4E)
        deltas = [0, 1, 5, 20, 1000, 2**62]
        for _ in range(12):
            g = random_temporal_graph(rng, max_vertices=16, max_edges=140)
            fresh = {d: compute_counts(g, d) for d in deltas}
            want = {d: oracle_counts(g, d).count for d in deltas}
            s = build_static(g)
            o = degeneracy_order(s)
            triangles = o.triangles()
            for order in (deltas, deltas[::-1], rng.sample(deltas, len(deltas)), deltas):
                for d in order:
                    ct = compute_counts(g, d, s, o)
                    assert (ct.in_count, ct.out_count) == (fresh[d].in_count, fresh[d].out_count)
                    assert ct.totals() == want[d]
            assert o.triangles() is triangles

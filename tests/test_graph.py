"""Parsing, static projection, peeling order, and stats."""

import io
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

import folty.graph
from conftest import random_temporal_graph
from folty.graph import (
    ParseError,
    TemporalGraph,
    build_static,
    degeneracy_order,
    graph_stats,
    parse_edge_list,
    serialize_edge_list,
)


def dense(g, orig_id):
    return g.orig.index(orig_id)


class TestParse:
    def test_sorts_by_timestamp(self):
        g = parse_edge_list("1 2 100\n2 3 90\n")
        assert [(g.orig[g.src[i]], g.orig[g.dst[i]], g.ts[i]) for i in range(g.m)] == [
            (2, 3, 90),
            (1, 2, 100),
        ]
        assert g.sigma(dense(g, 1), dense(g, 2)) == 1

    def test_self_loop_dropped(self):
        g = parse_edge_list("3 3 5\n")
        assert g.n == 0 and g.m == 0
        assert g.self_loops_dropped == 1

    def test_duplicates_kept(self):
        g = parse_edge_list("1 2 10\n1 2 10\n")
        assert g.m == 2
        assert g.sigma(dense(g, 1), dense(g, 2)) == 2
        assert sorted(g.pair(dense(g, 1), dense(g, 2))[0]) == [0, 1]

    def test_comments_blank_lines_crlf(self):
        g = parse_edge_list(b"# header\r\n\r\n1 2 10\r\n#tail\n2 3 20\n")
        assert g.m == 2

    def test_invalid_utf8_bytes_reports_line(self):
        data = b"1 2 3\n4 5 \xff\n"
        for source in (data, io.BytesIO(data)):
            with pytest.raises(ParseError) as err:
                parse_edge_list(source)
            assert err.value.lineno == 2
            assert err.value.message == "invalid UTF-8"

    def test_binary_and_text_file_objects(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# c\n1 2 10\n2 3 20\n")
        with open(p, "rb") as fh:
            assert parse_edge_list(fh).m == 2
        with open(p, "r") as fh:
            assert parse_edge_list(fh).m == 2

    def test_pair_lists_partition_eids(self):
        rng = random.Random(17)
        for _ in range(10):
            g = random_temporal_graph(rng, max_vertices=20, max_edges=120)
            seen = []
            for (x, y), (eids, ts) in g.pairs.items():
                assert len(eids) == len(ts)
                assert ts == sorted(ts)
                assert eids == sorted(eids)
                assert all(g.src[e] == x and g.dst[e] == y for e in eids)
                seen.extend(eids)
            assert sorted(seen) == list(range(g.m))

    def test_equal_timestamps_keep_input_order(self):
        g = parse_edge_list("5 6 10\n1 2 10\n")
        assert (g.orig[g.src[0]], g.orig[g.dst[0]]) == (5, 6)
        assert (g.orig[g.src[1]], g.orig[g.dst[1]]) == (1, 2)

    def test_malformed_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_edge_list("1 2 10\n1 2\n")
        assert err.value.lineno == 2
        with pytest.raises(ParseError) as err:
            parse_edge_list("1 2 10\nx 2 3\n")
        assert err.value.lineno == 2
        with pytest.raises(ParseError):
            parse_edge_list("-1 2 10\n")

    def test_empty_input(self):
        g = parse_edge_list("")
        assert g.n == 0 and g.m == 0 and g.pairs == {}

    def test_negative_timestamps_ok(self):
        g = parse_edge_list("1 2 -50\n2 3 -100\n")
        assert g.ts == [-100, -50]

    def test_roundtrip_idempotent(self):
        text = "7 9 30\n1 2 10\n9 7 30\n1 2 10\n"
        g1 = parse_edge_list(text)
        g2 = parse_edge_list(serialize_edge_list(g1))
        assert serialize_edge_list(g1) == serialize_edge_list(g2)
        assert (g1.src, g1.dst, g1.ts, g1.orig) == (g2.src, g2.dst, g2.ts, g2.orig)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=12),
                st.integers(min_value=0, max_value=12),
                st.integers(min_value=-100, max_value=100),
            ),
            max_size=40,
        )
    )
    def test_roundtrip_idempotent_random(self, triples):
        g1 = TemporalGraph.from_edges(triples)
        g2 = parse_edge_list(serialize_edge_list(g1))
        assert serialize_edge_list(g1) == serialize_edge_list(g2)


class TestLayout:
    """The CSR pair layout against definitions built from the edge lists."""

    @staticmethod
    def corpus(seed, count=25):
        rng = random.Random(seed)
        for _ in range(count):
            yield random_temporal_graph(rng, max_vertices=30, max_edges=250, max_mult=8)

    def test_pairs_view_matches_definition(self):
        for g in self.corpus(51):
            want = {}
            for e in range(g.m):
                eids, ts = want.setdefault((g.src[e], g.dst[e]), ([], []))
                eids.append(e)
                ts.append(g.ts[e])
            assert dict(g.pairs) == want
            for (x, y), (eids, _) in want.items():
                assert g.sigma(x, y) == len(eids)
            with pytest.raises(TypeError):
                g.pairs[(0, 0)] = ([], [])

    def test_sigma_max_brute_force(self):
        for g in self.corpus(52):
            count = {}
            for e in range(g.m):
                key = frozenset((g.src[e], g.dst[e]))
                count[key] = count.get(key, 0) + 1
            assert g.sigma_max() == max(count.values(), default=0)

    def test_build_static_matches_set_projection(self):
        for g in self.corpus(53):
            nbrs = [set() for _ in range(g.n)]
            for e in range(g.m):
                nbrs[g.src[e]].add(g.dst[e])
                nbrs[g.dst[e]].add(g.src[e])
            assert build_static(g).adj == [sorted(s) for s in nbrs]

    def test_entries_ascend_within_each_pair(self):
        for g in self.corpus(54):
            keys = g.pair_key.tolist()
            assert keys == sorted(set(keys))
            assert g.pair_start[0] == 0 and g.pair_start[-1] == g.m
            assert sorted(g.pair_eid.tolist()) == list(range(g.m))
            assert g.t_distinct.tolist() == sorted(set(g.ts))
            r = len(g.t_distinct)
            for p, key in enumerate(keys):
                lo, hi = g.pair_start[p], g.pair_start[p + 1]
                eids = g.pair_eid[lo:hi].tolist()
                ts = g.pair_ts[lo:hi].tolist()
                assert lo < hi
                assert eids == sorted(eids) and ts == sorted(ts)
                assert all(g.src[e] * g.n + g.dst[e] == key for e in eids)
                assert ts == [g.ts[e] for e in eids]
                ranks = [g.t_distinct.tolist().index(t) for t in ts]
                assert g.pair_comp[lo:hi].tolist() == [p * r + k for k in ranks]
            assert np.all(np.diff(g.pair_comp) >= 0)


class TestStatic:
    def test_two_direction_pair_is_one_static_edge(self):
        g = TemporalGraph.from_edges([(1, 2, 10), (2, 1, 20)])
        s = build_static(g)
        assert s.edges == [(0, 1)]
        assert s.common_counts().tolist() == [0]

    def test_triangle_common_counts(self):
        g = TemporalGraph.from_edges([(1, 2, 1), (1, 3, 2), (2, 3, 3)])
        s = build_static(g)
        assert s.common_counts().tolist() == [1, 1, 1]
        assert len(s.edges) == 3

    def test_star(self):
        g = TemporalGraph.from_edges([(1, 2, 1), (1, 3, 2), (1, 4, 3)])
        s = build_static(g)
        assert s.common_counts().tolist() == [0, 0, 0]
        assert s.edge_degree == [1, 1, 1]

    def test_common_matches_brute_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_temporal_graph(rng, max_vertices=50, max_edges=200)
            s = build_static(g)
            sets = [set(a) for a in s.adj]
            for (u, v), c in zip(s.edges, s.common_counts().tolist()):
                assert c == len(sets[u] & sets[v])

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_common_counts_in_small_blocks(self, monkeypatch, block):
        monkeypatch.setattr(folty.graph, "COMMON_BLOCK", block)
        rng = random.Random(11 + block)
        for _ in range(10):
            s = build_static(random_temporal_graph(rng, max_vertices=20, max_edges=120))
            sets = [set(a) for a in s.adj]
            assert s.common_counts().tolist() == [len(sets[u] & sets[v]) for u, v in s.edges]


class TestDegeneracy:
    def test_empty(self):
        g = TemporalGraph.from_edges([])
        o = degeneracy_order(build_static(g))
        assert o.alpha == 0 and o.order == []

    def test_k3_order_and_orientation(self):
        g = TemporalGraph.from_edges([(1, 2, 1), (1, 3, 2), (2, 3, 3)])
        o = degeneracy_order(build_static(g))
        assert o.alpha == 2
        assert [g.orig[v] for v in o.order] == [1, 2, 3]
        out = {g.orig[u]: sorted(g.orig[v] for v in o.out_adj[u]) for u in range(g.n)}
        assert out == {1: [2, 3], 2: [3], 3: []}

    def test_star_alpha_one(self):
        g = TemporalGraph.from_edges([(1, 2, 1), (1, 3, 2), (1, 4, 3)])
        assert degeneracy_order(build_static(g)).alpha == 1

    def test_out_degree_bounded_by_alpha(self):
        rng = random.Random(41)
        for _ in range(20):
            g = random_temporal_graph(rng, max_vertices=40, max_edges=250)
            o = degeneracy_order(build_static(g))
            assert all(len(nbrs) <= o.alpha for nbrs in o.out_adj)

    def test_orientation_partitions_static_edges(self):
        rng = random.Random(42)
        for _ in range(20):
            g = random_temporal_graph(rng, max_vertices=40, max_edges=250)
            s = build_static(g)
            o = degeneracy_order(s)
            oriented = {(u, v) for u in range(g.n) for v in o.out_adj[u]}
            for u, v in s.edges:
                assert ((u, v) in oriented) != ((v, u) in oriented)
            assert len(oriented) == len(s.edges)

    def test_removal_replay(self):
        rng = random.Random(43)
        for _ in range(20):
            g = random_temporal_graph(rng, max_vertices=40, max_edges=250)
            s = build_static(g)
            o = degeneracy_order(s)
            alive = set(range(g.n))
            seen_alpha = 0
            for v in o.order:
                residual = sum(1 for u in s.adj[v] if u in alive)
                assert residual <= o.alpha
                seen_alpha = max(seen_alpha, residual)
                alive.remove(v)
            assert seen_alpha == o.alpha


class TestStats:
    def test_k3(self):
        g = TemporalGraph.from_edges([(1, 2, 1), (1, 3, 2), (2, 3, 3)])
        s = build_static(g)
        stats = graph_stats(g, s, degeneracy_order(s))
        assert stats.as_dict() == {
            "n": 3,
            "m": 3,
            "alpha": 2,
            "sigma_max": 1,
            "sum_edge_degree": 6,
        }

    def test_empty(self):
        g = TemporalGraph.from_edges([])
        s = build_static(g)
        stats = graph_stats(g, s, degeneracy_order(s))
        assert stats.as_dict() == {
            "n": 0,
            "m": 0,
            "alpha": 0,
            "sigma_max": 0,
            "sum_edge_degree": 0,
        }

    def test_sigma_max_counts_both_directions(self):
        g = TemporalGraph.from_edges([(1, 2, 1), (2, 1, 2), (2, 1, 3), (3, 4, 1)])
        assert g.sigma_max() == 3

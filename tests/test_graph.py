"""Parsing, static projection, peeling order, and stats."""

import heapq
import io
import random
import tracemalloc
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import folty.graph
from conftest import random_temporal_graph
from folty.engine import oriented_triangles
from folty.graph import (
    ParseError,
    StaticGraph,
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
        assert g.ts.tolist() == [-100, -50]

    def test_roundtrip_idempotent(self):
        text = "7 9 30\n1 2 10\n9 7 30\n1 2 10\n"
        g1 = parse_edge_list(text)
        g2 = parse_edge_list(serialize_edge_list(g1))
        assert serialize_edge_list(g1) == serialize_edge_list(g2)
        assert (g1.edge_lists, g1.orig) == (g2.edge_lists, g2.orig)

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


#: A second line of two values whose separators still read as the canonical
#: "one space or tab between three fields": only the count of values sends
#: these to the line loop.
TWO_VALUE_LINES = [b"1 2 3\n4  5\n", b"1 2 3\n 4 5\n", b"1 2 3\n4 5 \n", b"1 2 3\n4 5\t\n"]

#: Inputs on which the array parse must agree with the line loop: same graph
#: or the same ParseError.
PARSE_CASES = {
    "comments": b"# header\n1 2 3\n#tail\n  # indented\n2 3 4\n",
    "comment_after_fields": b"1 2 3\n1 2 #3\n",
    "comment_header": b"# src dst t\n1 2 3\n2 3 4\n",
    "comment_mid_file": b"1 2 3\n# note\n2 3 4\n",
    "comment_indented": b"1 2 3\n  # x\n\t#y\n2 3 4\n",
    "comment_hash_fields": b"#1 2 3\n1 2 3\n",
    "comment_trailing_after_fields": b"1 2 3 # note\n2 3 4\n",
    "comment_inside_field": b"1 #2 3\n",
    "comment_hash_after_digit": b"1# 2 3\n",
    "comment_only_file": b"# a\n#b\n  # c",
    "comment_crlf": b"# a\r\n1 2 3\r\n# b\r\n",
    "comment_last_line_no_newline": b"1 2 3\n# end",
    "comment_utf8": "# \u00e9t\u00e9\n1 2 3\n".encode(),
    "comment_invalid_utf8": b"1 2 3\n# \xff\n2 3 4\n",
    "comment_truncated_utf8": b"# \xc3\n1 2 3\n",
    "comment_after_unit_separator": b"\x1f# x\n1 2 3\n",
    "blank_lines": b"\n\n1 2 3\n\n \t \n2 3 4\n\n",
    "crlf": b"1 2 3\r\n\r\n2 3 4\r\n",
    "lone_cr_line_break": b"1 2 3\r2 3 4\n",
    "lone_cr_ragged": b"1 2\r3\n",
    "lone_cr_at_end": b"1 2 3\r",
    "tabs_vt_ff": b"1\t2\t3\n2 \t3\x0b4\x0c\n",
    "no_final_newline": b"1 2 3\n2 3 4",
    "ragged_short": b"1 2 3\n1 2\n",
    "ragged_long": b"1 2 3 4\n",
    "ragged_balanced": b"1 2\n3 4 5 6\n",
    "ragged_spread": b"1 2 3\n4 5\n6\n",
    "plus_sign": b"+5 2 3\n",
    "underscores": b"1_000 2 3\n",
    "minus_zero": b"-0 2 3\n1 -0 4\n",
    "non_ascii_digits": "\u0661 2 3\n".encode(),
    "nbsp_inside": "1\u00a02 3\n".encode(),
    "nbsp_trailing": "1 2 3\u00a0\n".encode(),
    "unit_separator": b"1\x1f2 3\n",
    "invalid_utf8": b"1 2 3\n4 5 \xff\n",
    "non_integer": b"1 2 3\nx 2 3\n",
    "float": b"1 2 3.0\n",
    "ids_from_2_63": f"{2**63} 1 5\n1 {2**64 + 7} 6\n{2**63} {2**64 + 7} 7\n".encode(),
    "negative_src": b"1 2 3\n-1 2 3\n",
    "negative_dst": b"1 -2 3\n",
    "int64_extreme_ts": f"1 2 {2**63 - 1}\n2 3 {-(2**63)}\n3 1 0\n".encode(),
    "ts_above_int64": f"1 2 3\n1 2 {2**63}\n".encode(),
    "ts_below_int64": f"1 2 {-(2**63) - 1}\n".encode(),
    "self_loops": b"3 3 5\n1 2 3\n3 3 6\n2 1 3\n",
    "self_loop_only_id_beyond_int64": f"{2**64} {2**64} 5\n1 2 3\n".encode(),
    "empty": b"",
    "only_blank": b"\n \n\t\n",
    "ties_keep_input_order": b"5 6 10\n1 2 10\n7 5 9\n",
    "latin1_nbsp": b"1 2 3\xa0\n",
    "latin1_next_line": b"1 2 3\x85\n",
    "file_separator_only": b"\x1c\n",
    "exponent": b"1e3 2 3\n",
    "hex": b"0x10 2 3\n",
    "nul_inside_field": b"1 2\x003\n",
    "lone_cr_first": b"\r1 2 3\n",
    "cr_before_crlf": b"1 2 3\r\r\n",
    "lone_cr_before_separator": b"12\r 3 4\n",
    "lone_cr_after_separator": b"1 2\r 3\n",
    "sign_inside_field_count_compensated": b"1 2 3-4\n5  6\n",
    "plus_inside_field": b"1 2 3+4\n",
    "lone_minus": b"1 2 -\n",
    "double_minus": b"1 2 --3\n",
    "plus_minus": b"1 2 +-3\n",
    "ts_minus_2_64": f"1 2 {-(2**64)}\n".encode(),
    "ts_9_3e18": b"1 2 9300000000000000000\n",
    "ts_max_leading_zeros": b"1 2 0009223372036854775807\n",
    "tabs_crlf": b"1\t2\t3\r\n4\t5\t-6\r\n5\t5\t7\r\n2\t1\t3\r\n",
    **{f"canonical_gaps_two_values_{i}": data for i, data in enumerate(TWO_VALUE_LINES)},
}


class NonSeekable(io.RawIOBase):
    """A binary stream that cannot seek and returns short reads."""

    def __init__(self, data: bytes, step: int = 5):
        self._data = data
        self._pos = 0
        self._step = step

    def readable(self):
        return True

    def readinto(self, buf):
        n = min(len(buf), self._step, len(self._data) - self._pos)
        buf[:n] = self._data[self._pos : self._pos + n]
        self._pos += n
        return n


def parse_outcome(parse, source):
    """The graph (every column, orig, dropped loops) or the ParseError."""
    try:
        g = parse(source)
    except ParseError as exc:
        return ("error", str(exc), exc.lineno)
    columns = (g.src, g.dst, g.ts)
    assert all(c.dtype == np.int64 for c in columns)
    return ("graph", [c.tolist() for c in columns], g.orig, g.self_loops_dropped)


def line_loop(lines):
    """The graph of the line loop's triples."""
    return TemporalGraph.from_edges(folty.graph._parse_lines(lines))


def loop_outcomes(data: bytes):
    """The line loop's outcome for the bytes and for a file holding them."""
    by_bytes = parse_outcome(line_loop, data.splitlines())
    by_file = parse_outcome(line_loop, io.BytesIO(data))
    return by_bytes, by_file


def assert_parse_matches_loop(data: bytes, step: int = 5):
    by_bytes, by_file = loop_outcomes(data)
    assert parse_outcome(parse_edge_list, data) == by_bytes
    assert parse_outcome(parse_edge_list, io.BytesIO(data)) == by_file
    assert parse_outcome(parse_edge_list, NonSeekable(data, step)) == by_file
    assert parse_outcome(parse_edge_list, io.BufferedReader(NonSeekable(data, step))) == by_file


def refuse_line_loop(lines):
    raise AssertionError("line loop called")


def count_line_loop(monkeypatch) -> list:
    """A list that gains one item per call of the line loop, which still
    runs."""
    calls = []
    loop = folty.graph._parse_lines
    monkeypatch.setattr(folty.graph, "_parse_lines", lambda lines: calls.append(1) or loop(lines))
    return calls


def memory_input() -> bytes:
    """About 60k shuffled edges over sparse ids, each pair repeated 1-5
    times, as "src dst t" lines."""
    rng = np.random.default_rng(0xB17E)
    ids = rng.choice(1 << 20, 12000, replace=False)
    u, v = ids[rng.integers(0, len(ids), (2, 20000))]
    reps = rng.integers(1, 6, len(u))
    u, v = np.repeat(u, reps), np.repeat(v, reps)
    t = rng.integers(1_600_000_000, 1_600_000_000 + 365 * 86400, len(u))
    order = rng.permutation(len(u))
    return b"".join(b"%d %d %d\n" % row for row in zip(u[order].tolist(), v[order].tolist(), t[order].tolist()))


def with_self_loops(data: bytes, every: int = 10) -> bytes:
    """`data` with a self-loop line "src src t" after every `every`-th line,
    from that line's own src and t."""
    out = []
    for i, line in enumerate(data.splitlines(keepends=True), start=1):
        out.append(line)
        if i % every == 0:
            u, _, t = line.split()
            out.append(b"%s %s %s\n" % (u, u, t))
    return b"".join(out)


class TestArrayParse:
    """The int64 parse of bytes and binary streams against the line loop,
    which decides every input the array parse hands back. `step` is the
    size of the non-seekable stream's short reads."""

    @pytest.mark.parametrize("step", [1, 7, 64, 1 << 16])
    @pytest.mark.parametrize("name", sorted(PARSE_CASES))
    def test_matches_line_loop(self, name, step):
        assert_parse_matches_loop(PARSE_CASES[name], step)

    @pytest.mark.parametrize("step", [1, 7, 64])
    def test_error_after_many_clean_chunks(self, step):
        lines = [f"{i} {i + 1} {i * 7 % 13}" for i in range(200)]
        lines[150] = "150 151"
        data = ("\n".join(lines) + "\n").encode()
        assert_parse_matches_loop(data, step)
        with pytest.raises(ParseError) as err:
            parse_edge_list(NonSeekable(data, step))
        assert err.value.lineno == 151

    def test_clean_input_skips_line_loop(self, monkeypatch):
        # Blank lines, runs of spaces and tabs, whitespace at either end of
        # a line and signs take the line loop; the graph is the same.
        irregular = b"  1 2\t 3 \r\n\n \t\n4  5 6\t\n7 7 8\n+10\t\t-0   9  "
        canonical = b"1 2 3\n4 5 6\n7 7 8\n10 0 9\n"
        for data in (
            b"1 2 3\r\n\n\t4 5 6\n7 7 8\n+10 -0 9\n",
            irregular,
            b"1 2 3\n4 5 6\n7 7 8\n+10 -0 +9\n",
            canonical,
            canonical[:-1],
            canonical.replace(b" ", b"\t"),
            canonical.replace(b"\n", b"\r\n"),
        ):
            if data is canonical:
                # One space or tab between fields, LF or CRLF: the array parse.
                monkeypatch.setattr(folty.graph, "_parse_lines", refuse_line_loop)
            for source in (data, io.BytesIO(data), NonSeekable(data)):
                g = parse_edge_list(source)
                assert g.edge_lists == ([1, 3, 5], [2, 4, 0], [3, 6, 9])
                assert g.orig == [0, 1, 2, 4, 5, 10] and g.self_loops_dropped == 1

    @pytest.mark.parametrize("name", ["plus_sign", "minus_zero", "tabs_crlf", "int64_extreme_ts"])
    def test_signs_take_line_loop(self, monkeypatch, name):
        """A '+' or '-' anywhere sends the whole input to the line loop,
        once, with the loop's outcome."""
        data = PARSE_CASES[name]
        assert b"+" in data or b"-" in data
        want = parse_outcome(line_loop, data.splitlines())
        calls = count_line_loop(monkeypatch)
        assert parse_outcome(parse_edge_list, data) == want
        assert calls == [1]

    def test_underscores_take_line_loop(self, monkeypatch):
        data = b"1_000 2 3\n"
        want = parse_outcome(line_loop, data.splitlines())
        calls = count_line_loop(monkeypatch)
        assert parse_outcome(parse_edge_list, data) == want
        assert calls == [1]
        assert want == ("graph", [[1], [0], [3]], [2, 1000], 0)

    @pytest.mark.parametrize("data", TWO_VALUE_LINES)
    def test_value_count_takes_line_loop(self, monkeypatch, data):
        calls = count_line_loop(monkeypatch)
        with pytest.raises(ParseError) as err:
            parse_edge_list(data)
        assert err.value.lineno == 2
        assert calls == [1]

    @pytest.mark.parametrize("data", [b"# src dst t\n1 2 3\n", b"1 2 3\n\n4 5 6\n", b"1  2 3\n4 5 6\n"])
    def test_irregular_lines_take_line_loop(self, monkeypatch, data):
        """A comment line, a blank line or a double space sends the whole
        input to the line loop, once, with the loop's outcome."""
        want = parse_outcome(line_loop, data.splitlines())
        calls = count_line_loop(monkeypatch)
        assert parse_outcome(parse_edge_list, data) == want
        assert calls == [1]
        assert want[0] == "graph"

    def test_build_memory_per_edge(self):
        """parse_edge_list on about 60k shuffled edges over sparse ids, each
        pair repeated 1-5 times, and on the same lines with a self-loop line
        after every tenth, which the build drops: the traced peak and the
        bytes the built graph keeps, per kept edge. Measured 118.6 and 69.0
        B/edge over five seeds without the self-loops, 120.9 and 69.0 with
        them; the ceilings leave less than one more int64 column kept, and
        under 10 B/edge at the peak."""
        for data, loops in ((memory_input(), 0), (with_self_loops(memory_input()), 6040)):
            tracemalloc.start()
            try:
                g = parse_edge_list(data)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert g.m + g.self_loops_dropped == data.count(b"\n") > 55000
            assert g.self_loops_dropped == loops
            assert peak < 128 * g.m
            assert kept < 74 * g.m

    def test_parse_memory_per_edge(self):
        """_parse_array alone on test_build_memory_per_edge's input, and on
        it with one self-loop line added: the traced peak per line.
        Measured 27.4 B/line on both: the one int64 buffer of three values
        per line and the separators' 3 bytes per line; a transposed copy of
        the buffer, or a copy of the rows without the self-loops, would add
        24. The self-loops stay in the columns for the build to drop."""
        for data, loops in ((memory_input(), 0), (memory_input() + b"5 5 7\n", 1)):
            tracemalloc.start()
            try:
                u, v, t = folty.graph._parse_array(data)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(t) == data.count(b"\n") > 55000
            assert parse_edge_list(data).self_loops_dropped == loops
            assert peak <= 36 * len(t)

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_self_loops_compacted_by_blocks(self, monkeypatch, block):
        """The array parse keeps self-loops in its columns, and the build
        drops them: the graph is the line loop's. The triangles listed in
        blocks of `block` wedges on its static projection are the
        brute-force set, none with a vertex twice."""
        monkeypatch.setattr(folty.graph, "BLOCK", block)
        rng = random.Random(0x5E1F + block)
        lines = [b"%d %d %d" % (rng.randrange(5), rng.randrange(5), rng.randrange(9)) for _ in range(60)]
        for data in (PARSE_CASES["self_loops"], b"\n".join(lines) + b"\n", b"1 1 0\n" * 7 + b"1 2 3\n"):
            assert len(folty.graph._parse_array(data)[2]) == data.count(b"\n")
            assert_parse_matches_loop(data)
            s = build_static(parse_edge_list(data))
            sets = [set(x) for x in s.adj]
            assert all(u not in sets[u] for u in range(s.n))
            want = {frozenset((u, v, w)) for u in range(s.n) for v in sets[u] for w in sets[u] & sets[v]}
            rows = triangle_rows(degeneracy_order(s))
            assert len(rows) == len(want) and {frozenset(r) for r in rows} == want

    def test_ids_beyond_int64_kept_exact(self):
        g = parse_edge_list(PARSE_CASES["ids_from_2_63"])
        assert g.orig == [1, 2**63, 2**64 + 7]
        assert g.edge_lists == ([1, 0, 1], [0, 2, 2], [5, 6, 7])

    def test_id_only_in_a_self_loop_gets_none(self):
        """An id beyond int64 seen only in a self-loop is ranked with the
        others by from_edges, but the build drops the loop before it gives
        ids, so the id is not a vertex."""
        g = parse_edge_list(PARSE_CASES["self_loop_only_id_beyond_int64"])
        assert (g.n, g.orig, g.self_loops_dropped) == (2, [1, 2], 1)
        assert g.edge_lists == ([0], [1], [3])

    def test_text_input_matches_bytes(self):
        for data in PARSE_CASES.values():
            try:
                text = data.decode()
            except UnicodeDecodeError:
                continue
            if any(c in text for c in "\r\x0b\x0c"):  # line breaks for str.splitlines only
                continue
            want = parse_outcome(parse_edge_list, io.BytesIO(data))
            assert parse_outcome(parse_edge_list, text) == want
            assert parse_outcome(parse_edge_list, io.StringIO(text)) == want

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from(
                    ["0", "1", "2", "17", "-3", "+4", "1_0", "-0", "#", "#5", "x", "9" * 19,
                     "-" + "9" * 19, "\u0663", "\xa0", "\x1c", "\xff"]
                ),
                max_size=5,
            ),
            max_size=12,
        ),
        st.lists(st.sampled_from([" ", "  ", "\t", "\x0b"]), min_size=1),
        st.sampled_from(["\n", "\r\n", "\r"]),
        st.booleans(),
    )
    def test_line_soup_matches_line_loop(self, lines, seps, eol, final_eol):
        text = eol.join(seps[i % len(seps)].join(fields) for i, fields in enumerate(lines))
        data = (text + (eol if final_eol else "")).encode("utf-8", "surrogateescape")
        data = data.replace("\xff".encode(), b"\xff")
        assert_parse_matches_loop(data)


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


def stable_order_reference(keys):
    """_stable_order by definition: the stable argsort, the dense rank of
    each sorted key and where each run of equal keys starts."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    distinct = sorted(set(keys.tolist()))
    rank = [distinct.index(k) for k in ordered.tolist()]
    starts = [i for i in range(len(ordered)) if i == 0 or ordered[i] != ordered[i - 1]]
    return order.tolist(), rank, starts


I64 = np.iinfo(np.int64)
STABLE_ORDER_CASES = {
    "empty": [],
    "one": [5],
    "all-equal": [3] * 40,
    "sorted": list(range(-20, 20)),
    "reverse": list(range(20, -20, -1)),
    "two": [1, 0],
    "many-ties": [(i * 7) % 5 for i in range(60)],
    "int64-extremes": [I64.max, I64.min, 0, I64.min, I64.max, -1, I64.max, I64.min],
}


class TestStableOrder:
    """graph._stable_order, built from unstable sorts, against the stable
    argsort."""

    @pytest.mark.parametrize("name", sorted(STABLE_ORDER_CASES))
    def test_matches_stable_argsort(self, name):
        keys = np.array(STABLE_ORDER_CASES[name], dtype=np.int64)
        order, rank, starts = folty.graph._stable_order(keys)
        assert (order.tolist(), rank.tolist(), starts.tolist()) == stable_order_reference(keys)
        assert order.dtype == rank.dtype == np.int64

    @pytest.mark.parametrize("name", sorted(STABLE_ORDER_CASES))
    def test_overflow_fallback_matches_composite(self, monkeypatch, name):
        """With the composite taken to overflow, the stable argsort gives
        the same (order, rank, starts)."""
        keys = np.array(STABLE_ORDER_CASES[name], dtype=np.int64)
        want = [a.tolist() for a in folty.graph._stable_order(keys)]
        monkeypatch.setattr(folty.graph, "_I64_MAX", -1)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            got = folty.graph._stable_order(keys)
        assert argsort.call_args.kwargs == {"kind": "stable"}
        assert [a.tolist() for a in got] == want
        assert got[0].dtype == got[1].dtype == np.int64

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=-4, max_value=4) | st.sampled_from([I64.min, I64.max]), max_size=80))
    def test_matches_stable_argsort_random(self, values):
        keys = np.array(values, dtype=np.int64)
        order, rank, starts = folty.graph._stable_order(keys)
        assert (order.tolist(), rank.tolist(), starts.tolist()) == stable_order_reference(keys)


def reference_graph(edges):
    """The graph arrays of edge triples as the stable argsorts define them:
    self-loops dropped, ids ranked, edges by (t, input order), pairs by
    (key, eid)."""
    kept = [e for e in edges if e[0] != e[1]]
    orig = sorted({x for u, v, _ in kept for x in (u, v)})
    rank = {x: i for i, x in enumerate(orig)}
    n = len(orig)
    u = np.array([rank[e[0]] for e in kept], dtype=np.int64)
    v = np.array([rank[e[1]] for e in kept], dtype=np.int64)
    t = np.array([e[2] for e in kept], dtype=np.int64)
    order = np.argsort(t, kind="stable")
    u, v, t = u[order], v[order], t[order]
    key = u * n + v
    pair_eid = np.argsort(key, kind="stable")
    pair_key, pair_start = np.unique(key[pair_eid], return_index=True)
    t_distinct, t_rank = np.unique(t, return_inverse=True)
    pid = np.repeat(np.arange(len(pair_key)), np.diff(np.append(pair_start, len(t))))
    return {
        "src": u,
        "dst": v,
        "ts": t,
        "pair_key": pair_key,
        "pair_start": np.append(pair_start, len(t)),
        "pair_eid": pair_eid,
        "pair_ts": t[pair_eid],
        "t_distinct": t_distinct,
        "pair_comp": pid * len(t_distinct) + t_rank[pair_eid],
        "orig": orig,
        "self_loops_dropped": len(edges) - len(kept),
    }


GRAPH_ARRAYS = ("src", "dst", "ts", "pair_key", "pair_start", "pair_eid", "pair_ts", "t_distinct", "pair_comp")


def graph_arrays(g):
    assert all(getattr(g, name).dtype == np.int64 for name in GRAPH_ARRAYS)
    got = {name: getattr(g, name).tolist() for name in GRAPH_ARRAYS}
    return {**got, "orig": g.orig, "self_loops_dropped": g.self_loops_dropped}


def build_corpus():
    """Edge triples whose builds take every branch of the time order, the
    pair order and the id remap."""
    rng = random.Random(91)
    base = [(rng.randrange(12), rng.randrange(12), rng.randrange(6)) for _ in range(150)]
    by_time = sorted(base, key=lambda e: e[2])
    yield "duplicates-and-loops", base + base[:40] + [(3, 3, 1), (7, 7, 0), (40, 40, 2)]  # 40 only in a loop
    yield "sorted", by_time
    yield "reverse", by_time[::-1]
    yield "all-equal", [(u, v, 9) for u, v, _ in base]
    yield "int64-extremes", [(u, v, (I64.min, I64.max, 0)[t % 3]) for u, v, t in base]
    sparse = rng.sample(range(10**12), 20)
    yield "sparse-ids", [(sparse[u], sparse[v + 8], t) for u, v, t in base]


class TestBuildOrders:
    """Every graph array against the stable argsorts, through the array
    parse, the line loop, from_edges and the constructor, and with either
    id remap."""

    @pytest.mark.parametrize("ratio", [0, 10**9])
    @pytest.mark.parametrize("name,edges", list(build_corpus()))
    def test_arrays_match_stable_argsorts(self, monkeypatch, ratio, name, edges):
        monkeypatch.setattr(folty.graph, "ID_TABLE_RATIO", ratio)
        want = {k: (v if isinstance(v, (int, list)) else v.tolist()) for k, v in reference_graph(edges).items()}
        data = "".join(f"{u} {v} {t}\n" for u, v, t in edges).encode()
        direct = TemporalGraph(*np.array(edges, dtype=np.int64).T)
        for g in (parse_edge_list(data), line_loop(data.splitlines()), TemporalGraph.from_edges(edges), direct):
            assert graph_arrays(g) == want

    def test_time_sorted_input_skips_the_sort(self):
        by_time = b"1 2 5\n2 3 5\n3 1 7\n1 2 9\n"
        shuffled = b"3 1 7\n1 2 5\n1 2 9\n2 3 5\n"
        with mock.patch.object(folty.graph, "_stable_order", wraps=folty.graph._stable_order) as spy:
            g = parse_edge_list(by_time)
            assert spy.call_count == 1  # the pair order only
            assert parse_edge_list(shuffled).ts.tolist() == g.ts.tolist()
            assert spy.call_count == 3

    @pytest.mark.parametrize("data", [b"1 2 5\n2 3 6\n", b"2 3 6\n1 2 5\n", b"1 2 5\n4 4 5\n2 3 6\n"])
    def test_columns_own_their_memory(self, data):
        """No graph column is a view that keeps the parse's (3, m) block alive."""
        g = parse_edge_list(data)
        for name in ("src", "dst", "ts", "pair_eid", "pair_ts", "pair_comp"):
            assert getattr(g, name).base is None, name


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
        assert s.sum_edge_degree() == 3

    def test_common_matches_brute_on_random_graphs(self):
        rng = random.Random(7)
        randoms = [build_static(random_temporal_graph(rng, max_vertices=50, max_edges=200)) for _ in range(25)]
        # Equal-degree endpoints, which the peel orders by id within a
        # batch: a cycle, the octahedron, and a 4-regular circulant under
        # shuffled labels.
        label = list(range(20))
        rng.shuffle(label)
        ties = [
            static_from_edges(9, [(i, (i + 1) % 9) for i in range(9)]),
            static_from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if v != u + 1 or u % 2]),
            static_from_edges(20, [(label[i], label[(i + j) % 20]) for i in range(20) for j in (1, 2)]),
        ]
        for s in chain(randoms, peel_shapes(), ties):
            check_common_counts(s)

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_common_counts_in_small_blocks(self, monkeypatch, block):
        monkeypatch.setattr(folty.graph, "BLOCK", block)
        rng = random.Random(11 + block)
        for _ in range(10):
            check_common_counts(build_static(random_temporal_graph(rng, max_vertices=20, max_edges=120)))

    @pytest.mark.parametrize("u, v", [(1, 3), (3, 3), (0, 0), (0, 4), (3, 4), (4, 0)])
    def test_common_of_refuses_non_edges(self, u, v):
        """A pair that is not a static edge raises, named, instead of
        reading another edge's count or the end of the array; (3, 4)
        searches past the last key."""
        s = build_static(parse_edge_list(b"0 1 1\n1 2 2\n0 2 3\n2 3 4\n"))
        assert s.common_of(np.array([0, 2]), np.array([2, 3])).tolist() == [1, 0]
        with pytest.raises(ValueError, match=rf"^\({u}, {v}\) is not a static edge$"):
            s.common_of(np.array([0, u, 1]), np.array([1, v, 3]))

    def test_common_of_on_the_empty_graph(self):
        s = build_static(TemporalGraph.from_edges([]))
        assert s.common_of(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)).tolist() == []
        with pytest.raises(ValueError, match="is not a static edge"):
            s.common_of(np.array([0]), np.array([1]))

    def test_pair_common_matches_definition(self):
        """Each directed pair's common count, through its static edge: on
        random graphs of reciprocal pairs of unequal multiplicity and
        one-way pairs, and on the empty graph."""
        rng = random.Random(29)
        graphs, reciprocal, one_way = [TemporalGraph.from_edges([])], 0, 0
        for _ in range(40):
            n = rng.randint(2, 25)
            mult = {}
            for _ in range(rng.randint(1, 90)):
                mult[tuple(rng.sample(range(n), 2))] = rng.randint(1, 5)
            reciprocal += sum(mult.get((y, x), k) != k for (x, y), k in mult.items())
            one_way += sum((y, x) not in mult for x, y in mult)
            graphs.append(TemporalGraph.from_edges([(x, y, rng.randrange(60)) for (x, y), k in mult.items() for _ in range(k)]))
        assert reciprocal and one_way
        for g in graphs:
            s = build_static(g)
            got = g.pair_common(s)
            x, y = np.divmod(g.pair_key, g.n)
            sets = s.adj_sets
            assert got.tolist() == [len(sets[a] & sets[b]) for a, b in zip(x.tolist(), y.tolist())]
            assert got.tolist() == s.common_of(x, y).tolist()
            assert g.pair_common(s) is got


def check_common_counts(s):
    """common_counts of copies of s against brute force: with no ordering
    built, after one degeneracy_order and after two. The counts come from
    the last ordering's triangle entries, or from one common_counts builds.
    common_of reads the same counts for the edges, either way round."""
    sets = [set(a) for a in s.adj]
    want = [len(sets[u] & sets[v]) for u, v in s.edges]
    for built in range(3):
        fresh = StaticGraph(s.n, s.adj_start, s.adj_nbr)
        orderings = [degeneracy_order(fresh) for _ in range(built)]
        assert fresh.common_counts().tolist() == want
        assert fresh.common_of(fresh.edge_u, fresh.edge_v).tolist() == want
        assert fresh.common_of(fresh.edge_v, fresh.edge_u).tolist() == want
        assert fresh._ordering._triangle_entries is not None
        if orderings:
            assert fresh._ordering is orderings[-1]
            assert all(o._triangle_entries is None for o in orderings[:-1])


def static_from_edges(n, edges):
    """A StaticGraph on vertices 0..n-1, isolated ones allowed, built
    straight from its CSR arrays."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    start = np.cumsum([0] + [len(x) for x in nbrs], dtype=np.int64)
    return StaticGraph(n, start, np.array([w for x in nbrs for w in sorted(x)], dtype=np.int64))


def static_corpus(seed):
    """Static graphs of every shape the array layers branch on."""
    rng = random.Random(seed)
    yield static_from_edges(0, [])
    yield static_from_edges(5, [])
    yield static_from_edges(9, [(0, leaf) for leaf in range(1, 9)])  # star
    yield static_from_edges(12, [(u, v) for u in range(12) for v in range(u + 1, 12)])  # K12
    yield static_from_edges(10, [(1, 4), (4, 7), (1, 7), (7, 8)])  # isolated vertices
    for _ in range(20):
        yield build_static(random_temporal_graph(rng, max_vertices=25, max_edges=200))
    for _ in range(10):
        n = rng.randint(1, 30)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        yield static_from_edges(n, edges)


class TestStaticArrays:
    """The CSR static graph and its list views against their definitions."""

    def test_list_views_match_definitions(self):
        for s in static_corpus(61):
            nbrs = [s.adj_nbr[s.adj_start[u] : s.adj_start[u + 1]].tolist() for u in range(s.n)]
            assert s.adj == nbrs
            assert all(a == sorted(set(a)) and u not in a for u, a in enumerate(s.adj))
            assert s.degree == [len(a) for a in nbrs]
            edges = sorted((u, v) for u in range(s.n) for v in nbrs[u] if u < v)
            assert s.edges == edges
            assert list(zip(s.edge_u.tolist(), s.edge_v.tolist())) == edges
            assert s.edge_u.dtype == s.edge_v.dtype == np.int64

    def test_payload_types_are_int(self):
        for s in static_corpus(62):
            assert all(type(d) is int for d in s.degree)
            assert all(type(x) is int for e in s.edges for x in e)
            assert all(type(x) is int for a in s.adj for x in a)
            assert type(s.sum_edge_degree()) is int

    def test_sum_edge_degree_brute_force(self):
        for s in static_corpus(63):
            sets = [set(a) for a in s.adj]
            want = sum(min(len(sets[u]), len(sets[v])) for u in range(s.n) for v in sets[u] if u < v)
            assert s.sum_edge_degree() == want


def out_lists(ordering):
    """u's out-neighbors in the orientation, as one list per vertex."""
    bounds = ordering.out_start.tolist()
    return [ordering.out_nbr[lo:hi].tolist() for lo, hi in zip(bounds, bounds[1:])]


def triangle_rows(ordering):
    """(a, b, c) for each row (ab, ac, bc) of triangle_entries, after
    checking that the three entries are the edges a -> b, a -> c and
    b -> c."""
    tail = np.repeat(np.arange(len(ordering.out_start) - 1), np.diff(ordering.out_start))
    head = ordering.out_nbr
    ab, ac, bc = ordering.triangle_entries()
    assert tail[ac].tolist() == tail[ab].tolist()
    assert tail[bc].tolist() == head[ab].tolist() and head[bc].tolist() == head[ac].tolist()
    return list(zip(tail[ab].tolist(), head[ab].tolist(), head[ac].tolist()))


class TestOrientation:
    """The CSR out-orientation against the peel's ranks."""

    def test_out_adj_matches_definition(self):
        for s in static_corpus(64):
            o = degeneracy_order(s)
            assert sorted(o.pi) == list(range(s.n)) and all(type(r) is int for r in o.pi)
            want = [sorted(v for v in s.adj[u] if o.pi[v] > o.pi[u]) for u in range(s.n)]
            assert o.out_start.tolist() == np.cumsum([0] + [len(a) for a in want]).tolist()
            assert o.out_nbr.tolist() == [v for a in want for v in a]
            assert o.out_start.dtype == o.out_nbr.dtype == np.int64


def old_oriented_triangles(ordering):
    """The (a, b, cs) sequence of the list intersection the arrays replace."""
    out_adj = out_lists(ordering)
    for a, na in enumerate(out_adj):
        for b in na:
            common = sorted(set(na) & set(out_adj[b]))
            if common:
                yield a, b, common


class TestTriangles:
    """DegeneracyOrdering.triangle_entries against a brute-force triangle set."""

    @pytest.mark.parametrize("block", [1, 2, 7, folty.graph.BLOCK])
    def test_match_brute_force(self, monkeypatch, block):
        monkeypatch.setattr(folty.graph, "BLOCK", block)
        for s in static_corpus(65 + block):
            o = degeneracy_order(s)
            sets = [set(x) for x in s.adj]
            want = {
                frozenset((u, v, w))
                for u in range(s.n) for v in sets[u] for w in sets[u] & sets[v]
            }
            assert all(column.dtype == np.int64 for column in o.triangle_entries())
            rows = triangle_rows(o)
            assert rows == sorted(rows)
            assert all(o.pi[x] < o.pi[y] < o.pi[z] for x, y, z in rows)
            assert len(rows) == len(want) and {frozenset(r) for r in rows} == want

    @pytest.mark.parametrize("block", [1, 2, 7, folty.graph.BLOCK])
    def test_view_yields_old_sequence(self, monkeypatch, block):
        monkeypatch.setattr(folty.graph, "BLOCK", block)
        for s in static_corpus(66 + block):
            o = degeneracy_order(s)
            got = list(oriented_triangles(s, o))
            assert got == list(old_oriented_triangles(o))
            assert all(type(x) is int for a, b, cs in got for x in (a, b, *cs))

    def test_built_once_per_ordering(self):
        o = degeneracy_order(static_from_edges(12, [(u, v) for u in range(12) for v in range(u + 1, 12)]))
        assert o.triangle_entries() is o.triangle_entries()
        assert len(o.triangle_entries()[0]) == 220

    def test_entries_are_the_triangle_edges(self):
        for s in static_corpus(68):
            o = degeneracy_order(s)
            rows = triangle_rows(o)
            assert rows == [(a, b, c) for a, b, cs in oriented_triangles(s, o) for c in cs]


class TestEntryPairs:
    """TemporalGraph.entry_pairs: the pair ids of both directions of each
    oriented edge a triangle uses, cached per ordering."""

    def test_matches_pair_keys(self):
        rng = random.Random(69)
        for _ in range(30):
            g = random_temporal_graph(rng, max_vertices=14, max_edges=90)
            o = degeneracy_order(build_static(g))
            fwd, bwd = g.entry_pairs(o)
            used = set(np.concatenate(o.triangle_entries()).tolist())
            pid = {divmod(key, g.n): p for p, key in enumerate(g.pair_key.tolist())}
            for e, (x, y) in enumerate((u, v) for u, nbrs in enumerate(out_lists(o)) for v in nbrs):
                want = (pid.get((x, y), -1), pid.get((y, x), -1)) if e in used else (-1, -1)
                assert (fwd[e], bwd[e]) == want
            assert fwd.dtype == bwd.dtype == np.int64

    def test_cached_per_ordering(self):
        g = TemporalGraph.from_edges([(1, 2, 1), (1, 3, 2), (3, 2, 3), (2, 1, 4)])
        s = build_static(g)
        o = degeneracy_order(s)
        first = g.entry_pairs(o)
        assert all(x is y for x, y in zip(g.entry_pairs(o), first))
        other = degeneracy_order(s)
        again = g.entry_pairs(other)
        assert again[0] is not first[0]
        assert all(np.array_equal(x, y) for x, y in zip(again, first))

    def test_triangle_free_and_empty(self):
        for g in (TemporalGraph.from_edges([]), TemporalGraph.from_edges([(1, 2, 1), (2, 3, 2), (3, 4, 3)])):
            o = degeneracy_order(build_static(g))
            fwd, bwd = g.entry_pairs(o)
            assert fwd.tolist() == bwd.tolist() == [-1] * len(o.out_nbr)


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
        out = {g.orig[u]: sorted(g.orig[v] for v in nbrs) for u, nbrs in enumerate(out_lists(o))}
        assert out == {1: [2, 3], 2: [3], 3: []}

    def test_star_alpha_one(self):
        g = TemporalGraph.from_edges([(1, 2, 1), (1, 3, 2), (1, 4, 3)])
        assert degeneracy_order(build_static(g)).alpha == 1

    def test_out_degree_bounded_by_alpha(self):
        rng = random.Random(41)
        for _ in range(20):
            g = random_temporal_graph(rng, max_vertices=40, max_edges=250)
            o = degeneracy_order(build_static(g))
            assert all(len(nbrs) <= o.alpha for nbrs in out_lists(o))

    def test_orientation_partitions_static_edges(self):
        rng = random.Random(42)
        for _ in range(20):
            g = random_temporal_graph(rng, max_vertices=40, max_edges=250)
            s = build_static(g)
            o = degeneracy_order(s)
            oriented = {(u, v) for u, nbrs in enumerate(out_lists(o)) for v in nbrs}
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
        assert list(stats.as_dict()) == ["n", "m", "alpha", "sigma_max", "sum_edge_degree"]

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

    def test_sigma_max_reciprocal_pairs_of_unequal_multiplicity(self):
        """Reverse keys that sort in another order than the pairs: each pair
        must meet its own reverse pair's multiplicity."""
        mult = {(0, 9): 1, (9, 0): 2, (1, 2): 4, (2, 1): 1, (8, 3): 3, (3, 8): 2, (5, 4): 1, (6, 7): 6}
        edges = [(x, y, t) for (x, y), k in mult.items() for t in range(k)]
        g = TemporalGraph.from_edges(edges)
        assert g.sigma_max() == 6
        g = TemporalGraph.from_edges([e for e in edges if e[:2] != (6, 7)])
        assert g.sigma_max() == 5


def heap_peel_alpha(s):
    """alpha of the one-vertex-at-a-time min-degree peel (lazy heap), the
    rule the level batches replaced."""
    deg = list(s.degree)
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    removed = [False] * s.n
    alpha = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        alpha = max(alpha, d)
        for u in s.adj[v]:
            if not removed[u]:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    return alpha


def level_batches(s):
    """The peel's batches, replayed from the rule with sets: (level, batch
    as removed, each vertex's residual degree when its batch formed)."""
    alive = set(range(s.n))
    deg = list(s.degree)
    k = 0
    batch = {v for v in alive if deg[v] <= k}
    out = []
    while alive:
        if not batch:
            k = min(deg[v] for v in alive)
            batch = {v for v in alive if deg[v] <= k}
        ordered = sorted(batch, key=lambda v: (deg[v], v))
        out.append((k, ordered, [deg[v] for v in ordered]))
        alive -= batch
        touched = set()
        for v in ordered:
            for u in s.adj[v]:
                if u in alive:
                    deg[u] -= 1
                    touched.add(u)
        batch = {u for u in touched if deg[u] <= k}
    return out


def peel_shapes():
    yield static_from_edges(0, [])
    yield static_from_edges(1, [])
    yield static_from_edges(300, [(i, i + 1) for i in range(299)])  # path
    yield static_from_edges(200, [(0, leaf) for leaf in range(1, 200)])  # star
    yield static_from_edges(80, [(u, v) for u in range(80) for v in range(u + 1, 80)])  # K80
    rng = random.Random(71)
    yield static_from_edges(500, [(rng.randrange(i), i) for i in range(1, 500) if i % 50])  # forest
    yield static_from_edges(400, [(r * 20 + c, r * 20 + c + 1) for r in range(20) for c in range(19)]
                            + [(r * 20 + c, r * 20 + c + 20) for r in range(19) for c in range(20)])  # grid
    yield from static_corpus(72)


class TestLevelPeel:
    """The level-batch rule, replayed, and its independence of PEEL_BATCH."""

    def test_order_replays_level_batches(self):
        for s in peel_shapes():
            o = degeneracy_order(s)
            batches = level_batches(s)
            assert o.order == [v for _, batch, _ in batches for v in batch]
            levels = [k for k, _, _ in batches]
            assert levels == sorted(levels)
            for k, batch, degs in batches:
                assert all(d <= k for d in degs)
                assert list(zip(degs, batch)) == sorted(zip(degs, batch))
            assert o.alpha == (levels[-1] if levels else 0)
            assert all(type(v) is int for v in o.order + o.pi)

    def test_alpha_matches_heap_peel(self):
        for s in peel_shapes():
            o = degeneracy_order(s)
            assert o.alpha == heap_peel_alpha(s)
            assert int(np.diff(o.out_start).max(initial=0)) == o.alpha

    def test_named_shapes(self):
        path, star, clique = list(peel_shapes())[2:5]
        assert degeneracy_order(path).alpha == 1
        assert degeneracy_order(star).alpha == 1
        assert degeneracy_order(star).order[-1] == 0
        assert degeneracy_order(clique).alpha == 79
        assert degeneracy_order(clique).order == list(range(80))

    @pytest.mark.parametrize("batch", [1, 2, 10**9])
    def test_same_order_in_loop_and_arrays(self, monkeypatch, batch):
        shapes = list(peel_shapes())
        want = [degeneracy_order(s) for s in shapes]
        monkeypatch.setattr(folty.graph, "PEEL_BATCH", batch)
        for s, w in zip(shapes, want):
            o = degeneracy_order(s)
            assert (o.pi, o.order, o.alpha) == (w.pi, w.order, w.alpha)
            assert o.out_start.tolist() == w.out_start.tolist()
            assert o.out_nbr.tolist() == w.out_nbr.tolist()


def remap_columns():
    """(u, v, t) int64 columns of loop-free edges, and labels for the ids
    beyond int64."""
    rng = np.random.default_rng(73)
    yield np.array([3, 0, 5, 1]), np.array([0, 2, 1, 4]), np.array([5, 1, 1, 0]), None
    u = rng.integers(0, 50, 400)
    yield u, (u + rng.integers(1, 50, 400)) % 50, rng.integers(-3, 3, 400), None  # dense
    u = rng.integers(0, 10**6, 300)
    yield u, u + rng.integers(1, 10**6, 300), rng.integers(0, 9, 300), None  # spread
    u = rng.integers(0, 2**40, 300)
    yield u, u + rng.integers(1, 2**20, 300), rng.integers(0, 9, 300), None  # beyond an int32 table
    yield np.array([0, 2**63 - 1, 7]), np.array([2**63 - 1, 0, 0]), np.array([2, 1, 2]), None
    yield np.array([-5, 3, 0]), np.array([2, -5, 3]), np.array([1, 1, 0]), None  # from_edges takes negative ids
    g = TemporalGraph.from_edges([(2**64 + 9, 0, 3), (5, 2**70, 1), (0, 5, 1)])
    yield g.src, g.dst, g.ts, g.orig  # ranks of Python-int labels
    empty = np.zeros(0, dtype=np.int64)
    yield empty, empty, empty, None


class TestIdRemap:
    """The rank table and the sort + searchsorted remap agree."""

    def build(self, monkeypatch, ratio, columns):
        monkeypatch.setattr(folty.graph, "ID_TABLE_RATIO", ratio)
        u, v, t, labels = columns
        with mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as spy:
            g = TemporalGraph(u.astype(np.int64), v.astype(np.int64), t.astype(np.int64), labels=labels)
        return g, spy.call_count

    def test_table_and_searchsorted_agree(self, monkeypatch):
        for columns in remap_columns():
            table, calls = self.build(monkeypatch, 10**9, columns)
            ids = np.concatenate(columns[:2])
            assert calls == (0 if ids.min(initial=0) >= 0 and ids.max(initial=0) < 2**31 - 1 else 2)
            search, calls = self.build(monkeypatch, 0, columns)
            assert calls == 2 or not len(columns[2])
            assert table.orig == search.orig
            for name in ("src", "dst", "ts"):
                assert getattr(table, name).tolist() == getattr(search, name).tolist()
                assert getattr(table, name).dtype == np.int64
            assert table.orig == (columns[3] or sorted(set(ids.tolist())))

    def test_dense_ids_use_the_table(self, monkeypatch):
        columns = list(remap_columns())[1]
        _, calls = self.build(monkeypatch, folty.graph.ID_TABLE_RATIO, columns)
        assert calls == 0
        for spread in list(remap_columns())[2:4]:
            _, calls = self.build(monkeypatch, folty.graph.ID_TABLE_RATIO, spread)
            assert calls == 2

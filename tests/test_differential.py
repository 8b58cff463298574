"""Seeded differential battery: the folty, practical and oracle engines give
equal per-edge counts, and the array thresholds give the oracle's solution
sets, on the shapes that fixed-width integer arithmetic and blocked
vectorization put at risk."""

import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import folty.engine
import folty.graph
from folty import cli
from folty.engine import CountTable, compute_counts, count_tables, oriented_triangles
from folty.graph import TemporalGraph, build_static, degeneracy_order, parse_edge_list
from folty.oracle import oracle_counts, oracle_solutions
from folty.queries import (
    ParameterError,
    QuerySpec,
    Universe,
    eval_eaa,
    eval_eae,
    eval_eea,
    practical_counts,
    practical_eea,
)

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1
DELTAS = (0, 1, 2**62, I64_MAX, 10**30)


def assert_engines_agree(g, deltas=DELTAS):
    static = build_static(g)
    ordering = degeneracy_order(static)
    for delta in deltas:
        want = oracle_counts(g, delta, static).count
        assert compute_counts(g, delta, static, ordering).totals() == want, delta
        assert practical_counts(g, static, delta) == want, delta


def random_edges(rng, n, m, timestamps):
    edges = []
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, rng.choice(timestamps)))
    return edges


def out_expansions(g):
    """Entries the out pass expands: the lists of the pairs touching each
    triangle's low vertex."""
    static = build_static(g)
    total = 0
    for a, b, cs in oriented_triangles(static, degeneracy_order(static)):
        for c in cs:
            total += g.sigma(a, b) + g.sigma(b, a) + g.sigma(a, c) + g.sigma(c, a)
    return total


def test_int64_extreme_timestamps():
    rng = random.Random(0xD1F0)
    edge_ts = [I64_MIN, I64_MIN + 1, I64_MIN + 2**62, -1, 0, 1, I64_MAX - 2**62, I64_MAX - 1, I64_MAX]
    for _ in range(40):
        edges = random_edges(rng, rng.randint(3, 8), rng.randint(3, 60), edge_ts)
        text = "".join(f"{u} {v} {t}\n" for u, v, t in edges)
        assert_engines_agree(parse_edge_list(text))


def test_extreme_span_counts():
    # one triangle spanning the whole int64 range closes only once delta
    # reaches 2^64 - 1; no smaller window admits it
    g = TemporalGraph.from_edges([(1, 2, I64_MIN), (1, 3, 0), (2, 3, I64_MAX)])
    assert_engines_agree(g, DELTAS + (2**64 - 2, 2**64 - 1, 2**64))
    assert compute_counts(g, 2**64 - 2).totals() == [0, 0, 0]
    assert compute_counts(g, 2**64 - 1).totals() == [1, 0, 0]


def test_heavy_pair():
    rng = random.Random(0xD1F1)
    heavy = [(1, 2, rng.randint(0, 10**6)) for _ in range(3000)]
    light = random_edges(rng, 5, 400, list(range(0, 10**6, 997)))
    g = TemporalGraph.from_edges(heavy + [(u + 1, v + 1, t) for u, v, t in light])
    assert g.sigma_max() >= 3000
    assert_engines_agree(g, (0, 1000, 50_000, 10**30))


def test_star_and_clique_cores():
    rng = random.Random(0xD1F2)
    times = list(range(50))
    # star: hub 0 with 40 leaves, a few leaf-leaf chords closing triangles
    star = [(0, leaf, t) if rng.random() < 0.5 else (leaf, 0, t)
            for leaf in range(1, 41) for t in rng.sample(times, 3)]
    star += [(leaf, leaf + 1, rng.choice(times)) for leaf in range(1, 40, 3)]
    assert_engines_agree(TemporalGraph.from_edges(star), (0, 1, 5, 2**62))
    # clique: K_9 with up to four parallel edges per direction
    clique = [(u, v, rng.choice(times))
              for u in range(9) for v in range(9) if u != v
              for _ in range(rng.randint(0, 4))]
    assert_engines_agree(TemporalGraph.from_edges(clique), (0, 1, 5, 2**62))


def test_duplicate_and_crlf_lines():
    rng = random.Random(0xD1F3)
    lines = [f"{u} {v} {t}" for u, v, t in random_edges(rng, 7, 80, list(range(-20, 20)))]
    lines += rng.sample(lines, 30)  # exact duplicates stay parallel edges
    rng.shuffle(lines)
    crlf = parse_edge_list(("# header\r\n" + "\r\n".join(lines) + "\r\n").encode())
    lf = parse_edge_list("\n".join(lines) + "\n")
    assert crlf.m == lf.m == 110
    assert crlf.edge_lists == lf.edge_lists
    assert_engines_agree(crlf, (0, 1, 5, 2**62))


def test_empty_input():
    for g in (parse_edge_list(""), parse_edge_list(b"# nothing\n3 3 7\n")):
        assert g.m == 0
        assert_engines_agree(g)
        ct = compute_counts(g, 10)
        assert (ct.in_count, ct.out_count) == ([], [])


#: Hand-built triangles on 1, 2, 3 that end a practical chain at each of
#: its exits, and the oracle's total over all edges at the largest delta.
#: For static edge (1, 2) and witness 3 the chain reads L1 = E_12,
#: L2 = E_13 and L3 = E_23; the other five chains permute the pairs.
CHAIN_EXITS = {
    "l1-after-l2-end": ([(1, 2, 1), (1, 2, 5), (1, 2, 9), (1, 3, 3), (2, 3, 4)], 1),
    "l3-ends-before-later-l2": ([(1, 2, 1), (1, 2, 6), (1, 2, 8), (1, 3, 2), (1, 3, 7), (2, 3, 3)], 1),
    "equal-times": ([(x, y, 5) for x in (1, 2, 3) for y in (1, 2, 3) if x != y], 6),
    "equal-times-one-late": ([(1, 2, 5), (1, 3, 5), (2, 3, 5), (2, 1, 5), (3, 1, 5), (3, 2, 6)], 4),
    "duplicate-l1": ([(1, 2, 2), (1, 2, 2), (1, 2, 2), (1, 2, 5), (1, 3, 3), (1, 3, 3), (2, 3, 3), (2, 3, 4)], 3),
    "l1-absent": ([(2, 1, 1), (1, 3, 2), (3, 2, 3), (2, 3, 4)], 0),
    "l2-absent": ([(1, 2, 1), (1, 3, 2), (2, 3, 3), (3, 2, 4)], 1),
    "l3-absent": ([(1, 2, 1), (1, 3, 0), (2, 3, 2), (1, 3, 4), (2, 3, 5)], 1),
}


@pytest.mark.parametrize("name", CHAIN_EXITS)
def test_practical_chain_exits(name):
    edges, total = CHAIN_EXITS[name]
    g = TemporalGraph.from_edges(edges)
    static = build_static(g)
    for delta in (0, 1, 2, 3, 5, 10**30):
        assert practical_counts(g, static, delta) == oracle_counts(g, delta, static).count, delta
    assert sum(oracle_counts(g, 10**30, static).count) == total


def test_expansions_span_several_blocks():
    rng = random.Random(0xD1F4)
    clique = [(u, v, rng.randint(0, 2000))
              for u in range(12) for v in range(12) if u != v
              for _ in range(rng.randint(30, 40))]
    g = TemporalGraph.from_edges(clique)
    assert out_expansions(g) > 3 * folty.graph.BLOCK
    assert_engines_agree(g, (0, 3, 40, 2**62))


@pytest.mark.parametrize("block", [1, 2, 7, 64])
def test_small_blocks(monkeypatch, block):
    monkeypatch.setattr(folty.graph, "BLOCK", block)
    rng = random.Random(0xD1F5 + block)
    for _ in range(15):
        n = rng.randint(3, 12)
        g = TemporalGraph.from_edges(random_edges(rng, n, rng.randint(3, 120), list(range(30))))
        assert_engines_agree(g, (0, 1, 5, 2**62))


def test_cli_huge_delta(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(f"1 2 {I64_MIN}\n1 3 0\n2 3 {I64_MAX}\n1 2 5\n2 3 9\n")
    reports = {}
    for engine in ("folty", "practical", "oracle"):
        argv = ["query", "eea", str(path), "--delta", "100000000000000000000",
                "--tau", "0.5", "--engine", engine]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        reports[engine] = report["solutions"]
    assert reports["folty"] == reports["practical"] == reports["oracle"]
    # only (1, 2, -2^63) closes, through 1 -> 3 at 0 and 2 -> 3 at 9
    assert [(s["src"], s["dst"], s["t"]) for s in reports["folty"]] == [(1, 2, I64_MIN)]


THRESHOLDS = (Fraction(1, 10**30), Fraction(1, 3), Fraction(10**30 - 1, 10**30), Fraction(1))


def assert_thresholds_match_oracle(g, deltas=(0, 5, 2**62)):
    """eval_eea/eae/eaa over every threshold pair and both universes equal
    oracle_solutions, with payload fields that are plain ints."""
    static = build_static(g)
    for delta in deltas:
        table = compute_counts(g, delta, static)
        counts = oracle_counts(g, delta, static).count

        def check(mine, kind, tau, tau2=None, universe=Universe.DST):
            spec = QuerySpec(kind, delta, tau, tau2, universe)
            assert mine == oracle_solutions(g, delta, spec, static, counts=counts), spec
            assert all(type(field) is int for sol in mine.solutions for field in sol)
            json.dumps([sol._asdict() for sol in mine.solutions])

        for tau in THRESHOLDS:
            check(eval_eae(g, static, table, tau), "eae", tau)
            for universe in Universe:
                check(eval_eea(g, static, table, tau, universe), "eea", tau, None, universe)
                for tau2 in THRESHOLDS:
                    check(eval_eaa(g, static, table, tau, tau2, universe), "eaa", tau, tau2, universe)


def test_thresholds_empty_graph():
    assert_thresholds_match_oracle(TemporalGraph.from_edges([]))
    assert_thresholds_match_oracle(parse_edge_list("4 4 1\n"))


def test_thresholds_triangle_free():
    # a 6-cycle with parallel and reciprocal edges: no count is ever positive
    cycle = [(i, (i + 1) % 6, t) for i in range(6) for t in (i, i + 3)]
    cycle += [((i + 1) % 6, i, 2 * i) for i in range(0, 6, 2)]
    g = TemporalGraph.from_edges(cycle)
    assert not any(compute_counts(g, 2**62).totals())
    assert_thresholds_match_oracle(g)


def test_thresholds_reciprocal_pairs():
    rng = random.Random(0xD1F6)
    for _ in range(12):
        n = rng.randint(3, 9)
        edges = random_edges(rng, n, rng.randint(3, 50), list(range(20)))
        edges += [(v, u, t + rng.randint(0, 3)) for u, v, t in rng.sample(edges, len(edges) // 2)]
        assert_thresholds_match_oracle(TemporalGraph.from_edges(edges))


def test_oracle_and_practical_payloads_are_int():
    rng = random.Random(0xD1F7)
    found = 0
    for _ in range(8):
        g = TemporalGraph.from_edges(random_edges(rng, 7, 60, list(range(20))))
        static = build_static(g)
        assert all(type(d) is int for d in static.degree)
        solsets = [practical_eea(g, static, 5, Fraction(1, 3), universe) for universe in Universe]
        for kind, tau2 in (("eea", None), ("eae", None), ("eaa", Fraction(1, 3))):
            for universe in Universe:
                spec = QuerySpec(kind, 5, Fraction(1, 3), tau2, universe)
                solsets.append(oracle_solutions(g, 5, spec, static))
        for sols in solsets:
            found += sols.total
            assert all(type(field) is int for sol in sols.solutions for field in sol)
    assert found > 0


def test_eaa_rejects_tau2_outside_unit_interval():
    g = TemporalGraph.from_edges([(1, 2, 10), (1, 3, 12), (2, 3, 15)])
    static = build_static(g)
    counts = compute_counts(g, 10, static)
    for bad in (Fraction(0), Fraction(-1, 3), Fraction(10**30 + 1, 10**30), Fraction(2)):
        for universe in Universe:
            with pytest.raises(ParameterError):
                eval_eaa(g, static, counts, Fraction(1, 2), bad, universe)


# -- one expansion for every delta ---------------------------------------------

SWEEP_DELTAS = [5, 0, 2**62, 5, 1, I64_MAX, 0, 10**30, 20]


def assert_tables_agree(g, deltas=SWEEP_DELTAS):
    """count_tables gives, per delta and in the order asked, the tables of
    separate compute_counts runs and the oracle's totals."""
    static = build_static(g)
    ordering = degeneracy_order(static)
    tables = count_tables(g, deltas, static, ordering)
    assert [t.delta for t in tables] == list(deltas)
    for delta, table in zip(deltas, tables):
        single = compute_counts(g, delta, static, ordering)
        assert table.in_count == single.in_count, delta
        assert table.out_count == single.out_count, delta
        assert table.totals() == oracle_counts(g, delta, static).count, delta
        assert table.totals_array.dtype == table.in_array.dtype == np.int64


def test_count_tables_unsorted_and_duplicate_deltas():
    rng = random.Random(0xD1F8)
    for _ in range(15):
        n = rng.randint(3, 12)
        g = TemporalGraph.from_edges(random_edges(rng, n, rng.randint(3, 120), list(range(40))))
        assert_tables_agree(g)


def test_count_tables_int64_extreme_timestamps():
    rng = random.Random(0xD1F9)
    edge_ts = [I64_MIN, I64_MIN + 1, I64_MIN + 2**62, -1, 0, 1, I64_MAX - 2**62, I64_MAX - 1, I64_MAX]
    for _ in range(25):
        g = TemporalGraph.from_edges(random_edges(rng, rng.randint(3, 8), rng.randint(3, 60), edge_ts))
        assert_tables_agree(g, SWEEP_DELTAS + [2**64 - 2, 2**64 - 1, 2**64])
    g = TemporalGraph.from_edges([(1, 2, I64_MIN), (1, 3, 0), (2, 3, I64_MAX)])
    tables = count_tables(g, [2**64 - 1, 0, 2**64 - 2])
    assert [t.totals() for t in tables] == [[1, 0, 0], [0, 0, 0], [0, 0, 0]]


def test_count_tables_empty_and_triangle_free():
    cycle = [(i, (i + 1) % 6, t) for i in range(6) for t in (i, i + 3)]
    for g in (TemporalGraph.from_edges([]), parse_edge_list("4 4 1\n"), TemporalGraph.from_edges(cycle)):
        assert_tables_agree(g)
        assert not any(t.totals_array.any() for t in count_tables(g, SWEEP_DELTAS))
    for edges in (cycle, [(0, 1, 1), (1, 2, 2), (0, 2, 3)]):  # no deltas, with and without a triangle
        assert count_tables(TemporalGraph.from_edges(edges), []) == []


def test_count_tables_many_windows():
    rng = random.Random(0xD1FC)
    for _ in range(6):
        g = TemporalGraph.from_edges(random_edges(rng, rng.randint(4, 10), rng.randint(20, 120), list(range(40))))
        assert_tables_agree(g, list(range(40, -1, -1)) + [2**62])


def test_fractional_deltas_count_as_their_floor():
    """Timestamps are integers, so a delta between integers admits the
    chains of its floor, in every engine; NaN is refused like a negative
    delta."""
    rng = random.Random(0xF1A7)
    g = TemporalGraph.from_edges(random_edges(rng, 12, 120, list(range(30))))
    static = build_static(g)
    ordering = degeneracy_order(static)
    for delta in (0.5, 2.5, Fraction(7, 2), 9.99):
        want = oracle_counts(g, math.floor(delta), static).count
        assert oracle_counts(g, delta, static).count == want, delta
        assert practical_counts(g, static, delta) == want, delta
        assert compute_counts(g, delta, static, ordering).totals() == want, delta
        sides = folty.engine.out_pass(g, static, ordering, delta) + folty.engine.in_pass(g, static, ordering, delta)
        assert sides.tolist() == want, delta
    assert any(oracle_counts(g, 2, static).count)
    halves = count_tables(g, [2.5, 2], static, ordering)
    assert [t.delta for t in halves] == [2.5, 2]
    assert np.array_equal(halves[0].in_array, halves[1].in_array)
    assert np.array_equal(halves[0].out_array, halves[1].out_array)
    # a float t + delta would round at 2**62, where floats step by 1024
    far = TemporalGraph.from_edges([(1, 2, 2**62), (1, 3, 2**62 + 5), (2, 3, 2**62 + 9)])
    far_static = build_static(far)
    for delta, want in ((8.99, [0, 0, 0]), (9.99, [1, 0, 0]), (float("inf"), [1, 0, 0])):
        assert oracle_counts(far, delta, far_static).count == want, delta
        assert practical_counts(far, far_static, delta) == want, delta
        assert compute_counts(far, delta, far_static).totals() == want, delta
    nan = float("nan")
    for call in (
        lambda: compute_counts(g, nan),
        lambda: count_tables(g, [2, nan]),
        lambda: folty.engine.out_pass(g, static, ordering, nan),
        lambda: folty.engine.in_pass(g, static, ordering, nan),
        lambda: oracle_counts(g, nan, static),
        lambda: oracle_counts(g, -5, static),
        lambda: practical_counts(g, static, nan),
        lambda: practical_counts(g, static, -5),
    ):
        with pytest.raises(ValueError, match="delta must be >= 0"):
            call()


@pytest.mark.parametrize("block", [1, 2, 7, 64])
def test_count_tables_small_blocks(monkeypatch, block):
    monkeypatch.setattr(folty.graph, "BLOCK", block)
    rng = random.Random(0xD1FA + block)
    for _ in range(10):
        n = rng.randint(3, 12)
        g = TemporalGraph.from_edges(random_edges(rng, n, rng.randint(3, 120), list(range(30))))
        assert_tables_agree(g)


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_count_tables_in_window_groups(monkeypatch, cap):
    """Past KEY_CAP keys the out side folds its keys and the in side its
    ranges into the table early; however many table cells the windows need
    (m per window, here several times KEY_CAP), every window is counted in
    one expansion, and the tables do not change."""
    rng = random.Random(0xD1FB)
    clique = [(u, v, rng.randint(0, 200)) for u in range(6) for v in range(6) if u != v for _ in range(3)]
    g = TemporalGraph.from_edges(clique)
    monkeypatch.setattr(folty.engine, "KEY_CAP", cap * g.m)
    span = int(g.t_distinct[-1] - g.t_distinct[0])
    windows = {min(d, span) for d in SWEEP_DELTAS}
    assert len(windows) > cap
    phases = []
    count_tables(g, SWEEP_DELTAS, lap=phases.append)
    assert phases == ["triangles", "out_pass", "in_pass"]
    assert_tables_agree(g)
    monkeypatch.setattr(folty.engine, "KEY_CAP", cap)
    assert_tables_agree(g)
    folds = []
    fold = folty.engine._fold
    monkeypatch.setattr(folty.engine, "_fold", lambda *args: folds.append(1) or fold(*args))
    in_folds = []
    fold_ranges = folty.engine._fold_ranges
    monkeypatch.setattr(folty.engine, "_fold_ranges", lambda *args: in_folds.append(1) or fold_ranges(*args))
    monkeypatch.setattr(folty.graph, "BLOCK", 4)  # several in-side blocks per expansion
    count_tables(g, SWEEP_DELTAS)
    assert len(folds) > len(windows)  # not only the last fold of each expansion
    assert len(in_folds) > len(windows)
    assert_tables_agree(g)


def test_count_tables_memory_is_the_tables(monkeypatch):
    """Thirty windows counted in one expansion, with folds every 4m keys:
    the traced peak is the returned tables (in, out and totals, 8 bytes
    per edge and window each) plus at most 16 bytes per edge. Measured at
    up to 1.5 bytes per edge over random graphs of 15k-30k edges."""
    rng = np.random.default_rng(0xD1FF)
    u, v, t = rng.integers(0, 600, 20000), rng.integers(0, 600, 20000), rng.integers(0, 5000, 20000)
    keep = u != v
    g = TemporalGraph.from_edges(zip(u[keep].tolist(), v[keep].tolist(), t[keep].tolist()))
    static = build_static(g)
    ordering = degeneracy_order(static)
    g.entry_pairs(ordering)
    deltas = list(range(0, 5000, 170))
    monkeypatch.setattr(folty.engine, "KEY_CAP", 4 * g.m)
    tracemalloc.start()
    try:
        tables = count_tables(g, deltas, static, ordering)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tables) == len(folty.engine._windows(g, deltas)) == 30
    result = sum(a.nbytes for table in tables for a in (table.in_array, table.out_array, table.totals_array))
    assert result == 3 * 30 * 8 * g.m
    assert peak < result + 16 * g.m


# -- the in side as disjoint ranges --------------------------------------------


def in_counts(g, ordering, windows):
    """The in side's (windows, m) table, folded by the engine's
    _fold_ranges as it stands when called."""
    return folty.engine._counts(g, ordering, windows, folty.engine._in_ranges, folty.engine._fold_ranges)


def out_counts(g, ordering, windows):
    """The out side's (windows, m) table, folded by the engine's _fold as
    it stands when called."""
    return folty.engine._counts(g, ordering, windows, folty.engine._out_hits, folty.engine._fold)


def hub_edges(rng, sigma, witnesses, span):
    """A target pair 0 -> 1 with sigma edges (and 1 -> 0 with sigma // 8),
    plus witnesses 2, 3, ... each joined only to 0 and 1, so each peels
    before the hub and is an in-side witness of both its directions. The
    lists 0 -> w repeat timestamps, and most 1 -> w entries sit at or just
    after a 0 -> w entry, so delta 0 closes triangles too."""
    edges = [(0, 1, rng.randrange(span)) for _ in range(sigma)]
    edges += [(1, 0, rng.randrange(span)) for _ in range(sigma // 8)]
    for w in range(2, 2 + witnesses):
        l2 = [rng.randrange(span) for _ in range(rng.randint(1, 4))]
        l3 = [t + rng.choice((0, 0, 1, 3, 40)) for t in l2 if rng.random() < 0.7] + [rng.randrange(span)]
        edges += [(0, w, t) for t in l2 + l2[: rng.randint(0, 2)]] + [(1, w, t) for t in l3]
        edges += [(1, w, t) for t in l2[:1]] * rng.randint(0, 1) + [(0, w, t) for t in l3[:1]] * rng.randint(0, 1)
    return edges


def test_hub_target_pair():
    """One target pair with sigma 2000 and 300 degree-2 witnesses: each
    witness's L2 entries credit disjoint ranges of the 2000 target times,
    and an L2 entry at the time of the one before it credits none."""
    g = TemporalGraph.from_edges(hub_edges(random.Random(0xD200), 2000, 300, 500))
    static = build_static(g)
    ordering = degeneracy_order(static)
    hub = {g.orig.index(0), g.orig.index(1)}
    assert max(ordering.pi[v] for v in range(g.n) if v not in hub) < min(ordering.pi[v] for v in hub)
    on_hub = np.isin(g.src, list(hub)) & np.isin(g.dst, list(hub))
    assert on_hub.sum() == 2000 + 250
    deltas = [0, 7, 10**30]
    for delta, table in zip(deltas, count_tables(g, deltas, static, ordering)):
        assert table.totals() == oracle_counts(g, delta, static).count, delta
        assert table.in_array[on_hub].any() and not table.out_array[on_hub].any(), delta


@pytest.mark.parametrize("windows", [1, 2, 5])
def test_in_side_folds_mid_expansion(monkeypatch, windows):
    """Past KEY_CAP collected ranges the in side folds them into the table
    before the expansion ends, for every window at once; the counts do not
    change."""
    g = TemporalGraph.from_edges(hub_edges(random.Random(0xD201 + windows), 300, 60, 200))
    static = build_static(g)
    ordering = degeneracy_order(static)
    deltas = [40, 0, 10**30, 3, 150][:windows]
    grid = folty.engine._windows(g, deltas)
    assert len(grid) == windows
    want = in_counts(g, ordering, grid)
    monkeypatch.setattr(folty.engine, "KEY_CAP", 16)
    monkeypatch.setattr(folty.graph, "BLOCK", 8)
    folds = []
    fold_ranges = folty.engine._fold_ranges
    monkeypatch.setattr(folty.engine, "_fold_ranges", lambda *args: folds.append(1) or fold_ranges(*args))
    assert np.array_equal(in_counts(g, ordering, grid), want)
    assert len(folds) > 3
    for delta, table in zip(deltas, count_tables(g, deltas, static, ordering)):
        assert table.totals() == oracle_counts(g, delta, static).count, delta


@pytest.mark.parametrize("windows", [1, 3, 5])
def test_in_side_folds_hold_at_most_key_cap(monkeypatch, windows):
    """When one block's ranges fit under KEY_CAP, no fold holds more than
    KEY_CAP ranges, however many windows it cuts them for: a block that
    would push the collected ranges past it is folded with the next ones.
    The counts do not change."""
    g = TemporalGraph.from_edges(hub_edges(random.Random(0xD202 + windows), 300, 60, 200))
    static = build_static(g)
    ordering = degeneracy_order(static)
    deltas = [40, 0, 10**30, 3, 150][:windows]
    grid = folty.engine._windows(g, deltas)
    cap, block = 60, 8
    # A block expands at most BLOCK entries plus its last list, each giving
    # at most one range; the in side's L2 lists are the witnesses' lists.
    x, y = np.divmod(g.pair_key, g.n)
    hub = [g.orig.index(0), g.orig.index(1)]
    witness_lists = np.diff(g.pair_start)[~(np.isin(x, hub) & np.isin(y, hub))]
    assert block + witness_lists.max() <= cap
    monkeypatch.setattr(folty.engine, "KEY_CAP", cap)
    monkeypatch.setattr(folty.graph, "BLOCK", block)
    held = []
    fold_ranges = folty.engine._fold_ranges

    def counting(in_count, g, windows, floor, hi, t3):
        held.append(len(hi))
        fold_ranges(in_count, g, windows, floor, hi, t3)

    monkeypatch.setattr(folty.engine, "_fold_ranges", counting)
    counts = in_counts(g, ordering, grid)
    assert len(held) > 3 and max(held) <= cap, held
    monkeypatch.undo()
    assert np.array_equal(counts, in_counts(g, ordering, grid))
    for delta, table in zip(deltas, count_tables(g, deltas, static, ordering)):
        assert table.totals() == oracle_counts(g, delta, static).count, delta


@pytest.mark.parametrize("windows", [1, 3, 5])
def test_out_side_folds_hold_at_most_key_cap(monkeypatch, windows):
    """The out side keeps the in side's fold policy: when one block's hits
    fit under KEY_CAP, no fold holds more than KEY_CAP hits. The counts do
    not change."""
    rng = random.Random(0xD203 + windows)
    clique = [(u, v, rng.randrange(50)) for u in range(9) for v in range(9) if u != v for _ in range(rng.randint(0, 4))]
    g = TemporalGraph.from_edges(clique)
    static = build_static(g)
    ordering = degeneracy_order(static)
    deltas = [5, 0, 10**30, 1, 20][:windows]
    grid = folty.engine._windows(g, deltas)
    cap, block = 12, 8
    # A block expands at most BLOCK entries plus its last list, each giving
    # at most one hit.
    assert block + np.diff(g.pair_start).max() <= cap
    monkeypatch.setattr(folty.engine, "KEY_CAP", cap)
    monkeypatch.setattr(folty.graph, "BLOCK", block)
    held = []
    fold = folty.engine._fold

    def counting(table, g, windows, span, eid):
        held.append(len(eid))
        fold(table, g, windows, span, eid)

    monkeypatch.setattr(folty.engine, "_fold", counting)
    counts = out_counts(g, ordering, grid)
    assert len(held) > 3 and max(held) <= cap, held
    monkeypatch.undo()
    assert np.array_equal(counts, out_counts(g, ordering, grid))
    for delta, table in zip(deltas, count_tables(g, deltas, static, ordering)):
        assert table.totals() == oracle_counts(g, delta, static).count, delta


# -- the out side's window cut -------------------------------------------------


def record_lookups(monkeypatch):
    """Wrap the engine's _next_entry; each call appends (keys, index,
    found) to the returned list, where found tells whether the index is an
    entry of the looked-up pair."""
    calls = []
    next_entry = folty.engine._next_entry

    def recording(g, i, qa, qb):
        j = next_entry(g, i, qa, qb)
        calls.append((len(i), j, j < g.pair_start[qb + 1]))
        return j

    monkeypatch.setattr(folty.engine, "_next_entry", recording)
    return calls


def assert_out_side_agrees(g, deltas):
    """Per delta, out_counts plus in_counts gives the oracle's and the
    practical engine's totals, and out_counts gives compute_counts' out
    side."""
    static = build_static(g)
    ordering = degeneracy_order(static)
    windows = folty.engine._windows(g, deltas)
    out, into = out_counts(g, ordering, windows), in_counts(g, ordering, windows)
    for delta in deltas:
        row = np.searchsorted(windows, folty.engine._window(g, delta))
        want = oracle_counts(g, delta, static).count
        assert (out[row] + into[row]).tolist() == want == practical_counts(g, static, delta), delta
        assert np.array_equal(out[row], compute_counts(g, delta, static, ordering).out_array), delta
    return out


#: Every directed pair on 1, 2, 3 at times 0, 2 and 5, except 1 -> 2 at 0
#: and 5, 1 -> 3 at 1, and 3 -> 2, the last pair in pair order, at 0 and 2.
#: The chain of 1 -> 3 with witness 2 (L1 = E_13, L2 = E_12, L3 = E_32)
#: keeps its L1 entry at 1, which fits both lists by their first and last
#: times, finds its L2 entry at 5 and looks past the last entry for an L3
#: entry at or after 5 (k == m).
PAST_LAST = [(3, 2, 0), (3, 2, 2), (1, 3, 1), (1, 2, 0), (1, 2, 5)]
PAST_LAST += [(x, y, t) for x, y in ((2, 1), (3, 1), (2, 3)) for t in (0, 2, 5)]


@pytest.mark.parametrize("block", [1, 7])
def test_out_cut_lookup_past_last_entry(monkeypatch, block):
    """Only a second lookup reads past its pair's list: every L1 entry kept
    for the first lookup has t at or before L2's last time."""
    monkeypatch.setattr(folty.graph, "BLOCK", block)
    g = TemporalGraph.from_edges(PAST_LAST)
    ordering = degeneracy_order(build_static(g))
    calls = record_lookups(monkeypatch)
    out_counts(g, ordering, folty.engine._windows(g, [10]))
    assert all(found.all() for _, _, found in calls[0::2])  # first lookups
    assert any((k == g.m).any() for _, k, _ in calls[1::2])  # second lookups
    assert_out_side_agrees(g, (0, 1, 2, 3, 5, 10**30))


@pytest.mark.parametrize("block", [1, 7])
def test_out_cut_keeps_equal_times_at_delta_zero(monkeypatch, block):
    """At delta 0 the cut keeps an L2 entry at the L1 entry's own time."""
    monkeypatch.setattr(folty.graph, "BLOCK", block)
    rng = random.Random(0xD210 + block)
    same_time = [(x, y, 7) for x in range(4) for y in range(4) if x != y]
    for edges in (PAST_LAST, same_time):
        assert assert_out_side_agrees(TemporalGraph.from_edges(edges), (0, 1, 10**30))[0].any()
    for _ in range(8):
        g = TemporalGraph.from_edges(random_edges(rng, rng.randint(3, 7), rng.randint(10, 80), [0, 0, 1, 3]))
        assert_out_side_agrees(g, (0, 1, 10**30))


@pytest.mark.parametrize("block", [1, 7])
def test_out_cut_int64_extremes(monkeypatch, block):
    monkeypatch.setattr(folty.graph, "BLOCK", block)
    rng = random.Random(0xD211 + block)
    edge_ts = [I64_MIN, I64_MIN, I64_MIN + 1, -1, 0, I64_MAX - 1, I64_MAX, I64_MAX]
    for _ in range(15):
        g = TemporalGraph.from_edges(random_edges(rng, rng.randint(3, 6), rng.randint(6, 50), edge_ts))
        assert_out_side_agrees(g, (0, 1, 2**63, 2**64 - 2, 2**64 - 1, 10**30))


@pytest.mark.parametrize("block", [1, 7])
def test_out_cut_drops_nothing_at_full_span(monkeypatch, block):
    """With a window at or above the timestamp span, every chain that
    finds its L2 entry goes on to the second lookup."""
    monkeypatch.setattr(folty.graph, "BLOCK", block)
    rng = random.Random(0xD212 + block)
    calls = record_lookups(monkeypatch)
    for _ in range(8):
        g = TemporalGraph.from_edges(random_edges(rng, rng.randint(3, 8), rng.randint(10, 100), list(range(40))))
        ordering = degeneracy_order(build_static(g))
        span = int(g.t_distinct[-1] - g.t_distinct[0])
        for delta in (span, span + 1, 10**30):
            calls.clear()
            out_counts(g, ordering, folty.engine._windows(g, [delta]))
            assert [keys for keys, _, _ in calls[1::2]] == [int(found.sum()) for _, _, found in calls[0::2]]
        assert_out_side_agrees(g, (span, span + 1, 10**30))


# -- the jobs' window test ------------------------------------------------------


def chain_graphs(c, l2, l3):
    """The six graphs that give the chain of edge u -> v with witness w the
    lists c = E_uv, l2 = E_uw and l3 = E_vw, and hold no other pair, one
    per naming of 1, 2, 3 as (u, v, w). Each graph's one chain is a job of
    the out side when the ordering's low vertex is u or v, and of the in
    side when it is w, so the six give jobs to both."""
    return [
        TemporalGraph.from_edges([(u, v, t) for t in c] + [(u, w, t) for t in l2] + [(v, w, t) for t in l3])
        for u, v, w in itertools.permutations((1, 2, 3))
    ]


#: (C, L2, L3, {delta: the chain's credited C entries}) on the bounds of the
#: jobs' window test, each earlier list against each later one: the first
#: against the last time, and the difference of the later start and the
#: earlier end against the window.
WINDOW_EDGES = {
    "t-at-l2-last": ([3, 5], [0, 5], [5, 7], {0: 1, 1: 1, 2: 2}),
    "l2-starts-at-window": ([0], [10], [10], {9: 0, 10: 1, 11: 1}),
    "l3-starts-at-window": ([0], [8], [10], {9: 0, 10: 1, 11: 1}),
    "l3-starts-at-window-per-entry": ([-5, 0], [0], [10], {9: 0, 10: 1, 14: 1, 15: 2}),
    "l3-starts-at-window-after-l2-ends": ([2, 10], [2], [12], {1: 0, 9: 0, 10: 1}),
    "delta-zero": ([7], [7], [7], {0: 1, 1: 1}),
    "delta-zero-one-late": ([7], [7], [8], {0: 0, 1: 1}),
    "l2-before-c-ends": ([0, 5], [3], [3], {2: 0, 3: 1}),
    "l2-ends-at-c-start": ([5], [0, 5], [5], {0: 1}),
    "extremes-l2-before-c-ends": ([I64_MIN, I64_MAX], [0], [0], {0: 0, 2**63 - 1: 0, 2**63: 1, 2**64 - 1: 1}),
    "extremes-wrap-to-one": ([I64_MAX], [I64_MIN, I64_MAX], [I64_MIN, I64_MAX], {0: 1}),
    "extremes-full-span": ([I64_MIN], [I64_MAX], [I64_MAX], {2**64 - 2: 0, 2**64 - 1: 1, 10**30: 1}),
    "minus-one-to-zero": ([-1], [0], [0], {0: 0, 1: 1}),
    "c-after-l3-ends": ([9], [9, 12], [4, 8], {0: 0, 10**30: 0}),
    "l3-ends-before-l2-starts": ([0], [5], [1, 4], {10: 0, 10**30: 0}),
    "only-largest-window": ([0], [4], [10], {0: 0, 5: 0, 10: 1}),
}


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("case", sorted(WINDOW_EDGES))
def test_job_window_boundaries(monkeypatch, block, case):
    """Each case's deltas run as one multi-window call on both sides and
    match the oracle and the practical engine; the chain's credits are the
    case's, and both sides credit it."""
    monkeypatch.setattr(folty.graph, "BLOCK", block)
    c, l2, l3, want = WINDOW_EDGES[case]
    sides = set()
    for g in chain_graphs(c, l2, l3):
        assert_out_side_agrees(g, tuple(want))
        for delta, credits in want.items():
            table = compute_counts(g, delta)
            assert sum(table.totals()) == credits, (delta, g.edge_lists)
            sides |= {"out"} if table.out_array.any() else set()
            sides |= {"in"} if table.in_array.any() else set()
    assert sides == ({"out", "in"} if any(want.values()) else set())


@pytest.mark.parametrize("block", [1, 7])
def test_job_window_single_entry_pairs(monkeypatch, block):
    """Random graphs with at most one edge per directed pair, at boundary
    timestamps and windows, on both sides."""
    monkeypatch.setattr(folty.graph, "BLOCK", block)
    rng = random.Random(0xD213 + block)
    edge_ts = [I64_MIN, -1, 0, 3, 10, 13, I64_MAX]
    for _ in range(12):
        edges = {(u, v): t for u, v, t in random_edges(rng, rng.randint(3, 6), rng.randint(6, 30), edge_ts)}
        g = TemporalGraph.from_edges([(u, v, t) for (u, v), t in edges.items()])
        assert np.diff(g.pair_start).max() == 1
        assert_out_side_agrees(g, (0, 3, 9, 10, 11, 2**63, 2**64 - 1))


def test_count_table_arrays_and_lazy_lists():
    table = CountTable([1, 0], [2, 3], 5)
    assert table.totals() == [3, 3] and table.totals() is table.totals()
    assert table.totals_array.tolist() == [3, 3]
    assert (table.in_count, table.out_count, table.delta) == ([1, 0], [2, 3], 5)
    assert table == CountTable(np.array([1, 0]), np.array([2, 3]), 5)
    assert table != CountTable([1, 0], [2, 3], 6)


# -- one pair-id map per (graph, ordering) --------------------------------------


def test_ordering_shared_by_graphs_in_alternation():
    """Graphs with one static projection share its ordering; the pair-id
    map each builds for it stays its own, so calls in alternation give each
    graph its fresh-ordering counts."""
    rng = random.Random(0xD1FD)
    differ = False
    for _ in range(10):
        n = rng.randint(3, 10)
        edges = random_edges(rng, n, rng.randint(3, 80), list(range(30)))
        edges += [(v, u, t + 1) for u, v, t in rng.sample(edges, len(edges) // 2)]
        both = {(u, v) for u, v, _ in edges} & {(v, u) for u, v, _ in edges}
        variants = [
            edges,
            [(v, u, t) for u, v, t in edges],  # every edge reversed
            [(u, v, t) for u, v, t in edges if u < v or (u, v) not in both],  # one direction of reciprocal pairs
        ]
        graphs = [TemporalGraph.from_edges(e) for e in variants]
        static = build_static(graphs[0])
        for g in graphs[1:]:
            s = build_static(g)
            assert np.array_equal(s.adj_start, static.adj_start) and np.array_equal(s.adj_nbr, static.adj_nbr)
        ordering = degeneracy_order(static)
        want = {
            (i, d): (compute_counts(g, d), oracle_counts(g, d, static).count)
            for i, g in enumerate(graphs) for d in (0, 5, 2**62)
        }
        for _ in range(2):
            for (i, d), (fresh, oracle) in want.items():
                table = compute_counts(graphs[i], d, static, ordering)
                assert (table.in_count, table.out_count) == (fresh.in_count, fresh.out_count), (i, d)
                assert table.totals() == oracle, (i, d)
        differ |= any(want[0, d][1] != want[1, d][1] for d in (0, 5, 2**62))
    assert differ  # the variants are told apart by their counts


@pytest.mark.parametrize("block", [1, 2, 5])
def test_repeated_counts_on_one_ordering(monkeypatch, block):
    """Many compute_counts calls on one ordering reuse its pair-id map and
    keep matching the oracle, for one-direction pairs and triangle-free
    graphs too."""
    monkeypatch.setattr(folty.graph, "BLOCK", block)
    rng = random.Random(0xD1FE + block)
    cycle = [(i, (i + 1) % 6, t) for i in range(6) for t in (i, i + 3)]
    graphs = [TemporalGraph.from_edges(cycle)]
    for _ in range(6):
        edges = random_edges(rng, rng.randint(3, 10), rng.randint(3, 100), list(range(30)))
        graphs.append(TemporalGraph.from_edges(edges))
        graphs.append(TemporalGraph.from_edges([(min(u, v), max(u, v), t) for u, v, t in edges]))
    deltas = [0, 1, 5, 20, 2**62]
    for g in graphs:
        static = build_static(g)
        ordering = degeneracy_order(static)
        want = {d: oracle_counts(g, d, static).count for d in deltas}
        first = compute_counts(g, deltas[0], static, ordering)
        pair_map = g.entry_pairs(ordering)
        for d in deltas * 2 + rng.sample(deltas, len(deltas)):
            table = compute_counts(g, d, static, ordering)
            assert table.totals() == want[d], d
        assert compute_counts(g, deltas[0], static, ordering) == first
        assert all(x is y for x, y in zip(g.entry_pairs(ordering), pair_map))
    assert not any(compute_counts(graphs[0], 2**62).totals())

"""Seeded differential battery: the folty, practical and oracle engines give
equal per-edge counts, and the array thresholds give the oracle's solution
sets, on the shapes that fixed-width integer arithmetic and blocked
vectorization put at risk."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

import folty.engine
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


def test_expansions_span_several_blocks():
    rng = random.Random(0xD1F4)
    clique = [(u, v, rng.randint(0, 2000))
              for u in range(12) for v in range(12) if u != v
              for _ in range(rng.randint(30, 40))]
    g = TemporalGraph.from_edges(clique)
    assert out_expansions(g) > 3 * folty.engine.BLOCK
    assert_engines_agree(g, (0, 3, 40, 2**62))


@pytest.mark.parametrize("block", [1, 2, 7, 64])
def test_small_blocks(monkeypatch, block):
    monkeypatch.setattr(folty.engine, "BLOCK", block)
    monkeypatch.setattr(folty.engine, "TRIANGLE_BLOCK", block)
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
    assert count_tables(TemporalGraph.from_edges(cycle), []) == []


def test_count_tables_many_windows():
    rng = random.Random(0xD1FC)
    for _ in range(6):
        g = TemporalGraph.from_edges(random_edges(rng, rng.randint(4, 10), rng.randint(20, 120), list(range(40))))
        assert_tables_agree(g, list(range(40, -1, -1)) + [2**62])


@pytest.mark.parametrize("block", [1, 2, 7, 64])
def test_count_tables_small_blocks(monkeypatch, block):
    monkeypatch.setattr(folty.engine, "BLOCK", block)
    monkeypatch.setattr(folty.engine, "TRIANGLE_BLOCK", block)
    rng = random.Random(0xD1FA + block)
    for _ in range(10):
        n = rng.randint(3, 12)
        g = TemporalGraph.from_edges(random_edges(rng, n, rng.randint(3, 120), list(range(30))))
        assert_tables_agree(g)


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_count_tables_in_window_groups(monkeypatch, cap):
    """Past KEY_CAP keys the out side folds its keys and the in side its
    ranges into the table early, and past KEY_CAP table cells the windows run in groups of KEY_CAP // m,
    one expansion each; the tables do not change."""
    rng = random.Random(0xD1FB)
    clique = [(u, v, rng.randint(0, 200)) for u in range(6) for v in range(6) if u != v for _ in range(3)]
    g = TemporalGraph.from_edges(clique)
    monkeypatch.setattr(folty.engine, "KEY_CAP", cap * g.m)
    span = int(g.t_distinct[-1] - g.t_distinct[0])
    windows = {min(d, span) for d in SWEEP_DELTAS}
    phases = []
    count_tables(g, SWEEP_DELTAS, lap=phases.append)
    groups = -(-len(windows) // cap)
    assert phases == ["triangles"] + ["out_pass", "in_pass"] * groups
    assert_tables_agree(g)
    monkeypatch.setattr(folty.engine, "KEY_CAP", cap)
    assert_tables_agree(g)
    folds = []
    fold = folty.engine._fold
    monkeypatch.setattr(folty.engine, "_fold", lambda *args: folds.append(1) or fold(*args))
    in_folds = []
    fold_ranges = folty.engine._fold_ranges
    monkeypatch.setattr(folty.engine, "_fold_ranges", lambda *args: in_folds.append(1) or fold_ranges(*args))
    monkeypatch.setattr(folty.engine, "BLOCK", 4)  # several in-side blocks per expansion
    count_tables(g, SWEEP_DELTAS)
    assert len(folds) > len(windows)  # not only the last fold of each expansion
    assert len(in_folds) > len(windows)
    assert_tables_agree(g)


# -- the in side as disjoint ranges --------------------------------------------


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
    want = folty.engine._in_counts(g, ordering, grid)
    monkeypatch.setattr(folty.engine, "KEY_CAP", 16)
    monkeypatch.setattr(folty.engine, "BLOCK", 8)
    folds = []
    fold_ranges = folty.engine._fold_ranges
    monkeypatch.setattr(folty.engine, "_fold_ranges", lambda *args: folds.append(1) or fold_ranges(*args))
    assert np.array_equal(folty.engine._in_counts(g, ordering, grid), want)
    assert len(folds) > 3
    for delta, table in zip(deltas, count_tables(g, deltas, static, ordering)):
        assert table.totals() == oracle_counts(g, delta, static).count, delta


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
    monkeypatch.setattr(folty.engine, "TRIANGLE_BLOCK", block)
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

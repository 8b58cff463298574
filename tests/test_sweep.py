"""Sweeps against single queries: every (delta, tau) cell of run_sweep, which
counts every delta in one expansion and thresholds every tau from per-table
pair state, gives run_query's answer, and the sweep's time accounting keeps
its shape."""

import random
from fractions import Fraction

import pytest

import folty.cli
import folty.graph
from folty.cli import run_query, run_sweep
from folty.queries import Universe

DELTAS = [50, 0, 7, 2**62, 10**30, 7]
TAUS = [Fraction(1), Fraction(1, 2**62), Fraction(10**30 - 1, 10**30), Fraction(1, 3), Fraction(7, 10**30)]


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    rng = random.Random(0x5EE9)
    lines = []
    while len(lines) < 220:
        u, v = rng.randrange(12), rng.randrange(12)
        if u != v:
            lines.append(f"{u} {v} {rng.randint(0, 100)}\n")
    path = tmp_path_factory.mktemp("sweep") / "g.txt"
    path.write_text("".join(lines))
    return str(path)


def _cells(rows):
    return [(r["delta_s"], r["tau"], r["num_solutions"]) for r in rows]


@pytest.mark.parametrize("universe", list(Universe))
@pytest.mark.parametrize("kind", ["eea", "eae", "eaa"])
def test_sweep_cells_equal_single_queries(graph_path, kind, universe):
    tau2s = TAUS[:4] if kind == "eaa" else [None]
    answers = set()
    for tau2 in tau2s:
        rows, _ = run_sweep(graph_path, kind, DELTAS, TAUS, tau2, universe)
        assert len(rows) == len(set(DELTAS)) * len(TAUS)
        by_cell = {(r["delta_s"], r["tau"]): r["num_solutions"] for r in rows}
        for delta in set(DELTAS):
            for tau in TAUS:
                report = run_query(graph_path, kind, delta, tau, tau2, universe)
                assert by_cell[delta, report["query"]["tau"]] == report["num_solutions"], (delta, tau, tau2)
                answers.add(report["num_solutions"])
    assert len(answers) > 2  # the grid reaches both empty and non-empty answers


@pytest.mark.parametrize("kind", ["eea", "eae", "eaa"])
def test_sweep_rows_identical_across_engines(graph_path, kind):
    tau2 = Fraction(1, 3) if kind == "eaa" else None
    want = _cells(run_sweep(graph_path, kind, DELTAS, TAUS, tau2, Universe.COMMON)[0])
    for engine in ("practical", "oracle"):
        assert _cells(run_sweep(graph_path, kind, DELTAS, TAUS, tau2, Universe.COMMON, engine)[0]) == want


def test_count_runs_keep_one_entry_per_delta(graph_path):
    deltas = sorted(set(DELTAS))
    for engine in ("folty", "practical"):
        _, meta = run_sweep(graph_path, "eae", DELTAS, TAUS, engine=engine)
        runs = meta["count_runs"]
        assert [r["delta_s"] for r in runs] == deltas
        # The one counting call is charged to the first delta.
        assert set(runs[0]) == {"delta_s", "triangles_ms", "out_pass_ms", "in_pass_ms"}
        assert runs[0]["out_pass_ms"] > 0.0, engine
        assert all(r == {**dict.fromkeys(runs[0], 0.0), "delta_s": r["delta_s"]} for r in runs[1:]), engine
    assert runs[0]["triangles_ms"] == runs[0]["in_pass_ms"] == 0.0  # practical laps all as out_pass


@pytest.mark.parametrize("engine", ["folty", "practical", "oracle"])
def test_threshold_state_charged_to_first_rows(graph_path, monkeypatch, engine):
    """Building a table's state (each pair's largest total for eaa, the
    non-zero edges and their pairs for eea) and, once, the graph's lands in
    the elapsed_ms of the first row that uses it, so Σ elapsed_ms covers all
    threshold work."""
    now = [0.0]

    def clock():
        now[0] += 1e-6
        return now[0]

    def slow(fn, seconds):
        def wrapper(*args):
            now[0] += seconds
            return fn(*args)

        return wrapper

    monkeypatch.setattr(folty.cli.time, "perf_counter", clock)
    temporal, static = folty.graph.TemporalGraph, folty.graph.StaticGraph
    monkeypatch.setattr(temporal, "pair_max", slow(temporal.pair_max, 100.0))
    monkeypatch.setattr(temporal, "nonzero_edges", slow(temporal.nonzero_edges, 100.0))
    monkeypatch.setattr(static, "common_counts", slow(static.common_counts, 10_000.0))
    for kind in ("eaa", "eea"):
        rows, _ = run_sweep(graph_path, kind, DELTAS, TAUS, Fraction(1, 3), Universe.COMMON, engine)
        elapsed = [r["elapsed_ms"] for r in rows]
        heavy = [i for i, ms in enumerate(elapsed) if ms > 50_000]
        assert heavy == list(range(0, len(rows), len(TAUS))), kind
        assert elapsed[0] > 10_000_000 > max(elapsed[1:]), kind

"""Tests for the benchmark itself, on tiny instances of each workload generator.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ops
from folty import cli, engine, graph
from tracer import Tracer, install_folty
from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parents[2]

#: Generator overrides giving a few hundred to a few thousand edges, under
#: the oracle's 10k-edge ceiling.
TINY = {
    "ingest-sparse": {"vertices": 300, "pairs": 500, "echo_prob": 0.5},
    "skew-burst": {"vertices": 120, "events": 300},
    "sweep-grid": {"vertices": 80, "events": 200},
}


@pytest.fixture(params=sorted(WORKLOADS))
def tiny(request, tmp_path):
    name = request.param
    path = tmp_path / f"{name}.txt"
    path.write_bytes(generate(name, 7, **TINY[name]))
    return WORKLOADS[name], str(path), str(tmp_path / "out.txt")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_deterministic_per_seed(name):
    a = generate(name, 3, **TINY[name])
    assert a == generate(name, 3, **TINY[name])
    assert a != generate(name, 4, **TINY[name])
    assert a.endswith(b"\n") and len(a.splitlines()) > 50


def test_pinned_inputs_match_generator():
    pinned = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    assert set(pinned["workloads"]) == set(WORKLOADS)
    for name, entry in pinned["workloads"].items():
        digest = hashlib.sha256(generate(name, pinned["seed"])).hexdigest()
        assert digest == entry["input_sha256"], name


def test_engines_agree(tiny):
    w, path, out = tiny
    op = {e: ops.op_digest(w.op, ops.cli_text(w.argv(path, e), out)) for e in ("folty", "practical", "oracle")}
    assert op["folty"] == op["practical"] == op["oracle"]

    g, static, ordering = ops.load(path)
    assert 0 < g.m <= 10_000
    for table, delta in zip(ops.count_tables(g, static, ordering, w.deltas), w.deltas):
        mine = ops.count_digest(g, table)
        for e in ("practical", "oracle"):
            assert ops.count_digest_from_csv(ops.cli_text(ops.all_edges_argv(path, delta, e), out)) == mine


def test_tracing_leaves_outputs_unchanged(tiny):
    w, path, out = tiny
    before = {name: getattr(cli, name) for name in ("parse_edge_list", "run_query", "eval_eea")}
    before_engine = {name: getattr(engine, name) for name in ("out_pass", "in_pass", "IntervalSegmentTree")}
    common_of = graph.StaticGraph.common_of
    plain = ops.op_digest(w.op, ops.cli_text(w.argv(path), out))

    tracer = Tracer()
    install_folty(tracer)
    try:
        assert cli.run_query is not before["run_query"]
        rc, _ = ops.run_cli(w.argv(path), out, tracer.span("cli.main", cli.main))
    finally:
        tracer.restore()
    assert rc == 0
    assert ops.op_digest(w.op, Path(out).read_text()) == plain
    assert tracer.counts()["queries.threshold_calls"] >= 1
    assert {name: getattr(cli, name) for name in before} == before
    assert {name: getattr(engine, name) for name in before_engine} == before_engine
    assert graph.StaticGraph.common_of is common_of


def test_self_times_sum_to_traced_wall(tiny):
    w, path, out = tiny
    tracer = Tracer()
    install_folty(tracer)
    try:
        rc, wall = ops.run_cli(w.argv(path), out, tracer.span("cli.main", cli.main))
    finally:
        tracer.restore()
    assert rc == 0
    layers = ops.layer_metrics(tracer, wall)
    self_total = sum(v for k, v in layers.items() if k.endswith("_s") and k not in ("cli.load_s", "trace.wall_s"))
    assert self_total == pytest.approx(wall, rel=0.03)
    assert all(v >= 0 for k, v in layers.items() if k.endswith("_s"))


def test_work_counts_match_tracer_counters(tiny):
    w, path, out = tiny
    work = ops.work_counts(path, w.deltas)
    tracer = Tracer()
    install_folty(tracer)
    try:
        g, static, ordering = ops.load(path)
        tables = ops.count_tables(g, static, ordering, w.deltas)
    finally:
        tracer.restore()
    assert work["count_digests"] == [ops.count_digest(g, t) for t in tables]
    assert work["engine.closing_total"] == sum(sum(t.totals()) for t in tables)
    counts = tracer.counts()
    assert counts["segtree.trees"] == work["engine.in_target_pairs"]
    assert counts["segtree.lookups"] == work["engine.in_lookups"]
    assert work["engine.triangles"] > 0


def test_self_time_is_duration_minus_children():
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def items():
        yield 1
        yield 2

    leaf = tracer.span("leaf", lambda: None)
    gen = tracer.iter_span("iter", items)

    def body():
        leaf()
        return list(gen())

    assert tracer.span("root", body)() == [1, 2]
    busy = tracer.busy()
    self_s = tracer.self_times()
    # One tick per clock read: the iterator is busy for three of the root's
    # nine ticks (two items and the final StopIteration), not from first to
    # last read.
    assert busy == {"root": 9.0, "leaf": 1.0, "iter": 3.0}
    assert self_s == {"root": 5.0, "leaf": 1.0, "iter": 3.0}
    assert sum(self_s.values()) == busy["root"]


def test_scaling_cancels_host_speed():
    ref = ops.PROBE_REFERENCE_S
    p = ops.PROBES_PER_OP

    def scaled(before, seconds, after):
        timeline = [("probe", x * ref) for x in before] + [("cli_s", seconds)]
        return ops.scale_samples(timeline + [("probe", x * ref) for x in after])["cli_s"]

    # The same operation on the reference host and on one twice as slow.
    assert scaled([1] * p, 0.3, [1] * p) == pytest.approx([0.3])
    assert scaled([2] * p, 0.6, [2] * p) == pytest.approx([0.3])
    # Across a slow-to-fast switch the median probe is the fast one.
    assert scaled([2, 2, 1], 0.45, [1, 1, 1]) == pytest.approx([0.45])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "skew-burst", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

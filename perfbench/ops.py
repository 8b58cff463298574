"""The benchmark's child process: timed operations, traced operations and the
reference run, each on one generated input.

Run as ``python3 perfbench/ops.py MODE REQUEST.json RESULT.json`` with
``src`` on ``PYTHONPATH``; ``run.py`` starts it in a fresh process per run.
MODE is ``measure`` (tracing off), ``trace`` (spans and counters) or
``reference`` (the CLI with ``--engine practical``, untimed). The child writes
raw samples and output digests; ``run.py`` checks and summarises them.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import statistics
import sys
import time

import numpy as np

from folty import cli
from folty.engine import compute_counts, oriented_triangles
from folty.graph import build_static, degeneracy_order, graph_stats, parse_edge_list

from tracer import Tracer, install_folty
from workloads import ALL_EDGES_TAU, WORKLOADS

#: Fewest samples of each timed operation a run takes, even past --seconds.
MIN_CYCLES = 3
#: Fewest (untraced, traced) pairs a traced run takes.
MIN_TRACE_PAIRS = 2
#: Probe runs before each timed operation (and after the last one).
PROBES_PER_OP = 3


# -- operations ---------------------------------------------------------------


def load(path: str):
    """Library load of one input: what every query pays before counting."""
    with open(path, "rb") as fh:
        g = parse_edge_list(fh)
    static = build_static(g)
    return g, static, degeneracy_order(static)


def count_tables(g, static, ordering, deltas):
    return [compute_counts(g, delta, static, ordering) for delta in deltas]


def run_cli(argv: list[str], out_path: str, main=None) -> tuple[int, float]:
    """One in-process CLI command with stdout going to `out_path`."""
    main = main or cli.main
    with open(out_path, "w", newline="") as fh, contextlib.redirect_stdout(fh):
        gc.collect()
        t0 = time.perf_counter()
        rc = main(argv)
        wall = time.perf_counter() - t0
    return rc, wall


# -- host-speed probe ---------------------------------------------------------
#
# The host this benchmark was built on switches, for seconds to minutes at a
# time, between a fast state and one about 1.6x slower, and a whole run can
# fall in either. Each timed operation is therefore set against a fixed probe
# kernel timed just before and just after it, and reported in seconds on a
# host where the probe takes PROBE_REFERENCE_S.

#: Probe time that defines the reference host: about this host's fast state
#: (2-vCPU Xeon, Python 3.11).
PROBE_REFERENCE_S = 0.005

#: Sorted lists the probe merges; built once, so a probe allocates little.
_PROBE_A = list(range(0, 96_000, 3))
_PROBE_B = list(range(1, 96_000, 5))


def _probe_kernel(a, b) -> int:
    """A fixed pure-Python merge and tally, the kind of work folty's passes do:
    index loops over sorted lists, comparisons and dict updates."""
    tally: dict[int, int] = {}
    i = j = hits = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        if a[i] <= b[j]:
            i += 1
        else:
            key = b[j] % 61
            tally[key] = tally.get(key, 0) + 1
            j += 1
        hits += 1
    return hits + len(tally)


def probe() -> float:
    """Seconds one run of the fixed probe kernel takes right now."""
    t0 = time.perf_counter()
    _probe_kernel(_PROBE_A, _PROBE_B)
    return time.perf_counter() - t0


def scale_samples(timeline: list) -> dict[str, list[float]]:
    """Operation samples of a timeline in reference-host seconds.

    `timeline` lists (kind, seconds) in run order, kind "probe" or an
    operation. Each operation sample is multiplied by PROBE_REFERENCE_S / p,
    where p is the median of the probe runs adjacent to it (the
    PROBES_PER_OP just before and just after): the host's speed at that
    moment, measured on fixed work.
    """
    scaled: dict[str, list[float]] = {}
    for i, (kind, seconds) in enumerate(timeline):
        if kind == "probe":
            continue
        window = timeline[max(0, i - PROBES_PER_OP) : i + PROBES_PER_OP + 1]
        near = [s for k, s in window if k == "probe"]
        scaled.setdefault(kind, []).append(seconds * PROBE_REFERENCE_S / statistics.median(near))
    return scaled


# -- output digests -----------------------------------------------------------


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def count_digest(g, table) -> str:
    """Digest of the non-zero count table as (src, dst, t, count) in edge order,
    with original vertex ids: the rows an all-edges ``eea`` query lists."""
    totals = np.asarray(table.totals(), dtype=np.int64)
    keep = np.flatnonzero(totals)
    orig = np.asarray(g.orig, dtype=np.int64)
    rows = np.stack(
        [
            orig[np.asarray(g.src, dtype=np.int64)[keep]],
            orig[np.asarray(g.dst, dtype=np.int64)[keep]],
            np.asarray(g.ts, dtype=np.int64)[keep],
            totals[keep],
        ],
        axis=1,
    )
    return _sha(np.ascontiguousarray(rows).tobytes())


def count_digest_from_csv(text: str) -> str:
    """Same digest from the CSV of an all-edges ``eea`` query."""
    rows = list(csv.reader(io.StringIO(text)))[1:]
    arr = np.array([[int(r[0]), int(r[1]), int(r[2]), int(r[3])] for r in rows], dtype=np.int64)
    return _sha(np.ascontiguousarray(arr.reshape(-1, 4)).tobytes())


def query_digest(text: str) -> str:
    """Digest of a JSON run report without its timings and engine echo."""
    report = json.loads(text)
    kept = {k: report[k] for k in ("num_solutions", "solutions", "graph")}
    return _sha(json.dumps(kept, sort_keys=True, separators=(",", ":")).encode())


def sweep_digest(text: str) -> str:
    """Digest of sweep CSV rows without the engine and elapsed_ms columns."""
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    drop = {header.index("engine"), header.index("elapsed_ms")}
    kept = [[c for i, c in enumerate(r) if i not in drop] for r in rows]
    return _sha(json.dumps(kept).encode())


def op_digest(op: str, text: str) -> str:
    return sweep_digest(text) if op == "sweep" else query_digest(text)


def report_seconds(op: str, text: str) -> float:
    """Time the CLI's own output accounts for: Σ timings_ms of a query report,
    Σ elapsed_ms of sweep rows."""
    if op == "sweep":
        return sum(float(r["elapsed_ms"]) for r in csv.DictReader(io.StringIO(text))) / 1000.0
    return sum(json.loads(text)["timings_ms"].values()) / 1000.0


def peak_rss_mb() -> float:
    """Peak resident set of this process since exec, in MiB.

    Read from VmHWM: Linux carries the pre-exec high-water mark of the
    forking parent into ``ru_maxrss``, so that would report the parent's size
    whenever the parent was the larger.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


# -- modes ----------------------------------------------------------------------


def _attempt(failures: list, what: str, fn, *args):
    """fn(*args), or None with the error appended to `failures`."""
    try:
        return fn(*args)
    except Exception as exc:  # a failed operation is counted, not fatal
        failures.append(f"{what}: {type(exc).__name__}: {exc}")
        return None


def _cli_op(w, path, out_path, failures, main=None):
    """Run the workload's CLI command; (wall, digest, output) or None."""
    result = _attempt(failures, "cli", run_cli, w.argv(path), out_path, main)
    if result is None:
        return None
    rc, wall = result
    if rc != 0:
        failures.append(f"cli: exit code {rc}")
        return None
    with open(out_path) as fh:
        text = fh.read()
    return wall, _attempt(failures, "cli digest", op_digest, w.op, text), text


def measure(req: dict) -> dict:
    """Timed cycles of load, count and CLI command until --seconds pass.

    Each timed operation starts after a full garbage collection, as in a
    fresh process: the previous operation's garbage is not charged to it,
    and whether a full collection lands inside a short operation does not
    flip from sample to sample. The probe runs before each operation and
    once at the end; ``timeline`` keeps every probe and operation sample in
    run order, and ``samples`` the operations scaled by the probes around
    them (`scale_samples`).
    """
    w = WORKLOADS[req["workload"]]
    path, out_path = req["input"], req["out"]
    timeline: list[tuple[str, float]] = []
    digests: dict[str, list] = {"count": [], "cli": []}
    failures: list[str] = []
    attempted = cli_samples = 0

    def probes():
        timeline.extend(("probe", probe()) for _ in range(PROBES_PER_OP))

    def timed(kind, fn, *args):
        probes()
        gc.collect()
        t0 = time.perf_counter()
        result = _attempt(failures, kind, fn, *args)
        if result is not None:
            timeline.append((kind + "_s", time.perf_counter() - t0))
        return result

    deadline = time.perf_counter() + req["seconds"]
    while cli_samples < MIN_CYCLES or time.perf_counter() < deadline:
        attempted += 3
        graph = timed("setup", load, path)
        if graph is not None:
            tables = timed("count", count_tables, *graph, w.deltas)
            if tables is not None:
                digests["count"].append([count_digest(graph[0], t) for t in tables])
        else:
            failures.append("count: skipped, no graph")
        # Freed before the CLI command, so peak RSS is the larger of the
        # two footprints, not their sum.
        graph = tables = None
        probes()
        got = _cli_op(w, path, out_path, failures)
        if got is not None:
            timeline.append(("cli_s", got[0]))
            digests["cli"].append(got[1])
            cli_samples += 1
        if len(failures) > 50:
            break
    probes()
    return {
        "samples": scale_samples(timeline),
        "timeline": timeline,
        "digests": digests,
        "attempted": attempted,
        "failures": failures,
        "graph": _attempt(notes := [], "stats", describe_input, path),
        "notes": notes,
        "peak_rss_mb": peak_rss_mb(),
    }


def trace(req: dict) -> dict:
    """Alternate untraced and traced CLI commands; per-layer numbers come from
    the traced ones, tracing overhead from the pair."""
    w = WORKLOADS[req["workload"]]
    path, out_path = req["input"], req["out"]
    failures: list[str] = []
    untraced: list[float] = []
    gaps: list[float] = []
    layers: list[dict] = []
    digests: list = []
    spans: list = []
    attempted = 0
    deadline = time.perf_counter() + req["seconds"]
    while len(layers) < MIN_TRACE_PAIRS or time.perf_counter() < deadline:
        attempted += 2
        got = _cli_op(w, path, out_path, failures)
        if got is not None:
            untraced.append(got[0])
            digests.append(got[1])
            gaps.append(got[0] - report_seconds(w.op, got[2]))
        tracer = Tracer()
        install_folty(tracer)
        try:
            got = _cli_op(w, path, out_path, failures, tracer.span("cli.main", cli.main))
        finally:
            tracer.restore()
        if got is not None:
            digests.append(got[1])
            layers.append(layer_metrics(tracer, got[0]))
            spans.append(tracer.records())
        if len(failures) > 50:
            break
    with open(req["spans"], "w") as fh:
        json.dump(spans, fh)
    graph = _attempt(notes := [], "stats", describe_input, path)
    work = _attempt(failures, "work", work_counts, path, w.deltas)
    attempted += 1
    return {
        "untraced_s": untraced,
        "report_gap_s": gaps,
        "layers": layers,
        "digests": {"cli": digests, "count": [work.pop("count_digests")] if work else []},
        "attempted": attempted,
        "failures": failures,
        "graph": graph,
        "notes": notes,
        "work": work,
    }


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer numbers of one traced CLI command."""
    self_s = tracer.self_times()
    busy = tracer.busy()
    out = {
        "trace.wall_s": wall,
        "cli.format_s": self_s.get("cli.main", 0.0),
        "cli.run_self_s": self_s.get("cli.run", 0.0),
        "cli.load_s": sum(
            busy.get(k, 0.0) for k in ("graph.parse", "graph.build_static", "graph.degeneracy_order")
        ),
    }
    for name in (
        "graph.parse", "graph.build_static", "graph.degeneracy_order", "graph.graph_stats",
        "graph.common_counts", "engine.triangles", "engine.out_pass", "engine.in_pass",
        "queries.eval_eea", "queries.eval_eae", "queries.eval_eaa",
    ):
        out[name + "_s"] = self_s.get(name, 0.0)
    counts = tracer.counts()
    for name in (
        "scans.calls", "scans.entries", "segtree.trees", "segtree.inserts", "segtree.lookups",
        "segtree.visits", "queries.threshold_calls", "queries.common_of_calls", "queries.solutions",
    ):
        out[name] = counts[name]
    return out


def describe_input(path: str) -> dict:
    """Size and shape of the input, so a slow run can be told from a large one."""
    g, static, ordering = load(path)
    stats = graph_stats(g, static, ordering)
    return {
        "n": stats.n,
        "m": stats.m,
        "static_edges": len(static.edges),
        "alpha": stats.alpha,
        "sigma_max": stats.sigma_max,
        "triangles": sum(len(cs) for _, _, cs in oriented_triangles(static, ordering)),
        "input_bytes": os.path.getsize(path),
    }


def work_counts(path: str, deltas) -> dict:
    """Engine work counts, computed from the triangle list and pair sizes.

    Each count covers the whole operation: the per-pass work times the number
    of count passes (one per delta), like the credit totals it pairs with.
    """
    g, static, ordering = load(path)
    sigma = g.sigma
    oriented_edges = triangles = out_expansions = 0
    targets: set[tuple[int, int]] = set()
    for a, b, cs in oriented_triangles(static, ordering):
        oriented_edges += 1
        triangles += len(cs)
        ab = sigma(a, b) + sigma(b, a)
        for c in cs:
            out_expansions += ab + sigma(a, c) + sigma(c, a)
            targets.add((b, c))
            targets.add((c, b))
    sizes = [sigma(x, y) for x, y in targets]
    passes = len(deltas)
    tables = count_tables(g, static, ordering, deltas)
    out_total = sum(sum(t.out_count) for t in tables)
    in_total = sum(sum(t.in_count) for t in tables)
    in_lookups = passes * sum(sizes)
    out_expansions *= passes
    return {
        "engine.triangles": passes * triangles,
        "engine.oriented_edges": passes * oriented_edges,
        "engine.out_expansions": out_expansions,
        "engine.in_lookups": in_lookups,
        "engine.in_target_pairs": passes * sum(1 for s in sizes if s),
        "engine.closing_total": out_total + in_total,
        "engine.out_credit_ratio": out_total / out_expansions if out_expansions else 0.0,
        "engine.in_credit_ratio": in_total / in_lookups if in_lookups else 0.0,
        "count_digests": [count_digest(g, t) for t in tables],
    }


def cli_text(argv: list[str], out_path: str) -> str:
    """Output of one CLI command that must succeed."""
    rc, _ = run_cli(argv, out_path)
    if rc != 0:
        raise RuntimeError(f"command {argv} exited {rc}")
    with open(out_path) as fh:
        return fh.read()


def all_edges_argv(path: str, delta: int, engine: str) -> list[str]:
    """An ``eea`` query listing every edge with a closing neighbor: the count table."""
    return ["query", "eea", path, "--delta", str(delta), "--tau", ALL_EDGES_TAU,
            "--format", "csv", "--engine", engine]


def reference(req: dict) -> dict:
    """Reference digests from the CLI with the practical engine (untimed)."""
    w = WORKLOADS[req["workload"]]
    path, out_path = req["input"], req["out"]
    counts = [count_digest_from_csv(cli_text(all_edges_argv(path, d, "practical"), out_path)) for d in w.deltas]
    return {"cli": op_digest(w.op, cli_text(w.argv(path, "practical"), out_path)), "count": counts}


def main(argv: list[str]) -> int:
    mode, req_path, result_path = argv
    with open(req_path) as fh:
        req = json.load(fh)
    result = {"measure": measure, "trace": trace, "reference": reference}[mode](req)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

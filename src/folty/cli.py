"""Command-line front end.

Subcommands:
  stats  PATH                      dataset summary (n, m, alpha, sigma_max, ...)
  query  KIND [flags] PATH         run one query, emit a run report
  sweep  KIND [grid flags] PATH    run a (delta, tau) grid, emit CSV rows

Durations accept s/m/h/d/w suffixes (bare integers are seconds). Thresholds
accept '0.25', '25%', or '1/4'. Exit codes: 0 success, 1 usage, 2 IO/parse,
3 oracle ceiling exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from fractions import Fraction

from .engine import CountTable, count_tables
from .graph import ParseError, build_static, degeneracy_order, graph_stats, parse_edge_list
from .oracle import DEFAULT_CEILING, OracleCeilingError, oracle_counts
from .queries import (
    Certificate,
    ParameterError,
    SolutionSet,
    Universe,
    VertexSolution,
    as_table,
    eval_eaa,
    eval_eae,
    eval_eea,
    parse_tau,
    practical_counts,
    validate_kind,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CEILING = 3

_DURATION_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}

CSV_HEADER = ["kind", "delta_s", "tau", "tau2", "universe", "engine", "num_solutions", "elapsed_ms"]


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the documented usage code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(ValueError):
    pass


def parse_duration(text: str) -> int:
    """Duration in seconds from '<int>[s|m|h|d|w]'."""
    s = text.strip().lower()
    if not s:
        raise UsageError("empty duration")
    unit = 1
    if s[-1] in _DURATION_UNITS:
        unit = _DURATION_UNITS[s[-1]]
        s = s[:-1]
    try:
        value = int(s)
    except ValueError:
        raise UsageError(f"cannot parse duration {text!r}") from None
    if value < 0:
        raise UsageError("duration must be >= 0")
    return value * unit


def _at_least(least: int, source: str):
    """An argparse type: an integer >= least, refused with a message that
    names its source. The engines run single-threaded, so --threads is
    checked but not used."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = least - 1  # not an integer: refused below with the same message
        if n < least:
            raise argparse.ArgumentTypeError(f"{source} takes an integer >= {least}, got {text!r}")
        return n

    return parse


def _load(path: str, lap=lambda phase: None):
    """The graph at path, its projection and its ordering, lapping load,
    static and degeneracy."""
    try:
        with open(path, "rb") as fh:
            g = parse_edge_list(fh)
    except ParseError as exc:
        raise ParseError(exc.lineno, exc.message, source=path) from None
    lap("load")
    static = build_static(g)
    lap("static")
    ordering = degeneracy_order(static)
    lap("degeneracy")
    return g, static, ordering


def run_query(
    path: str,
    kind: str,
    delta: int,
    tau: Fraction,
    tau2: Fraction | None = None,
    universe: Universe = Universe.DST,
    engine: str = "folty",
    ceiling: int = DEFAULT_CEILING,
) -> dict:
    """Execute one query and return its run report: a dict whose "solutions"
    entry is the query's SolutionSet, held as columns; _format_report writes
    it as JSON, CSV or text without building a row per solution."""
    kind = _checked_kind(kind, tau2)
    lap = _Laps()
    g, static, ordering = _load(path, lap)
    (table,) = _count_tables(g, static, ordering, [delta], engine, ceiling, lap)
    solset = _threshold(g, static, table, kind, tau, tau2, universe)
    lap("threshold")
    graph = {"n": g.n, "m": g.m, "alpha": ordering.alpha, "sigma_max": g.sigma_max()}
    lap("stats")
    return {
        "query": _echo(kind, delta, tau, tau2, universe, engine),
        "num_solutions": solset.total,
        "solutions": solset,
        "graph": graph,
        "timings_ms": lap.ms,
    }


class _Laps:
    """Contiguous phase timings in ms: each lap runs from the end of the
    previous one, so the laps add up to the time since the first clock read.
    A phase lapped more than once accumulates."""

    def __init__(self):
        self.ms: dict[str, float] = {}
        self._last = time.perf_counter()

    def __call__(self, key: str) -> None:
        now = time.perf_counter()
        self.ms[key] = round(self.ms.get(key, 0.0) + (now - self._last) * 1000.0, 3)
        self._last = now


def _count_tables(g, static, ordering, deltas, engine, ceiling, lap: _Laps) -> list[CountTable]:
    """One count table per delta, lapping triangles, out_pass and in_pass.
    The folty engine counts every delta in one expansion (count_tables); the
    practical and oracle engines run one pass per delta, all lapped together
    as out_pass, and their totals go on the tables' out side (as_table)."""
    if engine == "folty":
        return count_tables(g, deltas, static, ordering, lap=lap)
    lap.ms["triangles"] = 0.0
    if engine == "practical":
        totals = [practical_counts(g, static, delta) for delta in deltas]
    elif engine == "oracle":
        totals = [oracle_counts(g, delta, static, max_edges=ceiling).count for delta in deltas]
    else:
        raise UsageError(f"unknown engine {engine!r}; expected folty, practical, or oracle")
    tables = [as_table(counts, delta) for counts, delta in zip(totals, deltas)]
    lap("out_pass")
    lap.ms["in_pass"] = 0.0
    return tables


def _checked_kind(kind: str, tau2: Fraction | None) -> str:
    """The validated kind; eaa without tau2 is refused before any work."""
    kind = validate_kind(kind)
    if kind == "eaa" and tau2 is None:
        raise UsageError("eaa requires --tau1 and --tau2")
    return kind


def _echo(kind, delta, tau, tau2, universe, engine) -> dict:
    """The query's fields as a report's query block and a sweep row's first
    six columns give them: tau2 only for eaa, else ""."""
    return {
        "kind": kind,
        "delta_s": delta,
        "tau": str(tau),
        "tau2": str(tau2) if kind == "eaa" else "",
        "universe": universe.value,
        "engine": engine,
    }


def _threshold(g, static, table, kind, tau, tau2, universe) -> SolutionSet:
    if kind == "eea":
        return eval_eea(g, static, table, tau, universe)
    if kind == "eae":
        return eval_eae(g, static, table, tau)
    return eval_eaa(g, static, table, tau, tau2, universe)


def run_sweep(
    path: str,
    kind: str,
    deltas: list[int],
    taus: list[Fraction],
    tau2: Fraction | None = None,
    universe: Universe = Universe.DST,
    engine: str = "folty",
    ceiling: int = DEFAULT_CEILING,
) -> tuple[list[dict], dict]:
    """Run the (delta, tau) grid: one counting call gives every delta's count
    table (the folty engine from one expansion), and each table serves every
    tau. A row reads only its answer's total, so no solution row is built.

    Returns (rows, meta). meta["count_runs"] has one entry per delta with its
    counting-phase timings; the one counting call is charged to the first
    delta's entry and the others read 0.0, so the entries sum to the
    counting time. A row's elapsed_ms is its threshold time; the threshold
    state that no tau changes is built on first use, so it is charged to the
    first row that needs it.
    """
    kind = _checked_kind(kind, tau2)
    if not deltas or not taus:
        raise UsageError("sweep grid is empty")
    g, static, ordering = _load(path)
    deltas = sorted(set(deltas))
    lap = _Laps()
    tables = _count_tables(g, static, ordering, deltas, engine, ceiling, lap)
    count_runs = [
        {"delta_s": delta, **{f"{k}_ms": ms if delta == deltas[0] else 0.0 for k, ms in lap.ms.items()}}
        for delta in deltas
    ]
    rows: list[dict] = []
    for delta, table in zip(deltas, tables):
        for tau in sorted(set(taus)):
            t0 = time.perf_counter()
            solset = _threshold(g, static, table, kind, tau, tau2, universe)
            elapsed = round((time.perf_counter() - t0) * 1000.0, 3)
            row = _echo(kind, delta, tau, tau2, universe, engine)
            rows.append({**row, "num_solutions": solset.total, "elapsed_ms": elapsed})
    return rows, {"count_runs": count_runs}


#: Per row type, one solution of the JSON report as json.dumps(indent=2,
#: sort_keys=True) writes an item of "solutions" (with the separator before
#: it), the columns in that key order, and one line of the text report.
_JSON_ROW = {
    row: (",\n    {\n" + ",\n".join(f'      "{key}": %d' for key in sorted(row._fields)) + "\n    }",
          [row._fields.index(key) for key in sorted(row._fields)])
    for row in (Certificate, VertexSolution)
}
_TEXT_ROW = {Certificate: "  %d %d %d count=%d/%d\n", VertexSolution: "  vertex %d satisfied=%d/%d\n"}


def _rows(template: str, columns: list[list[int]]) -> str:
    """template % row for each row of the columns, concatenated: one % over
    the columns interleaved."""
    width, k = len(columns), len(columns[0])
    flat = [0] * (width * k)
    for i, column in enumerate(columns):
        flat[i::width] = column
    return template * k % tuple(flat)


def _format_report(report: dict, fmt: str) -> str:
    """The report as JSON, as CSV (the solutions alone) or as text. The
    solutions are written from their columns through a fixed template per
    row type: the JSON reads as json.dumps(indent=2, sort_keys=True) of the
    report with each solution a dict, the CSV as csv.DictWriter writes those
    dicts."""
    solset: SolutionSet = report["solutions"]
    row = solset.row
    columns = solset.columns()
    if fmt == "json":
        head, tail = json.dumps({**report, "solutions": []}, indent=2, sort_keys=True).split('"solutions": []')
        template, order = _JSON_ROW[row]
        body = f"[{_rows(template, [columns[i] for i in order])[1:]}\n  ]" if solset.total else "[]"
        return f'{head}"solutions": {body}{tail}'
    if fmt == "csv":
        return ",".join(row._fields) + "\r\n" + _rows(",".join(["%d"] * len(columns)) + "\r\n", columns)
    lines = []
    q = report["query"]
    lines.append(
        f"query {q['kind']} delta={q['delta_s']}s tau={q['tau']}"
        + (f" tau2={q['tau2']}" if q["tau2"] else "")
        + f" universe={q['universe']} engine={q['engine']}"
    )
    gr = report["graph"]
    lines.append(
        f"graph  n={gr['n']} m={gr['m']} alpha={gr['alpha']} sigma_max={gr['sigma_max']}"
    )
    tm = report["timings_ms"]
    lines.append("time   " + " ".join(f"{k}={ms:.1f}ms" for k, ms in tm.items()))
    lines.append(f"num_solutions {report['num_solutions']}")
    return "\n".join(lines) + "\n" + _rows(_TEXT_ROW[row], columns)


def _parse_tau_list(args) -> list[Fraction]:
    taus: list[Fraction] = []
    if args.tau_list:
        taus.extend(parse_tau(part) for part in args.tau_list.split(",") if part.strip())
    if args.tau_range:
        parts = args.tau_range.split(":")
        if len(parts) != 3:
            raise UsageError("--tau-range expects lo:hi:step")
        lo, hi, step = (parse_tau(p) for p in parts)
        cur = lo
        while cur <= hi:
            taus.append(cur)
            cur += step
    if not taus:
        if args.tau_range:
            raise UsageError(f"--tau-range {args.tau_range} is empty: lo exceeds hi")
        raise UsageError("sweep needs --tau-list or --tau-range")
    return taus


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="folty", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="dataset summary")
    p_stats.add_argument("path")
    p_stats.add_argument("--format", choices=["json", "text"], default="text")

    p_query = sub.add_parser("query", help="run one query")
    p_query.add_argument("kind", help="eea, eae, or eaa")
    p_query.add_argument("path")
    p_query.add_argument("--delta", required=True, help="window, e.g. 3600, 30m, 4w")
    p_query.add_argument("--tau", help="threshold for eea/eae")
    p_query.add_argument("--tau1", help="outer threshold for eaa")
    p_query.add_argument("--tau2", help="inner threshold for eaa")
    p_query.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p_query.add_argument("--solutions-out", help="write full solutions as CSV to this path")

    p_sweep = sub.add_parser("sweep", help="run a (delta, tau) grid as CSV")
    p_sweep.add_argument("kind")
    p_sweep.add_argument("path")
    p_sweep.add_argument("--delta-list", help="comma-separated windows, e.g. 10m,30m,1h")
    p_sweep.add_argument("--delta", help="single window (alternative to --delta-list)")
    p_sweep.add_argument("--tau-list", help="comma-separated thresholds")
    p_sweep.add_argument("--tau-range", help="lo:hi:step thresholds")
    p_sweep.add_argument("--tau2", help="fixed inner threshold for eaa sweeps")

    threads = os.environ.get("FOLTY_THREADS", "1")
    for p in (p_query, p_sweep):
        p.add_argument("--universe", choices=["dst", "common"], default="dst")
        p.add_argument("--engine", choices=["folty", "practical", "oracle"], default="folty")
        p.add_argument("--threads", type=_at_least(1, "--threads (or FOLTY_THREADS)"), default=threads)
        p.add_argument("--oracle-ceiling", type=_at_least(0, "--oracle-ceiling"), default=DEFAULT_CEILING)
    return parser


def _cmd_stats(args) -> int:
    stats = graph_stats(*_load(args.path)).as_dict()
    if args.format == "json":
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        width = max(len(k) for k in stats)
        for key, value in stats.items():
            print(f"{key:<{width}}  {value}")
    return EXIT_OK


def _cmd_query(args) -> int:
    kind = validate_kind(args.kind)
    delta = parse_duration(args.delta)
    if kind == "eaa":
        if not args.tau1 or not args.tau2:
            raise UsageError("eaa requires --tau1 and --tau2")
        tau = parse_tau(args.tau1)
        tau2 = parse_tau(args.tau2)
    else:
        if not args.tau:
            raise UsageError(f"{kind} requires --tau")
        tau = parse_tau(args.tau)
        tau2 = None
    report = run_query(args.path, kind, delta, tau, tau2, Universe(args.universe), args.engine, args.oracle_ceiling)
    out = _format_report(report, args.format)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    if args.solutions_out:
        with open(args.solutions_out, "w", newline="") as fh:
            fh.write(_format_report(report, "csv"))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    kind = validate_kind(args.kind)
    deltas: list[int] = []
    if args.delta_list:
        deltas.extend(parse_duration(p) for p in args.delta_list.split(",") if p.strip())
    if args.delta:
        deltas.append(parse_duration(args.delta))
    if not deltas:
        raise UsageError("sweep needs --delta-list or --delta")
    taus = _parse_tau_list(args)
    tau2 = parse_tau(args.tau2) if args.tau2 else None
    if kind == "eaa" and tau2 is None:
        raise UsageError("eaa sweeps require --tau2")
    rows, _ = run_sweep(args.path, kind, deltas, taus, tau2, Universe(args.universe), args.engine, args.oracle_ceiling)
    writer = csv.DictWriter(sys.stdout, CSV_HEADER)
    writer.writeheader()
    writer.writerows(rows)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "query":
            return _cmd_query(args)
        return _cmd_sweep(args)
    except (UsageError, ParameterError, OracleCeilingError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, OracleCeilingError):
            return EXIT_CEILING
        return EXIT_IO if isinstance(exc, (ParseError, OSError)) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Answers as columns: the report writers give the bytes of the dict-based
writers they replace, and no solution row is built unless it is read."""

import csv
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from folty import cli
from folty.cli import main, run_sweep
from folty.engine import count_tables
from folty.graph import build_static, parse_edge_list
from folty.oracle import oracle_solutions
from folty.queries import Certificate, QuerySpec, SolutionSet, Universe, VertexSolution, eval_eaa, eval_eae, eval_eea

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1


def _graph_text(seed, ids):
    """A dense random multigraph over the given ids, timestamps from both
    int64 extremes and a small middle range, plus a pendant vertex, whose
    pair has a common universe of size 0."""
    rng = random.Random(seed)
    times = [I64_MIN, I64_MIN + 1, I64_MAX - 1, I64_MAX] + list(range(30))
    lines = [f"{ids[0]} {ids[-1] + 1} 5\n", f"{ids[-1] + 1} {ids[0]} 6\n"]
    while len(lines) < 92:
        u, v = rng.sample(ids, 2)
        lines.append(f"{u} {v} {rng.choice(times)}\n")
    return "".join(lines)


@pytest.fixture(scope="module", params=["small_ids", "big_ids"])
def graph_path(request, tmp_path_factory):
    """Ids that fit int64, and ids beyond it (read as graph labels)."""
    base = 0 if request.param == "small_ids" else 2**64
    ids = [base + 3 * i for i in range(9)]
    path = tmp_path_factory.mktemp("answers") / "g.txt"
    path.write_text(_graph_text(0xA45 + len(request.param), ids))
    return str(path)


@pytest.fixture(scope="module")
def empty_path(tmp_path_factory):
    """A 5-cycle: no triangle, so every answer is empty."""
    path = tmp_path_factory.mktemp("answers") / "cycle.txt"
    path.write_text("".join(f"{i} {(i + 1) % 5} {i}\n" for i in range(5)))
    return str(path)


def reference_format(report, fmt):
    """The writers as they were: the solutions as dicts, through
    json.dumps(indent=2, sort_keys=True), csv.DictWriter and f-strings."""
    solset = report["solutions"]
    sols = [sol._asdict() for sol in solset.solutions]
    if fmt == "json":
        return json.dumps({**report, "solutions": sols}, indent=2, sort_keys=True)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, Certificate._fields if solset.kind == "eea" else VertexSolution._fields)
        writer.writeheader()
        writer.writerows(sols)
        return buf.getvalue()
    q, gr, tm = report["query"], report["graph"], report["timings_ms"]
    lines = [
        f"query {q['kind']} delta={q['delta_s']}s tau={q['tau']}"
        + (f" tau2={q['tau2']}" if q["tau2"] else "")
        + f" universe={q['universe']} engine={q['engine']}",
        f"graph  n={gr['n']} m={gr['m']} alpha={gr['alpha']} sigma_max={gr['sigma_max']}",
        "time   " + " ".join(f"{k}={ms:.1f}ms" for k, ms in tm.items()),
        f"num_solutions {report['num_solutions']}",
    ]
    for s in sols:
        if "src" in s:
            lines.append(f"  {s['src']} {s['dst']} {s['t']} count={s['count']}/{s['universe_size']}")
        else:
            lines.append(f"  vertex {s['vertex']} satisfied={s['satisfied']}/{s['degree']}")
    return "\n".join(lines) + "\n"


QUERIES = [
    ["eea", "--tau", "1/3", "--universe", "dst"],
    ["eea", "--tau", "1/3", "--universe", "common"],
    ["eea", "--tau", f"1/{2**62}", "--universe", "common"],
    ["eae", "--tau", "1/2"],
    ["eaa", "--tau1", "1/3", "--tau2", "1/4", "--universe", "dst"],
    ["eaa", "--tau1", "1/3", "--tau2", "1/4", "--universe", "common"],
]


def _query(monkeypatch, capsys, tmp_path, argv):
    """stdout and --solutions-out bytes of one query, and the report the
    command wrote them from."""
    reports = []
    run_query = cli.run_query
    monkeypatch.setattr(cli, "run_query", lambda *a, **k: reports.append(run_query(*a, **k)) or reports[-1])
    out = tmp_path / "sols.csv"
    assert main(argv + ["--solutions-out", str(out)]) == 0
    with open(out, newline="") as fh:
        return capsys.readouterr().out, fh.read(), reports[0]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("engine", ["folty", "practical", "oracle"])
@pytest.mark.parametrize("flags", QUERIES, ids=lambda f: "-".join(f[::2]).replace("/", "_"))
def test_writers_are_byte_identical(graph_path, monkeypatch, capsys, tmp_path, flags, engine, fmt):
    argv = ["query", flags[0], graph_path, *flags[1:], "--delta", str(2**64), "--engine", engine, "--format", fmt]
    stdout, sols_csv, report = _query(monkeypatch, capsys, tmp_path, argv)
    assert report["num_solutions"] > 0
    want = reference_format(report, fmt)
    assert stdout == (want if want.endswith("\n") else want + "\n")
    assert sols_csv == reference_format(report, "csv")


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("flags", QUERIES, ids=lambda f: "-".join(f[::2]).replace("/", "_"))
def test_empty_answers_are_byte_identical(empty_path, monkeypatch, capsys, tmp_path, flags, fmt):
    argv = ["query", flags[0], empty_path, *flags[1:], "--delta", "10", "--format", fmt]
    stdout, sols_csv, report = _query(monkeypatch, capsys, tmp_path, argv)
    assert report["num_solutions"] == 0
    want = reference_format(report, fmt)
    assert stdout == (want if want.endswith("\n") else want + "\n")
    assert sols_csv == reference_format(report, "csv") == ",".join(report["solutions"].row._fields) + "\r\n"


@pytest.fixture
def constructions(monkeypatch):
    """Certificate and VertexSolution rows built, counted through both
    constructors a namedtuple has."""
    built = []
    for row in (Certificate, VertexSolution):
        new, make = row.__new__, row._make.__func__

        def counting_new(cls, *args, _new=new, **kwargs):
            built.append(cls)
            return _new(cls, *args, **kwargs)

        def counting_make(cls, iterable, _make=make):
            built.append(cls)
            return _make(cls, iterable)

        monkeypatch.setattr(row, "__new__", staticmethod(counting_new))
        monkeypatch.setattr(row, "_make", classmethod(counting_make))
    return built


def test_rows_are_built_on_first_read(graph_path, constructions):
    g = parse_edge_list(Path(graph_path).read_text())
    static = build_static(g)
    (table,) = count_tables(g, [2**64], static)
    for solset in (eval_eea(g, static, table, Fraction(1, 3)), eval_eaa(g, static, table, Fraction(1, 3), Fraction(1, 4))):
        assert solset.total > 0 and not constructions
        rows = solset.solutions
        assert len(constructions) == solset.total == len(rows) and solset.solutions is rows
        assert all(type(field) is int for row in rows for field in row)
        constructions.clear()


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("flags", QUERIES, ids=lambda f: "-".join(f[::2]).replace("/", "_"))
def test_queries_build_no_rows(graph_path, capsys, tmp_path, constructions, flags, fmt):
    argv = ["query", flags[0], graph_path, *flags[1:], "--delta", str(2**64), "--format", fmt]
    assert main(argv + ["--solutions-out", str(tmp_path / "sols.csv")]) == 0
    assert capsys.readouterr().out
    assert constructions == []
    assert len((tmp_path / "sols.csv").read_text().splitlines()) > 1  # a non-empty answer


SWEEP_TAUS = [Fraction(1, 2**62), Fraction(1, 9), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
SWEEP_DELTAS = [0, 5, 2**64]


@pytest.mark.parametrize("universe", list(Universe))
@pytest.mark.parametrize("kind", ["eea", "eae", "eaa"])
def test_sweeps_build_no_rows(graph_path, constructions, kind, universe):
    """Sweep rows read only the answers' totals, and each equals the number
    of rows of the full answer. The taus include least counts of 1 (1/2**62,
    and 1/9 of any universe up to 9), and the common universe has pairs of
    size 0."""
    tau2 = Fraction(1, 4) if kind == "eaa" else None
    rows, _ = run_sweep(graph_path, kind, SWEEP_DELTAS, SWEEP_TAUS, tau2, universe)
    assert constructions == []
    g = parse_edge_list(Path(graph_path).read_text())
    static = build_static(g)
    assert (g.pair_common(static) == 0).any()
    tables = count_tables(g, SWEEP_DELTAS, static)
    answers = {
        "eea": lambda table, tau: eval_eea(g, static, table, tau, universe),
        "eae": lambda table, tau: eval_eae(g, static, table, tau),
        "eaa": lambda table, tau: eval_eaa(g, static, table, tau, tau2, universe),
    }[kind]
    want = [len(answers(table, tau).solutions) for table in tables for tau in SWEEP_TAUS]
    assert [row["num_solutions"] for row in rows] == want
    assert 0 in want and any(want)


EVALS = {
    "eea": lambda g, static, table, spec: eval_eea(g, static, table, spec.tau, spec.universe),
    "eae": lambda g, static, table, spec: eval_eae(g, static, table, spec.tau),
    "eaa": lambda g, static, table, spec: eval_eaa(g, static, table, spec.tau, spec.tau2, spec.universe),
}


@pytest.mark.parametrize("kind", list(EVALS))
def test_row_built_columns_match_eval_columns(graph_path, empty_path, kind):
    """The oracle builds its answers from rows; their columns are the
    columns of the eval_* answers, on a graph with answers and on one whose
    every answer is empty."""
    tau2 = Fraction(1, 4) if kind == "eaa" else None
    found = 0
    for path in (graph_path, empty_path):
        g = parse_edge_list(Path(path).read_text())
        static = build_static(g)
        (table,) = count_tables(g, [2**64], static)
        for universe in Universe:
            spec = QuerySpec(kind, 2**64, Fraction(1, 3), tau2, universe)
            rows = oracle_solutions(g, 2**64, spec, static)
            assert rows.columns() == EVALS[kind](g, static, table, spec).columns()
            if path == empty_path:
                assert rows.columns() == [[] for _ in rows.row._fields]
            found += rows.total
    assert found > 0


def test_solution_set_repr_and_foreign_eq():
    sols = SolutionSet("eae", [VertexSolution(7, 1, 2)], 1)
    assert repr(sols) == "SolutionSet(kind='eae', solutions=[VertexSolution(vertex=7, satisfied=1, degree=2)], total=1)"
    assert sols.__eq__(object()) is NotImplemented
    assert sols != object()

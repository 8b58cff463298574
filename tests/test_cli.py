"""CLI surface: formats, exit codes, engine parity, sweeps."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import folty
from folty.cli import (
    CSV_HEADER,
    EXIT_CEILING,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_duration,
    run_query,
    run_sweep,
)

TRIANGLE = "1 2 10\n1 3 12\n2 3 15\n"

# 5 vertices, enough structure for nonempty answers at several taus
RICHER = """\
1 2 10
1 3 11
2 3 12
2 4 13
3 4 14
1 4 15
2 1 20
3 1 21
4 2 22
1 2 30
1 3 31
2 3 33
"""


@pytest.fixture
def triangle_path(tmp_path):
    p = tmp_path / "triangle.txt"
    p.write_text(TRIANGLE)
    return str(p)


@pytest.fixture
def richer_path(tmp_path):
    p = tmp_path / "richer.txt"
    p.write_text(RICHER)
    return str(p)


class TestDuration:
    def test_suffixes(self):
        assert parse_duration("90") == 90
        assert parse_duration("2s") == 2
        assert parse_duration("3m") == 180
        assert parse_duration("2h") == 7200
        assert parse_duration("1d") == 86400
        assert parse_duration("4w") == 2_419_200

    def test_bad(self):
        from folty.cli import UsageError

        for bad in ("", "x", "4x", "-5"):
            with pytest.raises(UsageError):
                parse_duration(bad)


class TestStats(object):
    def test_text(self, triangle_path, capsys):
        assert main(["stats", triangle_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "alpha" in out and "sigma_max" in out

    def test_json(self, triangle_path, capsys):
        assert main(["stats", "--format", "json", triangle_path]) == EXIT_OK
        stats = json.loads(capsys.readouterr().out)
        assert stats == {"n": 3, "m": 3, "alpha": 2, "sigma_max": 1, "sum_edge_degree": 6}

    def test_empty_file(self, tmp_path, capsys):
        p = tmp_path / "empty.txt"
        p.write_text("")
        assert main(["stats", "--format", "json", str(p)]) == EXIT_OK
        stats = json.loads(capsys.readouterr().out)
        assert all(v == 0 for v in stats.values())


class TestQuery:
    def test_json_report_roundtrip(self, triangle_path, capsys):
        code = main(
            ["query", "eea", triangle_path, "--delta", "10", "--tau", "0.5"]
        )
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report == json.loads(json.dumps(report))
        assert report["num_solutions"] == 1
        assert report["num_solutions"] == len(report["solutions"])
        assert report["solutions"][0] == {
            "src": 1,
            "dst": 2,
            "t": 10,
            "count": 1,
            "universe_size": 2,
        }
        assert set(report["timings_ms"]) == {
            "load",
            "static",
            "degeneracy",
            "triangles",
            "out_pass",
            "in_pass",
            "threshold",
            "stats",
        }

    def test_single_edge_delta_zero(self, tmp_path, capsys):
        p = tmp_path / "one.txt"
        p.write_text("1 2 5\n")
        assert main(["query", "eea", str(p), "--delta", "0", "--tau", "0.5"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["num_solutions"] == 0

    def test_eaa_flags(self, triangle_path, capsys):
        code = main(
            [
                "query",
                "eaa",
                triangle_path,
                "--delta",
                "10",
                "--tau1",
                "0.5",
                "--tau2",
                "50%",
            ]
        )
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["solutions"] == [{"vertex": 1, "satisfied": 1, "degree": 2}]

    def test_engines_identical_payload(self, richer_path, capsys):
        payloads = []
        for engine in ("folty", "practical", "oracle"):
            assert (
                main(
                    [
                        "query",
                        "eea",
                        richer_path,
                        "--delta",
                        "20",
                        "--tau",
                        "1/4",
                        "--engine",
                        engine,
                        "--format",
                        "csv",
                    ]
                )
                == EXIT_OK
            )
            payloads.append(capsys.readouterr().out)
        assert payloads[0] == payloads[1] == payloads[2]

    def test_solutions_out(self, triangle_path, tmp_path, capsys):
        out = tmp_path / "sols.csv"
        main(
            [
                "query",
                "eea",
                triangle_path,
                "--delta",
                "10",
                "--tau",
                "0.5",
                "--solutions-out",
                str(out),
            ]
        )
        capsys.readouterr()
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["src", "dst", "t", "count", "universe_size"]
        assert rows[1] == ["1", "2", "10", "1", "2"]
        # the file holds exactly the --format csv report
        for flags in (["eea", "--tau", "0.5"], ["eaa", "--tau1", "0.5", "--tau2", "50%"]):
            argv = ["query", flags[0], triangle_path, "--delta", "10", *flags[1:], "--format", "csv"]
            assert main(argv + ["--solutions-out", str(out)]) == EXIT_OK
            assert out.read_bytes() == capsys.readouterr().out.encode()

    def test_threads_env_fallback(self, triangle_path, capsys, monkeypatch):
        monkeypatch.setenv("FOLTY_THREADS", "2")
        assert main(["query", "eea", triangle_path, "--delta", "10", "--tau", "0.5"]) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setenv("FOLTY_THREADS", "0")
        assert main(["query", "eea", triangle_path, "--delta", "10", "--tau", "0.5"]) == EXIT_USAGE
        monkeypatch.setenv("FOLTY_THREADS", "abc")
        assert main(["query", "eea", triangle_path, "--delta", "10", "--tau", "0.5"]) == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self, triangle_path, capsys):
        code = main(["query", "eea", triangle_path, "--delta", "10", "--tau", "0.5", "--bogus"])
        assert code == EXIT_USAGE

    def test_text_format(self, triangle_path, capsys):
        assert (
            main(
                [
                    "query",
                    "eea",
                    triangle_path,
                    "--delta",
                    "10",
                    "--tau",
                    "0.5",
                    "--format",
                    "text",
                ]
            )
            == EXIT_OK
        )
        out = capsys.readouterr().out
        assert "num_solutions 1" in out
        times = next(line for line in out.splitlines() if line.startswith("time "))
        keys = [field.split("=")[0] for field in times.split()[1:]]
        assert keys == ["load", "static", "degeneracy", "triangles", "out_pass", "in_pass", "threshold", "stats"]


class TestExitCodes:
    def test_usage_bad_tau(self, triangle_path, capsys):
        assert main(["query", "eea", triangle_path, "--delta", "10", "--tau", "2"]) == EXIT_USAGE

    def test_usage_missing_tau(self, triangle_path, capsys):
        assert main(["query", "eea", triangle_path, "--delta", "10"]) == EXIT_USAGE

    def test_usage_universal_prefix(self, triangle_path, capsys):
        code = main(["query", "aee", triangle_path, "--delta", "10", "--tau", "0.5"])
        assert code == EXIT_USAGE
        assert "de Morgan" in capsys.readouterr().err

    def test_range_error_echoes_tau_text(self, triangle_path, capsys):
        assert main(["query", "eea", triangle_path, "--delta", "10", "--tau", "1e400"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: threshold must be in (0, 1], got 1e400\n"

    def test_io_missing_file(self, capsys):
        assert main(["stats", "/nonexistent/file.txt"]) == EXIT_IO

    def test_parse_error_carries_path_and_line(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("1 2 10\nbroken\n")
        assert main(["stats", str(p)]) == EXIT_IO
        err = capsys.readouterr().err
        assert "line 2" in err
        assert str(p) in err

    def test_oracle_ceiling(self, tmp_path, capsys):
        p = tmp_path / "big.txt"
        p.write_text("".join(f"1 2 {t}\n" for t in range(20)))
        code = main(
            [
                "query",
                "eea",
                str(p),
                "--delta",
                "10",
                "--tau",
                "0.5",
                "--engine",
                "oracle",
                "--oracle-ceiling",
                "5",
            ]
        )
        assert code == EXIT_CEILING


#: (argv after the command, FOLTY_THREADS or None, exit code): the query
#: and sweep usage paths. PATH stands for the input file.
USAGE_PATHS = [
    *(
        ([cmd, "eea", "PATH", *grid, "--threads", bad], None, EXIT_USAGE)
        for cmd, grid in (
            ("query", ["--delta", "10", "--tau", "0.5"]),
            ("sweep", ["--delta", "10", "--tau-list", "0.5"]),
        )
        for bad in ("0", "abc")
    ),
    (["sweep", "eea", "PATH", "--delta", "10", "--tau-list", "0.5"], "0", EXIT_USAGE),
    (["query", "eaa", "PATH", "--delta", "10", "--tau2", "0.5"], None, EXIT_USAGE),
    (["query", "eaa", "PATH", "--delta", "10", "--tau1", "0.5"], None, EXIT_USAGE),
    (["sweep", "eaa", "PATH", "--delta", "10", "--tau-list", "0.5"], None, EXIT_USAGE),
    (["sweep", "eea", "PATH", "--tau-list", "0.5"], None, EXIT_USAGE),
    (["sweep", "eea", "PATH", "--delta", "10", "--tau-range", "0.1:0.5"], None, EXIT_USAGE),
    (["query", "eea", "PATH", "--delta", "10", "--tau", "0.5", "--threads", "+3"], None, EXIT_OK),
    (["sweep", "eea", "PATH", "--delta", "10", "--tau-list", "0.5", "--threads", "+3"], None, EXIT_OK),
    (["query", "eea", "PATH", "--delta", "10", "--tau", "0.5", "--threads", "2"], "abc", EXIT_OK),
    (["stats", "PATH"], "abc", EXIT_OK),
    *(
        ([cmd, "eea", "PATH", *grid, "--engine", "oracle", "--oracle-ceiling", ceiling], None, code)
        for cmd, grid in (
            ("query", ["--delta", "10", "--tau", "0.5"]),
            ("sweep", ["--delta", "10", "--tau-list", "0.5"]),
        )
        for ceiling, code in (("-1", EXIT_USAGE), ("abc", EXIT_USAGE), ("0", EXIT_CEILING))
    ),
]


class TestUsagePaths:
    @pytest.mark.parametrize("argv,env,code", USAGE_PATHS)
    def test_exit_code(self, richer_path, monkeypatch, capsys, argv, env, code):
        if env is None:
            monkeypatch.delenv("FOLTY_THREADS", raising=False)
        else:
            monkeypatch.setenv("FOLTY_THREADS", env)
        assert main([richer_path if a == "PATH" else a for a in argv]) == code
        err = capsys.readouterr().err
        assert ("error: " in err) == (code != EXIT_OK)

    def test_threads_message_names_flag_and_variable(self, richer_path, monkeypatch, capsys):
        argv = ["sweep", "eea", richer_path, "--delta", "10", "--tau-list", "0.5"]
        for env, flag in (("0", []), ("1", ["--threads", "abc"])):
            monkeypatch.setenv("FOLTY_THREADS", env)
            assert main(argv + flag) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("usage: folty sweep")
            assert "--threads" in err.splitlines()[-1] and "FOLTY_THREADS" in err.splitlines()[-1]

    @pytest.mark.parametrize(
        "call",
        [
            lambda path: run_sweep(path, "eea", [], [_tau("0.5")]),
            lambda path: run_sweep(path, "eea", [10], []),
            lambda path: run_query(path, "eea", 10, _tau("0.5"), engine="x"),
            lambda path: run_query(path, "eaa", 10, _tau("0.5")),
        ],
    )
    def test_library_usage_errors(self, richer_path, call):
        from folty.cli import UsageError

        with pytest.raises(UsageError):
            call(richer_path)

    @pytest.mark.parametrize(
        "call",
        [
            lambda path: run_query(path, "eaa", 10, _tau("0.5")),
            lambda path: run_sweep(path, "eaa", [10], [_tau("0.5")]),
        ],
    )
    def test_eaa_without_tau2_refused_before_load(self, richer_path, monkeypatch, call):
        from folty.cli import UsageError

        def refuse(data):
            raise AssertionError("input parsed")

        monkeypatch.setattr(folty.cli, "parse_edge_list", refuse)
        with pytest.raises(UsageError, match="eaa requires --tau1 and --tau2"):
            call(richer_path)


class TestSweep:
    def test_csv_schema_and_monotone_columns(self, richer_path, capsys):
        code = main(
            [
                "sweep",
                "eea",
                richer_path,
                "--delta-list",
                "5,20,2m",
                "--tau-list",
                "0.25,0.5,0.75",
            ]
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == CSV_HEADER
        body = rows[1:]
        assert len(body) == 9
        # ordered by (delta, tau)
        keys = [(int(r[1]), _tau(r[2])) for r in body]
        assert keys == sorted(keys)
        # tau sweep at fixed delta: non-increasing solutions
        for d in ("5", "20", "120"):
            sols = [int(r[6]) for r in body if r[1] == d]
            assert sols == sorted(sols, reverse=True)
        # delta sweep at fixed tau: non-decreasing solutions
        for tau in ("1/4", "1/2", "3/4"):
            sols = [int(r[6]) for r in body if r[2] == tau]
            assert sols == sorted(sols)

    def test_count_reuse_across_taus(self, richer_path):
        rows, meta = run_sweep(
            richer_path,
            "eea",
            deltas=[10, 60],
            taus=[json_tau for json_tau in map(_tau, ("0.25", "0.5", "0.75", "1"))],
        )
        assert len(meta["count_runs"]) == 2  # one counting pass per delta
        assert len(rows) == 8

    def test_triangles_enumerated_once_per_sweep(self, richer_path, monkeypatch):
        import folty.graph

        calls = []
        enumerate_triangles = folty.graph.DegeneracyOrdering.triangle_entries

        def counting(self):
            calls.append(self._triangle_entries is None)
            return enumerate_triangles(self)

        monkeypatch.setattr(folty.graph.DegeneracyOrdering, "triangle_entries", counting)
        run_sweep(richer_path, "eea", deltas=[10, 60, 300], taus=[_tau("0.5")])
        # Built once, by the pair-id lookup, then read once by each pass.
        assert calls == [True, False, False]

    def test_empty_grid_usage_error(self, richer_path, capsys):
        assert main(["sweep", "eea", richer_path, "--delta-list", "10"]) == EXIT_USAGE

    def test_empty_tau_range_is_named(self, richer_path, capsys):
        argv = ["sweep", "eaa", richer_path, "--delta", "1h", "--tau-range", "0.5:0.1:0.1", "--tau2", "1"]
        assert main(argv) == EXIT_USAGE
        assert "error: --tau-range 0.5:0.1:0.1 is empty" in capsys.readouterr().err

    def test_tau_range(self, richer_path, capsys):
        code = main(
            [
                "sweep",
                "eea",
                richer_path,
                "--delta",
                "20",
                "--tau-range",
                "0.25:1:0.25",
            ]
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [r[2] for r in rows[1:]] == ["1/4", "1/2", "3/4", "1"]


def _tau(text):
    from folty.queries import parse_tau

    return parse_tau(text)


class TestRunQueryAPI:
    def test_report_structure(self, richer_path):
        from fractions import Fraction

        report = run_query(richer_path, "eea", 20, Fraction(1, 4))
        assert report["query"]["engine"] == "folty"
        assert run_query(richer_path, "eea", 20, Fraction(1, 4), Fraction(1, 2))["query"]["tau2"] == ""
        assert report["graph"]["n"] == 4
        assert isinstance(report["timings_ms"]["out_pass"], float)

    @pytest.mark.parametrize("engine", ["folty", "practical", "oracle"])
    def test_timings_add_up_to_wall_time(self, richer_path, monkeypatch, engine):
        from fractions import Fraction

        import folty.cli

        reads = []

        def clock():
            # each read advances by a different whole number of ms, so a
            # gap between two timers would be missing from the sum
            reads.append(0.001 * len(reads) ** 2)
            return reads[-1]

        monkeypatch.setattr(folty.cli.time, "perf_counter", clock)
        report = run_query(richer_path, "eea", 20, Fraction(1, 4), engine=engine)
        assert len(reads) > 2
        assert sum(report["timings_ms"].values()) == pytest.approx((reads[-1] - reads[0]) * 1000)


class TestOneTriangleListing:
    """The count passes and the common-neighbor universe read one triangle
    listing per graph: _closed_wedges runs once per run."""

    @pytest.fixture
    def listings(self, monkeypatch):
        import folty.graph

        calls = []
        closed_wedges = folty.graph._closed_wedges

        def counting(*args):
            calls.append(1)
            return closed_wedges(*args)

        monkeypatch.setattr(folty.graph, "_closed_wedges", counting)
        return calls

    def test_sweep_over_common_universe(self, richer_path, listings):
        from folty.queries import Universe

        run_sweep(richer_path, "eaa", [10, 60], [_tau("0.25"), _tau("0.5")], _tau("0.5"), Universe.COMMON)
        assert len(listings) == 1

    @pytest.mark.parametrize("engine", ["folty", "practical"])
    def test_query_over_common_universe(self, richer_path, listings, engine):
        from folty.queries import Universe

        run_query(richer_path, "eea", 20, _tau("0.5"), universe=Universe.COMMON, engine=engine)
        assert len(listings) == 1


class TestLazyImports:
    def test_commands_leave_numpy_ma_unimported(self, tmp_path):
        """numpy imports numpy.ma lazily, from np.unique among others, and
        that adds over 1 MiB of resident memory. A fresh process running
        stats, a query and a sweep must not pull it in, nor a build whose
        ids are too sparse for the rank table."""
        path = tmp_path / "clique.txt"
        path.write_text("".join(f"{u} {v} {(7 * u + 3 * v) % 40}\n" for u in range(8) for v in range(8) if u != v))
        sparse = tmp_path / "sparse.txt"
        sparse.write_text("1 4000000000 5\n4000000000 7 6\n")
        script = "\n".join([
            "import sys",
            "from folty.cli import main",
            f"path = {str(path)!r}",
            "assert main(['stats', path]) == 0",
            f"assert main(['stats', {str(sparse)!r}]) == 0",
            "assert main(['query', 'eae', path, '--delta', '20', '--tau', '50%']) == 0",
            "assert main(['sweep', 'eaa', path, '--delta-list', '5,20', '--tau-range', '0.25:1:0.25', '--tau2', '25%']) == 0",
            "print('numpy.ma' in sys.modules)",
        ])
        src = str(Path(folty.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"

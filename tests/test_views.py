"""The list views of the data classes: no step of the folty path builds one,
and once read each is kept and read back as the same object."""

import random
from fractions import Fraction

import pytest

from folty import cli
from folty.engine import CountTable, count_tables
from folty.graph import DegeneracyOrdering, StaticGraph, TemporalGraph, build_static, degeneracy_order, graph_stats
from folty.graph import parse_edge_list
from folty.queries import SolutionSet, Universe, eval_eaa, eval_eae, eval_eea

VIEWS = {
    TemporalGraph: ("edge_lists", "pairs"),
    StaticGraph: ("degree", "adj", "edges", "adj_sets"),
    DegeneracyOrdering: ("pi", "order"),
    CountTable: ("in_count", "out_count", "_totals"),
    SolutionSet: ("solutions",),
}


def _text(seed=0x71E5, n=12, m=400):
    rng = random.Random(seed)
    lines = []
    while len(lines) < m:
        u, v = rng.sample(range(n), 2)
        lines.append(f"{u} {v} {rng.randint(0, 500)}\n")
    return "".join(lines)


@pytest.fixture
def made(monkeypatch):
    """Every instance of the five classes made while the test runs."""
    objects = []
    for cls in VIEWS:

        def recording(self, *args, _init=cls.__init__, **kwargs):
            objects.append(self)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", recording)
    return objects


def _check_views(objects):
    """No view was built; each, once read, is kept and read back as is."""
    assert {type(o) for o in objects} == set(VIEWS)
    for o in objects:
        names = VIEWS[type(o)]
        assert not set(names) & set(vars(o)), (type(o).__name__, set(names) & set(vars(o)))
        for name in names:
            view = getattr(o, name)
            assert name in vars(o) and getattr(o, name) is view
        if isinstance(o, CountTable):
            assert o.totals() is o.totals() == o.totals_array.tolist()


def test_library_path_builds_no_view(made):
    g = parse_edge_list(_text().encode())
    static = build_static(g)
    ordering = degeneracy_order(static)
    tables = count_tables(g, [20, 200], static, ordering)
    answers = []
    for table in tables:
        answers.append(eval_eae(g, static, table, Fraction(1, 3)))
        for universe in Universe:
            answers.append(eval_eea(g, static, table, Fraction(1, 4), universe))
            answers.append(eval_eaa(g, static, table, Fraction(1, 3), Fraction(1, 4), universe))
    graph_stats(g, static, ordering)
    assert any(table.totals_array.any() for table in tables) and any(a.total for a in answers)
    _check_views(made)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("kind, tau2", [("eea", None), ("eae", None), ("eaa", Fraction(1, 4))])
def test_cli_query_builds_no_view(made, tmp_path, kind, tau2, fmt):
    path = tmp_path / "g.txt"
    path.write_text(_text())
    report = cli.run_query(str(path), kind, 200, Fraction(1, 4), tau2, Universe.COMMON)
    assert report["num_solutions"] > 0
    assert cli._format_report(report, fmt)
    _check_views(made)

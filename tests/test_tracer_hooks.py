"""The names the benchmark (perfbench/) wraps or reads from outside.

The tracer (perfbench/tracer.py) skips a name it cannot find, so a refactor
that drops or renames one would leave its spans or counters silently empty.
The operations (perfbench/ops.py) import or read the rest, so dropping one
of those fails every benchmark run. These tests fail first.
"""

import pytest

from folty import cli, engine, graph, queries
from folty.engine import CountTable, count_tables
from folty.graph import StaticGraph, TemporalGraph, build_static

TRACED = [
    (cli, "eval_eea"),
    (cli, "eval_eae"),
    (cli, "eval_eaa"),
    (cli, "run_query"),
    (cli, "run_sweep"),
    (cli, "parse_edge_list"),
    (cli, "build_static"),
    (cli, "degeneracy_order"),
    (cli, "graph_stats"),
    (queries, "eval_eea"),
    (engine, "out_pass"),
    (engine, "in_pass"),
    (engine, "oriented_triangles"),
    (engine, "IntervalSegmentTree"),
    (StaticGraph, "common_of"),
    (StaticGraph, "common_counts"),
]


#: Module-level names perfbench/ops.py imports or calls, besides those
#: TRACED holds.
READ = [
    (engine, "compute_counts"),
    (graph, "parse_edge_list"),
    (graph, "build_static"),
    (graph, "degeneracy_order"),
    (graph, "graph_stats"),
    (cli, "main"),
]


@pytest.mark.parametrize("owner, name", TRACED + READ, ids=[f"{o.__name__}.{n}" for o, n in TRACED + READ])
def test_traced_name_exists(owner, name):
    found = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    assert callable(found)


def test_read_attributes_on_built_objects():
    """The attributes perfbench/ops.py reads on a graph, its projection and
    a count table, read as it reads them."""
    g = TemporalGraph.from_edges([(1, 2, 1), (1, 3, 2), (2, 3, 3), (2, 1, 4)])
    assert g.sigma(0, 1) == 1 and g.sigma(2, 0) == 0
    assert build_static(g).edges == [(0, 1), (0, 2), (1, 2)]
    (table,) = count_tables(g, [10])
    assert isinstance(table, CountTable)
    assert sum(table.totals()) == sum(table.in_count) + sum(table.out_count) > 0

"""The names the benchmark's tracer (perfbench/tracer.py) wraps from outside.

The tracer skips a name it cannot find, so a refactor that drops or renames
one would leave its spans or counters silently empty. This test fails first.
"""

import pytest

from folty import cli, engine, queries
from folty.graph import StaticGraph

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


@pytest.mark.parametrize("owner, name", TRACED, ids=[f"{o.__name__}.{n}" for o, n in TRACED])
def test_traced_name_exists(owner, name):
    found = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    assert callable(found)

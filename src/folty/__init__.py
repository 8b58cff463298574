"""folty: exact thresholded triadic queries over temporal multigraphs.

The library answers three query families over a directed temporal multigraph,
all built on one counting core: for every temporal edge e = (u, v, t), how
many common neighbors w of u and v close a triangle with e inside a time
window delta (edges (u, w, t2) and (v, w, t3) with t <= t2 <= t3 <= t + delta).

Engines:
  * ``compute_counts`` splits the work by a degeneracy orientation into an
    out-neighbor pass (chained searches) and an in-neighbor pass (each
    witness entry's disjoint range of times, counted per edge), both vectorized
    over the graph's CSR pair layout. ``count_tables`` counts several deltas
    from one expansion: each out-side hit and each in-side range is found
    once, and only the range's lower bound is cut per delta.
    ``compute_counts`` is its one-delta case.
  * ``practical_counts`` is a simpler baseline that walks every static
    triangle from the lower-degree endpoint.
  * ``oracle_counts`` is a brute-force reference used for cross-validation.
"""

from .graph import (
    DegeneracyOrdering,
    GraphStats,
    ParseError,
    StaticGraph,
    TemporalEdge,
    TemporalGraph,
    build_static,
    degeneracy_order,
    graph_stats,
    parse_edge_list,
    serialize_edge_list,
)
from .engine import CountTable, compute_counts, count_tables, in_pass, out_pass
from .oracle import OracleCeilingError, oracle_counts, oracle_solutions
from .queries import (
    Certificate,
    ParameterError,
    QuerySpec,
    SolutionSet,
    Universe,
    VertexSolution,
    eval_eaa,
    eval_eae,
    eval_eea,
    parse_tau,
    practical_counts,
    practical_eea,
)
from .segtree import IntervalSegmentTree

__version__ = "0.1.0"

__all__ = [
    "CountTable",
    "Certificate",
    "DegeneracyOrdering",
    "GraphStats",
    "IntervalSegmentTree",
    "OracleCeilingError",
    "ParameterError",
    "ParseError",
    "QuerySpec",
    "SolutionSet",
    "StaticGraph",
    "TemporalEdge",
    "TemporalGraph",
    "Universe",
    "VertexSolution",
    "build_static",
    "compute_counts",
    "count_tables",
    "degeneracy_order",
    "eval_eaa",
    "eval_eae",
    "eval_eea",
    "graph_stats",
    "in_pass",
    "oracle_counts",
    "oracle_solutions",
    "out_pass",
    "parse_edge_list",
    "parse_tau",
    "practical_counts",
    "practical_eea",
    "serialize_edge_list",
]

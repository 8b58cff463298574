"""Shared fixtures and corpus generators."""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest

from folty.graph import TemporalGraph


def dataset_dir() -> Path:
    env = os.environ.get("FOLTY_DATA_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data"


def dataset_path(name: str) -> Path:
    return dataset_dir() / name


def require_dataset(name: str) -> Path:
    path = dataset_path(name)
    if not path.exists():
        pytest.skip(
            f"dataset {name} not present under {dataset_dir()} "
            "(run scripts/fetch_datasets.sh)"
        )
    return path


def random_temporal_graph(
    rng: random.Random,
    max_vertices: int = 30,
    max_edges: int = 300,
    t_hi: int = 100,
    max_mult: int = 5,
    scattered_ids: bool = False,
) -> TemporalGraph:
    """Random temporal multigraph matching the acceptance corpus shape."""
    n = rng.randint(2, max_vertices)
    if scattered_ids:
        ids = rng.sample(range(10 * max_vertices), n)
    else:
        ids = list(range(n))
    target = rng.randint(1, max_edges)
    edges: list[tuple[int, int, int]] = []
    while len(edges) < target:
        u = rng.choice(ids)
        v = rng.choice(ids)
        if u == v:
            continue
        mult = rng.randint(1, max_mult)
        for _ in range(min(mult, target - len(edges))):
            edges.append((u, v, rng.randint(0, t_hi)))
    return TemporalGraph.from_edges(edges)


def brute_closing_neighbors(g: TemporalGraph, delta: int) -> list[set[int]]:
    """Per-edge set of closing common neighbors, by definition (test-local)."""
    nbrs: list[set[int]] = [set() for _ in range(g.n)]
    for x, y in g.pairs:
        nbrs[x].add(y)
        nbrs[y].add(x)
    result: list[set[int]] = []
    for x, y, t in zip(*g.edge_lists):
        closing = set()
        for w in nbrs[x] & nbrs[y]:
            for t2 in g.pair(x, w)[1]:
                if not (t <= t2 <= t + delta):
                    continue
                if any(t2 <= t3 <= t + delta for t3 in g.pair(y, w)[1]):
                    closing.add(w)
                    break
        result.append(closing)
    return result

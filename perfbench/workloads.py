"""Seeded synthetic workloads: input generators and the operations run on them.

Each workload pairs a generator family with one CLI operation. The generator
takes the workload's parameters and a seed and returns the edge-list bytes;
the same (workload, seed) always gives the same bytes. The program under test
only ever sees the generated file.

Why each workload was chosen is noted beside it and in ``BENCHMARK.json``,
which lists the workloads the benchmark runs. ``skew-burst``
(engine-dominated, heavy pairs) stays runnable by name for engine work but is
not in that list: its timing overlaps ``sweep-grid``'s count passes, and two
workloads leave room for longer, steadier runs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

DAY = 86400
HOUR = 3600
MINUTE = 60

#: Certificate threshold low enough that every edge with at least one closing
#: neighbor qualifies (count * 2**62 >= universe size always holds), so an
#: ``eea`` query at this tau lists the whole non-zero count table.
ALL_EDGES_TAU = f"1/{2**62}"


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    params: dict
    #: CLI arguments after the input path is substituted for "{input}".
    cli_args: tuple[str, ...]
    #: Windows (seconds) whose count tables the workload computes.
    deltas: tuple[int, ...]
    #: Output kind of the CLI operation: "query" (JSON report) or "sweep" (CSV).
    op: str = "query"

    def argv(self, path: str, engine: str | None = None) -> list[str]:
        args = [path if a == "{input}" else a for a in self.cli_args]
        if engine is not None:
            args += ["--engine", engine]
        return args


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Large, triangle-poor, uniform: graph-layer ingest dominates the
        # query and engine work is small.
        Workload(
            name="ingest-sparse",
            family="uniform",
            params={
                "vertices": 30_000,
                "pairs": 18_000,
                "max_multiplicity": 6,
                "echo_prob": 0.15,
                "span_days": 365,
                "id_spread": 8,
            },
            cli_args=("query", "eae", "{input}", "--delta", "1d", "--tau", "10%"),
            deltas=(DAY,),
        ),
        # Zipf endpoints, bursty heavy pairs and closing echoes: the engine's
        # out/in passes dominate the query.
        Workload(
            name="skew-burst",
            family="skewed",
            params={
                "vertices": 1_500,
                "events": 3_500,
                "zipf_s": 1.1,
                "burst_mean": 3.0,
                "echo_rate": 2.5,
                "echo_window_h": 6,
                "span_days": 60,
                "id_spread": 4,
            },
            cli_args=("query", "eea", "{input}", "--delta", "1d", "--tau", "10%"),
            deltas=(DAY,),
        ),
        # The skew-burst family, smaller; one load serves two count tables
        # and 80 eaa cells over the common universe, so engine and
        # thresholding each take about half.
        Workload(
            name="sweep-grid",
            family="skewed",
            params={
                "vertices": 900,
                "events": 1_600,
                "zipf_s": 1.1,
                "burst_mean": 3.0,
                "echo_rate": 2.5,
                "echo_window_h": 6,
                "span_days": 60,
                "id_spread": 4,
            },
            cli_args=(
                "sweep", "eaa", "{input}", "--universe", "common",
                "--delta-list", "1h,1w", "--tau-range", "0.025:1:0.025", "--tau2", "25%",
            ),
            deltas=(HOUR, 7 * DAY),
            op="sweep",
        ),
    )
}


def generate(name: str, seed: int, **overrides) -> bytes:
    """Edge-list bytes ("src dst t" lines, shuffled) for one workload and seed.

    `overrides` replace generator parameters; tests use them for tiny inputs.
    """
    w = WORKLOADS[name]
    params = {**w.params, **overrides}
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    if w.family == "uniform":
        src, dst, ts = _uniform(rng, **params)
    else:
        src, dst, ts = _skewed(rng, **params)
    rows = np.stack([src, dst, ts], axis=1)[rng.permutation(len(src))]
    return "".join(f"{u} {v} {t}\n" for u, v, t in rows.tolist()).encode()


def _sparse_ids(rng: np.random.Generator, n: int, spread: int) -> np.ndarray:
    """n distinct, shuffled, non-contiguous vertex ids (exercises id remapping)."""
    return rng.permutation(rng.choice(spread * n, size=n, replace=False))


def _uniform(rng, vertices, pairs, max_multiplicity, echo_prob, span_days, id_spread):
    ids = _sparse_ids(rng, vertices, id_spread)
    u = rng.integers(0, vertices, size=pairs)
    v = rng.integers(0, vertices - 1, size=pairs)
    v = v + (v >= u)  # no self-loops
    mult = rng.integers(1, max_multiplicity + 1, size=pairs)
    src = np.repeat(u, mult)
    dst = np.repeat(v, mult)
    ts = rng.integers(0, span_days * DAY, size=len(src))
    # A few pairs get one answering vertex within a day, so some triangles
    # close in time while the graph stays triangle-poor.
    first = np.cumsum(mult) - mult
    sel = rng.random(pairs) < echo_prob
    eu, ev, et = _echoes(rng, u[sel], v[sel], ts[first][sel], lambda k: rng.integers(0, vertices, size=k), DAY)
    return (ids[np.concatenate([src] + eu)], ids[np.concatenate([dst] + ev)],
            np.concatenate([ts] + et))


def _skewed(rng, vertices, events, zipf_s, burst_mean, echo_rate, echo_window_h, span_days, id_spread):
    # Pair counts, burst sizes and echo partners are drawn as quotas (each
    # share rounded up or down at random), not independently: the light
    # pairs vary with the seed, the work carried by hub pairs hardly does.
    ids = _sparse_ids(rng, vertices, id_spread)
    weights = 1.0 / np.arange(1, vertices + 1) ** zipf_s
    pair_weights = np.outer(weights, weights)
    np.fill_diagonal(pair_weights, 0.0)
    u, v = np.divmod(_quota(rng, pair_weights.ravel(), events), vertices)
    t = rng.integers(0, span_days * DAY, size=events)

    # Bursts: each event repeats its pair a geometric number of times, a few
    # minutes apart, in either direction; hub pairs pile up multiplicity.
    sizes = np.arange(1, 20 * int(burst_mean) + 1)
    burst = 1 + _quota(rng, (1 - 1 / burst_mean) ** (sizes - 1), events)
    bu = np.repeat(u, burst)
    bv = np.repeat(v, burst)
    elapsed = np.cumsum(rng.exponential(10 * MINUTE, size=len(bu)).astype(np.int64))
    first = np.cumsum(burst) - burst
    bt = np.repeat(t, burst) + elapsed - np.repeat(elapsed[first], burst)
    flip = rng.random(len(bu)) < 0.3
    bsrc = np.where(flip, bv, bu)
    bdst = np.where(flip, bu, bv)

    # Echoes: popular third vertices answer both endpoints within hours,
    # closing temporal triangles on the event.
    echo = _quota(rng, np.ones(events), round(events * echo_rate))
    eu, ev, et = _echoes(rng, u[echo], v[echo], t[echo], lambda k: _quota(rng, weights, k), echo_window_h * HOUR)
    return (ids[np.concatenate([bsrc] + eu)], ids[np.concatenate([bdst] + ev)],
            np.concatenate([bt] + et))


def _quota(rng, weights, k):
    """k indices in random order, index i appearing k * weights[i] / sum
    times rounded up or down at random (systematic sampling)."""
    bounds = np.cumsum(weights) * (k / weights.sum())
    picks = np.searchsorted(bounds, rng.random() + np.arange(k), side="right")
    return rng.permutation(np.minimum(picks, len(weights) - 1))


def _echoes(rng, u, v, t, pick, window):
    """Edges (u, w, t2), (v, w, t3) with t <= t2 <= t3 < t + 2 * window for a
    w = pick(count) per event; returns (srcs, dsts, times) lists to concatenate."""
    w = pick(len(u))
    ok = (w != u) & (w != v)
    u, v, t, w = u[ok], v[ok], t[ok], w[ok]
    t2 = t + rng.integers(0, window, size=len(u))
    t3 = t2 + rng.integers(0, window, size=len(u))
    return [u, v], [w, w], [t2, t3]

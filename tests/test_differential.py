"""Seeded differential battery: the folty, practical and oracle engines give
equal per-edge counts on the shapes that fixed-width integer arithmetic and
blocked vectorization put at risk."""

import json
import random

import pytest

import folty.engine
from folty import cli
from folty.engine import compute_counts, oriented_triangles
from folty.graph import TemporalGraph, build_static, degeneracy_order, parse_edge_list
from folty.oracle import oracle_counts
from folty.queries import practical_counts

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1
DELTAS = (0, 1, 2**62, I64_MAX, 10**30)


def assert_engines_agree(g, deltas=DELTAS):
    static = build_static(g)
    ordering = degeneracy_order(static)
    for delta in deltas:
        want = oracle_counts(g, delta, static).count
        assert compute_counts(g, delta, static, ordering).totals() == want, delta
        assert practical_counts(g, static, delta) == want, delta


def random_edges(rng, n, m, timestamps):
    edges = []
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, rng.choice(timestamps)))
    return edges


def out_expansions(g):
    """Entries the out pass expands: the lists of the pairs touching each
    triangle's low vertex."""
    static = build_static(g)
    total = 0
    for a, b, cs in oriented_triangles(static, degeneracy_order(static)):
        for c in cs:
            total += g.sigma(a, b) + g.sigma(b, a) + g.sigma(a, c) + g.sigma(c, a)
    return total


def test_int64_extreme_timestamps():
    rng = random.Random(0xD1F0)
    edge_ts = [I64_MIN, I64_MIN + 1, I64_MIN + 2**62, -1, 0, 1, I64_MAX - 2**62, I64_MAX - 1, I64_MAX]
    for _ in range(40):
        edges = random_edges(rng, rng.randint(3, 8), rng.randint(3, 60), edge_ts)
        text = "".join(f"{u} {v} {t}\n" for u, v, t in edges)
        assert_engines_agree(parse_edge_list(text))


def test_extreme_span_counts():
    # one triangle spanning the whole int64 range closes only once delta
    # reaches 2^64 - 1; no smaller window admits it
    g = TemporalGraph.from_edges([(1, 2, I64_MIN), (1, 3, 0), (2, 3, I64_MAX)])
    assert_engines_agree(g, DELTAS + (2**64 - 2, 2**64 - 1, 2**64))
    assert compute_counts(g, 2**64 - 2).totals() == [0, 0, 0]
    assert compute_counts(g, 2**64 - 1).totals() == [1, 0, 0]


def test_heavy_pair():
    rng = random.Random(0xD1F1)
    heavy = [(1, 2, rng.randint(0, 10**6)) for _ in range(3000)]
    light = random_edges(rng, 5, 400, list(range(0, 10**6, 997)))
    g = TemporalGraph.from_edges(heavy + [(u + 1, v + 1, t) for u, v, t in light])
    assert g.sigma_max() >= 3000
    assert_engines_agree(g, (0, 1000, 50_000, 10**30))


def test_star_and_clique_cores():
    rng = random.Random(0xD1F2)
    times = list(range(50))
    # star: hub 0 with 40 leaves, a few leaf-leaf chords closing triangles
    star = [(0, leaf, t) if rng.random() < 0.5 else (leaf, 0, t)
            for leaf in range(1, 41) for t in rng.sample(times, 3)]
    star += [(leaf, leaf + 1, rng.choice(times)) for leaf in range(1, 40, 3)]
    assert_engines_agree(TemporalGraph.from_edges(star), (0, 1, 5, 2**62))
    # clique: K_9 with up to four parallel edges per direction
    clique = [(u, v, rng.choice(times))
              for u in range(9) for v in range(9) if u != v
              for _ in range(rng.randint(0, 4))]
    assert_engines_agree(TemporalGraph.from_edges(clique), (0, 1, 5, 2**62))


def test_duplicate_and_crlf_lines():
    rng = random.Random(0xD1F3)
    lines = [f"{u} {v} {t}" for u, v, t in random_edges(rng, 7, 80, list(range(-20, 20)))]
    lines += rng.sample(lines, 30)  # exact duplicates stay parallel edges
    rng.shuffle(lines)
    crlf = parse_edge_list(("# header\r\n" + "\r\n".join(lines) + "\r\n").encode())
    lf = parse_edge_list("\n".join(lines) + "\n")
    assert crlf.m == lf.m == 110
    assert (crlf.src, crlf.dst, crlf.ts) == (lf.src, lf.dst, lf.ts)
    assert_engines_agree(crlf, (0, 1, 5, 2**62))


def test_empty_input():
    for g in (parse_edge_list(""), parse_edge_list(b"# nothing\n3 3 7\n")):
        assert g.m == 0
        assert_engines_agree(g)
        ct = compute_counts(g, 10)
        assert (ct.in_count, ct.out_count) == ([], [])


def test_expansions_span_several_blocks():
    rng = random.Random(0xD1F4)
    clique = [(u, v, rng.randint(0, 2000))
              for u in range(12) for v in range(12) if u != v
              for _ in range(rng.randint(30, 40))]
    g = TemporalGraph.from_edges(clique)
    assert out_expansions(g) > 3 * folty.engine.BLOCK
    assert_engines_agree(g, (0, 3, 40, 2**62))


@pytest.mark.parametrize("block", [1, 2, 7, 64])
def test_small_blocks(monkeypatch, block):
    monkeypatch.setattr(folty.engine, "BLOCK", block)
    monkeypatch.setattr(folty.engine, "TRIANGLE_BLOCK", block)
    rng = random.Random(0xD1F5 + block)
    for _ in range(15):
        n = rng.randint(3, 12)
        g = TemporalGraph.from_edges(random_edges(rng, n, rng.randint(3, 120), list(range(30))))
        assert_engines_agree(g, (0, 1, 5, 2**62))


def test_cli_huge_delta(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(f"1 2 {I64_MIN}\n1 3 0\n2 3 {I64_MAX}\n1 2 5\n2 3 9\n")
    reports = {}
    for engine in ("folty", "practical", "oracle"):
        argv = ["query", "eea", str(path), "--delta", "100000000000000000000",
                "--tau", "0.5", "--engine", engine]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        reports[engine] = report["solutions"]
    assert reports["folty"] == reports["practical"] == reports["oracle"]
    # only (1, 2, -2^63) closes, through 1 -> 3 at 0 and 2 -> 3 at 9
    assert [(s["src"], s["dst"], s["t"]) for s in reports["folty"]] == [(1, 2, I64_MIN)]

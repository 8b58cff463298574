"""Acceptance suite: one test per criterion, printing a pass line each.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 3, 4, and the
large-dataset half of 5 need SNAP datasets under data/ (or $FOLTY_DATA_DIR);
they skip with instructions when the files are absent.
"""

import random
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
import pytest

import folty.engine
import folty.graph
from conftest import random_temporal_graph, require_dataset
from folty.engine import compute_counts, oriented_triangles
from folty.graph import (
    TemporalGraph,
    _closed_wedges,
    build_static,
    degeneracy_order,
    parse_edge_list,
    serialize_edge_list,
)
from folty.oracle import oracle_counts, oracle_solutions
from folty.queries import (
    QuerySpec,
    Universe,
    eval_eaa,
    eval_eae,
    eval_eea,
    practical_counts,
)
from folty.segtree import IntervalSegmentTree
from test_differential import hub_edges

TAUS = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
DELTAS = [0, 1, 5, 20, 1000]
FOUR_WEEKS = 4 * 7 * 24 * 3600


def _passed(line):
    print(f"\nACCEPTANCE PASS {line}", flush=True)


def test_criterion_1_oracle_equivalence():
    """Counts and all three query kinds match the brute-force oracle exactly
    on 200 seeded random multigraphs x 5 deltas x 4 taus x both universes."""
    rng = random.Random(0x5EED_01)
    for i in range(200):
        g = random_temporal_graph(rng, scattered_ids=(i % 3 == 0))
        static = build_static(g)
        ordering = degeneracy_order(static)
        for delta in DELTAS:
            table = compute_counts(g, delta, static, ordering)
            totals = table.totals()
            reference = oracle_counts(g, delta, static).count
            assert totals == reference, f"count mismatch: graph {i}, delta {delta}"
            for tau in TAUS:
                got_eae = set(eval_eae(g, static, totals, tau).solutions)
                want_eae = set(
                    oracle_solutions(
                        g, delta, QuerySpec("eae", delta, tau), static, counts=reference
                    ).solutions
                )
                assert got_eae == want_eae, f"eae mismatch: graph {i}, d={delta}, tau={tau}"
                for universe in (Universe.DST, Universe.COMMON):
                    got = set(eval_eea(g, static, totals, tau, universe).solutions)
                    want = set(
                        oracle_solutions(
                            g,
                            delta,
                            QuerySpec("eea", delta, tau, universe=universe),
                            static,
                            counts=reference,
                        ).solutions
                    )
                    assert got == want, f"eea mismatch: graph {i}, d={delta}, tau={tau}"
                    got2 = set(eval_eaa(g, static, totals, tau, tau, universe).solutions)
                    want2 = set(
                        oracle_solutions(
                            g,
                            delta,
                            QuerySpec("eaa", delta, tau, tau2=tau, universe=universe),
                            static,
                            counts=reference,
                        ).solutions
                    )
                    assert got2 == want2, f"eaa mismatch: graph {i}, d={delta}, tau={tau}"
    _passed("criterion 1: oracle equivalence on 200 random graphs x 5 deltas")


def _brute_stab(ts, batches, t):
    hits = 0
    for _, intervals in batches:
        for lo, hi in intervals:
            i = bisect_left(ts, lo)
            j = bisect_right(ts, hi) - 1
            if i <= j and ts[i] <= t <= ts[j]:
                hits += 1
                break
    return hits


def test_criterion_2_segment_tree_oracle():
    """1000 seeded insert/query sequences match the brute-force interval
    oracle, including order-permutation invariance."""
    rng = random.Random(0x5EED_02)
    for _ in range(1000):
        r = rng.randint(0, 12)
        ts = sorted(rng.sample(range(0, 41), r))
        batches = []
        for label in range(rng.randint(0, 8)):
            intervals = [
                tuple(sorted((rng.randint(-5, 45), rng.randint(-5, 45))))
                for _ in range(rng.randint(0, 8))
            ]
            batches.append((label, intervals))
        tree = IntervalSegmentTree(ts)
        permuted = IntervalSegmentTree(ts)
        for label, intervals in batches:
            tree.insert_list(intervals, label)
            assert not tree.any_grey()
            shuffled = intervals[:]
            rng.shuffle(shuffled)
            permuted.insert_list(shuffled, label)
        for t in range(-2, 44):
            want = _brute_stab(ts, batches, t)
            assert tree.lookup(t) == want
            assert permuted.lookup(t) == want
    _passed("criterion 2: segment-tree stabbing with dedup, 1000 sequences")


def _table_counts(g, static, totals, kind, taus, universe, tau2=None):
    out = []
    for tau in taus:
        if kind == "eea":
            out.append(eval_eea(g, static, totals, tau, universe).total)
        elif kind == "eae":
            out.append(eval_eae(g, static, totals, tau).total)
        else:
            out.append(eval_eaa(g, static, totals, tau, tau2, universe).total)
    return out


def test_criterion_3_collegemsg_tables():
    """CollegeMsg at delta = 4 weeks reproduces the pinned reference counts:
    eea 102/8/0, eae 178/11/0, eaa(tau2=25%) 0/0/0."""
    path = require_dataset("CollegeMsg.txt")
    g = parse_edge_list(path.read_bytes())
    assert g.m == 59_835, f"unexpected CollegeMsg edge count {g.m}"
    assert g.n == 1_899
    static = build_static(g)
    totals = compute_counts(g, FOUR_WEEKS, static).totals()
    taus = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    expected = {"eea": [102, 8, 0], "eae": [178, 11, 0], "eaa": [0, 0, 0]}

    def run(universe):
        return {
            "eea": _table_counts(g, static, totals, "eea", taus, universe),
            "eae": _table_counts(g, static, totals, "eae", taus, universe),
            "eaa": _table_counts(
                g, static, totals, "eaa", taus, universe, tau2=Fraction(1, 4)
            ),
        }

    dst = run(Universe.DST)
    if dst == expected:
        _passed("criterion 3: CollegeMsg tables reproduced (dst universe)")
        return
    common = run(Universe.COMMON)
    assert common == expected, (
        "CollegeMsg counts match neither universe: "
        f"dst={dst} common={common} expected={expected}"
    )
    _passed(
        "criterion 3: CollegeMsg tables reproduced with the common-neighborhood "
        "universe (dst gave {dst}); see README dataset notes".format(dst=dst)
    )


def test_criterion_4_email_eu_core_engine_agreement():
    """folty and practical produce identical solution sets on email-Eu-core
    across the reference grid, including the 7167/478/28 row."""
    path = require_dataset("email-Eu-core-temporal.txt")
    g = parse_edge_list(path.read_bytes())
    static = build_static(g)
    t0 = time.perf_counter()
    fast = compute_counts(g, FOUR_WEEKS, static).totals()
    baseline = practical_counts(g, static, FOUR_WEEKS)
    assert fast == baseline
    taus = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    sizes = []
    for tau in taus:
        a = eval_eea(g, static, fast, tau).solutions
        b = eval_eea(g, static, baseline, tau).solutions
        assert a == b
        sizes.append(len(a))
    elapsed = time.perf_counter() - t0
    assert sizes == [7167, 478, 28], f"email-Eu-core grid gave {sizes}"
    assert elapsed < 120, f"engine-agreement run took {elapsed:.1f}s (budget 120s)"
    _passed(f"criterion 4: email-Eu-core engines agree, grid {sizes}, {elapsed:.1f}s")


def _random_core_graph(rng, m_target, k, t_hi):
    """Disjoint random (k+1)-cliques totaling ~m_target edges.

    Every clique is a k-core, so degeneracy is exactly k, and triangle work
    per edge stays proportional to k, keeping envelope utilization constant
    across the k grid."""
    per_clique = k * (k + 1) // 2
    cliques = max(1, m_target // per_clique)
    edges = []
    base = 0
    for _ in range(cliques):
        members = list(range(base, base + k + 1))
        base += k + 1
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                src, dst = (u, v) if rng.random() < 0.5 else (v, u)
                edges.append((src, dst, rng.randint(0, t_hi)))
    return edges


def test_criterion_5_complexity_scaling():
    """Counting time grows no faster than linearly in alpha (within 2x) on
    synthetic cores of fixed edge count and constant sigma_max."""
    rng = random.Random(0x5EED_05)
    m_target = 24_000
    results = []
    for k in (2, 4, 8, 16):
        edges = _random_core_graph(rng, m_target, k, t_hi=10_000)
        g = TemporalGraph.from_edges(edges)
        static = build_static(g)
        ordering = degeneracy_order(static)
        assert g.sigma_max() == 1
        assert ordering.alpha == k
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            compute_counts(g, 2_000, static, ordering)
            times.append(time.perf_counter() - t0)
        results.append((ordering.alpha, statistics.median(times)))
    (a0, t0), *rest = results
    for alpha, t in rest:
        limit = 2.0 * t0 * (alpha / a0)
        assert t <= limit, (
            f"alpha={alpha}: {t:.3f}s exceeds 2x-linear allowance {limit:.3f}s "
            f"(baseline alpha={a0} at {t0:.3f}s)"
        )
    _passed(
        "criterion 5: counting time within 2x of linear-in-alpha scaling "
        + ", ".join(f"alpha={a}:{t * 1000:.0f}ms" for a, t in results)
    )


def _bound_graphs(rng):
    """The criterion-5 cores (alpha 2, 4, 8 and 16), a hub target pair, a
    star with chords, and 20 random multigraphs."""
    graphs = [TemporalGraph.from_edges(_random_core_graph(rng, 24_000, k, t_hi=10_000)) for k in (2, 4, 8, 16)]
    graphs.append(TemporalGraph.from_edges(hub_edges(random.Random(0xD200), 2000, 300, 500)))
    star = [(0, leaf, t) if rng.random() < 0.5 else (leaf, 0, t) for leaf in range(1, 200) for t in range(rng.randint(1, 5))]
    graphs.append(TemporalGraph.from_edges(star + [(leaf, leaf + 1, 7) for leaf in range(1, 199, 3)]))
    graphs += [random_temporal_graph(rng, max_vertices=20, max_edges=600, t_hi=50, max_mult=8) for _ in range(20)]
    return graphs


def test_criterion_5_expansion_bound(monkeypatch):
    """The work behind the O(m alpha log sigma_max) bound, counted without
    a clock: an oriented edge a -> b is the ab edge of at most outdeg(a) <=
    alpha triangles and their ac edge of at most alpha more, so each side
    expands at most 2 alpha m list entries (the out side's L1 lists, the in
    side's L2 lists), on the criterion-5 cores, a hub target pair, a star
    and random graphs."""
    expanded = []
    expand = folty.engine._expand

    def counting(g, ordering, *args):
        expanded.append(0)
        for part in expand(g, ordering, *args):
            expanded[-1] += len(part[0])
            yield part

    monkeypatch.setattr(folty.engine, "_expand", counting)
    graphs = _bound_graphs(random.Random(0x5EED_06))
    sides = []
    for g in graphs:
        static = build_static(g)
        ordering = degeneracy_order(static)
        expanded.clear()
        compute_counts(g, 2_000, static, ordering)
        assert len(expanded) == 2 and max(expanded) <= 2 * ordering.alpha * g.m, (expanded, ordering.alpha, g.m)
        sides.append(tuple(expanded))
    assert all(out and into for out, into in sides[:4])  # the cores expand on both sides
    _passed("criterion 5: each side expands at most 2 * alpha * m list entries")


def _fits(early, late, last):
    """Whether sorted timestamp lists early and late can hold t1 <= t2 <=
    t1 + last, judged by their first and last times only."""
    return early[0] <= late[-1] and late[0] - early[-1] <= last


def _jobs(g, static, ordering, side):
    """Brute force over g.pair lists: the (C, L2, L3) timestamp lists of
    each triangle's out-side jobs (four, C = L1) or in-side jobs (two, C
    = the target pair), whose three lists are all non-empty."""
    jobs = []
    for a, b, cs in oriented_triangles(static, ordering):
        for c in cs:
            if side == "out":
                chains = (((a, b), (a, c), (b, c)), ((b, a), (b, c), (a, c)),
                          ((a, c), (a, b), (c, b)), ((c, a), (c, b), (a, b)))
            else:
                chains = (((b, c), (b, a), (c, a)), ((c, b), (c, a), (b, a)))
            lists = [tuple(g.pair(*p)[1] for p in chain) for chain in chains]
            jobs += [job for job in lists if all(job)]
    return jobs


def _may_close(c, l2, l3, last):
    """The window test of a job's lists: each earlier list fits each later
    one."""
    return _fits(c, l2, last) and _fits(c, l3, last) and _fits(l2, l3, last)


def _out_survivors(jobs, last):
    """Brute force over the out side's jobs (_jobs) that pass the window
    test: the L1 entries expanded, the entries at t that fit L2 and L3
    (each one's first lookup), and those whose first L2 entry at or after
    t lies within last of t (each one's second lookup)."""
    expanded = first = second = 0
    for t1s, t2s, t3s in jobs:
        if not _may_close(t1s, t2s, t3s, last):
            continue
        expanded += len(t1s)
        for t in t1s:
            if _fits([t], t2s, last) and _fits([t], t3s, last):
                first += 1
                second += t2s[bisect_left(t2s, t)] - t <= last
    return expanded, first, second


def test_criterion_5_jobs_pruned_by_window(monkeypatch):
    """Each side expands exactly the jobs whose lists' first and last times
    leave room for a chain within the largest window, counted without a
    clock against a brute force over g.pair lists, on the graph shapes of
    test_criterion_5_expansion_bound; on the criterion-5 cores that drops
    jobs."""
    jobs = []

    def counting(*args):
        keep = may_close(*args)
        jobs.append((len(keep), int(keep.sum())))
        return keep

    may_close = folty.engine._may_close
    monkeypatch.setattr(folty.engine, "_may_close", counting)
    graphs = _bound_graphs(random.Random(0x5EED_06))
    for n, g in enumerate(graphs):
        static = build_static(g)
        ordering = degeneracy_order(static)
        sides = {side: _jobs(g, static, ordering, side) for side in ("out", "in")}
        for deltas in ([0], [3, 40], [2_000]):
            windows = folty.engine._windows(g, deltas)
            last = int(windows[-1])
            for side, parts, fold in (("out", folty.engine._out_hits, folty.engine._fold),
                                      ("in", folty.engine._in_ranges, folty.engine._fold_ranges)):
                every = sides[side]
                kept = sum(_may_close(*job, last) for job in every)
                jobs.clear()
                folty.engine._counts(g, ordering, windows, parts, fold)
                assert (sum(j for j, _ in jobs), sum(k for _, k in jobs)) == (len(every), kept), (n, side, deltas)
                if n < 4:  # the cores
                    assert kept < len(every), (n, side, deltas)
    _passed("criterion 5: each side expands only the jobs that can close within the window")


def test_criterion_5_out_cut_before_second_lookup(monkeypatch):
    """The out side drops an L1 entry before its first lookup unless it
    fits L2 and L3 by their first and last times, and looks up its L3
    entry only when its L2 entry lies within the largest window: the
    entries expanded and both lookups' keys equal a brute force count over
    the pair lists, on the criterion-5 cores, the hub target pair and
    random graphs. Every first lookup finds an entry. The in side expands
    the L2 lists of the jobs that pass the window test and still makes one
    lookup per L2 entry it expands."""
    expanded, looked, found = [], [], []
    expand, next_entry = folty.engine._expand, folty.engine._next_entry

    def counting_expand(g, ordering, *args):
        for part in expand(g, ordering, *args):
            expanded.append(len(part[0]))
            yield part

    def counting_lookup(g, i, qa, qb):
        j = next_entry(g, i, qa, qb)
        looked.append(len(i))
        found.append(int((j < g.pair_start[qb + 1]).sum()))
        return j

    monkeypatch.setattr(folty.engine, "_expand", counting_expand)
    monkeypatch.setattr(folty.engine, "_next_entry", counting_lookup)
    rng = random.Random(0x5EED_08)
    graphs = [TemporalGraph.from_edges(_random_core_graph(rng, 24_000, k, t_hi=10_000)) for k in (2, 4, 8, 16)]
    graphs.append(TemporalGraph.from_edges(hub_edges(random.Random(0xD200), 2000, 300, 500)))
    graphs += [random_temporal_graph(rng, max_vertices=20, max_edges=600, t_hi=50, max_mult=8) for _ in range(20)]
    dropped = cut = 0
    for g in graphs:
        static = build_static(g)
        ordering = degeneracy_order(static)
        out_jobs, in_jobs = (_jobs(g, static, ordering, side) for side in ("out", "in"))
        for deltas in ([0], [3, 40], [2_000]):
            windows = folty.engine._windows(g, deltas)
            for counts in (expanded, looked, found):
                counts.clear()
            last = int(windows[-1])
            folty.engine._counts(g, ordering, windows, folty.engine._out_hits, folty.engine._fold)
            want = _out_survivors(out_jobs, last)
            assert (sum(expanded), sum(looked[0::2]), sum(looked[1::2])) == want, deltas
            assert found[0::2] == looked[0::2]
            dropped += want[0] - want[1]
            cut += want[1] - want[2]
            expanded.clear()
            looked.clear()
            folty.engine._counts(g, ordering, windows, folty.engine._in_ranges, folty.engine._fold_ranges)
            assert looked == expanded
            assert sum(expanded) == sum(len(l2) for c, l2, l3 in in_jobs if _may_close(c, l2, l3, last))
    assert dropped and cut  # entries go before the first lookup, chains before the second
    _passed("criterion 5: the out side looks up only the entries and chains that fit the window")


def test_criterion_5_wedge_lookup_bound(monkeypatch):
    """The triangle listing's share of the bound, counted without a clock:
    for each oriented edge x -> y, _closed_wedges looks up the key y * n + z
    of each head z of x ranked above y, so at most sum C(outdeg(x), 2) <=
    alpha * |E| keys for |E| oriented edges, on the graph shapes of
    test_criterion_5_expansion_bound."""
    looked = []
    find = folty.graph._find

    def counting(keys, q):
        looked.append(q)
        return find(keys, q)

    monkeypatch.setattr(folty.graph, "_find", counting)
    graphs = _bound_graphs(random.Random(0x5EED_07))
    lookups = []
    for g in graphs:
        o = degeneracy_order(build_static(g))
        looked.clear()
        _closed_wedges(o.out_start, o.out_nbr, o._pi)
        q = np.concatenate([np.empty(0, dtype=np.int64), *looked])
        outdeg = np.diff(o.out_start)
        assert len(q) <= int((outdeg * (outdeg - 1) // 2).sum()), (len(q), outdeg.tolist())
        assert len(q) <= o.alpha * len(o.out_nbr), (len(q), o.alpha, len(o.out_nbr))
        y, z = np.divmod(q, g.n)
        assert (o._pi[z] > o._pi[y]).all()  # only wedges that an edge y -> z could close
        lookups.append(len(q))
    assert all(lookups[:6])  # the cores, the hub pair and the star look keys up
    _passed("criterion 5: the triangle listing looks up only forward wedges, at most alpha * |E| of them")


def test_criterion_5_wiki_talk_runtime():
    """wiki-talk-temporal completes a single-threaded eea run in under 10
    minutes."""
    path = require_dataset("wiki-talk-temporal.txt")
    t0 = time.perf_counter()
    g = parse_edge_list(path.read_bytes())
    static = build_static(g)
    totals = compute_counts(g, FOUR_WEEKS, static).totals()
    sols = eval_eea(g, static, totals, Fraction(1, 4))
    elapsed = time.perf_counter() - t0
    assert elapsed < 600, f"wiki-talk eea took {elapsed:.0f}s (budget 600s)"
    _passed(
        f"criterion 5: wiki-talk-temporal eea in {elapsed:.0f}s, "
        f"{sols.total} solutions"
    )


def test_criterion_6_property_battery():
    """Threshold monotonicity, delta monotonicity, eaa-in-eae containment,
    thread-count determinism, and parse round-trips on a seeded corpus."""
    rng = random.Random(0x5EED_06)
    for _ in range(20):
        g = random_temporal_graph(rng, max_vertices=20, max_edges=150)
        static = build_static(g)

        # parse round-trip
        reparsed = parse_edge_list(serialize_edge_list(g))
        assert serialize_edge_list(reparsed) == serialize_edge_list(g)

        # determinism across thread counts
        base = compute_counts(g, 20, static)
        for threads in (2, 4):
            again = compute_counts(g, 20, static, threads=threads)
            assert (again.in_count, again.out_count) == (base.in_count, base.out_count)

        # delta monotonicity (counts and certificate-edge sets)
        sols_by_delta = []
        prev_totals = None
        for delta in (0, 5, 50, 1000):
            totals = compute_counts(g, delta, static).totals()
            if prev_totals is not None:
                assert all(a <= b for a, b in zip(prev_totals, totals))
            prev_totals = totals
            sols_by_delta.append(
                {(c.src, c.dst, c.t) for c in eval_eea(g, static, totals, Fraction(1, 4)).solutions}
            )
        for small, large in zip(sols_by_delta, sols_by_delta[1:]):
            assert small <= large

        # threshold monotonicity and containment at one delta
        totals = compute_counts(g, 20, static).totals()
        prev_eea = prev_eae = None
        for tau in TAUS:
            eea = set(eval_eea(g, static, totals, tau).solutions)
            eae = {v.vertex for v in eval_eae(g, static, totals, tau).solutions}
            eaa = {v.vertex for v in eval_eaa(g, static, totals, tau, tau).solutions}
            if prev_eea is not None:
                assert eea <= prev_eea
                assert eae <= prev_eae
            assert eaa <= eae
            prev_eea, prev_eae = eea, eae
    _passed("criterion 6: property battery (monotonicity, containment, determinism)")

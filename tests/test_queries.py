"""Threshold evaluation, reductions, and the practical baseline."""

import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from conftest import random_temporal_graph
from folty.engine import CountTable, compute_counts
from folty.graph import TemporalGraph, build_static
from folty import queries
from folty.oracle import oracle_solutions
from folty.queries import (
    ParameterError,
    QuerySpec,
    Universe,
    eval_eaa,
    eval_eae,
    eval_eea,
    parse_tau,
    practical_counts,
    practical_eea,
    validate_kind,
)

TAUS = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]


def tiny_triangle():
    return TemporalGraph.from_edges([(1, 2, 10), (1, 3, 12), (2, 3, 15)])


def prepared(g, delta):
    static = build_static(g)
    counts = compute_counts(g, delta, static)
    return static, counts


class TestTauParsing:
    def test_forms(self):
        assert parse_tau("0.25") == Fraction(1, 4)
        assert parse_tau("25%") == Fraction(1, 4)
        assert parse_tau("1/4") == Fraction(1, 4)
        assert parse_tau("1") == Fraction(1)
        assert parse_tau("12.5%") == Fraction(1, 8)

    def test_fraction_and_float(self):
        assert parse_tau(Fraction(1, 4)) == Fraction(1, 4)
        assert parse_tau(0.25) == Fraction(1, 4)
        assert parse_tau(0.1) == Fraction(1, 10)  # through its repr, not the binary float
        for bad in (Fraction(5, 4), 0.0):
            with pytest.raises(ParameterError):
                parse_tau(bad)

    def test_rejects_out_of_range(self):
        for bad in ("0", "-0.5", "1.5", "150%", "5/4"):
            with pytest.raises(ParameterError):
                parse_tau(bad)
        with pytest.raises(ParameterError):
            parse_tau("abc")

    def test_non_finite_floats(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ParameterError, match="cannot parse threshold"):
                parse_tau(bad)

    def test_range_error_echoes_text(self):
        for text in ("1e400", "150%", 1.5):
            with pytest.raises(ParameterError) as err:
                parse_tau(text)
            assert str(err.value) == f"threshold must be in (0, 1], got {text}"

    def test_non_rational_tau_refused(self):
        g = tiny_triangle()
        static, counts = prepared(g, 10)
        half = Fraction(1, 2)
        for call in (
            lambda: eval_eea(g, static, counts, 0.5),
            lambda: eval_eae(g, static, counts, 0.5),
            lambda: eval_eaa(g, static, counts, 0.5, half),
            lambda: eval_eaa(g, static, counts, half, 0.5),
            lambda: QuerySpec("eea", 10, 0.5),
            lambda: QuerySpec("eaa", 10, half, 0.5),
        ):
            with pytest.raises(ParameterError, match="rational.*parse_tau"):
                call()

    def test_exactness(self):
        # 0.1 is exactly 1/10, not the binary float
        assert parse_tau("0.1") == Fraction(1, 10)


class TestKinds:
    def test_valid(self):
        assert validate_kind("EEA") == "eea"

    def test_universal_prefix_rejected(self):
        with pytest.raises(ParameterError, match="de Morgan"):
            validate_kind("aee")

    def test_unknown_rejected(self):
        with pytest.raises(ParameterError):
            validate_kind("eee")

    def test_queryspec_validation(self):
        with pytest.raises(ParameterError):
            QuerySpec("eaa", 10, Fraction(1, 2))  # missing tau2
        for bad in (-1, float("nan")):
            with pytest.raises(ParameterError, match="delta must be >= 0"):
                QuerySpec("eea", bad, Fraction(1, 2))

    def test_queryspec_normalizes_kind(self):
        assert QuerySpec("EEA", 10, Fraction(1, 2)).kind == "eea"


class TestUniverseValues:
    """A universe is a Universe member or its value; anything else is
    refused, not read as the common universe."""

    EDGES = [(0, 1, 1), (0, 2, 2), (1, 2, 3), (1, 0, 4), (2, 3, 5), (3, 1, 6), (0, 3, 7), (3, 0, 8)]
    HALF = Fraction(1, 2)

    def answers(self, universe):
        g = TemporalGraph.from_edges(self.EDGES)
        static, counts = prepared(g, 100)
        eea = QuerySpec("eea", 100, self.HALF, universe=universe)
        eaa = QuerySpec("eaa", 100, Fraction(1, 4), tau2=self.HALF, universe=universe)
        return (
            eval_eea(g, static, counts, self.HALF, universe),
            eval_eaa(g, static, counts, Fraction(1, 4), self.HALF, universe),
            oracle_solutions(g, 100, eea, static),
            oracle_solutions(g, 100, eaa, static),
        )

    def test_value_answers_as_member(self):
        totals = {}
        for member in Universe:
            assert self.answers(member.value) == self.answers(member)
            totals[member] = [s.total for s in self.answers(member)]
        assert totals == {Universe.DST: [0, 0, 0, 0], Universe.COMMON: [1, 1, 1, 1]}

    def test_queryspec_stores_the_member(self):
        assert QuerySpec("eea", 10, self.HALF, universe="common").universe is Universe.COMMON
        assert QuerySpec("eea", 10, self.HALF, universe="dst") == QuerySpec("eea", 10, self.HALF)

    @pytest.mark.parametrize("bad", ["bogus", "DST", None, 0])
    def test_unknown_universe_refused(self, bad):
        g = TemporalGraph.from_edges(self.EDGES)
        static, counts = prepared(g, 100)
        for call in (
            lambda: eval_eea(g, static, counts, self.HALF, bad),
            lambda: eval_eaa(g, static, counts, self.HALF, self.HALF, bad),
            lambda: QuerySpec("eea", 100, self.HALF, universe=bad),
        ):
            with pytest.raises(ParameterError, match="unknown universe .*; expected dst or common"):
                call()


class TestTableLength:
    def test_wrong_length_refused(self):
        g = tiny_triangle()
        static = build_static(g)
        half = Fraction(1, 2)
        for size, counts in (
            (g.m - 1, [1] * (g.m - 1)),
            (g.m + 7, [0] * (g.m + 7)),
            (g.m + 1, CountTable([0] * (g.m + 1), [1] * (g.m + 1), 10)),
        ):
            for call in (
                lambda: eval_eea(g, static, counts, half),
                lambda: eval_eae(g, static, counts, half),
                lambda: eval_eaa(g, static, counts, half, half),
            ):
                with pytest.raises(ParameterError, match=f"counts have {size} entries, the graph {g.m} edges"):
                    call()


class TestEEA:
    def test_half_dst(self):
        g = tiny_triangle()
        static, counts = prepared(g, 10)
        sols = eval_eea(g, static, counts, Fraction(1, 2))
        assert [(c.src, c.dst, c.t, c.count, c.universe_size) for c in sols.solutions] == [
            (1, 2, 10, 1, 2)
        ]

    def test_full_dst_empty(self):
        g = tiny_triangle()
        static, counts = prepared(g, 10)
        assert eval_eea(g, static, counts, Fraction(1)).solutions == []

    def test_common_universe(self):
        g = tiny_triangle()
        static, counts = prepared(g, 10)
        sols = eval_eea(g, static, counts, Fraction(1), Universe.COMMON)
        assert [(c.src, c.dst, c.universe_size) for c in sols.solutions] == [(1, 2, 1)]

    def test_zero_count_never_certifies(self):
        # common universe size 0 must not satisfy vacuously
        g = TemporalGraph.from_edges([(1, 2, 5), (2, 3, 9)])
        static, counts = prepared(g, 100)
        sols = eval_eea(g, static, counts, Fraction(1), Universe.COMMON)
        assert sols.solutions == []

    def test_certificates_sorted_by_time_then_eid(self):
        rng = random.Random(5)
        g = random_temporal_graph(rng, max_vertices=12, max_edges=80)
        static, counts = prepared(g, 30)
        sols = eval_eea(g, static, counts, Fraction(1, 4))
        keyed = [(c.t,) for c in sols.solutions]
        assert keyed == sorted(keyed)


class TestEAE:
    def test_half(self):
        g = tiny_triangle()
        static, counts = prepared(g, 10)
        sols = eval_eae(g, static, counts, Fraction(1, 2))
        assert [(v.vertex, v.satisfied, v.degree) for v in sols.solutions] == [(1, 1, 2)]

    def test_full_empty(self):
        g = tiny_triangle()
        static, counts = prepared(g, 10)
        assert eval_eae(g, static, counts, Fraction(1)).solutions == []

    def test_requires_outgoing_edge(self):
        # 3 -> 1 and 3 -> 2 missing: vertex 3 has no outgoing qualifying edge
        g = tiny_triangle()
        static, counts = prepared(g, 10)
        sols = eval_eae(g, static, counts, Fraction(1, 4))
        assert all(v.vertex != 3 for v in sols.solutions)


class TestEAA:
    def test_half_half(self):
        g = tiny_triangle()
        static, counts = prepared(g, 10)
        sols = eval_eaa(g, static, counts, Fraction(1, 2), Fraction(1, 2))
        assert [v.vertex for v in sols.solutions] == [1]

    def test_containment_in_eae(self):
        rng = random.Random(0xAA)
        for _ in range(20):
            g = random_temporal_graph(rng, max_vertices=14, max_edges=90)
            static, counts = prepared(g, 20)
            for tau1 in TAUS:
                eae = {v.vertex for v in eval_eae(g, static, counts, tau1).solutions}
                for tau2 in TAUS:
                    eaa = {
                        v.vertex
                        for v in eval_eaa(g, static, counts, tau1, tau2).solutions
                    }
                    assert eaa <= eae


class TestMonotonicity:
    def test_threshold_monotone_set_inclusion(self):
        rng = random.Random(0xAB)
        for _ in range(15):
            g = random_temporal_graph(rng, max_vertices=14, max_edges=90)
            static, counts = prepared(g, 20)
            for lo, hi in zip(TAUS, TAUS[1:]):
                assert set(eval_eea(g, static, counts, hi).solutions) <= set(
                    eval_eea(g, static, counts, lo).solutions
                )
                assert set(eval_eae(g, static, counts, hi).solutions) <= set(
                    eval_eae(g, static, counts, lo).solutions
                )
                assert {
                    v.vertex for v in eval_eaa(g, static, counts, hi, hi).solutions
                } <= {v.vertex for v in eval_eaa(g, static, counts, lo, lo).solutions}

    def test_delta_monotone_set_inclusion(self):
        rng = random.Random(0xAC)
        for _ in range(10):
            g = random_temporal_graph(rng, max_vertices=14, max_edges=90)
            static = build_static(g)
            prev = None
            for delta in (0, 2, 10, 100):
                counts = compute_counts(g, delta, static)
                cur = {
                    (c.src, c.dst, c.t)
                    for c in eval_eea(g, static, counts, Fraction(1, 4)).solutions
                }
                if prev is not None:
                    assert prev <= cur
                prev = cur


class TestPractical:
    def test_matches_engine_counts(self):
        rng = random.Random(0xAD)
        for _ in range(30):
            g = random_temporal_graph(rng, max_vertices=16, max_edges=120)
            static = build_static(g)
            for delta in (0, 1, 20, 500):
                assert practical_counts(g, static, delta) == compute_counts(
                    g, delta, static
                ).totals()

    def test_practical_eea_equals_eval_eea(self):
        rng = random.Random(0xAE)
        for _ in range(10):
            g = random_temporal_graph(rng, max_vertices=16, max_edges=120)
            static = build_static(g)
            counts = compute_counts(g, 15, static)
            for tau in TAUS:
                for universe in (Universe.DST, Universe.COMMON):
                    assert practical_eea(g, static, 15, tau, universe) == eval_eea(
                        g, static, counts, tau, universe
                    )

    def test_triangle_free(self):
        g = TemporalGraph.from_edges([(1, 2, 5), (2, 3, 6)])
        static = build_static(g)
        assert practical_eea(g, static, 100, Fraction(1, 4)).solutions == []


class TestAgainstOracle:
    def test_all_kinds_match_oracle_solutions(self):
        rng = random.Random(0xAF)
        for _ in range(12):
            g = random_temporal_graph(rng, max_vertices=14, max_edges=90)
            static = build_static(g)
            for delta in (0, 10, 200):
                counts = compute_counts(g, delta, static)
                for tau in TAUS:
                    for universe in (Universe.DST, Universe.COMMON):
                        spec = QuerySpec("eea", delta, tau, universe=universe)
                        assert set(eval_eea(g, static, counts, tau, universe).solutions) == set(
                            oracle_solutions(g, delta, spec, static).solutions
                        )
                        spec2 = QuerySpec("eaa", delta, tau, tau2=tau, universe=universe)
                        assert set(eval_eaa(g, static, counts, tau, tau, universe).solutions) == set(
                            oracle_solutions(g, delta, spec2, static).solutions
                        )
                    spec3 = QuerySpec("eae", delta, tau)
                    assert set(eval_eae(g, static, counts, tau).solutions) == set(
                        oracle_solutions(g, delta, spec3, static).solutions
                    )


class TestLeast:
    """queries._least against ceil(tau * s) in Fractions, on its int64 path
    and on its Python-int table."""

    P = 2**61 + 1  # p * s fits int64 up to s = 3

    CASES = [
        (Fraction(1), [0, 1, 2, 7, 1000]),
        (Fraction(1, 2**62), [0, 1, 2**20, 5]),
        (Fraction(10**30 - 1, 10**30), [0, 1, 3, 999]),
        (Fraction(7, 10**30), [0, 4, 1]),
        (Fraction(1, 3), list(range(40))),
        (Fraction(P, P + 2), [0, 1, 2, 3]),  # at the crossover: int64 path
        (Fraction(P, P + 2), [0, 1, 2, 3, 4]),  # one past it: table
        (Fraction(2**63 - 1, 2**63), [0, 1]),  # denominator beyond int64
        (Fraction(1, 5), []),
    ]

    @staticmethod
    def brute(tau, sizes, floor):
        return [max(floor, math.ceil(tau * s)) for s in sizes]

    @pytest.mark.parametrize("floor", [0, 1])
    @pytest.mark.parametrize("tau,sizes", CASES)
    def test_matches_fraction_brute_force(self, monkeypatch, tau, sizes, floor):
        arr = np.array(sizes, dtype=np.int64)
        want = self.brute(tau, sizes, floor)
        got = queries._least(tau, arr, floor)
        assert got.dtype == np.int64 and got.tolist() == want
        monkeypatch.setattr(queries, "_I64_MAX", -1)  # every tau through the table
        assert queries._least(tau, arr, floor).tolist() == want

    def test_crossover_picks_the_path(self):
        tau = Fraction(self.P, self.P + 2)
        at, past = np.array([0, 3]), np.array([0, 4])
        with mock.patch.object(np, "array", wraps=np.array) as table:
            assert queries._least(tau, at, 1).tolist() == [1, 3]
            assert table.call_count == 0
            assert queries._least(tau, past, 1).tolist() == [1, 4]
            assert table.call_count == 1

"""Mutation check for the parse, the build, the graph layer's groupings and
gathers, and the engines' window, bound and lap logic.

Each mutant replaces one exact text in one source file. For each, the
script copies src/, tests/, pyproject.toml and README.md to a temporary
directory, applies the mutant there and runs its test files with
`python -m pytest -q -x`, with the criterion-5 timing test deselected. A
mutant is killed when those tests fail. The working tree is never changed.

Run from anywhere, standard library only (the tests need pytest and
hypothesis):

    python3 scripts/mutants.py

It prints one line per mutant and exits 1 if a mutant's text is missing or
not unique (so a PR that rewrites the code must update its mutants), if
the unmutated copy fails its tests, or if a mutant survives that is not
listed as expected. The engine mutants run three or four test files each,
so a full run takes minutes and stays out of the tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
GRAPH, ENGINE, ORACLE = "src/folty/graph.py", "src/folty/engine.py", "src/folty/oracle.py"
QUERIES = "src/folty/queries.py"
PARSE_TESTS = ("tests/test_graph.py",)
ENGINE_TESTS = ("tests/test_differential.py", "tests/test_engine.py", "tests/test_acceptance.py")
ORACLE_TESTS = ENGINE_TESTS + ("tests/test_oracle.py",)
PRACTICAL_TESTS = ("tests/test_differential.py", "tests/test_queries.py")
TIMING_TEST = "tests/test_acceptance.py::test_criterion_5_complexity_scaling"


class Mutant(NamedTuple):
    file: str
    text: str
    replacement: str
    why: str
    tests: tuple[str, ...]
    survives: str = ""  # why no test can kill it, if none can


MUTANTS = [
    Mutant(
        GRAPH,
        'if b"\\r" in data and data.count(b"\\r") != data.count(b"\\r\\n"):',
        "if False:",
        "parse: a lone '\\r' splits lines for bytes.splitlines only",
        PARSE_TESTS,
    ),
    Mutant(
        GRAPH,
        'if gaps != b"  \\n" * k + b"  " * open_end:',
        "if False:",
        "parse: the separators decide which lines the array parse may read",
        PARSE_TESTS,
    ),
    Mutant(
        GRAPH,
        "if len(values) != 3 * lines:",
        "if False:",
        "parse: the value count tells a line of two values from one of three",
        PARSE_TESTS,
    ),
    Mutant(
        GRAPH,
        "if values.max() == _I64_MAX:",
        "if False:",
        "parse: out-of-range text saturates to the int64 maximum",
        PARSE_TESTS,
    ),
    Mutant(
        GRAPH,
        "if not lines:",
        "if False:",
        "parse: input without a field line takes the line loop",
        PARSE_TESTS,
    ),
    Mutant(
        GRAPH,
        'bool(data) and not data.endswith(b"\\n")',
        "False",
        "parse: a last line without '\\n' is still canonical",
        PARSE_TESTS,
    ),
    Mutant(
        GRAPH,
        'bytes.maketrans(b"\\t", b" ")',
        'bytes.maketrans(b"", b"")',
        "parse: a tab separates fields like a space",
        PARSE_TESTS,
    ),
    Mutant(
        GRAPH,
        "except (ValueError, DeprecationWarning):",
        "except ():",
        "parse: np.fromstring's errors send the input to the line loop",
        PARSE_TESTS,
    ),
    Mutant(
        GRAPH,
        "keep = u != v",
        "keep = u == u",
        "build: self-loops are dropped",
        PARSE_TESTS,
    ),
    Mutant(
        GRAPH,
        "self.self_loops_dropped = len(keep) - len(t)",
        "self.self_loops_dropped = 0",
        "build: the dropped self-loops are counted",
        PARSE_TESTS,
    ),
    Mutant(
        GRAPH,
        "[labels[i] for i in ids.tolist()]",
        "labels",
        "build: a label seen only in a dropped self-loop is not a vertex",
        PARSE_TESTS,
    ),
    Mutant(
        ENGINE,
        "return (f1 <= l2) &",
        "return (f1 < l2) &",
        "_fits: a list may start at the time the next one ends",
        ENGINE_TESTS,
    ),
    Mutant(
        ENGINE,
        "l1.view(np.uint64) <= last)",
        "l1.view(np.uint64) < last)",
        "_fits: the window is closed at its end",
        ENGINE_TESTS,
    ),
    Mutant(
        ENGINE,
        "for early, late in ((0, 1), (0, 2), (1, 2)):",
        "for early, late in ((0, 1), (0, 2)):",
        "_may_close: L2 must fit L3",
        ENGINE_TESTS,
    ),
    Mutant(
        ENGINE,
        "jobs = jobs.compress(_may_close(jobs, bounds, last), axis=1)",
        "pass",
        "_expand: jobs that cannot close are dropped before expansion",
        ENGINE_TESTS,
    ),
    Mutant(
        ENGINE,
        "keep = np.flatnonzero(_fits(t, t, first[q2], final[q2], last) & _fits(t, t, first[q3], final[q3], last))",
        "keep = np.arange(len(t))",
        "_out_hits: L1 entries that fit neither L2 nor L3 are dropped before the first lookup",
        ENGINE_TESTS,
    ),
    Mutant(
        ENGINE,
        "keep = np.flatnonzero(ts[j] - t <= last)",
        "keep = np.flatnonzero(ts[j] - t < last)",
        "_out_hits: the cut before the second lookup keeps t2 = t + window",
        ENGINE_TESTS,
    ),
    Mutant(
        ENGINE,
        "eid += np.searchsorted(windows[:-1], span) * m",
        'eid += np.searchsorted(windows[:-1], span, "right") * m',
        "_fold: a hit whose span equals a window counts in that window",
        ENGINE_TESTS,
    ),
    Mutant(
        ENGINE,
        "return math.floor(min(delta, span))",
        "return min(delta, span)",
        "_window: a fractional delta counts as its floor",
        ENGINE_TESTS,
    ),
    Mutant(
        ENGINE,
        " & (head | (comp[i - 1] != comp[i]))",
        "",
        "_in_ranges: an L2 entry at the time of the one before it has an empty range",
        ENGINE_TESTS,
    ),
    Mutant(
        ENGINE,
        " & (t3 - ts[i] <= last)",
        "",
        "_in_ranges: ranges the largest window empties are dropped",
        ENGINE_TESTS,
    ),
    Mutant(
        ENGINE,
        "np.searchsorted(g.pair_comp, g.pair_comp[i] + (qb - qa) * len(g.t_distinct))",
        'np.searchsorted(g.pair_comp, g.pair_comp[i] + (qb - qa) * len(g.t_distinct), "right")',
        "_next_entry: the next list's entry at the same time is the first one",
        ENGINE_TESTS,
    ),
    Mutant(
        ENGINE,
        "if held and held + len(part[0]) > KEY_CAP:",
        "if held > KEY_CAP:",
        "_capped: a run ends before the part that would take it past KEY_CAP",
        ENGINE_TESTS,
    ),
    Mutant(
        ENGINE,
        "return np.where(d > u ^ _SIGN, _I64_MIN, (u - d).view(np.int64))",
        "return (u - d).view(np.int64)",
        "_minus: t - d saturates at the int64 minimum",
        ENGINE_TESTS,
    ),
    Mutant(
        ENGINE,
        'row[rows] += np.searchsorted(lo, q, "right") - below',
        'row[rows] += np.searchsorted(lo, q, "left") - below',
        "_fold_ranges: a range [lo, hi) holds its lo",
        ENGINE_TESTS,
    ),
    Mutant(
        ENGINE,
        'below = np.searchsorted(np.sort(hi), q, "right")',
        'below = np.searchsorted(np.sort(hi), q, "left")',
        "_fold_ranges: a range [lo, hi) does not hold its hi",
        ENGINE_TESTS,
    ),
    Mutant(
        GRAPH,
        "up = np.flatnonzero(head_rank[xz] > head_rank[e])",
        "up = np.flatnonzero(head_rank[xz] >= head_rank[e])",
        "_closed_wedges: only heads ranked above y are looked up",
        ENGINE_TESTS,
    ),
    Mutant(
        GRAPH,
        "np.unique(np.minimum(x, y) * self.n + np.maximum(x, y), return_inverse=True)",
        "np.unique(x * self.n + y, return_inverse=True)",
        "_pair_groups: both directions of a pair group under its one static edge",
        PARSE_TESTS,
    ),
    Mutant(
        GRAPH,
        "slots[2 * self._pair_groups[1] + (x > y)]",
        "slots[2 * self._pair_groups[1] + (x < y)]",
        "entry_pairs: a pair max -> min takes its edge's second slot",
        PARSE_TESTS,
    ),
    Mutant(
        GRAPH,
        "(tail > ordering.out_nbr)",
        "(tail < ordering.out_nbr)",
        "entry_pairs: an entry max -> min reads its edge's second slot",
        PARSE_TESTS,
    ),
    Mutant(
        GRAPH,
        "slots[fwd ^ 1]",
        "slots[fwd]",
        "entry_pairs: the reverse pair is the edge's other slot",
        PARSE_TESTS,
    ),
    Mutant(
        GRAPH,
        "np.bincount(o.entry_edge[np.concatenate(o.triangle_entries())]",
        "np.bincount(np.concatenate(o.triangle_entries())",
        "common_counts: the entries' credits go to their static edges",
        PARSE_TESTS,
    ),
    Mutant(
        ENGINE,
        "    ordering.triangle_entries()\n    g.entry_pairs(ordering)",
        "    g.entry_pairs(ordering)",
        "count_tables: the triangle listing is timed in the triangles lap",
        ("tests/test_cli.py",),
    ),
    Mutant(
        GRAPH,
        "deg[touched] -= drop",
        "deg[touched] -= 1",
        "degeneracy_order: a vertex loses one degree per removed neighbor",
        PARSE_TESTS,
    ),
    Mutant(
        QUERIES,
        "if t3 <= t + delta:",
        "if t3 < t + delta:",
        "practical _chain: the window is closed at its end",
        PRACTICAL_TESTS,
    ),
    Mutant(
        ORACLE,
        "window = math.floor(min(delta, 2**64))",
        "window = min(delta, 2**64)",
        "oracle: a fractional delta counts as its floor, in integer arithmetic",
        ORACLE_TESTS,
    ),
]


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def tests_pass(tree: Path, tests: tuple[str, ...]) -> bool:
    """Whether `tests` pass in `tree`. The criterion-5 timing test is
    deselected: a clock cannot tell a mutant from the original, and its
    timing flake would fail the unmutated copy. The clock-free work bounds
    in the same file still run."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # pyproject puts src on the path
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--deselect", TIMING_TEST, *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode == 0


def main() -> int:
    missing = [m for m in MUTANTS if (ROOT / m.file).read_text().count(m.text) != 1]
    for m in missing:
        print(f"MISSING  {m.file}: {m.text!r} is not in the file exactly once")
    if missing:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        for tests in sorted({m.tests for m in MUTANTS}):
            if not tests_pass(Path(tmp), tests):
                print(f"FAILED   the unmutated tree fails {' '.join(tests)}")
                return 1
    unexpected = 0
    for m in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp)
            copy_tree(tree)
            path = tree / m.file
            path.write_text(path.read_text().replace(m.text, m.replacement))
            killed = not tests_pass(tree, m.tests)
        unexpected += not killed and not m.survives
        print(f"{'killed' if killed else 'SURVIVED':8} {Path(m.file).name}: {m.why}", flush=True)
        if m.survives:
            print(f"{'':8} listed as a survivor: {m.survives}", flush=True)
    print(f"{len(MUTANTS)} mutants, {unexpected} unexpected survivors")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())

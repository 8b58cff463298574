"""Mutation check for the array parse and the engines' window and bound logic.

Each mutant replaces one exact text in one source file. For each, the
script copies src/, tests/, pyproject.toml and README.md to a temporary
directory, applies the mutant there and runs its test files with
`python -m pytest -q -x`. A mutant is killed when those tests fail. The
working tree is never changed.

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
PARSE_TESTS = ("tests/test_graph.py",)
ENGINE_TESTS = ("tests/test_differential.py", "tests/test_engine.py", "tests/test_acceptance.py")
ORACLE_TESTS = ENGINE_TESTS + ("tests/test_oracle.py",)


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
        "on numpy 2.x no input that passes the separator check makes np.fromstring raise or warn;"
        " the except is kept for numpy 1.x",
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
        "saves work only: _fold_ranges clamps lo to hi, so a range the window empties adds 0",
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
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # pyproject puts src on the path
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
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

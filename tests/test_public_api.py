"""The public surface: every name in folty.__all__, and the README library
example run as written."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import folty
from folty import QuerySpec, Universe, build_static, oracle_solutions, parse_edge_list

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve():
    assert len(set(folty.__all__)) == len(folty.__all__)
    missing = [name for name in folty.__all__ if getattr(folty, name, None) is None]
    assert missing == []
    namespace = {}
    exec("from folty import *", namespace)
    assert set(folty.__all__) <= set(namespace)


def library_example() -> str:
    """The first python block of the README's Library section."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example(tmp_path):
    """The example runs in a fresh process on graph.txt and prints what the
    oracle answers: the eea certificates at delta 3600 and tau 1/4, then the
    eae totals at tau 1/2 for each delta."""
    pairs = [(u, v, 13 * u + 7 * v) for u in range(9) for v in range(9) if u != v]
    edges = [(u, v, h * 7919 % (3000 if u < 5 else 200000)) for u, v, h in pairs]  # a burst out of 0-4
    edges += [(u, v, h * 97 % 200000) for u, v, h in pairs]
    edges += [(3, 3, 40), (100, 2, 60), (2, 100, 900)]
    text = "".join(f"{u} {v} {t}\n" for u, v, t in edges)
    (tmp_path / "graph.txt").write_text(text)
    src = str(Path(folty.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", library_example()], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr

    g = parse_edge_list(text)
    static = build_static(g)
    eea = oracle_solutions(g, 3600, QuerySpec("eea", 3600, Fraction(1, 4), universe=Universe.DST), static)
    want = [f"{c.src} {c.dst} {c.t} {c.count} {c.universe_size}" for c in eea.solutions]
    for delta in (3600, 86400, 604800):
        eae = oracle_solutions(g, delta, QuerySpec("eae", delta, Fraction(1, 2)), static)
        want.append(f"{delta} {eae.total}")
    assert eea.total > 0 and want[-3:] == ["3600 2", "86400 5", "604800 5"]
    assert done.stdout.splitlines() == want

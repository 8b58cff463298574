"""scripts/mutants.py stays in step with the code it mutates: the mutation
check itself takes minutes, so these checks of its list run in the suite."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = load_mutants()


def test_each_text_occurs_once_in_its_file():
    stale = [(m.file, m.text) for m in MUTANTS if (ROOT / m.file).read_text().count(m.text) != 1]
    assert stale == []


def test_each_replacement_differs_from_its_text():
    assert [m.why for m in MUTANTS if m.replacement == m.text] == []


def test_each_listed_test_path_exists():
    missing = {path for m in MUTANTS for path in m.tests if not (ROOT / path.split("::")[0]).is_file()}
    assert missing == set()
    assert all(m.tests for m in MUTANTS)

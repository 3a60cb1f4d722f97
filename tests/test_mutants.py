"""The mutation catalogue (tests/mutants.py) still matches the code: every
mutant applies to its file, every test that must kill it exists, and
every lemma named in the library's docstrings has an entry.  The mutants
themselves run outside this suite: python tests/mutants.py.  The library
holds no assert statement, so each of its checks survives python -O."""

import ast
import re
from collections import Counter

from mutants import MUTANTS, ROOT, SRC

# "<name> lemma", the name possibly hyphenated, as the docstrings cite them
LEMMA = re.compile(r"\b([A-Za-z]+(?:-[A-Za-z]+)*)\s+lemma\b")


def _defined_tests(path):
    """The node id suffixes, "Class::test" and "test", that a test file
    defines."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(
                f"{node.name}::{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            )
    return names


def _library_trees():
    """(file name, syntax tree) of each module of the library."""
    return [
        (path.name, ast.parse(path.read_text()))
        for path in sorted((SRC / "spaltenstein").glob("*.py"))
    ]


def _docstring_lemmas():
    """The lower-cased names of every "<name> lemma" in the docstrings of
    the library's modules, classes and functions."""
    names = set()
    for _, tree in _library_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                names.update(n.lower() for n in LEMMA.findall(ast.get_docstring(node) or ""))
    return names - {"the"}


def _mutants():
    """The entries with a mutation, without the lemma gaps."""
    return [m for m in MUTANTS if m["old"]]


class TestCatalogue:
    def test_ids_unique(self):
        counts = Counter(m["id"] for m in MUTANTS)
        assert [i for i, n in counts.items() if n > 1] == []

    def test_each_old_occurs_once_and_changes_it(self):
        for m in _mutants():
            text = (SRC / "spaltenstein" / m["file"]).read_text()
            assert text.count(m["old"]) == 1, m["id"]
            assert m["old"] != m["new"], m["id"]

    def test_each_named_test_exists(self):
        defined = {}
        for m in _mutants():
            assert m["kills"], m["id"]
            for node in m["kills"]:
                path, _, name = node.partition("::")
                if path not in defined:
                    defined[path] = _defined_tests(ROOT / path)
                assert name in defined[path], (m["id"], node)

    def test_every_named_lemma_has_an_entry(self):
        lemmas = _docstring_lemmas()
        assert len(lemmas) >= 20
        assert sorted(lemmas - {m["lemma"] for m in MUTANTS}) == []

    def test_lemma_gaps_listed(self):
        # the lemmas with no mutable shortcut: each entry has a reason and
        # nothing to run
        gaps = [m for m in MUTANTS if not m["old"]]
        assert {m["id"]: m["lemma"] for m in gaps} == {"isotypic-no-shortcut": "isotypic"}
        assert all(m["reason"] and not m["kills"] for m in gaps)


class TestLibrarySource:
    def test_no_assert_statements(self):
        found = [
            f"{name}:{node.lineno}" for name, tree in _library_trees() for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
        assert found == []

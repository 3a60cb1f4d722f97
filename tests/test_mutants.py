"""The mutation catalogue (tests/mutants.py) still matches the code: every
mutant applies to its file, and every test that must kill it exists.  The
mutants themselves run outside this suite: python tests/mutants.py."""

import ast
from collections import Counter

from mutants import MUTANTS, ROOT, SRC


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


class TestCatalogue:
    def test_ids_unique(self):
        counts = Counter(m["id"] for m in MUTANTS)
        assert [i for i, n in counts.items() if n > 1] == []

    def test_each_old_occurs_once_and_changes_it(self):
        for m in MUTANTS:
            text = (SRC / "spaltenstein" / m["file"]).read_text()
            assert text.count(m["old"]) == 1, m["id"]
            assert m["old"] != m["new"], m["id"]

    def test_each_named_test_exists(self):
        defined = {}
        for m in MUTANTS:
            assert m["kills"], m["id"]
            for node in m["kills"]:
                path, _, name = node.partition("::")
                if path not in defined:
                    defined[path] = _defined_tests(ROOT / path)
                assert name in defined[path], (m["id"], node)

"""The retired-test manifest: ``tests/retired_tests.json`` lists every test
deleted on purpose, with the reason it went."""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def defined_tests():
    """Every function defined in a test module, as 'tests.module::name'."""
    out = set()
    for path in (ROOT / 'tests').glob('test_*.py'):
        tree = ast.parse(path.read_text())
        out.update('tests.%s::%s' % (path.stem, node.name) for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return out


def function_of(test_id):
    return test_id.split('[')[0]  # a parametrized case names its function


def test_removed_tests_are_named_explained_and_gone():
    entries = json.loads((ROOT / 'tests' / 'retired_tests.json').read_text())
    assert entries
    defined = defined_tests()
    for entry in entries:
        assert isinstance(entry.get('id'), str) and '::' in entry['id'], entry
        assert isinstance(entry.get('reason'), str) and entry['reason'].strip(), entry
        assert function_of(entry['id']) not in defined, entry['id']
        if entry.get('renamed_to'):
            assert function_of(entry['renamed_to']) in defined, entry

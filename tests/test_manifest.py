"""The retired-test manifest: ``tests/retired_tests.json`` lists every test
deleted on purpose, with the reason it went.  A whole test is gone when its
function is; a parametrized case (an id with ``[...]``) is gone when the
suite no longer collects it, while its function may keep other cases."""

import ast
import json
import os
import subprocess
import sys
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


def collected_tests():
    """Every id the suite collects, as 'tests.module::name[case]'."""
    pythonpath = [str(ROOT / 'src'), os.environ.get('PYTHONPATH')]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    run = subprocess.run([sys.executable, '-m', 'pytest', '--collect-only', '-q', '-p',
                          'no:cacheprovider', 'tests'],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    out = set()
    for line in run.stdout.splitlines():
        path, sep, name = line.partition('::')
        if sep and path.endswith('.py'):
            out.add('%s::%s' % (path[:-3].replace('/', '.'), name))
    return out


def present(test_id, defined, collected):
    """A case is present while the suite collects it, a test while its
    function is defined."""
    return test_id in collected if '[' in test_id else test_id in defined


def manifest_problems(entries, defined, collected):
    """(id, problem) for every manifest entry that is malformed, names a test
    still present, or is renamed to a test that is not."""
    out = []
    for entry in entries:
        test_id = entry.get('id')
        if not (isinstance(test_id, str) and '::' in test_id):
            out.append((test_id, 'no test id'))
            continue
        if not (isinstance(entry.get('reason'), str) and entry['reason'].strip()):
            out.append((test_id, 'no reason'))
        if present(test_id, defined, collected):
            out.append((test_id, 'still present'))
        renamed = entry.get('renamed_to')
        if renamed and not present(renamed, defined, collected):
            out.append((test_id, 'renamed to %s, which is not present' % (renamed,)))
    return out


def test_removed_tests_are_named_explained_and_gone():
    entries = json.loads((ROOT / 'tests' / 'retired_tests.json').read_text())
    assert entries
    assert manifest_problems(entries, defined_tests(), collected_tests()) == []


def test_a_retired_case_may_leave_its_function_behind():
    defined = {'tests.test_m::test_t', 'tests.test_m::test_u'}
    collected = {'tests.test_m::test_t[b]', 'tests.test_m::test_u'}
    entries = [{'id': 'tests.test_m::test_t[a]', 'reason': 'case a went',
                'renamed_to': 'tests.test_m::test_u'}]
    assert manifest_problems(entries, defined, collected) == []


def test_a_listed_case_or_test_still_present_fails():
    defined = {'tests.test_m::test_t'}
    collected = {'tests.test_m::test_t[a]', 'tests.test_m::test_t[b]'}
    entries = [{'id': 'tests.test_m::test_t[a]', 'reason': 'r'},
               {'id': 'tests.test_m::test_t', 'reason': 'r'},
               {'id': 'tests.test_m::test_v[c]', 'reason': ' ',
                'renamed_to': 'tests.test_m::test_t[c]'}]
    assert manifest_problems(entries, defined, collected) == [
        ('tests.test_m::test_t[a]', 'still present'),
        ('tests.test_m::test_t', 'still present'),
        ('tests.test_m::test_v[c]', 'no reason'),
        ('tests.test_m::test_v[c]', 'renamed to tests.test_m::test_t[c], which is not present')]

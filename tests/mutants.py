"""Mutation sweep over Theorem 2's A-bases, C blocks, block order and
partition count, and the facet table, d d = 0 certificate and coreduction of
the homology oracle.

Each mutant changes one site of one target function, in a temporary copy of
``src`` and ``tests``, and runs the target's own test file with ``-x -q`` on
that copy under a timeout.  A mutant is killed when the run fails or hangs
past the timeout, and survives when it passes.  The timeout of a test file
is ``TIMEOUT_FACTOR`` times the wall time of its unmutated run, which the
sweep makes first, and at least ``TIMEOUT_FLOOR`` seconds; ``--timeout``
sets it by hand.  The working tree is only read.

    python3 tests/mutants.py --list            # the sites, nothing run
    python3 tests/mutants.py                   # run every mutant
    python3 tests/mutants.py --site 3 --site 7 # run the listed sites only

Operators: a comparison flipped to its negation, a ``raise`` dropped, an
``and``/``or`` swapped, and an integer constant moved by +1 or -1.  A target
function missing from its module fails ``--list`` as well as a sweep, so a
rename shows up before anything runs.  The score is printed, not gated: the
exit status is nonzero only when a target is missing or the unmutated copy
already fails one of the test files.

pytest does not collect this file (it is not named ``test_*.py``).
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# module path -> {function mutated in it: the test file run against it}
TARGETS = {
    'src/kneser_morse/collapse.py': {'pivot_vertex': 'tests/test_collapse.py',
                                     '_a_base': 'tests/test_collapse.py',
                                     'matching_C': 'tests/test_collapse.py',
                                     'check_label_order': 'tests/test_collapse.py',
                                     'theorem2_matching': 'tests/test_collapse.py'},
    'src/kneser_morse/wedge.py': {'toggle_run': 'tests/test_wedge.py'},
    'src/kneser_morse/homology.py': {'_signed_image': 'tests/test_homology.py',
                                     '_certify': 'tests/test_homology.py'},
    'src/kneser_morse/morse.py': {'facet_table': 'tests/test_homology.py',
                                  'incidences': 'tests/test_homology.py',
                                  'coreduce': 'tests/test_homology.py'},
}

FLIP = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
        ast.Is: ast.IsNot, ast.IsNot: ast.Is}

# address-space cap of a mutant's test run, so a mutant that blows up a
# bitset fails with MemoryError instead of crowding the machine
MEMORY_CAP = 2 << 30

# a mutant's run may take this many times the unmutated run of its test
# file, and never less than the floor, before it counts as hanging; the
# unmutated run itself gets the cap
TIMEOUT_FACTOR = 3.0
TIMEOUT_FLOOR = 10.0
BASELINE_CAP = 600.0


def find_function(tree: ast.Module, name: str) -> ast.FunctionDef:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise LookupError(name)


def edits(func: ast.FunctionDef):
    """(node index in ``ast.walk(func)``, operator, detail) for every
    mutation of ``func``, in walk order."""
    for i, node in enumerate(ast.walk(func)):
        if isinstance(node, ast.Compare):
            for j, op in enumerate(node.ops):
                if type(op) in FLIP:
                    yield i, ('flip', j), "%s -> %s" % (type(op).__name__, FLIP[type(op)].__name__)
        elif isinstance(node, ast.BoolOp):
            yield i, ('boolop',), "%s -> %s" % (type(node.op).__name__,
                                                'Or' if isinstance(node.op, ast.And) else 'And')
        elif isinstance(node, ast.Raise):
            yield i, ('drop',), "raise dropped"
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for d in (1, -1):
                yield i, ('shift', d), "%d -> %d" % (node.value, node.value + d)


def sites() -> list[tuple]:
    """(path, function, node index, operator, line, detail) for every site,
    read from the working tree; a missing target raises ``LookupError``."""
    out = []
    for path, names in TARGETS.items():
        tree = ast.parse((ROOT / path).read_text())
        for name in names:
            try:
                func = find_function(tree, name)
            except LookupError:
                raise LookupError("%s has no top-level function %s" % (path, name)) from None
            nodes = list(ast.walk(func))
            for i, op, detail in edits(func):
                out.append((path, name, i, op, getattr(nodes[i], 'lineno', func.lineno), detail))
    return out


def mutate(source: str, name: str, index: int, op: tuple) -> str:
    """``source`` with one site of the function ``name`` mutated; only the
    function's own lines are rewritten."""
    tree = ast.parse(source)
    func = find_function(tree, name)
    node = list(ast.walk(func))[index]
    if op[0] == 'flip':
        node.ops[op[1]] = FLIP[type(node.ops[op[1]])]()
    elif op[0] == 'boolop':
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    elif op[0] == 'shift':
        node.value += op[1]
    else:  # drop a raise: the statement becomes ``pass``
        for parent in ast.walk(func):
            for field in ('body', 'orelse', 'finalbody'):
                block = getattr(parent, field, None)
                if isinstance(block, list) and node in block:
                    block[block.index(node)] = ast.Pass()
    ast.fix_missing_locations(func)
    lines = source.splitlines(keepends=True)
    start = min([func.lineno] + [d.lineno for d in func.decorator_list]) - 1
    return "".join(lines[:start]) + ast.unparse(func) + "\n" + "".join(lines[func.end_lineno:])


def cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_tests(copy: Path, test: str, timeout: float) -> tuple[str, float]:
    """'pass', 'fail' or 'timeout' for ``pytest test -x -q``, and the wall
    time it took."""
    env = dict(os.environ, PYTHONPATH=str(copy / 'src'), PYTHONDONTWRITEBYTECODE='1')
    start = time.monotonic()
    try:
        run = subprocess.run([sys.executable, '-m', 'pytest', test, '-x', '-q',
                              '-p', 'no:cacheprovider'], cwd=copy, env=env, timeout=timeout,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                             preexec_fn=cap_memory)
    except subprocess.TimeoutExpired:
        return 'timeout', time.monotonic() - start
    return 'pass' if run.returncode == 0 else 'fail', time.monotonic() - start


def sweep(chosen: list[tuple], timeout: float | None) -> int:
    with tempfile.TemporaryDirectory(prefix='kneser-mutants-') as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns('__pycache__', '*.pyc')
        for part in ('src', 'tests'):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / 'pyproject.toml', copy / 'pyproject.toml')
        limit = {}  # test file -> timeout of its mutants
        for test in sorted({TARGETS[path][name] for _, (path, name, *_) in chosen}):
            outcome, took = run_tests(copy, test, timeout or BASELINE_CAP)
            if outcome != 'pass':
                print("the unmutated copy does not pass %s; no sweep" % test)
                return 1
            limit[test] = timeout or max(TIMEOUT_FLOOR, TIMEOUT_FACTOR * took)
            print("unmutated %s: %.1f s, mutant timeout %.1f s" % (test, took, limit[test]), flush=True)
        survivors = []
        for n, (path, name, index, op, line, detail) in chosen:
            original = (copy / path).read_text()
            (copy / path).write_text(mutate(original, name, index, op))
            try:
                outcome, _ = run_tests(copy, TARGETS[path][name], limit[TARGETS[path][name]])
            finally:
                (copy / path).write_text(original)
            verdict = 'SURVIVED' if outcome == 'pass' else 'killed (%s)' % outcome
            print("%3d  %s:%d %s  %s  %s  %s" % (n, path, line, name, detail,
                                               TARGETS[path][name], verdict), flush=True)
            if outcome == 'pass':
                survivors.append(n)
    killed = len(chosen) - len(survivors)
    print("killed %d of %d mutants; survivors: %s"
          % (killed, len(chosen), ", ".join(map(str, survivors)) or "none"))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--list', action='store_true', help="list the sites and run nothing")
    parser.add_argument('--site', type=int, action='append',
                        help="run only this site number (repeatable)")
    parser.add_argument('--timeout', type=float, default=None,
                        help="seconds per test run, a run past it counting as killed (default: "
                             "%g times the unmutated run of the test file, at least %g s)"
                             % (TIMEOUT_FACTOR, TIMEOUT_FLOOR))
    args = parser.parse_args(argv)
    try:
        numbered = list(enumerate(sites(), start=1))
    except LookupError as e:
        print("mutation target missing: %s" % (e,))
        return 1
    if args.list:
        for n, (path, name, _, _, line, detail) in numbered:
            print("%3d  %s:%d %s  %s  %s" % (n, path, line, name, detail, TARGETS[path][name]))
        names = [name for names in TARGETS.values() for name in names]
        print("%d sites in %d functions: %s" % (len(numbered), len(names), ", ".join(names)))
        return 0
    chosen = [item for item in numbered if not args.site or item[0] in args.site]
    return sweep(chosen, args.timeout)


if __name__ == '__main__':
    sys.exit(main())

"""Self-tests of the benchmark itself.

Usage, from the root of a checkout (about four minutes, most of it two
k = 3 censuses):

    python3 perfbench/selftest.py

or ``python3 -m pytest perfbench/selftest.py``.  They check that a planted
wrong constant fails the operation, that the tracer patches every binding
and restores it, that traced and untraced operations agree and traced
counters repeat, that the layer-isolation check can fire, that the census
gives the same counts on two seeds, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from layers import Tracer  # noqa: E402


def test_planted_constant_fails_the_operation():
    planted = copy.deepcopy(run.EXPECTED)
    planted['theorem2'][2]['cells'] += 1
    bad = run.measure('collapse_k2', 7, 0, False, expected=planted)
    assert bad['failed'] == len(bad['ops']) == 1
    assert any('theorem2 cells is 15966, expected 15967' in p for p in bad['problems'])
    good = run.measure('collapse_k2', 7, 0, False)
    assert good['failed'] == 0 and not good['problems']


def test_tracer_patches_every_binding_and_restores():
    sys.path.insert(0, run.SRC)
    try:
        import kneser_morse.cli  # noqa: F401  (loads every layer)
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith('kneser_morse')}
        from kneser_morse.complexes import NbhdComplex
        from kneser_morse.morse import Matching
        before = {name: dict(vars(mod)) for name, mod in modules.items()}
        methods = (Matching.__init__, NbhdComplex.faces, NbhdComplex.all_faces)
        tracer = Tracer()
        tracer.install()
        try:
            bound = set(tracer.bindings())
            for owner, attr in (('kneser_morse.wedge', 'is_acyclic'), ('kneser_morse.wedge', 'is_cover'),
                                ('kneser_morse.wedge', 'element_matching'),
                                ('kneser_morse.collapse', 'rotate'),
                                ('kneser_morse.collapse', 'unstable_rep'),
                                ('kneser_morse.cli', 'complex_for'), ('kneser_morse.morse', 'is_cover'),
                                ('Matching', '__init__'), ('NbhdComplex', 'faces')):
                assert (owner, attr) in bound, (owner, attr)
        finally:
            tracer.restore()
        for name, mod in modules.items():
            after = vars(mod)
            assert all(after[key] is val for key, val in before[name].items()), name
        assert (Matching.__init__, NbhdComplex.faces, NbhdComplex.all_faces) == methods
    finally:
        sys.path.remove(run.SRC)


def _traced_twice(workload: str) -> None:
    with open(os.path.join(run.ROOT, 'BENCHMARK.json')) as fh:
        counters = {m['name']: m['unit'] for m in json.load(fh)['per_layer'] if m['unit'] == 'count'}
    seen = []
    for _ in range(2):
        got = run.measure(workload, 5, 0, True)
        assert not got['problems'], got['problems']
        untraced, traced = got['ops']
        assert not untraced['traced'] and traced['traced']
        assert run._output_key(untraced['output']) == run._output_key(traced['output'])
        metrics, problems = run.per_layer(got, counters)
        assert not problems, problems
        seen.append(metrics)
    assert seen[0] == seen[1]


def test_traced_collapse_matches_untraced_and_repeats():
    _traced_twice('collapse_k2')


def test_traced_snf_matches_untraced_and_repeats():
    _traced_twice('snf_k2')


def test_isolation_check_fires():
    collapse = run.WORKLOADS['collapse_k2']
    assert run.isolation_problems(collapse, {'homology.rank_mod_p.calls': 2})
    assert not run.isolation_problems(collapse, {'homology.rank_mod_p.calls': 0,
                                                 'collapse.classify.calls': 9})
    family = run.WORKLOADS['family_k3']
    assert run.isolation_problems(family, {'collapse.matching_C.calls': 1})


def test_census_counts_do_not_depend_on_the_seed():
    plain = run.measure('census_k3', 1, 0, False)
    assert plain['failed'] == 0 and not plain['problems'], plain['problems']
    # the second seed runs traced, so it also checks the layer isolation of
    # the census; one traced census outlasts a benchmark run, hence no measure()
    workload = run.WORKLOADS['census_k3']
    traced = run.spawn(dict(workload.spec(2), trace=True), time.monotonic() + 600)
    assert 'error' not in traced, traced['error']
    assert not workload.check(traced['output'], 2, run.EXPECTED)
    assert not run.isolation_problems(workload, traced['layers'])
    first, second = (op['output']['report']['results'][0]['detail']
                     for op in (plain['ops'][0], traced))
    assert first == second


def test_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=run.ROOT) as bare:
        shutil.copy(os.path.join(run.ROOT, 'BENCHMARK.json'), bare)
        shutil.copytree(HERE, os.path.join(bare, 'perfbench'),
                        ignore=shutil.ignore_patterns('__pycache__'))
        proc = subprocess.run([sys.executable, 'perfbench/run.py', '--workload', 'collapse_k2',
                               '--seed', '1', '--seconds', '1', '--trace', '0'],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and not proc.stdout.strip()


if __name__ == '__main__':
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith('test_') and callable(fn):
            try:
                fn()
            except AssertionError as e:
                failures += 1
                print("FAIL %s: %s" % (name, e), flush=True)
            else:
                print("ok   %s" % name, flush=True)
    sys.exit(1 if failures else 0)

"""Measure the benchmark's baseline and its run-to-run spread.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py [RUNS] [WORKLOAD ...]

Runs ``run.py`` RUNS times (default 10) per workload with --trace 0, seeds
1..RUNS, and twice with --trace 1.  For each end-to-end metric it prints the
median, the quartiles as ``statistics.quantiles(values, n=4)`` gives them,
and the spread (third minus first quartile, as a share of the median)
against a third of the metric's bound.  Traced runs must agree exactly on
every counter.  With every workload of ``BENCHMARK.json`` selected, it also
traces one k = 3 census, which no benchmark run can hold, and writes the
result to ``perfbench/baseline.json``; with a subset, it only prints.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec['command'] + ['--workload', workload, '--seed', str(seed),
                             '--seconds', str(spec['run_seconds']), '--trace', str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (' '.join(cmd), proc.returncode, proc.stderr[-500:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next(json.loads(line[len('# env '):]) for line in lines if line.startswith('# env '))
    if not result['correct']:
        problems = [line for line in lines if line.startswith('# problem')]
        raise RuntimeError("%s seed %d trace %d not correct: %s" % (workload, seed, trace, problems))
    if not trace:
        print("  %s seed %d: %s" % (workload, seed, ', '.join(
            "%s %.6g" % (name, m['value']) for name, m in result['metrics'].items())), flush=True)
    return {'seed': seed, 'result': result, 'env': env}


def summarize(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {'values': values, 'median': statistics.median(values), 'q1': q1, 'q3': q3,
            'spread': spread, 'bound': bound, 'within_third_of_bound': spread < bound / 3}


def census_layers(spec: dict) -> dict:
    """Per-layer metrics of one traced census_k3 operation (seed 1)."""
    workload = run.WORKLOADS['census_k3']
    op = run.spawn(dict(workload.spec(1), trace=True), time.monotonic() + 600)
    if 'error' in op:
        raise RuntimeError("census_k3: %s" % op['error'])
    problems = (workload.check(op['output'], 1, run.EXPECTED)
                + run.isolation_problems(workload, op['layers']))
    if problems:
        raise RuntimeError("census_k3: %s" % problems)
    layers = {m['name']: op['layers'][m['name']] * (op['scale'] if m['unit'] == 's' else 1)
              for m in spec['per_layer'] if m['name'] in op['layers']}
    return {'traced_verify_s': op['verify_s'], 'traced_wall_s': op['wall_s'],
            'peak_rss_mb': op['maxrss_kb'] / 1024, 'per_layer': layers}


def main(argv: list[str]) -> int:
    with open(os.path.join(ROOT, 'BENCHMARK.json')) as fh:
        spec = json.load(fh)
    runs = int(argv[0]) if argv else 10
    names = argv[1:] or [w['name'] for w in spec['workloads']]
    out = {'run_seconds': spec['run_seconds'], 'runs': runs, 'workloads': {}}
    for name in names:
        plain = [run_once(spec, name, seed, 0) for seed in range(1, runs + 1)]
        traced = [run_once(spec, name, seed, 1) for seed in (1, 2)]
        e2e = {}
        for m in spec['end_to_end']:
            values = [r['result']['metrics'][m['name']]['value'] for r in plain]
            e2e[m['name']] = dict(summarize(values, m['bound']), unit=m['unit'])
            s = e2e[m['name']]
            print("%-12s %-12s median %.6g %s  q1 %.6g  q3 %.6g  spread %.4f (bound %.2f, third %.4f)%s"
                  % (name, m['name'], s['median'], m['unit'], s['q1'], s['q3'], s['spread'],
                     m['bound'], m['bound'] / 3, '' if s['within_third_of_bound'] else '  WIDE'),
                  flush=True)
        layers = {}
        for m in spec['per_layer']:
            values = [r['result']['metrics'][m['name']]['value'] for r in traced]
            if m['unit'] == 'count' and len(set(values)) > 1:
                raise RuntimeError("%s %s differs between traced runs: %r" % (name, m['name'], values))
            layers[m['name']] = {'values': values, 'unit': m['unit']}
        out['workloads'][name] = {
            'end_to_end': e2e,
            'per_layer': layers,
            'attempted': [r['result']['attempted'] for r in plain],
            'env': [r['env'] for r in plain + traced],
        }
    if sorted(names) == sorted(w['name'] for w in spec['workloads']):
        out['census_k3_traced_once'] = census_layers(spec)
        with open(os.path.join(HERE, 'baseline.json'), 'w') as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write('\n')
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))

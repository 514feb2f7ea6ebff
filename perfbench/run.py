"""Benchmark of the kneser-morse verifier.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: operations run one at a
time, each in a fresh worker process (``worker.py``), and a new one starts
while fewer than S seconds have passed.  A CLI run pays the ``lru_cache``
fills of ``graphs.graph``, ``complexes.complex_for``, ``wedge._filtration``
and the collapse tables every time, so every operation starts cold, and a
memoisation inside the program cannot pass for a gain across repeated
in-process calls.  This process plus one worker keep the load within two
cores.  The seed reaches the program only as the CLI's ``--seed``.

Workloads, and why each is here:

* ``collapse_k2``  ``verify theorem2 --k 2``: the tuple-face path through
  ``complexes``, ``collapse`` (classify, A/B/C fibers) and ``morse``.  No
  ``homology`` and no ``wedge`` bitmask families: the control for both.
* ``snf_k2``  ``verify theorem3 --k 2 --depth full-snf``: the exact SNF
  cross-checks (most of the time is ``homology``, two thirds of that the
  mod-p rechecks), plus the k = 2 census, which verifies every rotated family
  in full and composes both layers with ``_compose_layer``.
* ``family_k3``  ``wedge.matching_P(3, 1, 4)``, a library entry point: one
  base family of the k = 3 census, 1,042,576 bitmask faces over a 2^20-entry
  subset table, with ``morse`` on int masks.  The six base families are what
  the k = 3 census costs once its sampled rotation audits are gone.  No CLI
  command runs less than the whole census at k = 3.
* ``census_k3``  ``verify theorem3 --k 3``: the whole census, 60-80 s per
  operation, longer than a whole run of the others, so ``BENCHMARK.json``
  does not list it; run it by hand with ``--seconds 1``.

With ``--trace 0`` the last line reports ``setup_s`` (median time from
worker spawn until ``kneser_morse.cli`` is imported, over the operations and
``SETUP_PROBES`` import-only workers), ``verify_s`` (median wall time of one
operation) and ``peak_rss_mb`` (median ``ru_maxrss`` of the workers).  With
``--trace 1`` the first operation runs untraced and the rest traced by
``layers.Tracer``; the last line reports the per-layer metrics of
``BENCHMARK.json`` (times as medians over the traced operations, counters
exactly, since they must repeat) and ``trace.overhead_pct``, the traced
operation's time over the untraced one.  The lines before it print every
metric with its unit and sample count, ``fail_rate``, the unscaled wall
time, and the run environment (Python, CPU count and model, load average at
start and end).

Every time is scaled to a reference machine speed.  On the shared machine
this was written on, the CPU time of one ``snf_k2`` operation ranged from
4.3 to 7.9 s within a minute, and a small fixed kernel slowed down with it.
The worker times that kernel next to the set-up and throughout the
operation (see ``worker.py``), and a time t measured while the kernel took
k seconds on average is reported as t * REFERENCE_KERNEL_S / k.  Over nine
fresh operations of each workload this cut the spread (quartile distance
over median) of the operation time from 17-38% to 7%.

Every operation's output is checked against the constants in ``EXPECTED``,
which are held here and never read back from the program.  An operation
fails on a worker error, an exception, a non-zero exit, any ``pass: false``
or a number that differs from those constants.  A run is ``correct`` when no
operation failed, every operation gave the same output, traced counters
repeated exactly and the layer-isolation check held.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, 'src')
WORKER = os.path.join(ROOT, 'perfbench', 'worker.py')
HARD_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_PROBES = 5
# Reported times are scaled to the machine speed at which worker.kernel()
# takes this long: its quiet speed on the 2-vCPU Xeon this was written on,
# where the kernel takes 0.10 ms when the neighbours are idle and 0.16-0.20
# ms when they are busy.
REFERENCE_KERNEL_S = 0.0001

# Constants of the paper at the parameters measured; an operation whose
# output differs from them is a failed operation.
EXPECTED = {
    'theorem2': {2: {'cells': 15966, 'pairs': 7872, 'critical': 222}},
    'theorem3': {
        2: {'extra_k_cells': 240, 'extra_km1_cells': 60, 'predicted_t': 181,
            'p_rows': 40, 'q_rows': 20, 'per_p': 6, 'per_q': 3,
            'betti': [0, 0, 181, 0], 'top': [0, 0, 240, 0], 'mid': [0, 60, 0]},
        3: {'extra_k_cells': 540, 'extra_km1_cells': 162, 'predicted_t': 379,
            'p_rows': 54, 'q_rows': 27, 'per_p': 10, 'per_q': 6},
    },
    'family': {(3, 1, 4): {'faces': 1042576, 'pairs': 521283, 'critical': 10,
                           'critical_sizes': [4]}},
}


def _cli(*argv):
    return lambda seed: {'op': 'cli', 'argv': list(argv) + ['--format', 'json', '--seed', str(seed)]}


def _family(k, i, j):
    return lambda seed: {'op': 'family', 'args': [k, i, j]}


# ------------------------------------------------------------------ oracle

def _report_problems(out: dict, seed: int, k: int) -> tuple[list[str], dict]:
    problems = []
    if out.get('rc') != 0:
        problems.append("exit code %r" % (out.get('rc'),))
    report = out.get('report') or {}
    if report.get('seed') != seed or report.get('k') != k or report.get('command') != 'verify':
        problems.append("report header %r" % ({key: report.get(key) for key in ('command', 'k', 'seed')},))
    results = {r['name']: r for r in report.get('results', [])}
    problems += ["%s: pass false" % name for name, r in results.items() if not r['pass']]
    return problems, results


def _mismatch(what: str, got, want) -> list[str]:
    return [] if got == want else ["%s is %r, expected %r" % (what, got, want)]


def check_theorem2(out: dict, seed: int, k: int, expected: dict) -> list[str]:
    problems, results = _report_problems(out, seed, k)
    want = expected['theorem2'][k]
    detail = results.get('theorem2-collapse', {}).get('detail', {})
    for key in ('cells', 'pairs', 'critical'):
        problems += _mismatch("theorem2 %s" % key, detail.get(key), want[key])
    return problems


def check_theorem3(out: dict, seed: int, k: int, expected: dict) -> list[str]:
    problems, results = _report_problems(out, seed, k)
    want = expected['theorem3'][k]
    detail = results.get('theorem3-census', {}).get('detail', {})
    for key in ('extra_k_cells', 'extra_km1_cells', 'predicted_t'):
        problems += _mismatch(key, detail.get(key), want[key])
    rows = detail.get('rows') or []
    for fam, count, per, dim in (('P', want['p_rows'], want['per_p'], k),
                                 ('Q', want['q_rows'], want['per_q'], k - 1)):
        got = [r for r in rows if r[0] == fam]
        problems += _mismatch("%s rows" % fam, len(got), count)
        bad = [r for r in got if r[4] != per or r[5] != dim]
        problems += _mismatch("%s rows off (critical %d, dim %d)" % (fam, per, dim), bad, [])
    for name, key in (('theorem3-betti', 'betti'), ('theorem3-relative-top', 'top'),
                      ('theorem3-relative-mid', 'mid')):
        if key in want:
            got = results.get(name, {}).get('detail', {}).get('numbers')
            problems += _mismatch(name, got, want[key])
    return problems


def check_family(out: dict, seed: int, key: tuple, expected: dict) -> list[str]:
    want = expected['family'][key]
    problems = []
    for name in ('faces', 'pairs', 'critical', 'critical_sizes'):
        problems += _mismatch("family %r %s" % (key, name), out.get(name), want[name])
    return problems


class Workload:
    def __init__(self, spec, check, isolated=()):
        self.spec = spec          # seed -> worker spec
        self.check = check        # (output, seed, expected) -> problems
        self.isolated = isolated  # metric prefixes whose calls must stay 0


WORKLOADS = {
    'collapse_k2': Workload(_cli('verify', 'theorem2', '--k', '2'),
                            lambda out, seed, exp: check_theorem2(out, seed, 2, exp),
                            isolated=('homology.',)),
    'snf_k2': Workload(_cli('verify', 'theorem3', '--k', '2', '--depth', 'full-snf'),
                       lambda out, seed, exp: check_theorem3(out, seed, 2, exp)),
    'family_k3': Workload(_family(3, 1, 4),
                          lambda out, seed, exp: check_family(out, seed, (3, 1, 4), exp),
                          isolated=('homology.', 'collapse.matching_')),
    'census_k3': Workload(_cli('verify', 'theorem3', '--k', '3'),
                          lambda out, seed, exp: check_theorem3(out, seed, 3, exp),
                          isolated=('homology.', 'collapse.matching_')),
}


def isolation_problems(workload: Workload, layers: dict) -> list[str]:
    return ["%s = %d, but this workload is the control for that layer" % (name, n)
            for name, n in sorted(layers.items())
            if name.endswith('.calls') and n and name.startswith(workload.isolated)]


# ------------------------------------------------------------------ workers

def _worker_env() -> dict:
    env = {key: val for key, val in os.environ.items() if not key.startswith('PYTHON')}
    env['PYTHONHASHSEED'] = '0'  # the same set orders, so counters repeat exactly
    return env


def spawn(spec: dict, deadline: float) -> dict:
    """Run one worker; returns its JSON line, or an error.

    Adds the set-up time and, for an operation, its wall time, both scaled
    to the reference speed by the kernel times the worker measured next to
    them: ``setup_s`` and ``verify_s``.
    """
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, '-s', WORKER, SRC, json.dumps(spec)], env=_worker_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        return {'error': "worker killed after %.0f s" % (time.monotonic() - t0)}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ['no output']
        return {'error': "worker exit %d: %s" % (proc.returncode, tail[0])}
    out = json.loads(lines[-1])
    out['setup_s'] = (out['ready'] - t0) * REFERENCE_KERNEL_S / out['setup_kernel_s']
    if 'kernel_s' in out:
        out['scale'] = REFERENCE_KERNEL_S / out['kernel_s']
    if 'wall_s' in out:
        out['verify_s'] = out['wall_s'] * out['scale']
    return out


def _output_key(output) -> str:
    if isinstance(output, dict) and isinstance(output.get('report'), dict):
        output = dict(output, report={key: val for key, val in output['report'].items()
                                      if key != 'elapsed_ms'})
    return json.dumps(output, sort_keys=True)


def _read_loadavg() -> str:
    try:
        with open('/proc/loadavg') as fh:
            return ' '.join(fh.read().split()[:3])
    except OSError:
        return 'unavailable'


def _cpu_model() -> str:
    try:
        with open('/proc/cpuinfo') as fh:
            for line in fh:
                if line.startswith('model name'):
                    return line.split(':', 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or 'unknown'


# ------------------------------------------------------------------ a run

def measure(name: str, seed: int, seconds: float, trace: bool,
            expected: dict = EXPECTED) -> dict:
    """One benchmark run; returns samples, problems and the environment."""
    workload = WORKLOADS[name]
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    env = {'python': platform.python_version(), 'nproc': os.cpu_count(),
           'cpu': _cpu_model(), 'loadavg_start': _read_loadavg()}
    problems: list[str] = []
    spawn({'op': 'import'}, deadline)  # writes the bytecode caches; untimed
    setup: list[float] = []
    if not trace:
        for _ in range(SETUP_PROBES):
            out = spawn({'op': 'import'}, deadline)
            if 'error' in out:
                problems.append("import probe: %s" % out['error'])
            else:
                setup.append(out['setup_s'])
    ops: list[dict] = []
    # a traced run starts with the untraced base of the overhead, then traces
    # at least one operation
    while len(ops) < 1 + trace or (time.monotonic() - start < seconds
                                   and time.monotonic() < deadline - 1):
        spec = dict(workload.spec(seed), trace=bool(trace and ops))
        out = spawn(spec, deadline)
        errors = [out['error']] if 'error' in out else workload.check(out['output'], seed, expected)
        if 'setup_s' in out:
            setup.append(out['setup_s'])
        if trace and spec['trace'] and 'layers' in out:
            errors += isolation_problems(workload, out['layers'])
        out['problems'] = errors
        out['traced'] = spec['trace']
        ops.append(out)
    failed = sum(1 for op in ops if op['problems'])
    problems += ["operation %d: %s" % (n, '; '.join(op['problems']))
                 for n, op in enumerate(ops) if op['problems']]
    if len({_output_key(op.get('output')) for op in ops if not op['problems']}) > 1:
        problems.append("operations of one run gave different outputs")
    env['loadavg_end'] = _read_loadavg()
    return {'workload': name, 'seed': seed, 'trace': bool(trace), 'ops': ops,
            'setup': setup, 'failed': failed, 'problems': problems, 'env': env}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float('nan')


def end_to_end(run: dict) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, samples) for the untraced run."""
    times = [op['verify_s'] for op in run['ops'] if 'verify_s' in op]
    rss = [op['maxrss_kb'] / 1024 for op in run['ops'] if 'maxrss_kb' in op]
    return {'setup_s': (_median(run['setup']), 's', len(run['setup'])),
            'verify_s': (_median(times), 's', len(times)),
            'peak_rss_mb': (_median(rss), 'MB', len(rss))}


def per_layer(run: dict, wanted: dict[str, str]) -> tuple[dict, list[str]]:
    """name -> (value, unit, samples) for the traced run, plus problems."""
    base = [op['verify_s'] for op in run['ops'] if not op['traced'] and 'verify_s' in op]
    traced = [op for op in run['ops'] if op['traced'] and 'layers' in op]
    problems = []
    out = {}
    for name, unit in wanted.items():
        if name == 'trace.overhead_pct':
            times = [op['verify_s'] for op in traced if 'verify_s' in op]
            out[name] = (100.0 * (_median(times) / _median(base) - 1.0), unit, len(times))
            continue
        values = [op['layers'][name] for op in traced if name in op['layers']]
        if len(values) != len(traced) or not values:
            problems.append("the tracer does not produce %s" % name)
            out[name] = (float('nan'), unit, 0)
        elif unit == 's':
            scaled = [v * op['scale'] for v, op in zip(values, traced)]
            out[name] = (_median(scaled), unit, len(values))
        else:
            if len(set(values)) > 1:
                problems.append("%s differs between traced operations: %r" % (name, values))
            out[name] = (values[0], unit, len(values))
    return out, problems


def _percentile_line(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return ""
    pct = 100 * (n - 10) // n
    return ", p%d %.4f s" % (pct, sorted(values)[n - 11])


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Benchmark one kneser-morse workload.")
    p.add_argument('--workload', required=True, choices=sorted(WORKLOADS))
    p.add_argument('--seed', type=int, required=True)
    p.add_argument('--seconds', type=float, required=True)
    p.add_argument('--trace', type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    spec_path = os.path.join(ROOT, 'BENCHMARK.json')
    if not os.path.isfile(os.path.join(SRC, 'kneser_morse', 'cli.py')) or not os.path.isfile(spec_path):
        print("no kneser_morse sources under %s; run from the root of a checkout" % SRC,
              file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)

    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    problems = list(run['problems'])
    if args.trace:
        wanted = {m['name']: m['unit'] for m in spec['per_layer']}
        metrics, more = per_layer(run, wanted)
        problems += more
    else:
        metrics = end_to_end(run)
        missing = {m['name'] for m in spec['end_to_end']} - set(metrics)
        problems += ["no end-to-end metric %s" % name for name in sorted(missing)]
    attempted = len(run['ops'])

    print("# kneser-morse benchmark: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# env %s" % json.dumps(run['env'], sort_keys=True))
    for name, (value, unit, n) in metrics.items():
        extra = ""
        if name == 'verify_s':
            extra = _percentile_line([op['verify_s'] for op in run['ops'] if 'verify_s' in op])
            extra += "; unscaled wall %.4f s, kernel %.6f s" % (
                _median([op['wall_s'] for op in run['ops'] if 'wall_s' in op]),
                _median([op['kernel_s'] for op in run['ops'] if 'kernel_s' in op]))
        shown = "%d" % value if isinstance(value, int) else "%.6g" % value
        print("# %-44s %14s %-5s (%d samples%s)" % (name, shown, unit, n, extra))
    print("# %-44s %14.6g %-5s (%d failed of %d operations)"
          % ('fail_rate', run['failed'] / attempted, 'ratio', run['failed'], attempted))
    for line in problems:
        print("# problem: %s" % line)
    print(json.dumps({
        'correct': not problems,
        'attempted': attempted,
        'failed': run['failed'],
        # a metric that could not be measured is already a problem above
        'metrics': {name: {'value': 0.0 if value != value else value, 'unit': unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == '__main__':
    sys.exit(main())

"""One benchmark operation in a fresh interpreter.

Usage: python3 -s perfbench/worker.py SRC_DIR SPEC_JSON

SPEC_JSON is {"op": "import"}, {"op": "cli", "argv": [...]} or
{"op": "family", "args": [k, i, j]}, with an optional "trace": true.  The
worker imports kneser_morse from SRC_DIR first, so the time from its spawn to
``ready`` is the set-up a user pays on every CLI run.  It then runs the
operation once and prints one JSON line with the monotonic ``ready`` stamp,
the operation's wall time, ``ru_maxrss``, the operation's output (the CLI
report, or the sizes of the family matching) and, when traced, the per-layer
metrics.  The CLI's own stdout is captured, so the JSON line is the only
output.

The speed of the shared machine this benchmark was written on swings by a
factor of up to two within seconds, so the worker also times a fixed kernel:
``PROBE_REPS`` times right after the import, and every ``SAMPLE_EVERY_S``
seconds during the operation, from a SIGALRM handler on the same core.  The
median probe and the trimmed mean sample tell the caller how fast the
machine ran while the set-up and the operation did.  The samples cost about
1% of the operation; in a traced operation that time is counted in whichever
span was open.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import kneser_morse.cli  # noqa: E402  (every layer, as the console script loads it)

READY = time.monotonic()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

PROBE_REPS = 30
SAMPLE_EVERY_S = 0.025


def kernel() -> int:
    """Fixed work of the kind the layers do: small tuples, sorting, dict and
    set updates.  Everything it allocates is freed when it returns."""
    d = {}
    for i in range(150):
        t = tuple(sorted((i % 17, i % 13, i % 11)))
        d[t] = d.get(t, 0) + 1
        s = {t, (i,)}
        if (i, i) in s:
            d[t] += 1
    return len(d)


def time_kernel() -> float:
    """Kernel wall time, with the collector off so that a collection of the
    operation's heap never lands inside it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Times the kernel on every SIGALRM while the operation runs."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(time_kernel())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.samples:  # an operation shorter than one interval
            self.samples.append(time_kernel())

    def speed(self) -> float:
        """Mean kernel time without the slowest and fastest tenth: an
        interrupt inside one 0.1 ms kernel would otherwise weigh as much as
        a slow second of the operation."""
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        kept = ordered[cut:len(ordered) - cut]
        return sum(kept) / len(kept)


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = kneser_morse.cli.main(list(argv))
    text = buf.getvalue()
    return {'rc': rc, 'report': json.loads(text) if text.strip() else None}


def _run_family(args):
    from kneser_morse import wedge
    fm = wedge.matching_P(*args)
    return {'faces': len(fm.faces), 'pairs': len(fm.pairs),
            'critical': len(fm.critical),
            'critical_sizes': sorted({len(c) for c in fm.decoded_critical()})}


def main() -> int:
    spec = json.loads(sys.argv[2])
    src = os.path.realpath(sys.argv[1])
    probe = sorted(time_kernel() for _ in range(PROBE_REPS))
    out = {'ready': READY, 'setup_kernel_s': probe[PROBE_REPS // 2]}
    if not os.path.realpath(kneser_morse.cli.__file__).startswith(src + os.sep):
        out['error'] = "kneser_morse imported from %s, not %s" % (kneser_morse.cli.__file__, src)
    elif spec['op'] != 'import':
        tracer = None
        if spec.get('trace'):
            from layers import Tracer
            tracer = Tracer()
            tracer.install()
        sampler = SpeedSampler()
        try:
            with sampler:
                t0 = time.perf_counter()
                if spec['op'] == 'cli':
                    out['output'] = _run_cli(spec['argv'])
                else:
                    out['output'] = _run_family(spec['args'])
                out['wall_s'] = time.perf_counter() - t0
        except Exception as e:  # counted as a failed operation by the caller
            out['error'] = "%s: %s" % (type(e).__name__, e)
        finally:
            if tracer is not None:
                tracer.restore()
        out['kernel_s'] = sampler.speed()
        out['kernel_samples'] = len(sampler.samples)
        if tracer is not None:
            out['layers'] = tracer.metrics()
        out['maxrss_kb'] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == '__main__':
    sys.exit(main())

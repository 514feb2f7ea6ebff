"""Command line driver: build complexes, verify matchings, compute homology.

Three subcommands.  ``build`` prints size and maximal-face data for one
neighborhood complex.  ``verify`` runs the named verification target and
reports one pass/fail result per check; the process exits 0 iff every
check passed, and on failure the first line written to standard error
names the failing check.  ``betti`` prints a reduced Betti table from
the exact homology oracle.

Reports carry {command, k, results, seed, elapsed_ms}; everything except
elapsed_ms is byte-deterministic for a fixed (command, k, format, seed).
``--depth counts`` runs the formulas only, ``acyclicity`` adds the census
and matching checks, ``full-snf`` the exact homology cross-checks.  At
``full-snf`` one forked child runs the census and then the top and middle
relative steps while the process ranks ``kg``; the census's result fills
the process's memo, so ``verify all`` still runs one census, and a failure
is reported as in a run of the four in turn: the census's first, then
``kg``'s, then a relative step's.  The
table ``VERIFY`` gives each verify target the depths it reads and its
default k cap at each, ``CAPS`` the caps of build and betti, both restated
in README's "Size caps"; --allow-large lifts the caps for anyone with time
to spare.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time

from . import collapse, graphs, wedge
from .complexes import complex_for
from .homology import betti, relative_betti

KINDS = ('kg', 's', 'sg')


class Refusal(RuntimeError):
    """A parameter outside the default caps without --allow-large."""


def _check_cap(name: str, k: int, cap: int, allow_large: bool) -> None:
    if k > cap and not allow_large:
        raise Refusal(
            "%s refused at k=%d: the default cap is k <= %d because the face "
            "families grow combinatorially; pass --allow-large to run anyway"
            % (name, k, cap))


def _result(name: str, k: int, passed: bool, **detail) -> dict:
    return {'name': name, 'k': k, 'pass': bool(passed), 'detail': detail}


# ---------------------------------------------------------------- build

def cmd_build(args) -> tuple[list[dict], bool]:
    _check_cap("build %s" % args.kind, args.k, CAPS['build'], args.allow_large)
    g = graphs.graph(args.kind, args.k)
    cx = complex_for(args.kind, args.k)
    sizes: dict[int, int] = {}
    for m in cx.maximal:
        sizes[m.bit_count()] = sizes.get(m.bit_count(), 0) + 1
    res = _result(
        'build-%s' % args.kind, args.k, True,
        vertices=len(g.verts),
        edges=sum(1 for _ in g.edges()),
        maximal_faces=len(cx.maximal),
        dim=cx.dim(),
        maximal_by_size={str(s): c for s, c in sorted(sizes.items())},
    )
    return [res], True


# ---------------------------------------------------------------- verify

def _censused(k: int, depth: str) -> bool:
    """Whether a run censuses: ``--depth counts`` asks for the formulas
    alone, any other depth censuses up to the census cap."""
    return depth != 'counts' and k <= wedge.CENSUS_CAP


def _theorem3_name(censused: bool) -> str:
    return 'theorem3-census' if censused else 'theorem3-formula'


def _census_once(k: int, depth: str):
    """``wedge.theorem3_counts`` at k, run at most once per invocation,
    failures included, so the targets of ``verify all`` share one census and
    all fail with its error if it raises.  ``counts_of(outcome)`` takes the
    (counts, error) outcome of a census run elsewhere, the forked child of
    the full-snf checks, in place of running one here."""
    memo: list = []

    def counts_of(outcome: tuple | None = None) -> dict:
        if not memo:
            if outcome is None:
                try:
                    outcome = (wedge.theorem3_counts(k, census=_censused(k, depth)), None)
                except Exception as e:
                    outcome = (None, e)
            memo.append(outcome)
        return _settled(memo[0])

    return counts_of


def _settled(outcome: tuple):
    """The value of a (value, error) outcome, or its error raised."""
    value, err = outcome
    if err is not None:
        raise err
    return value


def _verify_theorem2(name: str, k: int, depth: str, counts_of) -> list[dict]:
    report = collapse.theorem2_matching(k)  # raises on any failed check
    recs = [{'lemma': r.lemma, 'fiber': r.fiber, 'cells': r.cells, 'pairs': r.pairs,
             'acyclic': r.acyclic, 'perfect': r.perfect,
             'critical_count': r.critical_count} for r in report.records]
    total = report.records[-1]  # the whole-complex record
    return [_result('theorem2-collapse', k, True, cells=total.cells, pairs=total.pairs,
                    critical=len(report.critical), poset_map_route=report.poset_map_route,
                    partition_route=report.partition_route, records=recs)]


def _verify_theorem3(name: str, k: int, depth: str, counts_of) -> list[dict]:
    snf = _full_snf(k, counts_of) if depth == 'full-snf' else None
    counts = counts_of()
    out = [_result(_theorem3_name(counts['censused']), k, True,
                   extra_k_cells=counts['extra_k_cells'],
                   extra_km1_cells=counts['extra_km1_cells'],
                   predicted_t=counts['predicted_t'],
                   censused=counts['censused'],
                   **({'union_route': counts['union_route']} if counts['censused'] else {}),
                   families=len(counts['rows']) or None,
                   rows=[list(r) for r in counts['rows']])]
    if snf:
        kg, (top, mid) = snf
        t = counts['predicted_t']
        want = tuple(t if d == k else 0 for d in range(k + 2))
        out.append(_result('theorem3-betti', k, kg == want, numbers=list(kg), wanted=list(want)))
        wt = tuple(counts['extra_k_cells'] if d == k else 0 for d in range(k + 2))
        out.append(_result('theorem3-relative-top', k, top == wt, numbers=list(top), wanted=list(wt)))
        wm = tuple(counts['extra_km1_cells'] if d == k - 1 else 0 for d in range(max(k, 1) + 1))
        out.append(_result('theorem3-relative-mid', k, mid == wm, numbers=list(mid), wanted=list(wm)))
    return out


def _full_snf(k: int, counts_of) -> tuple:
    """The Betti numbers of ``kg`` and of the top and middle relative steps.

    ``kg``'s bands 0..k+2 are listed here, so both sides of the fork read
    them; then one forked child runs the census and the two relative steps,
    in that order, while this process ranks ``kg``, and the child's census
    fills the memo of ``counts_of``.  Errors are raised as in a run of the
    four in turn: the census's, then ``kg``'s, then a relative step's."""
    cx = complex_for('kg', k)  # level 3 of the filtration, so the child reads it too
    for d in range(k + 3):
        cx.faces(d)
    kg, census, steps = _beside(lambda: betti(cx, max_dim=k + 1).numbers, counts_of, lambda: (
        relative_betti(wedge.filtration(k, 3), wedge.filtration(k, 2), max_dim=k + 1).numbers,
        relative_betti(wedge.filtration(k, 2), wedge.filtration(k, 1), max_dim=max(k, 1)).numbers))
    counts_of(census)
    return _settled(kg), _settled(steps)


def _beside(mine, *theirs) -> tuple:
    """The outcomes of ``mine``, run in this process, and of each of
    ``theirs``, run in turn in one forked child meanwhile; an outcome is
    (value, None), or (None, exception) for a call that raised.

    The child stops at the first call that raises.  It sends each outcome
    over a pipe with ``marshal`` as soon as it has it, an exception as its
    type name and text, and always ends with ``os._exit``, so it flushes
    none of this process's buffers.  Here an exception of the child is
    rebuilt under its type name with its text, so ``_run`` reports it as if
    it had been raised in this process.  A call the child did not report
    reads as the error that stopped the child: the exception of an earlier
    call, or a ``RuntimeError`` when the child sent nothing more.  The child
    is reaped on every path."""
    import marshal
    import os
    r, w = os.pipe()
    pid = os.fork()
    if not pid:
        try:
            os.close(r)
            with os.fdopen(w, 'wb') as fh:
                for call in theirs:
                    try:
                        fh.write(marshal.dumps((True, call())))
                    except Exception as e:
                        fh.write(marshal.dumps((False, (type(e).__name__, str(e)))))
                        break
                    fh.flush()
        finally:
            os._exit(0)
    os.close(w)
    try:
        with os.fdopen(r, 'rb') as fh:
            try:
                here = (mine(), None)
            except Exception as e:
                here = (None, e)
            data = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    sent, stream = [], io.BytesIO(data)
    while stream.tell() < len(data):
        ok, value = marshal.load(stream)
        sent.append((value, None) if ok else (None, type(value[0], (Exception,), {})(value[1])))
    if len(sent) < len(theirs):
        stop = sent[-1][1] if sent and sent[-1][1] else RuntimeError(
            "the forked child sent no result and exited with code %d"
            % os.waitstatus_to_exitcode(status))
        sent += [(None, stop)] * (len(theirs) - len(sent))
    return (here, *sent)


def _verify_records(lemma: str, k: int, depth: str, counts_of) -> list[dict]:
    out = [_result(lemma, k, True, fiber=r.fiber, cells=r.cells, pairs=r.pairs,
                   critical=r.critical_count)
           for r in collapse.theorem2_matching(k).records if r.lemma == lemma]
    if not out:  # no face classifies into this kind at k: vacuously true
        out.append(_result(lemma, k, True, fibers=0))
    return out


def _verify_filtration(name: str, k: int, depth: str, counts_of) -> list[dict]:
    stages = [wedge.filtration(k, lv).all_faces() for lv in range(4)]
    nested = stages[0] <= stages[1] <= stages[2] <= stages[3]
    return [_result('filtration-nesting', k, nested,
                    sizes=[len(s) for s in stages])]


def _verify_families(name: str, k: int, depth: str, counts_of) -> list[dict]:
    """One layer's families and survivor total, censused or from the
    formulas: (k+3)(k+6) three-element and half as many four-element
    families, so a run that does not census reads no missed-set lattice."""
    kind, cells, per = ('P', 'k_cells', 1) if name == 'p-families' else ('Q', 'km1_cells', 2)
    counts = counts_of()
    if counts['censused']:
        families = sum(1 for row in counts['rows'] if row[0] == kind)
        total = counts['observed_' + cells]
    else:
        families, total = (k + 3) * (k + 6) // per, counts['extra_' + cells]
    return [_result(name, k, True, families=families, critical_total=total,
                    censused=counts['censused'])]


def _verify_all(name: str, k: int, depth: str, counts_of) -> list[dict]:
    return [r for member in ALL for r in _run(member, k, depth, counts_of)]


# Each verify target: its runner and {depth it reads: default k cap}.  A depth
# missing from a row is refused at every k; --allow-large lifts the caps.  The
# census stops at its scan budget and the formulas at k = 5.  Theorem 2, the
# exact homology and the targets that expand the mixed complex or the
# filtration stages face by face stop at k = 2, short of the powerset guard
# of ``all_faces``.  ``build`` and ``betti`` read no depth and have one cap
# each.  README's "Size caps" table restates these rows.
VERIFY = {
    'theorem2': (_verify_theorem2, {'acyclicity': 2}),
    'theorem3': (_verify_theorem3, {'counts': 5, 'acyclicity': wedge.CENSUS_CAP,
                                    'full-snf': 2}),
    'all': (_verify_all, {'counts': 2, 'acyclicity': 2, 'full-snf': 2}),
    'filtration-nesting': (_verify_filtration, {'acyclicity': 2}),
    'p-families': (_verify_families, {'counts': 5, 'acyclicity': wedge.CENSUS_CAP}),
    'q-families': (_verify_families, {'counts': 5, 'acyclicity': wedge.CENSUS_CAP}),
    'sg-matching': (_verify_records, {'acyclicity': 2}),
    'a-matching': (_verify_records, {'acyclicity': 2}),
    'b-matching': (_verify_records, {'acyclicity': 2}),
    'c-matching': (_verify_records, {'acyclicity': 2}),
    's3k-collapse': (_verify_records, {'acyclicity': 2}),
}
CAPS = {'build': 5, 'betti': 2}
ALL = ('theorem2', 'theorem3', 'filtration-nesting', 'p-families', 'q-families')
TARGETS = ('theorem2', 'theorem3', 'lemma', 'all')
LEMMAS = sorted(set(VERIFY) - set(TARGETS))  # the names verify lemma takes


def _run(name: str, k: int, depth: str, counts_of) -> list[dict]:
    try:
        return VERIFY[name][0](name, k, depth, counts_of)
    except Exception as e:  # a failed check, not a crash of the driver
        # a theorem target fails under the name its pass would carry
        failed = {'theorem2': 'theorem2-collapse',
                  'theorem3': _theorem3_name(_censused(k, depth))}.get(name, name)
        return [_result(failed, k, False, error="%s: %s" % (type(e).__name__, e))]


def cmd_verify(args) -> tuple[list[dict], bool]:
    name = args.lemma if args.target == 'lemma' else args.target
    if name is None:
        raise Refusal("verify lemma needs --lemma; known names: %s" % ", ".join(LEMMAS))
    label = "verify %s%s" % ("lemma " if args.target == 'lemma' else "", name)
    caps = VERIFY[name][1]
    if args.depth not in caps:
        raise Refusal("%s refused at --depth %s: this target reads only --depth %s"
                      % (label, args.depth, " or ".join(caps)))
    _check_cap(label, args.k, caps[args.depth], args.allow_large)
    results = _run(name, args.k, args.depth, _census_once(args.k, args.depth))
    return results, all(r['pass'] for r in results)


# ---------------------------------------------------------------- betti

def cmd_betti(args) -> tuple[list[dict], bool]:
    if args.max_dim is not None and args.max_dim < 0:
        raise Refusal("--max-dim must be nonnegative, got %d" % args.max_dim)
    _check_cap("betti %s" % args.kind, args.k, CAPS['betti'], args.allow_large)
    max_dim = args.max_dim if args.max_dim is not None else args.k + 1
    b = betti(complex_for(args.kind, args.k), max_dim=max_dim)
    res = _result('betti-%s' % args.kind, args.k, True,
                  numbers=list(b.numbers),
                  torsion=[list(t) for t in b.torsion],
                  cells=list(b.cells), reduced=b.reduced)
    return [res], True


# ---------------------------------------------------------------- output

def _render_text(report: dict, ok: bool) -> str:
    lines = []
    head = "ok" if ok else "FAIL %s" % next(
        r['name'] for r in report['results'] if not r['pass'])
    lines.append("%s %s k=%d seed=%d elapsed_ms=%d"
                 % (head, report['command'], report['k'], report['seed'],
                    report['elapsed_ms']))
    for r in report['results']:
        bits = " ".join("%s=%s" % (key, _short(val))
                        for key, val in r['detail'].items())
        lines.append("  %s %s %s" % ("pass" if r['pass'] else "FAIL", r['name'], bits))
    return "\n".join(lines) + "\n"


def _short(val) -> str:
    s = json.dumps(val, separators=(",", ":"), sort_keys=True) \
        if isinstance(val, (dict, list)) else str(val)
    return s if len(s) <= 120 else s[:117] + "..."


def _render_csv(report: dict) -> str:
    import csv  # loaded only for --format csv

    buf = io.StringIO()
    w = csv.writer(buf)
    results = report['results']
    # the family table stands for the census only when nothing else is reported
    rows = results[0]['detail'].get('rows') if len(results) == 1 else None
    if rows:
        w.writerow(['k', 'family', 'i', 'j', 'cells', 'critical', 'dim'])
        for fam, i, j, cells, critical, dim in rows:
            w.writerow([report['k'], fam, i, j, cells, critical, dim])
    elif report['command'] == 'betti':
        w.writerow(['dim', 'betti', 'torsion'])
        det = results[0]['detail']
        for d, n in enumerate(det['numbers']):
            w.writerow([d, n, ";".join(map(str, det['torsion'][d]))])
    else:
        w.writerow(['name', 'k', 'pass', 'detail'])
        for r in results:
            w.writerow([r['name'], r['k'], int(r['pass']),
                        json.dumps(r['detail'], sort_keys=True)])
    return buf.getvalue()


def _emit(report: dict, ok: bool, args) -> None:
    if args.format == 'json':
        text = json.dumps(report, indent=2) + "\n"
    elif args.format == 'csv':
        text = _render_csv(report)
    else:
        text = _render_text(report, ok)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if not ok:
        first = next(r['name'] for r in report['results'] if not r['pass'])
        print("FAIL %s" % first, file=sys.stderr)


# ---------------------------------------------------------------- driver

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kneser-morse",
        description="Build, verify and measure the triple-graph neighborhood complexes.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, kind=False):
        sp.add_argument("--k", type=int, required=True, help="ground set is 1..k+6")
        if kind:
            sp.add_argument("--kind", choices=KINDS, default="kg",
                            help="kg: all triples; s: mixed edges; sg: stable only")
        sp.add_argument("--format", choices=("json", "csv", "text"), default="text")
        sp.add_argument("--seed", type=int, default=0,
                        help="echoed in the report; no check consumes it")
        sp.add_argument("--allow-large", action="store_true",
                        help="lift the default k caps")
        sp.add_argument("--out", metavar="PATH", default=None,
                        help="write the report here instead of stdout")

    sp = sub.add_parser("build", help="sizes and maximal faces of one complex")
    common(sp, kind=True)
    sp.set_defaults(fn=cmd_build)

    sp = sub.add_parser("verify", help="run a verification target")
    sp.add_argument("target", choices=TARGETS)
    sp.add_argument("--lemma", choices=LEMMAS, default=None,
                    help="which named check to run (target 'lemma')")
    sp.add_argument("--depth", choices=("counts", "acyclicity", "full-snf"),
                    default="acyclicity",
                    help="counts: formulas only; acyclicity: adds the census "
                         "and matching checks (default); full-snf: adds the "
                         "exact homology cross-checks.  A target refuses a depth "
                         "it does not read (README, Size caps)")
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("betti", help="reduced Betti table of one complex")
    common(sp, kind=True)
    sp.add_argument("--max-dim", type=int, default=None,
                    help="highest dimension to report (default k+1)")
    sp.set_defaults(fn=cmd_betti)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.k < 0:
        print("refused: k must be nonnegative", file=sys.stderr)
        return 2
    t0 = time.monotonic()
    try:
        results, ok = args.fn(args)
    except Refusal as e:
        print("refused: %s" % e, file=sys.stderr)
        return 2
    report = {
        'command': args.command,
        'k': args.k,
        'results': results,
        'seed': args.seed,
        'elapsed_ms': int((time.monotonic() - t0) * 1000),
    }
    _emit(report, ok, args)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

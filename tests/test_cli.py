"""Driver behavior: exit codes, report formats, refusal caps."""

import csv
import io
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

from kneser_morse import cli, morse
from kneser_morse.cli import main
from kneser_morse.complexes import complex_for
from kneser_morse.homology import betti, relative_betti, relative_family
from kneser_morse.wedge import filtration

from test_homology import plant_facets


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_build_kg0(capsys):
    code, out, err = run(capsys, "build", "--k", "0", "--kind", "kg",
                         "--format", "json")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report['command'] == 'build' and report['k'] == 0
    detail = report['results'][0]['detail']
    assert detail['vertices'] == 20
    assert detail['edges'] == 10


def test_build_sg0(capsys):
    code, out, _ = run(capsys, "build", "--k", "0", "--kind", "sg",
                       "--format", "json")
    assert code == 0
    detail = json.loads(out)['results'][0]['detail']
    assert detail['vertices'] == 2 and detail['edges'] == 1


def test_report_schema(capsys):
    code, out, _ = run(capsys, "verify", "theorem2", "--k", "0",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {'command', 'k', 'results', 'seed', 'elapsed_ms'}
    for r in report['results']:
        assert set(r) >= {'name', 'k', 'pass'}
        assert r['pass'] is True


def test_verify_theorem2_text(capsys):
    code, out, err = run(capsys, "verify", "theorem2", "--k", "1")
    assert code == 0 and err == ""
    assert out.splitlines()[0].startswith("ok")


def test_verify_theorem3_counts(capsys):
    code, out, _ = run(capsys, "verify", "theorem3", "--k", "1",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    by_name = {r['name']: r for r in report['results']}
    census = by_name['theorem3-census']['detail']
    assert census['extra_k_cells'] == 84
    assert census['extra_km1_cells'] == 14
    assert census['predicted_t'] == 71
    assert census['families'] == 42
    assert sum(r[4] for r in census['rows'] if r[0] == 'P') == 84
    assert sum(r[4] for r in census['rows'] if r[0] == 'Q') == 14


def test_verify_full_snf(capsys):
    code, out, _ = run(capsys, "verify", "theorem3", "--k", "1",
                       "--depth", "full-snf", "--format", "json")
    assert code == 0
    names = {r['name'] for r in json.loads(out)['results']}
    assert {'theorem3-betti', 'theorem3-relative-top',
            'theorem3-relative-mid'} <= names


def test_betti_csv(capsys):
    code, out, _ = run(capsys, "betti", "--k", "0", "--kind", "kg",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "dim,betti,torsion"
    assert lines[1].startswith("0,19")


def test_census_csv_header(capsys):
    code, out, _ = run(capsys, "verify", "theorem3", "--k", "1",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,family,i,j,cells,critical,dim"
    assert len(lines) == 1 + 28 + 14


def test_multi_result_csv_lists_every_result(capsys):
    # the census rows stand for a report only when the census is its one
    # result; next to other results each keeps its line and pass value
    code, out, _ = run(capsys, "verify", "all", "--k", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ['name', 'k', 'pass', 'detail']
    assert [(name, k, ok) for name, k, ok, _ in rows[1:]] == [
        (name, '1', '1') for name in ('theorem2-collapse', 'theorem3-census',
                                      'filtration-nesting', 'p-families', 'q-families')]


def test_multi_result_csv_shows_a_failure_beside_the_census(monkeypatch, capsys):
    # a wrong Betti table next to a passing census reads as a failed row
    class Wrong:
        numbers = (0, 0, 0)

    monkeypatch.setattr(cli, "betti", lambda cx, max_dim: Wrong)
    code, out, _ = run(capsys, "verify", "theorem3", "--k", "1", "--depth", "full-snf",
                       "--format", "csv")
    assert code == 1
    passed = {name: ok for name, _, ok, _ in list(csv.reader(io.StringIO(out)))[1:]}
    assert passed == {'theorem3-census': '1', 'theorem3-betti': '0',
                      'theorem3-relative-top': '1', 'theorem3-relative-mid': '1'}


# modules that start-up need not load: dataclasses and what it pulls in,
# and csv, which only --format csv reads
STARTUP_UNNEEDED = ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'csv')
SRC = pathlib.Path(__file__).resolve().parent.parent / 'src'


def check_startup_modules(plant=""):
    """Import ``kneser_morse.cli`` in a fresh ``python -S`` and fail, naming
    them, if that adds any of ``STARTUP_UNNEEDED`` to ``sys.modules``.
    ``plant`` runs between the snapshot of ``sys.modules`` and the import."""
    probe = ("import json, sys\n"
             "sys.path.insert(0, %r)\n"
             "before = set(sys.modules)\n"
             "%s\n"
             "import kneser_morse.cli\n"
             "print(json.dumps([kneser_morse.cli.__file__, sorted(set(sys.modules) - before)]))"
             % (str(SRC), plant))
    done = subprocess.run([sys.executable, '-S', '-c', probe], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    where, added = json.loads(done.stdout)
    assert pathlib.Path(where).is_relative_to(SRC), where
    loaded = [name for name in STARTUP_UNNEEDED if name in added]
    assert not loaded, "import kneser_morse.cli loads %s" % ", ".join(loaded)


def test_the_cli_starts_without_dataclasses_or_csv():
    check_startup_modules()


def test_a_planted_inspect_import_fails_the_startup_guard():
    with pytest.raises(AssertionError, match=r"loads .*\binspect\b"):
        check_startup_modules("import inspect")


def test_refusal_large_k(capsys):
    code, out, err = run(capsys, "verify", "theorem2", "--k", "99")
    assert code == 2
    assert out == ""
    assert err.startswith("refused:")


def test_refusal_negative_k(capsys):
    code, _, err = run(capsys, "build", "--k", "-1")
    assert code == 2 and err.startswith("refused:")


@pytest.mark.parametrize("max_dim", ["-1", "-7"])
def test_refusal_negative_max_dim(capsys, max_dim):
    code, out, err = run(capsys, "betti", "--k", "1", "--max-dim", max_dim)
    assert code == 2 and out == ""
    assert err.startswith("refused:") and "--max-dim" in err


def test_refusal_census_depth_cap(capsys):
    # census verification stops at k=3; formula-only runs go further
    code, _, err = run(capsys, "verify", "theorem3", "--k", "4",
                       "--depth", "full-snf")
    assert code == 2 and "refused" in err


def test_theorem3_formula_only_beyond_census(capsys):
    code, out, _ = run(capsys, "verify", "theorem3", "--k", "4",
                       "--depth", "counts", "--format", "json")
    assert code == 0
    by_name = {r['name']: r for r in json.loads(out)['results']}
    assert by_name['theorem3-formula']['detail']['censused'] is False


def test_depth_counts_runs_no_census(monkeypatch, capsys):
    calls = []
    counts = cli.wedge.theorem3_counts

    def counting(k, **kwargs):
        calls.append(kwargs.get('census'))
        return counts(k, **kwargs)

    monkeypatch.setattr(cli.wedge, "theorem3_counts", counting)
    code, out, _ = run(capsys, "verify", "theorem3", "--k", "2",
                       "--depth", "counts", "--format", "json")
    assert code == 0
    assert calls == [False]  # one formula-only call, no census
    by_name = {r['name']: r for r in json.loads(out)['results']}
    assert by_name['theorem3-formula']['detail']['censused'] is False
    assert by_name['theorem3-formula']['detail']['predicted_t'] == 181
    # verify all shares that one formula-only call with its family targets
    calls.clear()
    code, out, _ = run(capsys, "verify", "all", "--k", "1", "--depth", "counts",
                       "--format", "json")
    assert code == 0
    assert calls == [False]
    by_name = {r['name']: r['detail'] for r in json.loads(out)['results']}
    assert by_name['p-families'] == {'families': 28, 'critical_total': 84, 'censused': False}
    assert by_name['q-families'] == {'families': 14, 'critical_total': 14, 'censused': False}


def test_verify_lemma_requires_name(capsys):
    code, _, err = run(capsys, "verify", "lemma", "--k", "1")
    assert code == 2 and "refused" in err


def test_verify_lemma_named(capsys):
    code, out, _ = run(capsys, "verify", "lemma", "--lemma", "c-matching",
                       "--k", "1", "--format", "json")
    assert code == 0
    results = json.loads(out)['results']
    assert results and all(r['pass'] for r in results)


@pytest.mark.parametrize("lemma", ["a-matching", "b-matching"])
def test_a_vacuous_lemma_passes(capsys, lemma):
    # the A-families are empty for k <= 1 and the B-families for k <= 2
    code, out, _ = run(capsys, "verify", "lemma", "--lemma", lemma,
                       "--k", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)['results'] == [
        {'name': lemma, 'k': 1, 'pass': True, 'detail': {'fibers': 0}}]


@pytest.mark.parametrize("lemma", ["sg-matching", "a-matching", "b-matching", "c-matching",
                                   "s3k-collapse", "filtration-nesting"])
def test_a_face_expanding_lemma_is_refused_at_k3(monkeypatch, capsys, lemma):
    # these lemmas expand the mixed complex or the filtration stages face by
    # face, which the powerset guard stops at k = 3; the cap refuses first
    def forbidden(*args, **kwargs):
        raise AssertionError("a refused target must not start its work")

    monkeypatch.setattr(cli.collapse, "theorem2_matching", forbidden)
    monkeypatch.setattr(cli.wedge, "filtration", forbidden)
    code, out, err = run(capsys, "verify", "lemma", "--lemma", lemma, "--k", "3")
    assert code == 2 and out == ""
    assert err.startswith("refused:") and "k <= 2" in err


# the family lemmas at k = 4 from the formulas alone
FAMILY_FORMULAS_K4 = {'p-families': {'families': 70, 'critical_total': 1050, 'censused': False},
                      'q-families': {'families': 35, 'critical_total': 350, 'censused': False}}


@pytest.mark.parametrize("lemma", ["p-families", "q-families"])
def test_the_family_lemmas_keep_the_census_cap(capsys, lemma):
    # the census stops at k = 3 whatever the depth above counts; the
    # formulas alone, at --depth counts, reach k <= 5 as verify theorem3 does
    code, out, _ = run(capsys, "verify", "lemma", "--lemma", lemma, "--k", "3",
                       "--depth", "counts", "--format", "json")
    assert code == 0
    assert [r['pass'] for r in json.loads(out)['results']] == [True]
    # the default depth meets the census cap; full-snf, a depth these targets
    # do not read, is refused before any cap
    for depth, why in (([], "k <= 3"),
                       (["--depth", "full-snf"], "reads only --depth counts or acyclicity")):
        code, _, err = run(capsys, "verify", "lemma", "--lemma", lemma, "--k", "4", *depth)
        assert code == 2 and why in err
    code, out, _ = run(capsys, "verify", "lemma", "--lemma", lemma, "--k", "4",
                       "--depth", "counts", "--format", "json")
    assert code == 0
    assert json.loads(out)['results'] == [
        {'name': lemma, 'k': 4, 'pass': True, 'detail': FAMILY_FORMULAS_K4[lemma]}]
    code, _, err = run(capsys, "verify", "lemma", "--lemma", lemma, "--k", "6",
                       "--depth", "counts")
    assert code == 2 and "k <= 5" in err


@pytest.mark.parametrize("lemma", ["p-families", "q-families"])
def test_an_uncensused_family_lemma_reads_no_lattice(monkeypatch, capsys, lemma):
    # the formula gives the family count: a lattice has 2^(k+6) masks, which
    # --allow-large would otherwise walk at any k
    def walked(k):
        raise AssertionError("missed_lattice ran at k=%d" % (k,))

    monkeypatch.setattr(cli.graphs, "missed_lattice", walked)
    for k in ("2", "4"):
        code, out, _ = run(capsys, "verify", "lemma", "--lemma", lemma, "--k", k,
                           "--depth", "counts", "--format", "json")
        (result,) = json.loads(out)['results']
        assert code == 0 and result['pass'] and result['detail']['censused'] is False
    assert result['detail'] == FAMILY_FORMULAS_K4[lemma]
    # a censused run reads the lattice; with the walk refused it fails
    code, out, _ = run(capsys, "verify", "lemma", "--lemma", lemma, "--k", "1",
                       "--format", "json")
    assert code == 1 and "missed_lattice ran at k=1" in out


@pytest.mark.parametrize("lemma", ["p-families", "q-families"])
def test_the_family_lemmas_refuse_full_snf(capsys, lemma):
    # these targets have no homology check, so full-snf is refused at any k
    # rather than reported as a pass of the default depth; verify all runs
    # their census beside the homology checks of theorem3 as before
    for k in ("0", "3"):
        code, out, err = run(capsys, "verify", "lemma", "--lemma", lemma, "--k", k,
                             "--depth", "full-snf")
        assert code == 2 and out == ""
        assert err.startswith("refused:") and "reads only --depth counts or acyclicity" in err
    code, out, _ = run(capsys, "verify", "all", "--k", "1", "--depth", "full-snf",
                       "--format", "json")
    assert code == 0
    assert lemma in [r['name'] for r in json.loads(out)['results']]


SINGLE_DEPTH_TARGETS = [("theorem2",)] + [
    ("lemma", "--lemma", lemma) for lemma in ("sg-matching", "a-matching", "b-matching",
                                              "c-matching", "s3k-collapse", "filtration-nesting")]


@pytest.mark.parametrize("target", SINGLE_DEPTH_TARGETS, ids=lambda t: t[-1])
def test_a_single_depth_target_refuses_another_depth(monkeypatch, capsys, target):
    # these targets run the same checks at every depth, so a depth other
    # than the default is refused before any work starts, rather than
    # reported as if the flag had been read; the default, named, still runs
    def forbidden(*args, **kwargs):
        raise AssertionError("a refused target must not start its work")

    monkeypatch.setattr(cli.collapse, "theorem2_matching", forbidden)
    monkeypatch.setattr(cli.wedge, "filtration", forbidden)
    for depth in ("counts", "full-snf"):
        code, out, err = run(capsys, "verify", *target, "--k", "1", "--depth", depth)
        assert code == 2 and out == ""
        assert err.startswith("refused:") and "reads only --depth acyclicity" in err
    monkeypatch.undo()
    code, _, err = run(capsys, "verify", *target, "--k", "1", "--depth", "acyclicity")
    assert code == 0 and err == ""


def test_verify_all_runs_the_single_depth_targets_at_every_depth(capsys):
    for depth in ("counts", "acyclicity", "full-snf"):
        code, out, _ = run(capsys, "verify", "all", "--k", "1", "--depth", depth,
                           "--format", "json")
        assert code == 0
        names = {r['name'] for r in json.loads(out)['results']}
        assert {'theorem2-collapse', 'filtration-nesting'} <= names


DEPTHS = ("counts", "acyclicity", "full-snf")
# verify argv -> {depth it reads: default k cap}; any other depth is refused at
# every k, a cap only without --allow-large
REFUSAL_MATRIX = {
    **{target: {'acyclicity': 2} for target in SINGLE_DEPTH_TARGETS},
    ("theorem3",): {'counts': 5, 'acyclicity': 3, 'full-snf': 2},
    ("all",): {'counts': 2, 'acyclicity': 2, 'full-snf': 2},
    ("lemma",): {},
    **{("lemma", "--lemma", lemma): {'counts': 5, 'acyclicity': 3}
       for lemma in ("p-families", "q-families")},
}


class Ran(Exception):
    """Raised by every stubbed library entry point: the command started its work."""


@pytest.fixture
def nothing_built(monkeypatch):
    def ran(*args, **kwargs):
        raise Ran

    for owner, attr in ((cli.collapse, "theorem2_matching"), (cli.wedge, "theorem3_counts"),
                        (cli.wedge, "filtration"), (cli.graphs, "graph"), (cli, "complex_for"),
                        (cli, "betti"), (cli, "relative_betti")):
        monkeypatch.setattr(owner, attr, ran)


def exit_code(capsys, *argv):
    try:
        code = main(list(argv))
    except Ran:  # build and betti let an error of their work propagate
        code = 1
    capsys.readouterr()
    return code


@pytest.mark.parametrize("target", REFUSAL_MATRIX, ids=lambda t: t[-1])
def test_the_refusal_matrix(nothing_built, capsys, target):
    caps = REFUSAL_MATRIX[target]
    for depth in DEPTHS:
        for k in range(7):
            for large in ([], ["--allow-large"]):
                code = exit_code(capsys, "verify", *target, "--k", str(k),
                                 "--depth", depth, *large)
                refused = depth not in caps or (k > caps[depth] and not large)
                assert (code == 2) == refused, (target, depth, k, large, code)


@pytest.mark.parametrize("command,cap", [("build", 5), ("betti", 2)])
def test_the_build_and_betti_caps(nothing_built, capsys, command, cap):
    for k in range(7):
        for large in ([], ["--allow-large"]):
            code = exit_code(capsys, command, "--k", str(k), *large)
            assert (code == 2) == (k > cap and not large), (command, k, large, code)


def readme_caps():
    """README's "Size caps" rows as {command: {depth: cap}}, refused depths left out."""
    text = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    section = text.split("### Size caps", 1)[1].split("\n### ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            command, *cells = [c.strip() for c in line.strip("|").split("|")]
            rows[command.strip("`")] = {depth: int(cell.split("<=")[1])
                                        for depth, cell in zip(DEPTHS, cells)
                                        if cell != "refused"}
    return rows


def test_the_readme_cap_table_restates_the_cli_table():
    want = {('verify lemma --lemma ' if name in cli.LEMMAS else 'verify ') + name: caps
            for name, (_, caps) in cli.VERIFY.items()}
    want.update((command, dict.fromkeys(DEPTHS, cap)) for command, cap in cli.CAPS.items())
    assert readme_caps() == want


def test_failure_exit_and_stderr(monkeypatch, capsys):
    def sad(k):
        raise cli.collapse.MatchingError("synthetic failed check")

    monkeypatch.setattr(cli.collapse, "theorem2_matching", sad)
    code, out, err = run(capsys, "verify", "theorem2", "--k", "0")
    assert code == 1
    assert out.startswith("FAIL")
    assert err.splitlines()[0].startswith("FAIL")


def test_exception_becomes_failed_result(monkeypatch, capsys):
    def boom(k):
        raise RuntimeError("synthetic")

    monkeypatch.setattr(cli.collapse, "theorem2_matching", boom)
    code, out, _ = run(capsys, "verify", "theorem2", "--k", "0",
                       "--format", "json")
    assert code == 1
    results = json.loads(out)['results']
    assert any(not r['pass'] and 'synthetic' in str(r.get('detail'))
               for r in results)


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "build", "--k", "0", "--format", "json",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())['command'] == 'build'


def mask_elapsed(text):
    return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)


def test_reports_are_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "theorem3", "--k", "1",
                      "--format", "json", "--seed", "7")
    _, second, _ = run(capsys, "verify", "theorem3", "--k", "1",
                       "--format", "json", "--seed", "7")
    assert mask_elapsed(first) == mask_elapsed(second)
    report = json.loads(first)
    assert report['seed'] == 7


def test_verify_all_k0(capsys):
    code, out, _ = run(capsys, "verify", "all", "--k", "0", "--format", "json")
    assert code == 0
    names = [r['name'] for r in json.loads(out)['results']]
    for expected in ('theorem2-collapse', 'theorem3-census',
                     'filtration-nesting', 'p-families', 'q-families'):
        assert expected in names


def test_verify_all_runs_the_census_once(monkeypatch, capsys):
    calls = []
    census = cli.wedge.theorem3_counts

    def counting(k, **kwargs):
        calls.append(k)
        return census(k, **kwargs)

    monkeypatch.setattr(cli.wedge, "theorem3_counts", counting)
    code, out, _ = run(capsys, "verify", "all", "--k", "1", "--format", "json")
    assert code == 0
    assert calls == [1]
    by_name = {r['name']: r['detail'] for r in json.loads(out)['results']}
    assert by_name['p-families']['critical_total'] == 84
    assert by_name['q-families']['critical_total'] == 14


def test_verify_all_shares_a_census_failure(monkeypatch, capsys):
    calls = []

    def boom(k, **kwargs):
        calls.append(k)
        raise RuntimeError("synthetic census")

    monkeypatch.setattr(cli.wedge, "theorem3_counts", boom)
    code, out, _ = run(capsys, "verify", "all", "--k", "0", "--format", "json")
    assert code == 1
    assert calls == [0]
    failed = {r['name']: r['detail']['error'] for r in json.loads(out)['results']
              if not r['pass']}
    assert set(failed) == {'theorem3-census', 'p-families', 'q-families'}
    assert all(e == "RuntimeError: synthetic census" for e in failed.values())


@pytest.mark.parametrize("k, depth, name", [(4, ["--depth", "counts"], "theorem3-formula"),
                                           (2, [], "theorem3-census")])
def test_a_theorem3_failure_carries_the_name_of_its_pass(monkeypatch, capsys, k, depth, name):
    # a formula-only run fails as theorem3-formula, a censused one (the
    # default depth at k = 2) as theorem3-census
    def boom(k, **kwargs):
        raise RuntimeError("synthetic census")

    monkeypatch.setattr(cli.wedge, "theorem3_counts", boom)
    code, out, err = run(capsys, "verify", "theorem3", "--k", str(k), *depth, "--format", "json")
    assert code == 1
    (result,) = json.loads(out)['results']
    assert (result['name'], result['pass']) == (name, False)
    assert err.splitlines()[0] == "FAIL %s" % name


def no_child_left():
    """True iff this process has no child left to reap."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def drop_a_top_step_facet(monkeypatch):
    """Plant: ``morse.face_facets`` leaves out the first facet of the last
    2-cell of the top relative step at k = 1, and every facet table is
    walked with it (``plant_facets``), so d_2 d_3 is nonzero on the 3-cells
    above it, in ``kg`` and in the relative step alike.  The forked child
    that ranks ``kg`` inherits both patches."""
    cell = relative_family(filtration(1, 3), filtration(1, 2), 2).faces(2)[-1]
    facets = morse.face_facets
    plant_facets(monkeypatch, lambda f: itertools.islice(facets(f), f == cell, None))


def error_of(fn):
    with pytest.raises(Exception) as info:
        fn()
    return "%s: %s" % (type(info.value).__name__, info.value)


def test_the_full_snf_checks_leave_no_child(capsys):
    code, out, _ = run(capsys, "verify", "theorem3", "--k", "1", "--depth", "full-snf",
                       "--format", "json")
    assert code == 0 and len(json.loads(out)['results']) == 4
    assert no_child_left()


def test_a_relative_step_fails_in_the_child_as_it_would_in_process(monkeypatch, capsys):
    # betti(kg) is stubbed to pass in the child, so the error can only come
    # from the relative step in the process
    class Right:
        numbers = (0, 71, 0)  # t at k = 1

    monkeypatch.setattr(cli, "betti", lambda cx, max_dim: Right)
    drop_a_top_step_facet(monkeypatch)
    want = error_of(lambda: relative_betti(filtration(1, 3), filtration(1, 2), max_dim=2))
    assert want.startswith("AssertionError: d_2 d_3 is nonzero on column ")
    code, out, _ = run(capsys, "verify", "theorem3", "--k", "1", "--depth", "full-snf",
                       "--format", "json")
    assert code == 1
    (result,) = json.loads(out)['results']
    assert (result['name'], result['pass'], result['detail']) == (
        'theorem3-census', False, {'error': want})
    assert no_child_left()


def test_a_kg_failure_in_the_parent_is_reported_first(monkeypatch, capsys):
    # the plant breaks both betti(kg) and the top relative step: the
    # sequential order ranked kg first, so its error is the one reported
    drop_a_top_step_facet(monkeypatch)
    want = error_of(lambda: betti(complex_for('kg', 1), max_dim=2))
    assert want != error_of(lambda: relative_betti(filtration(1, 3), filtration(1, 2), max_dim=2))
    code, out, _ = run(capsys, "verify", "theorem3", "--k", "1", "--depth", "full-snf",
                       "--format", "json")
    assert code == 1
    (result,) = json.loads(out)['results']
    assert result['detail'] == {'error': want}
    assert no_child_left()


def test_a_child_that_sends_nothing_fails_the_check(monkeypatch, capsys):
    # the stub runs only in the child, which ranks kg alone
    monkeypatch.setattr(cli, "betti", lambda *args, **kwargs: os._exit(3))
    code, out, _ = run(capsys, "verify", "theorem3", "--k", "1", "--depth", "full-snf",
                       "--format", "json")
    assert code == 1
    (result,) = json.loads(out)['results']
    assert result['detail'] == {
        'error': "RuntimeError: the forked child sent no result and exited with code 3"}
    assert no_child_left()


def counted_census(monkeypatch, log, raises=False):
    """Patch the census to append the pid of each process that runs it to
    the file ``log``, which a forked child's calls reach too; it raises
    ``RuntimeError: synthetic census`` when ``raises`` says so."""
    census = cli.wedge.theorem3_counts

    def counting(k, **kwargs):
        with open(log, "a") as fh:
            fh.write("%d\n" % os.getpid())
        if raises:
            raise RuntimeError("synthetic census")
        return census(k, **kwargs)

    monkeypatch.setattr(cli.wedge, "theorem3_counts", counting)
    return lambda: [int(line) for line in pathlib.Path(log).read_text().split()]


def test_the_full_snf_census_runs_once_in_the_process(monkeypatch, capsys, tmp_path):
    # verify all at full-snf: the process runs the census, not the child that
    # ranks kg, and p-families and q-families read it from the memo
    pids = counted_census(monkeypatch, tmp_path / "census.log")
    code, out, _ = run(capsys, "verify", "all", "--k", "1", "--depth", "full-snf",
                       "--format", "json")
    assert code == 0 and no_child_left()
    assert pids() == [os.getpid()]
    by_name = {r['name']: r['detail'] for r in json.loads(out)['results']}
    assert by_name['p-families'] == {'families': 28, 'critical_total': 84, 'censused': True}
    assert by_name['q-families'] == {'families': 14, 'critical_total': 14, 'censused': True}
    assert by_name['theorem3-census']['rows'] == [
        list(r) for r in cli.wedge.theorem3_counts(1)['rows']]


SYNTHETIC = {'error': "RuntimeError: synthetic census"}


@pytest.mark.parametrize("plant", [False, True])
def test_a_census_failure_in_the_child_reads_as_in_process(monkeypatch, capsys, tmp_path, plant):
    # the census runs in the process while the child ranks kg; it ran first
    # in a sequential run, so its error is the one reported even when the
    # planted facet also breaks kg and the top step
    pids = counted_census(monkeypatch, tmp_path / "census.log", raises=True)
    if plant:
        drop_a_top_step_facet(monkeypatch)
    code, out, err = run(capsys, "verify", "theorem3", "--k", "1", "--depth", "full-snf",
                         "--format", "json")
    assert (code, err) == (1, "FAIL theorem3-census\n") and no_child_left()
    assert json.loads(out)['results'] == [
        {'name': 'theorem3-census', 'k': 1, 'pass': False, 'detail': SYNTHETIC}]
    code, out, _ = run(capsys, "verify", "all", "--k", "1", "--depth", "full-snf",
                       "--format", "json")
    assert code == 1 and no_child_left()
    assert len(pids()) == 2  # once per invocation
    results = json.loads(out)['results']
    assert [r['name'] for r in results] == [
        'theorem2-collapse', 'theorem3-census', 'filtration-nesting', 'p-families', 'q-families']
    assert {r['name']: r['detail'] for r in results if not r['pass']} == {
        name: SYNTHETIC for name in ('theorem3-census', 'p-families', 'q-families')}


def test_a_census_failure_kills_the_child_at_once(monkeypatch, capsys, tmp_path):
    # betti(kg) runs only in the child, where the stub would hold it for 30 s;
    # the census fails in the process meanwhile, so the child is killed and
    # reaped and the census's error is reported without waiting for kg
    monkeypatch.setattr(cli, "betti", lambda *args, **kwargs: time.sleep(30))
    pids = counted_census(monkeypatch, tmp_path / "census.log", raises=True)
    start = time.monotonic()
    code, out, err = run(capsys, "verify", "theorem3", "--k", "1", "--depth", "full-snf",
                         "--format", "json")
    assert time.monotonic() - start < 5
    assert (code, err) == (1, "FAIL theorem3-census\n") and no_child_left()
    assert pids() == [os.getpid()]
    assert json.loads(out)['results'] == [
        {'name': 'theorem3-census', 'k': 1, 'pass': False, 'detail': SYNTHETIC}]


def test_kg_bands_are_listed_before_the_fork(monkeypatch, capsys):
    # complex_for builds the maximal faces only; both sides of the fork
    # read kg's bands 0..k+2, so they are listed once, before it
    cx = complex_for('kg', 1)
    assert filtration(1, 3) is cx  # the process's relative steps read it too
    monkeypatch.setattr(cx, "_bands", {})
    fork, listed = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: (listed.append(sorted(cx._bands)), fork())[1])
    code, _, _ = run(capsys, "verify", "theorem3", "--k", "1", "--depth", "full-snf")
    assert code == 0 and listed == [[0, 1, 2, 3]] and no_child_left()


# Reports of the parent of the single face encoding, elapsed_ms masked, plus
# the route keys (poset_map_route, union_route) that name the missed-set
# lattice as what certified the Cluster-Lemma order and the layer unions,
# and partition_route, which names the count that certifies Theorem 2's
# parts as a partition of s.
THEOREM2_K1 = {
    'command': 'verify',
    'k': 1,
    'results': [
        {
            'name': 'theorem2-collapse',
            'k': 1,
            'pass': True,
            'detail': {
                'cells': 98,
                'pairs': 42,
                'critical': 14,
                'poset_map_route': 'lattice',
                'partition_route': 'count',
                'records': [
                    {
                        'lemma': 'sg-matching', 'fiber': 'SG', 'cells': 14, 'pairs': 0,
                        'acyclic': True, 'perfect': False, 'critical_count': 14,
                    },
                    {
                        'lemma': 'c-matching', 'fiber': 'C v=467', 'cells': 4, 'pairs': 2,
                        'acyclic': True, 'perfect': True, 'critical_count': 0,
                    },
                    {
                        'lemma': 'c-matching', 'fiber': 'C v=457', 'cells': 4, 'pairs': 2,
                        'acyclic': True, 'perfect': True, 'critical_count': 0,
                    },
                    {
                        'lemma': 'c-matching', 'fiber': 'C v=356', 'cells': 4, 'pairs': 2,
                        'acyclic': True, 'perfect': True, 'critical_count': 0,
                    },
                    {
                        'lemma': 'c-matching', 'fiber': 'C v=346', 'cells': 4, 'pairs': 2,
                        'acyclic': True, 'perfect': True, 'critical_count': 0,
                    },
                    {
                        'lemma': 'c-matching', 'fiber': 'C v=267', 'cells': 8, 'pairs': 4,
                        'acyclic': True, 'perfect': True, 'critical_count': 0,
                    },
                    {
                        'lemma': 'c-matching', 'fiber': 'C v=245', 'cells': 8, 'pairs': 4,
                        'acyclic': True, 'perfect': True, 'critical_count': 0,
                    },
                    {
                        'lemma': 'c-matching', 'fiber': 'C v=237', 'cells': 4, 'pairs': 2,
                        'acyclic': True, 'perfect': True, 'critical_count': 0,
                    },
                    {
                        'lemma': 'c-matching', 'fiber': 'C v=235', 'cells': 8, 'pairs': 4,
                        'acyclic': True, 'perfect': True, 'critical_count': 0,
                    },
                    {
                        'lemma': 'c-matching', 'fiber': 'C v=157', 'cells': 4, 'pairs': 2,
                        'acyclic': True, 'perfect': True, 'critical_count': 0,
                    },
                    {
                        'lemma': 'c-matching', 'fiber': 'C v=156', 'cells': 8, 'pairs': 4,
                        'acyclic': True, 'perfect': True, 'critical_count': 0,
                    },
                    {
                        'lemma': 'c-matching', 'fiber': 'C v=137', 'cells': 8, 'pairs': 4,
                        'acyclic': True, 'perfect': True, 'critical_count': 0,
                    },
                    {
                        'lemma': 'c-matching', 'fiber': 'C v=134', 'cells': 8, 'pairs': 4,
                        'acyclic': True, 'perfect': True, 'critical_count': 0,
                    },
                    {
                        'lemma': 'c-matching', 'fiber': 'C v=126', 'cells': 4, 'pairs': 2,
                        'acyclic': True, 'perfect': True, 'critical_count': 0,
                    },
                    {
                        'lemma': 'c-matching', 'fiber': 'C v=124', 'cells': 8, 'pairs': 4,
                        'acyclic': True, 'perfect': True, 'critical_count': 0,
                    },
                    {
                        'lemma': 's3k-collapse', 'fiber': 'all', 'cells': 98, 'pairs': 42,
                        'acyclic': True, 'perfect': False, 'critical_count': 14,
                    },
                ],
            },
        },
    ],
    'seed': 0,
    'elapsed_ms': 0,
}


THEOREM3_K1_FULL_SNF = {
    'command': 'verify',
    'k': 1,
    'results': [
        {
            'name': 'theorem3-census',
            'k': 1,
            'pass': True,
            'detail': {
                'extra_k_cells': 84,
                'extra_km1_cells': 14,
                'predicted_t': 71,
                'censused': True,
                'union_route': 'lattice',
                'families': 42,
                'rows': [
                    ['P', 1, 3, 11, 3, 1], ['P', 1, 4, 11, 3, 1], ['P', 1, 5, 11, 3, 1],
                    ['P', 1, 6, 11, 3, 1], ['P', 2, 4, 11, 3, 1], ['P', 2, 5, 11, 3, 1],
                    ['P', 2, 6, 11, 3, 1], ['P', 2, 7, 11, 3, 1], ['P', 3, 5, 11, 3, 1],
                    ['P', 3, 6, 11, 3, 1], ['P', 3, 7, 11, 3, 1], ['P', 3, 1, 11, 3, 1],
                    ['P', 4, 6, 11, 3, 1], ['P', 4, 7, 11, 3, 1], ['P', 4, 1, 11, 3, 1],
                    ['P', 4, 2, 11, 3, 1], ['P', 5, 7, 11, 3, 1], ['P', 5, 1, 11, 3, 1],
                    ['P', 5, 2, 11, 3, 1], ['P', 5, 3, 11, 3, 1], ['P', 6, 1, 11, 3, 1],
                    ['P', 6, 2, 11, 3, 1], ['P', 6, 3, 11, 3, 1], ['P', 6, 4, 11, 3, 1],
                    ['P', 7, 2, 11, 3, 1], ['P', 7, 3, 11, 3, 1], ['P', 7, 4, 11, 3, 1],
                    ['P', 7, 5, 11, 3, 1], ['Q', 1, 3, 1, 1, 0], ['Q', 1, 4, 1, 1, 0],
                    ['Q', 1, 5, 1, 1, 0], ['Q', 1, 6, 1, 1, 0], ['Q', 2, 4, 1, 1, 0],
                    ['Q', 2, 5, 1, 1, 0], ['Q', 2, 6, 1, 1, 0], ['Q', 2, 7, 1, 1, 0],
                    ['Q', 3, 5, 1, 1, 0], ['Q', 3, 6, 1, 1, 0], ['Q', 3, 7, 1, 1, 0],
                    ['Q', 4, 6, 1, 1, 0], ['Q', 4, 7, 1, 1, 0], ['Q', 5, 7, 1, 1, 0],
                ],
            },
        },
        {
            'name': 'theorem3-betti', 'k': 1, 'pass': True,
            'detail': {'numbers': [0, 71, 0], 'wanted': [0, 71, 0]},
        },
        {
            'name': 'theorem3-relative-top', 'k': 1, 'pass': True,
            'detail': {'numbers': [0, 84, 0], 'wanted': [0, 84, 0]},
        },
        {
            'name': 'theorem3-relative-mid', 'k': 1, 'pass': True,
            'detail': {'numbers': [14, 0], 'wanted': [14, 0]},
        },
    ],
    'seed': 0,
    'elapsed_ms': 0,
}


BETTI_KG_K1 = {
    'command': 'betti',
    'k': 1,
    'results': [
        {
            'name': 'betti-kg',
            'k': 1,
            'pass': True,
            'detail': {
                'numbers': [0, 71, 0], 'torsion': [[], [], []], 'cells': [35, 210, 140],
                'reduced': True,
            },
        },
    ],
    'seed': 0,
    'elapsed_ms': 0,
}


THEOREM3_K2_FULL_SNF = {
    'command': 'verify',
    'k': 2,
    'results': [
        {
            'name': 'theorem3-census',
            'k': 2,
            'pass': True,
            'detail': {
                'extra_k_cells': 240,
                'extra_km1_cells': 60,
                'predicted_t': 181,
                'censused': True,
                'union_route': 'lattice',
                'families': 60,
                'rows': [
                    ['P', 1, 3, 958, 6, 2], ['P', 1, 4, 956, 6, 2], ['P', 1, 5, 958, 6, 2],
                    ['P', 1, 6, 958, 6, 2], ['P', 1, 7, 956, 6, 2], ['P', 2, 4, 958, 6, 2],
                    ['P', 2, 5, 956, 6, 2], ['P', 2, 6, 958, 6, 2], ['P', 2, 7, 958, 6, 2],
                    ['P', 2, 8, 956, 6, 2], ['P', 3, 5, 958, 6, 2], ['P', 3, 6, 956, 6, 2],
                    ['P', 3, 7, 958, 6, 2], ['P', 3, 8, 958, 6, 2], ['P', 3, 1, 956, 6, 2],
                    ['P', 4, 6, 958, 6, 2], ['P', 4, 7, 956, 6, 2], ['P', 4, 8, 958, 6, 2],
                    ['P', 4, 1, 958, 6, 2], ['P', 4, 2, 956, 6, 2], ['P', 5, 7, 958, 6, 2],
                    ['P', 5, 8, 956, 6, 2], ['P', 5, 1, 958, 6, 2], ['P', 5, 2, 958, 6, 2],
                    ['P', 5, 3, 956, 6, 2], ['P', 6, 8, 958, 6, 2], ['P', 6, 1, 956, 6, 2],
                    ['P', 6, 2, 958, 6, 2], ['P', 6, 3, 958, 6, 2], ['P', 6, 4, 956, 6, 2],
                    ['P', 7, 1, 958, 6, 2], ['P', 7, 2, 956, 6, 2], ['P', 7, 3, 958, 6, 2],
                    ['P', 7, 4, 958, 6, 2], ['P', 7, 5, 956, 6, 2], ['P', 8, 2, 958, 6, 2],
                    ['P', 8, 3, 956, 6, 2], ['P', 8, 4, 958, 6, 2], ['P', 8, 5, 958, 6, 2],
                    ['P', 8, 6, 956, 6, 2], ['Q', 1, 3, 11, 3, 1], ['Q', 1, 4, 11, 3, 1],
                    ['Q', 1, 5, 11, 3, 1], ['Q', 1, 6, 11, 3, 1], ['Q', 1, 7, 11, 3, 1],
                    ['Q', 2, 4, 11, 3, 1], ['Q', 2, 5, 11, 3, 1], ['Q', 2, 6, 11, 3, 1],
                    ['Q', 2, 7, 11, 3, 1], ['Q', 2, 8, 11, 3, 1], ['Q', 3, 5, 11, 3, 1],
                    ['Q', 3, 6, 11, 3, 1], ['Q', 3, 7, 11, 3, 1], ['Q', 3, 8, 11, 3, 1],
                    ['Q', 4, 6, 11, 3, 1], ['Q', 4, 7, 11, 3, 1], ['Q', 4, 8, 11, 3, 1],
                    ['Q', 5, 7, 11, 3, 1], ['Q', 5, 8, 11, 3, 1], ['Q', 6, 8, 11, 3, 1],
                ],
            },
        },
        {
            'name': 'theorem3-betti', 'k': 2, 'pass': True,
            'detail': {'numbers': [0, 0, 181, 0], 'wanted': [0, 0, 181, 0]},
        },
        {
            'name': 'theorem3-relative-top', 'k': 2, 'pass': True,
            'detail': {'numbers': [0, 0, 240, 0], 'wanted': [0, 0, 240, 0]},
        },
        {
            'name': 'theorem3-relative-mid', 'k': 2, 'pass': True,
            'detail': {'numbers': [0, 60, 0], 'wanted': [0, 60, 0]},
        },
    ],
    'seed': 0,
    'elapsed_ms': 0,
}


BETTI_KG_K2 = {
    'command': 'betti',
    'k': 2,
    'results': [
        {
            'name': 'betti-kg',
            'k': 2,
            'pass': True,
            'detail': {
                'numbers': [0, 0, 181, 0], 'torsion': [[], [], [], []],
                'cells': [56, 1260, 5880, 11550], 'reduced': True,
            },
        },
    ],
    'seed': 0,
    'elapsed_ms': 0,
}


BUILD_SG_K1 = {
    'command': 'build',
    'k': 1,
    'results': [
        {
            'name': 'build-sg', 'k': 1, 'pass': True,
            'detail': {'vertices': 7, 'edges': 7, 'maximal_faces': 7, 'dim': 1,
                       'maximal_by_size': {'2': 7}},
        },
    ],
    'seed': 0,
    'elapsed_ms': 0,
}


@pytest.mark.parametrize("argv,expected", [
    (("verify", "theorem2", "--k", "1"), THEOREM2_K1),
    (("verify", "theorem3", "--k", "1", "--depth", "full-snf"), THEOREM3_K1_FULL_SNF),
    (("betti", "--k", "1", "--kind", "kg"), BETTI_KG_K1),
    (("verify", "theorem3", "--k", "2", "--depth", "full-snf"), THEOREM3_K2_FULL_SNF),
    (("betti", "--k", "2", "--kind", "kg"), BETTI_KG_K2),
    (("build", "--k", "1", "--kind", "sg"), BUILD_SG_K1),
])
def test_reports_match_the_pinned_parent(capsys, argv, expected):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert mask_elapsed(out) == json.dumps(expected, indent=2) + "\n"

"""Driver behavior: exit codes, report formats, refusal caps."""

import json
import re

from kneser_morse import cli
from kneser_morse.cli import main


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


def test_refusal_large_k(capsys):
    code, out, err = run(capsys, "verify", "theorem2", "--k", "99")
    assert code == 2
    assert out == ""
    assert err.startswith("refused:")


def test_refusal_negative_k(capsys):
    code, _, err = run(capsys, "build", "--k", "-1")
    assert code == 2 and err.startswith("refused:")


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


def test_verify_lemma_requires_name(capsys):
    code, _, err = run(capsys, "verify", "lemma", "--k", "1")
    assert code == 2 and "refused" in err


def test_verify_lemma_named(capsys):
    code, out, _ = run(capsys, "verify", "lemma", "--lemma", "c-matching",
                       "--k", "1", "--format", "json")
    assert code == 0
    results = json.loads(out)['results']
    assert results and all(r['pass'] for r in results)


def test_failure_exit_and_stderr(monkeypatch, capsys):
    class Sad:
        ok = False
        records = []
        critical = []

    monkeypatch.setattr(cli.collapse, "theorem2_matching", lambda k: Sad())
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

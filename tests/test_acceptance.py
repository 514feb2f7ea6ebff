"""Acceptance criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` for a pass/fail line per
criterion, or directly (``python3 tests/test_acceptance.py``) for the same
lines without the pytest harness.  Stated time budgets are asserted, not
just measured.
"""

import random
import time
from fractions import Fraction

import networkx as nx

from kneser_morse import morse
from kneser_morse.collapse import (
    check_label_order, classify, label_key, matching_A, matching_B, theorem2_matching,
)
from kneser_morse.complexes import complex_for, decode, face_key
from kneser_morse.graphs import ground_size, p_complement, rotate, triple_index
from kneser_morse.homology import (
    CHECK_PRIMES, betti, boundary_matrix, rank_mod_p, relative_betti,
    smith_normal_form,
)
from kneser_morse.morse import MatchingError
from kneser_morse.wedge import (
    family_faces, filtration, p_indices, q_indices, split_fibers, theorem3_counts,
    toggle_plan, toggle_run,
)

# the enumeration oracles of the A- and B-families and the C-fibers, the span
# oracle of the C-fiber strata, the brute-force 3-complement reader, the
# paper's index sets I_s and J_s, the listed faces of s and the parts'
# pairs over the per-k index
from test_collapse import (
    _s_faces, a_family, b_family, c_fiber, index_I, index_J, index_pairs, pair_of,
    paper_indices, parse_three, stratum_length,
)


def announce(n, ok, detail):
    print("criterion %d: %s  (%s)" % (n, "PASS" if ok else "FAIL", detail),
          flush=True)
    assert ok, detail


# criterion 1: the collapse matching leaves exactly the stable subcomplex,
# within 1s for k <= 1 and 2 minutes for k = 2

def test_criterion_1_collapse_critical_cells():
    times = {}
    for k in (0, 1, 2):
        t0 = time.monotonic()
        rep = theorem2_matching(k)
        times[k] = time.monotonic() - t0
        assert set(rep.critical) == complex_for('sg', k).all_faces()
        budget = 1.0 if k <= 1 else 120.0
        assert times[k] < budget, "k=%d took %.2fs" % (k, times[k])
    announce(1, True, "critical cells = stable subcomplex, k=0,1,2; "
             + ", ".join("k=%d %.2fs" % (k, t) for k, t in times.items()))


# criterion 2: the mixed complex has one reduced homology generator, in
# dimension k, for k = 0, 1, 2; k = 2 inside 5 minutes

def test_criterion_2_mixed_complex_homology():
    t0 = time.monotonic()
    for k in (0, 1, 2):
        b = betti(complex_for('s', k), max_dim=k + 1)
        want = tuple(1 if d == k else 0 for d in range(k + 2))
        assert b.numbers == want, (k, b.numbers)
        assert all(t == () for t in b.torsion)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    announce(2, True, "reduced betti of the mixed complex = delta_k, "
             "k=0,1,2 in %.1fs" % elapsed)


# criterion 3: the ambient complex carries rank 19 / 71 / 181 in dimension
# k and nothing else through dimension k+1

def test_criterion_3_ambient_homology():
    want_rank = {0: 19, 1: 71, 2: 181}
    for k in (0, 1, 2):
        b = betti(complex_for('kg', k), max_dim=k + 1)
        want = tuple(want_rank[k] if d == k else 0 for d in range(k + 2))
        assert b.numbers == want, (k, b.numbers)
        assert all(t == () for t in b.torsion)
    announce(3, True, "ambient reduced betti = 19/71/181 in dim k, 0 through k+1")


# criterion 4: relative homology of the filtration steps matches the two
# closed-form cell counts exactly

def test_criterion_4_relative_ranks():
    for k in (1, 2):
        top_count = (k + 1) * (k + 2) * (k + 3) * (k + 6) // 2
        mid_count = k * (k + 1) * (k + 3) * (k + 6) // 4
        top = relative_betti(filtration(k, 3), filtration(k, 2), max_dim=k + 1)
        assert top.numbers == tuple(
            top_count if d == k else 0 for d in range(k + 2)), top.numbers
        mid = relative_betti(filtration(k, 2), filtration(k, 1), max_dim=k)
        assert mid.numbers == tuple(
            mid_count if d == k - 1 else 0 for d in range(k + 1)), mid.numbers
        assert all(t == () for t in top.torsion + mid.torsion)
    announce(4, True, "relative ranks 84/14 (k=1) and 240/60 (k=2) match "
             "the formulas by exact SNF")


# criterion 5: the survivor census runs for k = 1, 2, 3 inside 20 minutes
# (every base family checked in full, every rotated copy by the exact
# transport certificate, and the union of each layer by the missed-set
# lattice)

def test_criterion_5_census():
    t0 = time.monotonic()
    expect = {1: (84, 14, 71), 2: (240, 60, 181), 3: (540, 162, 379)}
    for k in (1, 2, 3):
        out = theorem3_counts(k, census=True)
        top, mid, total = expect[k]
        assert out['observed_k_cells'] == out['extra_k_cells'] == top
        assert out['observed_km1_cells'] == out['extra_km1_cells'] == mid
        assert out['predicted_t'] == total
        assert len(out['rows']) == (k + 3) * (k + 6) * 3 // 2
    elapsed = time.monotonic() - t0
    assert elapsed < 1200.0
    announce(5, True, "census k=1,2,3 totals 84/14, 240/60, 540/162 "
             "in %.1fs" % elapsed)


# criterion 6: the structural properties behind the matchings, exhaustively
# for k <= 2 (plus the k = 3 pullback bijections, whose families are empty
# below that, and the missed-set lattice facts through k = 3)

def _check_classifier_partition(k):
    faces = _s_faces(k)
    buckets = {}
    for sigma in faces:
        buckets.setdefault(classify(sigma, k), set()).add(sigma)
    if buckets.get(('SG',), set()) != complex_for('sg', k).all_faces():
        return False
    n = ground_size(k)
    for s in range(1, n + 1):
        for t in index_I(s, k):
            if buckets.get(('A', s, t), set()) != set(a_family(k, s, t)):
                return False
        for u in index_J(s, k):
            if ('B', s, u) in buckets:
                return False  # first nonempty at k=3
    for label, members in buckets.items():
        if label[0] == 'C' and members != set(c_fiber(k, label[1])):
            return False
    return sum(map(len, buckets.values())) == len(faces)


def _check_poset_maps(k):
    ok1, _ = morse.verify_poset_map({s: label_key(classify(s, k), k) for s in sorted(_s_faces(k))})
    oks = [ok1]
    for l in (3, 4, 5):
        fiber = c_fiber(k, (1, 2, l))
        if fiber:
            ok, _ = morse.verify_poset_map({s: -stratum_length(k, s) for s in fiber})
            oks.append(ok)
    for j in index_I(1, k):
        fam = family_faces(k, frozenset(p_complement(k, 1, j)))
        for idx, fiber in split_fibers(fam).items():
            plan, _ = toggle_plan(fam.triples[idx], j, k)
            toggles = [fam.triples.index(w) for w in plan]
            faces = list(morse.members(fiber))
            # a face's stage is one more than the number of toggle prefixes it survives
            stage = dict.fromkeys(faces, 1)
            for t in range(1, len(toggles) + 1):
                stage.update(dict.fromkeys(morse.members(toggle_run(fiber, toggles[:t])[1]), t + 1))
            ok, _ = morse.verify_poset_map({f: -stage[f] for f in faces})
            oks.append(ok)
    return all(oks)


def _check_missed_set_lattice(k):
    """The Cluster-Lemma hypotheses of both theorems on missed sets: the
    layer unions of Theorem 3, whose families ``p_indices`` and
    ``q_indices`` read off the lattice and must be the paper's I_s and J_s
    families, in report order, and the classifier order of Theorem 2."""
    try:
        families = p_indices(k), q_indices(k)
        check_label_order(k)
    except MatchingError:
        return False
    return families == paper_indices(k)


def _check_a_bases_k3():
    oks = []
    hits = 0
    for l in range(3, 9):
        fam = set(a_family(3, 1, l))
        hits += bool(fam)
        m = morse.Matching(index_pairs(matching_A(3, 1, l)))
        oks.append(set(m.partner) == fam and morse.is_acyclic(m)[0])
    return all(oks) and hits > 0


def _check_b_pullbacks():
    oks = []
    for k in (0, 1, 2):
        for s in range(1, ground_size(k) + 1):
            for u in index_J(s, k):
                oks.append(b_family(k, s, u) == [])
    hits = 0
    for s in range(1, 10):
        for u in index_J(s, 3):
            fam = set(b_family(3, s, u))
            if not fam:
                continue
            hits += 1
            shift = 8 - u
            parsed = parse_three(
                frozenset(rotate(pair_of(s, 3), shift, 3)) | {8}, 2)
            image = {face_key([rotate(v, shift, 3) for v in decode(f, triple_index(3).triples)], 2)
                     for f in fam}
            oks.append(parsed is not None and len(image) == len(fam)
                       and image == set(a_family(2, *parsed)))
            m = morse.Matching(index_pairs(matching_B(3, s, u)))
            oks.append(set(m.partner) == fam and morse.is_acyclic(m)[0])
    return all(oks) and hits > 0


def _check_euler_and_mod_p():
    oks = []
    for k in (0, 1, 2):
        rep = theorem2_matching(k)
        faces = _s_faces(k)
        full = sum((-1) ** (f.bit_count() - 1) for f in faces)
        crit = sum((-1) ** (c.bit_count() - 1) for c in rep.critical)
        oks.append(full == crit)
        oks.append(len(faces) == 2 * rep.records[-1].pairs + len(rep.critical))
    for kind, k in [('s', 0), ('s', 1), ('sg', 1)]:
        cx = complex_for(kind, k)
        for d in range(cx.dim() + 2):
            m = boundary_matrix(cx, d, reduced=True)
            exact = smith_normal_form(m).rank
            mod_ranks = [rank_mod_p(m, p) for p in CHECK_PRIMES]
            oks.append(all(r <= exact for r in mod_ranks))
            oks.append(max(mod_ranks, default=0) == exact)
    return all(oks)


def test_criterion_6_structural_properties():
    checks = [
        ("family partition k=0", _check_classifier_partition(0)),
        ("family partition k=1", _check_classifier_partition(1)),
        ("family partition k=2", _check_classifier_partition(2)),
        ("poset maps k=1", _check_poset_maps(1)),
        ("poset maps k=2", _check_poset_maps(2)),
        ("missed-set lattice k=0..3", all(_check_missed_set_lattice(k) for k in range(4))),
        ("A-bases k=3", _check_a_bases_k3()),
        ("four-set pullbacks", _check_b_pullbacks()),
        ("euler and mod-p ranks", _check_euler_and_mod_p()),
    ]
    bad = [name for name, ok in checks if not ok]
    announce(6, not bad, "structural properties: %d checks%s"
             % (len(checks), "" if not bad else "; failing: " + ", ".join(bad)))


# criterion 7: the verifiers agree with independent oracles on small inputs

def _hasse_oracle(matching, cells):
    dg = nx.DiGraph()
    dg.add_nodes_from(cells)
    cs = set(cells)
    for tau in cells:
        for sigma, _ in morse.face_facets(tau):
            if sigma not in cs:
                continue
            if matching.partner.get(sigma) == tau:
                dg.add_edge(sigma, tau)
            else:
                dg.add_edge(tau, sigma)
    return nx.is_directed_acyclic_graph(dg)


def _fraction_rank(matrix):
    rows = [[Fraction(0)] * matrix.ncols for _ in range(matrix.nrows)]
    for i, j, v in matrix.triples:
        rows[i][j] += v
    rank = 0
    for col in range(matrix.ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_criterion_7_independent_oracles():
    agree = 0
    for seed in range(30):
        rng = random.Random(seed)
        universe = list(range(1, 2 ** rng.choice([4, 5])))
        cells = sorted(rng.sample(universe, min(len(universe), 20)))
        pool = [(s, t) for t in cells
                for s, _ in morse.face_facets(t) if s in set(cells)]
        rng.shuffle(pool)
        used, pairs = set(), []
        for s, t in pool:
            if s not in used and t not in used:
                pairs.append((s, t))
                used.update((s, t))
        m = morse.Matching(pairs)
        got, _ = morse.is_acyclic(m)
        assert got == _hasse_oracle(m, cells), seed
        agree += 1
    small = [('sg', 0), ('kg', 0), ('s', 0), ('sg', 1)]
    checked = 0
    for kind, k in small:
        cx = complex_for(kind, k)
        assert len(cx.all_faces()) <= 200
        b = betti(cx, cx.dim() + 1)
        for d in range(cx.dim() + 2):
            m = boundary_matrix(cx, d, reduced=True)
            assert b.ranks[d] == _fraction_rank(m), (kind, k, d)
            checked += 1
    announce(7, True, "acyclicity agrees with digraph oracle on %d fixtures; "
             "betti ranks agree with rational elimination on %d matrices"
             % (agree, checked))


if __name__ == "__main__":
    for fn in (test_criterion_1_collapse_critical_cells,
               test_criterion_2_mixed_complex_homology,
               test_criterion_3_ambient_homology,
               test_criterion_4_relative_ranks,
               test_criterion_5_census,
               test_criterion_6_structural_properties,
               test_criterion_7_independent_oracles):
        fn()

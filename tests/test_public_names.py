"""Every public function, class and method in ``src/kneser_morse`` has a
caller there, or is pinned below with the reason it stays; and README's
mutation paragraph names exactly the functions ``tests/mutants.py`` sweeps."""

import ast
import keyword
import re
from pathlib import Path

import mutants

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / 'src' / 'kneser_morse'

PINNED = {
    'morse.verify_poset_map': "a span of perfbench's SPANS; the tests' face-level oracle of the "
                              "order graphs.missed_lattice proves",
    'morse.compose_cluster': "a span of perfbench's SPANS; the tests' face-level composition of "
                             "Theorem 2's parts",
    'morse.element_matching': "a span of perfbench's SPANS; the tests' stage oracle of "
                              "wedge.toggle_run",
    'wedge.matching_Q': "a span of perfbench's SPANS; the tests build Q-families through it",
    'wedge.pq_classify': "a span of perfbench's SPANS; the tests' classifier of the outside faces",
    'homology.boundary_matrix': "a span of perfbench's SPANS, sized by its nnz counter",
    'homology.SparseIntMatrix.nnz': "the size counter of perfbench's boundary_matrix span",
    'wedge.FamilyMatching.decoded_critical': "perfbench/worker.py reads the family_k3 critical "
                                             "cells through it",
    'graphs.Graph.common_neighbors': "the tests' toggle oracle, and the local lemma of the "
                                     "s-maximality check that ROADMAP item 4 plans",
}


def public_definitions(tree):
    """(qualified name, node) of each public top-level function and class
    of a module, and of each public method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith('_'):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith('_'):
                    yield '%s.%s' % (node.name, sub.name), sub


def unused_public_names(sources):
    """The public names of the modules ``sources`` (module name -> source)
    that no identifier outside their own definition names.  A reference is
    a ``Name`` or an attribute, so a string, a docstring included, is none."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    every = [node for tree in trees.values() for node in ast.walk(tree)]
    unused = []
    for mod, tree in trees.items():
        for qualname, node in public_definitions(tree):
            own = {id(n) for n in ast.walk(node)}
            name = node.name
            if not any(id(n) not in own and (isinstance(n, ast.Name) and n.id == name
                                            or isinstance(n, ast.Attribute) and n.attr == name)
                       for n in every):
                unused.append('%s.%s' % (mod, qualname))
    return sorted(unused)


def test_every_public_name_has_a_caller_or_a_pinned_reason():
    sources = {path.stem: path.read_text() for path in SRC.glob('*.py')}
    assert unused_public_names(sources) == sorted(PINNED)


def test_an_orphan_function_fails_the_guard():
    module = '''
class Table:
    """Read through orphan and dropped, neither of which counts."""

    def used(self):
        return helper()

    def dropped(self):
        return self.dropped()


def helper():
    return Table().used()


def orphan(n):
    """Recursion is no caller either."""
    return orphan(n - 1) if n else 0
'''
    assert unused_public_names({'m': module}) == ['m.Table.dropped', 'm.orphan']


def named_targets(paragraph):
    """The function names in the code spans of ``paragraph``, each a bare
    name or ``module.name``; file names, options and keywords name none."""
    return {span for span in re.findall(r"`([^`]+)`", paragraph)
            if re.fullmatch(r"(\w+\.)?\w+", span) and not span.endswith('.py')
            and not keyword.iskeyword(span)}


def test_the_readme_names_exactly_the_mutation_targets():
    # every target by name, and a module-qualified name only in its module
    readme = (ROOT / 'README.md').read_text()
    paragraph, = (p for p in readme.split('\n\n') if p.startswith('`python3 tests/mutants.py`'))
    named = named_targets(paragraph)
    targets = {'%s.%s' % (Path(path).stem, name)
               for path, names in mutants.TARGETS.items() for name in names}
    assert {span.split('.')[-1] for span in named} == {t.split('.')[-1] for t in targets}
    assert {span for span in named if '.' in span} <= targets


def test_a_stale_mutation_paragraph_fails_the_guard():
    assert named_targets("mutates `homology._signed_image`, `_certify`, `morse.facet_table`, "
                         "`incidences`, `and`/`or`, `return True`, `-x` and `test_homology.py`") == {
        'homology._signed_image', '_certify', 'morse.facet_table', 'incidences'}

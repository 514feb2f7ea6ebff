"""Every public function, class and method in ``src/kneser_morse`` has a
caller there, or is pinned below with the reason it stays."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / 'src' / 'kneser_morse'

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

"""Per-layer tracing of kneser_morse from outside the package.

``Tracer.install()`` replaces each function named in ``SPANS`` and
``COUNTERS`` with a wrapper, in every ``kneser_morse`` module namespace that
binds it: ``wedge`` binds ``is_acyclic``, ``is_cover`` and
``element_matching`` through ``from .morse import``, ``collapse`` binds
``rotate`` and ``unstable_rep`` through ``from .graphs import``, and a patch
on the defining module alone would miss those calls.  Methods are patched on
their class, which every binding shares.  ``Tracer.restore()`` puts every
original back.

A span wrapper keeps a stack of open spans.  When a span closes, its
duration is added to its parent's child time, so

* ``<name>.s``      inclusive time of the outermost activations (a recursive
                    call inside an open span of the same name is not counted
                    twice);
* ``<name>.self_s`` inclusive time minus the time spent in wrapped children;
* ``<name>.calls``  activations, recursive ones included;

plus the size counters a span declares (faces, pairs, table entries, nnz).
Counter wrappers only count calls: those functions run millions of times,
and their time stays in the self time of the span that called them.
"""

from __future__ import annotations

import sys
import time

PACKAGE = 'kneser_morse'


# (module, attribute path, metric name, size counters); a size counter maps
# the call's (args, kwargs, result) to the amount it adds
SPANS = (
    ('graphs', 'graph', 'graphs.graph', None),
    ('complexes', 'complex_for', 'complexes.complex_for', None),
    ('complexes', 'NbhdComplex.faces', 'complexes.NbhdComplex.faces', None),
    ('complexes', 'NbhdComplex.all_faces', 'complexes.NbhdComplex.all_faces',
     {'cells': lambda args, kwargs, result: len(result)}),
    ('morse', 'Matching.__init__', 'morse.Matching',
     {'pairs': lambda args, kwargs, result: len(args[0].pairs)}),
    ('morse', 'element_matching', 'morse.element_matching', None),
    ('morse', 'is_acyclic', 'morse.is_acyclic',
     {'pairs': lambda args, kwargs, result: len(args[0].pairs)}),
    ('morse', 'verify_poset_map', 'morse.verify_poset_map', None),
    ('morse', 'compose_cluster', 'morse.compose_cluster', None),
    ('collapse', 'classify', 'collapse.classify', None),
    ('collapse', 'matching_A', 'collapse.matching_A', None),
    ('collapse', 'matching_B', 'collapse.matching_B', None),
    ('collapse', 'matching_C', 'collapse.matching_C', None),
    ('collapse', 'theorem2_matching', 'collapse.theorem2_matching', None),
    ('wedge', 'family_faces', 'wedge.family_faces',
     {'faces': lambda args, kwargs, result: len(result.faces),
      'table': lambda args, kwargs, result: len(result.cover)}),
    ('wedge', 'split_fibers', 'wedge.split_fibers', None),
    ('wedge', 'toggle_run', 'wedge.toggle_run', None),
    ('wedge', 'matching_P', 'wedge.matching_P', None),
    ('wedge', 'matching_Q', 'wedge.matching_Q', None),
    ('wedge', 'pq_classify', 'wedge.pq_classify', None),
    ('wedge', 'filtration', 'wedge.filtration', None),
    ('wedge', 'theorem3_counts', 'wedge.theorem3_counts', None),
    ('homology', 'boundary_matrix', 'homology.boundary_matrix',
     {'nnz': lambda args, kwargs, result: result.nnz()}),
    ('homology', 'smith_normal_form', 'homology.smith_normal_form', None),
    ('homology', 'rank_mod_p', 'homology.rank_mod_p', None),
    ('homology', 'relative_family', 'homology.relative_family', None),
    ('cli', 'main', 'cli.main', None),
)

COUNTERS = (
    ('graphs', 'check_vertex', 'graphs.check_vertex'),
    ('graphs', 'is_stable', 'graphs.is_stable'),
    ('graphs', 'rotate', 'graphs.rotate'),
    ('graphs', 'unstable_rep', 'graphs.unstable_rep'),
    ('complexes', 'face_key', 'complexes.face_key'),
    ('morse', 'is_cover', 'morse.is_cover'),
)


class _Span:
    __slots__ = ('calls', 'depth', 'incl', 'self_s', 'sizes')

    def __init__(self, sizes):
        self.calls = 0
        self.depth = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.sizes = dict.fromkeys(sizes or (), 0)


class Tracer:
    """Wraps the layer functions of an imported kneser_morse package."""

    def __init__(self):
        self.spans = {name: _Span(sizes) for _, _, name, sizes in SPANS}
        self.counts = {name: 0 for _, _, name in COUNTERS}
        self._stack: list[float] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrappers

    def _span_wrapper(self, fn, name: str, sizes):
        span = self.spans[name]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            span.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                span.depth -= 1
                span.calls += 1
                span.self_s += dt - child
                if not span.depth:
                    span.incl += dt
                if stack:
                    stack[-1] += dt
            if sizes:
                for key, size in sizes.items():
                    span.sizes[key] += size(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ patching

    def _patch(self, module: str, path: str, make) -> None:
        mod = sys.modules['%s.%s' % (PACKAGE, module)]
        if '.' in path:
            cls_name, attr = path.split('.')
            owner = getattr(mod, cls_name)
            original = owner.__dict__[attr]
            self._set(owner, attr, make(original))
            return
        original = getattr(mod, path)
        wrapper = make(original)
        bound = 0
        for mod_name, other in sorted(sys.modules.items()):
            if other is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + '.')):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._set(other, attr, wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError("%s.%s is bound nowhere" % (module, path))

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for module, path, name, sizes in SPANS:
                self._patch(module, path, lambda fn, n=name, s=sizes: self._span_wrapper(fn, n, s))
            for module, path, name in COUNTERS:
                self._patch(module, path, lambda fn, n=name: self._count_wrapper(fn, n))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def bindings(self) -> list[tuple[str, str]]:
        """(owner, attribute) of every patch currently installed."""
        return [(getattr(owner, '__name__', repr(owner)), attr)
                for owner, attr, _ in self._patches]

    # ------------------------------------------------------------ results

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, span in self.spans.items():
            out[name + '.s'] = span.incl
            out[name + '.self_s'] = span.self_s
            out[name + '.calls'] = span.calls
            for key, n in span.sizes.items():
                out['%s.%s' % (name, key)] = n
        for name, n in self.counts.items():
            out[name + '.calls'] = n
        return out

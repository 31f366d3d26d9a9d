"""Outside-in tracer for the benchmark's traced run.

It wraps the public functions of the traced ``sympnf`` modules, plus
``Mat.__mul__`` and the arithmetic and ``__eq__`` methods of the element and
field classes, from outside the library.  Each wrapper is rebound in every
``sympnf`` module that holds the original, so calls made inside the library
(``kernel`` -> ``rref``) are caught too.  Nothing under ``src/`` changes.

Function calls become spans kept in memory with their parent span; self time
is a span's duration minus the durations of its children, computed once at
the end.  Scalar methods run millions of times per run, so they are counted,
not timed, and in a pass of their own: a counting wrapper roughly doubles the
cost of a scalar operation, which would swell the self time of every span
that does arithmetic.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

SPAN_MODULES = ("fields", "poly", "linalg", "symplectic", "normalform", "serialize")

# Per-entry codec helpers.  Spanning them would move the codec's work out of
# the self time of certificate_to_json / certificate_from_json, which is the
# number a serialization change should move.
UNSPANNED = {
    "serialize.encode_scalar",
    "serialize.decode_scalar",
    "serialize.encode_matrix",
    "serialize.decode_matrix",
    "serialize.field_to_json",
    "serialize.field_from_json",
}

ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__truediv__", "__rtruediv__", "__neg__", "__pow__")

# (class in sympnf.fields, methods, counter name)
COUNTED = [
    ("FpElement", ARITH + ("__eq__",), "fields.fp_ops"),
    ("ExtElement", ARITH + ("__eq__",), "fields.ext_ops"),
    ("ExtensionField", ("_mul", "_inv"), "fields.ext_mul"),
    ("ExtensionField", ("__eq__",), "fields.ext_eq"),
    ("PrimeField", ("__eq__",), "fields.field_eq"),
    ("RationalField", ("__eq__",), "fields.field_eq"),
]


class Tracer:
    """Spans and counts for one traced run.  ``install_spans`` and
    ``install_counters`` patch the already imported ``sympnf`` modules and
    record the span and counter names they installed; ``uninstall`` restores
    the modules."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index); None while open
        self.current = -1
        self.counts = Counter()
        self.span_names = set()  # span names ever installed
        self.counter_names = set()  # counter names ever installed
        self._undo = []

    # -- recording

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent, self.current = self.current, idx
        return idx, parent

    def _close(self, name, idx, parent, start):
        self.spans[idx] = (name, start, time.perf_counter(), parent)
        self.current = parent

    @contextmanager
    def span(self, name):
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, idx, parent, start)

    def _spanned(self, name, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, parent = tracer._open()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, idx, parent, start)

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    # -- patching

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install_spans(self):
        modules = [m for k, m in list(sys.modules.items()) if k == "sympnf" or k.startswith("sympnf.")]
        for short in SPAN_MODULES:
            mod = sys.modules[f"sympnf.{short}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                name = f"{short}.{attr}"
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__ or name in UNSPANNED:
                    continue
                wrapper = self._spanned(name, fn)
                self.span_names.add(name)
                for m in modules:
                    for bound_name, value in list(vars(m).items()):
                        if value is fn:
                            self._set(m, bound_name, wrapper)
        mat = sys.modules["sympnf.linalg"].Mat
        self.span_names.add("linalg.matmul")
        self._set(mat, "__mul__", self._matmul(mat, mat.__mul__))
        self._set(mat, "__rmul__", self._matmul(mat, mat.__rmul__))

    def install_counters(self):
        fields = sys.modules["sympnf.fields"]
        for cls_name, methods, key in COUNTED:
            cls = getattr(fields, cls_name)
            self.counter_names.add(key)
            for meth in methods:
                self._set(cls, meth, self._counted(key, cls.__dict__[meth]))

    def _matmul(self, mat, fn):
        """Span Mat x Mat products as linalg.matmul; scalar scaling is not one."""
        spanned = self._spanned("linalg.matmul", fn)

        @functools.wraps(fn)
        def wrapper(a, b):
            return spanned(a, b) if isinstance(b, mat) else fn(a, b)

        return wrapper

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results

    def self_times(self):
        """Self time of every span, by span index."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_n, start, end, _p), c in zip(self.spans, child)]

    def table(self):
        """name -> [calls, inclusive seconds, self seconds].

        Inclusive time counts a recursive call's interval once per level.
        """
        out = {}
        for (name, start, end, _parent), self_s in zip(self.spans, self.self_times()):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += self_s
        return out

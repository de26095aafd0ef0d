"""Span recording for the traced run.

While installed, a ``Tracer`` replaces public minhess functions, in every
minhess module that holds them, with wrappers that record a span (name,
start, end, parent) in memory.  A layer's self time is its span durations
minus the part covered by its direct child spans.  The hottest leaf methods
get call counters only: a span per call would swamp the run.

Generator functions are recorded as one call and one span per resumption,
so the time between resumptions goes to whoever consumes them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# (metric prefix, module, attribute); "Class.method" names a method
SPANS = (
    ("roots.build_root_system", "roots", "build_root_system"),
    ("roots.parabolic", "roots", "parabolic"),
    ("roots.bracket_set", "roots", "bracket_set"),
    ("weyl.inverse", "weyl", "WeylElement.inverse"),
    ("weyl.word", "weyl", "WeylElement.word"),
    ("weyl.from_word", "weyl", "WeylElement.from_word"),
    ("weyl.one_line", "weyl", "one_line"),
    ("weyl.enumerate_min_reps", "weyl", "enumerate_min_reps"),
    ("weyl.longest_element", "weyl", "longest_element"),
    ("weyl.min_right_coset_rep", "weyl", "min_right_coset_rep"),
    ("weyl.descent_decomposition", "weyl", "descent_decomposition"),
    ("hess.delta_v", "hess", "delta_v"),
    ("hess.enumerate_admissible", "hess", "enumerate_admissible"),
    ("hess.decompose_admissible", "hess", "decompose_admissible"),
    ("hess.closure_intersecting_cells", "hess", "closure_intersecting_cells"),
    ("classes.hess_schubert_class", "classes", "hess_schubert_class"),
    ("classes.expand_typeA", "classes", "expand_typeA"),
    ("singular.hess_fixed_point_smooth", "singular", "hess_fixed_point_smooth"),
    ("singular.typeA_fixed_point_smooth", "singular", "typeA_fixed_point_smooth"),
    ("singular.hess_schubert_smooth", "singular", "hess_schubert_smooth"),
    ("singular.typeA_hess_schubert_smooth", "singular", "typeA_hess_schubert_smooth"),
    ("singular.peterson_singular_locus", "singular", "peterson_singular_locus"),
    ("oracle.jacobian_at_fixed_point", "oracle", "jacobian_at_fixed_point"),
    ("oracle.linear_terms_closed_form", "oracle", "linear_terms_closed_form"),
    ("oracle.jacobian_at_cell_point", "oracle", "jacobian_at_cell_point"),
    ("oracle.rank", "oracle", "rank"),
    ("cli.main", "cli", "main"),
)
COUNTERS = (
    ("weyl.act", "weyl", "WeylElement.act"),
    ("weyl.mul", "weyl", "WeylElement.__mul__"),
)
# the benchmark's own span around each operation: capture, dispatch, and
# whatever no wrapped function covers
OP_SPAN = "bench.op"


def layer_metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    names = []
    for prefix, _, _ in SPANS:
        names += [(f"{prefix}.calls", "count"), (f"{prefix}.self_s", "s")]
    names += [(f"{prefix}.calls", "count") for prefix, _, _ in COUNTERS]
    names += [
        (f"{OP_SPAN}.self_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.self_sum_s", "s"),
        ("trace.coverage", "ratio"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
    return names


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.calls = Counter()
        self._stack = []
        self._patches = []

    # - wrappers

    def span(self, name, fn):
        spans, stack, calls, clock = self.spans, self._stack, self.calls, time.perf_counter

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                calls[name] += 1
                gen = fn(*args, **kwargs)
                while True:
                    idx = len(spans)
                    spans.append(None)
                    parent = stack[-1] if stack else -1
                    stack.append(idx)
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        spans[idx] = (name, start, clock(), parent)
                        stack.pop()
                    yield item

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()

        return wrapper

    def counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # - installation

    def install(self):
        for targets, make in ((SPANS, self.span), (COUNTERS, self.counter)):
            for prefix, module, attr in targets:
                self._patch(prefix, importlib.import_module(f"minhess.{module}"), attr, make)

    def _patch(self, prefix, module, attr, make):
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[meth]
            if isinstance(raw, staticmethod):
                new = staticmethod(make(prefix, raw.__func__))
            else:
                new = make(prefix, raw)
            self._set(owner, meth, new)
            return
        original = getattr(module, attr)
        wrapper = make(prefix, original)
        # every minhess namespace that imported the function by name
        for name, mod in list(sys.modules.items()):
            if name == "minhess" or name.startswith("minhess."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, key, value):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    # - results

    def collect(self):
        """Per-name calls and self time since the last collect; then reset."""
        if self._stack:
            raise RuntimeError("collect() inside an open span")
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
        calls = Counter(self.calls)
        self.spans.clear()
        self.calls.clear()
        return calls, self_s

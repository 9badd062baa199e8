"""Spans at projdyn's layer boundaries, recorded from outside the program.

``Tracer.install`` replaces every public function of a layer where another
projdyn module (or a benchmark module passed in) has bound it by name, and
leaves the defining module alone: calls inside a layer are not spans, calls
across layers are.  Each span records its name, start, end, parent span and
task id; spans stay in memory until the run writes them out.

Self time of a span is its duration minus the time its child spans cover.
The code is single-threaded, so children never overlap and that cover is
the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import types
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("coeff", "mpoly", "resultant", "dynamics", "sympow", "cli")


def projdyn_modules():
    import projdyn
    mods = [projdyn]
    for info in pkgutil.iter_modules(projdyn.__path__):
        mods.append(importlib.import_module(f"projdyn.{info.name}"))
    return mods


def cross_layer_bindings(namespaces):
    """(module, name, function, layer) for each binding of a layer's public
    function in a module other than the one that defines it."""
    for mod in namespaces:
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or not isinstance(obj, types.FunctionType):
                continue
            home = obj.__module__ or ""
            layer = home.rpartition(".")[2]
            if (home.startswith("projdyn.") and layer in LAYERS
                    and home != mod.__name__ and not obj.__name__.startswith("_")):
                yield mod, name, obj, layer


def _macaulay_kind(a):
    """numeric/parametric, decided as macaulay_resultant decides it."""
    forms = a["forms"]
    if not forms:
        return "numeric"
    bs = forms[0].ring.nvars if a["block_size"] is None else a["block_size"]
    parametric = any(any(e for e in m[bs:]) for f in forms for m in f.terms)
    return "parametric" if parametric else "numeric"


def _sylvester_order(a):
    degrees = a["degrees"]
    if degrees is None:
        degrees = [f.homogeneous_degree_in_block(a["pair"]) or 0
                   for f in (a["p"], a["q"])]
    return sum(degrees)


class Tracer:
    def __init__(self):
        self.spans = []      # (name, start_ns, end_ns, parent index, task, raised)
        self.task = None
        self._stack = []
        self._patched = []
        self.maxima = defaultdict(int)     # name -> largest matrix order seen
        self.successes = defaultdict(int)  # name -> non-None returns

    # -- installation --------------------------------------------------------

    def install(self, extra_namespaces=()):
        for mod, name, fn, layer in cross_layer_bindings(
                projdyn_modules() + list(extra_namespaces)):
            self._patched.append((mod, name, fn))
            setattr(mod, name, self._wrap(fn, f"{layer}.{fn.__name__}"))

    def uninstall(self):
        for mod, name, fn in reversed(self._patched):
            setattr(mod, name, fn)
        self._patched.clear()

    def reset(self):
        self.spans = []
        self.maxima.clear()
        self.successes.clear()

    def _wrap(self, fn, name):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                return self._drawn(fn(*args, **kwargs), name)
            return generator

        signature = inspect.signature(fn)

        def arguments(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if name == "resultant.macaulay_resultant":
                label = f"{name}.{_macaulay_kind(arguments(args, kwargs))}"
            elif name == "mpoly.determinant":
                self._note_max(name, len(arguments(args, kwargs)["rows"]))
            elif name == "resultant.sylvester_resultant":
                self._note_max(name, _sylvester_order(arguments(args, kwargs)))
            result = self._span(label, fn, args, kwargs)
            if result is not None:
                self.successes[label] += 1
            return result
        return wrapper

    def _note_max(self, name, order):
        if order > self.maxima[name]:
            self.maxima[name] = order

    def _span(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        raised = True
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.task, raised)

    def _drawn(self, iterator, name):
        """Each value drawn from a generator is a span of its own."""
        while True:
            try:
                value = self._span(name, next, (iterator,), {})
            except StopIteration:
                return
            self.successes[name] += 1
            yield value

    # -- summaries -----------------------------------------------------------

    def summary(self):
        """Per span name: calls, raised, self_ns, successes, max order; plus
        the time covered by top-level spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        by_name = defaultdict(lambda: {"calls": 0, "raised": 0, "self_ns": 0})
        top_ns = 0
        for i, (name, start, end, parent, _, raised) in enumerate(self.spans):
            entry = by_name[name]
            entry["calls"] += 1
            entry["raised"] += raised
            entry["self_ns"] += end - start - child_ns[i]
            if parent < 0:
                top_ns += end - start
        for name, entry in by_name.items():
            entry["successes"] = self.successes.get(name, 0)
            entry["max_order"] = self.maxima.get(name, 0)
        return dict(by_name), top_ns

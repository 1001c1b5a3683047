"""Layer tracing from outside the package.

``Tracer.install`` wraps every public function and public method of the
layer modules of ``ctrlrom`` and rebinds each wrapper under every name the
package looks it up by (``greedy_rom.solve_exact`` as well as
``exact_solver.solve_exact``).  Nothing under ``src/`` is edited;
``Tracer.remove`` restores the originals.

A span is ``(name, layer, start, end, parent, query)``.  Spans are kept in
memory and written out once at the end of the run.  The numerical helpers of
the regressor modules run tens of thousands of times per fit, so they are
counted (calls and seconds) instead of recorded as spans; their time stays
in the self time of the calling surrogate span, which belongs to the same
layer.
"""

import inspect
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("system", "dynamics", "numerics", "exact_solver", "greedy_rom",
          "surrogates", "experiment")
COUNT_ONLY_MODULES = ("ctrlrom.surrogates.gpr", "ctrlrom.surrogates.kernel",
                      "ctrlrom.surrogates.mlp")
BENCH_LAYER = "bench"

# values kept from a wrapped call's result, by span name
RESULT_HOOKS = {"numerics.cg_solve": lambda result: result[1]}


def _layer_of(module_name):
    parts = module_name.split(".")
    if len(parts) >= 2 and parts[0] == "ctrlrom" and parts[1] in LAYERS:
        return parts[1]
    return None


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "ctrlrom" or name.startswith("ctrlrom."))]


class NullTracer:
    """Stand-in for untraced runs: no wrappers, no spans."""

    enabled = False
    query = None

    @contextmanager
    def span(self, name):
        yield


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.results = {}
        self.counts = {}  # name -> [calls, seconds]
        self.query = None
        self.overhead_s = 0.0
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _open(self):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent

    @contextmanager
    def span(self, name):
        """A span of the benchmark's own code (stages)."""
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, BENCH_LAYER, start, end, parent, self.query)

    def _wrap(self, fn, name, layer, method=False):
        tracer = self
        hook = RESULT_HOOKS.get(name)

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            label = name
            if method:
                owner = args[0] if isinstance(args[0], type) else type(args[0])
                label = f"{layer}.{owner.__name__}.{name}"
            sid, parent = tracer._open()
            t1 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (label, layer, t1, t2, parent, tracer.query)
            if hook is not None:
                tracer.results[sid] = hook(result)
            tracer.overhead_s += (t1 - t0) + (time.perf_counter() - t2)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_counted(self, fn, name):
        counts = self.counts.setdefault(name, [0, 0.0])

        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[0] += 1
                counts[1] += time.perf_counter() - t0

        counted.__wrapped__ = fn
        return counted

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the public functions and methods of every layer module."""
        wrappers = {}
        for mod in _package_modules():
            layer = _layer_of(mod.__name__)
            if layer is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    if mod.__name__ in COUNT_ONLY_MODULES:
                        wrappers[id(obj)] = self._wrap_counted(obj, name)
                    else:
                        wrappers[id(obj)] = self._wrap(obj, name, layer)
                elif inspect.isclass(obj):
                    for meth, member in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        if inspect.isfunction(member):
                            self._patch(obj, meth, self._wrap(member, meth, layer, method=True))
                        elif isinstance(member, classmethod):
                            wrapped = self._wrap(member.__func__, meth, layer, method=True)
                            self._patch(obj, meth, classmethod(wrapped))
        # rebind every name under which the package looks a function up
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        return self

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------------

    def table(self):
        """Spans as arrays: names, layers, start, end, parent, query."""
        spans = self.spans
        return dict(
            name=[s[0] for s in spans],
            layer=[s[1] for s in spans],
            start=np.array([s[2] for s in spans]),
            end=np.array([s[3] for s in spans]),
            parent=np.array([s[4] for s in spans], dtype=int),
            query=[s[5] for s in spans],
        )

    def write(self, path, origin):
        """Write the spans (times relative to ``origin``) and counts as JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], round(s[2] - origin, 9), round(s[3] - origin, 9), s[4],
                 None if s[5] is None else list(s[5])] for s in self.spans]
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "query"],
            "names": names,
            "layers": {n: n.split(".", 1)[0] for n in names},
            "spans": rows,
            "counted": {k: {"calls": v[0], "seconds": v[1]} for k, v in self.counts.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def nearest_ancestor(table, predicate):
    """For every span, the id of the closest span (itself included) whose
    name satisfies ``predicate``, or -1."""
    names, parent = table["name"], table["parent"]
    out = np.full(len(names), -1, dtype=int)
    for i, name in enumerate(names):
        if predicate(name):
            out[i] = i
        elif parent[i] >= 0:
            out[i] = out[parent[i]]
    return out


def self_times(table):
    """Each span's duration minus the time its direct children cover."""
    dur = table["end"] - table["start"]
    parent = table["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered

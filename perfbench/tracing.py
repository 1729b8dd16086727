"""Per-layer tracing from outside the package.

The tracer replaces each layer's public module-level functions, and the
arithmetic operators of ``Polynomial``, with wrappers that open a span on
entry and close it on exit. The same wrapper is also bound wherever another
presmat module re-bound the function by ``from .matrices import det`` and
the like, so calls across layers are seen too.

Spans are kept on an in-memory stack and folded into totals as they close:
calls and inclusive seconds per function (recursive calls counted once in
the seconds), and self seconds per layer, which is a span's duration minus
the part its child spans cover. Folding as spans close keeps memory flat
where the ring operators open millions of spans per pass.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("ring", "matrices", "groebner", "presentation", "construct", "betti", "cli")

# Polynomial's operators and the name each is reported under.
OPERATORS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul", "__pow__": "pow",
}


class Tracer:
    def __init__(self):
        self.calls = {}     # "layer.function" -> calls
        self.seconds = {}   # "layer.function" -> inclusive seconds
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.self_s["bench"] = 0.0
        self._stack = []    # child-time accumulators of the open spans
        self._saved = []    # (owner, attribute, original) to restore
        self._root = self._wrap(lambda fn, *args: fn(*args), "bench.op", "bench")

    def _wrap(self, fn, name, layer):
        calls, seconds, self_s, stack = self.calls, self.seconds, self.self_s, self._stack
        calls.setdefault(name, 0)
        seconds.setdefault(name, 0.0)
        depth = [0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            depth[0] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[0] -= 1
                if not depth[0]:
                    seconds[name] += elapsed
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def span(self, fn, *args):
        """Run fn(*args) as the benchmark's own root span."""
        return self._root(fn, *args)

    def snapshot(self):
        return dict(self.calls), dict(self.seconds), dict(self.self_s)

    def install(self):
        modules = {name: sys.modules["presmat." + name] for name in LAYERS}
        replaced = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    replaced[id(obj)] = self._wrap(obj, "%s.%s" % (layer, attr), layer)
        poly = modules["ring"].Polynomial
        for attr, short in OPERATORS.items():
            fn = vars(poly)[attr]
            if id(fn) not in replaced:
                replaced[id(fn)] = self._wrap(fn, "ring." + short, "ring")
            self._set(poly, attr, replaced[id(fn)])
        # every binding of a wrapped function in any presmat module, the
        # package's own re-exports included
        for modname, mod in list(sys.modules.items()):
            if modname == "presmat" or modname.startswith("presmat."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and id(obj) in replaced:
                        self._set(mod, attr, replaced[id(obj)])

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

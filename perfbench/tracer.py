"""Per-layer call counts and self times, recorded from outside gmanvol.

install() replaces every public function of the layer modules, and the
GraphManifold lookup methods, with a counting wrapper.  It rebinds the
name in every gmanvol module that imported it (for example both
gmanvol.cli.validate and gmanvol.volume.validate), so calls made inside
the package are counted too.  Private helpers are not wrapped: their time
is part of the public function that called them.  JSON decoding is its own
layer: each module's json.loads is wrapped as "json.loads".  Self time is
inclusive time minus the inclusive time of wrapped callees.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import types
from collections import Counter
from time import perf_counter_ns

LAYERS = ("cli", "graph", "coverings", "volume", "seifert", "classify", "serialize")
METHODS = {"graph": {"GraphManifold": ("piece", "adjacent_pieces", "piece_ids")}}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self._children = [0]

    def _wrap(self, name: str, fn):
        calls, self_ns, incl_ns, children = self.calls, self.self_ns, self.incl_ns, self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                self_ns[name] += elapsed - children.pop()
                incl_ns[name] += elapsed
                calls[name] += 1
                children[-1] += elapsed

        return wrapper

    def install(self) -> None:
        """Wrap the layers of the imported gmanvol package."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"gmanvol.{layer}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    replaced[obj] = self._wrap(f"{layer}.{attr}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    if method in vars(cls):
                        setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", vars(cls)[method]))
        traced_json = types.ModuleType("json")
        traced_json.__dict__.update(vars(json))
        traced_json.loads = self._wrap("json.loads", json.loads)
        for name, module in list(sys.modules.items()):
            if name == "gmanvol" or name.startswith("gmanvol."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in replaced:
                        setattr(module, attr, replaced[obj])
                    elif obj is json:
                        setattr(module, attr, traced_json)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block leave every count and time as it was."""
        saved = [(c, c.copy()) for c in (self.calls, self.self_ns, self.incl_ns)]
        try:
            yield
        finally:
            for counter, copy in saved:
                counter.clear()
                counter.update(copy)

    def module_ns(self) -> Counter:
        """Self time summed per layer module."""
        totals: Counter = Counter()
        for name, ns in self.self_ns.items():
            totals[name.split(".", 1)[0]] += ns
        return totals

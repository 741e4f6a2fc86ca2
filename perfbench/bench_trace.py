"""Per-layer tracing from outside the program.

``Tracer.install()`` rebinds every public function and public method of
the loaded ``dfadist`` modules to a timing wrapper, in every namespace
that holds it: the defining module, each module that imported the name,
and the class for methods.  ``uninstall()`` puts every original back.
Nothing under ``src/`` is edited.

A span is one call.  Its self time is its duration minus the time of
the spans it encloses.  Stats are keyed ``<module>.<function>`` (methods
use the method name, e.g. ``automata.minimize``) and hold ``self_s``,
``calls`` and the counts below.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from types import ModuleType
from typing import Any, Callable

PACKAGE = "dfadist"

# Extra counts per span, read from the call's arguments and result.
COUNTS: dict[str, Callable[[tuple, Any], dict[str, int]]] = {
    "automata.product": lambda args, out: {"states_out": out.state_count},
    "automata.minimize": lambda args, out: {
        "states_in": args[0].state_count,
        "states_out": out.state_count,
    },
    "automata.parse_dfa": lambda args, out: {"rows": out.state_count},
    "distinguish.synth_min_distinguishing": lambda args, out: {
        "found": int(out.found),
        "bound_sum": out.bound,
    },
    "satsolve.solve": lambda args, out: {"sat_answers": int(out is not None)},
    "satsolve.parse_dimacs": lambda args, out: {"clauses": len(out.clauses)},
    "reduction.build_upper_dfa": lambda args, out: {"states_out": out.state_count},
}


def package_modules() -> dict[str, ModuleType]:
    return {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    }


def _layer(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.rebound: list[tuple[object, str, object]] = []  # (owner, name, original)
        self._child_time: list[float] = []

    def _targets(self) -> dict[object, str]:
        """Every public function and method of the package, with its stat key."""
        targets: dict[object, str] = {}
        for mod in package_modules().values():
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                layer = _layer(mod.__name__)
                if inspect.isfunction(obj):
                    targets[obj] = f"{layer}.{name}"
                elif inspect.isclass(obj):
                    for attr, member in vars(obj).items():
                        if inspect.isfunction(member) and not attr.startswith("_"):
                            targets[member] = f"{layer}.{attr}"
        keys = list(targets.values())
        clash = {k for k in keys if keys.count(k) > 1}
        if clash:
            raise RuntimeError(f"two traced callables share a stat key: {sorted(clash)}")
        return targets

    def _wrap(self, fn: Callable, key: str) -> Callable:
        stats = self.stats[key]
        count = COUNTS.get(key)
        child_time = self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats["self_s"] += elapsed - child_time.pop()
                stats["calls"] += 1
                if child_time:
                    child_time[-1] += elapsed
            if count is not None:
                for stat, value in count(args, out).items():
                    stats[stat] += value
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self.rebound:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): (fn, self._wrap(fn, key)) for fn, key in self._targets().items()}
        modules = list(package_modules().values())
        classes = {
            id(obj): obj
            for mod in modules
            for obj in vars(mod).values()
            if inspect.isclass(obj) and obj.__module__.startswith(PACKAGE)
        }
        for owner in modules + list(classes.values()):
            for name, obj in list(vars(owner).items()):
                fn, wrapper = wrappers.get(id(obj), (None, None))
                if fn is obj:
                    self.rebound.append((owner, name, obj))
                    setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self.rebound:
            owner, name, original = self.rebound.pop()
            setattr(owner, name, original)


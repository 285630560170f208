"""Span tracing of simplexcr's public functions, installed from outside.

The program is not modified. ``install`` replaces every public function of
the layer modules with a timing wrapper, and it replaces the function under
every name it is bound to: ``from .regions import membership_grid`` in
``functionals`` binds a second name that the wrapper must also take over,
or calls through it would go unseen.

A span's self time is its duration minus the time its child spans cover.
Calls nest strictly (the program is single-threaded), so the covered time
is the sum of the children's durations.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("core", "regions", "functionals", "volume", "bandit", "cli")

# In cli only the entry point is a layer function; the cmd_* handlers are
# its dispatch targets, and their formatting and writing belong to main's
# self time.
_CLI_FUNCTIONS = ("main",)


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "true_results", "points")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.true_results = 0
        self.points = 0


class Tracer:
    """Per-function call counts and times, call-site counts, and the time
    covered by top-level spans (those opened with no span active)."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.site_calls: dict[tuple[str, str], int] = {}
        self.top_level_s = 0.0
        self._child_s: list[float] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())


def _layer_functions() -> dict[int, tuple[str, object]]:
    """id(function) -> (layer.name, function) for every public function
    defined in a layer module."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"simplexcr.{layer}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if layer == "cli" and attr not in _CLI_FUNCTIONS:
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from another layer; found at its home
            if inspect.isgeneratorfunction(obj):
                continue  # a span would close before the caller iterates
            found[id(obj)] = (f"{layer}.{attr}", obj)
    return found


def _wrap(tracer: Tracer, name: str, site: str, fn):
    stat = tracer.stat(name)
    site_key = (name, site)
    child_stack = tracer._child_s
    count_points = name == "regions.levelset_membership_grid"
    count_true = name == "regions.outer_bound_reject"
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        child_stack.append(0.0)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            child = child_stack.pop()
            if child_stack:
                child_stack[-1] += elapsed
            else:
                tracer.top_level_s += elapsed
            stat.calls += 1
            stat.total_s += elapsed
            stat.self_s += elapsed - child
            tracer.site_calls[site_key] = tracer.site_calls.get(site_key, 0) + 1
        if count_points:
            points = args[2] if len(args) > 2 else kwargs["points"]
            stat.points += len(points)
        if count_true and result:
            stat.true_results += 1
        return result

    return wrapper


def install(tracer: Tracer):
    """Wrap every binding of every layer function in every loaded simplexcr
    module. Returns a callable that restores the original bindings."""
    targets = _layer_functions()
    patched = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "simplexcr" or modname.startswith("simplexcr.")):
            continue
        site = modname.rpartition(".")[2]
        for attr, obj in list(vars(module).items()):
            hit = targets.get(id(obj))
            if hit is None or hit[1] is not obj:
                continue
            setattr(module, attr, _wrap(tracer, hit[0], site, obj))
            patched.append((module, attr, obj))

    def restore() -> None:
        for module, attr, obj in patched:
            setattr(module, attr, obj)

    return restore

"""Span tracing of the pamper layers, applied from outside the program.

``Tracer.install`` wraps the public functions of each layer module
(``corpus``, ``preprocess``, ``_kernels``, ``trees``, ``recommend``,
``evaluate``, ``cli``), plus ``trees._choose_split`` and the query methods
of ``recommend.ModelArena``. A wrapper replaces the original in every
``pamper`` module namespace that holds it, matched by identity, because the
program looks functions up in several places: ``cli`` binds names with
``from .x import y``, ``evaluate`` binds ``train`` and ``ModelArena``,
``trees`` reads ``_kernels.node_counts`` through the module, and some
commands import at call time. ``uninstall`` restores every binding.

A span is ``(id, parent, name, thread, start_ns, end_ns, attrs)``. Each
thread keeps its own parent stack; a span that opens on a thread with an
empty stack (``build_tree`` on the training pool) takes the innermost open
span of the installing thread as its parent. A call that re-enters a
function already open on its thread (recursion) records no span.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from time import perf_counter_ns

LAYERS = ("corpus", "preprocess", "_kernels", "trees", "recommend", "evaluate", "cli")
PRIVATE = {"trees": ("_choose_split",)}
ARENA_METHODS = ("__init__", "expectations", "batch_which", "batch_rank")


def _rows_of_idx(args, kwargs, result):
    return {"rows": len(args[2])}


def _rows_of_matrix(args, kwargs, result):
    return {"rows": len(args[1])}


def _rows_of_corpus(args, kwargs, result):
    return {"rows": len(result)}


def _trained_model(args, kwargs, result):
    # Node counts and the worker count are taken in finish(), outside every span.
    return {"model": result, "threads": kwargs.get("threads", args[3] if len(args) > 3 else None)}


ATTRS = {
    "_kernels.node_counts": _rows_of_idx,
    "recommend.ModelArena.expectations": _rows_of_matrix,
    "corpus.parse_database": _rows_of_corpus,
    "trees.train": _trained_model,
}


class Tracer:
    """Records spans in memory while installed; ``finish`` returns them."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = self._stack()
        self._bindings: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            for _, open_name in stack:
                if open_name == name:
                    return fn(*args, **kwargs)
            if stack:
                parent = stack[-1][0]
            elif stack is not self._home and self._home:
                parent = self._home[-1][0]
            else:
                parent = 0
            sid = next(self._ids)
            stack.append((sid, name))
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                attrs = attrs_of(args, kwargs, result) if attrs_of and result is not None else None
                spans.append((sid, parent, name, threading.get_ident(), start, end, attrs))

        return traced

    def install(self) -> None:
        importlib.import_module("pamper.cli")
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"pamper.{layer}")
            for attr, obj in list(vars(module).items()):
                if not _defined_under(obj, module.__name__):
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                wrappers.setdefault(id(obj), self._wrap(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "pamper" or mod_name.startswith("pamper.")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._bindings.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        arena = sys.modules["pamper.recommend"].ModelArena
        for attr in ARENA_METHODS:
            original = arena.__dict__[attr]
            label = "init" if attr == "__init__" else attr
            self._bindings.append((arena, attr, original))
            setattr(arena, attr, self._wrap(f"recommend.ModelArena.{label}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    def finish(self) -> list[tuple]:
        """Uninstall, resolve deferred attributes, and hand over the spans."""
        self.uninstall()
        from pamper.trees import resolve_threads, tree_stats

        spans = []
        for sid, parent, name, tid, start, end, attrs in self.spans:
            if attrs and "model" in attrs:
                trees = attrs.pop("model").trees
                stats = [tree_stats(tree) for tree in trees.values()]
                attrs["nodes"] = sum(s.internal + s.leaves for s in stats)
                attrs["leaves"] = sum(s.leaves for s in stats)
                attrs["workers"] = resolve_threads(attrs.pop("threads")) if len(trees) > 1 else 1
            spans.append((sid, parent, name, tid, start, end, attrs))
        self.spans = []
        return spans


def _defined_under(obj, package: str) -> bool:
    """A function (Python or compiled) defined in ``package`` or a submodule.

    ``_kernels`` binds its entry points from ``pure`` or from the Cython
    extension ``_ct``, whose functions are not ``types.FunctionType``;
    classes are left alone so that ``isinstance`` checks keep working.
    """
    if isinstance(obj, type) or not callable(obj):
        return False
    owner = getattr(obj, "__module__", None) or ""
    return owner == package or owner.startswith(package + ".")


def self_times(spans) -> tuple[dict[int, int], int]:
    """Per-span self time in ns, and the time covered by top-level spans.

    Self time is a span's duration minus the union of its children's
    intervals; children on pool threads overlap, so a plain sum could
    exceed the parent.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    top: list[tuple[int, int]] = []
    for sid, parent, _, _, start, end, _ in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
        else:
            top.append((start, end))
    own = {}
    for sid, _, _, _, start, end, _ in spans:
        own[sid] = (end - start) - _covered(children.get(sid, ()), start, end)
    return own, _covered(top)


def _covered(intervals, lo=None, hi=None) -> int:
    """Length of the union of intervals, optionally clipped to [lo, hi]."""
    total = 0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if lo is not None:
            start, end = max(start, lo), min(end, hi)
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total

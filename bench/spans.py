"""Namespace wrappers that time dircp's public functions from outside the package.

dircp modules import each other's functions by name (``from .comms import
serialize``), so one function is bound in several module namespaces. A patch
replaces every binding of the same object in every loaded ``dircp`` module and
puts each one back on removal. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


class Patches:
    """Replaced namespace bindings, restored in reverse order by ``remove``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, object]] = []  # (wrapper, original)

    def install(self, dotted: str, make_wrapper) -> bool:
        """Rebind every name that holds the object ``dotted`` names.

        Returns False, and patches nothing, when the module or the name no
        longer exists. Only modules loaded now are patched, so import every
        module that binds the object first.
        """
        module_name, _, attr = dotted.rpartition(".")
        try:
            current = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            return False
        wrapper = make_wrapper(current)
        self._wrappers.append((wrapper, current))
        for module in _dircp_modules():
            for key, value in list(vars(module).items()):
                if value is current:
                    self._saved.append((module, key, current))
                    setattr(module, key, wrapper)
        return True

    def remove(self) -> None:
        while self._saved:
            module, key, original = self._saved.pop()
            setattr(module, key, original)
        # A module first imported while patched bound a wrapper that was never
        # saved; put the original back there too, innermost wrapper last.
        for wrapper, original in reversed(self._wrappers):
            for module in _dircp_modules():
                for key, value in list(vars(module).items()):
                    if value is wrapper:
                        setattr(module, key, original)
        self._wrappers.clear()


def _dircp_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "dircp" or name.startswith("dircp."))]


class Tracer:
    """In-memory spans (name, start_ns, end_ns, parent, op) and per-name counters."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.count_errors: set[str] = set()  # span names whose counters failed
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """A wrapper recording one span per call and, optionally, counters.

        ``count(args, kwargs, result)`` returns a dict of counter increments.
        It runs after the span closes, so its cost lands in the parent's self
        time rather than in this layer's.
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if count is not None:
                try:
                    increments = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.count_errors.add(name)
                else:
                    for key, value in increments.items():
                        self.counters[key] += value
            return result

        return traced


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent, op) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def per_name(spans) -> tuple[dict[str, int], dict[str, int]]:
    """Total self time (ns) and call count per span name."""
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        self_ns[span[0]] += own
        calls[span[0]] += 1
    return dict(self_ns), dict(calls)

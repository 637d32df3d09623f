"""Spans recorded around the calls into each fermsim layer.

The benchmark never edits the program.  It replaces a function by a
timing wrapper in the module namespace where the caller looks the name up
at call time (``fermsim.simulate.rhs_vector`` is what the IDE model's
closures call), so every call through that name opens a span.

A span is ``(name, start, end, child)``: ``child`` is the part of
``[start, end]`` covered by spans opened inside it, so a span's self time
is ``end - start - child``.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Hook:
    """One wrapped name: span ``name`` around ``module.attr``."""

    name: str
    module: str
    attr: str
    keep_result: bool = False


class HookError(RuntimeError):
    """A hook could not be installed, or was installed and never ran."""


class Recorder:
    """Installs hooks, records their spans in memory, and restores them."""

    def __init__(self, hooks):
        self.hooks = tuple(hooks)
        self.spans = []
        self.results = []
        self._open = []
        self._saved = []

    def _wrap(self, hook, fn):
        spans, results, open_children = self.spans, self.results, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            open_children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                child = open_children.pop()
                if open_children:
                    open_children[-1] += end - start
                spans.append((hook.name, start, end, child))
            if hook.keep_result:
                results.append(result)
            return result

        return wrapper

    def __enter__(self):
        for hook in self.hooks:
            module = importlib.import_module(hook.module)
            fn = getattr(module, hook.attr, None)
            if not callable(fn):
                self.__exit__(None, None, None)
                raise HookError(f"hook target {hook.module}.{hook.attr} not found")
            self._saved.append((module, hook.attr, fn))
            setattr(module, hook.attr, self._wrap(hook, fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        return False

    def take(self):
        """Return and clear the spans and kept results recorded so far."""
        spans, results = list(self.spans), list(self.results)
        self.spans.clear()
        self.results.clear()
        return spans, results

    def check_fired(self, spans):
        """Raise HookError naming every installed hook that recorded no span."""
        fired = {name for name, *_ in spans}
        silent = [f"{h.module}.{h.attr} ({h.name})" for h in self.hooks
                  if h.name not in fired]
        if silent:
            raise HookError("hooks never ran: " + ", ".join(silent))

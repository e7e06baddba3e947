"""Outside-in span tracing of the program's layers.

:class:`Tracer` replaces chosen module functions and class methods with
timing wrappers while a ``with tracer.installed():`` block is open and puts
the originals back when it closes.  A module function is rebound in every
loaded ``repro`` module that imported it by name, so callers that did
``from x import f`` are traced too.

Each span records its duration and the time its child spans covered; a
layer's *self time* is the difference.  Spans nest per thread.  A wrapper
called in a forked worker process passes straight through, so only the
coordinator is traced.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Span accumulator plus the attribute patches that feed it.

    ``targets`` is a list of ``(module, qualname, span, group, counter)``:
    ``qualname`` is ``"f"`` or ``"Class.method"``; ``group`` names a set of
    spans whose outermost occurrence accumulates inclusive time (or None);
    ``counter(tracer, args, result, began)`` may add exact counts or append
    to :attr:`events` (or is None); ``began`` is the ``time.monotonic()``
    of the call's start.
    Names ending in ``"[iter]"`` mark functions that return an iterator:
    the span then also covers every ``next()`` on it.
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self.self_s = defaultdict(float)
        self.group_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.events = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pid = os.getpid()

    # -- accounting -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, group: str | None = None):
        stack = self._stack()
        outer_group = group is not None and all(f[1] != group for f in stack)
        frame = [name, group, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            with self._lock:
                self.self_s[name] += duration - frame[2]
                self.calls[name] += 1
                if outer_group:
                    self.group_s[group] += duration
            if stack:
                stack[-1][2] += duration

    def add(self, name: str, amount) -> None:
        with self._lock:
            self.counts[name] += int(amount)

    # -- patching -------------------------------------------------------
    def _wrap(self, fn, span, group, counter, iterates):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            began = time.monotonic()
            with tracer.span(span, group):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(tracer, args, result, began)
            if iterates:
                return tracer._iterate(result, span, group)
            return result

        return wrapper

    def _iterate(self, iterator, span, group):
        try:
            while True:
                with self.span(span, group):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                with self.span(span, group):
                    close()

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        undo = []
        try:
            for module_name, qualname, span, group, counter in self.targets:
                iterates = qualname.endswith("[iter]")
                qualname = qualname.removesuffix("[iter]")
                module = importlib.import_module(module_name)
                if "." in qualname:
                    owner_name, attr = qualname.split(".")
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    setattr(owner, attr, self._wrap(original, span, group, counter, iterates))
                    undo.append((owner, attr, original))
                    continue
                original = getattr(module, qualname)
                wrapped = self._wrap(original, span, group, counter, iterates)
                for name, loaded in list(sys.modules.items()):
                    if not name.startswith("repro") or loaded is None:
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, attr, wrapped)
                            undo.append((loaded, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

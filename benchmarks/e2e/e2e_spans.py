"""Spans taken from outside the program: a recorder plus a shim registry.

The benchmark may not edit ``src/repro``, so per-layer host time is
measured by substituting timing shims for the public callables at each
layer boundary — in this process only, originals restored on exit. Spans
keep a stack, so a layer's *self* time is its span's duration minus the
part its child spans cover; summed over every span under one root the
self times equal the root's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager


class SpanRecorder:
    """In-memory spans: ``[layer, name, start, end, parent_index]``."""

    def __init__(self, clock=time.process_time) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, layer: str, name: str, fn):
        """``fn`` with a span recorded around every call."""
        spans, stack, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            index = len(spans)
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return shim

    def drain(self) -> list[list]:
        """Hand over the closed spans recorded so far and start afresh."""
        if self._open:
            raise RuntimeError("drain() called inside an open span")
        spans = self.spans[:]
        # cleared in place: installed shims hold a reference to this list
        self.spans.clear()
        return spans


def self_times(spans: list[list]) -> dict[str, float]:
    """Per-layer self time: duration minus the children's durations."""
    covered = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, float] = {}
    for (layer, _, start, end, _), children in zip(spans, covered):
        totals[layer] = totals.get(layer, 0.0) + (end - start) - children
    return totals


def durations_of(spans: list[list], name: str) -> list[float]:
    """Every call's duration for one shimmed target."""
    return [end - start for _, span_name, start, end, _ in spans if span_name == name]


def resolve(target: str):
    """``"pkg.module:Attr.attr"`` -> ``(owner, attribute name, raw attribute)``.

    The raw attribute is what the owner's namespace holds (a
    ``staticmethod`` object, not the function it unwraps to). Raises
    ``ImportError`` / ``AttributeError`` when the target is gone.
    """
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name, inspect.getattr_static(owner, name)


@contextmanager
def installed(recorder: SpanRecorder, shims):
    """Substitute a timing shim for every ``(layer, target)`` in ``shims``.

    Yields ``{layer: [unresolved targets]}``: a layer with any target
    missing must be reported as unmeasured, never as a smaller number.
    Originals (the raw class attributes, so ``staticmethod`` wrappers
    survive) are put back on exit, also when the traced code raises.
    """
    missing: dict[str, list[str]] = {}
    undo = []
    try:
        for layer, target in shims:
            try:
                owner, name, raw = resolve(target)
            except (ImportError, AttributeError):
                missing.setdefault(layer, []).append(target)
                continue
            own = name in vars(owner)  # False: inherited, restore by deleting
            if isinstance(raw, staticmethod):
                shim = staticmethod(recorder.wrap(layer, target, raw.__func__))
            elif inspect.isfunction(raw):
                shim = recorder.wrap(layer, target, raw)
            else:
                missing.setdefault(layer, []).append(target)
                continue
            setattr(owner, name, shim)
            undo.append((owner, name, raw, own))
        yield missing
    finally:
        for owner, name, raw, own in reversed(undo):
            if own:
                setattr(owner, name, raw)
            else:
                delattr(owner, name)

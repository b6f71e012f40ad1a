"""The cyclic collector, paused while blocks are walked.

The block pipeline builds no reference cycle: everything it allocates —
runtime transactions, prepared blocks, dependency graphs, versions,
certificates, spans — dies by its reference count, so the hundreds of
collector passes a run used to trigger freed nothing
(``tests/test_collector.py`` pins the invariant for every registered
workload x scheme, sharded, traced, drilled, replayed and recovered). The
loops that walk blocks therefore run with the collector off, and this
module is the one place that switches it (``make one-collector``).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager


@contextmanager
def collector_paused():
    """Run the body with the cyclic collector disabled.

    Only an entry that finds the collector enabled pauses it; on exit that
    entry *settles* — ages what the body allocated and kept into the oldest
    generation, so the caller inherits no pending collection — and
    re-enables the collector. The settle is ``gc.freeze()`` then
    ``gc.unfreeze()``: two list splices that move every tracked object into
    the oldest generation and zero the young count without walking
    anything, so a paused section runs no collection at all. A cycle the
    body left behind is still freed by the next full collection. Only when
    the caller holds frozen objects of its own (``gc.get_freeze_count()``
    above 0), which ``unfreeze`` would release, does the settle fall back
    to one ``gc.collect(1)`` pass over the young generations.

    An entry that finds the collector disabled (nested inside another
    pause, or a caller who keeps it off) does nothing on either side:
    settling is the outermost pause's job, and a collector the caller
    disabled stays disabled. Also usable as a decorator
    (``@collector_paused()``).
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        if gc.get_freeze_count():
            gc.collect(1)
        else:
            gc.freeze()
            gc.unfreeze()
        gc.enable()

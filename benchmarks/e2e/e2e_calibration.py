"""A fixed piece of interpreter work that says how fast this box is *now*.

The sizing box is a 2-vCPU guest on a shared host. Its CPU seconds stretch
by 20-70 % in bursts of one to a few seconds (a busy sibling hardware
thread: steal stays 0 and wall/CPU stays 1.01, so the guest cannot subtract
it), and bytecode-bound code stretches the most. The harness therefore
times one pass of this kernel right before and right after every timed
section and reports the section in **calibrated seconds**: host seconds x
``CAL_REF_S`` / the mean of the two passes, i.e. the seconds the section
would have taken had the box run at its calm speed throughout.

The kernel is the same kind of work as the simulator's hot loops (method
calls, attribute access on small records, tuple-keyed dicts, sets, an
occasional sort and string format) over a few MB of objects. It is part of
the benchmark, not of the program: no change under ``src/`` can move it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

#: host seconds of one kernel pass on the sizing box in its calm hours
#: (passes took 0.042-0.10 s over an afternoon, the fastest tenth 0.045).
#: Calibrated seconds equal host seconds at this speed; the constant only
#: fixes the scale and must never change, or every baseline moves.
CAL_REF_S = 0.0480
#: loop iterations of one pass
PASS_ITERATIONS = 64_000


@dataclass
class _Record:
    key: tuple
    value: int
    reads: int = 0

    def touch(self, delta: int) -> int:
        self.reads += 1
        self.value = (self.value + delta) & 0xFFFF
        return self.value


class _Store:
    def __init__(self, size: int) -> None:
        self.rows = {(i, i % 7): _Record((i, i % 7), i) for i in range(size)}
        self.keys = list(self.rows)
        self.log: list = []

    def get(self, key: tuple) -> _Record:
        return self.rows.get(key)

    def put(self, key: tuple, delta: int) -> None:
        record = self.rows[key]
        self.log.append((key, record.touch(delta)))
        if len(self.log) > 64:
            self.log = sorted(self.log)[:8]


class Calibrator:
    """The kernel's state: one per measurement, made after the imports and
    before the first timed section."""

    def __init__(self) -> None:
        self.store = _Store(16_384)
        self.lcg = 12345

    def kernel(self, iterations: int) -> int:
        """``iterations`` pseudo-random reads and writes of the store."""
        store, keys = self.store, self.store.keys
        size = len(keys)
        x = self.lcg
        acc = 0
        reads = set()
        for i in range(iterations):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            key = keys[x % size]
            record = store.get(key)
            if x & 3:
                acc += record.value
                reads.add(key)
            else:
                store.put(key, i)
            if not i & 255:
                acc += len(f"{acc}:{key!r}") + len(sorted(reads, reverse=True)[:4])
                reads = set()
        self.lcg = x
        return acc

    def pass_s(self) -> float:
        """Host seconds (``process_time``) of one kernel pass."""
        started = time.process_time()
        self.kernel(PASS_ITERATIONS)
        return time.process_time() - started


def calibrated(seconds: float, before: float, after: float) -> float:
    """``seconds`` of host time, bracketed by two kernel passes that took
    ``before`` and ``after`` host seconds, in calibrated seconds."""
    return seconds * CAL_REF_S / ((before + after) / 2.0)

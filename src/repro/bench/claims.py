"""Claims: what each experiment's figure says, as data checked per point.

Every experiment in :mod:`repro.bench.experiments` carries its claims
(``@claims(...)`` above the function, read back as ``fn.claims``). A
:class:`Claim` is a predicate over the experiment's
:class:`~repro.bench.report.ExperimentResult`, evaluated once per point of
``over`` — a point names the rows it reads (``system=aria, skew=1.0``), so a
failing verdict names them too. A claim is expected true, or expected false
with a written ``reason``: a deviation of the model from the paper,
recorded after looking. An expected-false claim fails the check when any
of its points turns true, so a fixed deviation gets noticed and its claim
rewritten. ``tests/test_figures.py`` (``make figures``) runs every
experiment and checks its claims.

Kinds: ``ordering`` (one series above another), ``bound`` (a value or a
ratio of two against a constant), ``trend`` (first to last point of a
sweep), ``collapse`` (a sweep's last point below a fraction of its first),
``optimum`` (where a sweep peaks), and ``invariant`` (a correctness
property of every run: ledgers verify, replay is identical).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

KINDS = ("ordering", "bound", "trend", "collapse", "optimum", "invariant")


@dataclass(frozen=True)
class Claim:
    kind: str
    name: str
    #: ``test(result, **point) -> bool``
    test: Callable[..., bool]
    over: tuple = ({},)
    expected: bool = True
    reason: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"claim {self.name!r}: kind {self.kind!r} not in {KINDS}")
        if not self.expected and not self.reason.strip():
            raise ValueError(f"expected-false claim {self.name!r} needs a reason")
        if not self.over:
            raise ValueError(f"claim {self.name!r} has no point to check")


def grid(**axes) -> tuple[dict, ...]:
    """Every combination of the named axes' values, as points."""
    return tuple(dict(zip(axes, values)) for values in product(*axes.values()))


def claims(*declared: Claim):
    """Attach ``declared`` to the experiment function it decorates."""

    def attach(fn):
        fn.claims = declared
        return fn

    return attach


def failures(result, declared) -> list[str]:
    """One line per point whose verdict is not what its claim expects."""
    lines = []
    for claim in declared:
        for point in claim.over:
            if bool(claim.test(result, **point)) == claim.expected:
                continue
            at = ", ".join(f"{k}={v}" for k, v in point.items()) or "the figure"
            verdict = "false" if claim.expected else f"true, expected false ({claim.reason})"
            lines.append(f"{result.name}: {claim.kind} {claim.name!r} at {at}: {verdict}")
    return lines


def peak(result, key: str, column: str, **where):
    """The ``key`` value of the row where ``column`` is largest."""
    keys, values = result.series(key, **where), result.series(column, **where)
    return keys[values.index(max(values))]

"""Benchmark harness: one experiment per table/figure of the evaluation.

Each ``figureN()`` / ``table3()`` function in
:mod:`repro.bench.experiments` regenerates the corresponding artifact of
Section 5 and returns an :class:`~repro.bench.report.ExperimentResult`
whose rows mirror the paper's series. ``repro.bench.report.render`` prints
them as aligned tables.

Scale: experiments default to a laptop-friendly size (fewer blocks than
the paper's minutes-long runs). Set ``REPRO_FULL=1`` for longer runs; the
*shapes* — who wins, by what factor, where knees fall — are stable across
scales. EXPERIMENTS.md records paper-vs-measured values.

The micro ledger lives in :mod:`repro.bench.perf` (``python -m repro.bench
--perf`` / ``--perf-smoke``): complexity-class guards of the hot paths
(growth of the production path from ``n`` to ``4n``), the sharding scenario
results on the modeled clock and one wall gate (``obs_overhead``),
appended to the ``BENCH_perf.json`` trajectory.
"""

from repro.bench.config import BenchScale, current_scale
from repro.bench.report import ExperimentResult, render

__all__ = ["BenchScale", "ExperimentResult", "current_scale", "render"]

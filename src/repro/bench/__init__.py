"""Benchmark harness: one experiment per table/figure of the evaluation.

Each ``figureN()`` / ``table3()`` function in
:mod:`repro.bench.experiments` regenerates the corresponding artifact of
Section 5 and returns an :class:`~repro.bench.report.ExperimentResult`
whose rows mirror the paper's series; ``shard_scaling``, ``tpcc_sharded``
and ``adaptive_skew`` do the same for the sharded deployment.
``repro.bench.report.render`` prints them as aligned tables.

Scale: experiments default to a laptop-friendly size (fewer blocks than
the paper's minutes-long runs). Set ``REPRO_FULL=1`` for longer runs.
What each figure says — who wins, by what factor, where knees fall — is
written as claims beside its experiment (:mod:`repro.bench.claims`), with
every known deviation from the paper an expected-false claim and its
reason; ``make figures`` checks them at the default scale.

The micro ledger lives in :mod:`repro.bench.perf` (``python -m repro.bench
--perf`` / ``--perf-smoke``): complexity-class guards of the hot paths
(growth of the production path from ``n`` to ``4n``) and one wall gate
(``obs_overhead``), appended to the ``BENCH_perf.json`` trajectory.
"""

from repro.bench.config import BenchScale, current_scale
from repro.bench.report import ExperimentResult, render

__all__ = ["BenchScale", "ExperimentResult", "current_scale", "render"]

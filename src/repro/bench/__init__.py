"""Continuous benchmark fleet: matrixed measurement, history, trends, bisection.

``repro.bench`` is the repository's one benchmark gate: a declarative
benchmark matrix over {algorithm spec × scenario family × n × engine
tier × obs level}, closed by five gate cases on two frozen instances
(:mod:`~repro.bench.matrix`),
executed through the one :func:`repro.experiments.runner.execute` pipeline
(:mod:`~repro.bench.runner`), persisted as an append-only commit-keyed
time series in ``BENCH_engine.json`` (:mod:`~repro.bench.history`),
rendered as cross-commit trend dashboards (:mod:`~repro.bench.trend`) and
— when a gate trips — bisected to the offending (case, engine) pair with
an attached engine-divergence report (:mod:`~repro.bench.bisect`).

The CLI front end is ``repro bench`` (``--quick`` per-PR tier, ``--full``
nightly tier, ``--list`` to scope the matrix without running, ``--report``
for the trend dashboard); CI runs it as the ``bench-fleet`` job.
"""

from .bisect import BisectReport, bisect_regression
from .history import (
    current_commit,
    default_bench_path,
    load_bench,
    ordered_history,
    previous_bucket,
    record_bench,
    record_bucket,
    time_ms,
    time_ms_paired,
)
from .matrix import BenchCase, build_scenario, default_matrix, expand, select
from .runner import (
    CaseResult,
    GateViolation,
    equivalent,
    gate_fleet,
    measure_case,
    measure_ratio,
    run_fleet,
)
from .trend import render_trend, trend_series

__all__ = [
    "BenchCase",
    "BisectReport",
    "CaseResult",
    "GateViolation",
    "bisect_regression",
    "build_scenario",
    "current_commit",
    "default_bench_path",
    "default_matrix",
    "equivalent",
    "expand",
    "gate_fleet",
    "load_bench",
    "measure_case",
    "measure_ratio",
    "ordered_history",
    "previous_bucket",
    "record_bench",
    "record_bucket",
    "render_trend",
    "run_fleet",
    "select",
    "time_ms",
    "time_ms_paired",
    "trend_series",
]

"""Sec. V evaluation harness: datasets, workloads, runners, figures.

Every table and figure of the paper's evaluation is a row of
``figures.FIGURES``; ``python -m repro.cli figure`` runs them and
``EXPERIMENTS.md`` (``--name all``) records which of their shapes hold.

Scaling knobs (environment variables):

* ``REPRO_BENCH_SCALE`` — dataset scale factor (default 0.35; 1.0 rebuilds
  the full analogues, slower);
* ``REPRO_BENCH_QUERIES`` — random query instances per setting (paper: 50;
  default here 5).
"""

from repro.experiments.datasets import (
    BENCH_QUERIES,
    BENCH_SCALE,
    engine_for,
    fla_engine_with_categories,
)
from repro.experiments.workload import Workload, random_queries
from repro.experiments.runner import MethodAggregate, run_workload, INF
from repro.experiments import figures
from repro.experiments.charts import bar_chart, level_series
from repro.experiments.reporting import format_table

__all__ = [
    "BENCH_QUERIES",
    "BENCH_SCALE",
    "engine_for",
    "fla_engine_with_categories",
    "Workload",
    "random_queries",
    "MethodAggregate",
    "run_workload",
    "INF",
    "figures",
    "bar_chart",
    "level_series",
    "format_table",
]

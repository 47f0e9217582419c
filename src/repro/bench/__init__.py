"""Benchmark support: synthetic datasets, timed harness, text reports."""

from .datasets import (
    DatasetSpec,
    dataset,
    dataset_keys,
    labeled_dataset_keys,
    spec,
    table1_rows,
)
from .harness import (
    DEGRADED,
    OK,
    OOM,
    OOS,
    TLE,
    RunOutcome,
    speedup,
    timed_run,
    trend_label,
)
from .persist import ExperimentRecord, compare_records
from .report import format_series, format_table

__all__ = [
    "DatasetSpec",
    "dataset",
    "dataset_keys",
    "labeled_dataset_keys",
    "spec",
    "table1_rows",
    "RunOutcome",
    "timed_run",
    "speedup",
    "trend_label",
    "OK",
    "TLE",
    "OOM",
    "OOS",
    "DEGRADED",
    "format_table",
    "format_series",
    "ExperimentRecord",
    "compare_records",
]

"""Experiment harness: engine, metrics, sweeps, reports, artifacts."""

from repro.analysis.engine import (
    ExperimentEngine,
    JobFailure,
    SimJob,
    configure,
    get_engine,
)
from repro.analysis.metrics import CacheMetricsRow, aggregate_cache_metrics
from repro.analysis.report import ExperimentResult, render, render_all
from repro.analysis.sweeps import ipc_curve, load_traces, run_config, sweep

__all__ = [
    "CacheMetricsRow",
    "ExperimentEngine",
    "ExperimentResult",
    "JobFailure",
    "SimJob",
    "aggregate_cache_metrics",
    "configure",
    "get_engine",
    "ipc_curve",
    "load_traces",
    "render",
    "render_all",
    "run_config",
    "sweep",
]

"""Experiment harnesses reproducing the paper's tables, figures and comparisons."""

from .experiments import (
    EXPERIMENTS,
    ExperimentResult,
    available_experiments,
    run_experiment,
    run_experiment_result,
)
from .fault_simulation import (
    PAPER_FAULT_COUNTS,
    FaultSimulationRow,
    simulate_fault_row,
    simulate_fault_table,
)
from .hypercube_comparison import HypercubeComparison, compare_hypercube_debruijn
from .reporting import (
    format_csv,
    format_fault_table,
    format_fault_table_csv,
    format_mapping_table,
    format_table,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "available_experiments",
    "run_experiment",
    "run_experiment_result",
    "PAPER_FAULT_COUNTS",
    "FaultSimulationRow",
    "simulate_fault_row",
    "simulate_fault_table",
    "HypercubeComparison",
    "compare_hypercube_debruijn",
    "format_csv",
    "format_fault_table",
    "format_fault_table_csv",
    "format_mapping_table",
    "format_table",
]

"""Experiment harnesses: one runner per table/figure of the paper.

Regenerate everything with ``python -m repro.experiments all`` (set
``REPRO_QUICK=1`` for shortened load tests) or per experiment:
``fig4a``, ``fig4b``, ``fig4c``, ``table1``, ``table2``, ``table3``,
``table4``.
"""

from .config import (
    FIG4_PAPER,
    MM_N,
    SOBEL_HEIGHT,
    SOBEL_WIDTH,
    TABLE1_RATES,
    TABLE2_PAPER,
    TABLE3_PAPER,
    TABLE4_PAPER,
    load_timing,
    quick_mode,
    rates_for,
)
from .chaos import ChaosResult, ChaosSpec, run_chaos
from .fig4 import (
    MM_SIZES,
    RW_SIZES,
    SOBEL_SIZES,
    SweepPoint,
    run_mm_sweep,
    run_rw_sweep,
    run_sobel_sweep,
)
from .loadtest import FunctionResult, ScenarioResult, run_scenario
from .report import render_table
from .tables import (
    render_table2,
    render_table3,
    render_table4,
    run_table1,
    run_use_case,
)

__all__ = [
    "ChaosResult",
    "ChaosSpec",
    "FIG4_PAPER",
    "FunctionResult",
    "MM_N",
    "MM_SIZES",
    "RW_SIZES",
    "SOBEL_HEIGHT",
    "SOBEL_SIZES",
    "SOBEL_WIDTH",
    "ScenarioResult",
    "SweepPoint",
    "TABLE1_RATES",
    "TABLE2_PAPER",
    "TABLE3_PAPER",
    "TABLE4_PAPER",
    "load_timing",
    "quick_mode",
    "rates_for",
    "render_table",
    "render_table2",
    "render_table3",
    "render_table4",
    "run_chaos",
    "run_mm_sweep",
    "run_rw_sweep",
    "run_scenario",
    "run_sobel_sweep",
    "run_table1",
    "run_use_case",
]

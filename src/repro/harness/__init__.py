"""Evaluation harness: regenerates the paper's Table 1 and Figures 3-5.

The flow mirrors §5.2: compile each benchmark once per processor (the
SA-110 baseline plus EPIC designs with 1-4 ALUs), measure clock cycles
in the cycle-accurate simulators, validate every run's outputs against
the golden reference, and convert to execution time using 100 MHz for
the SA-110 and the FPGA timing model's clock (41.8 MHz) for EPIC.
"""

from repro.harness.runner import (
    BenchmarkRun,
    OUTCOME_CYCLE_LIMIT,
    OUTCOME_OK,
    run_on_baseline,
    run_on_epic,
)
from repro.harness.tables import Table1, build_table1, resource_usage_table
from repro.harness.figures import FigureSeries, execution_time_figure
from repro.harness.report import paper_comparison, PaperClaim
from repro.harness.faultcampaign import (
    CampaignReport,
    generate_faults,
    measure_speedup,
    render_vulnerability_table,
    run_campaign,
)

__all__ = [
    "BenchmarkRun",
    "OUTCOME_CYCLE_LIMIT",
    "OUTCOME_OK",
    "run_on_baseline",
    "run_on_epic",
    "CampaignReport",
    "generate_faults",
    "measure_speedup",
    "render_vulnerability_table",
    "run_campaign",
    "Table1",
    "build_table1",
    "resource_usage_table",
    "FigureSeries",
    "execution_time_figure",
    "paper_comparison",
    "PaperClaim",
]

"""Experiment harnesses regenerating the paper's tables and figures."""

from repro.bench.fig5 import (
    Fig5Point,
    fig5_shape_report,
    round_span_metrics,
    run_fig5,
)
from repro.bench.fig6 import (
    Fig6Result,
    fig6_shape_report,
    run_fig6,
)
from repro.bench.harness import (
    ShapeCheck,
    ShapeReport,
    Stat,
    paper_vs_measured,
    render_table,
)
from repro.bench.messages import (
    MessagePoint,
    messages_shape_report,
    run_messages,
)
from repro.bench.optimization import (
    OptimizationResult,
    optimization_shape_report,
    run_optimization,
)
from repro.bench.overhead import (
    OverheadResult,
    overhead_shape_report,
    run_overhead,
)

__all__ = [
    "Fig5Point",
    "Fig6Result",
    "MessagePoint",
    "OptimizationResult",
    "OverheadResult",
    "ShapeCheck",
    "ShapeReport",
    "Stat",
    "fig5_shape_report",
    "fig6_shape_report",
    "messages_shape_report",
    "optimization_shape_report",
    "overhead_shape_report",
    "paper_vs_measured",
    "render_table",
    "round_span_metrics",
    "run_fig5",
    "run_fig6",
    "run_messages",
    "run_optimization",
    "run_overhead",
]

"""Experiment harness: regenerate every table and figure of the paper.

Each ``figN`` function runs the appropriate scenario, analyses the logs
exactly as Section V does, and returns a :class:`FigureResult` whose
``render()`` prints the same rows/series the paper reports.  The benchmark
suite under ``benchmarks/`` wraps these one-to-one.  :data:`EXPERIMENTS`
names them for the command line (``python -m repro <name>``) and for
campaign specs.
"""

from repro.experiments.render import (
    FigureResult,
    render_series,
    render_table,
)
from repro.experiments.figures import (
    table1,
    fig3_user_types_and_contribution,
    fig4_overlay_structure,
    fig5_user_evolution,
    fig6_join_time_cdfs,
    fig7_ready_time_by_period,
    fig8_continuity_by_type,
    fig9_rate_point,
    fig9_scalability,
    fig9_size_point,
    fig10_sessions_and_retries,
)
from repro.experiments.replication import MetricSummary, ReplicationResult, replicate
from repro.experiments.model_validation import (
    validate_dynamics_equations,
    validate_convergence_model,
)

#: command name -> experiment function, in ``python -m repro all`` order
EXPERIMENTS = {
    "table1": table1,
    "fig3": fig3_user_types_and_contribution,
    "fig4": fig4_overlay_structure,
    "fig5": fig5_user_evolution,
    "fig6": fig6_join_time_cdfs,
    "fig7": fig7_ready_time_by_period,
    "fig8": fig8_continuity_by_type,
    "fig9": fig9_scalability,
    "fig10": fig10_sessions_and_retries,
    "model": validate_dynamics_equations,
    "convergence": validate_convergence_model,
}

__all__ = [
    "EXPERIMENTS",
    "FigureResult",
    "render_series",
    "render_table",
    "table1",
    "fig3_user_types_and_contribution",
    "fig4_overlay_structure",
    "fig5_user_evolution",
    "fig6_join_time_cdfs",
    "fig7_ready_time_by_period",
    "fig8_continuity_by_type",
    "fig9_size_point",
    "fig9_rate_point",
    "fig9_scalability",
    "fig10_sessions_and_retries",
    "validate_dynamics_equations",
    "validate_convergence_model",
    "MetricSummary",
    "ReplicationResult",
    "replicate",
]

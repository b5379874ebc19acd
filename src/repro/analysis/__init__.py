"""Post-run analysis: timelines and cost distributions.

Everything here consumes :class:`~repro.exec_models.base.RunResult` (or a
plain cost array) and produces terminal-friendly text or plain
dictionaries — no plotting dependencies.
"""

from repro.analysis.timeline import ascii_gantt, rank_timeline
from repro.analysis.distribution import (
    ascii_histogram,
    cost_statistics,
    gini_coefficient,
)

__all__ = [
    "ascii_gantt",
    "rank_timeline",
    "ascii_histogram",
    "cost_statistics",
    "gini_coefficient",
]

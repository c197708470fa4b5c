"""Morsel-driven parallelism: pipeline segments and their morsel ranges.

The executor splits the scan feeding a Filter/Project/Predict pipeline into
fixed-size row ranges ("morsels"), runs the pipeline over each morsel on the
shared :class:`~flock.db.exec.pool.WorkerPool` and concatenates the morsel
outputs in morsel order. numpy kernels release the GIL, so morsels genuinely
overlap.

That is the only parallel shape, and its merge is **bit-identical to serial
execution** by construction: expression evaluation and model scoring are
elementwise over rows, so evaluating a slice equals slicing the full
evaluation, and the morsel-order concatenation is the serial batch.
Aggregates, ORDER BY + LIMIT, joins, sorts, DISTINCT and set operations run
their serial operators over that batch, so they need no merge rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from flock.db.plan import (
    FilterNode,
    PlanNode,
    PredictNode,
    ProjectNode,
    ScanNode,
)


@dataclass
class PipelineSegment:
    """A Scan feeding a non-empty chain of per-row stages."""

    scan: ScanNode
    stages: list[PlanNode]  # bottom-up: stages[0] consumes the scan
    has_predict: bool


def find_segment(node: PlanNode) -> PipelineSegment | None:
    """The parallelizable Scan→Filter/Project/Predict chain rooted at *node*.

    Returns None when *node* is not a pipeline stage or the chain ends in
    anything but a scan (joins, aggregates, set operations, subplan scans).
    A bare scan is no segment: splitting it would be pure concatenation
    overhead.
    """
    stages: list[PlanNode] = []
    current = node
    while isinstance(current, (FilterNode, ProjectNode, PredictNode)):
        stages.append(current)
        current = current.child
    if not stages or not isinstance(current, ScanNode):
        return None
    stages.reverse()
    has_predict = any(isinstance(s, PredictNode) for s in stages)
    return PipelineSegment(current, stages, has_predict)


def morsel_bounds(n_rows: int, morsel_rows: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` ranges covering ``n_rows``."""
    return [
        (start, min(start + morsel_rows, n_rows))
        for start in range(0, n_rows, morsel_rows)
    ]

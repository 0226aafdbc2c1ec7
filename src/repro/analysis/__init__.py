"""Analysis utilities: queueing-theory references and trace breakdowns."""

from .breakdown import (
    FunctionBreakdown,
    default_pod_to_function,
    render_breakdown,
    request_breakdown,
)
from .queueing import (
    md1_response,
    md1_wait,
    mm1_wait,
    utilization,
)

__all__ = [
    "FunctionBreakdown",
    "default_pod_to_function",
    "md1_response",
    "md1_wait",
    "mm1_wait",
    "render_breakdown",
    "request_breakdown",
    "utilization",
]

"""Timed colored Petri net scheduling kernel with an independent oracle."""

from .kernel import (
    DEFAULT_STEP_LIMIT,
    EngineError,
    EngineState,
    FiringEvent,
    Net,
    StepLimitExceeded,
    TimedToken,
    Transition,
    advance_clock,
    run,
    steps,
    trace_records,
)
from .metrics import (
    Aggregates,
    ScheduleResult,
    compute_metrics,
    gantt_csv,
    result_from_processes,
)
from .oracle import diff_results, oracle_schedule, random_workload
from .sched import SchedulerNet, build_net, simulate
from .workload import (
    Policy,
    PriorityPair,
    Process,
    Workload,
    WorkloadError,
    builtin_paper_workload,
    parse_workload,
    serialize_workload,
    validate_workload,
)

__version__ = "0.1.0"

__all__ = [
    "Aggregates",
    "DEFAULT_STEP_LIMIT",
    "EngineError",
    "EngineState",
    "FiringEvent",
    "Net",
    "Policy",
    "PriorityPair",
    "Process",
    "ScheduleResult",
    "SchedulerNet",
    "StepLimitExceeded",
    "TimedToken",
    "Transition",
    "Workload",
    "WorkloadError",
    "advance_clock",
    "build_net",
    "builtin_paper_workload",
    "compute_metrics",
    "diff_results",
    "gantt_csv",
    "oracle_schedule",
    "parse_workload",
    "random_workload",
    "result_from_processes",
    "run",
    "serialize_workload",
    "simulate",
    "steps",
    "trace_records",
    "validate_workload",
    "__version__",
]

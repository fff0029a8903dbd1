"""Core orchestration: end-to-end solver, metrics, snowflake extension."""

from repro.core.config import SolverConfig
from repro.core.metrics import ErrorReport, cc_errors, dc_error, evaluate
from repro.core.problem import CExtensionProblem, brute_force_decision
from repro.core.snowflake import (
    EdgeConstraints,
    SnowflakeResult,
    SnowflakeSynthesizer,
)
from repro.core.synthesizer import (
    CExtensionResult,
    CExtensionSolver,
    SolveReport,
)

__all__ = [
    "CExtensionProblem",
    "CExtensionResult",
    "CExtensionSolver",
    "EdgeConstraints",
    "ErrorReport",
    "SnowflakeResult",
    "SnowflakeSynthesizer",
    "SolveReport",
    "SolverConfig",
    "brute_force_decision",
    "cc_errors",
    "dc_error",
    "evaluate",
]

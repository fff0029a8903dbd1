"""Exception hierarchy for the ``repro`` library.

Every error raised deliberately by the library derives from
:class:`ReproError` so that callers can catch library failures without
accidentally swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class SchemaError(ReproError):
    """A relation or predicate references attributes inconsistently."""


class KeyLookupError(SchemaError):
    """A key lookup value has no matching row in the key column."""


class PredicateError(ReproError):
    """A selection predicate is malformed or uses an unsupported operator."""


class ConstraintError(ReproError):
    """A cardinality or denial constraint is malformed."""


class ParseError(ReproError):
    """A constraint or predicate string could not be parsed."""


class SolverError(ReproError):
    """The LP/ILP solver failed (infeasible, unbounded, or internal)."""


class InfeasibleError(SolverError):
    """The optimization problem has no feasible solution."""


class CompletionError(ReproError):
    """Phase I could not complete the join view."""


class ColoringError(ReproError):
    """Phase II could not produce a proper coloring."""

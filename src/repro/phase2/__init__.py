"""Phase II: conflict hypergraphs, list coloring, FK assignment."""

from repro.phase2.coloring import KeyCap, coloring_lf
from repro.phase2.edges import (
    build_conflict_graph,
    conflicting_pairs,
)
from repro.phase2.fk_assignment import (
    KeyTable,
    Phase2Result,
    Phase2Stats,
    run_phase2,
)
from repro.phase2.hypergraph import ConflictHypergraph
from repro.phase2.invalid import solve_invalid_tuples

__all__ = [
    "ConflictHypergraph",
    "KeyCap",
    "KeyTable",
    "Phase2Result",
    "Phase2Stats",
    "build_conflict_graph",
    "coloring_lf",
    "conflicting_pairs",
    "run_phase2",
    "solve_invalid_tuples",
]

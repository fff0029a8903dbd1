"""Solver configuration."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["SolverConfig"]

_FLAG = (bool, np.bool_)
_NONE = type(None)

#: The types each field must hold, and how an error names them.  numpy
#: scalars pass (knobs computed with numpy arrive as them), but a flag
#: is no number here, though Python makes ``bool`` an ``int``.
_FIELD_TYPES = {
    "soft_ccs": (_FLAG, "a bool"),
    "force_ilp": (_FLAG, "a bool"),
    "workers": ((numbers.Integral,), "an int"),
    "evaluate": (_FLAG, "a bool"),
    "time_limit": ((numbers.Real, _NONE), "a number or None"),
    "mip_gap": ((numbers.Real, _NONE), "a number or None"),
    "chunk_rows": ((numbers.Integral,), "an int"),
    "storage_dir": ((str, _NONE), "a string or None"),
}


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the end-to-end C-Extension solver.

    Every Phase-I ILP is solved by HiGHS (:func:`repro.solver.solve_model`),
    and Phase II always colors one combo partition at a time (Section
    5.2); the one-global-graph ablation is
    ``benchmarks/test_ablation_partitioning.py``'s own loop.

    * ``marginals`` — marginal augmentation for the ILP leg: ``"relevant"``
      (hybrid's modified marginals, the default), ``"all"`` (Section 4.1
      all-way marginals) or ``"none"``.
    * ``soft_ccs`` — encode CC rows with L1 slack (always feasible); when
      ``False`` an inconsistent CC system raises ``InfeasibleError``.
    * ``force_ilp`` — send every CC to Algorithm 1 (ablation / baselines).
    * ``workers`` — solve conflict-free snowflake FK edges of one BFS
      layer on a process pool of this size; ``0``/``1`` keeps the
      traversal sequential.  Output is byte-identical either way.
    * ``evaluate`` — compute CC/DC error measures on the result.
    * ``time_limit`` — wall-clock budget (seconds) for each Phase-I ILP
      solve; a limited solve keeps its best incumbent (``None`` = exact).
      It must be positive: zero, negative and NaN limits are rejected.
    * ``mip_gap`` — relative optimality gap accepted by the ILP solve
      (``None`` = solve to proven optimality).
    * ``storage`` — ``"numpy"`` keeps every relation in RAM (the default,
      byte-identical to earlier releases); ``"mmap"`` spills relations to
      chunked on-disk column stores and streams the kernels chunk-by-chunk
      (out-of-core synthesis; same output, bounded memory).
    * ``chunk_rows`` — rows per chunk for the ``"mmap"`` storage backend.
    * ``storage_dir`` — directory for the on-disk column stores (``None``
      = a temporary directory per relation).
    """

    marginals: str = "relevant"
    soft_ccs: bool = True
    force_ilp: bool = False
    workers: int = 0
    evaluate: bool = True
    time_limit: Optional[float] = None
    mip_gap: Optional[float] = None
    storage: str = "numpy"
    chunk_rows: int = 262_144
    storage_dir: Optional[str] = None

    def __post_init__(self) -> None:
        for name, (types, wanted) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not isinstance(value, types) or (
                isinstance(value, _FLAG) and types is not _FLAG
            ):
                raise ValueError(f"{name} must be {wanted}, got {value!r}")
        if self.storage not in ("numpy", "mmap"):
            raise ValueError(f"unknown storage backend {self.storage!r}")
        if self.chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        if self.marginals not in ("all", "relevant", "none"):
            raise ValueError(f"unknown marginals mode {self.marginals!r}")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError(
                "time_limit must be positive (or None), "
                f"got {self.time_limit!r}"
            )
        if self.mip_gap is not None and not 0 <= self.mip_gap < 1:
            raise ValueError("mip_gap must be in [0, 1) (or None)")

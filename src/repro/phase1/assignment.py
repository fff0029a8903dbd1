"""Bookkeeping for the incremental completion of ``V_join``.

Phase I fills the R2-originated columns ``B1..Bq`` of the join view row by
row.  Assignments may be *partial* — a CC whose R2 condition pins only
``Area`` leaves ``Tenure`` open (the paper completes such tuples in the
final loop of Algorithm 2).  :class:`ViewAssignment` tracks, per row:

* the partial ``{attr: value}`` assignment so far,
* which CC (if any) the row was selected for (used to complete partial
  assignments without perturbing other CC counts),
* whether the row ended up *invalid* (no usable combination exists).

Storage is columnar: an ``(n × q)`` ``int32`` code matrix (sentinel ``-1``
for "unassigned") backed by one value dictionary per R2 attribute, so the
index/mask queries (``untouched_indices``, ``complete_indices``) are
O(1)-per-query numpy ops instead of O(n) Python sweeps, and the Phase-II
partition grouping hands the matrix rows to the relations' group-by
kernel (:func:`~repro.relational.relation.group_codes`).
:class:`NaiveViewAssignment` keeps the original per-row
``List[Optional[Dict]]`` implementation as the equivalence reference for
tests and the ``BENCH_phase1.json`` microbenchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import CompletionError
from repro.relational.relation import group_codes

__all__ = ["ViewAssignment", "NaiveViewAssignment"]

_UNSET = -1


@dataclass
class ViewAssignment:
    """Partial B-column assignments for the ``n`` rows of ``V_join``."""

    n: int
    r2_attrs: Tuple[str, ...]
    invalid: Set[int] = field(init=False)

    def __post_init__(self) -> None:
        q = len(self.r2_attrs)
        self._attr_pos: Dict[str, int] = {
            attr: j for j, attr in enumerate(self.r2_attrs)
        }
        #: (n × q) value codes; ``_UNSET`` marks an unassigned cell.
        self._codes = np.full((self.n, q), _UNSET, dtype=np.int32)
        #: How many of the q attributes each row has assigned.
        self._num_set = np.zeros(self.n, dtype=np.int32)
        #: Rows that have received at least one (possibly empty) assignment.
        self._touched = np.zeros(self.n, dtype=bool)
        #: Per attribute: value → code and code → value.
        self._value_codes: List[Dict[object, int]] = [{} for _ in range(q)]
        self._code_values: List[List[object]] = [[] for _ in range(q)]
        #: CC index each row was selected for (``-1`` = none); sticks to
        #: the first assignment that names one.
        self.intended_cc = np.full(self.n, _UNSET, dtype=np.int32)
        self.invalid = set()

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def _encode(self, j: int, value: object) -> int:
        table = self._value_codes[j]
        code = table.get(value)
        if code is None:
            code = len(self._code_values[j])
            table[value] = code
            self._code_values[j].append(value)
        return code

    def _encode_values(
        self, values: Dict[str, object]
    ) -> List[Tuple[int, int]]:
        """``(column, code)`` pairs for a value dict; validates attrs."""
        unknown = set(values) - set(self.r2_attrs)
        if unknown:
            raise CompletionError(
                f"assignment uses non-R2 attributes {sorted(unknown)}"
            )
        return [
            (self._attr_pos[attr], self._encode(self._attr_pos[attr], value))
            for attr, value in values.items()
        ]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def assign(
        self,
        row: int,
        values: Dict[str, object],
        cc_index: Optional[int] = None,
    ) -> None:
        """Merge ``values`` into the row's partial assignment."""
        codes = self._codes
        for j, code in self._encode_values(values):
            current = codes[row, j]
            if current != _UNSET:
                if current != code:
                    attr = self.r2_attrs[j]
                    raise CompletionError(
                        f"row {row}: conflicting assignment for {attr!r} "
                        f"({self._code_values[j][current]!r} vs "
                        f"{self._code_values[j][code]!r})"
                    )
            else:
                codes[row, j] = code
                self._num_set[row] += 1
        self._touched[row] = True
        if cc_index is not None and self.intended_cc[row] == _UNSET:
            self.intended_cc[row] = cc_index

    def assign_rows(
        self,
        rows: Sequence[int],
        values: Dict[str, object],
        cc_index: Optional[int] = None,
    ) -> None:
        """Assign the *same* ``values`` to many rows in one vector op."""
        idx = np.asarray(rows, dtype=np.int64)
        if idx.size == 0:
            return
        for j, code in self._encode_values(values):
            column = self._codes[:, j]
            current = column[idx]
            conflicting = (current != _UNSET) & (current != code)
            if conflicting.any():
                row = int(idx[np.flatnonzero(conflicting)[0]])
                attr = self.r2_attrs[j]
                raise CompletionError(
                    f"row {row}: conflicting assignment for {attr!r} "
                    f"({self._code_values[j][int(column[row])]!r} vs "
                    f"{self._code_values[j][code]!r})"
                )
            fresh = current == _UNSET
            column[idx] = code
            self._num_set[idx] += fresh
        self._touched[idx] = True
        if cc_index is not None:
            unset = self.intended_cc[idx] == _UNSET
            self.intended_cc[idx[unset]] = cc_index

    def mark_invalid(self, row: int) -> None:
        self.invalid.add(row)

    def mark_invalid_rows(self, rows: Sequence[int]) -> None:
        self.invalid.update(int(r) for r in rows)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_touched(self, row: int) -> bool:
        return bool(self._touched[row])

    def is_complete(self, row: int) -> bool:
        return bool(
            self._touched[row] and self._num_set[row] == len(self.r2_attrs)
        )

    def num_assigned(self, row: int) -> int:
        """How many of the q attributes the row has assigned so far."""
        return int(self._num_set[row])

    def values(self, row: int) -> Optional[Dict[str, object]]:
        if not self._touched[row]:
            return None
        codes = self._codes[row]
        return {
            attr: self._code_values[j][codes[j]]
            for j, attr in enumerate(self.r2_attrs)
            if codes[j] != _UNSET
        }

    def combo(self, row: int) -> tuple:
        """The full B-combo of a completed row."""
        if not self.is_complete(row):
            raise CompletionError(f"row {row} is not fully assigned")
        codes = self._codes[row]
        return tuple(
            self._code_values[j][codes[j]] for j in range(len(self.r2_attrs))
        )

    # ------------------------------------------------------------------
    # Masks (O(1) numpy queries over the code matrix)
    # ------------------------------------------------------------------
    def untouched_mask(self) -> np.ndarray:
        return ~self._touched

    def incomplete_mask(self) -> np.ndarray:
        """Rows touched but not fully assigned."""
        return self._touched & (self._num_set != len(self.r2_attrs))

    def complete_mask(self) -> np.ndarray:
        return self._touched & (self._num_set == len(self.r2_attrs))

    def assigned_mask(self) -> np.ndarray:
        """Complete rows not marked invalid (Phase II's working set)."""
        mask = self.complete_mask()
        if self.invalid:
            mask = mask.copy()
            mask[np.fromiter(self.invalid, dtype=np.int64)] = False
        return mask

    def untouched_indices(self) -> np.ndarray:
        return np.flatnonzero(~self._touched).astype(np.int64, copy=False)

    def incomplete_indices(self) -> List[int]:
        """Rows touched but not fully assigned (partial rows)."""
        return np.flatnonzero(self.incomplete_mask()).tolist()

    def complete_indices(self) -> List[int]:
        return np.flatnonzero(self.complete_mask()).tolist()

    def completion_fraction(self) -> float:
        if self.n == 0:
            return 1.0
        return int(self.complete_mask().sum()) / self.n

    # ------------------------------------------------------------------
    # Columnar accessors for the Phase-I/II kernels
    # ------------------------------------------------------------------
    def code_rows(self, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """The raw (selected) code rows; ``_UNSET`` marks open cells.

        Rows double as compact per-row partial-assignment signatures: two
        rows have equal code vectors iff they carry the same partial
        assignment.
        """
        if rows is None:
            return self._codes
        return self._codes[np.asarray(rows, dtype=np.int64)]

    def value_arrays(self, rows: Sequence[int]) -> Dict[str, np.ndarray]:
        """Decoded B-columns for *complete* rows, one object array each."""
        idx = np.asarray(rows, dtype=np.int64)
        out: Dict[str, np.ndarray] = {}
        for j, attr in enumerate(self.r2_attrs):
            decode = np.asarray(self._code_values[j], dtype=object)
            codes = self._codes[idx, j]
            if (codes == _UNSET).any():
                raise CompletionError(
                    "value_arrays requires fully-assigned rows"
                )
            out[attr] = decode[codes]
        return out

    def group_by_combo(
        self, chunk_rows: Optional[int] = None
    ) -> Dict[tuple, List[int]]:
        """Complete, valid rows grouped by their full B-combo.

        The Phase-II partitioning (Section 5.2): the code matrix rows of
        the complete, valid rows go through
        :func:`~repro.relational.relation.group_codes`, so combos come in
        ascending code-tuple order and row lists ascend, matching the
        order the per-row ``setdefault`` loop used to produce.

        ``chunk_rows`` bounds the working set: the rows are sorted and
        split ``chunk_rows`` at a time (one block when ``None``) and the
        kernel merges the blocks' runs — the groups (content, row order
        and combo order) are the same at every block size.
        """
        rows = np.flatnonzero(self.assigned_mask())
        if rows.size == 0:
            return {}
        if not self.r2_attrs:
            return {(): rows.tolist()}
        step = rows.size if chunk_rows is None else chunk_rows
        signatures, order, starts = group_codes(
            (block, self._codes[block].T)
            for block in np.split(rows, range(step, rows.size, step))
        )
        combos = zip(
            *(
                [values[code] for code in codes]
                for values, codes in zip(
                    self._code_values, signatures.tolist()
                )
            )
        )
        bounds = [*starts.tolist(), len(order)]
        return {
            combo: order[start:stop].tolist()
            for combo, start, stop in zip(combos, bounds, bounds[1:])
        }


@dataclass
class NaiveViewAssignment:
    """The original per-row ``List[Optional[Dict]]`` bookkeeping.

    Kept as the equivalence reference for :class:`ViewAssignment` (see
    ``tests/phase1/test_assignment_vectorized.py``) and as the baseline of
    the ``BENCH_phase1.json`` microbenchmark.  Implements the same API,
    every query as the O(n) Python sweep the columnar class replaces.
    """

    n: int
    r2_attrs: Tuple[str, ...]
    partial: List[Optional[Dict[str, object]]] = field(init=False)
    invalid: Set[int] = field(init=False)

    def __post_init__(self) -> None:
        self.partial = [None] * self.n
        self.intended_cc = [None] * self.n
        self.invalid = set()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def assign(
        self,
        row: int,
        values: Dict[str, object],
        cc_index: Optional[int] = None,
    ) -> None:
        """Merge ``values`` into the row's partial assignment."""
        unknown = set(values) - set(self.r2_attrs)
        if unknown:
            raise CompletionError(
                f"assignment uses non-R2 attributes {sorted(unknown)}"
            )
        current = self.partial[row]
        if current is None:
            current = {}
            self.partial[row] = current
        for attr, value in values.items():
            if attr in current and current[attr] != value:
                raise CompletionError(
                    f"row {row}: conflicting assignment for {attr!r} "
                    f"({current[attr]!r} vs {value!r})"
                )
            current[attr] = value
        if cc_index is not None and self.intended_cc[row] is None:
            self.intended_cc[row] = cc_index

    def assign_rows(
        self,
        rows: Sequence[int],
        values: Dict[str, object],
        cc_index: Optional[int] = None,
    ) -> None:
        for row in rows:
            self.assign(int(row), values, cc_index=cc_index)

    def mark_invalid(self, row: int) -> None:
        self.invalid.add(row)

    def mark_invalid_rows(self, rows: Sequence[int]) -> None:
        for row in rows:
            self.invalid.add(int(row))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_touched(self, row: int) -> bool:
        return self.partial[row] is not None

    def is_complete(self, row: int) -> bool:
        values = self.partial[row]
        return values is not None and len(values) == len(self.r2_attrs)

    def num_assigned(self, row: int) -> int:
        values = self.partial[row]
        return 0 if values is None else len(values)

    def values(self, row: int) -> Optional[Dict[str, object]]:
        return self.partial[row]

    def combo(self, row: int) -> tuple:
        values = self.partial[row]
        if values is None or len(values) != len(self.r2_attrs):
            raise CompletionError(f"row {row} is not fully assigned")
        return tuple(values[attr] for attr in self.r2_attrs)

    def untouched_indices(self) -> np.ndarray:
        return np.asarray(
            [i for i in range(self.n) if self.partial[i] is None],
            dtype=np.int64,
        )

    def incomplete_indices(self) -> List[int]:
        return [
            i
            for i in range(self.n)
            if self.partial[i] is not None
            and len(self.partial[i]) != len(self.r2_attrs)
        ]

    def complete_indices(self) -> List[int]:
        return [i for i in range(self.n) if self.is_complete(i)]

    def completion_fraction(self) -> float:
        if self.n == 0:
            return 1.0
        return len(self.complete_indices()) / self.n

    def untouched_mask(self) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[self.untouched_indices()] = True
        return mask

    def incomplete_mask(self) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[self.incomplete_indices()] = True
        return mask

    def complete_mask(self) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[self.complete_indices()] = True
        return mask

    def assigned_mask(self) -> np.ndarray:
        mask = self.complete_mask()
        for row in self.invalid:
            mask[row] = False
        return mask

    def group_by_combo(self) -> Dict[tuple, List[int]]:
        out: Dict[tuple, List[int]] = {}
        for row in range(self.n):
            if row in self.invalid or not self.is_complete(row):
                continue
            out.setdefault(self.combo(row), []).append(row)
        return out

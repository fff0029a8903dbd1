"""Output checks the benchmark makes itself.

Nothing here reads the solver's own error report.  Joins, CC counts,
FK membership and the digest are computed with plain numpy; DCs are
checked pair by pair with :meth:`DenialConstraint.violates`, not with
the ``dc_error`` kernel that later work will replace.  Any violation
raises :class:`VerificationError`, which the harness counts as a failed
op.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict, Mapping, Optional, Sequence

import numpy as np


class VerificationError(AssertionError):
    """An output broke one of the checks; the message says which."""


def column_digest(values: Sequence[object]) -> str:
    """A digest of one column's values that depends on nothing but the
    values (not on the library's own hashing, which may change)."""
    array = np.asarray(values)
    digest = hashlib.sha256()
    if array.dtype.kind in "iub":
        digest.update(b"int:")
        digest.update(np.ascontiguousarray(array, dtype="<i8").tobytes())
    else:
        digest.update(b"str:")
        digest.update("\x1f".join(map(str, array.tolist())).encode())
    return digest.hexdigest()


def database_digest(database) -> str:
    """Content digest of a whole database: names, keys, schemas, FKs and
    every column, in order."""
    digest = hashlib.sha256()
    for fk in database.foreign_keys:
        digest.update(f"fk:{fk.child}.{fk.column}->{fk.parent};".encode())
    for name in database.relation_names:
        relation = database.relation(name)
        digest.update(f"rel:{name}:key={relation.schema.key};".encode())
        for spec in relation.schema:
            digest.update(f"{spec.name}:{spec.dtype.value}=".encode())
            digest.update(column_digest(relation.column(spec.name)).encode())
    return digest.hexdigest()


def _positions(keys: np.ndarray, values: np.ndarray, label: str) -> np.ndarray:
    """Row of ``keys`` holding each of ``values``; every value must be
    a key, and keys must be unique."""
    if len(np.unique(keys)) != len(keys):
        raise VerificationError(f"{label}: parent keys are not unique")
    sorter = np.argsort(keys, kind="stable")
    ordered = keys[sorter]
    slots = np.minimum(np.searchsorted(ordered, values), max(len(keys) - 1, 0))
    missing = (
        ordered[slots] != values if len(keys) else np.ones(len(values), bool)
    )
    if missing.any():
        raise VerificationError(
            f"{label}: {int(missing.sum())} FK values name no parent key "
            f"(first: {values[missing].tolist()[0]!r})"
        )
    return sorter[slots]


def _view(database, name: str) -> Dict[str, np.ndarray]:
    """``name`` joined with every parent it reaches through FK edges."""
    relation = database.relation(name)
    columns = {
        c: np.asarray(relation.column(c)) for c in relation.schema.names
    }
    for fk in database.foreign_keys:
        if fk.child != name:
            continue
        parent = database.relation(fk.parent)
        rows = _positions(
            np.asarray(parent.column(parent.schema.key)),
            columns[fk.column],
            f"{fk.child}.{fk.column} -> {fk.parent}",
        )
        for column, values in _view(database, fk.parent).items():
            if column == parent.schema.key:
                continue
            if column in columns:
                raise VerificationError(f"join column clash on {column!r}")
            columns[column] = values[rows]
    return columns


def _condition_mask(values: np.ndarray, condition) -> np.ndarray:
    try:
        return np.asarray(condition.mask(values), dtype=bool)
    except (TypeError, ValueError):
        return np.fromiter(
            (condition.matches(v) for v in values.tolist()), dtype=bool,
            count=len(values),
        )


def check_ccs(view: Mapping[str, np.ndarray], ccs, label: str) -> None:
    """Every CC count over the output join equals its target."""
    n = len(next(iter(view.values())))
    masks: Dict[object, np.ndarray] = {}
    for cc in ccs:
        hit = np.zeros(n, dtype=bool)
        for disjunct in cc.disjuncts:
            part = np.ones(n, dtype=bool)
            for attr, condition in disjunct.items:
                key = (attr, condition)
                if key not in masks:
                    masks[key] = _condition_mask(view[attr], condition)
                part &= masks[key]
            hit |= part
        count = int(hit.sum())
        if count != cc.target:
            raise VerificationError(
                f"{label}: CC {cc.name or cc} counts {count}, "
                f"target {cc.target}"
            )


def fk_groups(fk_values: np.ndarray):
    """Row indices of each FK group, groups in key order."""
    order = np.argsort(fk_values, kind="stable")
    ordered = fk_values[order]
    cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    return np.split(order, cuts)


def check_dcs(relation, fk_column: str, dcs, label: str) -> None:
    """No DC is violated by any tuple set inside one FK group."""
    groups = fk_groups(np.asarray(relation.column(fk_column)))
    attrs = sorted(set().union(*(dc.attributes for dc in dcs)))
    values = {a: relation.column(a).tolist() for a in attrs}
    for members in groups:
        if len(members) < 2:
            continue
        rows = [{a: values[a][i] for a in attrs} for i in members.tolist()]
        for dc in dcs:
            for combo in itertools.combinations(range(len(rows)), dc.arity):
                if dc.violates([rows[c] for c in combo]):
                    raise VerificationError(
                        f"{label}: DC {dc.name or dc} violated by rows "
                        f"{[int(members[c]) for c in combo]}"
                    )


def check_inputs(database, digests: Mapping[str, Mapping[str, str]],
                 rows: Mapping[str, int], fact: str) -> None:
    """Input columns and existing parent rows are unchanged: the first
    ``rows[name]`` rows of every input column hash as generated, and
    only parents (never the fact table) may have grown."""
    for name, columns in digests.items():
        relation = database.relation(name)
        n = rows[name]
        if len(relation) < n or (name == fact and len(relation) != n):
            raise VerificationError(
                f"{name}: {len(relation)} rows, input had {n}"
            )
        for column, expected in columns.items():
            if column not in relation.schema:
                raise VerificationError(f"{name}: input column {column} lost")
            if column_digest(relation.column(column)[:n]) != expected:
                raise VerificationError(
                    f"{name}.{column}: input values changed"
                )


def check_output(output, inputs, fact: str,
                 reference: Optional[object] = None,
                 same_as: Optional[object] = None) -> None:
    """Every check on one output database.

    ``reference`` is a database a from-scratch synthesis produced and
    ``same_as`` an earlier output of the op; the output must equal each
    byte for byte.
    """
    database = output.database
    label = output.label
    check_inputs(database, inputs.digests, inputs.rows, fact)
    for fk in database.foreign_keys:
        child = database.relation(fk.child)
        parent = database.relation(fk.parent)
        _positions(
            np.asarray(parent.column(parent.schema.key)),
            np.asarray(child.column(fk.column)),
            f"{label} {fk.child}.{fk.column}",
        )
    for (child_name, column), check in output.checks.items():
        child = database.relation(child_name)
        edge = f"{label} {child_name}.{column}"
        if check.dcs:
            check_dcs(child, column, check.dcs, edge)
        if check.ccs:
            check_ccs(_view(database, child_name), check.ccs, edge)
        if check.capacity is not None:
            groups = fk_groups(np.asarray(child.column(column)))
            sizes = [len(g) for g in groups]
            if max(sizes, default=0) > check.capacity:
                raise VerificationError(
                    f"{edge}: a key serves {max(sizes)} rows, capacity "
                    f"{check.capacity}"
                )
    for other, what in ((reference, "from-scratch synthesis"),
                        (same_as, f"output {output.same_as}")):
        if other is not None and not database.identical_to(other):
            raise VerificationError(f"{label}: differs from the {what}")

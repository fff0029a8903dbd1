"""Close the loop: data → mined constraints → runnable synthesis spec.

Section 7 of the paper notes FK DCs "can be naturally inferred from the
schema or from domain knowledge" and cites the DC-discovery line of work;
:mod:`repro.extensions.discovery` implements the mining.  This module
turns the mined constraints into a first-class spec input:
:func:`discover_spec` runs :func:`discover_fk_dcs` over a *completed*
pair of relations and emits a :class:`SynthesisSpec` with the mined DCs
inlined on the FK edge — ready for :func:`repro.synthesize` or
``repro-synth solve --spec`` (the ``repro-synth discover`` verb is a thin
CLI wrapper over this function).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional, Union

from repro.errors import SchemaError
from repro.relational.relation import Relation
from repro.spec.model import EdgeSpec, RelationSpec, SynthesisSpec

if TYPE_CHECKING:  # pragma: no cover — keep repro.extensions lazy
    from repro.extensions.discovery import DiscoveryConfig

__all__ = ["discover_spec"]


def discover_spec(
    r1: Relation,
    r2: Relation,
    *,
    fk_column: str,
    config: Optional["DiscoveryConfig"] = None,
    name: str = "discovered",
    r1_name: str = "r1",
    r2_name: str = "r2",
    csv_paths: Optional[Mapping[str, str]] = None,
    strategy: Optional[str] = None,
    strategy_options: Optional[Mapping[str, object]] = None,
    capacity: Union[int, str, None] = None,
) -> SynthesisSpec:
    """Mine FK DCs from a completed ``(r1, r2)`` pair into a runnable spec.

    ``r1`` must contain ``fk_column`` (discovery needs the completed FK
    groups); the emitted spec re-imputes that column under the mined DCs,
    so solving it synthesizes a fresh database consistent with the
    constraints observed in the input.

    ``csv_paths`` optionally maps relation names to CSV paths: named
    relations are emitted as CSV references (what the CLI wants in a spec
    file) instead of inline columns.  ``strategy``/``strategy_options``/
    ``capacity`` prime the edge's Phase-II block, and the spec caps the
    per-key usage observed in the data when ``capacity`` is the string
    ``"observed"``.
    """
    # Imported here so ``import repro`` keeps the extension modules
    # unloaded until needed.
    from repro.extensions.capacity import fk_usage_histogram
    from repro.extensions.discovery import discover_fk_dcs

    if fk_column not in r1.schema:
        raise SchemaError(
            f"relation {r1_name!r} has no FK column {fk_column!r} to mine"
        )
    if r2.schema.key is None:
        raise SchemaError(f"relation {r2_name!r} must declare a primary key")

    dcs = discover_fk_dcs(r1, fk_column, config)

    if isinstance(capacity, str):
        if capacity != "observed":
            raise SchemaError(
                f"unknown capacity mode {capacity!r} (expected an integer, "
                "None, or the string 'observed')"
            )
        usage = fk_usage_histogram(r1, fk_column)
        capacity = max(usage.values()) if usage else None

    csv_paths = dict(csv_paths or {})

    def relation_spec(rel_name: str, relation: Relation) -> RelationSpec:
        if rel_name in csv_paths:
            return RelationSpec(
                name=rel_name,
                key=relation.schema.key,
                csv=str(csv_paths[rel_name]),
            )
        return RelationSpec(
            name=rel_name, key=relation.schema.key, relation=relation
        )

    spec = SynthesisSpec(
        name=name,
        relations=[
            relation_spec(r1_name, r1),
            relation_spec(r2_name, r2),
        ],
        edges=[
            EdgeSpec(
                child=r1_name,
                column=fk_column,
                parent=r2_name,
                dcs=list(dcs),
                capacity=capacity,
                strategy=strategy,
                options=strategy_options or {},
            )
        ],
        fact_table=r1_name,
    )
    spec.validate()
    return spec

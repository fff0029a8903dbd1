"""A fluent builder for :class:`~repro.spec.model.SynthesisSpec`.

The programmatic twin of the TOML/JSON spec file::

    spec = (
        SpecBuilder("university")
        .relation("Students", columns={"sid": [1, 2], "Year": [1, 2]},
                  key="sid")
        .relation("Majors", csv="majors.csv", key="mid")
        .edge("Students", "major_id", "Majors",
              ccs=["|Year == 1 & MName == 'CS'| = 5"])
        .fact_table("Students")
        .options(workers=2)
        .build()
    )
    result = repro.synthesize(spec)
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from repro.core.config import SolverConfig
from repro.errors import SchemaError
from repro.relational.relation import Relation
from repro.spec.model import EdgeSpec, RelationSpec, SynthesisSpec

__all__ = ["SpecBuilder"]


class SpecBuilder:
    """Assemble a :class:`SynthesisSpec` step by step."""

    def __init__(self, name: str = "") -> None:
        self._spec = SynthesisSpec(name=name)

    def relation(
        self,
        name: str,
        *,
        columns: Optional[Mapping[str, Sequence[object]]] = None,
        csv: Optional[Union[str, Path]] = None,
        data: Optional[Relation] = None,
        key: Optional[str] = None,
        dtypes: Optional[Mapping[str, str]] = None,
    ) -> "SpecBuilder":
        """Declare a relation from inline columns, a CSV, or a Relation."""
        if data is not None and key is None:
            key = data.schema.key
        self._spec.relations.append(
            RelationSpec(
                name=name,
                key=key,
                columns=columns,
                csv=str(csv) if csv is not None else None,
                relation=data,
                dtypes=dtypes,
            )
        )
        return self

    def edge(
        self,
        child: str,
        column: str,
        parent: str,
        *,
        ccs: Sequence[object] = (),
        dcs: Sequence[object] = (),
        capacity: Optional[int] = None,
        strategy: Optional[str] = None,
        options: Optional[Mapping[str, object]] = None,
        solver: Optional[Mapping[str, object]] = None,
        serialize: bool = False,
    ) -> "SpecBuilder":
        """Declare an FK edge; constraints may be strings or objects.

        ``strategy``/``options`` pick and parameterise the Phase-II
        strategy for this edge; ``solver`` shadows individual global
        solver knobs (``time_limit``, ``mip_gap``, ``marginals``, …);
        ``serialize=True`` keeps the edge out of parallel batches.
        """
        self._spec.edges.append(
            EdgeSpec(
                child=child,
                column=column,
                parent=parent,
                ccs=list(ccs),
                dcs=list(dcs),
                capacity=capacity,
                strategy=strategy,
                options=options or {},
                solver=solver or {},
                serialize=serialize,
            )
        )
        return self

    def fact_table(self, name: str) -> "SpecBuilder":
        self._spec.fact_table = name
        return self

    def base_dir(self, path: Union[str, Path]) -> "SpecBuilder":
        self._spec.base_dir = Path(path)
        return self

    def options(
        self, config: Optional[SolverConfig] = None, **knobs: object
    ) -> "SpecBuilder":
        """Set solver options from a config object and/or keyword knobs."""
        if config is not None and knobs:
            raise SchemaError(
                "pass either a SolverConfig or keyword knobs, not both"
            )
        if config is not None:
            self._spec.options = config
        else:
            self._spec = self._spec.with_options(**knobs)
        return self

    def build(self) -> SynthesisSpec:
        """Validate and return the assembled spec."""
        self._spec.validate()
        return self._spec

"""The declarative workload description behind :func:`repro.synthesize`.

A :class:`SynthesisSpec` describes an entire synthesis workload — named
relations (inline, CSV-backed, or in-memory), foreign-key edges with
their per-edge constraint sets and Phase-II strategy knobs, and the
solver options — in one JSON-serialisable object.  It is the interchange
format shared by the CLI, the bench harness, the examples and the
spec-file loader (:mod:`repro.spec.io`); :func:`repro.spec.api.synthesize`
executes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.dc import DenialConstraint
from repro.constraints.parser import parse_cc, parse_dc
from repro.constraints.textio import format_cc, format_dc
from repro.core.config import SolverConfig
from repro.errors import ReproError, SchemaError
from repro.phase2.strategies import key_caps, resolve_strategy
from repro.relational.csvio import (
    infer_csv_schema,
    read_csv_infer,
    read_csv_store,
)
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import ColumnSpec, Schema
from repro.relational.store import NumpyColumnStore
from repro.relational.types import Dtype, infer_dtype

__all__ = ["RelationSpec", "EdgeSpec", "SynthesisSpec"]

#: The array dtype a relation stores each column type as.
_STORED = {Dtype.INT: np.int64, Dtype.STR: object}


def _dtype_of(name: str) -> Dtype:
    try:
        return Dtype(name)
    except ValueError:
        raise SchemaError(
            f"unknown dtype {name!r}; expected one of "
            f"{[d.value for d in Dtype]}"
        ) from None


@dataclass
class RelationSpec:
    """One named relation of a workload.

    Exactly one data source must be set:

    * ``columns`` — inline column data (what spec files embed);
    * ``csv`` — a CSV path, resolved against the spec's base directory;
    * ``relation`` — an in-memory :class:`Relation` (programmatic use;
      serialised back to inline columns by :meth:`to_dict`).

    ``dtypes`` optionally pins column types (``"int"``/``"str"``) for the
    inline and CSV sources, overriding inference — the explicit-schema
    escape hatch for all-numeric categorical columns.
    """

    name: str
    key: Optional[str] = None
    columns: Optional[Mapping[str, Sequence[object]]] = None
    csv: Optional[str] = None
    relation: Optional[Relation] = None
    dtypes: Optional[Mapping[str, str]] = None

    def __post_init__(self) -> None:
        sources = [
            s for s in (self.columns, self.csv, self.relation)
            if s is not None
        ]
        if len(sources) != 1:
            raise SchemaError(
                f"relation {self.name!r} needs exactly one data source "
                "(columns, csv or relation)"
            )

    def build(
        self,
        base_dir: Optional[Path] = None,
        options: Optional[SolverConfig] = None,
    ) -> Relation:
        """Materialise the relation this spec describes.

        With ``options.storage == "mmap"`` the result is backed by a
        chunked on-disk column store in ``storage_dir/<name>`` (a
        temporary directory when ``storage_dir`` is ``None``); a CSV
        source streams straight from the file to disk without ever
        materialising the table.  The values (and therefore the
        synthesis output) are identical either way.
        """
        config = options or SolverConfig()
        spill = config.storage == "mmap"
        directory: Optional[Path] = None
        if config.storage_dir is not None:
            directory = Path(config.storage_dir) / self.name
        if self.relation is not None:
            if spill and not self.relation.is_chunked:
                return self.relation.to_store(config.chunk_rows, directory)
            return self.relation
        if self.csv is not None:
            path = Path(self.csv)
            if not path.is_absolute() and base_dir is not None:
                path = Path(base_dir) / path
            # Wrap every OS-level read failure (missing file, a path that
            # is a directory, permissions) as the library's own error so
            # front ends get one clean failure mode for bad CSV refs —
            # including refs resolving outside the spec's directory.
            try:
                if spill and not self.dtypes:
                    schema = infer_csv_schema(path, key=self.key)
                    return read_csv_store(
                        path,
                        schema,
                        chunk_rows=config.chunk_rows,
                        directory=directory,
                    )
                built = read_csv_infer(path, key=self.key)
            except OSError as exc:
                raise SchemaError(
                    f"relation {self.name!r}: cannot read csv "
                    f"{str(path)!r}: {exc}"
                ) from None
            if self.dtypes:
                dtypes = {spec.name: spec.dtype for spec in built.schema}
                built = self._apply_dtypes(built.columns, dtypes)
        else:
            built = self._apply_dtypes(
                self.columns,
                {n: infer_dtype(list(v)) for n, v in self.columns.items()},
            )
        if spill:
            # Inline columns and dtype-overridden CSVs are small; convert
            # after the (identical) in-RAM build so overrides keep their
            # lenient coercion semantics on both backends.
            built = built.to_store(config.chunk_rows, directory)
        return built

    def _apply_dtypes(
        self,
        columns: Mapping[str, Sequence[object]],
        dtypes: Mapping[str, Dtype],
    ) -> Relation:
        """``columns`` typed by ``dtypes``, after coercing each column
        declared in ``self.dtypes`` with ``str()``/``int()`` from its
        values as stored (a bool column declared str reads ``"1"``)."""
        specs: List[ColumnSpec] = []
        typed: Dict[str, Sequence[object]] = dict(columns)
        for name, dtype in dtypes.items():
            declared = self.dtypes.get(name) if self.dtypes else None
            if declared is not None:
                stored = np.asarray(columns[name], dtype=_STORED[dtype])
                values = stored.tolist()
                dtype = _dtype_of(declared)
                convert = str if dtype is Dtype.STR else int
                try:
                    coerced = [convert(v) for v in values]
                except (TypeError, ValueError):
                    raise SchemaError(
                        f"relation {self.name!r}: column {name!r} "
                        "declared int but holds non-integer values"
                    ) from None
                typed[name] = np.asarray(coerced, dtype=_STORED[dtype])
            specs.append(ColumnSpec(name, dtype))
        schema = Schema(specs, key=self.key)
        if self.columns is None:
            # CSV cells are str and declared columns coerced: no check.
            return Relation(schema, NumpyColumnStore(typed))
        try:
            return Relation(schema, typed)
        except SchemaError as exc:
            raise SchemaError(f"relation {self.name!r}: {exc}") from None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"name": self.name}
        if self.key is not None:
            out["key"] = self.key
        if self.csv is not None:
            out["csv"] = self.csv
        elif self.relation is not None:
            out["columns"] = {
                name: self.relation.column(name).tolist()
                for name in self.relation.schema.names
            }
            out.setdefault(
                "dtypes",
                {
                    spec.name: spec.dtype.value
                    for spec in self.relation.schema
                },
            )
        else:
            out["columns"] = {
                name: list(values) for name, values in self.columns.items()
            }
        if self.dtypes:
            out["dtypes"] = dict(self.dtypes)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RelationSpec":
        known = {"name", "key", "csv", "columns", "dtypes"}
        unknown = set(data) - known
        if unknown:
            raise SchemaError(
                f"unknown relation fields {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        if "name" not in data:
            raise SchemaError("a relation entry needs a 'name'")
        return cls(
            name=data["name"],
            key=data.get("key"),
            columns=data.get("columns"),
            csv=data.get("csv"),
            dtypes=data.get("dtypes"),
        )


def _parse_constraints(
    items: Sequence[object], parse: Callable[[str], object], kind: str
) -> List[object]:
    out: List[object] = []
    for item in items:
        if isinstance(item, str):
            out.append(parse(item))
        elif isinstance(item, (CardinalityConstraint, DenialConstraint)):
            out.append(item)
        else:
            raise SchemaError(f"cannot interpret {item!r} as a {kind}")
    return out


@dataclass
class EdgeSpec:
    """One FK edge: ``child.column`` references ``parent``'s key.

    Carries the edge's constraint sets (as objects; strings are parsed on
    construction) plus the Phase-II strategy knobs — ``capacity`` caps
    per-key usage via the ``"capacity"`` strategy, ``strategy`` names a
    strategy explicitly, ``options`` holds the strategy-specific knobs
    (e.g. ``soft_capacity``'s ``penalty``; see
    :mod:`repro.phase2.strategies`), and ``solver`` carries
    per-edge solver overrides (``time_limit``, ``mip_gap``, ``marginals``,
    …) that shadow the spec's global solver block for this edge only.
    ``serialize = true`` keeps this edge out of parallel batches when the
    workload runs with ``workers > 1`` — the per-edge escape hatch.
    """

    child: str
    column: str
    parent: str
    ccs: List[CardinalityConstraint] = field(default_factory=list)
    dcs: List[DenialConstraint] = field(default_factory=list)
    capacity: Optional[int] = None
    strategy: Optional[str] = None
    options: Mapping[str, object] = field(default_factory=dict)
    solver: Mapping[str, object] = field(default_factory=dict)
    serialize: bool = False

    def __post_init__(self) -> None:
        self.ccs = _parse_constraints(self.ccs, parse_cc, "CC")
        self.dcs = _parse_constraints(self.dcs, parse_dc, "DC")
        self.options = self._table("options", self.options)
        self.solver = self._table("solver", self.solver)

    def _table(self, name: str, value: object) -> Dict[str, object]:
        if value is None:
            return {}
        if not isinstance(value, Mapping):
            raise SchemaError(
                f"edge {self.edge_key}: {name!r} must be a table, "
                f"got {value!r}"
            )
        return dict(value)

    @property
    def edge_key(self) -> Tuple[str, str, str]:
        return (self.child, self.column, self.parent)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "child": self.child,
            "column": self.column,
            "parent": self.parent,
        }
        if self.ccs:
            out["ccs"] = [format_cc(cc) for cc in self.ccs]
        if self.dcs:
            out["dcs"] = [format_dc(dc) for dc in self.dcs]
        if self.capacity is not None:
            out["capacity"] = self.capacity
        if self.strategy is not None:
            out["strategy"] = self.strategy
        if self.options:
            out["options"] = dict(self.options)
        if self.solver:
            out["solver"] = dict(self.solver)
        if self.serialize:
            out["serialize"] = True
        return out

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, object],
        base_dir: Optional[Path] = None,
    ) -> "EdgeSpec":
        known = {
            "child", "column", "parent", "ccs", "dcs",
            "constraints", "constraints_file", "capacity", "strategy",
            "options", "solver", "serialize",
        }
        unknown = set(data) - known
        if unknown:
            raise SchemaError(
                f"unknown edge fields {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        for required in ("child", "column", "parent"):
            if required not in data:
                raise SchemaError(f"an edge entry needs a {required!r}")
        ccs = list(data.get("ccs", []))
        dcs = list(data.get("dcs", []))
        serialize = data.get("serialize", False)
        if not isinstance(serialize, bool):
            raise SchemaError(
                f"edge {data['child']}.{data['column']}: 'serialize' must "
                f"be a boolean, got {serialize!r}"
            )
        edge = cls(
            child=data["child"],
            column=data["column"],
            parent=data["parent"],
            ccs=ccs,
            dcs=dcs,
            capacity=data.get("capacity"),
            strategy=data.get("strategy"),
            options=data.get("options", {}),
            solver=data.get("solver", {}),
            serialize=serialize,
        )
        inline = data.get("constraints")
        if inline is not None:
            from repro.constraints.textio import loads_constraint_sections

            edge._extend_from_sections(
                loads_constraint_sections(
                    str(inline), origin=f"edge {edge.edge_key}"
                ),
                source=f"inline constraints of edge {edge.edge_key}",
            )
        constraints_file = data.get("constraints_file")
        if constraints_file is not None:
            from repro.constraints.textio import load_constraint_sections

            path = Path(constraints_file)
            if not path.is_absolute() and base_dir is not None:
                path = Path(base_dir) / path
            edge._extend_from_sections(
                load_constraint_sections(path), source=str(path)
            )
        return edge

    def _extend_from_sections(
        self,
        sections: Mapping[
            Optional[Tuple[str, str, str]],
            Tuple[List[CardinalityConstraint], List[DenialConstraint]],
        ],
        source: str,
    ) -> None:
        """Adopt this edge's section (and the anonymous one) from a file
        or inline block parsed by :mod:`repro.constraints.textio`."""
        matched = False
        for key in (self.edge_key, None):
            if key in sections:
                ccs, dcs = sections[key]
                self.ccs.extend(ccs)
                self.dcs.extend(dcs)
                matched = True
        if not matched and sections:
            raise SchemaError(
                f"{source} has no section for edge "
                f"[{self.child}.{self.column} -> {self.parent}] and no "
                "anonymous section"
            )


@dataclass
class SynthesisSpec:
    """A complete, declarative synthesis workload.

    The one object every front end shares: the CLI loads it from a
    TOML/JSON file, the fluent :class:`repro.spec.builder.SpecBuilder`
    assembles it programmatically, and :func:`repro.synthesize` executes
    it.  ``base_dir`` anchors relative CSV/constraint paths and is not
    serialised.
    """

    relations: List[RelationSpec] = field(default_factory=list)
    edges: List[EdgeSpec] = field(default_factory=list)
    fact_table: Optional[str] = None
    options: SolverConfig = field(default_factory=SolverConfig)
    name: str = ""
    base_dir: Optional[Path] = None

    # ------------------------------------------------------------------
    # Validation and planning inputs
    # ------------------------------------------------------------------
    def validate(self) -> None:
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate relation names in {names}")
        if not self.relations:
            raise SchemaError("a spec needs at least one relation")
        if not self.edges:
            raise SchemaError("a spec needs at least one FK edge")
        known = set(names)
        seen_edges = set()
        for edge in self.edges:
            for endpoint in (edge.child, edge.parent):
                if endpoint not in known:
                    raise SchemaError(
                        f"edge {edge.edge_key} references unknown "
                        f"relation {endpoint!r}"
                    )
            if (edge.child, edge.column) in seen_edges:
                raise SchemaError(
                    f"duplicate FK edge on {edge.child}.{edge.column}"
                )
            seen_edges.add((edge.child, edge.column))
            # Strategy settings fail here, at spec load time, not deep in
            # Phase II after the upstream edges were solved.
            try:
                key_caps(
                    *resolve_strategy(
                        edge.strategy, edge.capacity, edge.options
                    )
                )
            except ReproError as exc:
                raise SchemaError(f"edge {edge.edge_key}: {exc}") from None
            self._validate_edge_solver(edge)
        if self.fact_table is not None and self.fact_table not in known:
            raise SchemaError(
                f"fact table {self.fact_table!r} is not a declared relation"
            )

    @staticmethod
    def _validate_edge_solver(edge: "EdgeSpec") -> None:
        """Per-edge solver overrides must name real ``SolverConfig`` knobs
        with valid values."""
        if not edge.solver:
            return
        valid = set(SolverConfig.__dataclass_fields__)
        bad = set(edge.solver) - valid
        if bad:
            raise SchemaError(
                f"edge {edge.edge_key}: unknown solver overrides "
                f"{sorted(bad)} (known: {sorted(valid)})"
            )
        try:
            replace(SolverConfig(), **dict(edge.solver))
        except (TypeError, ValueError) as exc:
            raise SchemaError(
                f"edge {edge.edge_key}: invalid solver override: {exc}"
            ) from None

    def fact(self) -> str:
        """The declared fact table, or the inferred traversal root.

        Inference picks the unique relation that owns an FK edge but is
        never referenced by one — the root of a snowflake.  Ambiguous
        shapes must declare ``fact_table`` explicitly.
        """
        if self.fact_table is not None:
            return self.fact_table
        children = {e.child for e in self.edges}
        parents = {e.parent for e in self.edges}
        roots = sorted(children - parents)
        if len(roots) != 1:
            raise SchemaError(
                f"cannot infer the fact table (candidates: {roots}); "
                "set fact_table explicitly"
            )
        return roots[0]

    def to_database(self) -> Database:
        """Materialise every relation and declare every FK edge."""
        self.validate()
        database = Database()
        for spec in self.relations:
            database.add_relation(
                spec.name, spec.build(self.base_dir, self.options)
            )
        for edge in self.edges:
            database.add_foreign_key(edge.child, edge.column, edge.parent)
        return database

    def with_options(self, **overrides: object) -> "SynthesisSpec":
        """A copy with some solver options replaced."""
        return replace(self, options=replace(self.options, **overrides))

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A JSON/TOML-serialisable description of this workload."""
        out: Dict[str, object] = {}
        if self.name:
            out["name"] = self.name
        if self.fact_table is not None:
            out["fact_table"] = self.fact_table
        defaults = SolverConfig()
        options = {
            key: getattr(self.options, key)
            for key in defaults.__dataclass_fields__
            if getattr(self.options, key) != getattr(defaults, key)
        }
        if options:
            out["options"] = options
        out["relations"] = [r.to_dict() for r in self.relations]
        out["edges"] = [e.to_dict() for e in self.edges]
        return out

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, object],
        base_dir: Optional[Path] = None,
    ) -> "SynthesisSpec":
        known = {"name", "fact_table", "options", "relations", "edges"}
        unknown = set(data) - known
        if unknown:
            raise SchemaError(
                f"unknown spec fields {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        options = data.get("options", {})
        if not isinstance(options, Mapping):
            raise SchemaError("'options' must be a table of solver knobs")
        for field in ("relations", "edges"):
            value = data.get(field, [])
            if not isinstance(value, Sequence) or isinstance(value, str):
                raise SchemaError(f"'{field}' must be an array of tables")
        valid = set(SolverConfig.__dataclass_fields__)
        bad = set(options) - valid
        if bad:
            raise SchemaError(
                f"unknown solver options {sorted(bad)} "
                f"(known: {sorted(valid)})"
            )
        try:
            config = SolverConfig(**dict(options))
        except ValueError as exc:
            raise SchemaError(f"invalid solver option: {exc}") from None
        spec = cls(
            relations=[
                RelationSpec.from_dict(entry)
                for entry in data.get("relations", [])
            ],
            edges=[
                EdgeSpec.from_dict(entry, base_dir=base_dir)
                for entry in data.get("edges", [])
            ],
            fact_table=data.get("fact_table"),
            options=config,
            name=data.get("name", ""),
            base_dir=base_dir,
        )
        spec.validate()
        return spec

"""The workloads: seeded inputs on disk, and one op each.

Every workload writes its inputs — a spec TOML plus one CSV per relation
— before any timing starts; the program only ever sees those files.
Solver options pin ``workers = 0``, ``parallel_workers = 0`` and
``executor = "numpy"`` (each only while ``SolverConfig`` still has the
field), so every op runs in this one process on the numpy kernels.

Why these two (shares measured with ``--trace 1``, see ``layers.py``):

* ``census_alldc`` — S_all_DC with the clique-forming DCs: Phase II
  (conflict graph + coloring) and DC-error evaluation dominate and
  Phase I is small; no cache or CSV work to speak of.
* ``retail_edit`` — the only workload through ``service``: a cold
  cache-backed multi-edge run, then three leaf-edge edits that hit the
  two fact edges and re-solve the leaf.  Phase-I leftover completion,
  CSV ingest and fingerprinting dominate; Phase II is almost absent.

Each layer a change targets therefore does most of its work in one of
them and little in the other.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, ContextManager, Dict, List, Optional, Tuple

import repro
from repro.constraints.cc import CardinalityConstraint
from repro.constraints.dc import DenialConstraint
from repro.core.config import SolverConfig
from repro.datagen.constraints_census import all_dcs, cc_family
from repro.datagen.retail import (
    RetailConfig,
    generate_retail,
    retail_constraints,
)
from repro.datagen.scales import generate_scaled
from repro.relational.csvio import write_csv
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.service.cache import EdgeCache
from repro.service.engine import run_spec
from repro.spec.io import toml_dumps
from repro.spec.model import EdgeSpec, RelationSpec, SynthesisSpec

from verify import column_digest

#: Options every workload pins, written only while ``SolverConfig``
#: still declares them (a later release may delete a knob outright).
PINNED = {"workers": 0, "parallel_workers": 0, "executor": "numpy"}

#: ``unit(part)`` — the harness's timer for one timed sample.  The
#: sample it yields has ``count`` (units in the sample) and ``more()``
#: (whether a short unit should repeat to fill the sample).
Unit = Callable[[str], ContextManager]
#: ``part -> {"hits", "misses", "stores"}`` — an op's cache counts.
Tallies = Dict[str, Dict[str, int]]


@dataclass
class EdgeCheck:
    """What the verifier checks on one FK edge of every output."""

    ccs: List[CardinalityConstraint] = field(default_factory=list)
    dcs: List[DenialConstraint] = field(default_factory=list)
    capacity: Optional[int] = None


@dataclass
class Inputs:
    """One workload's files plus what the verifier needs to know."""

    spec_path: Path
    rows: Dict[str, int]
    csv_bytes: int
    #: ``relation -> column -> digest`` of the generated values.
    digests: Dict[str, Dict[str, str]]
    checks: Dict[Tuple[str, str], EdgeCheck]
    #: Retail only: ``(capacity, spec path)`` per leaf-edge edit.
    edits: List[Tuple[int, Path]] = field(default_factory=list)


@dataclass
class Output:
    """One database an op produced, with the checks that apply to it."""

    label: str
    database: Database
    checks: Dict[Tuple[str, str], EdgeCheck]
    #: Spec path a from-scratch ``repro.synthesize`` must reproduce.
    reference: Optional[Path] = None
    #: Label of an earlier output of the same op this one must equal
    #: (a cache splice is byte-identical to the solve it replays).
    same_as: Optional[str] = None


def _write_inputs(
    directory: Path,
    name: str,
    relations: List[Tuple[str, Relation]],
    edges: List[EdgeSpec],
    fact: str,
    options: Dict[str, object],
    checks: Dict[Tuple[str, str], EdgeCheck],
) -> Inputs:
    """Write CSVs plus ``spec.toml``; record sizes and input digests."""
    directory.mkdir(parents=True, exist_ok=True)
    specs = []
    rows: Dict[str, int] = {}
    digests: Dict[str, Dict[str, str]] = {}
    csv_bytes = 0
    for rel_name, relation in relations:
        path = directory / f"{rel_name}.csv"
        write_csv(relation, path)
        csv_bytes += path.stat().st_size
        rows[rel_name] = len(relation)
        digests[rel_name] = {
            col: column_digest(relation.column(col))
            for col in relation.schema.names
        }
        specs.append(
            RelationSpec(rel_name, key=relation.schema.key, csv=path.name)
        )
    spec = SynthesisSpec(
        relations=specs, edges=edges, fact_table=fact, name=name
    )
    spec_path = directory / "spec.toml"
    _save(spec, options, spec_path)
    return Inputs(spec_path, rows, csv_bytes, digests, checks)


def _save(spec: SynthesisSpec, options: Dict[str, object], path: Path) -> None:
    data = spec.to_dict()
    known = SolverConfig.__dataclass_fields__
    pinned = {k: v for k, v in {**PINNED, **options}.items() if k in known}
    data["options"] = {**data.get("options", {}), **pinned}
    path.write_text(toml_dumps(data))


def _tally(tallies: Tallies, part: str, cache: EdgeCache) -> None:
    """Add one cache handle's lookups and stores to ``tallies[part]``.

    Ops keep these counts rather than the handles: each handle holds
    the entries it loaded, so keeping them would make an op's peak RSS
    grow with how many re-submissions fit in a sample.
    """
    bucket = tallies.setdefault(part, {})
    for key in ("hits", "misses", "stores"):
        bucket[key] = bucket.get(key, 0) + getattr(cache, key)


def prebuilt(spec: SynthesisSpec, database: Database) -> SynthesisSpec:
    """``spec`` with every relation already built (in RAM or on disk).

    Each call wraps the built column stores in new ``Relation`` objects,
    so no op inherits the content hashes or factorization codes an
    earlier op memoized on them — every submission hashes and encodes
    its inputs, as a job arriving with freshly loaded data would.
    """
    relations = []
    for name in database.relation_names:
        built = database.relation(name)
        relations.append(RelationSpec(
            name, key=built.schema.key,
            relation=Relation(built.schema, built.store)))
    return SynthesisSpec(
        relations=relations,
        edges=spec.edges,
        fact_table=spec.fact_table,
        options=spec.options,
        name=spec.name,
    )


class Workload:
    """One workload: its inputs, set-up and op."""

    name = ""
    #: Timed re-submission samples per op, each repeating the
    #: re-submission until it lasts :data:`MIN_SAMPLE_S`: one unit lasts
    #: milliseconds, so a single short sample per op would leave the
    #: run's median to a handful of noisy samples.
    resynth_samples = 4

    def generate(self, directory: Path, seed: int, toy: bool) -> Inputs:
        raise NotImplementedError

    def submission(self, spec: SynthesisSpec,
                   database: Database) -> Callable[[], SynthesisSpec]:
        """What each op submits, given the last set-up's result: the
        spec with its relations already built."""
        return lambda: prebuilt(spec, database)

    def warm_up(self, submit: Callable[[], SynthesisSpec], inputs: Inputs,
                work: Path, unit: Unit) -> None:
        """One untimed op: the first HiGHS call and lazy imports cost
        extra once per process.  Also fills the cache the one-edge
        workloads' re-submissions read (copied fresh for every op)."""
        run_spec(submit(), cache=EdgeCache(work / "filled-cache"))

    def op(self, submit: Callable[[], SynthesisSpec], inputs: Inputs,
           op_dir: Path, unit: Unit) -> Tuple[List[Output], Tallies]:
        """Synthesize, then re-submit the same relations for
        :attr:`resynth_samples` timed samples, each time through a new
        handle on a fresh copy of the filled cache: the fingerprint
        hashes the inputs and the one edge hits.

        Returns the outputs to verify — the synthesis and the last
        re-submission — and the cache counts per part.
        """
        spec = submit()
        with unit("synth"):
            result = repro.synthesize(spec)
        outputs = [Output("synth", result.database, inputs.checks)]
        del result, spec
        cache_dir = op_dir / "cache"
        shutil.copytree(op_dir.parent / "filled-cache", cache_dir)
        tallies: Tallies = {}
        for _ in range(self.resynth_samples):
            with unit("resynth") as sample:
                sample.count = 0
                while not sample.count or sample.more():
                    cache = EdgeCache(cache_dir)
                    again = run_spec(submit(), cache=cache).database
                    _tally(tallies, "resynth", cache)
                    sample.count += 1
        outputs.append(
            Output("resynth", again, inputs.checks, same_as="synth")
        )
        return outputs, tallies


class CensusAllDC(Workload):
    """Scale 30 (7,178 persons, 2,946 households), 120 good CCs, the 20
    S_all_DC constraints; evaluation on."""

    name = "census_alldc"

    def generate(self, directory: Path, seed: int, toy: bool) -> Inputs:
        scale, num_ccs = (1, 60) if toy else (30, 120)
        data = generate_scaled(scale, seed=seed)
        ccs = cc_family(data, "good", num_ccs)
        dcs = all_dcs()
        edge = EdgeSpec("persons", "hid", "housing", ccs=ccs, dcs=dcs)
        return _write_inputs(
            directory,
            self.name,
            [("persons", data.persons_masked), ("housing", data.housing)],
            [edge],
            "persons",
            {"evaluate": True},
            {("persons", "hid"): EdgeCheck(ccs=ccs, dcs=dcs)},
        )


class RetailEdit(Workload):
    """60,000 orders, 300 customers, 60 products, 20 suppliers, with
    ``retail_constraints``; written as 4 CSVs."""

    capacities = (2, 3, 4)

    name = "retail_edit"

    def generate(self, directory: Path, seed: int, toy: bool) -> Inputs:
        config = (
            RetailConfig(n_orders=600, n_customers=30, n_products=12,
                         n_suppliers=5, seed=seed)
            if toy
            else RetailConfig(n_orders=60_000, n_customers=300,
                              n_products=60, n_suppliers=20, seed=seed)
        )
        data = generate_retail(config)
        constraints = retail_constraints(data)
        database = data.database
        edges = [
            EdgeSpec(fk.child, fk.column, fk.parent,
                     ccs=list(constraints[(fk.child, fk.column)].ccs),
                     dcs=list(constraints[(fk.child, fk.column)].dcs))
            for fk in database.foreign_keys
        ]
        checks = {
            (edge.child, edge.column): EdgeCheck(ccs=edge.ccs, dcs=edge.dcs)
            for edge in edges
        }
        inputs = _write_inputs(
            directory,
            self.name,
            [(name, database.relation(name))
             for name in database.relation_names],
            edges,
            "Orders",
            {"evaluate": True},
            checks,
        )
        spec = repro.load_spec(inputs.spec_path)
        for capacity in self.capacities:
            leaf = replace(spec.edges[-1], capacity=capacity)
            path = directory / f"edit-capacity-{capacity}.toml"
            _save(replace(spec, edges=[*spec.edges[:-1], leaf]),
                  {"evaluate": True}, path)
            inputs.edits.append((capacity, path))
        return inputs

    def submission(self, spec: SynthesisSpec,
                   database: Database) -> Callable[[], SynthesisSpec]:
        """Service jobs build their own database from the spec files."""
        return lambda: spec

    def warm_up(self, submit: Callable[[], SynthesisSpec], inputs: Inputs,
                work: Path, unit: Unit) -> None:
        op_dir = work / "warm-up"
        op_dir.mkdir()
        try:
            self.op(submit, inputs, op_dir, unit)
        finally:
            shutil.rmtree(op_dir, ignore_errors=True)

    def op(self, submit: Callable[[], SynthesisSpec], inputs: Inputs,
           op_dir: Path, unit: Unit) -> Tuple[List[Output], Tallies]:
        """A cold cache-backed run, then one edit per capacity, each a
        new cache handle on the same directory (2 hits + 1 miss).

        The three edits form one timed sample (time per edit): edits of
        different capacities cost different amounts, so every sample
        holds the same mix and the run's median is not left to which
        edit lands in the middle.
        """
        spec = submit()
        cache_dir = op_dir / "cache"
        tallies: Tallies = {}
        cache = EdgeCache(cache_dir)
        with unit("synth"):
            result = run_spec(spec, cache=cache)
        _tally(tallies, "synth", cache)
        outputs = [Output("cold", result.database, inputs.checks)]
        del result
        edited = [repro.load_spec(path) for _, path in inputs.edits]
        edits = []
        with unit("resynth") as sample:
            sample.count = len(edited)
            for edited_spec in edited:
                cache = EdgeCache(cache_dir)
                edits.append(run_spec(edited_spec, cache=cache).database)
                _tally(tallies, "resynth", cache)
        leaf = spec.edges[-1]
        for (capacity, path), database in zip(inputs.edits, edits):
            checks = dict(inputs.checks)
            checks[(leaf.child, leaf.column)] = EdgeCheck(
                dcs=list(leaf.dcs), capacity=capacity
            )
            outputs.append(Output(f"edit{capacity}", database, checks, path))
        return outputs, tallies


WORKLOADS: Dict[str, Workload] = {
    wl.name: wl
    for wl in (CensusAllDC(), RetailEdit())
}

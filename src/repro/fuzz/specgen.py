"""Seeded generation of adversarial synthesis workloads.

:func:`generate_spec` turns ``(seed, profile)`` into a fully inline
:class:`~repro.spec.model.SynthesisSpec` — no CSV references, every
relation's dtypes pinned — so the spec serialises to a self-contained
TOML file that is **byte-identical across processes** for the same
``(seed, profile)`` pair (the fuzzer's reproducibility contract; all
randomness flows from one ``random.Random`` seeded with the pair).

Profiles sample the acyclic/snowflake schema space the paper's shallow
star evaluation never reaches — run in the reverse direction of Kenig et
al.'s acyclic-scheme *mining*: enumerate hard acyclic topologies first,
then synthesise data to stress them:

* ``deep`` — ladders of diamonds (two FK paths re-converging on a shared
  dimension, stacked), the shape that stresses the join-once extended
  view and conflict-free batch scheduling;
* ``wide`` — 8–16-arm stars, some arms extended into snowflake chains;
* ``skewed`` — Zipf-distributed attribute values and key fan-outs, so a
  handful of parent keys absorb most children;
* ``infeasible`` — CC targets near (or past) what the data can satisfy,
  ``capacity = 1`` caps, unit quotas, and occasional hard CCs
  (``soft_ccs = false``) that make the whole system genuinely
  infeasible — every engine cell must *agree* on that verdict;
* ``tiny`` — empty and singleton relations, the degenerate shapes;
* ``census`` — a miniature Table-2 census row through
  :func:`repro.datagen.workloads.census_spec` (real-data idioms: wide
  DC families, 2–10 parent columns);
* ``mixed`` — all of the above, drawn at random (the default).

Every edge independently mixes Phase-II strategies (``capacity``,
``soft_capacity``, ``quota_coloring``), a per-edge ``time_limit``
solver override and ``serialize`` flags, so one fuzz run crosses the
scheduler, the strategy suite and the limited ILP solve at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.spec.builder import SpecBuilder
from repro.spec.model import SynthesisSpec

__all__ = ["FuzzProfile", "PROFILES", "generate_spec"]


@dataclass(frozen=True)
class FuzzProfile:
    """The knobs one named fuzz profile draws specs from."""

    name: str
    #: Topology families this profile samples (uniformly).
    topologies: Tuple[str, ...] = ("star", "diamond", "chain")
    #: Star arity range (``wide`` pushes this to 8–16).
    arms: Tuple[int, int] = (2, 5)
    #: Diamond-ladder depth range (each level adds 3 relations, 4 edges).
    depth: Tuple[int, int] = (1, 2)
    #: Fact-table row-count range.
    fact_rows: Tuple[int, int] = (10, 40)
    #: Dimension key-count range.
    dim_rows: Tuple[int, int] = (2, 6)
    #: Zipf exponent for skewed value draws (``None`` = uniform).
    zipf_alpha: Optional[float] = None
    #: Probability a relation is generated empty / singleton.
    p_degenerate: float = 0.0
    #: Per-edge probabilities.
    p_cc: float = 0.8
    p_dc: float = 0.6
    p_strategy: float = 0.4
    p_solver_override: float = 0.25
    p_serialize: float = 0.2
    #: Drive CC targets to the edge of feasibility and caps to 1.
    near_infeasible: bool = False
    #: Probability the spec disables CC slack (hard CCs can be
    #: genuinely infeasible — the oracle checks all cells agree).
    p_hard_ccs: float = 0.0


PROFILES: Dict[str, FuzzProfile] = {
    "mixed": FuzzProfile(
        name="mixed",
        topologies=("star", "diamond", "chain", "snowstar"),
        p_degenerate=0.1,
        zipf_alpha=None,
    ),
    "deep": FuzzProfile(
        name="deep",
        topologies=("diamond",),
        depth=(2, 4),
        fact_rows=(8, 24),
        dim_rows=(2, 4),
    ),
    "wide": FuzzProfile(
        name="wide",
        topologies=("snowstar",),
        arms=(8, 16),
        fact_rows=(12, 32),
        dim_rows=(2, 4),
        p_cc=0.5,
        p_dc=0.4,
    ),
    "skewed": FuzzProfile(
        name="skewed",
        topologies=("star", "chain"),
        zipf_alpha=1.8,
        fact_rows=(24, 64),
        dim_rows=(2, 4),
    ),
    "infeasible": FuzzProfile(
        name="infeasible",
        topologies=("star", "diamond"),
        arms=(2, 4),
        fact_rows=(10, 30),
        dim_rows=(2, 4),
        near_infeasible=True,
        p_cc=1.0,
        p_dc=0.8,
        p_strategy=0.7,
        p_hard_ccs=0.3,
    ),
    "tiny": FuzzProfile(
        name="tiny",
        topologies=("star", "chain"),
        arms=(1, 3),
        fact_rows=(0, 4),
        dim_rows=(1, 2),
        p_degenerate=0.6,
        p_cc=0.6,
        p_dc=0.5,
    ),
    "census": FuzzProfile(name="census", topologies=()),
}


# ----------------------------------------------------------------------
# Topology: relations and FK edges, no data yet
# ----------------------------------------------------------------------

@dataclass
class _Rel:
    name: str
    key: str
    #: categorical attribute → value vocabulary
    cat: Dict[str, List[str]]
    #: integer attribute → inclusive (lo, hi) range
    ints: Dict[str, Tuple[int, int]]
    rows: int = 0


@dataclass
class _Edge:
    child: str
    column: str
    parent: str


def _fresh_rel(
    rng: random.Random, name: str, profile: FuzzProfile, is_fact: bool
) -> _Rel:
    lo, hi = profile.fact_rows if is_fact else profile.dim_rows
    rows = rng.randint(lo, hi)
    degenerate = (
        profile.p_degenerate and rng.random() < profile.p_degenerate
    )
    if degenerate:
        rows = rng.choice([0, 1]) if is_fact else rng.choice([1, 1, 2])
    cat: Dict[str, List[str]] = {}
    ints: Dict[str, Tuple[int, int]] = {}
    n_cat = rng.randint(1, 2)
    for j in range(n_cat):
        vocab = [f"{name.lower()}v{v}" for v in range(rng.randint(2, 4))]
        cat[f"{name}_c{j}"] = vocab
    if rng.random() < 0.5:
        lo_i = rng.randint(0, 40)
        ints[f"{name}_n"] = (lo_i, lo_i + rng.randint(5, 60))
    return _Rel(
        name=name, key=f"{name.lower()}_id", cat=cat, ints=ints, rows=rows
    )


def _topology(
    rng: random.Random, profile: FuzzProfile
) -> Tuple[List[_Rel], List[_Edge]]:
    kind = rng.choice(profile.topologies)
    rels: List[_Rel] = [_fresh_rel(rng, "F", profile, is_fact=True)]
    edges: List[_Edge] = []

    def dim(name: str) -> _Rel:
        rel = _fresh_rel(rng, name, profile, is_fact=False)
        rels.append(rel)
        return rel

    def link(child: str, parent: str) -> None:
        edges.append(
            _Edge(child, f"{child.lower()}_{parent.lower()}_id", parent)
        )

    if kind in ("star", "snowstar"):
        arms = rng.randint(*profile.arms)
        for i in range(1, arms + 1):
            dim(f"D{i}")
            link("F", f"D{i}")
            if kind == "snowstar" and rng.random() < 0.3:
                dim(f"S{i}")
                link(f"D{i}", f"S{i}")
    elif kind == "chain":
        length = rng.randint(2, 4)
        previous = "F"
        for i in range(1, length + 1):
            dim(f"C{i}")
            link(previous, f"C{i}")
            previous = f"C{i}"
    elif kind == "diamond":
        depth = rng.randint(*profile.depth)
        top = "F"
        for i in range(1, depth + 1):
            for side in ("L", "R"):
                dim(f"{side}{i}")
                link(top, f"{side}{i}")
            dim(f"B{i}")
            link(f"L{i}", f"B{i}")
            link(f"R{i}", f"B{i}")
            top = f"B{i}"
    else:  # pragma: no cover - profile tables list known kinds only
        raise ReproError(f"unknown topology kind {kind!r}")
    return rels, edges


# ----------------------------------------------------------------------
# Data: inline columns, optionally Zipf-skewed
# ----------------------------------------------------------------------

def _draw(
    rng: random.Random,
    values: Sequence[object],
    n: int,
    alpha: Optional[float],
) -> List[object]:
    if not n:
        return []
    if alpha is None:
        return [rng.choice(values) for _ in range(n)]
    weights = [1.0 / (rank + 1) ** alpha for rank in range(len(values))]
    return rng.choices(list(values), weights=weights, k=n)


def _columns(
    rng: random.Random, rel: _Rel, profile: FuzzProfile
) -> Tuple[Dict[str, List[object]], Dict[str, str]]:
    columns: Dict[str, List[object]] = {
        rel.key: list(range(1, rel.rows + 1))
    }
    dtypes: Dict[str, str] = {rel.key: "int"}
    for attr, vocab in rel.cat.items():
        columns[attr] = _draw(rng, vocab, rel.rows, profile.zipf_alpha)
        dtypes[attr] = "str"
    for attr, (lo, hi) in rel.ints.items():
        columns[attr] = [rng.randint(lo, hi) for _ in range(rel.rows)]
        dtypes[attr] = "int"
    return columns, dtypes


# ----------------------------------------------------------------------
# Constraints and per-edge knobs
# ----------------------------------------------------------------------

def _cc_for(
    rng: random.Random,
    child: _Rel,
    parent: _Rel,
    child_columns: Dict[str, List[object]],
    profile: FuzzProfile,
) -> Optional[str]:
    atoms: List[str] = []
    matching = child.rows
    if child.cat and rng.random() < 0.9:
        attr = rng.choice(sorted(child.cat))
        value = rng.choice(child.cat[attr])
        atoms.append(f"{attr} == '{value}'")
        matching = sum(1 for v in child_columns[attr] if v == value)
    if child.ints and rng.random() < 0.4:
        attr = rng.choice(sorted(child.ints))
        lo, hi = child.ints[attr]
        mid = rng.randint(lo, hi)
        window = (mid, min(hi, mid + (hi - lo) // 2))
        atoms.append(f"{attr} in [{window[0]}, {window[1]}]")
    if parent.cat:
        attr = rng.choice(sorted(parent.cat))
        value = rng.choice(parent.cat[attr])
        atoms.append(f"{attr} == '{value}'")
    if not atoms:
        return None
    if profile.near_infeasible:
        # A target the data can barely (or not quite) meet: every
        # matching child row must land on the named parent cell, or one
        # more than exist.  Soft CCs absorb the gap; hard CCs may not.
        target = matching + rng.choice([0, 0, 1])
    else:
        target = rng.randint(0, max(1, matching))
    return f"|{' & '.join(atoms)}| = {target}"


def _dc_for(rng: random.Random, child: _Rel) -> Optional[str]:
    if child.cat and (not child.ints or rng.random() < 0.75):
        attr = rng.choice(sorted(child.cat))
        vocab = child.cat[attr]
        a = rng.choice(vocab)
        if rng.random() < 0.5:
            b = rng.choice(vocab)
            return f"not(t1.{attr} == '{a}' & t2.{attr} == '{b}')"
        others = [v for v in vocab if v != a] or [a]
        listed = ", ".join(f"'{v}'" for v in others[:2])
        return f"not(t1.{attr} == '{a}' & t2.{attr} in {{{listed}}})"
    if child.ints:
        attr = rng.choice(sorted(child.ints))
        gap = rng.randint(5, 40)
        return f"not(t2.{attr} > t1.{attr} + {gap})"
    return None


def _edge_knobs(
    rng: random.Random, profile: FuzzProfile
) -> Tuple[
    Optional[int],
    Optional[str],
    Dict[str, object],
    Dict[str, object],
    bool,
]:
    """``(capacity, strategy, options, solver, serialize)`` for one edge."""
    capacity: Optional[int] = None
    strategy: Optional[str] = None
    options: Dict[str, object] = {}
    if rng.random() < profile.p_strategy:
        strategy = rng.choice(
            ["capacity", "soft_capacity", "quota_coloring"]
        )
        cap = 1 if profile.near_infeasible else rng.randint(1, 4)
        if strategy in ("capacity", "soft_capacity"):
            capacity = cap
            if strategy == "soft_capacity":
                options["penalty"] = rng.choice([1, 2, 10])
        else:
            options["default_quota"] = cap
    solver: Dict[str, object] = {}
    if rng.random() < profile.p_solver_override:
        if rng.random() < 0.5:
            solver["time_limit"] = 20.0
    serialize = rng.random() < profile.p_serialize
    return capacity, strategy, options, solver, serialize


# ----------------------------------------------------------------------
# The generator
# ----------------------------------------------------------------------

def _census(rng: random.Random, seed: int) -> SynthesisSpec:
    from repro.datagen.workloads import DATASETS, census_spec

    number = rng.choice(sorted(DATASETS))
    return census_spec(
        number,
        num_ccs=rng.randint(4, 16),
        num_dcs=rng.randint(2, 8),
        mini_divisor=16000,
        seed=seed,
        name=f"fuzz-census-{seed}",
    )


def generate_spec(seed: int, profile: str = "mixed") -> SynthesisSpec:
    """One adversarial workload, reproducible from ``(seed, profile)``.

    The returned spec is fully inline (no file references) and pins
    every column dtype, so ``save_spec`` emits a self-contained TOML
    whose bytes depend only on ``(seed, profile)``.
    """
    if profile not in PROFILES:
        raise ReproError(
            f"unknown fuzz profile {profile!r} "
            f"(available: {', '.join(sorted(PROFILES))})"
        )
    rng = random.Random(f"repro-fuzz:{profile}:{seed}")
    if profile == "census":
        return _census(rng, seed)
    prof = PROFILES[profile]

    rels, edges = _topology(rng, prof)
    by_name = {rel.name: rel for rel in rels}
    builder = SpecBuilder(f"fuzz-{profile}-{seed}")
    data: Dict[str, Dict[str, List[object]]] = {}
    for rel in rels:
        columns, dtypes = _columns(rng, rel, prof)
        data[rel.name] = columns
        builder.relation(
            rel.name, columns=columns, key=rel.key, dtypes=dtypes
        )
    for edge in edges:
        child, parent = by_name[edge.child], by_name[edge.parent]
        ccs: List[str] = []
        dcs: List[str] = []
        if rng.random() < prof.p_cc:
            for _ in range(rng.randint(1, 3 if prof.near_infeasible else 2)):
                cc = _cc_for(rng, child, parent, data[edge.child], prof)
                if cc is not None:
                    ccs.append(cc)
        if rng.random() < prof.p_dc:
            dc = _dc_for(rng, child)
            if dc is not None:
                dcs.append(dc)
        capacity, strategy, options, solver, serialize = _edge_knobs(
            rng, prof
        )
        builder.edge(
            edge.child,
            edge.column,
            edge.parent,
            ccs=ccs,
            dcs=dcs,
            capacity=capacity,
            strategy=strategy,
            options=options,
            solver=solver,
            serialize=serialize,
        )
    builder.fact_table("F")
    if prof.p_hard_ccs and rng.random() < prof.p_hard_ccs:
        builder.options(soft_ccs=False)
    return builder.build()

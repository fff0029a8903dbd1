"""Synthetic Census-style data (the paper's evaluation substrate).

The authors evaluate on a dataset derived from the 2010 U.S. Decennial
Census synthetic file [44], which we cannot ship.  This generator builds
the closest synthetic equivalent: ``Persons(pid, Rel, Age, Multi-ling,
hid)`` and ``Housing(hid, Tenure, Area, …)`` with the same relationship
vocabulary, the same ≈2.55 persons-per-household ratio, and ages sampled
inside the windows Table 4's DCs permit — so the *ground truth* assignment
satisfies all twelve DCs, and CC targets read off the ground-truth join
are mutually consistent.  DESIGN.md documents the substitution.

Housing grows from 2 to 10 non-key columns along the Figure 12 ladder:
``(Tenure, Area)`` → ``+ (County, St)`` → ``+ (Div, Reg)`` →
``+ (Water, Bath)`` → ``+ (Fridge, Stove)``.  ``County``/``St``/``Div``/
``Reg`` are functionally determined by ``Area`` as in the paper.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.relational import join
from repro.relational.relation import Relation
from repro.relational.schema import ColumnSpec, Schema
from repro.relational.types import Dtype

__all__ = [
    "REL_OWNER",
    "REL_SPOUSE",
    "REL_PARTNER",
    "REL_BIO_CHILD",
    "REL_ADOPTED_CHILD",
    "REL_STEP_CHILD",
    "REL_FOSTER_CHILD",
    "REL_SIBLING",
    "REL_PARENT",
    "REL_PARENT_IN_LAW",
    "REL_GRANDCHILD",
    "REL_CHILD_IN_LAW",
    "REL_ROOMMATE",
    "CHILD_RELS",
    "CensusConfig",
    "CensusData",
    "generate_census",
]

REL_OWNER = "Owner"
REL_SPOUSE = "Spouse"
REL_PARTNER = "Unmarried partner"
REL_BIO_CHILD = "Biological child"
REL_ADOPTED_CHILD = "Adopted child"
REL_STEP_CHILD = "Step child"
REL_FOSTER_CHILD = "Foster child"
REL_SIBLING = "Sibling"
REL_PARENT = "Father/Mother"
REL_PARENT_IN_LAW = "Parent-in-law"
REL_GRANDCHILD = "Grandchild"
REL_CHILD_IN_LAW = "Son/Daughter in-law"
REL_ROOMMATE = "House/Room mate"

#: The child relationships governed by Table 4's rows 1-2.
CHILD_RELS = (REL_BIO_CHILD, REL_ADOPTED_CHILD, REL_STEP_CHILD)

MAX_AGE = 114

_TENURES = ("Owned", "Mortgaged", "Rented", "Occupied")


@dataclass(frozen=True)
class CensusConfig:
    """Generator knobs.

    ``n_housing_columns`` follows the Figure 12 ladder and must be one of
    2, 4, 6, 8, 10.  ``n_areas``/``n_tenures`` control how many distinct
    ``(Tenure, Area)`` combinations exist (the paper had 469 Tenure–Area
    pairs over 121 areas; the mini default keeps the same shape smaller).
    """

    n_households: int = 400
    n_areas: int = 12
    n_tenures: int = 3
    n_housing_columns: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_housing_columns not in (2, 4, 6, 8, 10):
            raise ReproError("n_housing_columns must be 2, 4, 6, 8 or 10")
        if self.n_tenures > len(_TENURES):
            raise ReproError(f"at most {len(_TENURES)} tenures supported")
        if min(self.n_households, self.n_areas, self.n_tenures) < 1:
            raise ReproError("sizes must be positive")


@dataclass
class CensusData:
    """Generated relations plus the ground-truth FK assignment."""

    persons: Relation  # includes the ground-truth ``hid`` column
    housing: Relation
    config: CensusConfig

    @property
    def persons_masked(self) -> Relation:
        """Persons with the FK column removed (the solver's input)."""
        return self.persons.drop_column("hid")

    def ground_truth_join(self) -> Relation:
        return join.fk_join(self.persons, self.housing, "hid")


def _sample_member_ages(
    rng: random.Random, owner_age: int
) -> List[Tuple[str, int]]:
    """Household members consistent with every Table 4 DC window."""
    members: List[Tuple[str, int]] = []

    def window(lo: float, hi: float) -> Optional[Tuple[int, int]]:
        lo_i, hi_i = max(0, int(lo)), min(MAX_AGE, int(hi))
        if lo_i > hi_i:
            return None
        return lo_i, hi_i

    # Spouse XOR unmarried partner (DC 12 allows at most one of either).
    roll = rng.random()
    partner_window = window(owner_age - 50, owner_age + 50)
    if partner_window and roll < 0.40:
        members.append((REL_SPOUSE, rng.randint(*partner_window)))
    elif partner_window and roll < 0.50:
        members.append((REL_PARTNER, rng.randint(*partner_window)))

    # Children: intersect the multilingual and monolingual windows so the
    # ground truth is safe whatever Multi-ling flag the child draws.
    child_window = window(owner_age - 50, owner_age - 12)
    if child_window:
        for _ in range(rng.choices((0, 1, 2, 3), weights=(55, 30, 12, 3))[0]):
            members.append(
                (rng.choice(CHILD_RELS), rng.randint(*child_window))
            )
        if rng.random() < 0.04:
            members.append((REL_FOSTER_CHILD, rng.randint(*child_window)))

    sibling_window = window(owner_age - 35, owner_age + 35)
    if sibling_window and rng.random() < 0.06:
        members.append((REL_SIBLING, rng.randint(*sibling_window)))

    if owner_age <= 94:  # DC 11
        parent_window = window(owner_age + 12, owner_age + 115)
        if parent_window and rng.random() < 0.06:
            parent_rel = rng.choice((REL_PARENT, REL_PARENT_IN_LAW))
            members.append((parent_rel, rng.randint(*parent_window)))

    if owner_age >= 30:  # DC 10
        grandchild_window = window(owner_age - 115, owner_age - 30)
        if grandchild_window and rng.random() < 0.05:
            members.append(
                (REL_GRANDCHILD, rng.randint(*grandchild_window))
            )
        in_law_window = window(owner_age - 69, owner_age - 1)
        if in_law_window and rng.random() < 0.03:
            members.append((REL_CHILD_IN_LAW, rng.randint(*in_law_window)))

    roommate_window = window(max(15, owner_age - 30), min(85, owner_age + 30))
    if roommate_window and rng.random() < 0.08:
        members.append((REL_ROOMMATE, rng.randint(*roommate_window)))

    return members


def _housing_schema(n_columns: int) -> Schema:
    specs = [ColumnSpec("hid", Dtype.INT), ColumnSpec("Tenure", Dtype.STR)]
    ladder = [
        ("County", Dtype.STR),
        ("Area", Dtype.STR),
        ("St", Dtype.STR),
        ("Div", Dtype.STR),
        ("Reg", Dtype.STR),
        ("Water", Dtype.INT),
        ("Bath", Dtype.INT),
        ("Fridge", Dtype.INT),
        ("Stove", Dtype.INT),
    ]
    if n_columns == 2:
        specs.append(ColumnSpec("Area", Dtype.STR))
    else:
        take = {4: 3, 6: 5, 8: 7, 10: 9}[n_columns]
        for name, dtype in ladder[:take]:
            specs.append(ColumnSpec(name, dtype))
    return Schema(specs, key="hid")


def generate_census(config: Optional[CensusConfig] = None) -> CensusData:
    """Generate one deterministic Census-style dataset."""
    config = config or CensusConfig()
    rng = random.Random(config.seed)

    # ------------------------------------------------------------------
    # Housing.
    # ------------------------------------------------------------------
    schema = _housing_schema(config.n_housing_columns)
    areas = [f"Area{1000 + i}" for i in range(config.n_areas)]
    tenures = _TENURES[: config.n_tenures]
    counties = {a: f"County{100 + i // 3}" for i, a in enumerate(areas)}
    states = {
        c: f"St{10 + i // 2}"
        for i, c in enumerate(sorted(set(counties.values())))
    }
    divisions = {
        s: f"Div{1 + i // 2}"
        for i, s in enumerate(sorted(set(states.values())))
    }
    regions = {
        d: f"Reg{1 + i // 2}"
        for i, d in enumerate(sorted(set(divisions.values())))
    }

    housing_rows = []
    for hid in range(1, config.n_households + 1):
        area = areas[rng.randrange(len(areas))]
        county = counties[area]
        state = states[county]
        row: Dict[str, object] = {
            "hid": hid,
            "Tenure": tenures[rng.randrange(len(tenures))],
            "Area": area,
            "County": county,
            "St": state,
            "Div": divisions[state],
            "Reg": regions[divisions[state]],
            "Water": rng.randint(0, 1),
            "Bath": rng.randint(0, 1),
            "Fridge": rng.randint(0, 1),
            "Stove": rng.randint(0, 1),
        }
        housing_rows.append(tuple(row[name] for name in schema.names))
    housing = Relation.from_rows(schema, housing_rows)

    # ------------------------------------------------------------------
    # Persons (ground-truth hid attached).
    # ------------------------------------------------------------------
    person_schema = Schema(
        [
            ColumnSpec("pid", Dtype.INT),
            ColumnSpec("Rel", Dtype.STR),
            ColumnSpec("Age", Dtype.INT),
            ColumnSpec("Multi-ling", Dtype.INT),
            ColumnSpec("hid", Dtype.INT),
        ],
        key="pid",
    )
    person_rows = []
    pid = 1
    for hid in range(1, config.n_households + 1):
        owner_age = rng.randint(18, 102)
        person_rows.append(
            (pid, REL_OWNER, owner_age, rng.randint(0, 1), hid)
        )
        pid += 1
        for rel, age in _sample_member_ages(rng, owner_age):
            person_rows.append((pid, rel, age, rng.randint(0, 1), hid))
            pid += 1
    persons = Relation.from_rows(person_schema, person_rows)

    return CensusData(persons=persons, housing=housing, config=config)

"""The constraint sets of the paper's evaluation (Tables 4 and 5).

**DCs** — Table 4's twelve rows.  Rows expressing "age outside [lo, hi]"
expand into a *low* and an *up* conjunctive DC (exactly like the paper's
own Figure 2a splits the spouse range); the row count follows the paper's
numbering, so ``all_dcs()`` covers rows 1–12 (``S_all_DC``) and
``good_dcs()`` rows 1–8 (``S_good_DC`` — the age-gap DCs, which do not
create cliques in conflict graphs).

**CCs** — Table 5's template families instantiated against the generated
data.  ``S_good`` combines containment *chains* of R1 templates with R2
conditions such that no pair of emitted CCs intersects (chains share their
R2 condition; distinct chains have disjoint R1 templates).  ``S_bad`` adds
the overlapping Spouse/Grandchild/Step/Adopted templates of the right
table, producing intersecting pairs.  Targets are the true counts of the
ground-truth join, so the constraint system is consistent by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.dc import BinaryAtom, DenialConstraint, UnaryAtom
from repro.datagen.census import (
    CHILD_RELS,
    REL_ADOPTED_CHILD,
    REL_BIO_CHILD,
    REL_CHILD_IN_LAW,
    REL_FOSTER_CHILD,
    REL_GRANDCHILD,
    REL_OWNER,
    REL_PARENT,
    REL_PARENT_IN_LAW,
    REL_PARTNER,
    REL_ROOMMATE,
    REL_SIBLING,
    REL_SPOUSE,
    REL_STEP_CHILD,
    CensusData,
)
from repro.relational.predicate import Interval, Predicate, ValueSet

__all__ = [
    "all_dcs",
    "good_dcs",
    "cc_family",
    "GOOD_CHAINS",
    "BAD_EXTRA_TEMPLATES",
]


def _owner(*extra: UnaryAtom) -> List[UnaryAtom]:
    return [UnaryAtom(0, "Rel", "==", REL_OWNER), *extra]


def _range_dcs(
    number: int,
    label: str,
    t1_atoms: List[UnaryAtom],
    t2_rel: Tuple[str, ...],
    lo_offset: Optional[int],
    hi_offset: Optional[int],
) -> List[DenialConstraint]:
    """Row ``number``: t2's age must lie in ``[A+lo_offset, A+hi_offset]``."""
    rel_atom = (
        UnaryAtom(1, "Rel", "==", t2_rel[0])
        if len(t2_rel) == 1
        else UnaryAtom(1, "Rel", "in", t2_rel)
    )
    out = []
    if lo_offset is not None:
        out.append(
            DenialConstraint(
                [*t1_atoms, rel_atom,
                 BinaryAtom(1, "Age", "<", 0, "Age", lo_offset)],
                name=f"dc{number}_{label}_low",
            )
        )
    if hi_offset is not None:
        out.append(
            DenialConstraint(
                [*t1_atoms, rel_atom,
                 BinaryAtom(1, "Age", ">", 0, "Age", hi_offset)],
                name=f"dc{number}_{label}_up",
            )
        )
    return out


def all_dcs() -> List[DenialConstraint]:
    """``S_all_DC`` — all twelve Table 4 rows."""
    dcs = good_dcs()
    # 9: no two householders share a house.
    dcs.append(
        DenialConstraint(
            [UnaryAtom(0, "Rel", "==", REL_OWNER),
             UnaryAtom(1, "Rel", "==", REL_OWNER)],
            name="dc9_two_owners",
        )
    )
    # 10: owners younger than 30 have no grandchildren or children-in-law.
    dcs.append(
        DenialConstraint(
            [*_owner(UnaryAtom(0, "Age", "<", 30)),
             UnaryAtom(1, "Rel", "in", (REL_GRANDCHILD, REL_CHILD_IN_LAW))],
            name="dc10_young_owner",
        )
    )
    # 11: owners older than 94 have no (in-law) parents in the house.
    dcs.append(
        DenialConstraint(
            [*_owner(UnaryAtom(0, "Age", ">", 94)),
             UnaryAtom(1, "Rel", "in", (REL_PARENT, REL_PARENT_IN_LAW))],
            name="dc11_old_owner",
        )
    )
    # 12: no two spouses / unmarried partners share a house.
    dcs.append(
        DenialConstraint(
            [UnaryAtom(0, "Rel", "in", (REL_SPOUSE, REL_PARTNER)),
             UnaryAtom(1, "Rel", "in", (REL_SPOUSE, REL_PARTNER))],
            name="dc12_two_partners",
        )
    )
    return dcs


def good_dcs() -> List[DenialConstraint]:
    """``S_good_DC`` — Table 4 rows 1-8 (pure age-gap constraints)."""
    dcs: List[DenialConstraint] = []
    # 1: children of a monolingual owner: age in [A-69, A-12].
    dcs.extend(
        _range_dcs(1, "mono_child",
                   _owner(UnaryAtom(0, "Multi-ling", "==", 0)),
                   CHILD_RELS, -69, -12)
    )
    # 2: children of a multilingual owner: age in [A-50, A-12].
    dcs.extend(
        _range_dcs(2, "multi_child",
                   _owner(UnaryAtom(0, "Multi-ling", "==", 1)),
                   CHILD_RELS, -50, -12)
    )
    # 3: spouse or unmarried partner: age in [A-50, A+50].
    dcs.extend(
        _range_dcs(3, "partner", _owner(),
                   (REL_SPOUSE, REL_PARTNER), -50, 50)
    )
    # 4: sibling: age in [A-35, A+35].
    dcs.extend(_range_dcs(4, "sibling", _owner(), (REL_SIBLING,), -35, 35))
    # 5: parent / parent-in-law: age in [A+12, A+115].
    dcs.extend(
        _range_dcs(5, "parent", _owner(),
                   (REL_PARENT, REL_PARENT_IN_LAW), 12, 115)
    )
    # 6: grandchild: age in [A-115, A-30].
    dcs.extend(
        _range_dcs(6, "grandchild", _owner(), (REL_GRANDCHILD,), -115, -30)
    )
    # 7: son/daughter-in-law: age in [A-69, A-1].
    dcs.extend(
        _range_dcs(7, "child_in_law", _owner(), (REL_CHILD_IN_LAW,), -69, -1)
    )
    # 8: foster child: age in [A-69, A-12].
    dcs.extend(
        _range_dcs(8, "foster", _owner(), (REL_FOSTER_CHILD,), -69, -12)
    )
    return dcs


# ----------------------------------------------------------------------
# Table 5 CC templates.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Template:
    """One R1-side template row of Table 5."""

    age_lo: int
    age_hi: int
    rel: str
    multi: Optional[int] = None

    def predicate(self) -> Predicate:
        conditions = {
            "Age": Interval(self.age_lo, self.age_hi),
            "Rel": ValueSet([self.rel]),
        }
        if self.multi is not None:
            conditions["Multi-ling"] = Interval(self.multi, self.multi)
        return Predicate(conditions)


#: Pairwise R1-disjoint templates: these may be crossed with *every* R2
#: condition without creating an intersecting pair (identical R1 parts
#: with different R2 conditions are disjoint per Definition 4.2, and a
#: Tenure–Area condition is contained in its Area-only condition).
FLAT_TEMPLATES: Tuple[Template, ...] = (
    Template(18, 114, REL_OWNER, 0),
    Template(18, 114, REL_SPOUSE, 1),
    Template(11, 13, REL_BIO_CHILD),
    Template(14, 18, REL_BIO_CHILD),
    Template(18, 39, REL_PARENT),
    Template(40, 85, REL_PARENT, 0),
    Template(40, 85, REL_PARENT, 1),
    Template(15, 85, REL_ROOMMATE, 0),
    Template(15, 85, REL_ROOMMATE, 1),
    Template(18, 30, REL_GRANDCHILD, 0),
    Template(18, 30, REL_GRANDCHILD, 1),
    Template(18, 114, REL_PARTNER, 1),
    Template(0, 20, REL_STEP_CHILD),
    Template(21, 30, REL_STEP_CHILD, 1),
)

#: Containment chains.  A chain with *strictly* nested members may only
#: ever be paired with a single R2 condition (nested R1 templates under
#: two different R2 conditions intersect), so each chain is emitted once,
#: under its own dedicated condition.  Chain members are R1-disjoint from
#: every flat template.
GOOD_CHAINS: Tuple[Tuple[Template, ...], ...] = (
    (
        Template(0, 10, REL_BIO_CHILD),
        Template(6, 10, REL_BIO_CHILD),
        Template(2, 5, REL_BIO_CHILD),
        Template(3, 5, REL_BIO_CHILD),
        Template(3, 5, REL_BIO_CHILD, 0),
    ),
    (
        Template(19, 30, REL_BIO_CHILD),
        Template(22, 30, REL_BIO_CHILD),
        Template(25, 30, REL_BIO_CHILD, 1),
    ),
    (
        Template(19, 40, REL_ADOPTED_CHILD),
        Template(25, 40, REL_ADOPTED_CHILD, 1),
        Template(31, 40, REL_ADOPTED_CHILD, 1),
    ),
)

#: The overlapping extra templates that make ``S_bad`` intersect (right
#: column of Table 5): overlapping Spouse/Grandchild/Step/Adopted ranges.
BAD_EXTRA_TEMPLATES: Tuple[Template, ...] = (
    Template(21, 114, REL_SPOUSE, 1),
    Template(21, 64, REL_SPOUSE, 1),
    Template(18, 39, REL_SPOUSE, 1),
    Template(18, 85, REL_SPOUSE, 1),
    Template(40, 85, REL_SPOUSE, 1),
    Template(65, 114, REL_PARENT, 1),
    Template(0, 39, REL_GRANDCHILD, 1),
    Template(22, 39, REL_GRANDCHILD, 1),
    Template(0, 21, REL_STEP_CHILD),
    Template(19, 39, REL_ADOPTED_CHILD),
    Template(25, 39, REL_ADOPTED_CHILD, 1),
)


def _r2_conditions(data: CensusData) -> List[Predicate]:
    """Tenure–Area pairs first, then Area-only conditions (as in Table 5)."""
    housing = data.housing
    conditions: List[Predicate] = []
    if "Tenure" in housing.schema and "Area" in housing.schema:
        for tenure, area in housing.distinct(["Tenure", "Area"]):
            conditions.append(
                Predicate({"Tenure": ValueSet([tenure]),
                           "Area": ValueSet([area])})
            )
    for (area,) in housing.distinct(["Area"]):
        conditions.append(Predicate({"Area": ValueSet([area])}))
    return conditions


def cc_family(
    data: CensusData,
    kind: str = "good",
    num_ccs: int = 100,
) -> List[CardinalityConstraint]:
    """Instantiate ``num_ccs`` constraints of the requested family.

    Good emission walks (R2-condition × chain) cells and emits each whole
    chain under one shared R2 condition; bad emission additionally cycles
    the overlapping extra templates under *fresh* R2 conditions so that
    genuinely intersecting pairs appear.
    """
    if kind not in ("good", "bad"):
        raise ValueError(f"unknown CC family {kind!r}")
    truth = data.ground_truth_join()
    conditions = _r2_conditions(data)
    if not conditions:
        return []

    ccs: List[CardinalityConstraint] = []
    emitted = set()

    def emit(template: Template, r2_condition: Predicate, tag: str) -> bool:
        if len(ccs) >= num_ccs:
            return False
        predicate = template.predicate().conjoin(r2_condition)
        if predicate is None or predicate in emitted:
            return False
        emitted.add(predicate)
        target = truth.count(predicate)
        ccs.append(
            CardinalityConstraint(predicate, target, name=f"{tag}{len(ccs)}")
        )
        return True

    # 1. Nested chains: one dedicated R2 condition each.
    for chain, r2_condition in zip(GOOD_CHAINS, conditions):
        for template in chain:
            emit(template, r2_condition, "chain")

    # 2. Flat templates crossed with every condition until the quota fills.
    for r2_condition in conditions[len(GOOD_CHAINS):]:
        for template in FLAT_TEMPLATES:
            emit(template, r2_condition, "cc")
        if len(ccs) >= num_ccs:
            break

    # 3. Bad family only: replace roughly a fifth of the set with the
    #    overlapping extras, which intersect the flat CCs that share
    #    their relationship (same Rel, overlapping Age interval).
    if kind == "bad":
        quota = max(1, num_ccs // 5)
        drop = min(quota, len(ccs))
        del ccs[len(ccs) - drop:]
        added = 0
        for r2_condition in conditions[len(GOOD_CHAINS):]:
            for template in BAD_EXTRA_TEMPLATES:
                if added >= quota:
                    break
                if emit(template, r2_condition, "bad"):
                    added += 1
            if added >= quota:
                break
    return ccs

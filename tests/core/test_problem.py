"""The C-Extension problem object and the brute-force oracle."""

import itertools
import random

import pytest

from repro.constraints.parser import parse_cc, parse_dc
from repro.core.problem import CExtensionProblem, brute_force_decision
from repro.errors import ConstraintError
from repro.relational.relation import Relation


def _problem(ccs=(), dcs=(), ages=(30, 40)):
    r1 = Relation.from_columns(
        {
            "pid": list(range(len(ages))),
            "Age": list(ages),
            "Rel": ["Owner"] * len(ages),
        },
        key="pid",
    )
    r2 = Relation.from_columns(
        {"hid": [1, 2], "Area": ["Chicago", "NYC"]}, key="hid"
    )
    return CExtensionProblem(r1=r1, r2=r2, fk_column="hid", ccs=ccs, dcs=dcs)


class TestCheck:
    def test_valid_assignment(self):
        problem = _problem(
            ccs=(parse_cc("|Rel == 'Owner' & Area == 'Chicago'| = 1"),),
            dcs=(parse_dc("not(t1.Rel == 'Owner' & t2.Rel == 'Owner')"),),
        )
        assert problem.check([1, 2])

    def test_cc_violation_detected(self):
        problem = _problem(
            ccs=(parse_cc("|Rel == 'Owner' & Area == 'Chicago'| = 1"),)
        )
        assert not problem.check([1, 1])  # two owners in Chicago

    def test_dc_violation_detected(self):
        problem = _problem(
            dcs=(parse_dc("not(t1.Rel == 'Owner' & t2.Rel == 'Owner')"),)
        )
        assert not problem.check([1, 1])
        assert problem.check([1, 2])

    def test_r2_without_key_rejected(self):
        r1 = Relation.from_columns({"pid": [0]}, key="pid")
        r2 = Relation.from_columns({"hid": [1]})
        with pytest.raises(ConstraintError):
            CExtensionProblem(r1=r1, r2=r2, fk_column="hid")


class TestBruteForce:
    def test_finds_witness(self):
        problem = _problem(
            ccs=(parse_cc("|Rel == 'Owner' & Area == 'Chicago'| = 1"),),
            dcs=(parse_dc("not(t1.Rel == 'Owner' & t2.Rel == 'Owner')"),),
        )
        witness = brute_force_decision(problem)
        assert witness is not None
        assert problem.check(witness)

    def test_detects_unsatisfiable(self):
        # Three pairwise-conflicting owners, two houses.
        problem = _problem(
            dcs=(parse_dc("not(t1.Rel == 'Owner' & t2.Rel == 'Owner')"),),
            ages=(30, 40, 50),
        )
        assert brute_force_decision(problem) is None

    def test_space_limit_enforced(self):
        problem = _problem(ages=tuple(range(40)))
        with pytest.raises(ConstraintError):
            brute_force_decision(problem, limit=100)


def exhaustive_decision(problem):
    """The reference oracle: check every assignment in product order."""
    keys = list(problem.r2.column(problem.r2.schema.key))
    for assignment in itertools.product(keys, repeat=len(problem.r1)):
        if problem.check(list(assignment)):
            return list(assignment)
    return None


RELS = ("Owner", "Spouse", "Child")


def _random_problem(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 6)
    r1 = Relation.from_columns(
        {
            "pid": list(range(n)),
            "Age": [rng.randint(0, 60) for _ in range(n)],
            "Rel": [rng.choice(RELS) for _ in range(n)],
        },
        key="pid",
    )
    num_keys = rng.randint(1, 3)
    r2 = Relation.from_columns(
        {
            "hid": list(range(1, num_keys + 1)),
            "Area": [rng.choice(["Chicago", "NYC"]) for _ in range(num_keys)],
        },
        key="hid",
    )
    dcs = [
        # Asymmetric: its two tuples play different roles.
        parse_dc("not(t1.Rel == 'Spouse' & t2.Rel == 'Owner')"),
        parse_dc("not(t1.Rel == 'Owner' & t2.Rel == 'Owner')"),
        parse_dc("not(t1.Rel == 'Owner' & t2.Age > t1.Age + 20)"),
        parse_dc(
            "not(t1.Rel == 'Child' & t2.Rel == 'Child' & t3.Rel == 'Child')"
        ),
    ]
    owners, young = rng.randint(0, 2), rng.randint(0, 3)
    ccs = [
        parse_cc(f"|Rel == 'Owner' & Area == 'Chicago'| = {owners}"),
        parse_cc(f"|Age in [0, 30] & Area == 'NYC'| = {young}"),
    ]
    return CExtensionProblem(
        r1=r1,
        r2=r2,
        fk_column="hid",
        ccs=rng.sample(ccs, rng.randint(0, 2)),
        dcs=rng.sample(dcs, rng.randint(1, 4)),
    )


class TestBacktrackingMatchesExhaustive:
    @pytest.mark.parametrize("seed", range(40))
    def test_same_witness(self, seed):
        problem = _random_problem(seed)
        assert brute_force_decision(problem) == exhaustive_decision(problem)

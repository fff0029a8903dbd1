"""Phase II against the per-row reference ``run_phase2``.

:mod:`phase2_reference` keeps the dict-colored Algorithm 4 (colors are
key values, fresh keys come from a factory and a pool).  Random small
instances — INT keys, and STR keys that ``synthetic_<n>`` sorts between
or collides with; binary and ternary DCs; invalid rows; every strategy —
must give identical ``R1̂``/``R2̂``, the same Phase II counters and the
same per-key overflow from the production ``run_phase2``.  Unlike the fuzz
oracle, which compares the cells of one build, this sees a change in
which minted key goes where.
"""

import copy
import math

from hypothesis import event, given, settings, strategies as st
from phase2_reference import reference_run_phase2

from repro.constraints.dc import BinaryAtom, DenialConstraint, UnaryAtom
from repro.constraints.parser import parse_cc
from repro.errors import ReproError
from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.phase2.strategies import combo_cap, key_caps, phase2_strategy
from repro.relational.database import Database
from repro.relational.relation import Relation

LABELS = ("x", "y", "z")
#: ``synthetic_<n>`` sorts between these, and ``synthetic_2`` collides
#: with the second STR mint of a two-key table.
STR_KEYS = ("a1", "t2", "z3", "synthetic_2", "m4")
COUNTERS = (
    "num_partitions",
    "num_edges",
    "num_skipped",
    "num_new_r2_tuples",
    "num_invalid_handled",
)


@st.composite
def _unary(draw, var):
    if draw(st.booleans()):
        return UnaryAtom(var, "L", "==", draw(st.sampled_from(LABELS)))
    op = draw(st.sampled_from(("==", "!=", "<", ">=")))
    return UnaryAtom(var, "A", op, draw(st.integers(0, 3)))


@st.composite
def _dc(draw):
    arity = draw(st.sampled_from((2, 2, 2, 3)))
    atoms = []
    for var in range(arity):
        atoms += draw(st.lists(_unary(var), max_size=1))
    if draw(st.booleans()):
        atoms.append(
            BinaryAtom(
                0,
                "A",
                draw(st.sampled_from(("==", "<", "!="))),
                1,
                "A",
                draw(st.integers(-1, 1)),
            )
        )
    return DenialConstraint(atoms, arity=arity)


@st.composite
def _strategy(draw):
    name = draw(
        st.sampled_from(
            ("coloring", "capacity", "soft_capacity", "quota_coloring")
        )
    )
    cap = draw(st.integers(1, 2))
    if name == "coloring":
        return name, {}
    if name == "capacity":
        return name, {"max_per_key": cap}
    if name == "soft_capacity":
        return name, {
            "max_per_key": cap,
            "penalty": draw(st.sampled_from((0.5, 1.0, 2.0, math.inf))),
            "new_tuple_cost": draw(st.sampled_from((0.0, 1.0, 2.5, math.inf))),
        }
    options = {"quotas": [{"match": {"B": "p"}, "quota": cap}]}
    if draw(st.booleans()):
        options["default_quota"] = draw(st.integers(1, 3))
    return name, options


@st.composite
def _instance(draw):
    n = draw(st.integers(1, 10))
    r1 = Relation.from_columns(
        {
            "pid": list(range(n)),
            "A": draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
            "L": draw(
                st.lists(st.sampled_from(LABELS), min_size=n, max_size=n)
            ),
        },
        key="pid",
    )
    m = draw(st.integers(1, 4))
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(STR_KEYS), min_size=m,
                             max_size=m, unique=True))
    else:
        keys = draw(st.lists(st.integers(0, 12), min_size=m, max_size=m,
                             unique=True))
    r2 = Relation.from_columns(
        {
            "k": keys,
            "B": draw(st.lists(st.sampled_from(("p", "q")), min_size=m,
                               max_size=m)),
        },
        key="k",
    )
    catalog = ComboCatalog.from_relation(r2)
    assignment = ViewAssignment(n=n, r2_attrs=catalog.attrs)
    for row in range(n):
        pick = draw(st.integers(-1, len(catalog.combos) - 1))
        if pick < 0:
            assignment.mark_invalid(row)
        else:
            assignment.assign(row, catalog.as_dict(catalog.combos[pick]))
    ccs = [
        parse_cc(f"|A == {a} & B == '{b}'| = {t}")
        for a, b, t in draw(
            st.lists(
                st.tuples(
                    st.integers(0, 3),
                    st.sampled_from(("p", "q")),
                    st.integers(0, 3),
                ),
                max_size=2,
            )
        )
    ]
    dcs = draw(st.lists(_dc(), max_size=3))
    return r1, r2, catalog, assignment, ccs, dcs


def _identical(a: Relation, b: Relation) -> bool:
    left, right = Database(), Database()
    left.add_relation("r", a)
    right.add_relation("r", b)
    return left.identical_to(right)


def _reference(instance, strategy, options):
    r1, r2, catalog, assignment, ccs, dcs = instance
    quotas, default = key_caps(strategy, options)

    def cap_of(combo):
        return combo_cap(catalog.as_dict(combo), quotas, default)

    capped = quotas or default is not None
    return reference_run_phase2(
        r1, r2, dcs, copy.deepcopy(assignment), catalog, "fk",
        ccs=ccs, cap_of=cap_of if capped else None,
    )


def _production(instance, strategy, options):
    r1, r2, catalog, assignment, ccs, dcs = instance
    return phase2_strategy(strategy)(
        r1, r2, dcs, copy.deepcopy(assignment), catalog, "fk",
        ccs=ccs, options=options,
    )


@settings(max_examples=250, deadline=None)
@given(instance=_instance(), chosen=_strategy())
def test_run_phase2_matches_reference(instance, chosen):
    strategy, options = chosen
    try:
        ref = _reference(instance, strategy, options)
    except ReproError as exc:
        try:
            _production(instance, strategy, options)
        except type(exc):
            return
        raise AssertionError(f"reference raised {exc!r}, production did not")
    new = _production(instance, strategy, options)
    str_keys = instance[1].schema.dtype("k").value == "str"
    event(f"{'STR' if str_keys else 'INT'} keys")
    if ref.stats.num_new_r2_tuples:
        event(f"{'STR' if str_keys else 'INT'} mints")
    if ref.stats.num_invalid_handled:
        event(f"invalid rows, {strategy}")
    if ref.overflow:
        event("soft-cap overflow")

    assert _identical(new.r1_hat, ref.r1_hat)
    assert _identical(new.r2_hat, ref.r2_hat)
    for name in COUNTERS:
        assert getattr(new.stats, name) == getattr(ref.stats, name), name
    assert new.stats.total_overflow == ref.stats.total_overflow
    assert list(new.overflow.items()) == list(ref.overflow.items())

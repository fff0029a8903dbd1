"""Fresh-key minting: unclaimed mints must be reused, not leaked.

A fresh-color pass mints one key per skipped vertex, but mutually
non-conflicting skipped vertices share the first fresh key — the old code
discarded the rest, leaking id gaps into ``R2̂``.  The :class:`MintPool`
returns unclaimed mints to a pool that later passes (and partitions)
drain first.
"""

import numpy as np

from repro.constraints.dc import BinaryAtom, DenialConstraint
from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.phase2.fk_assignment import FreshKeyFactory, MintPool, run_phase2
from repro.relational.relation import Relation
from repro.relational.types import Dtype


def _fixture():
    """Two combo partitions, each with two disjoint conflict pairs.

    With one candidate key per combo, the first coloring pass colors one
    row of each pair and skips the other; the fresh pass then needs only
    ONE fresh key per partition (the two skipped rows don't conflict with
    each other) although it mints two.
    """
    r1 = Relation.from_columns(
        {
            "pid": list(range(8)),
            "Name": ["A", "A", "B", "B", "C", "C", "D", "D"],
        },
        key="pid",
    )
    r2 = Relation.from_columns(
        {"hid": [1, 2], "Kind": ["c1", "c2"]},
        key="hid",
    )
    # Two rows with equal Name must not share a key.
    dc = DenialConstraint(
        [BinaryAtom(0, "Name", "==", 1, "Name")], name="same_name"
    )
    assignment = ViewAssignment(n=8, r2_attrs=("Kind",))
    assignment.assign_rows([0, 1, 2, 3], {"Kind": "c1"})
    assignment.assign_rows([4, 5, 6, 7], {"Kind": "c2"})
    catalog = ComboCatalog.from_relation(r2)
    return r1, r2, [dc], assignment, catalog


class TestMintPool:
    def test_take_prefers_released_keys(self):
        factory = FreshKeyFactory([1, 2], Dtype.INT)
        pool = MintPool(factory)
        first = pool.take(3)
        assert first == [3, 4, 5]
        pool.release([4, 5])
        assert pool.take(3) == [4, 5, 6]

    def test_take_zero(self):
        pool = MintPool(FreshKeyFactory([], Dtype.INT))
        assert pool.take(0) == []

    def test_mint_drains_pool_first(self):
        """The invalid-tuple fallbacks mint through the pool too."""
        pool = MintPool(FreshKeyFactory([1], Dtype.INT))
        pool.release([99])
        assert pool.mint() == 99
        assert pool.mint() == 2


class TestNoKeyGaps:
    def _assert_dense_new_keys(self, r2, phase2):
        original = set(r2.column("hid").tolist())
        new_keys = sorted(
            set(phase2.r2_hat.column("hid").tolist()) - original
        )
        assert len(new_keys) == phase2.stats.num_new_r2_tuples
        # Dense: exactly max(original)+1 .. max(original)+k, no gaps from
        # discarded mints.
        start = max(original) + 1
        assert new_keys == list(range(start, start + len(new_keys)))

    def test_partitioned_sequential(self):
        r1, r2, dcs, assignment, catalog = _fixture()
        phase2 = run_phase2(
            r1, r2, dcs, assignment, catalog, "hid", partitioned=True
        )
        self._assert_dense_new_keys(r2, phase2)
        # One fresh key per partition suffices; the old code minted two
        # and leaked one, so the dense assertion above would fail.
        assert phase2.stats.num_new_r2_tuples == 2
        # All DCs hold: conflicting pairs never share a key.
        fk = phase2.r1_hat.column("hid")
        for u, v in [(0, 1), (2, 3), (4, 5), (6, 7)]:
            assert fk[u] != fk[v]

    def test_non_partitioned_global_graph(self):
        r1, r2, dcs, assignment, catalog = _fixture()
        phase2 = run_phase2(
            r1, r2, dcs, assignment, catalog, "hid", partitioned=False
        )
        self._assert_dense_new_keys(r2, phase2)
        fk = phase2.r1_hat.column("hid")
        for u, v in [(0, 1), (2, 3), (4, 5), (6, 7)]:
            assert fk[u] != fk[v]

"""Algorithm 4 — FK completion and the Proposition 5.5 invariants."""

import pytest

from repro.core.metrics import dc_error
from repro.core.synthesizer import CExtensionSolver
from repro.phase1.hybrid import run_phase1
from repro.phase2.fk_assignment import FreshKeyFactory, run_phase2
from repro.relational.join import fk_join
from repro.relational.types import Dtype


def _run(r1, r2, ccs, dcs, partitioned=True):
    phase1 = run_phase1(r1, r2, ccs)
    phase2 = run_phase2(
        r1, r2, dcs, phase1.assignment, phase1.catalog, "hid",
        ccs=ccs, partitioned=partitioned,
    )
    return phase1, phase2


class TestFreshKeyFactory:
    def test_integer_keys_continue_sequence(self):
        factory = FreshKeyFactory([1, 2, 7], Dtype.INT)
        assert factory.mint() == 8
        assert factory.mint() == 9

    def test_string_keys_get_synthetic_names(self):
        factory = FreshKeyFactory(["h1", "h2"], Dtype.STR)
        minted = factory.mint()
        assert minted.startswith("synthetic_")
        assert factory.mint() != minted

    def test_empty_starts_at_one(self):
        assert FreshKeyFactory([], Dtype.INT).mint() == 1


class TestRunningExample:
    def test_all_dcs_satisfied(self, paper_r1, paper_r2, paper_ccs, paper_dcs):
        _, phase2 = _run(paper_r1, paper_r2, paper_ccs, paper_dcs)
        assert dc_error(phase2.r1_hat, "hid", paper_dcs) == 0.0

    def test_join_view_equality(self, paper_r1, paper_r2, paper_ccs, paper_dcs):
        """Proposition 5.5: R1̂ ⋈ R2̂ equals the Phase-I view."""
        phase1, phase2 = _run(paper_r1, paper_r2, paper_ccs, paper_dcs)
        joined = fk_join(phase2.r1_hat, phase2.r2_hat, "hid")
        for i in range(len(paper_r1)):
            row = joined.row(i)
            expected = phase1.assignment.values(i)
            for attr, value in expected.items():
                assert row[attr] == value

    def test_r2_hat_extends_r2(self, paper_r1, paper_r2, paper_ccs, paper_dcs):
        _, phase2 = _run(paper_r1, paper_r2, paper_ccs, paper_dcs)
        original = set(paper_r2.column("hid"))
        assert original <= set(phase2.r2_hat.column("hid"))
        assert len(phase2.r2_hat) >= len(paper_r2)

    def test_every_row_colored(self, paper_r1, paper_r2, paper_ccs, paper_dcs):
        _, phase2 = _run(paper_r1, paper_r2, paper_ccs, paper_dcs)
        assert len(phase2.coloring) == len(paper_r1)

    def test_fk_values_reference_r2_hat(
        self, paper_r1, paper_r2, paper_ccs, paper_dcs
    ):
        _, phase2 = _run(paper_r1, paper_r2, paper_ccs, paper_dcs)
        keys = set(phase2.r2_hat.column("hid"))
        assert set(phase2.r1_hat.column("hid")) <= keys


class TestFreshTuples:
    def test_overfull_partition_mints_new_keys(self, paper_dcs):
        """Three owners, one Chicago house → two fresh tuples."""
        from repro.relational.relation import Relation

        r1 = Relation.from_columns(
            {
                "pid": [1, 2, 3],
                "Age": [40, 45, 50],
                "Rel": ["Owner"] * 3,
                "Multi": [0, 0, 0],
            },
            key="pid",
        )
        r2 = Relation.from_columns(
            {"hid": [1], "Area": ["Chicago"]}, key="hid"
        )
        _, phase2 = _run(r1, r2, [], paper_dcs)
        assert phase2.stats.num_new_r2_tuples == 2
        assert len(phase2.r2_hat) == 3
        assert dc_error(phase2.r1_hat, "hid", paper_dcs) == 0.0
        # New tuples carry the same Area combo.
        assert set(phase2.r2_hat.column("Area")) == {"Chicago"}


class TestGlobalColoringAblation:
    def test_unpartitioned_matches_partitioned_guarantees(
        self, paper_r1, paper_r2, paper_ccs, paper_dcs
    ):
        _, partitioned = _run(paper_r1, paper_r2, paper_ccs, paper_dcs, True)
        _, global_ = _run(paper_r1, paper_r2, paper_ccs, paper_dcs, False)
        assert dc_error(global_.r1_hat, "hid", paper_dcs) == 0.0
        # The global graph sees the dashed cross-partition edges of
        # Figure 7 as well, so it has at least as many edges.
        assert global_.stats.num_edges >= partitioned.stats.num_edges


class TestSharedRunPhase2:
    """Every Phase-II strategy runs :func:`run_phase2`, so each fills
    :class:`Phase2Stats` the same way."""

    STRATEGIES = [
        ("coloring", {}),
        ("capacity", {"max_per_key": 2}),
        ("soft_capacity", {"max_per_key": 2}),
        ("quota_coloring", {"default_quota": 2}),
    ]

    def test_stats_filled_alike(
        self, census_small, census_good_ccs, census_all_dcs
    ):
        stats = {}
        for strategy, options in self.STRATEGIES:
            result = CExtensionSolver().solve(
                census_small.persons_masked,
                census_small.housing,
                fk_column="hid",
                ccs=census_good_ccs,
                dcs=census_all_dcs,
                strategy=strategy,
                strategy_options=options,
            )
            stats[strategy] = result.phase2.stats
        baseline = stats["coloring"]
        assert baseline.num_edges > 0
        for strategy, s in stats.items():
            assert s.num_partitions == baseline.num_partitions, strategy
            assert s.num_edges == baseline.num_edges, strategy
            assert s.edge_seconds > 0, strategy
            assert s.coloring_seconds > 0, strategy

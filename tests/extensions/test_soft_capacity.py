"""The soft_capacity Phase-II strategy: penalised capacity overflow."""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.synthesizer import CExtensionSolver
from repro.datagen.census import CensusConfig, generate_census
from repro.datagen.constraints_census import cc_family, good_dcs
from repro.errors import ReproError
from repro.extensions.capacity import fk_usage_histogram
from repro.relational.relation import Relation
from repro.spec import SpecBuilder, synthesize

_SLOW = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def census():
    data = generate_census(CensusConfig(n_households=60, n_areas=4, seed=3))
    return data, cc_family(data, "good", 15), good_dcs()


def _solve(data, ccs, dcs, strategy, **options):
    return CExtensionSolver().solve(
        data.persons_masked, data.housing,
        fk_column="hid", ccs=ccs, dcs=dcs,
        strategy=strategy, strategy_options=options,
    )


class TestEquivalence:
    @_SLOW
    @given(
        seed=st.integers(min_value=0, max_value=25),
        households=st.integers(min_value=20, max_value=60),
        cap=st.integers(min_value=1, max_value=5),
    )
    def test_infinite_penalty_equals_hard_capacity(
        self, seed, households, cap
    ):
        """soft_capacity(penalty=inf) is output-identical to capacity."""
        data = generate_census(
            CensusConfig(n_households=households, n_areas=4, seed=seed)
        )
        ccs = cc_family(data, "good", 8)
        dcs = good_dcs()
        hard = _solve(data, ccs, dcs, "capacity", max_per_key=cap)
        soft = _solve(
            data, ccs, dcs, "soft_capacity",
            max_per_key=cap, penalty=math.inf,
        )
        assert soft.r1_hat.to_rows() == hard.r1_hat.to_rows()
        assert soft.r2_hat.to_rows() == hard.r2_hat.to_rows()
        assert soft.phase2.overflow == {}
        assert soft.phase2.stats.total_overflow == 0


class TestSoftBehaviour:
    def test_overflow_reported_per_key(self, census):
        data, ccs, dcs = census
        result = _solve(data, ccs, dcs, "soft_capacity", max_per_key=2)
        usage = fk_usage_histogram(result.r1_hat, "hid")
        expected = {k: c - 2 for k, c in usage.items() if c > 2}
        assert result.phase2.overflow == expected
        assert result.phase2.stats.total_overflow == sum(expected.values())
        # DCs still hold exactly — softness only relaxes the capacity.
        assert result.report.errors.dc_error == 0.0

    def test_soft_mints_no_more_tuples_than_hard(self, census):
        data, ccs, dcs = census
        hard = _solve(data, ccs, dcs, "capacity", max_per_key=2)
        soft = _solve(data, ccs, dcs, "soft_capacity", max_per_key=2)
        assert (
            soft.phase2.stats.num_new_r2_tuples
            <= hard.phase2.stats.num_new_r2_tuples
        )

    def test_zero_new_tuple_cost_prefers_fresh_keys(self, census):
        """new_tuple_cost=0 makes any overflow dearer than minting, so the
        result honours the cap exactly like the hard strategy."""
        data, ccs, dcs = census
        result = _solve(
            data, ccs, dcs, "soft_capacity",
            max_per_key=2, new_tuple_cost=0.0,
        )
        usage = fk_usage_histogram(result.r1_hat, "hid")
        assert max(usage.values()) <= 2
        assert result.phase2.overflow == {}

    def test_spec_front_door_reports_overflow(self, census):
        data, _, dcs = census
        spec = (
            SpecBuilder("soft")
            .relation("persons", data=data.persons_masked, key="pid")
            .relation("housing", data=data.housing, key="hid")
            .edge("persons", "hid", "housing", dcs=list(dcs),
                  strategy="soft_capacity", options={"max_per_key": 2})
            .build()
        )
        result = synthesize(spec)
        assert result.edges[0].strategy == "soft_capacity"
        summary = result.summary()
        usage = fk_usage_histogram(result.relation("persons"), "hid")
        over = sum(c - 2 for c in usage.values() if c > 2)
        assert result.edges[0].total_overflow == over
        if over:
            assert summary["edges"][0]["total_overflow"] == over


class TestValidation:
    def test_requires_max_per_key(self, census):
        data, ccs, dcs = census
        with pytest.raises(ReproError, match="max_per_key"):
            _solve(data, ccs, dcs, "soft_capacity")

    def test_unknown_option_rejected(self, census):
        data, ccs, dcs = census
        with pytest.raises(ReproError, match="unknown"):
            _solve(
                data, ccs, dcs, "soft_capacity",
                max_per_key=2, bogus=1,
            )

    def test_nonpositive_penalty_rejected(self, census):
        data, ccs, dcs = census
        with pytest.raises(ReproError, match="penalty"):
            _solve(
                data, ccs, dcs, "soft_capacity",
                max_per_key=2, penalty=0.0,
            )

    @pytest.mark.parametrize("bad", [0, True])
    def test_bad_cap_rejected_up_front(self, bad):
        """0 used to fail only once a row was colored — never, for an
        empty child relation."""
        r1 = Relation.from_columns({"pid": [], "Age": []}, key="pid")
        r2 = Relation.from_columns({"hid": [1], "Area": ["X"]}, key="hid")
        with pytest.raises(ReproError, match="max_per_key"):
            CExtensionSolver().solve(
                r1, r2, fk_column="hid", strategy="soft_capacity",
                strategy_options={"max_per_key": bad},
            )

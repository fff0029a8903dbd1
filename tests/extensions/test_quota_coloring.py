"""The quota_coloring Phase-II strategy: per-combo quotas."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.synthesizer import CExtensionSolver
from repro.datagen.census import CensusConfig, generate_census
from repro.datagen.constraints_census import cc_family, good_dcs
from repro.errors import ReproError
from repro.extensions.capacity import fk_usage_histogram
from repro.phase2.coloring import KeyCap
from repro.phase2.strategies import combo_cap
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


def _solve(data, ccs, dcs, strategy, options=None):
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
        num_ccs=st.integers(min_value=0, max_value=12),
    )
    def test_no_quotas_equals_plain_coloring(self, seed, households, num_ccs):
        """quota_coloring with no quotas is output-identical to coloring,
        invalid-tuple handling included."""
        data = generate_census(
            CensusConfig(n_households=households, n_areas=4, seed=seed)
        )
        ccs = cc_family(data, "good", num_ccs) if num_ccs else []
        dcs = good_dcs()
        plain = _solve(data, ccs, dcs, "coloring")
        quota = _solve(data, ccs, dcs, "quota_coloring", {})
        assert quota.r1_hat.to_rows() == plain.r1_hat.to_rows()
        assert quota.r2_hat.to_rows() == plain.r2_hat.to_rows()

    @_SLOW
    @given(
        seed=st.integers(min_value=0, max_value=25),
        households=st.integers(min_value=20, max_value=60),
        cap=st.integers(min_value=1, max_value=5),
    )
    def test_default_quota_equals_hard_capacity(self, seed, households, cap):
        """quota_coloring(default_quota=N) is output-identical to
        capacity(max_per_key=N): one quota on every combo is one cap."""
        data = generate_census(
            CensusConfig(n_households=households, n_areas=4, seed=seed)
        )
        ccs = cc_family(data, "good", 8)
        dcs = good_dcs()
        hard = _solve(data, ccs, dcs, "capacity", {"max_per_key": cap})
        quota = _solve(
            data, ccs, dcs, "quota_coloring", {"default_quota": cap}
        )
        assert quota.r1_hat.to_rows() == hard.r1_hat.to_rows()
        assert quota.r2_hat.to_rows() == hard.r2_hat.to_rows()


class TestQuotas:
    def test_default_quota_caps_every_key(self, census):
        data, ccs, dcs = census
        result = _solve(
            data, ccs, dcs, "quota_coloring", {"default_quota": 2}
        )
        usage = fk_usage_histogram(result.r1_hat, "hid")
        assert max(usage.values()) <= 2
        assert result.report.errors.dc_error == 0.0

    def test_matched_combo_gets_its_own_quota(self, census):
        data, _, dcs = census
        housing = data.housing
        # Quota 1 for one concrete Tenure value, unlimited elsewhere.
        tenures = sorted({str(v) for v in housing.column("Tenure")})
        target = tenures[0]
        result = _solve(
            data, [], dcs, "quota_coloring",
            {"quotas": [{"match": {"Tenure": target}, "quota": 1}]},
        )
        usage = fk_usage_histogram(result.r1_hat, "hid")
        tenure_of = {
            row[housing.schema.names.index("hid")]:
                row[housing.schema.names.index("Tenure")]
            for row in result.r2_hat.to_rows()
        }
        for key, count in usage.items():
            if str(tenure_of[key]) == target:
                assert count <= 1, f"key {key} breached its quota"

    def test_first_matching_entry_wins(self):
        one, four, seven = KeyCap(1), KeyCap(4), KeyCap(7)
        quotas = [({"Tenure": "a"}, one), ({}, seven)]
        assert combo_cap({"Tenure": "a"}, quotas, None) is one
        assert combo_cap({"Tenure": "b"}, quotas, None) is seven
        only_a = [({"Tenure": "a"}, one)]
        assert combo_cap({"Tenure": "b"}, only_a, four) is four
        assert combo_cap({"Tenure": "b"}, [], None) is None

    def test_spec_front_door_round_trip(self, census):
        data, _, dcs = census
        spec = (
            SpecBuilder("quota")
            .relation("persons", data=data.persons_masked, key="pid")
            .relation("housing", data=data.housing, key="hid")
            .edge("persons", "hid", "housing", dcs=list(dcs),
                  strategy="quota_coloring",
                  options={"default_quota": 3})
            .build()
        )
        result = synthesize(spec)
        assert result.edges[0].strategy == "quota_coloring"
        usage = fk_usage_histogram(result.relation("persons"), "hid")
        assert max(usage.values()) <= 3


class TestValidation:
    def test_unknown_option_rejected(self, census):
        data, ccs, dcs = census
        with pytest.raises(ReproError, match="unknown"):
            _solve(data, ccs, dcs, "quota_coloring", {"bogus": 1})

    def test_bad_quota_entry_rejected(self, census):
        data, ccs, dcs = census
        with pytest.raises(ReproError, match="quota"):
            _solve(
                data, ccs, dcs, "quota_coloring",
                {"quotas": [{"match": {}, "quota": 0}]},
            )
        with pytest.raises(ReproError, match="quota"):
            _solve(
                data, ccs, dcs, "quota_coloring",
                {"quotas": [{"matches": {}, "quota": 2}]},
            )

    def test_bad_default_quota_rejected(self, census):
        data, ccs, dcs = census
        with pytest.raises(ReproError, match="default_quota"):
            _solve(data, ccs, dcs, "quota_coloring", {"default_quota": 0})

    def test_typoed_match_attribute_rejected(self, census):
        """A match on a nonexistent R2 attribute must fail loudly, not
        silently disable the quota."""
        data, ccs, dcs = census
        with pytest.raises(ReproError, match="Tenur"):
            _solve(
                data, ccs, dcs, "quota_coloring",
                {"quotas": [{"match": {"Tenur": "Rented"}, "quota": 2}]},
            )

"""Binning against explicit integer domains (the widening path)."""

import numpy as np
import pytest

from repro.constraints.intervalize import build_binning
from repro.constraints.parser import parse_cc
from repro.errors import ConstraintError
from repro.relational.relation import Relation
from repro.relational.types import IntDomain


def _r1(ages):
    return Relation.from_columns(
        {"pid": list(range(len(ages))), "Age": ages}, key="pid"
    )


class TestDomainWidening:
    def test_domain_extends_observed_range(self):
        r1 = _r1([30, 40])
        cc = parse_cc("|Age in [20, 50] & Area == 'X'| = 1")
        binning = build_binning(
            r1, ["Age"], [cc], domains={"Age": IntDomain(0, 114)}
        )
        intervals = binning.intervals("Age")
        assert intervals[0].lo == 0
        assert intervals[-1].hi == 114

    def test_without_domain_uses_observed_bounds(self):
        r1 = _r1([30, 40])
        cc = parse_cc("|Age in [32, 35] & Area == 'X'| = 1")
        binning = build_binning(r1, ["Age"], [cc])
        assert binning.intervals("Age")[0].lo == 30
        assert binning.intervals("Age")[-1].hi == 40

    @pytest.mark.parametrize("age", [10, 90])
    def test_out_of_domain_value_rejected(self, age):
        r1 = _r1([30, 40])
        cc = parse_cc("|Age in [32, 35] & Area == 'X'| = 1")
        binning = build_binning(r1, ["Age"], [cc])
        outside = _r1([age])  # below the first start point or above hi
        with pytest.raises(ConstraintError):
            binning.bin_keys(outside)

    def test_endpoints_outside_domain_fall_back_to_values(self):
        r1 = _r1([30, 40])
        # The CC's interval covers all data, so no cut lands inside the
        # domain — the attribute falls back to raw-value binning (which
        # is exact: every value trivially lies inside the CC interval).
        cc = parse_cc("|Age in [0, 500] & Area == 'X'| = 1")
        binning = build_binning(r1, ["Age"], [cc])
        assert not binning.is_numeric("Age")
        assert len(binning.bin_counts(r1)) == 2  # one bin per value

"""Backend equivalence: numpy and mmap synthesis are indistinguishable.

The out-of-core backend must be a pure storage decision — for any spec,
``synthesize()`` on the chunked mmap backend has to produce a database
``identical_to`` the in-RAM run, whatever the chunk size.  Hypothesis
drives random two-table workloads (random data, CCs and DCs) through
both backends at chunk sizes chosen to split combo groups across chunk
boundaries; deterministic tests pin the corner cases (single-row chunks,
empty relations) and re-run every example spec on both backends.
"""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.spec.api import synthesize
from repro.spec.builder import SpecBuilder
from repro.spec.io import load_spec

_RELS = ["Owner", "Spouse", "Child"]
_AREAS = ["A", "B"]
_EXAMPLES = sorted(
    (Path(__file__).parent.parent.parent / "examples" / "specs").glob(
        "*.toml"
    )
)


def _spec(ages, rels, areas, ccs, dcs, **options):
    return (
        SpecBuilder("equivalence")
        .relation(
            "people",
            columns={
                "pid": list(range(len(ages))),
                "Age": ages,
                "Rel": rels,
            },
            key="pid",
        )
        .relation(
            "homes",
            columns={"hid": list(range(len(areas))), "Area": areas},
            key="hid",
        )
        .edge("people", "hid", "homes", ccs=ccs, dcs=dcs)
        .fact_table("people")
        .options(evaluate=False, **options)
        .build()
    )


@st.composite
def _workloads(draw):
    n = draw(st.integers(2, 10))
    ages = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n))
    rels = draw(st.lists(st.sampled_from(_RELS), min_size=n, max_size=n))
    m = draw(st.integers(1, 5))
    areas = draw(st.lists(st.sampled_from(_AREAS), min_size=m, max_size=m))

    ccs = []
    if draw(st.booleans()):
        lo = draw(st.integers(0, 99))
        hi = draw(st.integers(lo, 99))
        area = draw(st.sampled_from(_AREAS))
        target = draw(st.integers(0, n))
        ccs.append(f"|Age >= {lo} & Age <= {hi} & Area == '{area}'| = {target}")

    dcs = []
    if draw(st.booleans()):
        rel_a = draw(st.sampled_from(_RELS))
        rel_b = draw(st.sampled_from(_RELS))
        dcs.append(f"not(t1.Rel == '{rel_a}' & t2.Rel == '{rel_b}')")

    # Chunk sizes that never align with combo-group boundaries, so
    # groups straddle chunks and the merge kernels do real work —
    # including the degenerate one-row-per-chunk store.
    chunk_rows = draw(st.sampled_from([1, 2, 7, 1024]))
    return ages, rels, areas, ccs, dcs, chunk_rows


class TestBackendEquivalence:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(workload=_workloads())
    def test_random_workloads_identical(self, workload):
        ages, rels, areas, ccs, dcs, chunk_rows = workload
        base = synthesize(_spec(ages, rels, areas, ccs, dcs))
        alt = synthesize(
            _spec(
                ages, rels, areas, ccs, dcs,
                storage="mmap", chunk_rows=chunk_rows,
            )
        )
        assert base.database.identical_to(alt.database)

    def test_empty_child_relation(self):
        """A zero-row fact table synthesizes identically on both backends."""
        builders = []
        for options in ({}, {"storage": "mmap", "chunk_rows": 4}):
            spec = (
                SpecBuilder("empty")
                .relation(
                    "people",
                    columns={"pid": [], "Age": []},
                    key="pid",
                    dtypes={"Age": "int"},
                )
                .relation(
                    "homes",
                    columns={"hid": [0, 1], "Area": ["A", "B"]},
                    key="hid",
                )
                .edge(
                    "people", "hid", "homes",
                    ccs=["|Age >= 0 & Area == 'A'| = 0"],
                )
                .fact_table("people")
                .options(evaluate=False, **options)
                .build()
            )
            builders.append(synthesize(spec))
        base, alt = builders
        assert len(alt.database.relation("people")) == 0
        assert base.database.identical_to(alt.database)

    def test_single_row_chunks(self):
        """chunk_rows=1 — the most hostile chunking — stays identical."""
        ages = [30, 41, 5, 5, 77, 30]
        rels = ["Owner", "Child", "Child", "Spouse", "Owner", "Owner"]
        areas = ["A", "B", "A"]
        ccs = ["|Age >= 10 & Age <= 50 & Area == 'A'| = 2"]
        dcs = ["not(t1.Rel == 'Owner' & t2.Rel == 'Owner')"]
        base = synthesize(_spec(ages, rels, areas, ccs, dcs))
        alt = synthesize(
            _spec(ages, rels, areas, ccs, dcs, storage="mmap", chunk_rows=1)
        )
        assert base.database.identical_to(alt.database)


@pytest.mark.parametrize(
    "path", _EXAMPLES, ids=[p.stem for p in _EXAMPLES]
)
@pytest.mark.parametrize("chunk_rows", [1, 3, 262_144])
def test_example_specs_identical(path, chunk_rows):
    """Every shipped example spec: mmap output is identical to in-RAM,
    solved in-process and on a two-worker pool."""
    base = synthesize(load_spec(path).with_options(evaluate=False))
    for workers in (0, 2):
        alt = synthesize(
            load_spec(path).with_options(
                evaluate=False,
                storage="mmap",
                chunk_rows=chunk_rows,
                workers=workers,
            )
        )
        assert base.database.identical_to(alt.database), workers

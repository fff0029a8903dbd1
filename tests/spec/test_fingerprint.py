"""Cache-key stability: edge fingerprints across spec sources.

The edge-result cache is only sound if fingerprints are (a) identical
for semantically identical specs however they were authored — TOML
file, JSON file, or ``SpecBuilder`` — and (b) different whenever any
result-affecting input (data, constraints, options, graph shape)
changes.
"""

from __future__ import annotations

import json

from repro.spec import (
    RESULT_OPTION_FIELDS,
    SpecBuilder,
    edge_fingerprints,
    load_spec,
    result_options,
    save_spec,
    synthesize,
)
from repro.core.config import SolverConfig

AGES = [18, 19, 20, 21, 22, 23, 24, 25]
SIZES = [3, 3]
CREDITS = [2, 3, 4]


def build_spec(
    ages=AGES,
    sizes=SIZES,
    credits=CREDITS,
    cc="|age >= 20| = 4",
    major_solver=None,
    course_solver=None,
    **options,
):
    builder = (
        SpecBuilder("uni")
        .relation(
            "Students",
            columns={"sid": list(range(1, len(ages) + 1)), "age": list(ages)},
            key="sid",
        )
        .relation(
            "Majors",
            columns={"mid": [1, 2], "size": list(sizes)},
            key="mid",
        )
        .relation(
            "Courses",
            columns={"cid": [1, 2, 3], "credits": list(credits)},
            key="cid",
        )
        .edge(
            "Students",
            "major_id",
            "Majors",
            ccs=[cc],
            solver=major_solver or {},
        )
        .edge(
            "Students",
            "course_id",
            "Courses",
            solver=course_solver or {},
        )
        .fact_table("Students")
    )
    if options:
        builder.options(**options)
    return builder.build()


def capped_spec(**phase2):
    """Two relations, one edge with the given Phase-II settings."""
    return (
        SpecBuilder("capped")
        .relation(
            "Students",
            columns={"sid": [1, 2, 3, 4], "age": [18, 19, 20, 21]},
            key="sid",
        )
        .relation("Majors", columns={"mid": [1, 2], "size": [3, 3]}, key="mid")
        .edge("Students", "major_id", "Majors", **phase2)
        .fact_table("Students")
        .build()
    )


class TestSourceIndependence:
    def test_toml_builder_json_agree(self, tmp_path):
        built = build_spec()
        toml_path = save_spec(built, tmp_path / "spec.toml")
        json_path = save_spec(built, tmp_path / "spec.json")
        base = edge_fingerprints(built)
        assert edge_fingerprints(load_spec(toml_path)) == base
        assert edge_fingerprints(load_spec(json_path)) == base

    def test_json_dict_round_trip_agrees(self):
        from repro.spec.model import SynthesisSpec

        built = build_spec()
        rebuilt = SynthesisSpec.from_dict(
            json.loads(json.dumps(built.to_dict()))
        )
        assert edge_fingerprints(rebuilt) == edge_fingerprints(built)

    def test_deterministic_across_calls(self):
        assert edge_fingerprints(build_spec()) == edge_fingerprints(
            build_spec()
        )


class TestPerturbationSensitivity:
    def setup_method(self):
        self.base = edge_fingerprints(build_spec())

    def test_data_perturbation_changes_edge(self):
        changed = edge_fingerprints(
            build_spec(ages=[18, 19, 20, 21, 22, 23, 24, 26])
        )
        assert changed != self.base

    def test_cc_perturbation_changes_edge(self):
        changed = edge_fingerprints(build_spec(cc="|age >= 20| = 5"))
        assert changed[("Students", "major_id")] != self.base[
            ("Students", "major_id")
        ]

    def test_result_option_changes_every_edge(self):
        changed = edge_fingerprints(build_spec(marginals="all"))
        for key in self.base:
            assert changed[key] != self.base[key]

    def test_parallelism_options_do_not_change_fingerprints(self):
        # workers / storage / chunk_rows guarantee byte-identical output,
        # so cache entries survive re-submission under different values.
        assert edge_fingerprints(build_spec(workers=4)) == self.base
        assert (
            edge_fingerprints(
                build_spec(storage="mmap", chunk_rows=4)
            )
            == self.base
        )

    def test_per_edge_solver_override_dirties_edge_and_downstream(self):
        # major_id's config feeds its own fingerprint, and — through the
        # simulated commit to Students — the downstream course_id edge:
        # a changed upstream solve could change what course_id reads.
        changed = edge_fingerprints(
            build_spec(major_solver={"time_limit": 5.0})
        )
        assert changed[("Students", "major_id")] != self.base[
            ("Students", "major_id")
        ]
        assert changed[("Students", "course_id")] != self.base[
            ("Students", "course_id")
        ]

    def test_last_edge_override_changes_only_that_edge(self):
        # course_id solves last; nothing reads its writes, so overriding
        # it leaves every other fingerprint intact.
        changed = edge_fingerprints(
            build_spec(course_solver={"time_limit": 5.0})
        )
        assert changed[("Students", "major_id")] == self.base[
            ("Students", "major_id")
        ]
        assert changed[("Students", "course_id")] != self.base[
            ("Students", "course_id")
        ]

    def test_noop_per_edge_override_keeps_fingerprint(self):
        # An override that only touches excluded knobs resolves to the
        # same effective result options.
        changed = edge_fingerprints(build_spec(major_solver={"workers": 3}))
        assert changed == self.base

    def test_upstream_data_dirties_downstream_closure(self):
        # course_id solves after major_id completes, so its extended
        # view reads Majors: perturbing Majors dirties both edges...
        changed = edge_fingerprints(build_spec(sizes=[3, 4]))
        assert changed[("Students", "major_id")] != self.base[
            ("Students", "major_id")
        ]
        assert changed[("Students", "course_id")] != self.base[
            ("Students", "course_id")
        ]

    def test_disjoint_closure_edge_keeps_fingerprint(self):
        # ...while perturbing Courses leaves major_id (solved first,
        # never reads Courses) untouched.
        changed = edge_fingerprints(build_spec(credits=[2, 3, 5]))
        assert changed[("Students", "major_id")] == self.base[
            ("Students", "major_id")
        ]
        assert changed[("Students", "course_id")] != self.base[
            ("Students", "course_id")
        ]


class TestResultOptions:
    def test_fields_partition_solver_config(self):
        excluded = (
            set(SolverConfig.__dataclass_fields__)
            - set(RESULT_OPTION_FIELDS)
        )
        # Every excluded knob must carry a byte-identical-output
        # guarantee; adding a new result-affecting SolverConfig field
        # means adding it to RESULT_OPTION_FIELDS.
        assert excluded == {
            "workers",
            "evaluate",
            "storage",
            "chunk_rows",
            "storage_dir",
        }

    def test_result_options_filters(self):
        config = SolverConfig(marginals="all", workers=4)
        options = result_options(config)
        assert options["marginals"] == "all"
        assert "workers" not in options

    def test_unreachable_edges_get_no_fingerprint(self):
        # The BFS never reaches B.cid from fact table A, so the edge has
        # no fingerprint; the solve itself rejects such specs
        # (SnowflakeSynthesizer's unreachable-edge check).
        builder = (
            SpecBuilder("orphan")
            .relation("A", columns={"aid": [1]}, key="aid")
            .relation("B", columns={"bid": [1], "cid_src": [1]}, key="bid")
            .relation("C", columns={"cid": [1]}, key="cid")
            .edge("B", "cid", "C")
            .fact_table("A")
        )
        assert edge_fingerprints(builder.build()) == {}


class TestStrategySpelling:
    """An edge fingerprints by the ``(strategy, options)`` it solves
    with, so a respelled but equivalent edge hits the edge cache."""

    def test_capacity_spellings_agree(self):
        short = capped_spec(capacity=2)
        explicit = capped_spec(strategy="capacity", options={"max_per_key": 2})
        assert edge_fingerprints(short) == edge_fingerprints(explicit)
        first, second = (
            synthesize(spec).database.relation("Students").to_rows()
            for spec in (short, explicit)
        )
        assert first == second

    def test_other_cap_differs(self):
        short = edge_fingerprints(capped_spec(capacity=2))
        three = edge_fingerprints(
            capped_spec(strategy="capacity", options={"max_per_key": 3})
        )
        assert three != short

    def test_default_strategy_spelled_out_agrees(self):
        assert edge_fingerprints(capped_spec()) == edge_fingerprints(
            capped_spec(strategy="coloring")
        )

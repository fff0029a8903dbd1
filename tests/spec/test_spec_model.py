"""The declarative SynthesisSpec model."""

import pytest

from repro.core.config import SolverConfig
from repro.errors import SchemaError
from repro.relational.relation import Relation
from repro.relational.types import Dtype
from repro.spec import EdgeSpec, RelationSpec, SpecBuilder, SynthesisSpec
from repro.spec.io import load_spec, toml_dumps

#: Solver options that no longer exist; naming one must fail loudly.
RETIRED_OPTIONS = (
    "backend",
    "memory_budget_mb",
    "executor",
    "sql_min_rows",
    "parallel_workers",
)


def _two_table_spec(**edge_kwargs) -> SynthesisSpec:
    return (
        SpecBuilder("t")
        .relation("r1", columns={"pid": [1, 2], "Age": [3, 4]}, key="pid")
        .relation("r2", columns={"hid": [1], "Area": ["X"]}, key="hid")
        .edge("r1", "hid", "r2", **edge_kwargs)
        .build()
    )


class TestRelationSpec:
    def test_exactly_one_source_required(self):
        with pytest.raises(SchemaError):
            RelationSpec(name="r")
        with pytest.raises(SchemaError):
            RelationSpec(name="r", columns={"a": [1]}, csv="a.csv")

    def test_inline_build_infers_dtypes(self):
        spec = RelationSpec(name="r", columns={"a": [1, 2], "b": ["x", "y"]})
        relation = spec.build()
        assert relation.schema.dtype("a") is Dtype.INT
        assert relation.schema.dtype("b") is Dtype.STR

    def test_explicit_dtypes_override_inference(self):
        spec = RelationSpec(
            name="r",
            columns={"code": [1, 2]},
            dtypes={"code": "str"},
        )
        relation = spec.build()
        assert relation.schema.dtype("code") is Dtype.STR
        assert list(relation.column("code")) == ["1", "2"]

    def test_bad_declared_int_rejected(self):
        spec = RelationSpec(
            name="r", columns={"a": ["x"]}, dtypes={"a": "int"}
        )
        with pytest.raises(SchemaError):
            spec.build()

    def test_csv_build_resolves_base_dir(self, tmp_path):
        (tmp_path / "r.csv").write_text("pid,Age\n1,30\n")
        spec = RelationSpec(name="r", csv="r.csv", key="pid")
        relation = spec.build(tmp_path)
        assert len(relation) == 1 and relation.schema.key == "pid"

    def test_mmap_build_spills_under_storage_dir(self, tmp_path):
        """On the mmap backend a relation spills into
        ``storage_dir/<name>``, or a temporary directory without one."""
        spec = RelationSpec(name="events", columns={"a": [1, 2, 3]})
        named = spec.build(
            options=SolverConfig(
                storage="mmap", chunk_rows=2, storage_dir=str(tmp_path)
            )
        )
        assert named.is_chunked and named.chunk_rows == 2
        assert named.store.directory == tmp_path / "events"
        temp = spec.build(options=SolverConfig(storage="mmap"))
        assert temp.is_chunked
        assert tmp_path not in temp.store.directory.parents
        in_ram = spec.build(options=SolverConfig(storage_dir=str(tmp_path)))
        assert not in_ram.is_chunked
        assert named.column("a").tolist() == in_ram.column("a").tolist()

    def test_in_memory_relation_serialises_to_columns(self):
        relation = Relation.from_columns({"k": [1, 2], "v": ["a", "b"]},
                                         key="k")
        spec = RelationSpec(name="r", key="k", relation=relation)
        data = spec.to_dict()
        assert data["columns"] == {"k": [1, 2], "v": ["a", "b"]}
        assert data["dtypes"] == {"k": "int", "v": "str"}
        rebuilt = RelationSpec.from_dict(data).build()
        assert rebuilt.to_rows() == relation.to_rows()

    def test_unknown_fields_rejected(self):
        with pytest.raises(SchemaError):
            RelationSpec.from_dict({"name": "r", "columns": {}, "nope": 1})


class TestEdgeSpec:
    def test_string_constraints_parsed(self):
        edge = EdgeSpec(
            "r1", "hid", "r2",
            ccs=["|Age <= 3 & Area == 'X'| = 1"],
            dcs=["not(t1.Age < 3 & t2.Age < 3)"],
        )
        assert edge.ccs[0].target == 1
        assert edge.dcs[0].arity == 2

    def test_inline_constraint_block(self):
        edge = EdgeSpec.from_dict(
            {
                "child": "r1", "column": "hid", "parent": "r2",
                "constraints": (
                    "# comment\n"
                    "cc: |Age <= 3 & Area == 'X'| = 1\n"
                    "dc: not(t1.Age < 3 & t2.Age < 3)\n"
                ),
            }
        )
        assert len(edge.ccs) == 1 and len(edge.dcs) == 1

    def test_constraints_file_picks_matching_section(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(
            "[r1.hid -> r2]\ncc: |Age <= 3 & Area == 'X'| = 1\n"
            "[other.fk -> r2]\ncc: |Age <= 9 & Area == 'Y'| = 2\n"
        )
        edge = EdgeSpec.from_dict(
            {"child": "r1", "column": "hid", "parent": "r2",
             "constraints_file": str(path)},
        )
        assert len(edge.ccs) == 1 and edge.ccs[0].target == 1

    @pytest.mark.parametrize("value", [3, "x"])
    @pytest.mark.parametrize("name", ["options", "solver"])
    def test_non_table_knobs_rejected(self, name, value):
        with pytest.raises(SchemaError, match=f"'{name}' must be a table"):
            EdgeSpec("r1", "hid", "r2", **{name: value})

    def test_constraints_file_without_section_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[other.fk -> r2]\ncc: |Age <= 9 & Area == 'Y'| = 2\n")
        with pytest.raises(SchemaError):
            EdgeSpec.from_dict(
                {"child": "r1", "column": "hid", "parent": "r2",
                 "constraints_file": str(path)},
            )


class TestSynthesisSpec:
    def test_validates_unknown_relations(self):
        spec = SynthesisSpec(
            relations=[RelationSpec(name="r1", columns={"a": [1]})],
            edges=[EdgeSpec("r1", "fk", "ghost")],
        )
        with pytest.raises(SchemaError):
            spec.validate()

    def test_duplicate_edge_rejected(self):
        builder = (
            SpecBuilder()
            .relation("r1", columns={"pid": [1]}, key="pid")
            .relation("r2", columns={"hid": [1]}, key="hid")
            .edge("r1", "hid", "r2")
            .edge("r1", "hid", "r2")
        )
        with pytest.raises(SchemaError):
            builder.build()

    def test_capacity_must_be_positive(self):
        with pytest.raises(SchemaError):
            _two_table_spec(capacity=0)

    def test_fact_inference(self):
        assert _two_table_spec().fact() == "r1"

    def test_fact_inference_ambiguous(self):
        spec = (
            SpecBuilder()
            .relation("a", columns={"k": [1]}, key="k")
            .relation("b", columns={"k": [1]}, key="k")
            .relation("c", columns={"k": [1]}, key="k")
            .edge("a", "fk_c", "c")
            .edge("b", "fk_c2", "c")
        )
        built = spec.build()
        with pytest.raises(SchemaError):
            built.fact()

    def test_to_database(self):
        db = _two_table_spec().to_database()
        assert set(db.relation_names) == {"r1", "r2"}
        assert len(db.foreign_keys) == 1

    def test_options_round_trip_only_non_defaults(self):
        spec = _two_table_spec().with_options(marginals="all", workers=2)
        data = spec.to_dict()
        assert data["options"] == {"marginals": "all", "workers": 2}
        rebuilt = SynthesisSpec.from_dict(data)
        assert rebuilt.options == SolverConfig(marginals="all", workers=2)

    def test_unknown_option_rejected(self, tmp_path):
        for name in ("warp_speed",) + RETIRED_OPTIONS:
            data = _two_table_spec().to_dict()
            data["options"] = {name: 1}
            path = tmp_path / f"{name}.toml"
            path.write_text(toml_dumps(data))
            with pytest.raises(SchemaError, match="unknown solver options"):
                load_spec(path)

    @pytest.mark.parametrize(
        "table, value, fragment",
        [
            ("options", {"chunk_rows": "8"}, "chunk_rows must be an int"),
            ("options", {"soft_ccs": "false"}, "soft_ccs must be a bool"),
            ("options", {"workers": 2.5}, "workers must be an int"),
            ("solver", {"evaluate": "no"}, "evaluate must be a bool"),
        ],
        ids=["chunk_rows-str", "soft_ccs-str", "workers-float",
             "edge-evaluate-str"],
    )
    def test_mistyped_option_rejected(self, tmp_path, table, value, fragment):
        """Each of these used to load: a string chunk_rows then crashed
        with a raw TypeError, and the rest ran as if valid."""
        data = _two_table_spec().to_dict()
        if table == "options":
            data["options"] = value
        else:
            data["edges"][0]["solver"] = value
        path = tmp_path / "spec.toml"
        path.write_text(toml_dumps(data))
        with pytest.raises(SchemaError, match=fragment):
            load_spec(path)

    def test_failed_run_removes_its_spills(self, tmp_path):
        from repro.spec.api import spill_guard

        root = tmp_path / "spill"
        spec = _two_table_spec().with_options(
            storage="mmap", storage_dir=str(root)
        )
        with pytest.raises(RuntimeError):
            with spill_guard(spec):
                spec.to_database()
                assert sorted(p.name for p in root.iterdir()) == [
                    "r1", "r2",
                ]
                raise RuntimeError("edge failed")
        assert not root.exists()

    def test_builder_options_exclusive(self):
        with pytest.raises(SchemaError):
            SpecBuilder().options(SolverConfig(), marginals="all")


class TestEdgeStrategyValidation:
    """Unknown strategies and bad overrides fail at spec load time."""

    def test_unknown_strategy_rejected_with_menu(self):
        with pytest.raises(SchemaError) as excinfo:
            _two_table_spec(strategy="quantum")
        message = str(excinfo.value)
        for name in ("coloring", "capacity", "soft_capacity",
                     "quota_coloring"):
            assert name in message

    def test_builtin_strategies_accepted(self):
        for name in ("coloring", "capacity", "soft_capacity",
                     "quota_coloring"):
            capacity = 2 if name in ("capacity", "soft_capacity") else None
            spec = _two_table_spec(strategy=name, capacity=capacity)
            assert spec.edges[0].strategy == name

    @pytest.mark.parametrize(
        "edge_kwargs, fragment",
        [
            ({"capacity": "3"}, "max_per_key"),
            ({"capacity": True}, "max_per_key"),
            ({"capacity": 2.5}, "max_per_key"),
            ({"strategy": "capacity"}, "max_per_key"),
            ({"strategy": "soft_capacity"}, "max_per_key"),
            (
                {"capacity": 2, "strategy": "soft_capacity",
                 "options": {"penalty": "high"}},
                "penalty",
            ),
            (
                {"capacity": 2, "strategy": "soft_capacity",
                 "options": {"new_tuple_cost": None}},
                "new_tuple_cost",
            ),
            ({"capacity": 2, "options": {"penalty": 2.0}}, "unknown"),
            (
                {"strategy": "quota_coloring",
                 "options": {"quotas": [{"match": {}, "quota": 0}]}},
                "quota",
            ),
            ({"strategy": "coloring", "options": {"penalty": 1.0}}, "unknown"),
        ],
        ids=[
            "capacity-str", "capacity-bool", "capacity-float",
            "capacity-no-cap", "soft-no-cap", "penalty-str",
            "new-tuple-cost-null", "penalty-on-capacity", "quota-zero",
            "options-on-coloring",
        ],
    )
    def test_bad_strategy_settings_rejected_at_build(
        self, edge_kwargs, fragment
    ):
        """Each of these used to crash with a raw TypeError, or pass
        validation and fail only when the edge was solved."""
        with pytest.raises(SchemaError) as excinfo:
            _two_table_spec(**edge_kwargs)
        message = str(excinfo.value)
        assert message.startswith("edge ('r1', 'hid', 'r2'): ")
        assert fragment in message

    def test_options_without_strategy_rejected(self):
        with pytest.raises(SchemaError, match="options"):
            _two_table_spec(options={"max_per_key": 2})

    def test_capacity_with_incompatible_strategy_rejected(self):
        with pytest.raises(SchemaError, match="capacity"):
            _two_table_spec(capacity=2, strategy="quota_coloring")
        # … but the capacity-family strategies do combine with it.
        spec = _two_table_spec(capacity=2, strategy="soft_capacity")
        assert spec.edges[0].capacity == 2

    def test_strategy_options_round_trip(self):
        spec = _two_table_spec(
            strategy="soft_capacity",
            options={"max_per_key": 3, "penalty": 2.0},
        )
        data = spec.to_dict()
        assert data["edges"][0]["options"] == {
            "max_per_key": 3, "penalty": 2.0,
        }
        rebuilt = SynthesisSpec.from_dict(data)
        assert rebuilt.edges[0].options == spec.edges[0].options


class TestEdgeSolverOverrides:
    def test_overrides_round_trip(self):
        spec = _two_table_spec(
            solver={"marginals": "all", "time_limit": 5.0, "mip_gap": 0.1}
        )
        data = spec.to_dict()
        assert data["edges"][0]["solver"] == {
            "marginals": "all", "time_limit": 5.0, "mip_gap": 0.1,
        }
        rebuilt = SynthesisSpec.from_dict(data)
        assert rebuilt.edges[0].solver == spec.edges[0].solver

    def test_unknown_override_key_rejected(self, tmp_path):
        with pytest.raises(SchemaError, match="bogus"):
            _two_table_spec(solver={"bogus": 1})
        for name in RETIRED_OPTIONS:
            data = _two_table_spec().to_dict()
            data["edges"][0]["solver"] = {name: 1}
            path = tmp_path / f"{name}.toml"
            path.write_text(toml_dumps(data))
            with pytest.raises(SchemaError, match="unknown solver overrides"):
                load_spec(path)

    def test_invalid_override_value_rejected(self):
        with pytest.raises(SchemaError, match="marginals"):
            _two_table_spec(solver={"marginals": "sometimes"})
        with pytest.raises(SchemaError, match="time_limit"):
            _two_table_spec(solver={"time_limit": -1.0})

    def test_effective_config_shadows_global(self):
        from repro.core.snowflake import EdgeConstraints

        base = SolverConfig(soft_ccs=False)
        constraints = EdgeConstraints(
            solver_overrides={"marginals": "all", "mip_gap": 0.05}
        )
        config = constraints.effective_config(base)
        assert config.marginals == "all"
        assert config.mip_gap == 0.05
        # Untouched knobs keep the global value, and no-override edges
        # reuse the base object untouched.
        assert config.soft_ccs == base.soft_ccs
        assert EdgeConstraints().effective_config(base) is base

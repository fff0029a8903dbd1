"""Round-trip identities, property-tested over generated census workloads.

* ``SynthesisSpec`` → file (TOML and JSON) → ``SynthesisSpec`` is an
  identity on the serialised form;
* constraints parse → dump → parse is an identity on the constraint
  objects, for both the census families and randomly generated
  ``in {…}`` DCs.
"""

import string

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constraints.textio import (
    dump_constraints,
    format_cc,
    format_dc,
    load_constraints,
)
from repro.datagen.census import CensusConfig, generate_census
from repro.datagen.constraints_census import all_dcs, cc_family
from repro.spec import SpecBuilder, SynthesisSpec, load_spec, save_spec

MARGINALS = ["relevant", "all", "none"]

_SLOW = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_names = st.text(string.ascii_lowercase, min_size=1, max_size=6)
_values = st.one_of(
    st.integers(min_value=-50, max_value=150),
    st.text(string.ascii_letters + " /-", min_size=1, max_size=10).map(
        str.strip
    ).filter(bool),
)


@st.composite
def census_workloads(draw):
    seed = draw(st.integers(min_value=0, max_value=40))
    households = draw(st.integers(min_value=20, max_value=60))
    kind = draw(st.sampled_from(["good", "bad"]))
    num_ccs = draw(st.integers(min_value=1, max_value=25))
    data = generate_census(
        CensusConfig(n_households=households, n_areas=4, seed=seed)
    )
    return cc_family(data, kind, num_ccs), all_dcs()


@_SLOW
@given(census_workloads())
def test_census_constraints_parse_dump_parse_identity(tmp_path_factory,
                                                      workload):
    ccs, dcs = workload
    path = tmp_path_factory.mktemp("constraints") / "c.txt"
    written = dump_constraints(path, ccs, dcs)
    assert written == len(dcs)
    loaded_ccs, loaded_dcs = load_constraints(path)
    assert loaded_ccs == list(ccs)
    assert loaded_dcs == list(dcs)
    # A second dump is byte-identical: the fixed point is reached at once.
    path2 = tmp_path_factory.mktemp("constraints") / "c2.txt"
    dump_constraints(path2, loaded_ccs, loaded_dcs)
    assert path.read_text() == path2.read_text()


@st.composite
def in_atom_dcs(draw):
    from repro.constraints.dc import DenialConstraint, UnaryAtom

    attr = draw(st.sampled_from(["Rel", "Kind", "Area"]))
    values = draw(
        st.lists(_values, min_size=1, max_size=4, unique=True)
    )
    anchor = UnaryAtom(0, attr, "==", draw(_values))
    member = UnaryAtom(1, attr, "in", tuple(values))
    return DenialConstraint([anchor, member])


@_SLOW
@given(st.lists(in_atom_dcs(), min_size=1, max_size=5))
def test_random_in_atom_dcs_round_trip(dcs):
    from repro.constraints.parser import parse_dc

    for dc in dcs:
        assert parse_dc(format_dc(dc)) == dc


@st.composite
def specs(draw):
    n_parents = draw(st.integers(min_value=1, max_value=3))
    builder = SpecBuilder(draw(_names))
    fact_columns = {"fid": list(range(1, draw(st.integers(2, 6))))}
    builder.relation("fact", columns=fact_columns, key="fid")
    for i in range(n_parents):
        name = f"dim{i}"
        size = draw(st.integers(min_value=1, max_value=4))
        builder.relation(
            name,
            columns={
                f"k{i}": list(range(size)),
                f"v{i}": [f"val{j}" for j in range(size)],
            },
            key=f"k{i}",
        )
        kwargs = {}
        if draw(st.booleans()):
            kwargs["capacity"] = draw(st.integers(1, 5))
        if draw(st.booleans()):
            kwargs["ccs"] = [f"|v{i} == 'val0'| = {draw(st.integers(0, 9))}"]
        if draw(st.booleans()):
            kwargs["dcs"] = [
                f"not(t1.v{i} == 'val0' & t2.v{i} in {{'val0', 'x'}})"
            ]
        strategy = draw(
            st.sampled_from(
                [None, "soft_capacity", "quota_coloring", "capacity"]
            )
        )
        if strategy in ("soft_capacity", "capacity"):
            kwargs["strategy"] = strategy
            kwargs["options"] = {"max_per_key": draw(st.integers(1, 5))}
            if strategy == "soft_capacity" and draw(st.booleans()):
                kwargs["options"]["penalty"] = draw(
                    st.floats(0.5, 10.0, allow_nan=False)
                )
        elif strategy == "quota_coloring":
            kwargs.pop("capacity", None)
            kwargs["strategy"] = strategy
            if draw(st.booleans()):
                kwargs["options"] = {
                    "default_quota": draw(st.integers(1, 5)),
                    "quotas": [
                        {"match": {f"v{i}": "val0"},
                         "quota": draw(st.integers(1, 5))}
                    ],
                }
        if draw(st.booleans()):
            kwargs["solver"] = {
                "marginals": draw(st.sampled_from(MARGINALS)),
            }
            if draw(st.booleans()):
                kwargs["solver"]["time_limit"] = draw(
                    st.floats(0.5, 60.0, allow_nan=False)
                )
            if draw(st.booleans()):
                kwargs["solver"]["mip_gap"] = draw(
                    st.floats(0.0, 0.5, allow_nan=False,
                              exclude_max=False)
                )
        if draw(st.booleans()):
            kwargs["serialize"] = True
        builder.edge("fact", f"fk{i}", name, **kwargs)
    if draw(st.booleans()):
        builder.options(marginals=draw(st.sampled_from(MARGINALS)))
    if draw(st.booleans()):
        builder.options(workers=draw(st.integers(0, 4)))
    if draw(st.booleans()):
        builder.options(
            storage=draw(st.sampled_from(["numpy", "mmap"])),
            chunk_rows=draw(st.integers(1, 1 << 20)),
        )
    if draw(st.booleans()):
        builder.options(
            storage_dir=draw(
                st.text(string.ascii_lowercase + "/_-", min_size=1,
                        max_size=12).filter(
                    lambda s: not s.startswith("/") and ".." not in s
                )
            )
        )
    builder.fact_table("fact")
    return builder.build()


@_SLOW
@given(specs(), st.sampled_from(["toml", "json"]))
def test_spec_file_round_trip_identity(tmp_path_factory, spec, fmt):
    path = tmp_path_factory.mktemp("spec") / f"workload.{fmt}"
    save_spec(spec, path)
    loaded = load_spec(path)
    assert loaded.to_dict() == spec.to_dict()
    # And the reloaded spec's constraints are the same objects semantically.
    for original, reloaded in zip(spec.edges, loaded.edges):
        assert [format_cc(cc) for cc in original.ccs] == [
            format_cc(cc) for cc in reloaded.ccs
        ]
        assert [format_dc(dc) for dc in original.dcs] == [
            format_dc(dc) for dc in reloaded.dcs
        ]
        assert original.ccs == reloaded.ccs
        assert original.dcs == reloaded.dcs


def test_numpy_scalar_options_survive_toml_round_trip(tmp_path):
    """np.float64/np.int64/np.bool_ values emit as plain TOML scalars.

    Numeric knobs computed with numpy land in specs as numpy scalars;
    ``np.float64`` subclasses ``float``, so before the ``np.generic``
    unwrap its ``repr`` ("np.float64(2.5)") was written verbatim —
    silent file corruption, caught only on reload.
    """
    import numpy as np

    spec = (
        SpecBuilder("npscalars")
        .relation("fact", columns={"fid": [1, 2, 3]}, key="fid")
        .relation("dim", columns={"k": [0, 1]}, key="k")
        .edge(
            "fact",
            "fk",
            "dim",
            capacity=int(np.int64(2)),
            solver={
                "time_limit": np.float64(2.5),
                "mip_gap": np.float64(0.125),
                "force_ilp": np.bool_(True),
            },
        )
        .fact_table("fact")
        .options(workers=np.int64(3), time_limit=np.float64(9.5))
        .build()
    )
    for fmt in ("toml", "json"):
        path = tmp_path / f"spec.{fmt}"
        save_spec(spec, path)
        assert "np.float64" not in path.read_text()
        loaded = load_spec(path)
        assert loaded.options.workers == 3
        assert loaded.options.time_limit == 9.5
        edge = loaded.edges[0]
        assert edge.solver["time_limit"] == 2.5
        assert edge.solver["mip_gap"] == 0.125
        assert edge.solver["force_ilp"] is True


def test_spec_dict_round_trip_is_stable():
    """to_dict ∘ from_dict is the identity on the dictionary form."""
    spec = (
        SpecBuilder("stable")
        .relation("fact", columns={"fid": [1, 2, 3]}, key="fid")
        .relation("dim", columns={"k": [0, 1], "v": ["a", "b"]}, key="k")
        .edge("fact", "fk", "dim", ccs=["|v == 'a'| = 2"], capacity=2)
        .fact_table("fact")
        .build()
    )
    once = spec.to_dict()
    twice = SynthesisSpec.from_dict(once).to_dict()
    assert once == twice

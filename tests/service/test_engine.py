"""The cache-aware engine: splice equivalence, incremental re-synthesis,
and crash/resume — the service layer's acceptance contract.

Everything here rests on one claim: whatever mix of cache hits and
misses ``run_spec`` serves, the completed database satisfies
``Database.identical_to`` against a cold ``synthesize`` of the same
spec.  The hypothesis test drives that across random snowflake schemas;
the crash test kills a traversal mid-run and requires the resumed run
to (a) hit every checkpointed edge and (b) finish byte-identical.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import InfeasibleError
from repro.service import engine
from repro.service.cache import EdgeCache
from repro.service.engine import SynthesisCancelled, run_spec
from repro.spec import SpecBuilder, synthesize


def assert_identical(a, b) -> None:
    if a.identical_to(b):
        return
    for name in a.relation_names:
        ra, rb = a.relation(name), b.relation(name)
        assert ra.schema == rb.schema, f"{name}: schemas differ"
        for column in ra.schema.names:
            assert np.array_equal(
                ra.column(column), rb.column(column)
            ), f"{name}.{column}: values differ"
    raise AssertionError("relation scan found no difference")


# ----------------------------------------------------------------------
# Random snowflake specs
# ----------------------------------------------------------------------

ARMS = st.lists(
    st.tuples(
        st.integers(min_value=4, max_value=8),   # dimension rows
        st.integers(min_value=2, max_value=3),   # sub-dimension keys
        st.booleans(),                           # arm has a sub-dimension
        st.sampled_from(["plain", "capacity", "cc", "dc"]),
    ),
    min_size=1,
    max_size=3,
)


def build_workload_spec(arms, seed, **options):
    """A random snowflake spec: fact F, one dim per arm, optional hop."""
    rng = np.random.default_rng(seed)
    builder = SpecBuilder(f"workload-{seed}")
    builder.relation(
        "F",
        columns={
            "fid": list(range(8)),
            "W": rng.integers(1, 4, 8).tolist(),
        },
        key="fid",
    )
    for i, (dim_rows, sub_keys, has_sub, flavor) in enumerate(arms):
        dim, sub = f"D{i}", f"S{i}"
        builder.relation(
            dim,
            columns={
                f"d{i}": list(range(dim_rows)),
                f"X{i}": rng.integers(0, 3, dim_rows).tolist(),
            },
            key=f"d{i}",
        )
        builder.edge("F", f"fk_d{i}", dim)
        if not has_sub:
            continue
        builder.relation(
            sub,
            columns={
                f"s{i}": list(range(sub_keys)),
                f"C{i}": [f"c{j % 2}" for j in range(sub_keys)],
            },
            key=f"s{i}",
        )
        kwargs = {}
        if flavor == "capacity":
            kwargs["capacity"] = max(2, dim_rows // sub_keys + 1)
        elif flavor == "cc":
            kwargs["ccs"] = [f"|X{i} == 1 & C{i} == 'c0'| = 2"]
        elif flavor == "dc":
            kwargs["dcs"] = [f"not(t1.X{i} == 0 & t2.X{i} == 2)"]
        elif flavor == "infeasible":
            # A hard CC no dimension of <= 8 rows can meet.
            kwargs["ccs"] = [f"|X{i} == 1 & C{i} == 'c0'| = 100"]
            kwargs["solver"] = {"soft_ccs": False, "force_ilp": True}
        builder.edge(dim, f"fk_s{i}", sub, **kwargs)
    builder.fact_table("F")
    if options:
        builder.options(**options)
    return builder.build()


class TestEquivalence:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        arms=ARMS,
        seed=st.integers(min_value=0, max_value=2**16),
        workers=st.sampled_from([0, 2]),
    )
    def test_cold_warm_and_resumed_runs_identical(
        self, tmp_path_factory, arms, seed, workers
    ):
        """Hits or misses, run_spec == synthesize, byte for byte."""
        tmp = tmp_path_factory.mktemp("cache")
        cold = synthesize(build_workload_spec(arms, seed))
        cache = EdgeCache(tmp / "c")
        first = run_spec(
            build_workload_spec(arms, seed, workers=workers), cache=cache
        )
        assert_identical(first.database, cold.database)
        assert not any(e.cache_hit for e in first.edges)
        warm = run_spec(
            build_workload_spec(arms, seed, workers=workers), cache=cache
        )
        assert_identical(warm.database, cold.database)
        assert all(e.cache_hit for e in warm.edges)
        # A fresh cache instance on the same directory — i.e. a fresh
        # process — replays from disk alone.
        resumed = run_spec(
            build_workload_spec(arms, seed, workers=workers),
            cache=EdgeCache(tmp / "c"),
        )
        assert_identical(resumed.database, cold.database)
        assert all(e.cache_hit for e in resumed.edges)

    def test_cacheless_run_matches_synthesize(self, monkeypatch):
        def no_fingerprints(*args, **kwargs):
            raise AssertionError("a cacheless run fingerprinted its inputs")

        monkeypatch.setattr(engine, "edge_fingerprints", no_fingerprints)
        spec = build_workload_spec([(5, 2, True, "cc")], seed=3)
        served = run_spec(spec)
        cold = synthesize(build_workload_spec([(5, 2, True, "cc")], seed=3))
        assert_identical(served.database, cold.database)

        def untimed(report):
            return replace(
                report,
                phase1_seconds=0.0,
                phase2_seconds=0.0,
                wall_seconds=0.0,
            )

        assert [untimed(e) for e in served.edges] == [
            untimed(e) for e in cold.edges
        ]
        assert not any(e.cache_hit for e in served.edges)

    def test_parallel_run_uses_and_fills_cache(self, tmp_path):
        arms = [(6, 2, True, "dc"), (7, 3, True, "capacity")]
        cache = EdgeCache(tmp_path / "c")
        cold = synthesize(build_workload_spec(arms, seed=11))
        first = run_spec(
            build_workload_spec(arms, seed=11, workers=2), cache=cache
        )
        assert_identical(first.database, cold.database)
        warm = run_spec(
            build_workload_spec(arms, seed=11, workers=2), cache=cache
        )
        assert all(e.cache_hit for e in warm.edges)
        assert_identical(warm.database, cold.database)


class TestIncrementalResynthesis:
    def test_only_dirty_closure_resolves(self, tmp_path):
        arms = [(6, 2, True, "cc"), (5, 3, False, "plain")]
        cache = EdgeCache(tmp_path / "c")
        run_spec(build_workload_spec(arms, seed=7), cache=cache)

        # Edit arm 1's dimension (a leaf nobody else reads): only the
        # F -> D1 edge is dirty.
        edited = build_workload_spec(arms, seed=7)
        d1 = next(r for r in edited.relations if r.name == "D1")
        d1.columns = dict(d1.columns)
        d1.columns["X1"] = [v + 1 for v in d1.columns["X1"]]

        result = run_spec(edited, cache=cache)
        flags = {(e.child, e.column): e.cache_hit for e in result.edges}
        assert flags[("F", "fk_d1")] is False
        clean = {k: v for k, v in flags.items() if k != ("F", "fk_d1")}
        assert all(clean.values()), f"clean edges re-solved: {clean}"
        # And the spliced result still equals a full cold run.
        cold = synthesize(edited)
        assert_identical(result.database, cold.database)

    def test_events_carry_hit_counters(self, tmp_path):
        arms = [(5, 2, True, "plain")]
        cache = EdgeCache(tmp_path / "c")
        run_spec(build_workload_spec(arms, seed=2), cache=cache)
        events = []
        run_spec(
            build_workload_spec(arms, seed=2),
            cache=cache,
            on_event=events.append,
        )
        assert events and all(e["type"] == "edge_cached" for e in events)
        assert events[-1]["cache_hits"] == len(events)
        assert events[-1]["cache_misses"] == 0


class TestCrashResume:
    def test_killed_run_resumes_from_checkpoints(self, tmp_path):
        arms = [(6, 2, True, "cc"), (5, 2, True, "dc")]
        spec = build_workload_spec(arms, seed=13)
        total = len(spec.edges)
        assert total == 4
        cold = synthesize(build_workload_spec(arms, seed=13))

        class Crash(RuntimeError):
            pass

        def crash_after(n):
            count = {"solved": 0}

            def hook(event):
                if event["type"] == "edge_solved":
                    count["solved"] += 1
                    if count["solved"] >= n:
                        raise Crash(f"killed after {n} edges")

            return hook

        cache = EdgeCache(tmp_path / "c")
        with pytest.raises(Crash):
            run_spec(
                build_workload_spec(arms, seed=13),
                cache=cache,
                on_event=crash_after(2),
            )
        # The two completed edges are checkpointed on disk.
        assert len(EdgeCache(tmp_path / "c")) == 2

        # Resume in a "fresh process": hits for the checkpointed edges,
        # solves for the rest, final database identical to a cold run.
        resumed = run_spec(
            build_workload_spec(arms, seed=13),
            cache=EdgeCache(tmp_path / "c"),
        )
        assert sum(e.cache_hit for e in resumed.edges) == 2
        assert sum(not e.cache_hit for e in resumed.edges) == 2
        assert_identical(resumed.database, cold.database)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_failing_edge_keeps_solved_batch_mates(self, tmp_path, workers):
        """D1.fk_s1 fails in the batch it shares with D0.fk_s0 (pooled at
        workers=2); the solved D0.fk_s0 is still checkpointed."""
        arms = [(6, 2, True, "plain"), (6, 2, True, "infeasible")]
        events = []
        with pytest.raises(InfeasibleError):
            run_spec(
                build_workload_spec(arms, seed=4, workers=workers),
                cache=EdgeCache(tmp_path / "c"),
                on_event=events.append,
            )
        solved = [e["edge"] for e in events if e["type"] == "edge_solved"]
        assert "D0.fk_s0 -> S0" in solved
        assert "D1.fk_s1 -> S1" not in solved
        assert len(EdgeCache(tmp_path / "c")) == 3

    def test_cancellation_between_edges(self, tmp_path):
        arms = [(6, 2, True, "plain"), (5, 2, False, "plain")]
        cache = EdgeCache(tmp_path / "c")
        calls = {"n": 0}

        def cancel_after_first():
            calls["n"] += 1
            return calls["n"] > 1

        with pytest.raises(SynthesisCancelled):
            run_spec(
                build_workload_spec(arms, seed=21),
                cache=cache,
                should_cancel=cancel_after_first,
            )
        # Whatever was solved before the cancel is checkpointed; the
        # re-run completes and matches cold.
        cold = synthesize(build_workload_spec(arms, seed=21))
        resumed = run_spec(
            build_workload_spec(arms, seed=21), cache=cache
        )
        assert_identical(resumed.database, cold.database)

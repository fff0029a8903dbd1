"""JobManager: lifecycle, durable job directories, restart resume."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError, SchemaError
from repro.service.engine import run_spec
from repro.service.jobs import JobManager, JobNotFound
from repro.spec import SpecBuilder, synthesize


def orphan_spec():
    """A spec whose B -> C edge hangs off nothing the fact table
    reaches."""
    return (
        SpecBuilder("orphan")
        .relation("A", columns={"aid": [1]}, key="aid")
        .relation("B", columns={"bid": [1]}, key="bid")
        .relation("C", columns={"cid": [1]}, key="cid")
        .edge("B", "fk_c", "C")
        .fact_table("A")
        .build()
    )


def small_spec(name="job-spec", shift=0):
    return (
        SpecBuilder(name)
        .relation(
            "F",
            columns={
                "fid": list(range(6)),
                "W": [(v + shift) % 3 for v in range(6)],
            },
            key="fid",
        )
        .relation(
            "D", columns={"did": [1, 2], "X": [0, 1]}, key="did"
        )
        .edge("F", "fk_d", "D", ccs=["|W == 1 & X == 1| = 2"])
        .fact_table("F")
        .build()
    )


class TestLifecycle:
    def test_submit_wait_result(self, tmp_path):
        manager = JobManager(tmp_path / "jobs", worker_budget=1)
        job_id = manager.submit(small_spec())
        status = manager.wait(job_id, timeout=120)
        assert status["state"] == "done"
        assert status["total_edges"] == 1
        assert status["edges_done"] == 1
        result = manager.result(job_id)
        assert result["cache_misses"] == 1
        # The job directory is self-contained and durable.
        job_dir = tmp_path / "jobs" / job_id
        assert (job_dir / "spec.json").is_file()
        assert (job_dir / "status.json").is_file()
        assert (job_dir / "events.jsonl").is_file()
        assert (job_dir / "result" / "summary.json").is_file()
        assert (job_dir / "result" / "F.csv").is_file()
        manager.close()

    def test_warm_resubmission_hits_cache(self, tmp_path):
        manager = JobManager(tmp_path / "jobs", worker_budget=1)
        manager.wait(manager.submit(small_spec()), timeout=120)
        warm = manager.submit(small_spec())
        status = manager.wait(warm, timeout=120)
        assert status["cache_hits"] == 1
        assert status["cache_misses"] == 0
        events, next_seq = manager.events(warm)
        assert [e["type"] for e in events] == ["edge_cached"]
        assert next_seq == 1
        # Event cursoring.
        later, _ = manager.events(warm, since=next_seq)
        assert later == []
        manager.close()

    def test_failed_job_reports_error(self, tmp_path):
        manager = JobManager(tmp_path / "jobs", worker_budget=1)
        job_id = manager.submit(orphan_spec())
        status = manager.wait(job_id, timeout=120)
        assert status["state"] == "failed"
        assert "unreachable" in status["error"]
        with pytest.raises(ReproError):
            manager.result(job_id)
        manager.close()

    def test_unreachable_edge_error_matches_synthesize(self):
        with pytest.raises(SchemaError) as direct:
            synthesize(orphan_spec())
        with pytest.raises(SchemaError) as served:
            run_spec(orphan_spec())
        assert str(served.value) == str(direct.value)

    def test_unknown_job(self, tmp_path):
        manager = JobManager(tmp_path / "jobs")
        with pytest.raises(JobNotFound):
            manager.status("nope")
        manager.close()

    def test_submit_text_toml(self, tmp_path):
        from repro.spec import toml_dumps

        manager = JobManager(tmp_path / "jobs", worker_budget=1)
        job_id = manager.submit_text(
            toml_dumps(small_spec().to_dict()), fmt="toml"
        )
        assert manager.wait(job_id, timeout=120)["state"] == "done"
        manager.close()

    def test_malformed_spec_fails_at_submit(self, tmp_path):
        manager = JobManager(tmp_path / "jobs")
        with pytest.raises(ReproError):
            manager.submit_text("relations = 3", fmt="toml")
        manager.close()


class TestRestartResume:
    def test_fresh_manager_adopts_terminal_jobs(self, tmp_path):
        first = JobManager(tmp_path / "jobs", worker_budget=1)
        job_id = first.submit(small_spec())
        first.wait(job_id, timeout=120)
        first.close()

        second = JobManager(tmp_path / "jobs", worker_budget=1)
        status = second.status(job_id)
        assert status["state"] == "done"
        assert second.result(job_id)["cache_misses"] == 1
        events, _ = second.events(job_id)
        assert [e["type"] for e in events] == [
            "edge_started", "edge_solved",
        ]
        assert second.resume_pending() == []
        second.close()

    def test_interrupted_job_resumes_to_identical_result(self, tmp_path):
        """A job killed mid-run finishes after restart, via checkpoints."""
        first = JobManager(tmp_path / "jobs", worker_budget=1)
        job_id = first.submit(small_spec())
        first.wait(job_id, timeout=120)
        first.close()

        # Forge the crash: rewind the status file to "running", as a
        # process killed mid-traversal would leave it.
        status_path = tmp_path / "jobs" / job_id / "status.json"
        status = json.loads(status_path.read_text())
        status["state"] = "running"
        status_path.write_text(json.dumps(status))
        import shutil

        shutil.rmtree(tmp_path / "jobs" / job_id / "result")

        second = JobManager(tmp_path / "jobs", worker_budget=1)
        assert second.status(job_id)["state"] == "running"
        assert second.resume_pending() == [job_id]
        final = second.wait(job_id, timeout=120)
        assert final["state"] == "done"
        # The resumed run spliced the checkpointed edge from the cache…
        assert final["cache_hits"] == 1
        # …and its output matches a cold in-process run of the spec.
        summary = second.result(job_id)
        cold = synthesize(small_spec())
        assert (
            summary["relations"]
            == {
                name: len(cold.database.relation(name))
                for name in cold.database.relation_names
            }
        )
        import csv

        with open(
            tmp_path / "jobs" / job_id / "result" / "F.csv"
        ) as handle:
            rows = list(csv.reader(handle))
        header, data = rows[0], rows[1:]
        fk_index = header.index("fk_d")
        cold_fk = cold.database.relation("F").column("fk_d")
        assert [int(row[fk_index]) for row in data] == cold_fk.tolist()
        second.close()

    def test_cancel_running_job(self, tmp_path):
        manager = JobManager(tmp_path / "jobs", worker_budget=1)
        job_id = manager.submit(small_spec())
        manager.cancel(job_id)
        status = manager.wait(job_id, timeout=120)
        # Cancellation raced the (tiny) solve: either it landed between
        # edges, or the job finished first — both are valid terminal
        # states, and neither hangs.
        assert status["state"] in ("cancelled", "done")
        manager.close()

"""Benchmark of record for the synthesis engine.

Run from the repository root::

    python3 perfbench/run.py --workload census_alldc --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # one process each

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

One run of one workload, in this one process:

1. writes the workload's inputs (spec TOML + CSVs, generated from
   ``--seed``) under ``.perfbench/`` in the repository, on whatever
   filesystem holds it (reported, since cache and spill costs depend
   on it);
2. times the set-up — ``repro.load_spec`` plus ``to_database`` — once
   before the first op and once after every op (``setup_s``);
3. runs one untimed warm-up op (the first HiGHS call costs ~0.5 s);
4. runs ops in a closed loop with one client for ``--seconds``: each op
   starts after ``gc.collect()`` with the previous result dropped, the
   peak-RSS counter reset and a fresh cache/spill directory, and is
   timed whole (``synth_s``, ``resynth_s``, ``peak_rss_mb``);
5. verifies the first op's outputs in full (``verify.py``) and every
   later op by its content digest.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (medians over the run); with ``--trace 1`` ops alternate
between traced and untraced, and the metrics are the per-layer ones from
the traced ops (``spans.py``), plus the tracing overhead.  The exit code
is 1 when an output fails verification and 2 when the program source
is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

#: An op count below which a run keeps going past ``--seconds``: a
#: median needs a few samples.
MIN_OPS = 3
#: Stop starting new ops after this long, whatever ``--seconds`` says,
#: so a run ends well inside three minutes on a slow day.
MAX_RUN_S = 120.0
#: Shortest timed sample: a unit faster than this (a census set-up, a
#: cache-hit re-submission) repeats inside one sample until the sample
#: lasts this long, and the sample reports the time per repetition.
MIN_SAMPLE_S = 0.4
#: Top-level spans must account for this share of every traced op and
#: set-up sample.
MIN_COVERAGE = 0.95
#: Workload names, metric names and units are declared once, in
#: ``BENCHMARK.json``.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in BENCHMARK["workloads"])
UNITS = {
    m["name"]: m["unit"]
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
}


def _import_program() -> None:
    """Put ``src/`` first on the path; refuse to run without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: program source not found under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"error: imported repro from {repro.__file__}\n")
        raise SystemExit(2)


def filesystem_type(path: Path) -> str:
    """The type of the filesystem holding ``path`` (from the mount
    table; ``unknown`` when it cannot be read)."""
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    best, kind = "", "unknown"
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        point = fields[1]
        inside = target == point or target.startswith(point.rstrip("/") + "/")
        if inside and len(point) > len(best):
            best, kind = point, fields[2]
    return kind


def reset_peak_rss() -> None:
    """Reset the kernel's peak-RSS mark to the current RSS."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


@dataclass
class Sample:
    """One timed sample: ``count`` repetitions of a unit of work."""

    count: int = 1
    started: float = 0.0

    def more(self) -> bool:
        """Repeat a short unit until the sample lasts MIN_SAMPLE_S."""
        return time.perf_counter() - self.started < MIN_SAMPLE_S


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Harness:
    """Timed samples of one run, split by part and by tracing."""

    def __init__(self, recorder) -> None:
        self.recorder = recorder
        self.samples: Dict[str, List[float]] = {
            "setup": [], "synth": [], "resynth": []}
        self.traced: Dict[str, List[float]] = {
            "setup": [], "synth": [], "resynth": []}
        #: Units (set-ups, syntheses, re-submissions) inside traced
        #: samples — the divisors of the per-cycle layer metrics.
        self.traced_units: Dict[str, float] = {
            "setup": 0.0, "synth": 0.0, "resynth": 0.0}

    def unit(self, traced: bool):
        @contextmanager
        def unit(part: str) -> Iterator[Sample]:
            span = (self.recorder.span(f"op.{part}", part=part)
                    if traced else nullcontext())
            with span:
                sample = Sample(started=time.perf_counter())
                yield sample
                elapsed = time.perf_counter() - sample.started
            (self.traced if traced else self.samples)[part].append(
                elapsed / sample.count)
            if traced:
                self.traced_units[part] += sample.count

        return unit


def _cache_counts(tallies: Dict[str, Dict[str, int]],
                  counts: Dict[str, Dict[str, float]]) -> None:
    for part, tally in tallies.items():
        bucket = counts.setdefault(part, {})
        for key, value in tally.items():
            bucket[f"cache_{key}"] = bucket.get(f"cache_{key}", 0.0) + value


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 toy: bool = False) -> Dict[str, object]:
    """One run of one workload; returns the result object."""
    import repro
    import spans
    import verify
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    work = WORK_ROOT / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    previous_tempdir = tempfile.tempdir
    tempfile.tempdir = str(work / "tmp")
    recorder = spans.Recorder() if trace else None
    if trace:
        spans.check_targets()
    harness = Harness(recorder)
    failures: List[str] = []
    peaks: List[float] = []
    digests: List[str] = []
    counts: Dict[str, Dict[str, float]] = {}
    cache_bytes: List[int] = []
    attempted = 0
    try:
        inputs = workload.generate(work / "inputs", seed, toy)
        fs_type = filesystem_type(work)
        setup_unit = harness.unit(trace)

        def set_up():
            """One timed set-up sample; returns the last spec and
            database it built."""
            gc.collect()
            with spans.traced(recorder) if trace else nullcontext():
                with setup_unit("setup") as sample:
                    sample.count = 0
                    while not sample.count or sample.more():
                        with (recorder.span("spec.load") if trace
                              else nullcontext()):
                            spec = repro.load_spec(inputs.spec_path)
                        database = spec.to_database()
                        sample.count += 1
            return spec, database

        spec, database = set_up()
        submit = workload.submission(spec, database)
        del database
        fact = spec.fact()
        workload.warm_up(submit, inputs, work, Harness(None).unit(False))

        window = 0.0
        run_started = time.perf_counter()
        while (window < seconds or attempted < MIN_OPS) and (
            time.perf_counter() - run_started < MAX_RUN_S
        ):
            traced_op = trace and attempted % 2 == 0
            if trace:
                recorder.op = attempted
            op_dir = work / f"op{attempted}"
            op_dir.mkdir()
            attempted += 1
            started = time.perf_counter()
            outputs = None
            gc.collect()
            reset_peak_rss()
            try:
                with spans.traced(recorder) if traced_op else nullcontext():
                    outputs, tallies = workload.op(
                        submit, inputs, op_dir, harness.unit(traced_op))
                peaks.append(peak_rss_mb())
                if traced_op:
                    _cache_counts(tallies, counts)
                    cache_bytes.append(directory_bytes(op_dir))
                digest = _digest(outputs, verify)
                if not digests:
                    checked = time.perf_counter()
                    _check_fully(outputs, inputs, fact, verify, repro)
                    started += time.perf_counter() - checked
                elif digest != digests[0]:
                    raise verify.VerificationError(
                        f"op {attempted}: digest {digest[:16]} differs from "
                        f"the first op's {digests[0][:16]}")
                digests.append(digest)
            except Exception as exc:  # an op that fails counts; go on
                failures.append(f"op {attempted}: {type(exc).__name__}: {exc}")
                if not isinstance(exc, verify.VerificationError):
                    traceback.print_exc(file=sys.stderr)
            finally:
                del outputs
                shutil.rmtree(op_dir, ignore_errors=True)
            window += time.perf_counter() - started
            # One set-up sample after every op spreads the set-up samples
            # over the whole run, as the ops' samples are.
            set_up()
    finally:
        tempfile.tempdir = previous_tempdir
        shutil.rmtree(work, ignore_errors=True)

    report = {
        "workload": name,
        "seed": seed,
        "filesystem": fs_type,
        "input_rows": inputs.rows,
        "input_csv_bytes": inputs.csv_bytes,
        "digest": digests[0] if digests else None,
        "failures": failures,
    }
    correct = not failures and attempted > 0
    if trace:
        metrics, problems = _trace_metrics(
            harness, recorder, counts, cache_bytes, inputs, spans, toy)
        correct = correct and not problems
        failures.extend(problems)
        report["trace_file"] = str(_write_trace(name, seed, recorder, report))
    else:
        samples = {
            "synth_s": harness.samples["synth"],
            "setup_s": harness.samples["setup"],
            "resynth_s": harness.samples["resynth"],
            "peak_rss_mb": peaks,
        }
        metrics = {
            key: (_median(values), UNITS[key])
            for key, values in samples.items()
        }
        correct = correct and all(samples.values())
        report["samples"] = {k: len(v) for k, v in samples.items()}
    return {
        "report": report,
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {
                key: {"value": value, "unit": unit}
                for key, (value, unit) in metrics.items()
            },
        },
    }


def _median(values: List[float]) -> float:
    """The median, or 0.0 for a run whose ops all failed (the run is
    then reported as incorrect)."""
    return statistics.median(values) if values else 0.0


def _digest(outputs, verify) -> str:
    return hashlib.sha256(
        "".join(
            f"{o.label}={verify.database_digest(o.database)};"
            for o in outputs
        ).encode()
    ).hexdigest()


def _check_fully(outputs, inputs, fact: str, verify, repro) -> None:
    by_label = {o.label: o.database for o in outputs}
    for output in outputs:
        reference = None
        if output.reference is not None:
            reference = repro.synthesize(
                repro.load_spec(output.reference)).database
        verify.check_output(
            output, inputs, fact, reference=reference,
            same_as=by_label.get(output.same_as))


def _trace_metrics(harness: Harness, recorder, counts, cache_bytes, inputs,
                   spans, toy: bool):
    """Per-layer metrics per cycle, plus the trace's own checks.

    The coverage floor holds for the benchmark's own sizes; toy-size ops
    last milliseconds, so per-call bookkeeping outside any layer is a
    visible share of them and their coverage is only reported.
    """
    units = harness.traced_units
    extra: Dict[str, float] = {}
    for part, bucket in counts.items():
        for key, value in bucket.items():
            extra[key] = extra.get(key, 0.0) + value / units[part]
    if cache_bytes:
        extra["cache_bytes"] = statistics.fmean(cache_bytes)
    layer = spans.layer_metrics(recorder, units, extra)
    per_cycle = {
        p: statistics.fmean(v) if v else 0.0
        for p, v in harness.traced.items()
    }
    untraced_synth = _median(harness.samples["synth"])
    traced_synth = _median(harness.traced["synth"])
    coverage = spans.coverage(recorder.spans) or [0.0]
    problems = []
    if not toy and min(coverage) < MIN_COVERAGE:
        problems.append(
            f"top-level spans cover only {min(coverage):.1%} of a traced "
            f"unit (need {MIN_COVERAGE:.0%})")
    metrics = {key: (value, UNITS[key]) for key, value in layer.items()}
    for key, value in (
        ("input.rows", float(sum(inputs.rows.values()))),
        ("input.csv_bytes", float(inputs.csv_bytes)),
        ("trace.cycle_s", sum(per_cycle.values())),
        ("trace.coverage", min(coverage)),
        ("trace.overhead",
         traced_synth / untraced_synth if untraced_synth else 0.0),
    ):
        metrics[key] = (value, UNITS[key])
    return metrics, problems


def _write_trace(name: str, seed: int, recorder, report) -> Path:
    """Spans of the run, written once at its end."""
    path = WORK_ROOT / "traces" / f"{name}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"report": report,
                                "spans": recorder.to_json()}))
    return path


def _print_report(outcome: Dict[str, object]) -> None:
    report, result = outcome["report"], outcome["result"]
    rows = ", ".join(f"{k}={v}" for k, v in report["input_rows"].items())
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"filesystem {report['filesystem']}")
    print(f"inputs: {rows} rows, {report['input_csv_bytes']} CSV bytes")
    samples = report.get("samples", {})
    for key, metric in result["metrics"].items():
        count = (f"  (median of {samples[key]})" if key in samples else "")
        print(f"  {key:32s} {metric['value']:.6g} {metric['unit']}{count}")
    print(f"ops attempted {result['attempted']}  failed {result['failed']}  "
          f"digest {report['digest']}")
    if "trace_file" in report:
        print(f"spans written to {report['trace_file']}")
    for failure in report["failures"]:
        print(f"FAILED {failure}")


def _run_all(args) -> int:
    """Every workload, one subprocess each; a combined summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 1,
                      "metrics": {}}
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        return _run_all(args)
    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    _print_report(outcome)
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

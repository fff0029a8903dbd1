"""Command-line interface: generate, solve and evaluate workloads.

Subcommands:

* ``generate`` — emit a Census-style workload: ``persons.csv`` (FK
  masked), ``housing.csv``, ``ground_truth.csv``, a ``constraints.txt``
  with the derived CC/DC sets and a ready-to-run ``workload.toml`` spec;
* ``solve`` — run a workload.  Either declaratively::

      repro-synth solve --spec workload.toml --out out/

  where the spec file may describe any schema shape the library handles
  (two-table, snowflake, capacity-capped edges), or with the legacy
  two-table flags (``--r1 … --r2 … --fk …``), which build the equivalent
  one-edge spec under the hood;
* ``evaluate`` — score an already-completed pair of CSVs;
* ``serve`` — run the synthesis job server: an HTTP API over async
  jobs with a dependency-keyed edge cache, so re-submitted specs
  re-solve only edited edges (:mod:`repro.service`)::

      repro-synth serve --jobs-dir jobs/ --port 8321

* ``lint`` — run repro-lint, the repo's own AST-based static-analysis
  suite (determinism, store-lifetime, pool-payload and config-drift
  checks) against a committed baseline::

      repro-synth lint                  # or: python -m repro.lint
      repro-synth lint --list-checks

* ``discover`` — mine FK denial constraints from a *completed* pair of
  CSVs (:mod:`repro.extensions.discovery`) and emit a runnable spec with
  the mined DCs inlined::

      repro-synth discover --r1 ground_truth.csv --r2 housing.csv \
          --fk hid --r1-key pid --r2-key hid --out discovered.toml
      repro-synth solve --spec discovered.toml --out out/

Constraint files hold one constraint per line, optionally grouped into
``[child.column -> parent]`` sections (see
:mod:`repro.constraints.textio`)::

    # lines starting with # are comments
    cc: |Rel == 'Owner' & Area == 'Area1000'| = 4
    dc: not(t1.Rel == 'Owner' & t2.Rel == 'Owner')
    dc: not(t1.Rel == 'Owner' & t2.Rel in {'Step child', 'Foster child'})
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

# Re-exported here for backward compatibility; the implementation moved
# to repro.constraints.textio.
from repro.constraints.textio import dump_constraints, load_constraints
from repro.core.metrics import evaluate
from repro.datagen.census import CensusConfig, generate_census
from repro.datagen.constraints_census import all_dcs, cc_family
from repro.errors import ReproError
from repro.relational.csvio import read_csv_infer, write_csv
from repro.spec import (
    SpecBuilder,
    SynthesisResult,
    SynthesisSpec,
    load_spec,
    save_spec,
    synthesize,
)

__all__ = ["main", "load_constraints", "dump_constraints"]


def _cmd_generate(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = generate_census(
        CensusConfig(
            n_households=args.households,
            n_areas=args.areas,
            n_housing_columns=args.columns,
            seed=args.seed,
        )
    )
    write_csv(data.persons_masked, out / "persons.csv")
    write_csv(data.housing, out / "housing.csv")
    write_csv(data.persons, out / "ground_truth.csv")
    ccs = cc_family(data, args.cc_kind, args.num_ccs)
    dcs = all_dcs()
    written = dump_constraints(out / "constraints.txt", ccs, dcs)

    spec = (
        SpecBuilder("census")
        .relation("persons", csv="persons.csv", key="pid")
        .relation("housing", csv="housing.csv", key="hid")
        .edge("persons", "hid", "housing", ccs=ccs, dcs=dcs)
        .fact_table("persons")
        .base_dir(out)
        .build()
    )
    save_spec(spec, out / "workload.toml")

    print(
        f"wrote {len(data.persons)} persons / {len(data.housing)} "
        f"households to {out}"
    )
    print(
        f"constraints.txt: {len(ccs)} CCs, {written} DCs "
        f"({len(dcs) - written} skipped)"
    )
    print(
        "workload.toml: run `repro-synth solve "
        f"--spec {out}/workload.toml --out <dir>`"
    )
    return 0


def _spec_from_legacy_flags(args: argparse.Namespace) -> SynthesisSpec:
    """The shim: legacy two-table flags become a one-edge spec."""
    ccs, dcs = load_constraints(Path(args.constraints))
    return (
        SpecBuilder("legacy-two-table")
        .relation("r1", csv=args.r1, key=args.r1_key or None)
        .relation("r2", csv=args.r2, key=args.r2_key)
        .edge(
            "r1",
            args.fk,
            "r2",
            ccs=ccs,
            dcs=dcs,
            capacity=args.capacity,
        )
        .fact_table("r1")
        .build()
    )


def _with_cli_options(
    spec: SynthesisSpec, args: argparse.Namespace
) -> SynthesisSpec:
    """Apply the option-override flags (``--workers``, ``--storage``,
    ``--chunk-rows``); bad values get the CLI's clean error path, naming
    the offending flag."""
    overrides = (
        ("--workers", "workers", args.workers),
        ("--storage", "storage", args.storage or None),
        ("--chunk-rows", "chunk_rows", args.chunk_rows),
    )
    for flag, knob, value in overrides:
        if value is None:
            continue
        try:
            spec = spec.with_options(**{knob: value})
        except ValueError as exc:
            raise ReproError(f"{flag}: {exc}") from None
    return spec


def _print_edge_reports(result: SynthesisResult) -> None:
    for edge in result.edges:
        errors = edge.errors
        line = (
            f"  [{edge.child}.{edge.column} -> {edge.parent}] "
            f"strategy={edge.strategy} "
            f"ccs={edge.num_ccs} dcs={edge.num_dcs}"
        )
        if errors is not None:
            line += (
                f" | CC mean {errors.mean_cc_error:.4f} "
                f"max {errors.max_cc_error:.4f} "
                f"DC {errors.dc_error:.4f}"
            )
        if edge.total_overflow:
            line += f" | overflow {edge.total_overflow}"
        line += (
            f" | +{edge.num_new_parent_tuples} parent tuples, "
            f"solve {edge.total_seconds:.3f}s"
        )
        if edge.wall_seconds:
            line += f" wall {edge.wall_seconds:.3f}s"
        if edge.cache_hit:
            line += " (cached)"
        print(line)


def _cmd_solve(args: argparse.Namespace) -> int:
    legacy_only = [
        flag
        for flag, value in (
            ("--r1", args.r1),
            ("--r2", args.r2),
            ("--fk", args.fk),
            ("--constraints", args.constraints),
            ("--r1-key", args.r1_key),
            ("--r2-key", args.r2_key),
            ("--capacity", args.capacity),
        )
        if value not in ("", None)
    ]
    if args.spec and legacy_only:
        raise ReproError(
            f"--spec and the legacy two-table flags {legacy_only} are "
            "exclusive; put solver options and capacities in the spec file"
        )
    out = Path(args.out)

    if args.spec:
        spec = load_spec(Path(args.spec))
        spec = _with_cli_options(spec, args)
        result = synthesize(spec)
        out.mkdir(parents=True, exist_ok=True)
        for name in result.database.relation_names:
            write_csv(result.relation(name), out / f"{name}.csv")
        (out / "summary.json").write_text(
            json.dumps(result.summary(), indent=2) + "\n"
        )
        print(
            f"solved spec {spec.name or Path(args.spec).stem!r}: "
            f"{len(result.edges)} FK edges from fact table {spec.fact()!r}"
        )
        _print_edge_reports(result)
        print(f"  outputs in {out} (summary.json + one CSV per relation)")
        return 0 if result.dc_error == 0.0 else 1

    missing = [
        flag
        for flag, value in (
            ("--r1", args.r1),
            ("--r2", args.r2),
            ("--fk", args.fk),
            ("--r2-key", args.r2_key),
            ("--constraints", args.constraints),
        )
        if not value
    ]
    if missing:
        raise ReproError(
            f"solve needs either --spec or the legacy flags {missing}"
        )
    spec = _with_cli_options(_spec_from_legacy_flags(args), args)
    result = synthesize(spec)
    edge = result.edges[0]
    errors = edge.errors
    out.mkdir(parents=True, exist_ok=True)
    write_csv(result.relation("r1"), out / "r1_hat.csv")
    write_csv(result.relation("r2"), out / "r2_hat.csv")
    print(
        f"solved: {len(result.relation('r1'))} rows, "
        f"{edge.num_ccs} CCs, {edge.num_dcs} DCs"
    )
    print(
        f"  CC error median {errors.median_cc_error:.4f} "
        f"mean {errors.mean_cc_error:.4f} max {errors.max_cc_error:.4f}"
    )
    print(f"  DC error {errors.dc_error:.4f}")
    print(
        f"  fresh R2 tuples {edge.num_new_parent_tuples}; "
        f"phase I {edge.phase1_seconds:.3f}s, "
        f"phase II {edge.phase2_seconds:.3f}s"
    )
    print(f"  outputs in {out}")
    return 0 if errors.dc_error == 0.0 else 1


def _cmd_discover(args: argparse.Namespace) -> int:
    from repro.extensions.discovery import DiscoveryConfig
    from repro.spec.discover import discover_spec

    out = Path(args.out)
    r1_path = Path(args.r1).resolve()
    r2_path = Path(args.r2).resolve()
    r1 = read_csv_infer(r1_path, key=args.r1_key or None)
    r2 = read_csv_infer(r2_path, key=args.r2_key)
    config = DiscoveryConfig(
        rel_attr=args.rel_attr,
        age_attr=args.age_attr,
        anchor_rel=args.anchor,
        slack=args.slack,
        min_support=args.min_support,
    )
    capacity = "observed" if args.observed_capacity else None
    spec = discover_spec(
        r1,
        r2,
        fk_column=args.fk,
        config=config,
        name=args.name,
        r1_name=args.r1_name,
        r2_name=args.r2_name,
        # The spec file references the CSVs relative to its own directory
        # so the workload stays runnable from anywhere.
        csv_paths={
            args.r1_name: _relative_to(r1_path, out.parent.resolve()),
            args.r2_name: _relative_to(r2_path, out.parent.resolve()),
        },
        strategy=args.strategy or None,
        capacity=capacity,
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    save_spec(spec, out)
    edge = spec.edges[0]
    print(
        f"discovered {len(edge.dcs)} DCs from "
        f"{len(r1)} {args.r1_name} rows ({args.fk} -> {args.r2_name})"
    )
    for dc in edge.dcs[:5]:
        print(f"  {dc}")
    if len(edge.dcs) > 5:
        print(f"  ... and {len(edge.dcs) - 5} more")
    if edge.capacity is not None:
        print(f"observed capacity: {edge.capacity} rows per key")
    print(f"spec: run `repro-synth solve --spec {out} --out <dir>`")
    return 0


def _relative_to(path: Path, base: Path) -> str:
    """``path`` relative to ``base`` when possible, else absolute."""
    try:
        return os.path.relpath(path, base)
    except ValueError:  # different drives (Windows)
        return str(path)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import JobManager, ServiceServer

    manager = JobManager(
        Path(args.jobs_dir),
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        worker_budget=args.worker_budget,
    )
    resumed = manager.resume_pending()
    if resumed:
        print(f"resumed {len(resumed)} interrupted job(s): "
              + ", ".join(resumed))
    server = ServiceServer(manager, host=args.host, port=args.port)
    print(
        f"repro-synth service on http://{args.host}:{args.port or '?'} "
        f"(jobs in {manager.jobs_dir}, cache "
        f"{manager.cache.directory}, worker budget "
        f"{args.worker_budget}) — Ctrl-C to stop"
    )
    try:
        server.run_forever()
    finally:
        manager.close()
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    r1_hat = read_csv_infer(Path(args.r1), key=args.r1_key or None)
    r2_hat = read_csv_infer(Path(args.r2), key=args.r2_key)
    ccs, dcs = load_constraints(Path(args.constraints))
    report = evaluate(r1_hat, r2_hat, args.fk, ccs, dcs)
    for name, value in report.summary().items():
        print(f"{name}: {value:.4f}")
    print(f"exact_ccs: {report.num_exact_ccs}/{len(ccs)}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint

    return run_lint(args)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from repro.fuzz import FuzzConfig, run_fuzz

    config = FuzzConfig(
        seed=args.seed,
        profile=args.profile,
        budget_seconds=args.budget_seconds,
        max_specs=args.max_specs,
        max_cells=args.max_cells,
        chaos_edge=args.chaos_edge,
        check_faults=not args.no_faults,
        minimize=not args.no_minimize,
        out_dir=Path(args.out_dir) if args.out_dir else None,
    )

    def log(line: str) -> None:
        failed = not (line.endswith(" ok") or line.endswith(" infeasible"))
        if failed or args.verbose:
            print(line)

    report = run_fuzz(config, log=log)
    outcomes = report["outcomes"]
    counts = ", ".join(
        f"{name}={outcomes[name]}" for name in sorted(outcomes)
    ) or "none"
    print(
        f"fuzz: {report['specs_run']} spec(s) in {report['wall_s']}s "
        f"({counts})"
    )
    for entry in report["failures"]:
        print(f"  failure seed={entry['seed']} check={entry['check']}")
        print(f"    replay: {entry['replay']}")
        minimized = entry.get("minimized_toml")
        if minimized:
            print(f"    minimized: {minimized}")
    if args.report_json:
        path = Path(args.report_json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2, default=str))
        print(f"report: {path}")
    return 1 if report["failures"] else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-synth",
        description="Synthesize linked data under cardinality and "
        "integrity constraints (SIGMOD 2021 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a census-style workload")
    gen.add_argument("--out", required=True)
    gen.add_argument("--households", type=int, default=200)
    gen.add_argument("--areas", type=int, default=8)
    gen.add_argument("--columns", type=int, default=2,
                     choices=(2, 4, 6, 8, 10))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--num-ccs", type=int, default=60, dest="num_ccs")
    gen.add_argument("--cc-kind", choices=("good", "bad"), default="good",
                     dest="cc_kind")
    gen.set_defaults(func=_cmd_generate)

    solve = sub.add_parser(
        "solve",
        help="run a workload (spec file or legacy two-table flags)",
    )
    solve.add_argument("--spec", default="",
                       help="TOML/JSON workload spec file")
    solve.add_argument("--out", required=True)
    solve.add_argument("--r1", default="")
    solve.add_argument("--r2", default="")
    solve.add_argument("--fk", default="")
    solve.add_argument("--constraints", default="")
    solve.add_argument("--r1-key", default="", dest="r1_key")
    solve.add_argument("--r2-key", default="", dest="r2_key")
    solve.add_argument("--capacity", type=int, default=None,
                       help="cap rows per FK key (capacity strategy)")
    solve.add_argument("--workers", type=int, default=None,
                       help="solve independent snowflake FK edges on a "
                       "process pool of this size (overrides the spec's "
                       "workers option; output is identical either way)")
    solve.add_argument("--storage", choices=("numpy", "mmap"), default="",
                       help="relation storage backend: in-RAM numpy "
                       "(default) or chunked on-disk column stores "
                       "(out-of-core; identical output)")
    solve.add_argument("--chunk-rows", type=int, default=None,
                       dest="chunk_rows",
                       help="rows per chunk for --storage mmap")
    solve.set_defaults(func=_cmd_solve)

    disc = sub.add_parser(
        "discover",
        help="mine FK DCs from a completed database into a runnable spec",
    )
    disc.add_argument("--r1", required=True,
                      help="completed child CSV (must contain the FK)")
    disc.add_argument("--r2", required=True, help="parent CSV")
    disc.add_argument("--fk", required=True, help="FK column in --r1")
    disc.add_argument("--r1-key", default="", dest="r1_key")
    disc.add_argument("--r2-key", required=True, dest="r2_key")
    disc.add_argument("--out", required=True,
                      help="spec file to write (.toml or .json)")
    disc.add_argument("--name", default="discovered")
    disc.add_argument("--r1-name", default="r1", dest="r1_name")
    disc.add_argument("--r2-name", default="r2", dest="r2_name")
    disc.add_argument("--rel-attr", default="Rel", dest="rel_attr")
    disc.add_argument("--age-attr", default="Age", dest="age_attr")
    disc.add_argument("--anchor", default="Owner",
                      help="anchor relationship for age windows")
    disc.add_argument("--slack", type=int, default=0,
                      help="widen each mined age window by this margin")
    disc.add_argument("--min-support", type=int, default=3,
                      dest="min_support")
    disc.add_argument("--strategy", default="",
                      help="Phase-II strategy to pin on the emitted edge")
    disc.add_argument("--observed-capacity", action="store_true",
                      dest="observed_capacity",
                      help="cap keys at the max usage observed in --r1")
    disc.set_defaults(func=_cmd_discover)

    serve = sub.add_parser(
        "serve",
        help="run the synthesis job server (HTTP API + edge cache)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321,
                       help="0 binds an ephemeral port")
    serve.add_argument("--jobs-dir", required=True, dest="jobs_dir",
                       help="durable job state (specs, events, results)")
    serve.add_argument("--cache-dir", default="", dest="cache_dir",
                       help="edge-result cache / checkpoint directory "
                       "(default: <jobs-dir>/cache)")
    serve.add_argument("--worker-budget", type=int, default=2,
                       dest="worker_budget",
                       help="max jobs synthesizing concurrently")
    serve.set_defaults(func=_cmd_serve)

    fuzz = sub.add_parser(
        "fuzz",
        help="fuzz adversarial workloads through the differential oracle",
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="base seed; iteration i fuzzes spec seed+i")
    fuzz.add_argument("--profile", default="mixed",
                      help="workload profile (mixed, deep, wide, skewed, "
                      "infeasible, tiny, census)")
    fuzz.add_argument("--budget-seconds", type=float, default=60.0,
                      dest="budget_seconds",
                      help="stop starting new specs after this long")
    fuzz.add_argument("--max-specs", type=int, default=None,
                      dest="max_specs",
                      help="hard cap on iterations (default: budget-bound)")
    fuzz.add_argument("--max-cells", type=int, default=4, dest="max_cells",
                      help="storage×workers cells per spec "
                      "(baseline included)")
    fuzz.add_argument("--chaos-edge", type=int, default=None,
                      dest="chaos_edge",
                      help="corrupt this edge's FK assignment in "
                      "non-baseline cells (oracle self-test: every spec "
                      "must diverge)")
    fuzz.add_argument("--no-faults", action="store_true", dest="no_faults",
                      help="skip the rollback/resume fault-injection legs")
    fuzz.add_argument("--no-minimize", action="store_true",
                      dest="no_minimize",
                      help="skip delta-debugging failing specs")
    fuzz.add_argument("--out-dir", default="", dest="out_dir",
                      help="write failing + minimized spec TOMLs here")
    fuzz.add_argument("--report-json", default="", dest="report_json",
                      help="write the machine-readable run report here")
    fuzz.add_argument("--verbose", action="store_true",
                      help="log every iteration, not just failures")
    fuzz.set_defaults(func=_cmd_fuzz)

    from repro.lint.cli import build_parser as _build_lint_parser

    lint = sub.add_parser(
        "lint",
        help="run repro-lint, the repo's own static-analysis suite "
        "(determinism, store lifetime, pool payloads, "
        "config drift); also available as `python -m repro.lint`",
    )
    _build_lint_parser(lint)
    lint.set_defaults(func=_cmd_lint)

    ev = sub.add_parser("evaluate", help="score a completed database")
    ev.add_argument("--r1", required=True)
    ev.add_argument("--r2", required=True)
    ev.add_argument("--fk", required=True)
    ev.add_argument("--constraints", required=True)
    ev.add_argument("--r1-key", default="", dest="r1_key")
    ev.add_argument("--r2-key", required=True, dest="r2_key")
    ev.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

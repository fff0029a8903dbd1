"""Self-test of the benchmark at toy sizes (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that every workload runs and verifies, that traced and
untraced runs produce the same output digest and every per-layer metric
``BENCHMARK.json`` names, that an injected corruption — one FK value
moved into a conflicting group, or pointed at a missing key — counts as
a failed op, that a missing wrapper target fails loudly, and that the
layer map in ``layers.py`` covers exactly the benchmark's metrics.
Exit code 0 means every check passed.
"""

from __future__ import annotations

import sys
from typing import Callable, List

import run

SEED = 3


def _move_into_conflict(database) -> None:
    """Move one child row into an FK group where it violates a DC."""
    from repro.datagen.constraints_census import all_dcs

    dcs = all_dcs()
    persons = database.relation("persons")
    fk = persons.column("hid").tolist()
    attrs = sorted(set().union(*(dc.attributes for dc in dcs)))
    rows = [{a: persons.column(a)[i] for a in attrs} for i in range(len(fk))]
    for i, row in enumerate(rows):
        for j, other in enumerate(rows):
            if fk[j] != fk[i] and any(dc.violates([row, other]) for dc in dcs):
                fk[i] = fk[j]
                _replace_fk(database, "persons", "hid", fk)
                return
    raise RuntimeError("no conflicting group found to move a row into")


def _point_at_missing_key(database) -> None:
    """Point one FK value at a key its parent does not have."""
    fk = database.foreign_keys[0]
    keys = database.relation(fk.parent).column(
        database.relation(fk.parent).schema.key)
    values = database.relation(fk.child).column(fk.column).tolist()
    values[0] = int(max(keys)) + 1
    _replace_fk(database, fk.child, fk.column, values)


def _replace_fk(database, child: str, column: str, values) -> None:
    relation = database.relation(child)
    spec = relation.schema.spec(column)
    database.replace_relation(
        child, relation.drop_column(column).with_column(spec, values))


def _corrupted_run(name: str, corrupt: Callable) -> dict:
    """A toy run whose every op has its first output corrupted."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    original = workload.op

    def op(*args, **kwargs):
        outputs, tallies = original(*args, **kwargs)
        corrupt(outputs[0].database)
        return outputs, tallies

    workload.op = op
    try:
        return run.run_workload(name, SEED, 0, False, toy=True)
    finally:
        del workload.op


def main() -> int:
    run._import_program()
    import spans
    from layers import LAYERS

    problems: List[str] = []

    def expect(ok: bool, message: str) -> None:
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            problems.append(message)

    end_to_end = {m["name"] for m in run.BENCHMARK["end_to_end"]}
    per_layer = {m["name"] for m in run.BENCHMARK["per_layer"]}

    for name in run.WORKLOAD_NAMES:
        plain = run.run_workload(name, SEED, 0, False, toy=True)
        traced = run.run_workload(name, SEED, 0, True, toy=True)
        for label, outcome in (("untraced", plain), ("traced", traced)):
            result = outcome["result"]
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} {label}: {result['attempted']} ops verified "
                   f"{outcome['report']['failures']}")
        expect(set(plain["result"]["metrics"]) == end_to_end,
               f"{name}: untraced run reports every end-to-end metric")
        expect(set(traced["result"]["metrics"]) == per_layer,
               f"{name}: traced run reports every per-layer metric")
        coverage = traced["result"]["metrics"]["trace.coverage"]["value"]
        expect(plain["report"]["digest"] == traced["report"]["digest"],
               f"{name}: traced output digest equals the untraced one "
               f"(toy-size span coverage {coverage:.1%})")

    for name, corrupt, reason in (
        ("census_alldc", _move_into_conflict, "violated by rows"),
        ("retail_edit", _point_at_missing_key, "name no parent key"),
    ):
        outcome = _corrupted_run(name, corrupt)
        result = outcome["result"]
        failures = outcome["report"]["failures"]
        expect(not result["correct"] and result["failed"] >= 1
               and reason in failures[0],
               f"{name}: injected corruption fails the op ({failures[:1]})")

    from repro.phase2 import fk_assignment

    original = fk_assignment.coloring_lf
    del fk_assignment.coloring_lf
    try:
        spans.check_targets()
        expect(False, "a missing wrapper target fails loudly")
    except spans.MissingTarget as exc:
        expect(True, f"a missing wrapper target fails loudly ({exc})")
    finally:
        fk_assignment.coloring_lf = original

    mapped = {m for layer in LAYERS.values() for m in layer["metrics"]}
    expect(mapped == per_layer,
           "layers.py maps exactly the per-layer metrics of BENCHMARK.json "
           f"(unmapped {sorted(per_layer - mapped)}, "
           f"unknown {sorted(mapped - per_layer)})")

    print("self-test " + ("passed" if not problems else
                          f"FAILED: {len(problems)} check(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

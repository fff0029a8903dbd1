"""Adversarial workload fuzzing and differential testing.

The regression net over every execution mode the library ships:

* :mod:`repro.fuzz.specgen` — a seeded generator of adversarial
  :class:`~repro.spec.model.SynthesisSpec` workloads (deep diamond
  ladders, 8–16-arm wide stars, Zipf-skewed fan-outs, near-infeasible
  constraint combinations, empty/singleton relations, randomly mixed
  per-edge strategies and solver overrides), byte-reproducible from
  ``(seed, profile)``;
* :mod:`repro.fuzz.oracle` — the differential oracle: one spec runs
  through ``synthesize()`` across sampled ``{storage} × {workers}``
  cells, every cell must be ``Database.identical_to`` the
  baseline, fidelity must be exact, and injected solver failures must
  roll back transactionally and resume from service checkpoints;
* :mod:`repro.fuzz.faults` — deterministic fail-on-Nth-edge solver
  fault injection;
* :mod:`repro.fuzz.minimize` — a delta-debugging shrinker producing a
  minimal repro spec for any failure the oracle finds;
* :mod:`repro.fuzz.runner` — the budgeted fuzz loop behind the
  ``repro-synth fuzz`` CLI verb and the nightly CI lane.
"""

from repro.fuzz.faults import InjectedFault, chaos_edge, failing_solver
from repro.fuzz.minimize import MinimizeResult, minimize_spec
from repro.fuzz.oracle import (
    OracleCell,
    OracleReport,
    classify_cells,
    run_oracle,
    sample_cells,
)
from repro.fuzz.runner import FuzzConfig, replay_failure, run_fuzz
from repro.fuzz.specgen import PROFILES, FuzzProfile, generate_spec

__all__ = [
    "FuzzConfig",
    "FuzzProfile",
    "InjectedFault",
    "MinimizeResult",
    "OracleCell",
    "OracleReport",
    "PROFILES",
    "chaos_edge",
    "classify_cells",
    "failing_solver",
    "generate_spec",
    "minimize_spec",
    "replay_failure",
    "run_fuzz",
    "run_oracle",
    "sample_cells",
]

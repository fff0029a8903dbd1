"""Extensions beyond the paper's core: the future-work items it names."""

from repro.extensions.capacity import (
    CapacityResult,
    fk_usage_histogram,
    solve_with_capacity,
)
from repro.extensions.discovery import (
    DiscoveryConfig,
    discover_fk_dcs,
    discovered_windows,
)
from repro.extensions.quota_coloring import (
    quota_coloring_phase2,
    resolve_quota,
)
from repro.extensions.soft_capacity import soft_capacity_phase2

__all__ = [
    "CapacityResult",
    "DiscoveryConfig",
    "discover_fk_dcs",
    "discovered_windows",
    "fk_usage_histogram",
    "quota_coloring_phase2",
    "resolve_quota",
    "soft_capacity_phase2",
    "solve_with_capacity",
]

"""Extensions beyond the paper's core: the future-work items it names."""

from repro.extensions.capacity import fk_usage_histogram
from repro.extensions.discovery import (
    DiscoveryConfig,
    discover_fk_dcs,
    discovered_windows,
)

__all__ = [
    "DiscoveryConfig",
    "discover_fk_dcs",
    "discovered_windows",
    "fk_usage_histogram",
]

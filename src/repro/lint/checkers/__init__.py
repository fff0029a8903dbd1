"""Importing this package registers every built-in checker."""

from __future__ import annotations

from repro.lint.checkers import (  # noqa: F401  (registration)
    config_drift,
    determinism,
    pool_payload,
    store_lifetime,
)

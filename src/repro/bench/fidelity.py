"""Distribution fidelity between two join views.

Beyond the paper's CC/DC error measures, downstream users of synthetic
data care whether *unconstrained* statistics survive synthesis.  This
module compares marginal distributions between a synthesized view and a
reference view (typically the ground truth) via total variation distance:

``TVD(P, Q) = ½ Σ_v |P(v) − Q(v)|`` over the distinct value combinations
``v`` of the chosen attributes.  0 means identical marginals; 1 means
disjoint support.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SchemaError
from repro.relational.ordering import tuple_sort_key
from repro.relational.relation import Relation

__all__ = ["marginal_tvd", "max_marginal_tvd", "fidelity_report"]


def marginal_tvd(
    view_a: Relation, view_b: Relation, attrs: Sequence[str]
) -> float:
    """Total variation distance between two marginal distributions."""
    for attr in attrs:
        if attr not in view_a.schema or attr not in view_b.schema:
            raise SchemaError(f"both views need column {attr!r}")
    if len(view_a) == 0 or len(view_b) == 0:
        return 1.0 if len(view_a) != len(view_b) else 0.0

    counts_a = view_a.group_counts(list(attrs))
    counts_b = view_b.group_counts(list(attrs))
    # Canonically ordered: float summation below must not vary with the
    # sets' hash order.
    support = sorted(set(counts_a) | set(counts_b), key=tuple_sort_key)
    freq_a = np.fromiter(
        (counts_a.get(key, 0) for key in support),
        dtype=np.float64,
        count=len(support),
    )
    freq_b = np.fromiter(
        (counts_b.get(key, 0) for key in support),
        dtype=np.float64,
        count=len(support),
    )
    pa = freq_a / freq_a.sum()
    pb = freq_b / freq_b.sum()
    return float(np.abs(pa - pb).sum() / 2)


def max_marginal_tvd(
    view_a: Relation,
    view_b: Relation,
    attrs: Optional[Sequence[str]] = None,
) -> float:
    """The worst single-attribute marginal TVD over ``attrs``.

    ``attrs`` defaults to every column the two views share.  This is the
    fuzzing oracle's fidelity bound: synthesis assigns FK columns but
    must leave every pre-existing column untouched, so the shared
    marginals of input and output must match *exactly* (TVD 0).
    """
    if attrs is None:
        attrs = [
            name for name in view_a.schema.names if name in view_b.schema
        ]
    if not attrs:
        return 0.0
    return max(marginal_tvd(view_a, view_b, [attr]) for attr in attrs)


def fidelity_report(
    synthesized: Relation,
    reference: Relation,
    marginals: Sequence[Sequence[str]],
) -> Dict[Tuple[str, ...], float]:
    """TVD per requested marginal, e.g. ``[["Rel"], ["Rel", "Area"]]``."""
    return {
        tuple(attrs): marginal_tvd(synthesized, reference, attrs)
        for attrs in marginals
    }

"""A retail snowflake workload for the multi-table extension.

Section 5.2's snowflake extension is only exercised by the paper through
Example 5.6; this module provides a full workload for it: a classic
star-with-one-extra-hop schema

* ``Orders(oid, Quantity, Channel, customer_id, product_id)`` — the fact
  table, both FK columns missing;
* ``Customers(cid, Segment, Region)``;
* ``Products(prid, Category, Price, supplier_id)`` — ``supplier_id``
  missing (the snowflake hop);
* ``Suppliers(sid, Country)``.

The generator draws a ground-truth assignment, so edge constraints with
true-count targets are consistent by construction, mirroring the census
generator's design.  ``retail_constraints`` derives a CC per
(fact-edge × dimension value) plus DCs for the supplier hop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.dc import DenialConstraint, UnaryAtom
from repro.core.snowflake import EdgeConstraints
from repro.errors import ReproError
from repro.relational import join
from repro.relational.database import Database
from repro.relational.predicate import Predicate, ValueSet
from repro.relational.relation import Relation
from repro.relational.schema import ColumnSpec, Schema
from repro.relational.types import Dtype

__all__ = [
    "RetailConfig",
    "RetailData",
    "generate_retail",
    "retail_constraints",
]

_SEGMENTS = ("Consumer", "Corporate", "SMB")
_REGIONS = ("North", "South", "East", "West")
_CATEGORIES = ("Grocery", "Electronics", "Apparel", "Home")
_CHANNELS = ("Web", "Store")
_COUNTRIES = ("US", "DE", "CN")


@dataclass(frozen=True)
class RetailConfig:
    n_orders: int = 300
    n_customers: int = 60
    n_products: int = 40
    n_suppliers: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.n_orders, self.n_customers, self.n_products,
               self.n_suppliers) < 1:
            raise ReproError("all sizes must be positive")


@dataclass
class RetailData:
    """The database (FKs masked) plus the ground-truth assignments."""

    database: Database
    truth_customer: List[int]
    truth_product: List[int]
    truth_supplier: List[int]
    config: RetailConfig

    def ground_truth_fact_view(self) -> Relation:
        """Orders ⋈ Customers ⋈ Products under the ground truth."""
        orders = self.database.relation("Orders")
        orders = orders.with_column(
            ColumnSpec("customer_id", Dtype.INT), self.truth_customer
        ).with_column(
            ColumnSpec("product_id", Dtype.INT), self.truth_product
        )
        products = self.database.relation("Products").with_column(
            ColumnSpec("supplier_id", Dtype.INT), self.truth_supplier
        )
        view = join.fk_join(
            orders, self.database.relation("Customers"), "customer_id"
        )
        view = join.fk_join(
            view, products.drop_column("supplier_id"), "product_id"
        )
        return view


def generate_retail(config: Optional[RetailConfig] = None) -> RetailData:
    """Generate one deterministic retail snowflake instance."""
    config = config or RetailConfig()
    rng = random.Random(config.seed)

    customers = Relation.from_rows(
        Schema(
            [ColumnSpec("cid", Dtype.INT), ColumnSpec("Segment", Dtype.STR),
             ColumnSpec("Region", Dtype.STR)],
            key="cid",
        ),
        [
            (cid, rng.choice(_SEGMENTS), rng.choice(_REGIONS))
            for cid in range(1, config.n_customers + 1)
        ],
    )
    suppliers = Relation.from_rows(
        Schema(
            [ColumnSpec("sid", Dtype.INT), ColumnSpec("Country", Dtype.STR)],
            key="sid",
        ),
        [
            (sid, rng.choice(_COUNTRIES))
            for sid in range(1, config.n_suppliers + 1)
        ],
    )
    products = Relation.from_rows(
        Schema(
            [ColumnSpec("prid", Dtype.INT), ColumnSpec("Category", Dtype.STR),
             ColumnSpec("Price", Dtype.INT)],
            key="prid",
        ),
        [
            (prid, rng.choice(_CATEGORIES), rng.randint(1, 500))
            for prid in range(1, config.n_products + 1)
        ],
    )
    orders = Relation.from_rows(
        Schema(
            [ColumnSpec("oid", Dtype.INT), ColumnSpec("Quantity", Dtype.INT),
             ColumnSpec("Channel", Dtype.STR)],
            key="oid",
        ),
        [
            (oid, rng.randint(1, 9), rng.choice(_CHANNELS))
            for oid in range(1, config.n_orders + 1)
        ],
    )

    truth_customer = [
        rng.randint(1, config.n_customers) for _ in range(config.n_orders)
    ]
    truth_product = [
        rng.randint(1, config.n_products) for _ in range(config.n_orders)
    ]
    truth_supplier = [
        rng.randint(1, config.n_suppliers) for _ in range(config.n_products)
    ]

    db = Database()
    db.add_relation("Orders", orders)
    db.add_relation("Customers", customers)
    db.add_relation("Products", products)
    db.add_relation("Suppliers", suppliers)
    db.add_foreign_key("Orders", "customer_id", "Customers")
    db.add_foreign_key("Orders", "product_id", "Products")
    db.add_foreign_key("Products", "supplier_id", "Suppliers")

    return RetailData(
        database=db,
        truth_customer=truth_customer,
        truth_product=truth_product,
        truth_supplier=truth_supplier,
        config=config,
    )


def retail_constraints(
    data: RetailData,
) -> Dict[Tuple[str, str], EdgeConstraints]:
    """Consistent edge constraints derived from the ground truth.

    * ``Orders.customer_id`` — one CC per Region counting web orders,
      plus one CC per Segment pinning its total.  The segment totals make
      the *next* edge's targets feasible: step-2 CCs over
      ``Segment × Category`` are computed from the ground truth, and any
      step-1 assignment that drifts on segment counts would render them
      unreachable (a consistency requirement of the snowflake extension
      the paper does not discuss — see EXPERIMENTS.md);
    * ``Orders.product_id`` — one CC per Category over the accumulated
      ``Orders ⋈ Customers ⋈ Products`` view (the multi-hop capability);
    * ``Products.supplier_id`` — DCs keeping each supplier's catalogue
      single-category for Grocery vs Electronics.
    """
    truth = data.ground_truth_fact_view()

    customer_ccs: List[CardinalityConstraint] = []
    for region in _REGIONS:
        predicate = Predicate(
            {"Channel": ValueSet(["Web"]), "Region": ValueSet([region])}
        )
        customer_ccs.append(
            CardinalityConstraint(
                predicate, truth.count(predicate), name=f"web_{region}"
            )
        )
    for segment in _SEGMENTS:
        predicate = Predicate({"Segment": ValueSet([segment])})
        customer_ccs.append(
            CardinalityConstraint(
                predicate, truth.count(predicate), name=f"segment_{segment}"
            )
        )

    product_ccs: List[CardinalityConstraint] = []
    for category in _CATEGORIES:
        predicate = Predicate(
            {
                "Segment": ValueSet(["Consumer"]),
                "Category": ValueSet([category]),
            }
        )
        product_ccs.append(
            CardinalityConstraint(
                predicate, truth.count(predicate),
                name=f"consumer_{category}",
            )
        )

    supplier_dcs = [
        DenialConstraint(
            [
                UnaryAtom(0, "Category", "==", "Grocery"),
                UnaryAtom(1, "Category", "==", "Electronics"),
            ],
            name="supplier_category_purity",
        )
    ]

    return {
        ("Orders", "customer_id"): EdgeConstraints(ccs=customer_ccs),
        ("Orders", "product_id"): EdgeConstraints(ccs=product_ccs),
        ("Products", "supplier_id"): EdgeConstraints(dcs=supplier_dcs),
    }

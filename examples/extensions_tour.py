"""Tour of the extensions beyond the paper's core algorithms.

1. **Disjunctive CCs** — the extension Section 2 hints at ("our
   algorithms can be extended to conditions that contain disjunction").
2. **Capacity constraints** — future-work item 1: bounding how many rows
   may share one foreign key (household size caps).  Declared on the
   spec's FK edge, which routes Phase II to the ``"capacity"`` strategy
   — with its **soft** sibling (``"soft_capacity"``: overflow
   allowed but minimised and reported) and **quota coloring**
   (``"quota_coloring"``: per-combo caps) alongside.
3. **DC discovery** — mining the Table 4-style constraints back out of a
   completed database, and ``repro.discover_spec`` closing the loop into
   a runnable spec.
4. **Distribution fidelity** — TVD between synthesized and ground-truth
   marginals, beyond the paper's CC/DC error measures.

Every solve goes through the one ``repro.synthesize`` front door.

Run:  python examples/extensions_tour.py
"""

import repro
from repro.bench.fidelity import fidelity_report
from repro.core.metrics import dc_error
from repro.datagen import CensusConfig, cc_family, generate_census, good_dcs
from repro.extensions import DiscoveryConfig, discover_fk_dcs
from repro.extensions.capacity import fk_usage_histogram
from repro.relational.join import fk_join


def census_spec(name, data, ccs=(), dcs=(), capacity=None,
                strategy=None, options=None):
    return (
        repro.SpecBuilder(name)
        .relation("persons", data=data.persons_masked, key="pid")
        .relation("housing", data=data.housing, key="hid")
        .edge("persons", "hid", "housing",
              ccs=list(ccs), dcs=list(dcs), capacity=capacity,
              strategy=strategy, options=options)
        .build()
    )


def main() -> None:
    data = generate_census(CensusConfig(n_households=250, n_areas=8, seed=13))
    dcs = good_dcs()
    areas = sorted({row["Area"] for row in data.housing.iter_rows()})

    # ------------------------------------------------------------------
    # 1. A disjunctive CC: children OR seniors, in either of two areas.
    # ------------------------------------------------------------------
    truth = data.ground_truth_join()
    dnf = repro.parse_cc(
        f"|Age in [0, 12] & Area == '{areas[0]}' "
        f"or Age in [65, 114] & Area == '{areas[1]}'| = 0"
    )
    dnf = dnf.with_target(dnf.count_in(truth))
    result = repro.synthesize(census_spec("dnf", data, ccs=[dnf], dcs=dcs))
    view = fk_join(result.relation("persons"), result.relation("housing"),
                   "hid")
    print(
        f"1. disjunctive CC target {dnf.target}: achieved "
        f"{dnf.count_in(view)} "
        f"(error {result.edges[0].errors.per_cc[0]:.3f})"
    )

    # ------------------------------------------------------------------
    # 2. Capacity: no household may exceed 5 members.  The edge-level
    #    cap dispatches Phase II to the "capacity" strategy.
    # ------------------------------------------------------------------
    capped = repro.synthesize(
        census_spec("capacity", data, dcs=dcs, capacity=5)
    )
    usage = fk_usage_histogram(capped.relation("persons"), "hid")
    print(
        f"2. capacity 5: max household size {max(usage.values())}, "
        f"DC error {capped.dc_error}, "
        f"{capped.edges[0].num_new_parent_tuples} fresh households "
        f"(strategy={capped.edges[0].strategy})"
    )

    # ------------------------------------------------------------------
    # 2b. Soft capacity: the cap becomes a penalised objective — no
    #     fresh households are minted; the realised overflow is reported.
    # ------------------------------------------------------------------
    soft = repro.synthesize(
        census_spec("soft", data, dcs=dcs,
                    strategy="soft_capacity", options={"max_per_key": 2})
    )
    print(
        f"2b. soft capacity 2: total overflow "
        f"{soft.edges[0].total_overflow}, "
        f"{soft.edges[0].num_new_parent_tuples} fresh households, "
        f"DC error {soft.dc_error}"
    )

    # ------------------------------------------------------------------
    # 2c. Quota coloring: per-combo caps — rented homes host at most 3.
    # ------------------------------------------------------------------
    tenure = sorted({str(v) for v in data.housing.column("Tenure")})[0]
    quota = repro.synthesize(
        census_spec(
            "quota", data, dcs=dcs, strategy="quota_coloring",
            options={"quotas": [{"match": {"Tenure": tenure}, "quota": 3}]},
        )
    )
    print(
        f"2c. quota 3 on Tenure == {tenure!r}: DC error {quota.dc_error}, "
        f"{quota.edges[0].num_new_parent_tuples} fresh households"
    )

    # ------------------------------------------------------------------
    # 3. Discovery: mine FK DCs back out of the ground truth, then close
    #    the loop — the mined constraints become a runnable spec.
    # ------------------------------------------------------------------
    mined = discover_fk_dcs(
        data.persons, "hid", DiscoveryConfig(min_support=3)
    )
    print(
        f"3. discovery: mined {len(mined)} DCs from the ground truth; "
        f"all hold (DC error {dc_error(data.persons, 'hid', mined)})"
    )
    for dc in mined[:3]:
        print(f"   e.g. {dc}")
    discovered = repro.discover_spec(
        data.persons, data.housing, fk_column="hid",
        config=DiscoveryConfig(min_support=3, slack=2),
    )
    resynthesized = repro.synthesize(discovered)
    print(
        f"   discover_spec: {len(discovered.edges[0].dcs)} mined DCs "
        f"inlined; re-synthesis DC error {resynthesized.dc_error}"
    )

    # ------------------------------------------------------------------
    # 4. Fidelity: constrained synthesis preserves joint marginals.
    # ------------------------------------------------------------------
    ccs = cc_family(data, "good", 80)
    constrained = repro.synthesize(
        census_spec("fidelity", data, ccs=ccs, dcs=dcs)
    )
    synthesized_view = fk_join(
        constrained.relation("persons"), constrained.relation("housing"),
        "hid",
    )
    report = fidelity_report(
        synthesized_view, truth, [["Rel"], ["Area"], ["Rel", "Area"]]
    )
    print("4. fidelity (TVD vs ground truth):")
    for attrs, tvd in report.items():
        print(f"   {'×'.join(attrs):<10} {tvd:.4f}")


if __name__ == "__main__":
    main()

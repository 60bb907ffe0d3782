"""Per-layer metrics of the traced run and the predictions they test.

PREDICTIONS is the table written before any optimisation: which layer
metrics should move which end-to-end metric, on which workload, and where the
same layers should barely show.  It is kept as written; README.md lists the
shares measured on the seed, where two of its predictions fail (the family
row holds about a quarter of self time on level, marked "little", and the
arith/orders/check_* row about 2% on the workloads marked "on").  `per_layer_metrics` turns a trace summary
into the metrics BENCHMARK.json lists under `per_layer`.
"""

from __future__ import annotations

from tracer import LAYERS

PREDICTIONS = [
    {
        "metrics": [
            "actions.constructible_family.calls", "actions.constructible_family.self_s",
            "actions.exactness.self_s",
            "lattices.intersect.calls", "lattices.intersect.self_s",
            "lattices.image.calls", "lattices.image.self_s",
            "lattices.preimage.calls", "lattices.preimage.self_s",
            "lattices.Lattice.calls", "matrices.hnf.calls", "matrices.hnf.self_s",
            "matrices.Matrix.calls",
        ],
        "moves": ["docs_per_s", "latency_p90_s"],
        "on": ["family"], "little": ["level"], "none": ["conjugacy", "ideal"],
    },
    {
        "metrics": [
            "groupoid.level_map.self_s", "groupoid.translation_orbit.self_s",
            "groupoid.verify_word_identity.self_s",
            "lattices.quotient.calls", "lattices.quotient.self_s",
            "lattices.QuotientLevel.reduce.calls", "matrices.snf.self_s", "cli.main.self_s",
        ],
        "moves": ["latency_p50_s"],
        "on": ["level"], "little": [], "none": [],
    },
    {
        "metrics": [
            "matrices.poly_invariant_factors.calls", "matrices.poly_invariant_factors.self_s",
            "invariants.conjugacy_class.self_s",
        ],
        "moves": ["latency_p90_s"],
        "on": ["conjugacy"], "little": [], "none": ["family", "level", "ideal"],
    },
    {
        "metrics": [
            "modp.ddf_signature.calls", "modp.ddf_signature.self_s",
            "invariants.splitting_signature_distinguisher.self_s",
        ],
        "moves": ["latency_p50_s", "docs_per_s"],
        "on": ["conjugacy"], "little": [], "none": ["family", "level", "ideal"],
    },
    {
        "metrics": [
            "matrices.charpoly.calls", "matrices.charpoly.self_s", "matrices.Matrix.det.self_s",
            *(f"polyring.{f}.{s}" for f in ("buchberger", "normal_form", "quotient_algebra", "commalg_conditions")
              for s in ("calls", "self_s")),
        ],
        "moves": ["latency_p90_s", "docs_per_s"],
        "on": ["ideal"], "little": ["family", "conjugacy"], "none": ["level"],
    },
    {
        "metrics": [
            "arith.prime_factors.calls", "arith.prime_factors.self_s",
            "orders.validate.self_s", "orders.action_from_ring.self_s", "orders.regular_shift.self_s",
            "actions.check_standing.self_s", "actions.check_condition_F.self_s",
            "actions.check_SF_via_det.self_s",
        ],
        "moves": ["docs_per_s"],
        "on": ["family", "ideal"], "little": [], "none": ["level", "conjugacy"],
    },
]

# Ratios and counts; README.md gives the base of each.
RATIOS = {
    "actions.family.members_per_op": "ratio",
    "actions.constructible_family.calls_per_doc": "count/doc",
    "polyring.buchberger.calls_per_doc": "count/doc",
    "polyring.buchberger.useful_reduction_ratio": "ratio",
    "arith.prime_factors.unfactored": "count",
    "trace.overhead_ratio": "ratio",
}

PROBES = [
    "probe.poly_invariant_factors.n12_s", "probe.poly_invariant_factors.n14_s",
    "probe.poly_invariant_factors.n16_s", "probe.constructible_family.d6_s",
    "probe.charpoly_q.dim27_s", "probe.snf.rank3_chain_s",
    "probe.commalg_conditions.no_witness_s",
]


def _unit(name):
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_share"):
        return "ratio"
    return "s"


def metric_units():
    """Every per-layer metric name, in output order, with its unit."""
    out = {}
    for row in PREDICTIONS:
        out.update({name: _unit(name) for name in row["metrics"]})
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = "s"
        out[f"layer.{layer}.self_share"] = "ratio"
    out.update(RATIOS)
    out.update({name: "s" for name in PROBES})
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(summary, invocations, overhead_ratio, probes):
    """Returns the metric values and, for each ratio or count, its base."""
    calls, self_s = summary["calls"], summary["self_s"]
    values = {}
    for name in metric_units():
        fn, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls.get(fn, 0)
        elif stat == "self_s" and not name.startswith("layer."):
            values[name] = self_s.get(fn, 0.0)
    total = sum(self_s.values())
    for layer in LAYERS:
        busy = sum(v for k, v in self_s.items() if k.startswith(f"{layer}."))
        values[f"layer.{layer}.self_s"] = busy
        values[f"layer.{layer}.self_share"] = _ratio(busy, total)
    edges, edge_values = summary["edge_calls"], summary["edge_values"]
    family_ops = sum(
        edges[f"actions.constructible_family>lattices.{op}"] for op in ("image", "preimage", "intersect")
    )
    reductions = "polyring.buchberger>polyring.normal_form"
    values.update({
        "actions.family.members_per_op": _ratio(summary["values"]["actions.constructible_family"], family_ops),
        "actions.constructible_family.calls_per_doc": _ratio(calls["actions.constructible_family"], invocations),
        "polyring.buchberger.calls_per_doc": _ratio(calls["polyring.buchberger"], invocations),
        "polyring.buchberger.useful_reduction_ratio": _ratio(edge_values[reductions], edges[reductions]),
        "arith.prime_factors.unfactored": summary["values"]["arith.prime_factors"],
        "trace.overhead_ratio": overhead_ratio,
        **probes,
    })
    bases = {
        "actions.family.members_per_op": f"{family_ops} image/preimage/intersect calls under constructible_family",
        "actions.constructible_family.calls_per_doc": f"{invocations} invocations",
        "polyring.buchberger.calls_per_doc": f"{invocations} invocations",
        "polyring.buchberger.useful_reduction_ratio": f"{edges[reductions]} normal_form calls under buchberger",
        "arith.prime_factors.unfactored": f"{calls['arith.prime_factors']} prime_factors calls",
        "trace.overhead_ratio": f"{invocations} invocations, each run untraced and traced",
    }
    return values, bases


def prediction_shares(summary):
    """Share of traced self time held by the functions of each prediction row."""
    self_s = summary["self_s"]
    total = sum(self_s.values()) or 1.0
    out = []
    for row in PREDICTIONS:
        fns = {name.rpartition(".")[0] for name in row["metrics"] if not name.endswith(".calls")}
        out.append(sum(self_s.get(fn, 0.0) for fn in fns) / total)
    return out

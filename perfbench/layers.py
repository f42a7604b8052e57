"""Per-layer metrics of a traced run, computed from the spans and counts
that probe.Tracer gathered for each traced operation.

Units: `_us` values are means per call; `_s` values are seconds per
round (one pass over the workload's operations); counts named per trial
are means per trial and repeat exactly for fixed seeds; pool and
tableau counts are per round.  A layer that a workload never enters
reads 0.
"""

from __future__ import annotations

from collections import defaultdict

# name, unit, better
PER_LAYER = [
    ("lp.solve_s", "s", "lower"),
    ("lp.build_s", "s", "lower"),
    ("lp.solves", "count", "lower"),
    ("lp.tableau_cells", "count", "lower"),
    ("kcspip.trial_us", "us", "lower"),
    ("kcspip.sample_discard_us", "us", "lower"),
    ("kcspip.digraph_us", "us", "lower"),
    ("kcspip.anomaly_us", "us", "lower"),
    ("kcspip.bkns_trial_us", "us", "lower"),
    ("kcspip.sampled", "count", "lower"),
    ("kcspip.survivors", "count", "higher"),
    ("kcspip.arcs", "count", "lower"),
    ("kcspip.kept", "count", "higher"),
    ("kcspip.chosen", "count", "higher"),
    ("kcspip.bkns_chosen", "count", "higher"),
    ("kcspip.yield", "ratio", "higher"),
    ("graphcolor.color_us", "us", "lower"),
    ("graphcolor.peel_us", "us", "lower"),
    ("core.check_feasible_us", "us", "lower"),
    ("core.validate_s", "s", "lower"),
    ("harness.loop_overhead_us", "us", "lower"),
    ("harness.report_s", "s", "lower"),
    ("sksp.pool_s", "s", "lower"),
    ("sksp.pool_sims", "count", "lower"),
    ("sksp.pool_sims_per_s", "1/s", "higher"),
    ("sksp.zero_target_sims", "count", "lower"),
    ("sksp.trial_us", "us", "lower"),
    ("sksp.adds", "count", "higher"),
    ("ufptree.pool_s", "s", "lower"),
    ("ufptree.pool_sims", "count", "lower"),
    ("ufptree.trial_us", "us", "lower"),
    ("ufptree.routed", "count", "higher"),
    ("ufptree.clamped", "count", "lower"),
    ("hypermatch.trial_us", "us", "lower"),
    ("hypermatch.matched", "count", "higher"),
    ("cli.load_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# the span around each runner's public per-trial call
RUNNER_SPAN = {"kcspip": "kcspip.trial", "bkns": "kcspip.bkns_trial",
               "sksp": "sksp.trial", "ufp": "ufptree.trial"}


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(traced_ops, rounds, overhead_s):
    """traced_ops: dicts with alg, trials, phases, layers, report."""
    calls, total, self_time, counts = (defaultdict(float) for _ in range(4))
    for op in traced_ops:
        layers = op["layers"]
        for acc, key in ((calls, "calls"), (total, "total"),
                         (self_time, "self"), (counts, "counts")):
            for name, v in layers[key].items():
                acc[name] += v

    def us(name):
        return _ratio(total[name], calls[name], 1e6)

    def per_round(v):
        return _ratio(v, rounds)

    loop_time = loop_trials = 0.0
    for op in traced_ops:
        span = RUNNER_SPAN.get(op["alg"])
        if span:
            loop_time += op["phases"]["trial"] - op["layers"]["total"].get(span, 0.0)
            loop_trials += op["trials"]
    hm = [op for op in traced_ops if op["alg"] == "hm"]
    kcs_trials = calls["kcspip.trial"]

    values = {
        "lp.solve_s": per_round(total["lp.solve"]),
        "lp.build_s": per_round(total["lp.build"]),
        "lp.solves": per_round(calls["lp.solve"]),
        "lp.tableau_cells": per_round(counts["lp.tableau_cells"]),
        "kcspip.trial_us": us("kcspip.trial"),
        # self time of KcsRounder.trial: sampling, the discard step and
        # building the induced subgraph, outside the spans below
        "kcspip.sample_discard_us": _ratio(self_time["kcspip.trial"], kcs_trials, 1e6),
        "kcspip.digraph_us": us("kcspip.digraph"),
        "kcspip.anomaly_us": us("kcspip.anomaly"),
        "kcspip.bkns_trial_us": us("kcspip.bkns_trial"),
        "kcspip.sampled": _ratio(counts["kcspip.sampled"], kcs_trials),
        "kcspip.survivors": _ratio(counts["kcspip.survivors"], kcs_trials),
        "kcspip.arcs": _ratio(counts["kcspip.arcs"], kcs_trials),
        "kcspip.kept": _ratio(counts["kcspip.kept"], kcs_trials),
        "kcspip.chosen": _ratio(counts["kcspip.chosen"], kcs_trials),
        "kcspip.bkns_chosen": _ratio(counts["kcspip.bkns_chosen"],
                                     calls["kcspip.bkns_trial"]),
        "kcspip.yield": _ratio(counts["kcspip.chosen"], counts["kcspip.sampled"]),
        "graphcolor.color_us": us("graphcolor.color"),
        "graphcolor.peel_us": us("graphcolor.peel"),
        "core.check_feasible_us": us("core.check_feasible"),
        "core.validate_s": per_round(total["core.validate"]),
        "harness.loop_overhead_us": _ratio(loop_time, loop_trials, 1e6),
        "harness.report_s": per_round(sum(op["phases"]["report"] for op in traced_ops)),
        "sksp.pool_s": per_round(total["sksp.pool"]),
        "sksp.pool_sims": per_round(counts["sksp.pool_sims"]),
        "sksp.pool_sims_per_s": _ratio(counts["sksp.pool_sims"], total["sksp.pool"]),
        "sksp.zero_target_sims": per_round(counts["sksp.zero_target_sims"]),
        "sksp.trial_us": us("sksp.trial"),
        "sksp.adds": _ratio(counts["sksp.adds"], calls["sksp.trial"]),
        "ufptree.pool_s": per_round(total["ufptree.pool"]),
        "ufptree.pool_sims": per_round(counts["ufptree.pool_sims"]),
        "ufptree.trial_us": us("ufptree.trial"),
        "ufptree.routed": _ratio(counts["ufptree.routed"], calls["ufptree.trial"]),
        "ufptree.clamped": per_round(counts["ufptree.clamped"]),
        # the hm runner is private, so its time is the whole trial phase
        "hypermatch.trial_us": _ratio(sum(op["phases"]["trial"] for op in hm),
                                      sum(op["trials"] for op in hm), 1e6),
        "hypermatch.matched": _ratio(
            sum(sum(it["frequency"] for it in op["report"]["items"]) for op in hm),
            len(hm)),
        "cli.load_s": per_round(total["cli.load"]),
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in PER_LAYER}

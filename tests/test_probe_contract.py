"""The per-trial names the benchmark's tracer wraps, and how often they run.

perfbench/probe.py times the kcspip, bkns, sksp and ufp layers by
replacing these module and class attributes with wrappers that note each
call, and reads each hm trial's matching from `harness.matching_weight`.  A
refactor that stops calling one of them through its public name, or
calls it more or less often, would leave that layer's metric silently
at zero or wrong.  Here each name gets a counting shim in the same way,
and a run must call each exactly once per trial (`trial_rng` once per
chunk, and once more for the set-up pool of sksp and ufp) and hand back
the same types as before.
"""

import pytest

from sparsepack import graphcolor, harness, kcspip, sksp, ufptree
from sparsepack.core import make_instance
from sparsepack.graphcolor import Coloring, DiGraph
from sparsepack.hypermatch import is_matching, make_hypergraph
from sparsepack.sksp import ProbeOutcome, SkspInstance, make_item
from sparsepack.ufptree import make_tree

# (owner, name, the type every call returns)
TRACED = {
    "KcsRounder.trial": (kcspip.KcsRounder, "trial", frozenset),
    "KcsRounder.survivors": (kcspip.KcsRounder, "survivors", tuple),
    "build_conflict_digraph": (kcspip, "build_conflict_digraph", DiGraph),
    "remove_anomalous": (kcspip, "remove_anomalous", frozenset),
    "color_directed_graph": (kcspip, "color_directed_graph", Coloring),
    "peel_order": (graphcolor, "peel_order", list),
    "BknsRounder.trial": (kcspip.BknsRounder, "trial", frozenset),
    "MultiChanceSampler.trial": (sksp.MultiChanceSampler, "trial", ProbeOutcome),
    "UfpCrScheme.trial": (ufptree.UfpCrScheme, "trial", frozenset),
    "check_feasible": (harness, "check_feasible", bool),
    "trial_rng": (harness, "trial_rng", object),
}

TRIALS = harness.CHUNK_TRIALS + 100   # a full chunk and a partial one
CHUNKS = 2


@pytest.fixture
def calls(monkeypatch):
    counts = dict.fromkeys(TRACED, 0)

    def shim(key, original, returns):
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[key] += 1
            assert isinstance(result, returns), (key, type(result))
            return result
        return counted

    for key, (owner, name, returns) in TRACED.items():
        monkeypatch.setattr(owner, name, shim(key, getattr(owner, name), returns))
    return counts


def probe_instance():
    # big, medium and tiny entries on shared rows, so every stage has work
    return make_instance(
        capacities=[1.0, 1.0, 1.5],
        weights=[1.0, 2.0, 1.5, 1.0, 0.5],
        columns=[[(0, 0.6), (1, 0.3)], [(0, 0.3), (2, 0.9)],
                 [(1, 0.7), (2, 0.01)], [(0, 0.2), (2, 0.4)], [(1, 0.1)]],
        k=2,
    )


def test_kcspip_calls_each_traced_layer_once_per_trial(calls):
    spec = harness.ExperimentSpec("kcspip", probe_instance(), trials=TRIALS, seed=3)
    harness.empirical_ratio(spec, x=[0.9, 0.8, 0.7, 0.9, 1.0])
    per_trial = ("KcsRounder.trial", "KcsRounder.survivors",
                 "build_conflict_digraph", "remove_anomalous",
                 "color_directed_graph", "peel_order", "check_feasible")
    assert calls == {key: TRIALS if key in per_trial else 0
                     for key in TRACED} | {"trial_rng": CHUNKS}


def test_bkns_calls_each_traced_layer_once_per_trial(calls):
    spec = harness.ExperimentSpec("bkns", probe_instance(), trials=TRIALS, seed=3)
    harness.empirical_ratio(spec, x=[0.9, 0.8, 0.7, 0.9, 1.0])
    per_trial = ("BknsRounder.trial", "check_feasible")
    assert calls == {key: TRIALS if key in per_trial else 0
                     for key in TRACED} | {"trial_rng": CHUNKS}


def test_hm_weighs_each_trial_once_with_its_matching(calls, monkeypatch):
    # perfbench's matching check takes a set of these collections
    weighed = []
    original = harness.matching_weight

    def matching_weight(h, edge_ids):
        hash(edge_ids)
        weighed.append(edge_ids)
        return original(h, edge_ids)

    monkeypatch.setattr(harness, "matching_weight", matching_weight)
    h = make_hypergraph(5, [((0, 1), 1.0), ((1, 2), 2.0), ((2, 3, 4), 1.5),
                            ((0, 4), 0.5), ((3,), 1.0)])
    spec = harness.ExperimentSpec("hm", h, trials=TRIALS, seed=3)
    report = harness.empirical_ratio(spec, x=[0.5, 0.5, 0.5, 0.5, 0.5])
    assert calls == dict.fromkeys(TRACED, 0) | {"trial_rng": CHUNKS}
    assert len(weighed) == TRIALS
    assert all(list(ids) == sorted(ids) and is_matching(h, ids)
               for ids in weighed)
    tally = [sum(j in ids for ids in weighed) for j in range(h.n)]
    assert tally == [round(it.frequency * TRIALS) for it in report.items]


def test_sksp_calls_its_trial_once_per_trial(calls):
    inst = SkspInstance(m=3, capacities=(1, 1, 2), k=2, items=(
        make_item([0, 1], [(0.5, 1.0, [1, 1]), (0.5, 2.0, [1, 0])]),
        make_item([1, 2], [(1.0, 1.5, [1, 1])]),
        make_item([0, 2], [(0.3, 1.0, [0, 1]), (0.7, 0.5, [1, 1])]),
    ))
    spec = harness.ExperimentSpec("sksp", inst, trials=TRIALS, seed=3,
                                  params={"T": 2, "sim_budget": 5_000})
    harness.empirical_ratio(spec, x=[0.5, 0.5, 0.5])
    assert calls == dict.fromkeys(TRACED, 0) | {
        "MultiChanceSampler.trial": TRIALS, "trial_rng": CHUNKS + 1}


def test_ufp_checks_each_trial_once_on_its_packing_view(calls):
    net = make_tree([-1, 0, 0, 1], 0, [1, 1, 2, 1],
                    [(3, 2, 1.0), (1, 3, 2.0), (0, 3, 0.5)])
    spec = harness.ExperimentSpec("ufp", net, trials=TRIALS, seed=3,
                                  params={"alpha": 0.1, "sim_budget": 2_000})
    harness.empirical_ratio(spec, x=[0.5, 0.5, 0.5])
    assert calls == dict.fromkeys(TRACED, 0) | {
        "UfpCrScheme.trial": TRIALS, "check_feasible": TRIALS,
        "trial_rng": CHUNKS + 1}

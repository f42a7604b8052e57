"""The per-trial names the benchmark's tracer wraps, and how often they run.

perfbench/probe.py times the kcspip, bkns, sksp and ufp layers by
replacing these module and class attributes with wrappers that note each
call, and reads each hm trial's matching from `harness.matching_weight`.  A
refactor that stops calling one of them through its public name, or
calls it more or less often, would leave that layer's metric silently
at zero or wrong.  Here each name gets a counting shim in the same way,
and a run must call each exactly once per trial (`trial_rng` once per
chunk, and once more for the set-up pool of sksp and ufp) and hand back
the same types as before.  The LP names are wrapped too: each solve
must go through `cli.solve_packing_lp` (solve-lp) or
`harness.solve_packing_lp` (round without --x), and build its relaxation
with `lp.build_relaxation`, once.

The probe itself is loaded too, read-only, to check that every name it
replaces still exists and is put back: a name that looks dead in the
package may be one the benchmark wraps.
"""

import importlib.util
import inspect
from pathlib import Path
from types import SimpleNamespace

import pytest

from sparsepack import (cli, core, graphcolor, harness, kcspip, lp, sksp,
                        ufptree)
from sparsepack.core import FractionalSolution, make_instance
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
    "cli.solve_packing_lp": (cli, "solve_packing_lp", FractionalSolution),
    "harness.solve_packing_lp": (harness, "solve_packing_lp", FractionalSolution),
    "sksp.solve_packing_lp": (sksp, "solve_packing_lp", FractionalSolution),
    "lp.build_relaxation": (lp, "build_relaxation", tuple),
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


@pytest.fixture
def kcs_path(tmp_path):
    # requested before `calls`, so the generator's own stream goes uncounted
    path = str(tmp_path / "kcs.json")
    assert cli.main(["gen", "kcs", "--n", "12", "--m", "6", "--k", "3",
                     "--seed", "4", "-o", path]) == 0
    return path


def test_solve_lp_solves_once_through_the_cli_name(kcs_path, calls, tmp_path):
    assert cli.main(["solve-lp", kcs_path, "-o", str(tmp_path / "lp.json")]) == 0
    assert calls == dict.fromkeys(TRACED, 0) | {
        "cli.solve_packing_lp": 1, "lp.build_relaxation": 1}


def test_round_without_x_solves_once_through_the_harness_name(
        kcs_path, calls, capsys):
    trials = 50
    assert cli.main(["round", "kcspip", "--instance", kcs_path, "--trials",
                     str(trials), "--seed", "3", "--jobs", "1"]) == 0
    capsys.readouterr()
    per_trial = ("KcsRounder.trial", "KcsRounder.survivors",
                 "build_conflict_digraph", "remove_anomalous",
                 "color_directed_graph", "peel_order", "check_feasible")
    assert calls == {key: trials if key in per_trial else 0
                     for key in TRACED} | {
        "trial_rng": 1, "harness.solve_packing_lp": 1, "lp.build_relaxation": 1}


PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"
MODULES = SimpleNamespace(cli=cli, core=core, graphcolor=graphcolor,
                          harness=harness, kcspip=kcspip, lp=lp, sksp=sksp,
                          ufptree=ufptree)


def load_probe():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


def namespaces():
    """Every module the probe is handed and every class defined there."""
    out = list(vars(MODULES).values())
    for module in vars(MODULES).values():
        out.extend(c for c in vars(module).values() if inspect.isclass(c)
                   and c.__module__ == module.__name__)
    return out


def snapshot():
    return [(owner, dict(vars(owner))) for owner in namespaces()]


def changed(before):
    """(owner name, attribute) of each binding that differs from before."""
    return {(owner.__name__, name) for owner, names in before
            for name, value in vars(owner).items()
            if names.get(name) is not value}


def test_every_name_the_benchmark_wraps_exists_and_is_put_back():
    probe = load_probe()
    before = snapshot()
    # the benchmark keeps Phases on and opens a Tracer over it; either
    # raises AttributeError for a name the package no longer has
    phases = probe.Phases(MODULES)
    by_phases = changed(before)
    tracer = probe.Tracer(MODULES)
    patched = changed(before)
    tracer.close()
    assert changed(before) == by_phases
    phases.close()
    assert changed(before) == set()
    assert {("sparsepack.harness", "trial_rng"),
            ("sparsepack.harness", "UfpCrScheme"),
            ("sparsepack.cli", "solve_packing_lp")} <= by_phases
    assert {("sparsepack.sksp", "solve_packing_lp"),
            ("sparsepack.core", "validate_instance"),
            ("sparsepack.cli", "_load_input"),
            ("KcsRounder", "trial"),
            ("MultiChanceSampler", "trial")} <= patched

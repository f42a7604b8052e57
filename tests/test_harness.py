"""Generators, the exact optimum, and the experiment harness."""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from sparsepack.core import check_feasible, make_instance, objective_value
from sparsepack.errors import ParamError, SizeError, ValidationError
from sparsepack.harness import (ALGORITHMS, BRUTE_FORCE_CAP, CHUNK_TRIALS,
                                HM_BLOCK, SCHEMES, ExperimentSpec,
                                brute_force_opt,
                                empirical_ratio, format_report,
                                gen_gap_instance,
                                gen_random_hypergraph, gen_random_kcs,
                                gen_random_tree, gen_sksp_instance,
                                hypergraph_lp_instance, kcspip_ratio_trend,
                                mc_inclusion_kcspip, report_to_dict,
                                report_to_json, write_report_csv,
                                write_report_json)
from sparsepack.hypermatch import HmRounder, Hypergraph
from sparsepack.kcspip import (KcsParams, exact_inclusion_probabilities,
                               instance_k)
from sparsepack.lp import solve_packing_lp
from sparsepack.montecarlo import binomial_stderr, trial_rng
from sparsepack.sksp import MultiChanceSampler, compute_schedule, validate_sksp
from sparsepack.ufptree import UfpCrScheme, UfpParams, make_tree, validate_tree


# ---------------------------------------------------------------------------
# Generators

def test_gap_instance_structure():
    inst = gen_gap_instance(3)
    assert inst.n == inst.m == 5
    assert inst.k == 3
    for j, col in enumerate(inst.columns):
        assert len(col) == 3
        coeffs = dict(col)
        assert coeffs[j] == 1.0
        small = [a for i, a in col if i != j]
        assert all(a == small[0] for a in small)
        assert {i for i, _ in col} == {j, (j - 1) % 5, (j - 2) % 5}


def test_gap_instance_epsilon_guard():
    with pytest.raises(ParamError):
        gen_gap_instance(1)
    with pytest.raises(ParamError):
        gen_gap_instance(3, eps=1.0)
    limit = 1.0 / (10.0 * 5 * 3)
    inst = gen_gap_instance(3, eps=limit / 3.0)
    assert inst.columns[0][1][1] == pytest.approx(limit / 3.0)


def test_gap_instance_any_two_items_conflict():
    inst = gen_gap_instance(4)
    for u, v in itertools.combinations(range(inst.n), 2):
        assert not check_feasible(inst, {u, v})


def test_random_kcs_contract():
    inst = gen_random_kcs(n=20, m=8, k=3, seed=5)
    assert inst.n == 20 and inst.m == 8 and inst.k == 3
    assert inst.capacities == (1.0,) * 8
    for col in inst.columns:
        assert len(col) == 3
        assert all(0.0 < a <= 1.0 for _, a in col)
    assert all(0.0 < w <= 1.0 for w in inst.weights)
    assert inst == gen_random_kcs(n=20, m=8, k=3, seed=5)
    assert inst != gen_random_kcs(n=20, m=8, k=3, seed=6)
    with pytest.raises(ParamError):
        gen_random_kcs(n=5, m=2, k=3, seed=0)


def test_random_hypergraph_contract():
    h = gen_random_hypergraph(n_vertices=10, n_edges=25, k=4, seed=2)
    assert h.m == 10 and h.n == 25
    for vs, w in h.edges:
        assert 1 <= len(vs) <= 4
        assert len(set(vs)) == len(vs)
        assert 0.0 < w <= 1.0
    assert h == gen_random_hypergraph(10, 25, 4, seed=2)


def test_random_sksp_contract():
    inst = gen_sksp_instance(n=8, m=5, k=2, scenarios=3, seed=1, cap_hi=3)
    assert validate_sksp(inst).ok
    assert all(1 <= b <= 3 for b in inst.capacities)
    assert all(len(item.scenarios) == 3 for item in inst.items)
    assert inst == gen_sksp_instance(8, 5, 2, 3, seed=1, cap_hi=3)
    with pytest.raises(ParamError):
        gen_sksp_instance(n=8, m=2, k=3, scenarios=2, seed=0)


def test_random_tree_contract():
    net = gen_random_tree(n_vertices=12, n_demands=9, seed=4)
    assert validate_tree(net).ok
    assert net.root == 0 and net.parent[0] == -1
    assert net.n_demands == 9
    assert net == gen_random_tree(12, 9, seed=4)
    with pytest.raises(ParamError):
        gen_random_tree(n_vertices=1, n_demands=1, seed=0)


def test_hypergraph_lp_instance_bridge():
    h = gen_random_hypergraph(6, 8, 3, seed=0)
    inst = hypergraph_lp_instance(h)
    assert inst.m == h.m and inst.n == h.n
    assert inst.capacities == (1.0,) * h.m
    for col, (vs, _) in zip(inst.columns, h.edges):
        assert col == tuple((v, 1.0) for v in vs)


# ---------------------------------------------------------------------------
# Exact optimum

def exhaustive_opt(inst):
    best, best_set = 0.0, frozenset()
    for size in range(inst.n + 1):
        for chosen in itertools.combinations(range(inst.n), size):
            if check_feasible(inst, chosen):
                val = objective_value(inst, chosen)
                if val > best:
                    best, best_set = val, frozenset(chosen)
    return best, best_set


@pytest.mark.parametrize("seed", range(4))
def test_brute_force_matches_exhaustive_enumeration(seed):
    inst = gen_random_kcs(n=10, m=5, k=3, seed=seed)
    value, chosen = brute_force_opt(inst)
    expected, _ = exhaustive_opt(inst)
    assert value == pytest.approx(expected, abs=1e-12)
    assert check_feasible(inst, chosen)
    assert objective_value(inst, chosen) == pytest.approx(value)


def test_brute_force_size_cap():
    inst = gen_random_kcs(n=BRUTE_FORCE_CAP + 1, m=8, k=2, seed=0)
    with pytest.raises(SizeError):
        brute_force_opt(inst)
    value, _ = brute_force_opt(inst, size_cap=BRUTE_FORCE_CAP + 1)
    assert value > 0.0


def test_gap_instance_optimum_is_one():
    value, chosen = brute_force_opt(gen_gap_instance(4))
    assert value == 1.0
    assert len(chosen) == 1


def test_lp_dominates_integer_optimum():
    for seed in range(4):
        inst = gen_random_kcs(n=10, m=5, k=3, seed=seed)
        value, _ = brute_force_opt(inst)
        assert solve_packing_lp(inst, strengthen=True).objective >= value - 1e-7
        assert solve_packing_lp(inst, strengthen=False).objective >= value - 1e-7


# ---------------------------------------------------------------------------
# Experiment driver

def test_spec_validation():
    inst = gen_gap_instance(2)
    with pytest.raises(ValidationError, match="unknown algorithm"):
        ExperimentSpec("nope", inst, 10, 0)
    with pytest.raises(ParamError):
        ExperimentSpec("kcspip", inst, 0, 0)
    with pytest.raises(ParamError):
        ExperimentSpec("kcspip", inst, 10, 0, jobs=0)


def test_report_counts_and_floors():
    inst = gen_gap_instance(2)
    trials = 2_000
    report = empirical_ratio(ExperimentSpec("kcspip", inst, trials, seed=7))
    assert report.algorithm == "kcspip"
    assert report.trials == trials
    assert report.feasibility_violations == 0
    assert len(report.items) == inst.n
    x = solve_packing_lp(inst, strengthen=True).x
    k = instance_k(inst)
    for it, xv in zip(report.items, x):
        assert it.x == pytest.approx(xv)
        assert it.floor == pytest.approx(xv / (2 * k))
        assert it.std_err == pytest.approx(binomial_stderr(it.frequency, trials))
        if it.floor > 0:
            assert it.ratio == pytest.approx(it.frequency / it.floor)
    assert report.min_ratio == min(
        it.ratio for it in report.items if it.ratio is not None)


def test_report_mean_objective_tracks_frequencies():
    inst = gen_random_kcs(n=6, m=4, k=2, seed=3)
    report = empirical_ratio(ExperimentSpec("bkns", inst, 4_000, seed=1))
    implied = sum(it.frequency * w for it, w in zip(report.items, inst.weights))
    assert report.mean_objective == pytest.approx(implied, abs=1e-9)


def test_exact_marginals_confirm_frequencies():
    inst = gen_gap_instance(2)
    x = solve_packing_lp(inst, strengthen=True).x
    params = KcsParams.defaults(instance_k(inst))
    exact = exact_inclusion_probabilities(inst, x, params)
    trials = 60_000
    report = empirical_ratio(ExperimentSpec("kcspip", inst, trials, seed=11),
                             x=x)
    for it, p in zip(report.items, exact):
        assert it.frequency == pytest.approx(
            p, abs=4 * binomial_stderr(float(p), trials))


def test_parallel_report_is_byte_identical():
    # Random weights make the objective sum inexact, and three chunks give
    # one of two workers a non-adjacent pair, so this fails unless the
    # reduction fixes the float association independently of the worker
    # count.  Unit-weight instances and two-chunk splits cannot tell.
    inst = gen_random_kcs(n=12, m=6, k=3, seed=7)
    trials = 5 * CHUNK_TRIALS // 2
    solo = empirical_ratio(ExperimentSpec("kcspip", inst, trials, seed=5, jobs=1))
    duo = empirical_ratio(ExperimentSpec("kcspip", inst, trials, seed=5, jobs=2))
    assert report_to_json(solo) == report_to_json(duo)


def test_compare_opt_attaches_exact_value():
    inst = gen_gap_instance(2)
    spec = ExperimentSpec("kcspip", inst, 100, 0,
                          params={"compare_opt": True})
    assert empirical_ratio(spec).opt_value == 1.0
    plain = empirical_ratio(ExperimentSpec("kcspip", inst, 100, 0))
    assert plain.opt_value is None


@pytest.mark.parametrize("alg, params", [
    ("sksp", {"chances": 1}),      # the key is T
    ("hm", {"alpha": 0.3, "sim_budget": 7}),
    ("kcspip", {"attenuate_last": False}),
    ("ufp", {"compare_opt": True}),
])
def test_spec_refuses_params_its_scheme_does_not_read(alg, params):
    instances = {"sksp": lambda: gen_sksp_instance(4, 3, 2, 2, seed=1),
                 "hm": lambda: gen_random_hypergraph(6, 5, 2, seed=1),
                 "kcspip": lambda: gen_gap_instance(2),
                 "ufp": lambda: gen_random_tree(6, 4, seed=1)}
    with pytest.raises(ParamError, match=f"{alg} reads no parameter"):
        ExperimentSpec(alg, instances[alg](), 10, 0, params=params)


def test_sksp_underflow_within_tolerance_is_noted():
    # A 50-run pool puts item 7's chance-0 estimate below its target but
    # inside the tolerance: the item keeps every hit, and the report's
    # note is the only place that says so.
    inst = gen_sksp_instance(10, 6, 3, 3, seed=7)
    params = {"T": 2, "sim_budget": 50}
    report = empirical_ratio(ExperimentSpec("sksp", inst, 500, 7, params=params))
    assert report.notes == (
        "attenuation clamped at 1 (chance, item) pairs: [(0, 7)]",)
    x = solve_packing_lp(SCHEMES["sksp"].packing(inst), strengthen=False).x
    sampler = MultiChanceSampler(inst, x, compute_schedule(2, inst.k),
                                 trial_rng(7, 0, module=103), sim_budget=50)
    assert sampler.underflow == [(0, 7)]
    assert 0 < sampler.probe_estimates[0, 7] < sampler.targets[0, 7]
    assert sampler.keeps[0, 7] == 1.0


def test_ufp_safety_estimates_below_beta_are_noted():
    # Twelve demands at x = 1 over one unit edge: the later ones are safe
    # less often than beta, so their keep probability clamps at 1.
    net = make_tree([-1, 0], 0, [1, 1], [(0, 1, 1.0)] * 12)
    params = {"alpha": 0.02, "sim_budget": 2_000}
    report = empirical_ratio(ExperimentSpec("ufp", net, 500, 3, params=params),
                             x=[1.0] * 12)
    scheme = UfpCrScheme(net, [1.0] * 12, UfpParams(0.02, 2_000),
                         trial_rng(3, 0, module=105))
    clamped = [i for i in range(12) if scheme.eta[i] < scheme.params.beta]
    assert scheme.clamped == clamped == [7, 8, 9, 10, 11]
    assert (scheme.keep[clamped] == 1.0).all()
    # x = 1 puts twelve units on the unit edge, row 1 of the path LP
    assert report.notes == (
        f"safety estimates below beta for demands {clamped}",
        "x exceeds row 1 of the packing view by 11; the floors assume a "
        "feasible x",
    )


def test_sksp_experiment_reports_schedule_floor():
    inst = gen_sksp_instance(n=6, m=4, k=2, scenarios=2, seed=2)
    spec = ExperimentSpec("sksp", inst, 2_000, seed=3,
                          params={"T": 2, "sim_budget": 20_000})
    report = empirical_ratio(spec)
    assert report.feasibility_violations == 0
    assert len(report.items) == inst.n


def test_ufp_experiment_with_moderate_alpha():
    net = gen_random_tree(n_vertices=10, n_demands=6, seed=6)
    spec = ExperimentSpec("ufp", net, 2_000, seed=4,
                          params={"alpha": 0.1, "sim_budget": 20_000})
    report = empirical_ratio(spec)
    assert report.feasibility_violations == 0
    assert len(report.items) == net.n_demands


def test_hm_experiment_floors_use_edge_sizes():
    h = gen_random_hypergraph(8, 10, 3, seed=8)
    report = empirical_ratio(ExperimentSpec("hm", h, 2_000, seed=9))
    assert report.feasibility_violations == 0
    from sparsepack.hypermatch import theoretical_bound
    for it, (vs, _) in zip(report.items, h.edges):
        assert it.floor == pytest.approx(it.x * theoretical_bound(len(vs)))


@pytest.mark.parametrize("pair", [(0, 1), (2, 2)])   # a shared vertex, a repeat
def test_hm_flags_a_trial_whose_edges_overlap(monkeypatch, pair):
    # The last trial of every block gets two edges that are not a matching.
    def trials(rounder, rng, size):
        return np.array([size - 1, size - 1]), np.array(pair)

    monkeypatch.setattr(HmRounder, "trials", trials)
    h = Hypergraph(m=4, edges=(((0, 1), 1.0), ((1, 2), 1.0), ((3,), 1.0)))
    trials_run = CHUNK_TRIALS + 100
    report = empirical_ratio(ExperimentSpec("hm", h, trials_run, seed=1),
                             x=[0.5, 0.5, 0.5])
    blocks = -(-CHUNK_TRIALS // HM_BLOCK) + -(-100 // HM_BLOCK)
    assert report.feasibility_violations == blocks
    assert report.notes == tuple(
        f"feasibility violation at chunk 0 offset {off}"
        for off in range(HM_BLOCK - 1, 10 * HM_BLOCK, HM_BLOCK))


def test_ufp_flags_a_trial_that_overloads_an_edge(monkeypatch):
    # Every 50th trial routes both demands over the capacity-1 edge above
    # vertex 2; the other trials route demand 0 alone.
    calls = itertools.count()

    def trial(scheme, rng):
        return frozenset({0, 1}) if next(calls) % 50 == 49 else frozenset({0})

    monkeypatch.setattr(UfpCrScheme, "trial", trial)
    net = make_tree([-1, 0, 1], 0, [1, 1, 1], [(0, 2, 1.0), (1, 2, 1.0)])
    trials_run = CHUNK_TRIALS + 100
    spec = ExperimentSpec("ufp", net, trials_run, seed=1,
                          params={"alpha": 0.1, "sim_budget": 1_000})
    report = empirical_ratio(spec, x=[0.5, 0.5])
    assert report.feasibility_violations == trials_run // 50
    assert report.notes == tuple(
        f"feasibility violation at chunk 0 offset {off}"
        for off in range(49, 500, 50))


def _scheme_instance(alg):
    if alg in ("kcspip", "bkns"):
        return gen_random_kcs(n=12, m=6, k=3, seed=7)
    if alg == "sksp":
        return gen_sksp_instance(n=6, m=4, k=2, scenarios=2, seed=2)
    if alg == "hm":
        return gen_random_hypergraph(8, 10, 3, seed=8)
    return gen_random_tree(n_vertices=10, n_demands=6, seed=6)


# Each scheme's item weights as read from its own format, before the
# packing view took over.
FORMAT_WEIGHTS = {
    "kcspip": lambda inst: inst.weights,
    "bkns": lambda inst: inst.weights,
    "sksp": lambda inst: [it.expected_weight for it in inst.items],
    "hm": lambda h: h.weights,
    "ufp": lambda net: [w for _, _, w in net.demands],
}


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_packing_view_gives_the_format_weights_and_item_count(alg):
    inst = _scheme_instance(alg)
    view = SCHEMES[alg].packing(inst)
    weights = FORMAT_WEIGHTS[alg](inst)
    assert view.weights == tuple(weights)
    assert view.n == len(weights)
    assert SCHEMES[alg].strengthen == (alg in ("kcspip", "bkns"))


def test_x_length_is_checked():
    inst = gen_gap_instance(2)
    with pytest.raises(ValidationError, match="length"):
        empirical_ratio(ExperimentSpec("kcspip", inst, 10, 0), x=[0.5])


def test_an_x_that_exceeds_a_row_is_noted():
    # rows 0 and 1 carry loads 1.5 and 1.0 at x = 1 against capacity 1
    inst = make_instance([1.0, 1.0], [1.0, 1.0],
                         [[(0, 1.0), (1, 0.5)], [(0, 0.5), (1, 0.5)]])
    report = empirical_ratio(ExperimentSpec("kcspip", inst, 64, 0),
                             x=[1.0, 1.0])
    assert report.notes == ("x exceeds row 0 of the packing view by 0.5; "
                            "the floors assume a feasible x",)


# Parameters that keep each scheme's set-up small.
SMALL_PARAMS = {"kcspip": {}, "bkns": {}, "hm": {},
                "sksp": {"T": 2, "sim_budget": 2_000},
                "ufp": {"alpha": 0.1, "sim_budget": 2_000}}


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_a_feasible_x_adds_no_note(alg):
    # The LP solution is a vertex up to solver dust; given as x, it must
    # read as feasible, and so must the same point with more dust added
    # to its positive entries (dust on a zero gives sksp a target its
    # pool cannot see).
    inst = _scheme_instance(alg)
    view = SCHEMES[alg].packing(inst)
    x = np.array(solve_packing_lp(view, strengthen=SCHEMES[alg].strengthen).x)
    spec = ExperimentSpec(alg, inst, 64, 3, params=SMALL_PARAMS[alg])
    default = empirical_ratio(spec)
    assert report_to_json(empirical_ratio(spec, x=x)) == report_to_json(default)
    dust = np.where(x > 0.0, 1e-9, 0.0)
    dusty = empirical_ratio(spec, x=np.minimum(x + dust, 1.0))
    assert dusty.notes == default.notes
    assert not any(note.startswith("x exceeds") for note in default.notes)


def test_hm_checks_the_hypergraph_when_x_is_given():
    h = Hypergraph(m=2, edges=(((0, 7), 1.0), ((1, 1), -3.0)))
    with pytest.raises(ValidationError, match="out of range"):
        empirical_ratio(ExperimentSpec("hm", h, 10, 0), x=[0.5, 0.5])


# ---------------------------------------------------------------------------
# Report serialization

def make_report():
    inst = gen_gap_instance(2)
    return empirical_ratio(ExperimentSpec("kcspip", inst, 512, seed=2))


def test_report_json_round_trip(tmp_path):
    report = make_report()
    path = tmp_path / "report.json"
    write_report_json(report, path)
    loaded = json.loads(path.read_text())
    assert loaded == report_to_dict(report)
    assert loaded["algorithm"] == "kcspip"
    assert len(loaded["items"]) == 3


def test_report_sink_writes_on_run(tmp_path):
    inst = gen_gap_instance(2)
    path = tmp_path / "sunk.json"
    report = empirical_ratio(
        ExperimentSpec("kcspip", inst, 256, seed=2, sink=str(path)))
    assert json.loads(path.read_text()) == report_to_dict(report)


def reference_report_json(r):
    """The serialisation through dataclasses.asdict, a deep copy."""
    d = dataclasses.asdict(r)
    d["items"] = list(d["items"])
    d["notes"] = list(d["notes"])
    return json.dumps(d, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_report_json_matches_the_asdict_bytes(alg):
    # x_0 = 0 gives a None ratio; x = 1/2 elsewhere exceeds some row, so
    # the report carries notes; compare_opt attaches opt_value.
    inst = _scheme_instance(alg)
    n = SCHEMES[alg].packing(inst).n
    params = dict(SMALL_PARAMS[alg])
    if alg in ("kcspip", "bkns"):
        params["compare_opt"] = True
    report = empirical_ratio(ExperimentSpec(alg, inst, 256, 4, params=params),
                             x=[0.0] + [0.5] * (n - 1))
    assert report.items[0].ratio is None
    assert report.notes
    assert (report.opt_value is not None) == ("compare_opt" in params)
    assert report_to_json(report) == reference_report_json(report)
    assert report_to_dict(report) == json.loads(reference_report_json(report))


def test_report_csv_fields(tmp_path):
    report = make_report()
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,x,frequency,std_err,analytic_floor,ratio"
    assert len(lines) == 1 + len(report.items)
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == report.items[0].x


@pytest.mark.parametrize("alg, instance", [
    ("kcspip", gen_gap_instance(2)),
    ("hm", gen_random_hypergraph(8, 10, 3, seed=8)),
])
def test_report_csv_cells_parse_as_numbers(alg, instance, tmp_path):
    # Every cell reads back with float(); only a ratio cell may be empty.
    report = empirical_ratio(ExperimentSpec(alg, instance, 512, seed=2))
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    rows = path.read_text().strip().splitlines()[1:]
    assert len(rows) == len(report.items)
    for row, it in zip(rows, report.items):
        cells = row.split(",")
        assert [float(c) for c in cells[:5]] == [
            it.index, it.x, it.frequency, it.std_err, it.floor]
        if it.ratio is None:
            assert cells[5] == ""
        else:
            assert float(cells[5]) == it.ratio
    assert type(report.min_ratio) is float


def test_format_report_is_printable():
    text = format_report(make_report())
    assert "algorithm=kcspip" in text
    assert "min_ratio=" in text
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# Memoized trials and the trend summary

def test_memoized_trials_match_exact_marginals():
    inst = gen_gap_instance(2)
    x = solve_packing_lp(inst, strengthen=True).x
    params = KcsParams.defaults(instance_k(inst))
    exact = exact_inclusion_probabilities(inst, x, params)
    trials = 200_000
    counts = mc_inclusion_kcspip(inst, x, params, trials, seed=13)
    for j in range(inst.n):
        freq = counts[j] / trials
        assert freq == pytest.approx(
            float(exact[j]), abs=4 * binomial_stderr(float(exact[j]), trials))


def test_memoized_trials_guardrails():
    inst = gen_random_kcs(n=17, m=8, k=2, seed=0)
    params = KcsParams.defaults(2)
    with pytest.raises(SizeError):
        mc_inclusion_kcspip(inst, [0.1] * 17, params, 10, seed=0)
    small = gen_gap_instance(2)
    spread = KcsParams.defaults(2, epsilon=0.5)
    with pytest.raises(ValidationError, match="deterministic"):
        mc_inclusion_kcspip(small, [0.5] * 3, spread, 10, seed=0)
    with pytest.raises(ParamError):
        mc_inclusion_kcspip(small, [0.5] * 3, KcsParams.defaults(2), 0, seed=0)


def test_ratio_trend_rows():
    rows = kcspip_ratio_trend(ks=(2, 3), trials=512, seed=0)
    assert [r["k"] for r in rows] == [2, 3]
    for r in rows:
        assert r["n"] == 2 * r["k"] - 1
        assert r["violations"] == 0
        assert r["min_ratio"] is not None
        assert r["min_ratio"] <= r["mean_ratio"]

"""The benchmark's checks must be able to fail.

Each test hands a check a right answer, which must pass, and a wrong
one, which must be rejected.  Run with

    python3 -m pytest perfbench/test_checks.py
"""

import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from layers import PER_LAYER  # noqa: E402

# rows 0 and 1, capacity 1; items 0 and 1 are big on row 0
KCS = {"n": 3, "m": 2, "k": 2, "capacities": [1.0, 1.0],
       "weights": [1.0, 0.8, 0.5],
       "columns": [[[0, 0.6], [1, 0.3]], [[0, 0.7]], [[1, 0.4]]]}
HYPER = {"m": 4, "edges": [{"vertices": [0, 1], "weight": 1.0},
                           {"vertices": [1, 2], "weight": 1.0},
                           {"vertices": [3], "weight": 0.5}]}
TREE = {"parent": [-1, 0, 0, 1], "root": 0, "edgeCapacity": [1, 1, 1, 1],
        "demands": [{"s": 3, "t": 2, "w": 1.0}, {"s": 1, "t": 0, "w": 1.0}]}
SKSP = {"m": 2, "k": 2, "capacities": [1, 1],
        "items": [{"support": [0, 1], "scenarios": [[1.0, 1.0, [1, 1]]]},
                  {"support": [0], "scenarios": [[1.0, 1.0, [1]]]}]}


def report(freqs, xs, trials=10_000, notes=(), violations=0):
    return {"trials": trials, "feasibility_violations": violations,
            "notes": list(notes),
            "items": [{"index": j, "x": x, "frequency": f}
                      for j, (f, x) in enumerate(zip(freqs, xs))]}


def reference_lp(relaxation):
    from scipy.optimize import linprog
    c, A, b = relaxation
    res = linprog(-c, A_ub=A, b_ub=b, bounds=(0, 1), method="highs")
    return res.x, -res.fun


@pytest.mark.parametrize("family, d", [("kcs", KCS), ("hyper", HYPER),
                                       ("tree", TREE), ("sksp", SKSP)])
def test_lp_check_rejects_perturbed_solution(family, d):
    relaxation = checks.RELAXATIONS[family](d)
    x, obj = reference_lp(relaxation)
    assert checks.check_lp(relaxation, x, obj) == []
    bumped = x.copy()
    bumped[0] += 0.05 if bumped[0] < 0.95 else -0.05
    c = relaxation[0]
    assert checks.check_lp(relaxation, bumped, float(c @ bumped))
    assert checks.check_lp(relaxation, x, obj * 1.01)


def test_strengthened_rows_are_rebuilt():
    c, A, b = checks.kcs_relaxation(KCS)
    # one extra row for row 0, which holds two coefficients above 1/2
    assert A.shape == (3, 3) and list(A[2]) == [1.0, 1.0, 0.0]
    x_plain = np.array([1.0, 1.0, 1.0])   # fits no row of the strengthened LP
    assert checks.check_lp((c, A, b), x_plain, float(c @ x_plain))


def test_kcspip_and_bkns_reject_a_frequency_above_the_bound():
    x = [1.0, 0.5, 0.0]
    for alg, bounds in (("kcspip", checks.kcspip_bounds(KCS, x)),
                        ("bkns", checks.bkns_bounds(KCS, x))):
        assert checks.check_report(alg, KCS, report(bounds, x), 10_000, {}) == []
        high = [bounds[0] * 1.3, bounds[1], 0.0]
        assert checks.check_report(alg, KCS, report(high, x), 10_000, {})
        # an item the LP never uses cannot be output at all
        assert checks.check_report(alg, KCS, report(bounds[:2] + [1e-4], x),
                                   10_000, {})


def test_kcspip_bound_uses_the_default_palette():
    # k = 2: alpha = 2^0.4 < e, so d = ceil(alpha) = 2 and the palette is 5
    alpha = 2 ** 0.4
    assert checks.kcspip_bounds(KCS, [1.0])[0] == pytest.approx(alpha / 2 / 5)


def test_sksp_rejects_a_frequency_off_its_target():
    params = {"sim_budget": 100_000, "chances": 2}
    x = [1.0, 0.6]
    gamma = checks.sksp_gamma(2, 2)
    assert gamma == pytest.approx(0.5)   # beta = (1/2, 0) at k = 2
    target = [gamma * v / 2 for v in x]
    assert checks.check_report("sksp", SKSP, report(target, x), 10_000, params) == []
    over = [target[0] * 1.15, target[1]]
    assert checks.check_report("sksp", SKSP, report(over, x), 10_000, params)
    under = [target[0] * 0.85, target[1]]
    assert checks.check_report("sksp", SKSP, report(under, x), 10_000, params)
    # a noted clamp excuses falling short, never overshooting
    note = "attenuation clamped at 1 (chance, item) pairs: [(0, 0)]"
    assert checks.check_report("sksp", SKSP, report(under, x, notes=[note]),
                               10_000, params) == []
    assert checks.check_report("sksp", SKSP, report(over, x, notes=[note]),
                               10_000, params)


def test_ufp_rejects_a_frequency_off_its_target():
    params = {"alpha": 0.1, "sim_budget": 100_000}
    x = [1.0, 0.5]
    ab = 0.1 * checks.ufp_beta(0.1)
    target = [ab * v for v in x]
    assert checks.check_report("ufp", TREE, report(target, x), 10_000, params) == []
    assert checks.check_report("ufp", TREE, report([target[0] * 1.5, target[1]], x),
                               10_000, params)


def test_hm_rejects_frequencies_outside_its_bounds():
    x = [0.5, 0.5, 1.0]
    lower, upper = checks.hm_bounds(HYPER, x)
    g = 0.5 * 0.75
    assert upper[0] == pytest.approx(g)
    assert lower[0] == pytest.approx(g * (1 - g / 2))   # one neighbour
    assert lower[2] == pytest.approx(upper[2])          # no neighbour
    mid = [(lo + hi) / 2 for lo, hi in zip(lower, upper)]
    assert checks.check_report("hm", HYPER, report(mid, x), 10_000, {}) == []
    assert checks.check_report("hm", HYPER, report([upper[0] * 1.2] + mid[1:], x),
                               10_000, {})
    assert checks.check_report("hm", HYPER, report([lower[0] * 0.8] + mid[1:], x),
                               10_000, {})


def test_report_level_checks():
    x = [0.0, 0.0, 0.0]
    ok = report([0.0] * 3, x)
    assert checks.check_report("bkns", KCS, ok, 10_000, {}) == []
    assert checks.check_report("bkns", KCS, report([0.0] * 3, x, violations=1),
                               10_000, {})
    assert checks.check_report("bkns", KCS, ok, 20_000, {})


def test_infeasible_outputs_are_rejected():
    assert checks.kcs_overloads(KCS, [frozenset({0}), frozenset({0, 2})]) == []
    assert checks.kcs_overloads(KCS, [frozenset({0, 1})])
    assert checks.matching_conflicts(HYPER, [frozenset({0, 2})]) == []
    assert checks.matching_conflicts(HYPER, [frozenset({0, 1})])
    assert checks.tree_paths(TREE) == [[3, 1, 2], [1]]
    assert checks.routing_overloads(TREE, [frozenset({0})]) == []
    assert checks.routing_overloads(TREE, [frozenset({0, 1})])
    good = SimpleNamespace(added_chance=(0, -1), usage=(1, 1))
    over = SimpleNamespace(added_chance=(0, 0), usage=(2, 1))
    phantom = SimpleNamespace(added_chance=(-1, 0), usage=(1, 1))
    assert checks.sksp_overloads(SKSP, [good]) == []
    assert checks.sksp_overloads(SKSP, [over])
    assert checks.sksp_overloads(SKSP, [phantom])


def test_benchmark_json_lists_what_the_benchmark_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == PER_LAYER
    import run
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} == {"trials", "pools", "lp"}
    assert all(math.isfinite(m["bound"]) for m in spec["end_to_end"])

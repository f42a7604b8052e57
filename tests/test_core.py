"""Instance model: validation, feasibility, JSON round-trips."""

import json

import numpy as np
import pytest

from sparsepack import core
from sparsepack.core import (FEAS_TOL, check_feasible, column_sparsity,
                             instance_from_dict, instance_to_dict,
                             load_instance, make_instance, objective_value,
                             require_valid, save_instance, usage_vector,
                             validate_instance)
from sparsepack.errors import ValidationError


def test_make_instance_normalizes_types():
    inst = make_instance([1, 2], [3, 4], [[(0, 1)], [(1, 0.5)]], k=1)
    assert inst.n == 2
    assert inst.m == 2
    assert inst.capacities == (1.0, 2.0)
    assert inst.weights == (3.0, 4.0)
    assert inst.columns == (((0, 1.0),), ((1, 0.5),))
    assert inst.k == 1


def test_validate_accepts_clean_instance(tiny_instance):
    assert validate_instance(tiny_instance).ok


@pytest.mark.parametrize("mutation, fragment", [
    (dict(capacities=[0.5, 1.0]), "below 1"),
    (dict(weights=[-1.0, 2.0, 3.0]), "negative"),
    (dict(columns=[[(0, 1.5)], [(0, 0.4), (1, 0.6)], [(0, 0.01)]]), "outside (0,1]"),
    (dict(columns=[[(0, 0.9), (0, 0.1)], [(1, 0.6)], [(0, 0.01)]]), "repeats a row"),
    (dict(columns=[[(5, 0.9)], [(1, 0.6)], [(0, 0.01)]]), "out of range"),
    (dict(k=1), "declared k=1"),
])
def test_validate_flags_defects(tiny_instance, mutation, fragment):
    base = dict(
        capacities=list(tiny_instance.capacities),
        weights=list(tiny_instance.weights),
        columns=[list(c) for c in tiny_instance.columns],
        k=tiny_instance.k,
    )
    base.update(mutation)
    inst = make_instance(**base)
    report = validate_instance(inst)
    assert not report.ok
    assert any(fragment in v for v in report.violations)


def test_require_valid_raises_with_message():
    inst = make_instance([0.5], [1.0], [[(0, 1.0)]])
    with pytest.raises(ValidationError, match="below 1"):
        require_valid(inst)


@pytest.mark.parametrize("capacities, weights", [
    ([float("inf")], [1.0]),
    ([1.0], [float("inf")]),
])
def test_validate_rejects_infinite_capacity_or_weight(capacities, weights):
    # inf passes `>= 1` and `>= 0`; the LP would run on it and write an
    # objective that is not JSON.
    inst = make_instance(capacities, weights, [[(0, 0.5)]])
    report = validate_instance(inst)
    assert any("not finite" in v for v in report.violations)


def test_validation_runs_once_per_instance(monkeypatch):
    inst = make_instance([0.5], [1.0], [[(0, 1.0)]])
    assert validate_instance(inst) is validate_instance(inst)
    # require_valid looks validate_instance up at call time, so a wrapper
    # put on the module sees every check.
    seen = []
    monkeypatch.setattr(core, "validate_instance",
                        lambda i: seen.append(i) or i.validation)
    with pytest.raises(ValidationError, match="below 1"):
        require_valid(inst)
    assert seen == [inst]


def test_big_rows_lists_rows_above_one_half():
    inst = make_instance(
        [1.0, 1.0, 1.0], [1.0] * 3,
        [[(0, 0.5)], [(2, 1.0), (0, 0.51), (1, 0.2)], []],
    )
    assert inst.big_rows == ((), (2, 0), ())   # 1/2 itself is not big
    assert inst.big_rows is inst.big_rows


def test_coefficient_lookup(tiny_instance):
    assert tiny_instance.coefficient(0, 1) == 0.4
    assert tiny_instance.coefficient(1, 0) == 0.0


def test_column_sparsity(tiny_instance):
    assert column_sparsity(tiny_instance) == 2
    assert column_sparsity(make_instance([], [], [])) == 0


def test_usage_vector_sums_coefficients(tiny_instance):
    u = usage_vector(tiny_instance, {0, 1})
    assert np.allclose(u, [1.3, 0.6])


def test_check_feasible_respects_tolerance(tiny_instance):
    assert check_feasible(tiny_instance, set())
    assert check_feasible(tiny_instance, {0, 2})  # 0.91 on row 0
    assert not check_feasible(tiny_instance, {0, 1})  # 1.3 on row 0
    exact = make_instance([1.0], [1.0, 1.0], [[(0, 0.5)], [(0, 0.5)]])
    assert check_feasible(exact, {0, 1})  # load 1.0 == capacity
    over = make_instance([1.0], [1.0, 1.0], [[(0, 0.5)], [(0, 0.5 + 10 * FEAS_TOL)]])
    assert not check_feasible(over, {0, 1})


def test_check_feasible_rejects_unknown_item(tiny_instance):
    with pytest.raises(ValidationError, match="out of range"):
        check_feasible(tiny_instance, {7})


def test_objective_value(tiny_instance):
    assert objective_value(tiny_instance, {0, 2}) == 4.0
    assert objective_value(tiny_instance, set()) == 0.0


def test_json_round_trip(tiny_instance, tmp_path):
    path = tmp_path / "inst.json"
    save_instance(tiny_instance, path)
    again = load_instance(path)
    assert again == tiny_instance


def test_dict_round_trip_without_k(unit_conflict_instance):
    d = instance_to_dict(unit_conflict_instance)
    assert instance_from_dict(d) == unit_conflict_instance
    d2 = instance_to_dict(make_instance([1.0], [1.0], [[(0, 1.0)]]))
    assert "k" not in d2


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"capacities": [1.0]}))
    with pytest.raises(ValidationError, match="malformed"):
        load_instance(path)


def test_load_rejects_inconsistent_header(tmp_path, tiny_instance):
    d = instance_to_dict(tiny_instance)
    d["n"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValidationError, match="disagree"):
        load_instance(path)


# A clean instance dict, and edits of what the loader used to coerce:
# (path into the dict, value, the refusal).
KCS_DICT = {"n": 2, "m": 2, "k": 2, "capacities": [1.0, 2], "weights": [1.0, 3],
            "columns": [[[0, 1.0]], [[0, 0.5], [1, 1]]]}


@pytest.mark.parametrize("path, value, refusal", [
    (("columns", 0, 0, 0), 0.9, "column row=0.9 is not a JSON integer"),
    (("columns", 1, 1, 1), "1", "coefficient='1' is not a JSON number"),
    (("weights", 1), "2", "weight='2' is not a JSON number"),
    (("capacities", 0), True, "capacity=True is not a JSON number"),
    (("k",), "2", "k='2' is not a JSON integer"),
    (("m",), 2.0, "m=2.0 is not a JSON integer"),
])
def test_load_refuses_what_it_used_to_coerce(path, value, refusal, edited):
    # row 0.9 used to load as row 0, weight "2" as 2.0, capacity true
    # as 1.0
    with pytest.raises(ValidationError, match=refusal):
        instance_from_dict(edited(KCS_DICT, path, value))


def test_load_takes_json_integers_as_numbers():
    inst = instance_from_dict(KCS_DICT)
    assert inst.capacities == (1.0, 2.0) and inst.weights == (1.0, 3.0)
    assert inst.columns == (((0, 1.0),), ((0, 0.5), (1, 1.0)))
    assert type(inst.columns[1][1][1]) is float
    assert instance_from_dict(dict(KCS_DICT, k=None)).k is None

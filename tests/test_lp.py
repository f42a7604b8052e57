"""Simplex solver and the two packing relaxations.

The independent oracle here enumerates candidate vertices of the
polytope {D x <= f, x >= 0}: every choice of n constraints taken tight
gives a linear system, and the optimum of a bounded nonempty LP sits at
one of the feasible solutions among them.
"""

import hashlib
import itertools

import numpy as np
import pytest

from sparsepack.core import make_instance, require_valid
from sparsepack.errors import InternalInvariantError, UnboundedError
from sparsepack.harness import (gen_gap_instance, gen_random_hypergraph,
                                gen_random_kcs, hypergraph_lp_instance)
from sparsepack.lp import build_relaxation, simplex_maximize, solve_packing_lp


def vertex_enumeration_opt(c, D, f):
    """Exact LP optimum by brute force over tight-constraint subsets."""
    r, n = D.shape
    rows = np.vstack([D, -np.eye(n)])
    rhs = np.concatenate([f, np.zeros(n)])
    best = 0.0  # x = 0 is always feasible for these programs
    for idx in itertools.combinations(range(len(rows)), n):
        A = rows[list(idx)]
        try:
            v = np.linalg.solve(A, rhs[list(idx)])
        except np.linalg.LinAlgError:
            continue
        if np.all(rows @ v <= rhs + 1e-9):
            best = max(best, float(c @ v))
    return best


def test_simplex_textbook_example():
    # max 3x + 2y subject to x + y <= 4, x <= 2
    x, obj = simplex_maximize([3.0, 2.0], [[1.0, 1.0], [1.0, 0.0]], [4.0, 2.0])
    assert obj == pytest.approx(10.0, abs=1e-9)
    assert np.allclose(x, [2.0, 2.0], atol=1e-9)


def test_simplex_detects_unbounded():
    with pytest.raises(UnboundedError):
        simplex_maximize([1.0], [[0.0]], [1.0])


def test_simplex_is_deterministic():
    c = [1.0, 1.0, 1.0]
    D = [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]
    f = [1.0, 1.0]
    first = simplex_maximize(c, D, f)
    second = simplex_maximize(c, D, f)
    assert np.array_equal(first[0], second[0])
    assert first[1] == second[1]


@pytest.mark.parametrize("strengthen", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_simplex_matches_vertex_enumeration(seed, strengthen):
    inst = gen_random_kcs(n=4, m=3, k=2, seed=seed)
    c, D, f = build_relaxation(inst, strengthen)
    _, obj = simplex_maximize(c, D, f)
    assert obj == pytest.approx(vertex_enumeration_opt(c, D, f), abs=1e-7)


@pytest.mark.parametrize("seed", range(8))
def test_strengthened_never_beats_plain(seed):
    inst = gen_random_kcs(n=6, m=4, k=3, seed=seed)
    plain = solve_packing_lp(inst, strengthen=False)
    strong = solve_packing_lp(inst, strengthen=True)
    assert strong.objective <= plain.objective + 1e-9


def test_relaxations_agree_without_big_entries():
    inst = require_valid(make_instance(
        [1.0, 1.0],
        [2.0, 1.0, 1.0],
        [[(0, 0.5)], [(0, 0.3), (1, 0.5)], [(1, 0.4)]],
    ))
    plain = solve_packing_lp(inst, strengthen=False)
    strong = solve_packing_lp(inst, strengthen=True)
    assert strong.objective == pytest.approx(plain.objective, abs=1e-9)


def test_strengthening_closes_big_item_gap():
    # Two items at 0.6 on a unit row: the plain relaxation packs 5/3
    # fractional units, the unit-bound row caps them at one.
    inst = make_instance([1.0], [1.0, 1.0], [[(0, 0.6)], [(0, 0.6)]])
    plain = solve_packing_lp(inst, strengthen=False)
    strong = solve_packing_lp(inst, strengthen=True)
    assert plain.objective == pytest.approx(5.0 / 3.0, abs=1e-9)
    assert strong.objective == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_gap_instance_has_symmetric_optimum(k):
    inst = gen_gap_instance(k)
    eps = next(a for _, a in inst.columns[0] if a != 1.0)
    expected = (2 * k - 1) / (1.0 + (k - 1) * eps)
    sol = solve_packing_lp(inst, strengthen=True)
    assert sol.objective == pytest.approx(expected, abs=1e-7)
    assert all(v == pytest.approx(sol.x[0], abs=1e-7) for v in sol.x)


def test_solution_is_feasible_and_boxed():
    inst = gen_random_kcs(n=10, m=5, k=3, seed=3)
    sol = solve_packing_lp(inst)
    x = np.asarray(sol.x)
    assert np.all(x >= -1e-12) and np.all(x <= 1 + 1e-12)
    load = np.zeros(inst.m)
    for j, col in enumerate(inst.columns):
        for i, a in col:
            load[i] += a * x[j]
    assert np.all(load <= np.asarray(inst.capacities) + 1e-7)


@pytest.mark.parametrize("strengthen", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_bounded_simplex_matches_vertex_enumeration_with_box_rows(seed, strengthen):
    # The box 0 <= x <= 1 handled as bounds must give the optimum of the
    # same LP with the box written out as explicit rows.
    inst = gen_random_kcs(n=4, m=3, k=2, seed=seed)
    c, D, f = build_relaxation(inst, strengthen)
    _, obj = simplex_maximize(c, D, f, upper=1.0)
    boxed = vertex_enumeration_opt(c, np.vstack([D, np.eye(inst.n)]),
                                   np.concatenate([f, np.ones(inst.n)]))
    assert obj == pytest.approx(boxed, abs=1e-7)


@pytest.mark.parametrize("c, D, f, upper, expected", [
    # x0 reaches its bound before the row binds: one flip, then x1 pivots in
    ([1.0, 1.0], [[1.0, 1.0]], [1.5], 1.0, [1.0, 0.5]),
    # the row never binds: both optima are flips, no pivot at all
    ([1.0, 2.0], [[1.0, 1.0]], [3.0], 1.0, [1.0, 1.0]),
    # per-variable bounds
    ([1.0, 1.0], [[1.0, 1.0]], [3.0], [0.5, 2.0], [0.5, 2.0]),
])
def test_bounded_simplex_optimum_by_bound_flips(c, D, f, upper, expected):
    x, obj = simplex_maximize(c, D, f, upper=upper)
    assert np.allclose(x, expected, atol=1e-12)
    assert obj == pytest.approx(float(np.dot(c, expected)), abs=1e-12)


def test_bounded_simplex_basic_variable_leaves_at_its_bound():
    # max 2 x0 + x1 s.t. x0 - x1 <= 0.5, x0 + x1 <= 1.8, 0 <= x <= 1.
    # x0 enters on row 0 at 0.5; raising x1 then lifts the basic x0, which
    # leaves at its upper bound 1 before row 1 binds.  Optimum (1, 0.8).
    x, obj = simplex_maximize([2.0, 1.0], [[1.0, -1.0], [1.0, 1.0]],
                              [0.5, 1.8], upper=1.0)
    assert np.allclose(x, [1.0, 0.8], atol=1e-12)
    assert obj == pytest.approx(2.8, abs=1e-12)


def test_bounded_simplex_without_bounds_detects_unbounded():
    c, D, f = [1.0, 1.0], [[1.0, -1.0]], [1.0]
    with pytest.raises(UnboundedError):
        simplex_maximize(c, D, f, upper=None)
    _, obj = simplex_maximize(c, D, f, upper=1.0)
    assert obj == pytest.approx(2.0, abs=1e-12)


def test_solve_packing_lp_rejects_a_point_outside_the_box(monkeypatch):
    # x <= 1 is a bound, not a row of D, so the row check alone would miss
    # a solver that overshoots it.
    inst = gen_random_kcs(n=4, m=3, k=2, seed=0)
    monkeypatch.setattr("sparsepack.lp.simplex_maximize",
                        lambda c, D, f, upper=None: (np.full(len(c), 1.5), 0.0))
    with pytest.raises(InternalInvariantError, match="outside"):
        solve_packing_lp(inst)


@pytest.mark.parametrize("case", ["kcs-strengthened", "kcs-plain", "hypergraph"])
def test_objective_matches_highs(case):
    optimize = pytest.importorskip("scipy.optimize")
    if case == "hypergraph":
        inst = hypergraph_lp_instance(gen_random_hypergraph(40, 90, 3, seed=5))
    else:
        inst = gen_random_kcs(n=60, m=30, k=4, seed=11)
    strengthen = case == "kcs-strengthened"
    c, D, f = build_relaxation(inst, strengthen)
    highs = optimize.linprog(-c, A_ub=D, b_ub=f, bounds=(0.0, 1.0),
                             method="highs")
    assert highs.status == 0
    sol = solve_packing_lp(inst, strengthen=strengthen)
    assert sol.objective == pytest.approx(-highs.fun, rel=1e-9)


def test_beale_cycling_lp_terminates_at_its_optimum():
    # Beale's example: the origin is degenerate in both rows with a zero
    # right-hand side, and largest-coefficient pricing with a lowest-index
    # leaving rule cycles there until the iteration guard trips.  The
    # Bland fallback after a degenerate step must break the cycle.
    c = [0.75, -150.0, 1.0 / 50.0, -6.0]
    D = [[0.25, -60.0, -1.0 / 25.0, 9.0],
         [0.5, -90.0, -1.0 / 50.0, 3.0],
         [0.0, 0.0, 1.0, 0.0]]
    x, obj = simplex_maximize(c, D, [0.0, 0.0, 1.0], upper=None)
    assert obj == pytest.approx(1.0 / 20.0, abs=1e-12)
    assert np.allclose(x, [1.0 / 25.0, 0.0, 1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("case", ["kcs-200", "hypergraph-700"])
def test_objective_matches_highs_on_benchmark_sized_lps(case):
    optimize = pytest.importorskip("scipy.optimize")
    if case == "kcs-200":
        inst = gen_random_kcs(n=200, m=100, k=4, seed=1)
    else:
        inst = hypergraph_lp_instance(gen_random_hypergraph(300, 700, 3, seed=1))
    c, D, f = build_relaxation(inst, strengthen=True)
    highs = optimize.linprog(-c, A_ub=D, b_ub=f, bounds=(0.0, 1.0),
                             method="highs")
    assert highs.status == 0
    sol = solve_packing_lp(inst, strengthen=True)
    assert sol.objective == pytest.approx(-highs.fun, rel=1e-9)


@pytest.mark.parametrize("bad, value", [
    ("f", np.nan), ("D", np.nan), ("c", np.nan), ("D", np.inf)])
def test_simplex_rejects_non_finite_input(bad, value):
    lp = {"c": np.array([1.0, 2.0]), "D": np.array([[1.0, 1.0], [1.0, 0.0]]),
          "f": np.array([1.0, 1.0])}
    lp[bad].flat[0] = value
    with pytest.raises(InternalInvariantError, match="finite"):
        simplex_maximize(lp["c"], lp["D"], lp["f"], upper=1.0)


# sha256 of x.tobytes() and repr(objective) of the solver's raw vertex (no
# clipping, so float dust and signs of zero count) on the LPs of the
# benchmark's `lp` workload: `gen kcs --n 150 --m 75 --k 4` strengthened,
# and `gen hyper --vertices 300 --edges 700 --k 3` through
# hypergraph_lp_instance, plain.
LP_PINS = {
    ("kcs", 1): (
        "2ac1d0055958a7ab0b0984170f3a5b6a23e517041a0061575106a9f9b6fb498d",
        "23.539848598702285"),
    ("kcs", 2): (
        "c9318ef59610bf16f8d0ac0ebe1a900435c82a27dcb4b8f6bc3802e18e80fe06",
        "25.222477214537456"),
    ("hyper", 1): (
        "0bba67f1c08972ad5c5eacf2b28d2a486f3f4207872803c28d22a774807f8041",
        "119.70382714856711"),
    ("hyper", 2): (
        "46cb3f9bfaa875b32ecac5ae2166273835c145df4f661c91faf4a88823234b90",
        "127.98014987979259"),
}


@pytest.mark.parametrize("family, seed", sorted(LP_PINS))
def test_benchmark_lp_vertices_keep_their_bytes(family, seed):
    if family == "kcs":
        c, D, f = build_relaxation(gen_random_kcs(150, 75, 4, seed), True)
    else:
        h = gen_random_hypergraph(300, 700, 3, seed)
        c, D, f = build_relaxation(hypergraph_lp_instance(h), False)
    x, obj = simplex_maximize(c, D, f, upper=1.0)
    digest = hashlib.sha256(x.tobytes()).hexdigest()
    assert (digest, repr(obj)) == LP_PINS[family, seed]

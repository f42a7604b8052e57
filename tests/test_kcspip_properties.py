"""Properties of the coefficient classes on random small instances
(hypothesis): the discard, the conflict digraph and bkns's big-blocking
against their definitions, the digraph's neighbour table against its
out-lists, the strengthening rows, feasibility of every output, and the
sparse feasibility check against the dense one.

Coefficients are drawn with the thresholds 1/2 and 1/ell themselves, and
values just either side of them, over-represented.
"""

import numpy as np
import pytest

from sparsepack.core import (FEAS_TOL, check_feasible, make_instance,
                             usage_vector)
from sparsepack.graphcolor import DiGraph
from sparsepack.kcspip import (BknsRounder, KcsParams, KcsRounder,
                               build_conflict_digraph, discard_blocked)
from sparsepack.lp import build_relaxation
from sparsepack.montecarlo import trial_rng

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ELL = 4
K = 3
COEFFICIENTS = (st.sampled_from([0.5, 1.0 / ELL, 0.51, 0.2499, 1.0])
                | st.floats(0.01, 1.0))


@st.composite
def instances(draw, coefficients=COEFFICIENTS):
    m = draw(st.integers(1, 4))
    columns = [
        [(i, draw(coefficients)) for i in rows]
        for rows in draw(st.lists(
            st.lists(st.integers(0, m - 1), max_size=min(m, K), unique=True),
            min_size=1, max_size=8))
    ]
    capacities = draw(st.lists(st.sampled_from([1.0, 1.5]),
                               min_size=m, max_size=m))
    return make_instance(capacities, [1.0] * len(columns), columns, k=K)


def item_sets(inst):
    return st.frozensets(st.integers(0, inst.n - 1))


def definition_arcs(inst, items):
    """Arcs (t, u) over sorted(items): some row holds a_ij > 0 and
    a_ij' > 1/2, for j the t-th and j' the u-th item."""
    items = sorted(items)
    arcs = set()
    for t, j in enumerate(items):
        for u, jp in enumerate(items):
            if jp != j and any(i == ip and a > 0 and ap > 0.5
                               for i, a in inst.columns[j]
                               for ip, ap in inst.columns[jp]):
                arcs.add((t, u))
    return arcs


@hypothesis.given(st.data())
def test_conflict_digraph_matches_its_definition(data):
    inst = data.draw(instances())
    survivors = data.draw(item_sets(inst))
    g = build_conflict_digraph(inst, survivors)
    assert g.n == len(survivors)
    got = {(v, u) for v, nbrs in enumerate(g.out) for u in nbrs}
    assert got == definition_arcs(inst, survivors)


def reference_discard(inst, sampled, ell):
    """The discard with a medium count and a soft load on every row, each
    summed over the items in the order `sampled` lists them."""
    lo = 1.0 / ell
    count = [0] * inst.m
    load = [0.0] * inst.m
    for j in sampled:
        for i, a in inst.columns[j]:
            if a <= 0.5:
                count[i] += a >= lo
                load[i] += a

    def blocked(j):
        return any(count[i] >= 3 if a >= lo else count[i] >= 2 or load[i] > 1.0
                   for i, a in inst.columns[j] if a <= 0.5)

    return frozenset(j for j in sampled if not blocked(j))


@hypothesis.given(st.data())
def test_discard_equals_the_every_row_reference(data):
    # eighths put tiny items (below 1/ELL) on rows whose loads sum to
    # exactly 1, where the strict "> 1" decides
    eighths = st.sampled_from([0.125, 0.25, 0.375, 0.5, 0.625])
    inst = data.draw(instances() | instances(eighths))
    sampled = data.draw(item_sets(inst))
    assert discard_blocked(inst, sampled, ell=ELL) == reference_discard(
        inst, sampled, ELL)


@hypothesis.given(st.data())
def test_conflict_digraph_fills_the_neighbour_table_of_its_out_lists(data):
    inst = data.draw(instances())
    survivors = data.draw(item_sets(inst))
    g = build_conflict_digraph(inst, survivors)
    # a digraph given only the out-lists builds the table from them
    assert g.neighbours == DiGraph(g.n, g.out).neighbours


@hypothesis.given(st.data())
def test_bkns_drops_the_survivors_with_an_out_arc(data):
    inst = data.draw(instances())
    sampled = data.draw(item_sets(inst))
    # x_j = 1 at alpha = k samples exactly `sampled`
    x = [1.0 if j in sampled else 0.0 for j in range(inst.n)]
    chosen = BknsRounder(inst, x, alpha=float(K), ell=ELL).trial(trial_rng(0, 0))
    survivors = discard_blocked(inst, sampled, ell=ELL)
    items = sorted(survivors)
    tails = {items[t] for t, _ in definition_arcs(inst, survivors)}
    assert chosen <= survivors
    assert survivors - chosen == tails


@hypothesis.given(instances())
def test_strengthening_adds_one_row_per_row_with_a_big_entry(inst):
    _, D, f = build_relaxation(inst, strengthen=True)
    _, D0, f0 = build_relaxation(inst, strengthen=False)
    bigs = [{j for j, col in enumerate(inst.columns)
             for i2, a in col if i2 == i and a > 0.5}
            for i in range(inst.m)]
    bigs = [b for b in bigs if b]
    m = inst.m
    assert D.shape == (m + len(bigs), inst.n)
    assert np.array_equal(D[:m], D0) and np.array_equal(f[:m], f0)
    for r, big in enumerate(bigs):
        assert set(np.flatnonzero(D[m + r]).tolist()) == big
        assert np.all(D[m + r, sorted(big)] == 1.0)
        assert f[m + r] == 1.0


@hypothesis.given(st.data())
def test_every_rounder_output_is_feasible(data):
    inst = data.draw(instances())
    x = data.draw(st.lists(st.floats(0.0, 1.0), min_size=inst.n,
                           max_size=inst.n))
    alpha = data.draw(st.sampled_from([1.0, 2.0, float(K)]))
    d = data.draw(st.integers(1, 3))
    rounders = [KcsRounder(inst, x, KcsParams(alpha=alpha, ell=ELL, d=d,
                                              epsilon=epsilon))
                for epsilon in (None, 0.5)]
    rounders.append(BknsRounder(inst, x, alpha=alpha, ell=ELL))
    rng = trial_rng(data.draw(st.integers(0, 2**16)), 0)
    for rounder in rounders:
        for _ in range(20):
            assert check_feasible(inst, rounder.trial(rng))


@hypothesis.given(st.data())
def test_check_feasible_equals_the_dense_check(data):
    # Quarters sum to the capacities 1 and 1.5 exactly, so loads that
    # sit right at capacity are drawn often.
    quarters = st.sampled_from([0.25, 0.5, 0.75, 1.0])
    inst = data.draw(instances() | instances(quarters))
    chosen = data.draw(item_sets(inst))
    load = usage_vector(inst, chosen)
    # the same instance with each overloaded row's capacity raised to its
    # load, so those rows sit exactly at capacity
    tight = make_instance(np.maximum(load, inst.capacities), inst.weights,
                          inst.columns, k=inst.k)
    # capacities below 1, which validation refuses, so that one entry
    # alone can overfill its row
    low = make_instance(np.full(inst.m, 0.4), inst.weights, inst.columns,
                        k=inst.k)
    for case in (inst, tight, low):
        dense = load <= np.asarray(case.capacities) + FEAS_TOL
        assert check_feasible(case, chosen) == bool(np.all(dense))

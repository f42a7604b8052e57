"""The ufp trial and safety pool against plain per-demand references, on
random trees, x and safety tables, and the tree's one parent walk
against step-by-step walks, on random parent arrays (hypothesis).

Safety tables include zeros, whose NaN keep must raise EstimateError
only in a trial that reaches the demand; the pool is also checked at
its boundaries (a demand never sampled, a one-run pool, a zero
estimate from the pool itself).
"""

import math

import numpy as np
import pytest

from sparsepack.errors import EstimateError
from sparsepack.montecarlo import trial_rng
from sparsepack.ufptree import (ALPHA_CAP, UfpCrScheme, UfpParams, make_tree,
                                validate_tree)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TRIALS = 40


@st.composite
def trees(draw):
    nv = draw(st.integers(2, 9))
    parent = [-1] + [draw(st.integers(0, v - 1)) for v in range(1, nv)]
    caps = [1] + draw(st.lists(st.integers(1, 2), min_size=nv - 1,
                               max_size=nv - 1))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1))
        .filter(lambda p: p[0] != p[1]), min_size=1, max_size=10))
    return make_tree(parent, 0, caps, [(s, t, 1.0) for s, t in pairs])


def params():
    return st.builds(UfpParams, st.floats(0.01, ALPHA_CAP * 0.999),
                     st.integers(1, 3000))


def reference_trial(scheme, rng):
    """The per-demand router: sampling draws, then keep coins."""
    net = scheme.net
    sampled = rng.random(net.n_demands) < scheme.params.alpha * scheme.x
    coins = rng.random(net.n_demands)
    usage = [0] * net.n_vertices
    routed = []
    for i in scheme.order:
        if not sampled[i]:
            continue
        path = net.demand_paths[i][1]
        if any(usage[v] >= net.edge_capacity[v] for v in path):
            continue
        if math.isnan(scheme.keep[i]):
            raise EstimateError(f"demand {i} reached with a zero estimate")
        if coins[i] < scheme.keep[i]:
            routed.append(i)
            for v in path:
                usage[v] += 1
    return frozenset(routed)


def reference_pool(scheme, rng):
    """eta and keep from B runs of the reference router, each demand's
    safety read just before its own keep coin.  Demand by demand in
    processing order, the runs that sample demand i are a
    Binomial(B, alpha x_i) count of distinct runs, drawn uniformly and
    sorted, and each takes one keep coin."""
    net = scheme.net
    B = scheme.params.sim_budget
    usage = np.zeros((B, net.n_vertices), dtype=np.int64)
    caps = np.asarray(net.edge_capacity)
    eta, keep = np.zeros(net.n_demands), np.zeros(net.n_demands)
    beta = scheme.params.beta
    for i in scheme.order:
        count = rng.binomial(B, scheme.params.alpha * scheme.x[i])
        runs = np.sort(rng.choice(B, count, replace=False, shuffle=False))
        sampled, coins = np.zeros(B, dtype=bool), np.ones(B)
        sampled[runs] = True
        coins[runs] = rng.random(count)
        path = list(net.demand_paths[i][1])
        safe = (usage[:, path] < caps[path]).all(axis=1)
        eta[i] = float(safe.mean())
        keep[i] = np.nan if eta[i] <= 0 else min(1.0, beta / eta[i])
        routed = sampled & safe & (coins < keep[i])
        usage[np.ix_(routed, path)] += 1
    return eta, keep


def pool_equals_the_reference(net, x, params, seed):
    """The pool on trial_rng(seed, 0) against the reference pool on a
    twin stream: eta and keep bit for bit, and the same end state."""
    rng, twin = trial_rng(seed, 0), trial_rng(seed, 0)
    scheme = UfpCrScheme(net, x, params, rng)
    eta, keep = reference_pool(scheme, twin)
    assert scheme.eta.tobytes() == eta.tobytes()
    np.testing.assert_array_equal(scheme.keep, keep)
    assert rng.bit_generator.state == twin.bit_generator.state
    return scheme


def outcome(route, scheme, rng):
    try:
        return route(scheme, rng)
    except EstimateError:
        return EstimateError


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.data())
def test_trials_equal_the_reference_router(data):
    net = data.draw(trees())
    n = net.n_demands
    x = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    eta = data.draw(st.lists(st.sampled_from([0.0, 0.3, 1.0])
                             | st.floats(0.0, 1.0), min_size=n, max_size=n))
    seed = data.draw(st.integers(0, 2**32 - 1))
    scheme = UfpCrScheme(net, x, data.draw(params()), None, eta=eta)
    rng, twin = trial_rng(seed, 0), trial_rng(seed, 0)
    for _ in range(TRIALS):
        assert (outcome(UfpCrScheme.trial, scheme, rng)
                == outcome(reference_trial, scheme, twin))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(st.data())
def test_pool_equals_the_reference_pool(data):
    net = data.draw(trees())
    n = net.n_demands
    x = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    seed = data.draw(st.integers(0, 2**32 - 1))
    pool_equals_the_reference(net, x, data.draw(params()), seed)


# Demand 0 crosses the unit edge above vertex 1; demand 1 crosses it
# too, then the edge above vertex 2.  Both start at the root, so demand
# 0 goes first.
SHARED_EDGE = make_tree([-1, 0, 1], 0, [1, 1, 5], [(0, 1, 1.0), (0, 2, 1.0)])


def test_a_demand_with_zero_x_samples_no_run():
    scheme = pool_equals_the_reference(SHARED_EDGE, [0.0, 0.7],
                                       UfpParams(0.1, 1_000), 4)
    # demand 0 routes in no run, so nothing blocks demand 1
    assert scheme.eta.tolist() == [1.0, 1.0]


def test_a_one_run_pool_reads_each_eta_as_zero_or_one():
    etas = set()
    for seed in range(40):
        scheme = pool_equals_the_reference(SHARED_EDGE, [1.0, 1.0],
                                           UfpParams(0.1, 1), seed)
        etas.update(scheme.eta.tolist())
    assert etas == {0.0, 1.0}


def test_a_zero_pool_estimate_raises_only_in_a_trial_that_reaches_it():
    # in the one run of seed 10, demand 0 is sampled and kept
    scheme = pool_equals_the_reference(SHARED_EDGE, [1.0, 1.0],
                                       UfpParams(0.1, 1), 10)
    assert scheme.eta.tolist() == [1.0, 0.0] and math.isnan(scheme.keep[1])
    rng, twin = trial_rng(10, 1), trial_rng(10, 1)
    outcomes = [outcome(UfpCrScheme.trial, scheme, rng) for _ in range(400)]
    assert outcomes == [outcome(reference_trial, scheme, twin)
                        for _ in range(400)]
    assert EstimateError in outcomes and frozenset() in outcomes


# ---------------------------------------------------------------------------
# The parent walk: `TreeNetwork.depth` serves paths and acyclicity alike

def reference_walk(parent, root):
    """Per vertex, its steps up to the root, or -1 if the walk leaves the
    vertex range or has not met the root after n steps."""
    n = len(parent)
    out = []
    for u in range(n):
        w, steps = u, 0
        while w != root and steps <= n:
            w = parent[w]
            steps += 1
            if not (0 <= w < n):
                break
        out.append(steps if w == root else -1)
    return out


def reference_depth(parent, root):
    """Depths of a valid tree by chain compression, one walk per chain."""
    depths = [-1] * len(parent)
    depths[root] = 0
    for v in range(len(parent)):
        chain = []
        u = v
        while depths[u] < 0:
            chain.append(u)
            u = parent[u]
        base = depths[u]
        for w in reversed(chain):
            base += 1
            depths[w] = base
    return depths


@st.composite
def parent_arrays(draw):
    """(parent, root): parents anywhere in [-2, n + 1], so self-loops,
    cycles and parents out of range all turn up."""
    nv = draw(st.integers(1, 9))
    parent = draw(st.lists(st.integers(-2, nv + 1), min_size=nv, max_size=nv))
    return parent, draw(st.integers(0, nv - 1))


@st.composite
def rooted_trees(draw):
    """(parent, root) of a valid tree whose labels are shuffled, so the
    root and the parents fall anywhere."""
    nv = draw(st.integers(1, 12))
    order = draw(st.permutations(range(nv)))
    parent = [-1] * nv
    for i in range(1, nv):
        parent[order[i]] = order[draw(st.integers(0, i - 1))]
    return parent, order[0]


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(parent_arrays())
def test_the_unreached_vertex_is_the_first_walk_that_misses_the_root(arr):
    parent, root = arr
    net = make_tree(parent, root, [1] * len(parent), [])
    walk = reference_walk(parent, root)
    assert list(net.depth) == walk
    unreached = [v for v in validate_tree(net).violations
                 if "does not reach the root" in v]
    expect = [f"vertex {walk.index(-1)} does not reach the root"] \
        if -1 in walk else []
    assert unreached == expect


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(rooted_trees())
def test_depths_of_a_valid_tree_are_unchanged(arr):
    parent, root = arr
    net = make_tree(parent, root, [1] * len(parent), [])
    assert validate_tree(net).ok
    assert list(net.depth) == reference_depth(parent, root)

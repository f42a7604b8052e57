"""The ufp trial and safety pool against plain per-demand references, on
random trees, x and safety tables (hypothesis).

Safety tables include zeros, whose NaN keep must raise EstimateError
only in a trial that reaches the demand.
"""

import math

import numpy as np
import pytest

from sparsepack.errors import EstimateError
from sparsepack.montecarlo import attenuation_keep_prob, trial_rng
from sparsepack.ufptree import ALPHA_CAP, UfpCrScheme, UfpParams, make_tree

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
                     st.integers(1, 300))


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
    safety read just before its own keep coin."""
    net = scheme.net
    B = scheme.params.sim_budget
    sampled = rng.random((B, net.n_demands)) < scheme.params.alpha * scheme.x
    coins = rng.random((B, net.n_demands))
    usage = np.zeros((B, net.n_vertices), dtype=np.int64)
    caps = np.asarray(net.edge_capacity)
    eta, keep = np.zeros(net.n_demands), np.zeros(net.n_demands)
    beta = scheme.params.beta
    for i in scheme.order:
        path = list(net.demand_paths[i][1])
        safe = (usage[:, path] < caps[path]).all(axis=1)
        eta[i] = float(safe.mean())
        keep[i] = np.nan if eta[i] <= 0 else attenuation_keep_prob(eta[i], beta)
        routed = sampled[:, i] & safe & (coins[:, i] < keep[i])
        usage[np.ix_(routed, path)] += 1
    return eta, keep


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
    scheme = UfpCrScheme(net, x, data.draw(params()), trial_rng(seed, 0))
    eta, keep = reference_pool(scheme, trial_rng(seed, 0))
    assert scheme.eta.tobytes() == eta.tobytes()
    np.testing.assert_array_equal(scheme.keep, keep)

"""Properties of the marked-edge sweeps and the matching check, against
plain references on random hypergraphs (hypothesis)."""

import itertools

import numpy as np
import pytest

from sparsepack.hypermatch import (HmRounder, _block_sweep, _sweep,
                                   attenuation_g, is_matching,
                                   make_hypergraph)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def hypergraphs(draw):
    """Edges of mixed sizes, single-vertex edges and repeats included."""
    m = draw(st.integers(1, 8))
    edges = draw(st.lists(
        st.lists(st.integers(0, m - 1), min_size=1, max_size=min(m, 4),
                 unique=True),
        min_size=1, max_size=10))
    return make_hypergraph(m, [(vs, 1.0) for vs in edges])


def reference_sweep(h, marked, keys):
    """The greedy pass over every marked edge, in (key, index) order."""
    taken, picked = set(), []
    for _, j in sorted(zip(keys, marked)):
        vs = h.edges[j][0]
        if not any(u in taken for u in vs):
            picked.append(j)
            taken.update(vs)
    return frozenset(picked)


@hypothesis.given(st.data())
def test_sweep_equals_the_reference_greedy(data):
    h = data.draw(hypergraphs())
    marked = data.draw(st.lists(st.integers(0, h.n - 1), unique=True))
    key = st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0.0, 1.0,
                                                         exclude_max=True)
    keys = data.draw(st.lists(key, min_size=len(marked),
                              max_size=len(marked)))
    got = _sweep(h, marked, keys)
    want = reference_sweep(h, marked, keys)
    assert got == want
    # Same insertion order, so a float sum over the set does not move.
    assert list(got) == list(want)
    assert all(type(j) is int for j in got)


def star(k_e, petals=32):
    """The stars of test_09: petals on k_e vertices sharing vertex 0."""
    return make_hypergraph(1 + (k_e - 1) * petals, [
        ([0] + [1 + (k_e - 1) * i + t for t in range(k_e - 1)], 1.0)
        for i in range(petals)])


def split(size, trial, edge):
    """The (trial, edge) pairs of a block as one frozenset per trial."""
    return [frozenset(edge[trial == t].tolist()) for t in range(size)]


def assert_block_equals_sequential(h, x, size, seed):
    rounder = HmRounder(h, x, attenuation_g)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    trial, edge = rounder.trials(rng, size)
    assert split(size, trial, edge) == [rounder.trial(twin) for _ in range(size)]
    assert rng.bit_generator.state == twin.bit_generator.state
    # sorted by trial, then edge
    assert np.all(np.diff(trial * h.n + edge) > 0)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.data())
def test_block_of_trials_equals_sequential_trials(data):
    h = data.draw(hypergraphs())
    degree = max(np.bincount([v for vs, _ in h.edges for v in vs]))
    # 1 / (largest degree) is a fractional matching whose marked edges
    # clash often; a uniform draw clashes more still.
    x = data.draw(st.just([1.0 / degree] * h.n)
                  | st.lists(st.floats(0.0, 1.0), min_size=h.n, max_size=h.n))
    assert_block_equals_sequential(h, x, data.draw(st.integers(0, 40)),
                                   data.draw(st.integers(0, 2**32)))


@pytest.mark.parametrize("k_e", [2, 3, 5])
def test_block_of_trials_equals_sequential_trials_on_stars(k_e):
    assert_block_equals_sequential(star(k_e), [1.0 / 32] * 32, 500, k_e)
    assert_block_equals_sequential(star(k_e), [1.0] * 32, 200, k_e)


@hypothesis.given(st.data())
def test_block_sweep_breaks_key_ties_by_edge_index(data):
    h = data.draw(hypergraphs())
    size = data.draw(st.integers(1, 4))
    marked = [data.draw(st.lists(st.integers(0, h.n - 1), unique=True))
              for _ in range(size)]
    keys = [data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5]),
                               min_size=len(m), max_size=len(m)))
            for m in marked]
    trial = np.repeat(np.arange(size), [len(m) for m in marked])
    edge = np.array([j for m in marked for j in sorted(m)], dtype=np.intp)
    # keys follow their edges into ascending order within each trial
    key = np.array([dict(zip(m, k))[j] for m, k in zip(marked, keys)
                    for j in sorted(m)])
    accept = _block_sweep(h, size, trial, edge, key)
    assert split(size, trial[accept], edge[accept]) == [
        reference_sweep(h, m, k) for m, k in zip(marked, keys)]


@hypothesis.given(st.data())
def test_is_matching_equals_pairwise_disjointness(data):
    h = data.draw(hypergraphs())
    ids = data.draw(st.lists(st.integers(0, h.n - 1), max_size=6))
    pairwise = all(set(h.edges[a][0]).isdisjoint(h.edges[b][0])
                   for a, b in itertools.combinations(ids, 2))
    assert is_matching(h, ids) == pairwise

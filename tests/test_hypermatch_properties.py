"""Properties of the marked-edge sweeps and the matching check, against
plain references on random hypergraphs (hypothesis)."""

import itertools

import numpy as np
import pytest

from sparsepack.harness import HM_BLOCK, _hm_chunk
from sparsepack.hypermatch import (HmRounder, _block_sweep, _sweep,
                                   attenuation_g, hypergraph_lp_instance,
                                   is_matching, make_hypergraph,
                                   matching_weight)

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


# ---------------------------------------------------------------------------
# The hm chunk entry and the single trial, against per-trial references

def parent_trial(rounder, rng):
    """`HmRounder.trial` as it was before its 0- and 1-mark shortcuts:
    it always drew the keys, rng.random(0) included, and always swept."""
    marked = np.nonzero(rng.random(rounder.h.n) < rounder.rates)[0].tolist()
    keys = rng.random(len(marked)).tolist()
    return _sweep(rounder.h, marked, keys)


def reference_weight(h, ids):
    return float(sum(h.weights[j] for j in sorted(ids)))


def overlaps(h, ids):
    return any(not set(h.edges[a][0]).isdisjoint(h.edges[b][0])
               for a, b in itertools.combinations(ids, 2))


class Clashing:
    """A rounder whose matchings, in `trial` and `trials` alike, gain the
    first edge that clashes with their smallest edge, where one exists,
    so the chunk's re-check has overlaps to find."""

    def __init__(self, rounder):
        self.rounder, self.h = rounder, rounder.h
        self.partner = {}
        for a, b in itertools.permutations(range(self.h.n), 2):
            if a not in self.partner and overlaps(self.h, (a, b)):
                self.partner[a] = b

    def _add(self, ids):
        if ids and min(ids) in self.partner:
            return ids | {self.partner[min(ids)]}
        return ids

    def trial(self, rng):
        return self._add(self.rounder.trial(rng))

    def trials(self, rng, size):
        trial, edge = self.rounder.trials(rng, size)
        pairs = [(t, j) for t, ids in enumerate(split(size, trial, edge))
                 for j in sorted(self._add(ids))]
        return (np.array([t for t, _ in pairs], dtype=np.intp),
                np.array([j for _, j in pairs], dtype=np.intp))


def reference_chunk(runner, rng, size):
    """`_hm_chunk` one trial at a time: `trial`, an ascending-id weight
    sum and a pairwise overlap check."""
    h = runner.h
    counts = np.zeros(h.n, dtype=np.int64)
    weights, bad = [], []
    for t in range(size):
        ids = runner.trial(rng)
        counts[list(ids)] += 1
        weights.append(reference_weight(h, ids))
        if overlaps(h, ids):
            bad.append(t)
    return counts, weights, bad


@st.composite
def weighted_hypergraphs(draw):
    """`hypergraphs` with weights whose float sum depends on its order,
    or edges that share no vertex at all, so no trial ever clashes."""
    if draw(st.booleans()):
        shape = draw(hypergraphs())
        m, edges = shape.m, [vs for vs, _ in shape.edges]
    else:
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=8))
        ends = list(itertools.accumulate(sizes))
        m, edges = ends[-1], [range(e - s, e) for s, e in zip(sizes, ends)]
    weight = st.sampled_from([0.1, 0.2, 0.3, 1e16, 3.0]) | st.floats(0.0, 1e6)
    return make_hypergraph(m, [(vs, draw(weight)) for vs in edges])


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.data())
def test_hm_chunk_equals_the_per_trial_reference(data):
    h = data.draw(weighted_hypergraphs())
    degree = max(np.bincount([v for vs, _ in h.edges for v in vs]))
    x = data.draw(st.just([1.0 / degree] * h.n)
                  | st.lists(st.floats(0.0, 1.0), min_size=h.n, max_size=h.n))
    size = data.draw(st.sampled_from(
        [1, HM_BLOCK - 1, HM_BLOCK, HM_BLOCK + 1, 2 * HM_BLOCK + 7]))
    seed = data.draw(st.integers(0, 2**32))
    runner = HmRounder(h, x, attenuation_g)
    if data.draw(st.booleans()):
        runner = Clashing(runner)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    counts, weights, bad = _hm_chunk(hypergraph_lp_instance(h), runner, rng,
                                     size)
    want_counts, want_weights, want_bad = reference_chunk(runner, twin, size)
    assert counts.tolist() == want_counts.tolist()
    assert weights == want_weights
    assert all(type(w) is float for w in weights)
    assert bad == want_bad
    assert rng.bit_generator.state == twin.bit_generator.state


@hypothesis.given(st.data())
def test_matching_weight_equals_the_ascending_sum(data):
    h = data.draw(weighted_hypergraphs())
    ids = tuple(sorted(data.draw(st.sets(st.integers(0, h.n - 1)))))
    for edge_ids in (ids, list(ids), ids[:1], ()):
        got = matching_weight(h, edge_ids)
        assert type(got) is float
        assert got == reference_weight(h, edge_ids)


@pytest.mark.parametrize("k_e, x", [(2, 1.0 / 32), (3, 1.0 / 32), (3, 0.1),
                                    (5, 1.0)])
def test_trial_equals_the_parent_trial_for_every_mark_count(k_e, x):
    rounder = HmRounder(star(k_e), [x] * 32, attenuation_g)
    rng, twin = np.random.default_rng(k_e), np.random.default_rng(k_e)
    seen = set()
    for _ in range(3000):
        state = twin.bit_generator.state
        marks = int((twin.random(32) < rounder.rates).sum())
        twin.bit_generator.state = state
        seen.add(min(marks, 2))
        got, want = rounder.trial(rng), parent_trial(rounder, twin)
        assert got == want
        assert list(got) == list(want)
        assert rng.bit_generator.state == twin.bit_generator.state
    if x == 1.0 / 32:
        assert seen == {0, 1, 2}

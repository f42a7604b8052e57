"""Properties of the marked-edge sweep and the matching check, against
plain references on random hypergraphs (hypothesis)."""

import itertools

import pytest

from sparsepack.hypermatch import _sweep, is_matching, make_hypergraph

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


@hypothesis.given(st.data())
def test_is_matching_equals_pairwise_disjointness(data):
    h = data.draw(hypergraphs())
    ids = data.draw(st.lists(st.integers(0, h.n - 1), max_size=6))
    pairwise = all(set(h.edges[a][0]).isdisjoint(h.edges[b][0])
                   for a, b in itertools.combinations(ids, 2))
    assert is_matching(h, ids) == pairwise

"""Peeling and both colorings against a plain reference (hypothesis).

The reference is the textbook form of the algorithm: a lazy heap over
every vertex, an arc count read off the out-lists at each removal, and a
full scan of the palette for free colors.  The package's versions share
one adjacency table, peel with a bucket queue and take shortcuts for
isolated vertices; they must give the same order, the same colors and,
for the randomized coloring, the same draws from the same stream.
"""

import heapq

import numpy as np
import pytest

from sparsepack.graphcolor import (color_directed_graph, color_neg_corr,
                                   make_digraph, neg_corr_palette, peel_order)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def reference_peel(g):
    adj = [set() for _ in range(g.n)]
    for v, nbrs in enumerate(g.out):
        for u in nbrs:
            adj[v].add(u)
            adj[u].add(v)
    deg = [0] * g.n
    for v, nbrs in enumerate(g.out):
        deg[v] += len(nbrs)
        for u in nbrs:
            deg[u] += 1
    heap = [(deg[v], v) for v in range(g.n)]
    heapq.heapify(heap)
    removed = [False] * g.n
    order = []
    while heap:
        dv, v = heapq.heappop(heap)
        if removed[v] or dv != deg[v]:
            continue
        removed[v] = True
        order.append(v)
        for u in adj[v]:
            if not removed[u]:
                deg[u] -= (u in g.out[v]) + (v in g.out[u])
                heapq.heappush(heap, (deg[u], u))
    return order


def reference_colors(g, palette, spread, rng):
    adj = [set() for _ in range(g.n)]
    for v, nbrs in enumerate(g.out):
        for u in nbrs:
            adj[v].add(u)
            adj[u].add(v)
    colors = [-1] * g.n
    for v in reversed(reference_peel(g)):
        used = {colors[u] for u in adj[v] if colors[u] >= 0}
        avail = [c for c in range(palette) if c not in used][:spread]
        assert len(avail) == spread
        colors[v] = avail[0] if rng is None else avail[int(rng.integers(spread))]
    return tuple(colors)


@st.composite
def digraphs(draw, max_out=None):
    """Digraphs on up to 12 vertices; a vertex picks its out-neighbours
    from a small window, so isolated vertices and mutual arcs are both
    common.  `max_out` caps every out-degree."""
    n = draw(st.integers(0, 12))
    arcs = []
    for v in range(n):
        window = [u for u in range(max(0, v - 3), min(n, v + 4)) if u != v]
        cap = len(window) if max_out is None else min(max_out, len(window))
        targets = draw(st.lists(st.sampled_from(window), max_size=cap,
                                unique=True)) if window else []
        arcs.extend((v, u) for u in targets)
    return make_digraph(n, arcs)


@st.composite
def sparse_digraphs(draw, max_out=None):
    """Digraphs on up to 40 vertices with a handful of arcs, so most
    vertices are isolated and the rest form small pieces: single arcs,
    2-cycles, paths and stars, whose vertices fall to degree 0 while
    the peel is under way.  A drawn arc may come with its reverse."""
    n = draw(st.integers(2, 40))
    vertex = st.integers(0, n - 1)
    arcs = set()
    out_deg = [0] * n
    for v, u, mutual in draw(st.lists(st.tuples(vertex, vertex, st.booleans()),
                                      max_size=8)):
        for a, b in ((v, u), (u, v)) if mutual else ((v, u),):
            if a != b and (a, b) not in arcs and (
                    max_out is None or out_deg[a] < max_out):
                arcs.add((a, b))
                out_deg[a] += 1
    return make_digraph(n, sorted(arcs))


@hypothesis.given(digraphs())
def test_peel_order_equals_the_reference_heap(g):
    assert peel_order(g) == reference_peel(g)


@hypothesis.given(st.data())
def test_deterministic_coloring_equals_the_reference(data):
    d = data.draw(st.integers(1, 3))
    g = data.draw(digraphs(max_out=d))
    assert color_directed_graph(g, d).colors == reference_colors(
        g, 2 * d + 1, 1, None)


@hypothesis.given(st.data())
def test_spread_coloring_equals_the_reference_on_the_same_stream(data):
    d = data.draw(st.integers(1, 4))
    epsilon = data.draw(st.sampled_from([0.2, 0.5, 0.9]))
    g = data.draw(digraphs(max_out=d))
    seed = data.draw(st.integers(0, 2**32 - 1))
    palette, spread = neg_corr_palette(d, epsilon)
    got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = color_neg_corr(g, d, epsilon, got_rng).colors
    assert got == reference_colors(g, palette, spread, ref_rng)
    # both took the same number of draws
    assert got_rng.random() == ref_rng.random()


@hypothesis.given(sparse_digraphs())
def test_peel_order_equals_the_reference_heap_on_sparse_graphs(g):
    assert peel_order(g) == reference_peel(g)


@hypothesis.given(st.data())
def test_both_colorings_equal_the_reference_on_sparse_graphs(data):
    d = data.draw(st.integers(1, 3))
    epsilon = data.draw(st.sampled_from([0.2, 0.5, 0.9]))
    g = data.draw(sparse_digraphs(max_out=d))
    assert color_directed_graph(g, d).colors == reference_colors(
        g, 2 * d + 1, 1, None)
    seed = data.draw(st.integers(0, 2**32 - 1))
    palette, spread = neg_corr_palette(d, epsilon)
    got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = color_neg_corr(g, d, epsilon, got_rng).colors
    assert got == reference_colors(g, palette, spread, ref_rng)
    assert got_rng.random() == ref_rng.random()

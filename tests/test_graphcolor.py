"""Digraph model, peeling order, and both coloring variants."""

import numpy as np
import pytest

from sparsepack.errors import DegreeError, ValidationError
from sparsepack.graphcolor import (DiGraph, color_directed_graph,
                                   color_neg_corr, make_digraph,
                                   neg_corr_palette, peel_order,
                                   verify_coloring)


def random_bounded_digraph(n, d, rng):
    arcs = []
    for v in range(n):
        out = rng.integers(0, d + 1)
        others = [u for u in range(n) if u != v]
        for u in rng.choice(others, size=min(out, len(others)), replace=False):
            arcs.append((v, int(u)))
    return make_digraph(n, arcs)


def test_make_digraph_dedupes_and_sorts():
    g = make_digraph(3, [(0, 2), (0, 1), (0, 2), (1, 0)])
    assert g.out == ((1, 2), (0,), ())


def test_digraph_rejects_self_loops_and_bad_arcs():
    with pytest.raises(ValidationError, match="self-loop"):
        DiGraph(n=2, out=((0,), ()))
    with pytest.raises(ValidationError, match="out of range"):
        DiGraph(n=2, out=((5,), ()))
    with pytest.raises(ValidationError, match="disagrees"):
        DiGraph(n=3, out=((), ()))


def test_digraph_rejects_a_repeated_out_neighbour():
    # A repeat is one arc, not the two arcs of a mutual pair.
    with pytest.raises(ValidationError, match="repeats"):
        DiGraph(n=3, out=((1, 1), (), ()))
    with pytest.raises(ValidationError, match="repeats"):
        DiGraph(n=3, out=((), (2, 0, 2), ()))
    assert DiGraph(n=3, out=((1,), (0,), ())).neighbours[0] == [1, 1]


def test_neighbours_merge_directions():
    g = make_digraph(3, [(0, 1), (1, 0), (1, 2)])
    # each neighbour, direction ignored, once per arc between them
    assert [sorted(a) for a in g.neighbours] == [[1, 1], [0, 0, 2], [1]]


def test_peel_order_on_path():
    # 0 -> 1 -> 2: endpoints have total degree 1, the middle vertex 2.
    g = make_digraph(3, [(0, 1), (1, 2)])
    assert peel_order(g) == [0, 1, 2]


def test_peel_order_prefers_lowest_index_on_ties():
    g = make_digraph(4, [(0, 1), (2, 3)])
    assert peel_order(g) == [0, 1, 2, 3]


def test_three_cycle_with_unit_degree_uses_three_colors():
    g = make_digraph(3, [(0, 1), (1, 2), (2, 0)])
    coloring = color_directed_graph(g, d=1)
    assert coloring.palette == 3
    assert verify_coloring(g, coloring)
    assert len(set(coloring.colors)) == 3


def test_oriented_clique_is_rainbow():
    # K5 oriented as a circulant: out-degree 2, palette 5, and the
    # underlying complete graph forces all five colors to be distinct.
    arcs = [(v, (v + r) % 5) for v in range(5) for r in (1, 2)]
    g = make_digraph(5, arcs)
    coloring = color_directed_graph(g, d=2)
    assert coloring.palette == 5
    assert verify_coloring(g, coloring)
    assert sorted(coloring.colors) == [0, 1, 2, 3, 4]


def test_degree_bound_is_enforced():
    g = make_digraph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(DegreeError, match="out-degree above 2"):
        color_directed_graph(g, d=2)
    assert verify_coloring(g, color_directed_graph(g, d=3))


@pytest.mark.parametrize("d", [1, 2, 4])
def test_random_digraphs_stay_within_palette(d, rng):
    for _ in range(200):
        n = int(rng.integers(1, 30))
        g = random_bounded_digraph(n, d, rng)
        coloring = color_directed_graph(g, d)
        assert coloring.palette == 2 * d + 1
        assert verify_coloring(g, coloring)


def test_neg_corr_palette_sizes():
    assert neg_corr_palette(4, 0.5) == (10, 2)
    assert neg_corr_palette(1, 0.5) == (3, 1)
    palette, spread = neg_corr_palette(9, 1.0 / 3.0)
    assert palette == 18 + 5 and spread == 5  # 9^(2/3) = 4.327 -> 5


def test_neg_corr_rejects_bad_epsilon(rng):
    g = make_digraph(2, [(0, 1)])
    for eps in (0.0, 1.0, -0.2):
        with pytest.raises(ValidationError):
            color_neg_corr(g, 1, eps, rng)


def test_neg_corr_coloring_is_proper(rng):
    for _ in range(100):
        n = int(rng.integers(1, 25))
        g = random_bounded_digraph(n, 3, rng)
        coloring = color_neg_corr(g, 3, 0.5, rng)
        assert coloring.palette == neg_corr_palette(3, 0.5)[0]
        assert verify_coloring(g, coloring)


def test_neg_corr_without_arcs_spreads_over_smallest_colors():
    g = make_digraph(4, [])
    rng = np.random.default_rng(0)
    spread = neg_corr_palette(2, 0.5)[1]
    seen = set()
    for _ in range(200):
        seen.update(color_neg_corr(g, 2, 0.5, rng).colors)
    assert seen == set(range(spread))


def test_neg_corr_is_deterministic_given_stream():
    g = make_digraph(6, [(0, 1), (2, 3), (4, 5), (1, 2)])
    a = color_neg_corr(g, 2, 0.4, np.random.default_rng(7))
    b = color_neg_corr(g, 2, 0.4, np.random.default_rng(7))
    assert a == b


def test_verify_coloring_rejects_defects():
    from sparsepack.graphcolor import Coloring

    g = make_digraph(2, [(0, 1)])
    assert not verify_coloring(g, Coloring(colors=(0, 0), palette=3))
    assert not verify_coloring(g, Coloring(colors=(0,), palette=3))
    assert not verify_coloring(g, Coloring(colors=(0, 3), palette=3))
    assert verify_coloring(g, Coloring(colors=(0, 2), palette=3))

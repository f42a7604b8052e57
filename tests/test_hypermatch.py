"""Marked-edge matching: attenuation curve, sweeps, per-edge rates."""

import numpy as np
import pytest

from sparsepack.errors import DomainError, ValidationError
from sparsepack.hypermatch import (attenuation_g, hypergraph_from_dict,
                                   hypergraph_to_dict, is_matching,
                                   load_hypergraph, make_hypergraph,
                                   matching_weight, round_matching,
                                   round_matching_linear, save_hypergraph,
                                   theoretical_bound, validate_hypergraph)
from sparsepack.hypermatch import _sweep
from sparsepack.montecarlo import binomial_stderr, trial_rng


def test_attenuation_curve_values():
    assert attenuation_g(0.0) == 0.0
    assert attenuation_g(1.0) == 0.5
    assert attenuation_g(0.5) == 0.375
    for bad in (-0.1, 1.01):
        with pytest.raises(DomainError):
            attenuation_g(bad)


def test_attenuation_is_concave_and_below_identity():
    xs = np.linspace(0.0, 1.0, 21)
    gs = [attenuation_g(v) for v in xs]
    assert all(g <= v for g, v in zip(gs, xs))
    diffs = np.diff(gs)
    assert all(b <= a + 1e-15 for a, b in zip(diffs, diffs[1:]))


def test_theoretical_bound_values():
    assert theoretical_bound(1) == pytest.approx(1.0 - np.exp(-1.0))
    assert theoretical_bound(2) == pytest.approx((1.0 - np.exp(-2.0)) / 2.0)
    assert theoretical_bound(3) == pytest.approx((1.0 - np.exp(-3.0)) / 3.0)
    bounds = [theoretical_bound(k) for k in range(1, 10)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
    with pytest.raises(DomainError):
        theoretical_bound(0)


def test_validate_hypergraph_flags_defects():
    assert any("empty" in v for v in
               validate_hypergraph(make_hypergraph(2, [((), 1.0)])).violations)
    assert any("repeats" in v for v in
               validate_hypergraph(make_hypergraph(2, [((0, 0), 1.0)])).violations)
    assert any("out of range" in v for v in
               validate_hypergraph(make_hypergraph(2, [((5,), 1.0)])).violations)
    assert any("negative" in v for v in
               validate_hypergraph(make_hypergraph(2, [((0,), -1.0)])).violations)


def test_validation_runs_once_per_hypergraph():
    # A frozen hypergraph is checked once, however many rounders it feeds.
    h = make_hypergraph(2, [((0, 0), 1.0)])
    assert validate_hypergraph(h) is validate_hypergraph(h)
    with pytest.raises(ValidationError, match="repeats"):
        round_matching(h, [0.5], attenuation_g, np.random.default_rng(0))


def test_is_matching_and_weight():
    h = make_hypergraph(4, [((0, 1), 2.0), ((1, 2), 3.0), ((3,), 1.0)])
    assert is_matching(h, [0, 2])
    assert not is_matching(h, [0, 1])
    assert matching_weight(h, [0, 2]) == 3.0


def test_sweep_orders_by_key_then_index():
    h = make_hypergraph(2, [((0,), 1.0), ((0,), 1.0), ((1,), 1.0)])
    # lower key wins the shared vertex
    assert _sweep(h, [0, 1], [0.9, 0.1]) == frozenset({1})
    # equal keys fall back to the lower edge index
    assert _sweep(h, [0, 1], [0.5, 0.5]) == frozenset({0})
    # disjoint edges are both picked
    assert _sweep(h, [1, 2], [0.7, 0.2]) == frozenset({1, 2})


def test_round_matching_validates():
    h = make_hypergraph(2, [((0,), 1.0)])
    rng = trial_rng(0, 0)
    with pytest.raises(ValidationError):
        round_matching(h, [0.5, 0.5], attenuation_g, rng)
    with pytest.raises(DomainError):
        round_matching(h, [1.0], lambda v: 1.5, rng)
    with pytest.raises(DomainError):
        round_matching_linear(h, [1.0], -1.0, rng)


def test_disjoint_edges_match_at_their_mark_rate():
    h = make_hypergraph(4, [((0, 1), 1.0), ((2, 3), 1.0)])
    x = [1.0, 0.6]
    rng = trial_rng(1, 0)
    trials = 30_000
    hits = np.zeros(2)
    for _ in range(trials):
        for j in round_matching(h, x, attenuation_g, rng):
            hits[j] += 1
    for j in range(2):
        expect = attenuation_g(x[j])
        assert hits[j] / trials == pytest.approx(
            expect, abs=4 * binomial_stderr(expect, trials))


def test_contending_edges_split_evenly_under_forced_marks():
    h = make_hypergraph(3, [((0, 1), 1.0), ((1, 2), 1.0)])
    rng = trial_rng(2, 0)
    trials = 30_000
    hits = np.zeros(2)
    for _ in range(trials):
        picked = round_matching_linear(h, [1.0, 1.0], 1.0, rng)
        assert len(picked) == 1  # both always marked, they share vertex 1
        hits[list(picked)[0]] += 1
    assert hits[0] / trials == pytest.approx(0.5, abs=4 * binomial_stderr(0.5, trials))


def test_output_is_always_a_matching(rng):
    vs = 8
    edges = []
    for _ in range(12):
        size = int(rng.integers(1, 4))
        edges.append((tuple(sorted(
            int(v) for v in rng.choice(vs, size=size, replace=False))), 1.0))
    h = make_hypergraph(vs, edges)
    x = np.full(h.n, 1.0 / 3.0)
    for _ in range(500):
        assert is_matching(h, round_matching(h, x, attenuation_g, rng))


def test_singleton_edge_rate_for_linear_marks():
    # A lone unit-rate edge is always marked and always picked.
    h = make_hypergraph(1, [((0,), 5.0)])
    rng = trial_rng(3, 0)
    for _ in range(20):
        assert round_matching_linear(h, [1.0], 1.0, rng) == frozenset({0})


def test_round_trip(tmp_path):
    h = make_hypergraph(5, [((0, 2, 4), 1.5), ((1,), 0.5)])
    path = tmp_path / "h.json"
    save_hypergraph(h, path)
    assert load_hypergraph(path) == h
    assert hypergraph_from_dict(hypergraph_to_dict(h)) == h


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"m": 3}')
    with pytest.raises(ValidationError, match="malformed"):
        load_hypergraph(path)

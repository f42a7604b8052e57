"""Marked-edge matching: attenuation curve, sweeps, per-edge rates."""

import hashlib
import json

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from sparsepack import cli, hypermatch
from sparsepack.errors import DomainError, SizeError, ValidationError
from sparsepack.hypermatch import (EXACT_EDGE_CAP, HmRounder, attenuation_g,
                                   exact_match_probabilities,
                                   hypergraph_from_dict, hypergraph_to_dict,
                                   is_matching, load_hypergraph,
                                   make_hypergraph, matching_weight,
                                   round_matching, save_hypergraph,
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


def test_validate_hypergraph_rejects_infinite_weight():
    h = make_hypergraph(2, [((0,), float("inf"))])
    assert any("not finite" in v for v in validate_hypergraph(h).violations)


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


def test_sweep_builds_its_set_in_key_order():
    # 0 and 8 share a slot of a small set's table, so the set iterates in
    # insertion order, and so does a float sum over it.
    h = make_hypergraph(9, [((v,), 1.0) for v in range(9)])
    got = _sweep(h, [0, 8], [0.9, 0.1])
    assert list(got) == list(frozenset([8, 0])) != list(frozenset([0, 8]))


def test_sweep_of_no_marked_edges_is_empty():
    h = make_hypergraph(2, [((0, 1), 1.0)])
    assert _sweep(h, [], []) == frozenset()
    assert _sweep(h, [0], [0.3]) == frozenset({0})


def test_round_matching_validates():
    h = make_hypergraph(2, [((0,), 1.0)])
    rng = trial_rng(0, 0)
    with pytest.raises(ValidationError):
        round_matching(h, [0.5, 0.5], attenuation_g, rng)
    with pytest.raises(DomainError):
        round_matching(h, [1.0], lambda v: 1.5, rng)
    with pytest.raises(DomainError):   # a negative linear mark rate
        HmRounder(h, [1.0], lambda v: min(1.0, -1.0 * v))


def test_round_matching_reuses_its_rounder_only_for_the_same_inputs(monkeypatch):
    built = []

    class Counted(HmRounder):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(hypermatch, "HmRounder", Counted)
    monkeypatch.setattr(hypermatch, "_last_rounder", None)
    h = make_hypergraph(3, [((0, 1), 1.0), ((1, 2), 1.0)])
    x = np.array([0.5, 0.5])
    rng, twin = trial_rng(0, 0), trial_rng(0, 0)
    fresh = HmRounder(h, x, attenuation_g)
    for xs in (x, x, [0.5, 0.5]):          # an equal x, also as a list
        assert round_matching(h, xs, attenuation_g, rng) == fresh.trial(twin)
    assert len(built) == 1
    x[0] = 1.0                              # the same array, changed in place
    round_matching(h, x, attenuation_g, rng)
    linear = lambda v: v                    # noqa: E731
    round_matching(h, x, linear, rng)
    round_matching(make_hypergraph(3, [((0, 1), 1.0), ((1, 2), 1.0)]), x,
                   linear, rng)             # an equal hypergraph, another object
    assert len(built) == 4
    round_matching(h, x, linear, rng)
    with pytest.raises(ValidationError, match="shape"):   # the same bytes
        round_matching(h, x[None, :], linear, rng)
    assert len(built) == 6


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
    rounder = HmRounder(h, [1.0, 1.0], lambda v: min(1.0, 1.0 * v))
    for _ in range(trials):
        picked = rounder.trial(rng)
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
    rounder = HmRounder(h, [1.0], lambda v: min(1.0, 1.0 * v))
    for _ in range(20):
        assert rounder.trial(rng) == frozenset({0})


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


# ---------------------------------------------------------------------------
# The exact oracle

TINY = {
    "star": (make_hypergraph(7, [((0, 1, 2), 1.0), ((0, 3), 1.0),
                                 ((0, 4, 5), 1.0), ((0, 6), 1.0)]),
             [0.25] * 4),
    "path": (make_hypergraph(6, [((i, i + 1), 1.0) for i in range(5)]),
             [0.5, 0.5, 0.5, 0.5, 0.5]),
    "triples": (make_hypergraph(6, [((0, 1, 2), 1.0), ((1, 2, 3), 1.0),
                                    ((2, 3, 4), 1.0), ((3, 4, 5), 1.0),
                                    ((0, 4, 5), 1.0)]),
                [0.3, 0.3, 0.3, 0.2, 0.7]),
}


def contention_floor(h, x, e):
    """g(x_e) * int_0^1 prod_{f ~ e} (1 - g(x_f) u) du: e is matched
    whenever it is marked and no marked neighbour has a smaller key."""
    g = [attenuation_g(v) for v in x]
    poly = Polynomial([1.0])
    for f, (vs, _) in enumerate(h.edges):
        if f != e and not set(vs).isdisjoint(h.edges[e][0]):
            poly *= Polynomial([1.0, -g[f]])
    integral = poly.integ()
    return g[e] * (integral(1.0) - integral(0.0))


@pytest.mark.parametrize("name", sorted(TINY))
def test_exact_probabilities_lie_between_contention_floor_and_mark_rate(name):
    h, x = TINY[name]
    p = exact_match_probabilities(h, x, attenuation_g)
    for e, v in enumerate(x):
        assert contention_floor(h, x, e) - 1e-12 <= p[e] <= attenuation_g(v) + 1e-12


def test_exact_probabilities_of_two_contending_edges():
    # Both marked: each wins the shared vertex half the time.
    h = make_hypergraph(3, [((0, 1), 1.0), ((1, 2), 1.0)])
    x = [0.8, 0.4]
    g1, g2 = attenuation_g(0.8), attenuation_g(0.4)
    p = exact_match_probabilities(h, x, attenuation_g)
    assert p[0] == pytest.approx(g1 * (1 - g2) + g1 * g2 / 2, abs=1e-15)
    assert p[1] == pytest.approx(g2 * (1 - g1) + g1 * g2 / 2, abs=1e-15)


def test_exact_oracle_size_cap():
    edges = [((i, i + 1), 1.0) for i in range(EXACT_EDGE_CAP + 1)]
    h = make_hypergraph(EXACT_EDGE_CAP + 2, edges)
    x = [0.5] * (EXACT_EDGE_CAP + 1)
    with pytest.raises(SizeError):
        exact_match_probabilities(h, x, attenuation_g)
    h7 = make_hypergraph(EXACT_EDGE_CAP + 1, edges[:-1])
    p = exact_match_probabilities(h7, x[:-1], attenuation_g)
    assert p[0] == p[-1] and p[1] == p[-2]   # the path is symmetric


@pytest.mark.parametrize("name", sorted(TINY))
def test_rounder_frequencies_match_the_exact_oracle(name):
    h, x = TINY[name]
    p = exact_match_probabilities(h, x, attenuation_g)
    rounder = HmRounder(h, x, attenuation_g)
    rng = trial_rng(11, 0, module=4)
    trials = 200_000
    hits = [0] * h.n
    for _ in range(trials):
        for e in rounder.trial(rng):
            hits[e] += 1
    for e in range(h.n):
        sigma = binomial_stderr(p[e], trials)
        assert abs(hits[e] / trials - p[e]) <= 5 * sigma, (e, hits[e], p[e])


# ---------------------------------------------------------------------------
# Report pins

# `round hm --trials 5000 --seed 11` (a full chunk and a partial one) on
# `gen hyper --vertices 30 --edges 80 --k 3 --seed 4`, at x_e = 1 / (the
# largest vertex degree), so that many trials resolve clashing edges.
# Most trials there mark edges that share a vertex.  The frequency
# digest was recorded with the one-trial-at-a-time loop that the block
# sweep replaced, so it shows the two match the same edges.  The second
# report digest leaves out objective_std_err; it was recorded before the
# objective variance became a merge of per-chunk centred sums, and the
# rest of the report must not move.
PIN_FREQUENCIES_SHA256 = (
    "a49c26c96fce2dd8f01c58ed310d8569a3ecbb8c8ab436e26136ff19a9c2137a")
PIN_REPORT_SHA256 = (
    "a325f39ac1074e44ea27a91552c0505224ddf05d456a1f0ac525b8f011c62093",
    "cb89c7747871396b29c8d2617b34bb91fc2ac75024e9f95228e754bc055fbe67")


def test_round_hm_report_is_pinned(tmp_path, capsys, report_digests):
    inst, x_path, report = (tmp_path / name for name in
                            ("h.json", "x.json", "report.json"))
    assert cli.main(["gen", "hyper", "--vertices", "30", "--edges", "80",
                     "--k", "3", "--seed", "4", "-o", str(inst)]) == 0
    h = load_hypergraph(inst)
    degree = max(np.bincount([v for vs, _ in h.edges for v in vs]))
    x_path.write_text(json.dumps([1.0 / degree] * h.n))
    assert cli.main(["round", "hm", "--instance", str(inst), "--x", str(x_path),
                     "--trials", "5000", "--seed", "11",
                     "--json", str(report)]) == 0
    capsys.readouterr()
    frequencies = [it["frequency"] for it in json.loads(report.read_text())["items"]]
    digest = hashlib.sha256(json.dumps(frequencies).encode()).hexdigest()
    assert digest == PIN_FREQUENCIES_SHA256
    assert report_digests(report) == PIN_REPORT_SHA256

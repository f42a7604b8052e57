"""Tree routing: paths, processing order, rates, contention resolution."""

import hashlib
import math

import numpy as np
import pytest

import sparsepack.cli as cli
from sparsepack.core import check_feasible, objective_value
from sparsepack.errors import EstimateError, ParamError, ValidationError
from sparsepack.harness import gen_random_tree
from sparsepack.montecarlo import binomial_stderr, trial_rng
from sparsepack.ufptree import (ALPHA_CAP, TreeNetwork, UfpCrScheme,
                                UfpParams, balance_objective, lca_order,
                                load_tree, make_tree, optimize_alpha, save_tree,
                                tree_from_dict, tree_lp_instance, tree_path,
                                tree_to_dict, validate_tree)


def chain_tree(n, cap=1):
    """Path 0 - 1 - ... - n-1 rooted at 0."""
    return make_tree(
        parent=[-1] + list(range(n - 1)),
        root=0,
        edge_capacity=[1] + [cap] * (n - 1),
        demands=[],
    )


def with_demands(net, demands):
    return make_tree(net.parent, net.root, net.edge_capacity, demands)


# ---------------------------------------------------------------------------
# Structure and validation

def test_depth_on_chain_and_star():
    chain = chain_tree(4)
    assert chain.depth == (0, 1, 2, 3)
    star = make_tree([-1, 0, 0, 0], 0, [1, 1, 1, 1], [])
    assert star.depth == (0, 1, 1, 1)


def test_validate_tree_flags_defects():
    bad_root = make_tree([0, 0], 0, [1, 1], [])
    assert any("root parent" in v for v in validate_tree(bad_root).violations)
    cyclic = TreeNetwork(parent=(-1, 2, 1), root=0, edge_capacity=(1, 1, 1),
                         demands=())
    assert any("reach the root" in v for v in validate_tree(cyclic).violations)
    no_cap = make_tree([-1, 0], 0, [1, 0], [])
    assert any("integer >= 1" in v for v in validate_tree(no_cap).violations)
    self_demand = make_tree([-1, 0], 0, [1, 1], [(1, 1, 1.0)])
    assert any("equal endpoints" in v
               for v in validate_tree(self_demand).violations)
    neg = make_tree([-1, 0], 0, [1, 1], [(0, 1, -2.0)])
    assert any("negative" in v for v in validate_tree(neg).violations)


def test_validate_tree_rejects_infinite_demand_weight():
    net = make_tree([-1, 0], 0, [1, 1], [(0, 1, float("inf"))])
    assert any("not finite" in v for v in validate_tree(net).violations)


# ---------------------------------------------------------------------------
# Paths against an independent oracle

def climb_to_root(net, v):
    """Edges (named by lower vertex) from v up to the root."""
    edges = []
    while v != net.root:
        edges.append(v)
        v = net.parent[v]
    return edges


def lca_oracle(net, s, t):
    ancestors = set(climb_to_root(net, s)) | {net.root}
    u = t
    while u not in ancestors and u != net.root:
        u = net.parent[u]
    return u


def path_oracle(net, s, t):
    a, b = set(climb_to_root(net, s)), set(climb_to_root(net, t))
    return a ^ b


def test_tree_path_on_chain():
    net = chain_tree(5)
    lca, edges = tree_path(net, 4, 2)
    assert lca == 2
    assert sorted(edges) == [3, 4]
    lca, edges = tree_path(net, 1, 3)
    assert lca == 1
    assert sorted(edges) == [2, 3]


@pytest.mark.parametrize("seed", range(5))
def test_tree_path_matches_oracle_on_random_trees(seed):
    net = gen_random_tree(n_vertices=20, n_demands=15, seed=seed)
    for s, t, _ in net.demands:
        lca, edges = tree_path(net, s, t)
        assert lca == lca_oracle(net, s, t)
        assert set(edges) == path_oracle(net, s, t)
        assert len(set(edges)) == len(edges)


def test_lca_order_sorts_by_depth_then_index():
    net = with_demands(chain_tree(5), [
        (3, 4, 1.0),   # lca 3, depth 3
        (0, 2, 1.0),   # lca 0, depth 0
        (1, 4, 1.0),   # lca 1, depth 1
        (0, 4, 1.0),   # lca 0, depth 0; index breaks the tie with demand 1
    ])
    assert lca_order(net) == (1, 3, 2, 0)


# ---------------------------------------------------------------------------
# Rates

def test_params_beta_formula():
    p = UfpParams(alpha=0.1)
    ae = 0.1 * math.e
    assert p.beta == pytest.approx(1.0 - 2.0 * ae / (1.0 - ae))
    with pytest.raises(ParamError):
        UfpParams(alpha=0.0)
    with pytest.raises(ParamError):
        UfpParams(alpha=ALPHA_CAP)
    with pytest.raises(ParamError):
        UfpParams(alpha=0.1, sim_budget=0)


def test_balance_objective_endpoints():
    assert balance_objective(0.0) == 0.0
    assert balance_objective(0.05) > 0.0
    # rises toward the right end of the feasible interval
    assert balance_objective(0.12) > balance_objective(0.08)


def test_optimize_alpha_lands_near_the_cap():
    alpha, balance = optimize_alpha(grid_resolution=1e-5)
    assert alpha == pytest.approx(ALPHA_CAP, abs=2e-5)
    assert balance == pytest.approx(0.1227, abs=1e-3)
    with pytest.raises(ParamError):
        optimize_alpha(grid_resolution=1e-4)
    with pytest.raises(ParamError):
        optimize_alpha(grid_resolution=0.0)


# ---------------------------------------------------------------------------
# Contention resolution

def test_lone_demand_routes_at_alpha_beta_x():
    net = with_demands(chain_tree(3, cap=2), [(0, 2, 1.0)])
    params = UfpParams(alpha=0.1, sim_budget=50_000)
    scheme = UfpCrScheme(net, [1.0], params, trial_rng(0, 0))
    assert scheme.eta[0] == 1.0  # nothing can make a lone demand unsafe
    assert scheme.keep[0] == pytest.approx(params.beta)
    trials = 40_000
    rng = trial_rng(0, 1)
    hits = sum(bool(scheme.trial(rng)) for _ in range(trials))
    expect = params.alpha * params.beta
    assert hits / trials == pytest.approx(
        expect, abs=4 * binomial_stderr(expect, trials))


def test_keep_probabilities_stay_within_one():
    for seed in range(4):
        net = gen_random_tree(n_vertices=12, n_demands=8, seed=seed)
        x = np.full(net.n_demands, 0.5)
        scheme = UfpCrScheme(net, x, UfpParams(alpha=0.1, sim_budget=20_000),
                             trial_rng(seed, 0))
        finite = scheme.keep[~np.isnan(scheme.keep)]
        assert np.all(finite <= 1.0)
        assert np.all(finite >= 0.0)


def test_injected_safety_table_controls_keeps():
    net = with_demands(chain_tree(3), [(0, 2, 1.0), (1, 2, 1.0)])
    params = UfpParams(alpha=0.1, sim_budget=10)
    scheme = UfpCrScheme(net, [1.0, 1.0], params, trial_rng(1, 0),
                         eta=[1.0, 0.5])
    assert scheme.keep[0] == pytest.approx(params.beta)
    assert scheme.keep[1] == pytest.approx(params.beta / 0.5)
    low = UfpCrScheme(net, [1.0, 1.0], params, trial_rng(1, 0),
                      eta=[1.0, 0.01])
    assert low.keep[1] == 1.0  # clamped, cannot exceed certainty
    assert low.clamped == [1]


@pytest.mark.parametrize("eta, match", [
    ([1.0], "shape"),                      # short: trials hit IndexError
    ([1.0, 0.5, 0.5], "shape"),            # long: silently truncated
    ([1.0, math.nan], r"in \[0, 1\]"),     # NaN keep, misleading error
    ([1.0, -0.5], r"in \[0, 1\]"),
    ([1.0, 1.5], r"in \[0, 1\]"),
    ([1.0, math.inf], r"in \[0, 1\]"),
])
def test_injected_safety_table_is_validated(eta, match):
    net = with_demands(chain_tree(3), [(0, 2, 1.0), (1, 2, 1.0)])
    params = UfpParams(alpha=0.1, sim_budget=10)
    with pytest.raises(ValidationError, match=match):
        UfpCrScheme(net, [1.0, 1.0], params, trial_rng(1, 0), eta=eta)


def test_zero_safety_estimate_raises_when_reached():
    net = with_demands(chain_tree(3), [(0, 2, 1.0)])
    params = UfpParams(alpha=0.12, sim_budget=10)
    scheme = UfpCrScheme(net, [1.0], params, trial_rng(2, 0), eta=[0.0])
    assert math.isnan(scheme.keep[0])
    rng = trial_rng(2, 1)
    with pytest.raises(EstimateError, match="sim_budget"):
        for _ in range(2000):
            scheme.trial(rng)


def test_routing_respects_capacities():
    for seed in range(4):
        net = gen_random_tree(n_vertices=15, n_demands=10, seed=seed)
        x = np.full(net.n_demands, 0.8)
        scheme = UfpCrScheme(net, x, UfpParams(alpha=0.1, sim_budget=20_000),
                             trial_rng(seed, 0))
        view = tree_lp_instance(net)
        rng = trial_rng(seed, 1)
        for _ in range(300):
            assert check_feasible(view, scheme.trial(rng))


def test_cr_round_single_call(rng):
    net = with_demands(chain_tree(4, cap=2), [(0, 3, 2.0), (1, 2, 1.0)])
    scheme = UfpCrScheme(net, [0.5, 0.5],
                         UfpParams(alpha=0.1, sim_budget=5_000), rng)
    routed = scheme.trial(rng)
    assert routed <= {0, 1}
    assert objective_value(tree_lp_instance(net), routed) == sum(
        (2.0, 1.0)[i] for i in routed)


def test_scheme_validates_x():
    net = with_demands(chain_tree(3), [(0, 2, 1.0)])
    params = UfpParams(alpha=0.1, sim_budget=10)
    with pytest.raises(ValidationError):
        UfpCrScheme(net, [1.0, 1.0], params, trial_rng(0, 0))
    with pytest.raises(ValidationError):
        UfpCrScheme(net, [1.5], params, trial_rng(0, 0))


# The report (two chunks of trials) and the safety table were recorded
# before the trial and the pool dropped their per-demand numpy calls;
# the draws, the pool and the routed sets must not move.
GOLDEN_REPORT_SHA256 = (
    "359a3e73371f388ded728269349da2018d0c9543854fec70a843a690ced745ab",
    "ec5b3a15b0016ae02c115c312f281ed54224df50667103c52d7ee4e1f6d97227")
GOLDEN_ETA_SHA256 = (
    "975a07d29fd787e26393066d3bb2186f3658179968d4fd60c07e689ccb2e46f7")


def test_round_ufp_report_bytes_are_pinned(tmp_path, capsys, report_digests):
    net, report = tmp_path / "tree.json", tmp_path / "report.json"
    assert cli.main(["gen", "tree", "--vertices", "30", "--demands", "40",
                     "--seed", "1", "-o", str(net)]) == 0
    assert cli.main(["round", "ufp", "--instance", str(net),
                     "--trials", "6000", "--seed", "7", "--alpha", "0.1",
                     "--sim-budget", "20000", "--json", str(report)]) == 0
    capsys.readouterr()
    assert report_digests(report) == GOLDEN_REPORT_SHA256


def test_safety_table_is_pinned():
    net = gen_random_tree(n_vertices=30, n_demands=40, seed=1)
    scheme = UfpCrScheme(net, np.full(net.n_demands, 0.8),
                         UfpParams(alpha=0.1, sim_budget=20_000),
                         trial_rng(2, 0))
    assert scheme.clamped == [] and 0.79 < scheme.eta.min() < 0.8
    digest = hashlib.sha256(scheme.eta.tobytes()).hexdigest()
    assert digest == GOLDEN_ETA_SHA256


# ---------------------------------------------------------------------------
# Relaxation bridge and JSON

def test_tree_lp_instance_shape():
    net = with_demands(chain_tree(4, cap=2), [(1, 3, 2.5), (0, 1, 1.0)])
    inst = tree_lp_instance(net)
    assert inst.m == net.n_vertices
    assert inst.capacities == (1.0, 2.0, 2.0, 2.0)
    assert inst.weights == (2.5, 1.0)
    assert inst.columns[0] == ((2, 1.0), (3, 1.0))
    assert inst.columns[1] == ((1, 1.0),)


def test_tree_round_trip(tmp_path):
    net = with_demands(chain_tree(4), [(0, 3, 1.5), (2, 3, 0.5)])
    path = tmp_path / "tree.json"
    save_tree(net, path)
    assert load_tree(path) == net
    assert tree_from_dict(tree_to_dict(net)) == net


def test_tree_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"parent": [-1]}')
    with pytest.raises(ValidationError, match="malformed"):
        load_tree(path)

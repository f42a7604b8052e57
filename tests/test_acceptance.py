"""End-to-end acceptance checks, one test per shipped guarantee.

Each test exercises a full pipeline at its stated tolerance, trial count,
and (where one applies) wall-clock budget.  Instances are fixed by seed so
every run reproduces the same verdicts.  Statistical checks use binomial
standard errors; checks downstream of a simulation pool widen the band by
the pool's own estimation error.
"""

import math
import time

import numpy as np

from sparsepack.graphcolor import (
    color_directed_graph,
    make_digraph,
    verify_coloring,
)
from sparsepack.harness import (
    ExperimentSpec,
    brute_force_opt,
    empirical_ratio,
    gen_gap_instance,
    gen_random_kcs,
    gen_random_tree,
    kcspip_ratio_trend,
    mc_inclusion_kcspip,
)
from sparsepack.hypermatch import (
    Hypergraph,
    attenuation_g,
    is_matching,
    round_matching,
    theoretical_bound,
)
from sparsepack.kcspip import (
    KcsParams,
    KcsRounder,
    conditional_inclusion_probabilities,
    exact_inclusion_probabilities,
    exact_pairwise_probabilities,
    instance_k,
)
from sparsepack.lp import solve_packing_lp
from sparsepack.montecarlo import trial_rng
from sparsepack.sksp import (
    MultiChanceSampler,
    SkspInstance,
    StochasticItem,
    compute_schedule,
    ideal_gamma,
)
from sparsepack.ufptree import UfpCrScheme, UfpParams, make_tree, optimize_alpha


def test_01_coloring_proper_within_palette_bound():
    """10^4 random bounded-out-degree digraphs (n up to 200, d in 1..8):
    every coloring proper, palette never above 2d+1, inside 10 s."""
    rng = np.random.default_rng(20260816)
    t0 = time.perf_counter()
    for i in range(10_000):
        d = 1 + i % 8
        n = int(rng.integers(150, 201)) if i % 100 == 0 else int(rng.integers(2, 26))
        arcs = []
        for v in range(n):
            deg = int(rng.integers(0, d + 1))
            if deg:
                pool = [u for u in range(n) if u != v]
                picks = rng.choice(pool, size=min(deg, n - 1), replace=False)
                arcs.extend((v, int(u)) for u in picks)
        g = make_digraph(n, arcs)
        coloring = color_directed_graph(g, d)
        assert coloring.palette <= 2 * d + 1
        assert verify_coloring(g, coloring)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"coloring sweep took {elapsed:.1f}s"


def test_02_rounding_never_violates_capacities():
    """10^4 trials on each of 50 random instances plus the tight family at
    k in {2, 5, 10, 20}: zero capacity violations, inside 60 s."""
    t0 = time.perf_counter()
    instances = [
        gen_random_kcs(8 + 2 * (i % 5), 5 + i % 6, 2 + i % 3, i) for i in range(50)
    ]
    instances += [gen_gap_instance(k) for k in (2, 5, 10, 20)]
    for idx, inst in enumerate(instances):
        report = empirical_ratio(ExperimentSpec("kcspip", inst, 10_000, idx))
        assert report.feasibility_violations == 0, f"instance {idx} violated"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"feasibility sweep took {elapsed:.1f}s"


def test_03_exact_marginals_match_monte_carlo():
    """On 20 instances with n <= 6, exact inclusion probabilities agree
    with a 10^6-trial Monte Carlo run within 4 binomial standard
    deviations per item, inside 5 min."""
    t0 = time.perf_counter()
    trials = 1_000_000
    for i in range(20):
        inst = gen_random_kcs(3 + i % 4, 3 + i % 3, 2 + i % 2, 100 + i)
        x = solve_packing_lp(inst).x
        params = KcsParams.defaults(instance_k(inst))
        exact = exact_inclusion_probabilities(inst, x, params)
        counts = mc_inclusion_kcspip(inst, x, params, trials, seed=i)
        sigma = np.sqrt(exact * (1.0 - exact) / trials)
        gap = np.abs(counts / trials - exact)
        assert np.all(gap <= 4.0 * sigma + 1e-15), (
            f"instance {i}: worst deviation {np.max(gap - 4.0 * sigma):.3g} "
            f"beyond 4 sigma"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"oracle agreement took {elapsed:.1f}s"


def test_04_tight_family_collapses_to_single_items():
    """At k = 20 the tight family rounds to at most one item in over 95%
    of 10^4 trials, and exhaustive search confirms the integral optimum
    is exactly 1."""
    inst = gen_gap_instance(20)
    x = solve_packing_lp(inst).x
    rounder = KcsRounder(inst, x, KcsParams.defaults(20))
    rng = trial_rng(0, 0, module=1)
    trials = 10_000
    small = sum(len(rounder.trial(rng)) <= 1 for _ in range(trials))
    assert small / trials > 0.95, f"|output| <= 1 in only {small}/{trials} trials"
    opt, chosen = brute_force_opt(inst, size_cap=inst.n + 1)
    assert opt == 1.0
    assert len(chosen) == 1


def test_05_conditional_inclusion_monotone_under_set_growth():
    """Exact conditional enumeration on a fixed family of n <= 6
    instances: growing the sampled set never increases any member's
    conditional inclusion probability (tolerance 1e-12), over every
    nested pair of sampled sets."""
    family = (
        (0, 4, 3, 2), (3, 4, 3, 3), (4, 5, 4, 2), (5, 6, 5, 3),
        (6, 4, 3, 2), (7, 5, 4, 3), (8, 6, 5, 2), (9, 4, 3, 3),
        (10, 5, 4, 2), (12, 4, 3, 2), (13, 5, 4, 3), (15, 4, 3, 3),
        (16, 5, 4, 2), (18, 4, 3, 2), (19, 5, 4, 3), (20, 6, 5, 2),
        (21, 4, 3, 3), (22, 5, 4, 2), (24, 4, 3, 2), (25, 5, 4, 3),
    )
    for seed, n, m, k in family:
        inst = gen_random_kcs(n, m, k, seed)
        params = KcsParams.defaults(instance_k(inst))
        cond = [
            conditional_inclusion_probabilities(
                inst, params, frozenset(j for j in range(n) if bits >> j & 1)
            )
            for bits in range(1 << n)
        ]
        for b2 in range(1 << n):
            sub = b2
            while True:
                if sub != b2:
                    for j in range(n):
                        if sub >> j & 1:
                            assert cond[sub][j] >= cond[b2][j] - 1e-12, (
                                f"seed {seed}: item {j} gained probability "
                                f"when {b2 & ~sub:b} joined the sample"
                            )
                if sub == 0:
                    break
                sub = (sub - 1) & b2


def test_06_pairwise_joints_nearly_negatively_correlated():
    """Exact pairwise joint probabilities under the randomized coloring
    on n <= 8 instances stay below 2 d^eps (x_u / 2k)(x_v / 2k) within
    1e-9, for eps in {0.3, 0.5}."""
    for seed in range(20):
        inst = gen_random_kcs(6 + seed % 3, 4 + seed % 3, 2 + seed % 2, seed)
        x = solve_packing_lp(inst).x
        k = instance_k(inst)
        for eps in (0.3, 0.5):
            params = KcsParams.defaults(k, epsilon=eps)
            joint = exact_pairwise_probabilities(inst, x, params)
            scale = 2.0 * params.d ** eps / (2 * k) ** 2
            for u in range(inst.n):
                for v in range(inst.n):
                    if u != v:
                        assert joint[u, v] <= scale * x[u] * x[v] + 1e-9, (
                            f"seed {seed} eps {eps}: pair ({u},{v}) exceeds bound"
                        )


def test_07_chance_schedule_exact_values_and_limit():
    """The two-chance schedule in the large-k limit is ((1, 1/2),
    (1/2, 1/8)) exactly; the idealized per-item guarantee gamma_T starts
    1/2, 5/8, 89/128, rises monotonically toward 1, and is expected to
    clear 0.95 by T = 20."""
    schedule = compute_schedule(2, math.inf)
    assert schedule.alphas == (1.0, 0.5)
    assert schedule.betas == (0.5, 0.125)
    gammas = ideal_gamma(60)
    assert abs(gammas[0] - 0.5) <= 1e-12
    assert abs(gammas[1] - 0.625) <= 1e-12
    assert abs(gammas[2] - 89.0 / 128.0) <= 1e-12
    assert all(g <= 1.0 for g in gammas)
    assert all(b > a for a, b in zip(gammas, gammas[1:]))
    g20 = gammas[19]
    crossing = next(T for T, g in enumerate(gammas, start=1) if g > 0.95)
    assert g20 > 0.95, (
        f"gamma_20 = {g20!r}; the sequence first clears 0.95 at T = {crossing}"
    )


def test_08_attenuation_hits_per_chance_targets_exactly():
    """Six independent deterministic-size items, two chances: per-chance
    empirical add rates over 10^6 trials sit within 3 sigma of the
    schedule targets beta_t x_j / k, and no trial adds an item twice.

    The tolerance combines the trial-count binomial error with the
    estimation-pool error that attenuation bakes into its keep
    probabilities (the realized rate is target * p / p_hat)."""
    n, k = 6, 8
    items = tuple(
        StochasticItem(support=(i,), scenarios=((1.0, 1.0, (1,)),)) for i in range(n)
    )
    inst = SkspInstance(m=n, capacities=(1,) * n, items=items, k=k)
    schedule = compute_schedule(2, k)
    assert schedule.betas == (0.5, 0.0625)
    x = np.ones(n)
    pool = 1_000_000
    trials = 1_000_000
    sampler = MultiChanceSampler(
        inst, x, schedule, trial_rng(9, 0, module=103), sim_budget=pool
    )
    counts, violations, double_adds = sampler.chance_tally(
        trials, trial_rng(9, 1, module=3)
    )
    assert violations == 0
    assert double_adds == 0
    natural = (
        schedule.alphas[0] / k,
        (1.0 - schedule.alphas[0] / k) * schedule.alphas[1] / k,
    )
    for t in range(2):
        target = schedule.betas[t] / k
        sigma_trial = math.sqrt(target * (1.0 - target) / trials)
        sigma_pool = target * math.sqrt(
            (1.0 - natural[t]) / (natural[t] * pool)
        )
        tol = 3.0 * math.hypot(sigma_trial, sigma_pool)
        for j in range(n):
            rate = counts[t, j] / trials
            assert abs(rate - target) <= tol, (
                f"chance {t} item {j}: rate {rate:.6f} vs target {target:.6f} "
                f"(tol {tol:.2g})"
            )


def test_09_star_contention_respects_matching_floor():
    """Saturated stars whose petals have k_e in {2, 3, 5}: over 10^6
    trials each, every petal is matched at a rate of at least
    (1 - e^{-k_e})/k_e times its fractional value minus 3 sigma, and no
    trial ever outputs overlapping edges."""
    petals = 32
    trials = 1_000_000
    for k_e in (2, 3, 5):
        edges = tuple(
            (tuple([0] + [1 + (k_e - 1) * i + t for t in range(k_e - 1)]), 1.0)
            for i in range(petals)
        )
        h = Hypergraph(m=1 + (k_e - 1) * petals, edges=edges)
        x = np.full(petals, 1.0 / petals)
        rng = trial_rng(k_e, 0, module=4)
        counts = np.zeros(petals, dtype=np.int64)
        overlaps = 0
        for _ in range(trials):
            picked = round_matching(h, x, attenuation_g, rng)
            if not is_matching(h, picked):
                overlaps += 1
            for e in picked:
                counts[e] += 1
        assert overlaps == 0
        floor = theoretical_bound(k_e)
        rates = counts / trials
        sigma = np.sqrt(rates * (1.0 - rates) / trials) / x
        ratios = rates / x
        assert np.all(ratios >= floor - 3.0 * sigma), (
            f"k_e={k_e}: worst ratio {ratios.min():.4f} under floor {floor:.4f}"
        )


def test_10_tree_routing_balance_and_capacity_safety():
    """The balance objective peaks at 0.12270 (within 1e-3) on a 1e-6
    grid; rounding respects every edge capacity across 10^5 trials over
    20 random trees; a lone demand is routed with probability exactly
    alpha beta x (within 3 sigma of 10^5 trials)."""
    _, balance = optimize_alpha(grid_resolution=1e-6)
    assert abs(balance - 0.12270) <= 1e-3

    for seed in range(20):
        net = gen_random_tree(8 + seed % 9, 4 + seed % 7, seed)
        report = empirical_ratio(
            ExperimentSpec(
                "ufp", net, 5_000, seed,
                params={"alpha": 0.1, "sim_budget": 20_000},
            )
        )
        assert report.feasibility_violations == 0, f"tree {seed} violated"

    net = make_tree((-1, 0, 1), 0, (1, 1, 1), ((2, 0, 1.0),))
    params = UfpParams(alpha=0.1, sim_budget=10_000)
    x = 0.8
    scheme = UfpCrScheme(net, [x], params, trial_rng(5, 0, module=105))
    assert scheme.eta[0] == 1.0
    trials = 100_000
    rng = trial_rng(5, 1, module=5)
    routed = sum(0 in scheme.trial(rng) for _ in range(trials))
    target = params.alpha * params.beta * x
    sigma = math.sqrt(target * (1.0 - target) / trials)
    assert abs(routed / trials - target) <= 3.0 * sigma


def test_11_ratio_trend_reported_not_thresholded():
    """Worst-case guarantees are asymptotic in k, so no fixed desk-scale
    constant is asserted; the harness reports the tight-family ratio
    trend at k in {5, 10, 20, 40} and the suite asserts only its shape
    and that every run stayed feasible."""
    rows = kcspip_ratio_trend(ks=(5, 10, 20, 40), trials=20_000, seed=0)
    assert [r["k"] for r in rows] == [5, 10, 20, 40]
    for r in rows:
        assert r["violations"] == 0
        assert r["trials"] == 20_000
        assert r["min_ratio"] is not None and math.isfinite(r["min_ratio"])
        assert r["mean_ratio"] is not None and r["mean_ratio"] > 0.0
        assert r["n"] == 2 * r["k"] - 1
    trend = ", ".join(f"k={r['k']}: min={r['min_ratio']:.3f}" for r in rows)
    print(f"tight-family ratio trend (floor 1): {trend}")

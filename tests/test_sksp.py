"""Stochastic probing: schedules, the engine, attenuation, exclusivity."""

import hashlib
import math

import numpy as np
import pytest

import sparsepack.cli as cli
from sparsepack import montecarlo
from sparsepack.core import make_instance
from sparsepack.errors import AttenuationError, ParamError, ValidationError
from sparsepack.harness import gen_sksp_instance
from sparsepack.lp import solve_packing_lp
from sparsepack.montecarlo import binomial_stderr, trial_rng
from sparsepack.sksp import (ChanceSchedule, MultiChanceSampler, SkspInstance,
                             compute_schedule, default_chances, default_sim_budget,
                             expected_size_instance, ideal_gamma, load_sksp,
                             make_item, save_sksp, sksp_from_dict, sksp_to_dict,
                             validate_sksp)


def deterministic_item(rows, weight=1.0):
    """An item that always consumes one unit on each of its rows."""
    return make_item(rows, [(1.0, weight, [1] * len(rows))])


def expected_size_lp(inst):
    return solve_packing_lp(expected_size_instance(inst), strengthen=False)


def disjoint_instance(n, k, cap=10):
    """n deterministic items on n separate rows, ample capacity."""
    items = [deterministic_item([j]) for j in range(n)]
    return SkspInstance(m=n, capacities=(cap,) * n, items=tuple(items), k=k)


# ---------------------------------------------------------------------------
# Schedules

def test_schedule_first_chances_are_exact():
    sched = compute_schedule(2, math.inf)
    assert sched.alphas == (1.0, 0.5)
    assert sched.betas == (0.5, 0.125)
    assert compute_schedule(1, math.inf).betas == (0.5,)


def test_ideal_gamma_prefix_values():
    gammas = ideal_gamma(3)
    assert gammas[0] == 0.5
    assert gammas[1] == 0.625
    assert gammas[2] == 89.0 / 128.0
    # gamma <- gamma + (1 - gamma)^2 / 2, to the last bit
    g, expect = 0.0, []
    for _ in range(60):
        g = g + (1.0 - g) ** 2 / 2.0
        expect.append(g)
    assert ideal_gamma(60) == expect


def test_gamma_is_monotone_and_below_one():
    gammas = ideal_gamma(40)
    assert all(b > a for a, b in zip(gammas, gammas[1:]))
    assert gammas[-1] < 1.0


def test_finite_k_correction():
    # Second chance: beta* = 1/8, correction alpha2* alpha1* / k.
    assert compute_schedule(2, 8).betas == (0.5, 0.0625)
    # At k = 2 the correction exceeds beta* and clamps to zero.
    assert compute_schedule(2, 2).betas == (0.5, 0.0)
    # alphas are the uncorrected rates either way.
    assert compute_schedule(2, 2).alphas == (1.0, 0.5)


def test_schedule_totals_match_ideal_for_infinite_k():
    sched = compute_schedule(6, math.inf)
    running = np.cumsum(sched.betas)
    assert np.allclose(running, ideal_gamma(6), atol=1e-15)


def test_schedule_validation():
    with pytest.raises(ParamError):
        compute_schedule(0, 8)
    with pytest.raises(ParamError):
        ideal_gamma(0)
    with pytest.raises(ParamError):
        compute_schedule(2, 0.5)
    with pytest.raises(ParamError, match="outside"):
        ChanceSchedule(alphas=(1.5,), betas=(0.1,))
    with pytest.raises(ParamError, match="outside"):
        # cap at alpha (1 - alpha/2) = 0.5
        ChanceSchedule(alphas=(1.0,), betas=(0.6,))
    with pytest.raises(ParamError, match="nonempty"):
        ChanceSchedule(alphas=(), betas=())


def test_default_chances_grows_logarithmically():
    assert default_chances(1) == 1
    assert default_chances(2) == 1
    assert default_chances(8) == 3
    assert default_chances(20) == 3
    assert default_chances(21) == 4


def chernoff_count(c, epsilon, delta):
    """ceil(3/(c eps^2) ln(1/delta)), the multiplicative Chernoff count."""
    return math.ceil(3.0 / (c * epsilon**2) * math.log(1.0 / delta))


def test_default_sim_budget_is_the_chernoff_count_of_the_smallest_target():
    assert chernoff_count(1.0, 0.1, 1e-4) == 2764  # by hand
    for targets in ([[0.5, 0.25], [0.0, 0.125]], [[1.0 / 24, 0.0]],
                    [[0.1, 0.3], [0.02, 0.0]], [[1.0, 1e-3]]):
        c = min(v for row in targets for v in row if v > 0)
        assert default_sim_budget(np.array(targets)) == chernoff_count(c, 0.01, 1e-4)
    assert default_sim_budget(np.zeros((2, 3))) == 1000


# ---------------------------------------------------------------------------
# Instance model

def test_item_expectations():
    item = make_item([2, 5], [(0.25, 4.0, [1, 0]), (0.75, 2.0, [1, 1])])
    assert item.expected_weight == pytest.approx(2.5)
    assert item.expected_sizes == pytest.approx((1.0, 0.75))


def test_validate_sksp_flags_defects():
    bad_prob = SkspInstance(
        m=1, capacities=(1,), k=1,
        items=(make_item([0], [(0.5, 1.0, [1])]),),
    )
    assert any("sum" in v for v in validate_sksp(bad_prob).violations)
    wide = SkspInstance(
        m=2, capacities=(1, 1), k=1,
        items=(deterministic_item([0, 1]),),
    )
    assert any("k=1" in v for v in validate_sksp(wide).violations)
    float_cap = SkspInstance(
        m=1, capacities=(1.5,), k=1, items=(deterministic_item([0]),),
    )
    assert any("integer" in v for v in validate_sksp(float_cap).violations)
    bad_bits = SkspInstance(
        m=1, capacities=(1,), k=1,
        items=(make_item([0], [(1.0, 1.0, [1, 0])]),),
    )
    assert any("length" in v for v in validate_sksp(bad_bits).violations)


def test_validate_sksp_rejects_infinite_or_nan_scenario_values():
    def one_item(p, w):
        return SkspInstance(m=1, capacities=(1,), k=1,
                            items=(make_item([0], [(p, w, [1])]),))
    inf_weight = validate_sksp(one_item(1.0, float("inf"))).violations
    assert any("not finite" in v for v in inf_weight)
    nan_weight = validate_sksp(one_item(1.0, float("nan"))).violations
    assert any("weight nan" in v for v in nan_weight)
    # a NaN probability makes the sum NaN, which `> 1e-9` let through
    nan_prob = validate_sksp(one_item(float("nan"), 1.0)).violations
    assert any("probability nan" in v for v in nan_prob)
    assert any("sum" in v for v in nan_prob)


def test_expected_size_instance_projects_u():
    inst = SkspInstance(
        m=2, capacities=(1, 2), k=2,
        items=(
            make_item([0, 1], [(0.5, 1.0, [1, 0]), (0.5, 3.0, [0, 0])]),
        ),
    )
    packed = expected_size_instance(inst)
    assert packed.columns == (((0, 0.5),),)  # the never-used row drops out
    assert packed.weights == (2.0,)
    assert packed.capacities == (1.0, 2.0)
    assert packed.k == 2


def test_expected_size_instance_clamps_summation_dust():
    # These probabilities sum to one plus an ulp, inside the band
    # validate_sksp allows, so the occupancy column must clamp to 1
    # rather than fail the strict packing-side check.
    probs = (0.9441251593364429, 0.03504136139436355, 0.02083347926919371)
    item = make_item([0], [(p, 1.0, [1]) for p in probs])
    inst = SkspInstance(m=1, capacities=(1,), k=1, items=(item,))
    assert validate_sksp(inst).ok
    packed = expected_size_instance(inst)
    assert packed.columns == (((0, 1.0),),)


def test_lp_on_deterministic_items_matches_plain_relaxation():
    inst = SkspInstance(
        m=2, capacities=(1, 1), k=2,
        items=(deterministic_item([0], 2.0), deterministic_item([0, 1], 1.0)),
    )
    sol = expected_size_lp(inst)
    plain = make_instance([1, 1], [2.0, 1.0], [[(0, 1.0)], [(0, 1.0), (1, 1.0)]],
                          k=2)
    assert sol == solve_packing_lp(plain, strengthen=False)
    assert sol.objective == pytest.approx(2.0)


def test_expected_size_instance_validates_the_stochastic_instance():
    inst = SkspInstance(m=1, capacities=(1,), k=1,
                        items=(deterministic_item([3]),))
    with pytest.raises(ValidationError, match="out of range"):
        expected_size_instance(inst)


# ---------------------------------------------------------------------------
# Probing engine

def single_chance(inst, x, alpha, rng):
    """One unattenuated chance at rate alpha x_j / k: no pool runs, so
    building it draws nothing from rng."""
    return MultiChanceSampler(inst, x, ChanceSchedule(alphas=(alpha,),
                                                      betas=(0.0,)),
                              rng, attenuate_last=False)


def test_single_chance_on_a_full_row_probes_exactly_one():
    items = tuple(deterministic_item([0]) for _ in range(4))
    inst = SkspInstance(m=1, capacities=(1,), k=1, items=items)
    rng = trial_rng(0, 0)
    sampler = single_chance(inst, [1.0] * 4, alpha=1.0, rng=rng)
    for _ in range(50):
        out = sampler.trial(rng)
        assert len(out.chosen) == 1
        assert out.usage == (1,)
        assert out.realized_weight == 1.0


def test_single_chance_respects_sampling_rate():
    inst = disjoint_instance(1, k=2)
    rng = trial_rng(1, 0)
    trials = 20_000
    sampler = single_chance(inst, [0.8], alpha=1.0, rng=rng)
    hits = sum(bool(sampler.trial(rng).chosen) for _ in range(trials))
    # sample rate alpha x / k = 0.4, and a lone item is always safe
    assert hits / trials == pytest.approx(0.4, abs=4 * binomial_stderr(0.4, trials))


def test_added_chance_records_the_pass():
    inst = disjoint_instance(2, k=2)
    sched = compute_schedule(2, inst.k)
    sampler = MultiChanceSampler(inst, [1.0, 1.0], sched, trial_rng(3, 0),
                                 sim_budget=20_000)
    out = sampler.trial(trial_rng(3, 1))
    for j, t in enumerate(out.added_chance):
        assert t in (-1, 0, 1)
        assert (j in out.chosen) == (t >= 0)


def test_chance_tally_sees_no_double_adds_or_violations():
    inst = SkspInstance(
        m=2, capacities=(1, 1), k=2,
        items=(deterministic_item([0]), deterministic_item([0, 1]),
               deterministic_item([1])),
    )
    x = expected_size_lp(inst).x
    sched = compute_schedule(2, inst.k)
    sampler = MultiChanceSampler(inst, x, sched, trial_rng(4, 0),
                                 sim_budget=20_000)
    counts, violations, double_adds = sampler.chance_tally(5_000, trial_rng(4, 1))
    assert counts.shape == (2, 3)
    assert violations == 0
    assert double_adds == 0


def test_chance_tally_counts_a_double_add_the_pass_reports(monkeypatch):
    # Each item is eligible in one chance only, so a real pass never adds
    # an item twice; hand the tally a pass whose first run reports one
    # add event more than it has distinct added items.
    inst = disjoint_instance(3, k=2)
    sched = compute_schedule(1, inst.k)
    sampler = MultiChanceSampler(inst, [1.0] * 3, sched, trial_rng(4, 0),
                                 attenuate_last=False)
    honest = sampler.engine._pass

    def doubled(draws):
        added, usage, weight, events = honest(draws)
        events[0] += 1
        return added, usage, weight, events

    monkeypatch.setattr(sampler.engine, "_pass", doubled)
    # a run is 12 uniforms wide (3Tn + n), so slices of 100 runs
    monkeypatch.setattr(montecarlo, "_SLAB", 1200)
    _, violations, double_adds = sampler.chance_tally(250, trial_rng(4, 1))
    assert violations == 0
    assert double_adds == 3  # one per slice of 100, 100 and 50


def test_chance_tally_rejects_a_count_below_one():
    inst = disjoint_instance(2, k=2)
    sampler = MultiChanceSampler(inst, [1.0, 1.0], compute_schedule(1, inst.k),
                                 trial_rng(4, 0), attenuate_last=False)
    with pytest.raises(ParamError, match="trials=0"):
        sampler.chance_tally(0, trial_rng(4, 1))


def test_attenuation_flattens_per_chance_rates():
    # Disjoint deterministic items with ample capacity: the only
    # randomness is the coin cascade, and attenuation should pin the
    # add rate of every chance at beta_t x / k.
    inst = disjoint_instance(2, k=8)
    x = [1.0, 1.0]
    sched = compute_schedule(2, inst.k)
    sampler = MultiChanceSampler(inst, x, sched, trial_rng(5, 0),
                                 sim_budget=100_000)
    trials = 60_000
    counts, violations, _ = sampler.chance_tally(trials, trial_rng(5, 1))
    assert violations == 0
    for t in range(2):
        target = sched.betas[t] * 1.0 / inst.k
        for j in range(2):
            freq = counts[t, j] / trials
            noise = 4 * binomial_stderr(target, trials) + 0.03 * target
            assert freq == pytest.approx(target, abs=noise)


def test_unattenuated_last_chance_beats_its_target():
    inst = disjoint_instance(1, k=8)
    sched = compute_schedule(2, inst.k)
    sampler = MultiChanceSampler(inst, [1.0], sched, trial_rng(6, 0),
                                 sim_budget=50_000, attenuate_last=True)
    free = MultiChanceSampler(inst, [1.0], sched, trial_rng(6, 0),
                              sim_budget=50_000, attenuate_last=False)
    assert (free.keeps[-1] == 1.0).all()
    assert free.keeps[0].tobytes() == sampler.keeps[0].tobytes()
    assert (sampler.keeps[-1] < 1.0).any()
    trials = 40_000
    capped, _, _ = sampler.chance_tally(trials, trial_rng(6, 1))
    raw, _, _ = free.chance_tally(trials, trial_rng(6, 1))
    # Unattenuated: Pr[first success at chance 2] = (1 - 1/8) / 16.
    expect_raw = (1 - 1.0 / 8.0) * 0.5 / 8.0
    assert raw[1, 0] / trials == pytest.approx(
        expect_raw, abs=4 * binomial_stderr(expect_raw, trials))
    assert capped[1, 0] < raw[1, 0]


def test_zero_target_chances_run_no_pool():
    # At k = 3 the default T = 2 gives beta = (0.5, 0): chance 2 can add
    # nothing, so it gets a zero keep row and no estimation pool.
    inst = disjoint_instance(3, k=3)
    sched = compute_schedule(default_chances(inst.k), inst.k)
    assert sched.betas[-1] == 0.0
    sampler = MultiChanceSampler(inst, [1.0] * 3, sched, trial_rng(8, 0),
                                 sim_budget=2_000)
    assert not np.isnan(sampler.probe_estimates[0]).any()
    assert np.isnan(sampler.probe_estimates[-1]).all()
    assert list(sampler.keeps[-1]) == [0.0] * 3


def test_second_chance_holds_its_conditional_floor():
    # With the last chance unattenuated, the add rate of chance 2 must
    # be at least (x/k) alpha2 (1 - alpha1 x/k - beta1 - alpha2/2)
    # however the earlier chance interferes.
    items = (deterministic_item([0]), deterministic_item([0]))
    inst = SkspInstance(m=1, capacities=(1,), k=3, items=items)
    x = [0.5, 0.5]
    sched = compute_schedule(2, inst.k)
    a1, a2 = sched.alphas
    b1 = sched.betas[0]
    sampler = MultiChanceSampler(inst, x, sched, trial_rng(7, 0),
                                 sim_budget=60_000, attenuate_last=False)
    trials = 60_000
    counts, violations, _ = sampler.chance_tally(trials, trial_rng(7, 1))
    assert violations == 0
    for j in range(2):
        floor = (x[j] / inst.k) * a2 * (1 - a1 * x[j] / inst.k - b1 - a2 / 2)
        freq = counts[1, j] / trials
        assert freq >= floor - 3 * binomial_stderr(max(freq, floor), trials)


def test_attenuation_error_when_target_is_unreachable():
    # Six always-sampled items contending for one unit: each is safe
    # only when it comes first, so the add rate is about 1/6, far below
    # the demanded beta x / k = 1/2.
    items = tuple(deterministic_item([0]) for _ in range(6))
    inst = SkspInstance(m=1, capacities=(1,), k=1, items=items)
    sched = ChanceSchedule(alphas=(1.0,), betas=(0.5,))
    with pytest.raises(AttenuationError, match="below target"):
        MultiChanceSampler(inst, [1.0] * 6, sched, trial_rng(8, 0),
                           sim_budget=10_000)


def test_sampler_validates_input():
    inst = disjoint_instance(2, k=2)
    sched = compute_schedule(1, inst.k)
    with pytest.raises(ValidationError):
        MultiChanceSampler(inst, [1.0], sched, trial_rng(0, 0), sim_budget=10)
    with pytest.raises(ParamError):
        MultiChanceSampler(inst, [1.0, 1.0], sched, trial_rng(0, 0),
                           sim_budget=0)


def test_run_multichance_is_reproducible():
    inst = disjoint_instance(3, k=4)
    sched = compute_schedule(2, inst.k)
    outcomes = []
    for _ in range(2):
        rng = trial_rng(9, 0)
        sampler = MultiChanceSampler(inst, [0.9, 0.5, 0.1], sched, rng,
                                     sim_budget=5_000)
        outcomes.append(sampler.trial(rng))
    assert outcomes[0] == outcomes[1]


# Recorded when every pool run came to read its uniforms as one
# 3T'n + n block (hits, order keys, keep coins, scenario uniforms), the
# block a trial of those T' chances reads; the trial stream did not
# move.  The first entry is the full report's digest, the second that
# of the report without objective_std_err.
GOLDEN_REPORT_SHA256 = (
    "ab7b87c8457dc6ee137dd6564b6ed60c29c311e666fb1b281a979cb4dfffbbc4",
    "1292c53c51595f12c9dd71685e7782477dc6177ed0bb7676f997ac5061e1d5d0")
GOLDEN_ESTIMATES_SHA256 = (
    "f9db9a737ac794057b5153fff5d915478181cb437697cb115e614856ab722be4")


def test_round_sksp_report_bytes_are_pinned(tmp_path, capsys, report_digests):
    inst, report = tmp_path / "sksp.json", tmp_path / "report.json"
    assert cli.main(["gen", "sksp", "--n", "10", "--m", "6", "--k", "3",
                     "--seed", "2", "-o", str(inst)]) == 0
    assert cli.main(["round", "sksp", "--instance", str(inst),
                     "--trials", "2000", "--seed", "7", "--chances", "3",
                     "--sim-budget", "20000", "--json", str(report)]) == 0
    capsys.readouterr()
    assert report_digests(report) == GOLDEN_REPORT_SHA256


def test_probe_estimates_are_pinned():
    # Two estimated chances, so the second pool runs the first attenuated.
    inst = gen_sksp_instance(10, 6, 3, 3, seed=2)
    sched = ChanceSchedule(alphas=(1.0, 0.5), betas=(0.5, 0.05))
    sampler = MultiChanceSampler(inst, expected_size_lp(inst).x, sched,
                                 trial_rng(2, 0), sim_budget=20_000)
    digest = hashlib.sha256(sampler.probe_estimates.tobytes()).hexdigest()
    assert digest == GOLDEN_ESTIMATES_SHA256


# ---------------------------------------------------------------------------
# JSON interchange

def test_sksp_round_trip(tmp_path):
    inst = SkspInstance(
        m=3, capacities=(1, 2, 1), k=2,
        items=(
            make_item([0, 2], [(0.3, 1.5, [1, 0]), (0.7, 0.5, [1, 1])]),
            deterministic_item([1], 2.0),
        ),
    )
    path = tmp_path / "inst.json"
    save_sksp(inst, path)
    assert load_sksp(path) == inst
    assert sksp_from_dict(sksp_to_dict(inst)) == inst


def test_sksp_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"m": 1}')
    with pytest.raises(ValidationError, match="malformed"):
        load_sksp(path)


SKSP_DICT = {"m": 2, "k": 2, "capacities": [2, 1], "items": [
    {"support": [0, 1], "scenarios": [[0.25, 1.5, [1, 0]], [0.75, 1, [1, 1]]]}]}


@pytest.mark.parametrize("path, value, refusal", [
    (("capacities", 0), 2.7, "capacity=2.7 is not a JSON integer"),
    (("capacities", 1), True, "capacity=True is not a JSON integer"),
    (("k",), "2", "k='2' is not a JSON integer"),
    (("m",), 2.0, "m=2.0 is not a JSON integer"),
    (("items", 0, "support", 1), 1.0, "support row=1.0 is not a JSON integer"),
    (("items", 0, "scenarios", 0, 0), "0.25",
     "probability='0.25' is not a JSON number"),
    (("items", 0, "scenarios", 1, 1), True, "weight=True is not a JSON number"),
    (("items", 0, "scenarios", 1, 2, 0), True,
     "scenario bit=True is not a JSON integer"),
])
def test_sksp_load_refuses_what_it_used_to_coerce(path, value, refusal,
                                                  edited):
    # capacities [2.7, true] used to load as (2, 1), and k "2" as 2
    with pytest.raises(ValidationError, match=refusal):
        sksp_from_dict(edited(SKSP_DICT, path, value))
    assert sksp_from_dict(SKSP_DICT).items[0].scenarios[1][1] == 1.0

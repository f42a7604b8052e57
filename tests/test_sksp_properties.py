"""The sksp engine's one-run walk against its vectorised pass, trial by
trial on twin streams, over random small instances (hypothesis), and
`chance_tally` against as many sampler trials.

Scenario tables include zero-probability scenarios (tied cumulative
probabilities) and items with an empty support; keep rows are random,
absent (an unattenuated chance) or all zero.  Fixed cases pin what the
walk's plan leaves out: a trailing run of zero keep rows, items with a
zero hit probability, and nothing of a zero keep row in the middle.
Others drive the pass's rank rounds to their full depth, within a
chance and across two, and pin the scenario of a uniform that equals a
cumulative probability.
"""

import numpy as np
import pytest

from sparsepack.harness import gen_sksp_instance
from sparsepack.montecarlo import trial_rng
from sparsepack.sksp import (MultiChanceSampler, SkspInstance, _Engine,
                             compute_schedule, make_item, validate_sksp)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TRIALS = 24


@st.composite
def instances(draw):
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, min(3, m)))
    items = []
    for _ in range(draw(st.integers(1, 8))):
        support = draw(st.lists(st.integers(0, m - 1), max_size=k, unique=True))
        mass = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)
                    .filter(any))
        scenarios = [
            (a / sum(mass), draw(st.sampled_from([0.0, 0.5, 1.0, 2.25])),
             draw(st.lists(st.integers(0, 1), min_size=len(support),
                           max_size=len(support))))
            for a in mass
        ]
        items.append(make_item(support, scenarios))
    capacities = tuple(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
    inst = SkspInstance(m=m, capacities=capacities, items=tuple(items), k=k)
    assert validate_sksp(inst).ok
    return inst


def keep_rows(n):
    return (st.none() | st.just([0.0] * n)
            | st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.data())
def test_walks_equal_the_pass_on_a_twin_stream(data):
    # consecutive walks on one stream against one pass of as many runs
    # on a twin stream
    inst = data.draw(instances())
    n = inst.n
    x = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    T = data.draw(st.integers(1, 3))
    alphas = data.draw(st.lists(st.floats(0.0, 1.0), min_size=T, max_size=T))
    keeps = [data.draw(keep_rows(n)) for _ in range(T)]
    seed = data.draw(st.integers(0, 2**32 - 1))

    engine = _Engine(inst, x)
    assert_walks_equal_the_pass(engine, engine.y_probs(alphas), keeps, seed,
                                TRIALS)


def assert_walks_equal_the_pass(engine, yp, keeps, seed, trials):
    """Consecutive walks on one stream against the rows of one pass of
    `trials` runs drawn on a twin stream; returns the walks and the
    plan."""
    plan = engine._plan(yp.tolist(), keeps)
    rng, twin = trial_rng(seed, 0), trial_rng(seed, 0)
    added, usage, weight, events = engine._pass(
        engine._draw(yp, keeps, trials, twin))
    walks = []
    for b in range(trials):
        walked = engine._walk(plan, rng)
        assert tuple(added[b].tolist()) == walked.added_chance
        assert tuple(usage[b].tolist()) == walked.usage
        assert weight[b] == pytest.approx(walked.realized_weight, abs=1e-12)
        assert events[b] == len(walked.chosen)
        assert (usage[b] <= np.asarray(engine.inst.capacities)).all()
        walks.append(walked)
    assert rng.bit_generator.state == twin.bit_generator.state
    return walks, plan


def two_scenario_item(rows, weight):
    return make_item(rows, [(0.5, weight, [1] * len(rows)),
                            (0.5, 2 * weight, [1] + [0] * (len(rows) - 1))])


def contended_instance():
    # six items on one unit row, so the visiting order picks the add
    items = [two_scenario_item([0] + ([1] if j % 2 else []), 1.0 + j)
             for j in range(6)]
    return SkspInstance(m=2, capacities=(1, 2), items=tuple(items), k=2)


def chances_walked(plan):
    return [sorted(entry[0] for entry in entries) for entries in plan[1]]


def test_a_trailing_zero_keep_run_is_not_walked():
    engine = _Engine(contended_instance(), [1.0] * 6)
    yp = engine.y_probs([0.9, 0.8, 0.7])
    keeps = [[1.0, 0.5, 0.0, 1.0, 0.7, 0.9], [0.0] * 6, [0.0] * 6]
    walks, plan = assert_walks_equal_the_pass(engine, yp, keeps, 21, 400)
    # the block still spans all three chances; only the first is walked
    assert plan[0] == 3
    assert chances_walked(plan) == [[0, 1, 3, 4, 5]]
    assert sum(w.added_chance[0] == 0 for w in walks) > 20
    assert sum(w.added_chance[5] == 0 for w in walks) > 20


def test_a_zero_keep_row_in_the_middle_marks_its_hits():
    # ample room: an item that is hit and kept is always added
    inst = SkspInstance(m=4, capacities=(9,) * 4, k=1, items=tuple(
        two_scenario_item([j], 1.0) for j in range(4)))
    engine = _Engine(inst, [1.0] * 4)
    yp = engine.y_probs([0.5, 0.5, 0.5])
    keeps = [[0.5] * 4, [0.0] * 4, None]
    walks, plan = assert_walks_equal_the_pass(engine, yp, keeps, 22, 400)
    assert chances_walked(plan) == [[0, 1, 2, 3]] * 3
    assert {t for w in walks for t in w.added_chance} == {-1, 0, 2}


def test_an_unattenuated_last_chance_keeps_every_hit_item():
    inst = gen_sksp_instance(10, 6, 3, 3, seed=2)
    sampler = MultiChanceSampler(inst, np.full(inst.n, 0.6),
                                 compute_schedule(2, inst.k), trial_rng(2, 0),
                                 sim_budget=5_000, attenuate_last=False)
    assert sampler.keeps[-1] is None
    assert all(entry[4] == 1.0 for entry in sampler.plan[1][-1])
    walks, _ = assert_walks_equal_the_pass(sampler.engine, sampler.yp_full,
                                           sampler.keeps, 23, 300)
    assert any(1 in w.added_chance for w in walks)


def test_an_item_never_hit_is_not_walked():
    engine = _Engine(contended_instance(), [1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    # chance 1 hits nothing, so chance 0 is the last that may add
    yp = engine.y_probs([0.9, 0.0])
    keeps = [None, [1.0] * 6]
    walks, plan = assert_walks_equal_the_pass(engine, yp, keeps, 24, 400)
    assert chances_walked(plan) == [[0, 2, 3, 5]]
    assert all(w.added_chance[1] == w.added_chance[4] == -1 for w in walks)
    assert {j for w in walks for j in w.chosen} == {0, 2, 3, 5}


def one_row_instance(n, consumes):
    """n items on row 0 of capacity 2, each with two equally likely
    scenarios of different weights; item j consumes a unit of the row in
    both iff consumes(j)."""
    items = [make_item([0], [(0.5, 1.0 + j, [int(consumes(j))]),
                             (0.5, 2.0 + j, [int(consumes(j))])])
             for j in range(n)]
    return SkspInstance(m=1, capacities=(2,), items=tuple(items), k=1)


def test_every_item_live_drives_the_ranks_to_full_depth():
    # y = 1 and keep 1: every run has all n items live in chance 0, and
    # the first two by key fill the row
    n = 6
    engine = _Engine(one_row_instance(n, lambda j: True), [1.0] * n)
    yp, keeps = engine.y_probs([1.0]), [[1.0] * n]
    B, chances = engine._draw(yp, keeps, 400, trial_rng(25, 0))
    assert (np.bincount(chances[0][0], minlength=B) == n).all()
    walks, _ = assert_walks_equal_the_pass(engine, yp, keeps, 25, 400)
    assert all(len(w.chosen) == 2 for w in walks)


def test_items_that_consume_nothing_add_past_the_second_rank():
    # odd items consume nothing, so a run keeps adding until two even
    # items fill the row: up to five adds, at ranks 0 to 4
    n = 6
    engine = _Engine(one_row_instance(n, lambda j: j % 2 == 0), [1.0] * n)
    yp, keeps = engine.y_probs([1.0]), [[1.0] * n]
    walks, _ = assert_walks_equal_the_pass(engine, yp, keeps, 26, 400)
    assert max(len(w.chosen) for w in walks) == 5


def test_the_adds_of_one_chance_fill_the_row_the_next_one_needs():
    # the items not hit in chance 0 are all live in chance 1, and add
    # there only while chance 0 left the row room
    n = 6
    engine = _Engine(one_row_instance(n, lambda j: True), [1.0] * n)
    yp, keeps = engine.y_probs([0.5, 1.0]), [[1.0] * n, [1.0] * n]
    walks, _ = assert_walks_equal_the_pass(engine, yp, keeps, 27, 400)
    assert all(len(w.chosen) == 2 for w in walks)
    full = [w for w in walks if w.added_chance.count(0) == 2]
    assert full and all(1 not in w.added_chance for w in full)
    assert any(w.added_chance.count(1) == 2 for w in walks)


class CraftedUniforms:
    """A generator stand-in whose `random(shape)` repeats one crafted
    row of uniforms to fill the shape."""

    def __init__(self, row):
        self.row = np.asarray(row, dtype=float)

    def random(self, shape):
        return np.resize(self.row, shape)


@pytest.mark.parametrize("u, weight", [(0.25, 1.0), (0.75, 2.0)])
def test_a_uniform_on_a_cumulative_probability_picks_the_lower_scenario(
        u, weight):
    # cumulative probabilities 0.25 and 0.75 are exact; only entries
    # strictly below the uniform count, so one equal to 0.25 picks
    # scenario 0 and one equal to 0.75 scenario 1
    item = make_item([0], [(0.25, 1.0, [1]), (0.5, 2.0, [1]), (0.25, 3.0, [1])])
    engine = _Engine(SkspInstance(m=1, capacities=(1,), items=(item,), k=1),
                     [1.0])
    yp = engine.y_probs([1.0])
    # one run's block: hit, order key, keep coin, scenario uniform
    rng = CraftedUniforms([0.0, 0.5, 0.0, u])
    walked = engine._walk(engine._plan(yp.tolist(), [None]), rng)
    _, _, weights, _ = engine._pass(engine._draw(yp, [None], 3, rng))
    assert walked.realized_weight == weight
    assert weights.tolist() == [weight] * 3


def test_sampler_trials_equal_the_pass_on_a_twin_stream():
    inst = gen_sksp_instance(10, 6, 3, 3, seed=2)
    sampler = MultiChanceSampler(inst, np.full(inst.n, 0.6),
                                 compute_schedule(2, inst.k), trial_rng(2, 0),
                                 sim_budget=5_000)
    rng, twin = trial_rng(4, 1), trial_rng(4, 1)
    engine = sampler.engine
    for _ in range(300):
        added = engine._pass(engine._draw(sampler.yp_full, sampler.keeps,
                                          1, twin))[0]
        assert sampler.trial(rng).added_chance == tuple(added[0].tolist())


def test_chance_tally_counts_the_trials_of_a_twin_stream():
    # chance_tally's runs are the sampler's trials, over several run slices
    inst = gen_sksp_instance(10, 6, 3, 3, seed=2)
    sampler = MultiChanceSampler(inst, np.full(inst.n, 0.6),
                                 compute_schedule(2, inst.k), trial_rng(2, 0),
                                 sim_budget=5_000)
    trials = 20_003
    rng, twin = trial_rng(5, 1), trial_rng(5, 1)
    counts = sampler.chance_tally(trials, rng)[0]
    walked = np.zeros_like(counts)
    for _ in range(trials):
        for j, t in enumerate(sampler.trial(twin).added_chance):
            if t >= 0:
                walked[t, j] += 1
    assert np.array_equal(counts, walked)
    assert twin.bit_generator.state == rng.bit_generator.state

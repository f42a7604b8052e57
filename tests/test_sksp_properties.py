"""The sksp engine's one-run walk against its vectorised pass, trial by
trial on twin streams, over random small instances (hypothesis).

Scenario tables include zero-probability scenarios (tied cumulative
probabilities) and items with an empty support; keep rows are random,
absent (an unattenuated chance) or all zero.
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
    # consecutive walks on one stream against the B = 1 pass of each
    # run's draws on a twin stream
    inst = data.draw(instances())
    n = inst.n
    x = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    T = data.draw(st.integers(1, 3))
    alphas = data.draw(st.lists(st.floats(0.0, 1.0), min_size=T, max_size=T))
    keeps = [data.draw(keep_rows(n)) for _ in range(T)]
    seed = data.draw(st.integers(0, 2**32 - 1))

    engine = _Engine(inst, x)
    yp = engine.y_probs(alphas)
    rng, twin = trial_rng(seed, 0), trial_rng(seed, 0)
    for _ in range(TRIALS):
        walked = engine._walk(yp.tolist(), keeps, rng)
        added, usage, weight, events = engine._pass(
            engine._draw(yp, 1, twin), keeps)
        assert tuple(added[0].tolist()) == walked.added_chance
        assert tuple(usage[0].tolist()) == walked.usage
        assert weight[0] == pytest.approx(walked.realized_weight, abs=1e-12)
        assert events[0] == len(walked.chosen)
        assert (usage[0] <= np.asarray(inst.capacities)).all()


def test_sampler_trials_equal_the_pass_on_a_twin_stream():
    inst = gen_sksp_instance(10, 6, 3, 3, seed=2)
    sampler = MultiChanceSampler(inst, np.full(inst.n, 0.6),
                                 compute_schedule(2, inst.k), trial_rng(2, 0),
                                 sim_budget=5_000)
    rng, twin = trial_rng(4, 1), trial_rng(4, 1)
    engine = sampler.engine
    for _ in range(300):
        added = engine._pass(engine._draw(sampler.yp_full, 1, twin),
                             sampler.keeps)[0]
        assert sampler.trial(rng).added_chance == tuple(added[0].tolist())

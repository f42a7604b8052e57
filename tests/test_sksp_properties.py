"""The sksp engine's vectorised pass against its one-run walk, row by row
on the same draws, over random small instances (hypothesis).

Scenario tables include zero-probability scenarios (tied cumulative
probabilities) and items with an empty support; keep rows are random,
absent (an unattenuated chance) or all zero.
"""

import numpy as np
import pytest

from sparsepack.montecarlo import trial_rng
from sparsepack.sksp import SkspInstance, _Engine, make_item, validate_sksp

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

RUNS = 48


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
def test_pass_rows_equal_the_walk_on_the_same_draws(data):
    inst = data.draw(instances())
    n = inst.n
    x = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    T = data.draw(st.integers(1, 3))
    alphas = data.draw(st.lists(st.floats(0.0, 1.0), min_size=T, max_size=T))
    keeps = [data.draw(keep_rows(n)) for _ in range(T)]
    seed = data.draw(st.integers(0, 2**32 - 1))

    engine = _Engine(inst, x)
    draws = engine._draw(engine.y_probs(alphas), RUNS, trial_rng(seed, 0))
    added, usage, weight, events = engine._pass(draws, keeps)
    assert added.shape == (RUNS, n) and usage.shape == (RUNS, inst.m)
    for b in range(RUNS):
        walked = engine._walk(draws, keeps, b)
        assert tuple(added[b].tolist()) == walked.added_chance
        assert tuple(usage[b].tolist()) == walked.usage
        assert weight[b] == pytest.approx(walked.realized_weight, abs=1e-12)
        assert events[b] == len(walked.chosen)
    assert (usage <= np.asarray(inst.capacities)).all()

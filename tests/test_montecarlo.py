"""Standard errors and stream derivation."""

import numpy as np
import pytest

from sparsepack.montecarlo import binomial_stderr, trial_rng


def test_binomial_stderr():
    assert binomial_stderr(0.5, 100) == pytest.approx(0.05)
    assert binomial_stderr(0.0, 100) == 0.0
    assert binomial_stderr(1.0, 7) == 0.0


def test_trial_rng_is_counter_derived():
    a = trial_rng(3, 17, module=5).random(8)
    b = trial_rng(3, 17, module=5).random(8)
    assert np.array_equal(a, b)


def test_trial_rng_streams_are_distinct():
    base = trial_rng(3, 17, module=5).random(8)
    assert not np.array_equal(base, trial_rng(3, 18, module=5).random(8))
    assert not np.array_equal(base, trial_rng(4, 17, module=5).random(8))
    assert not np.array_equal(base, trial_rng(3, 17, module=6).random(8))


def test_trial_rng_replay_is_history_free():
    # Drawing trial 9's stream is unaffected by whether trials 0..8 ran.
    fresh = trial_rng(0, 9).random(4)
    for t in range(9):
        trial_rng(0, t).random(4)
    assert np.array_equal(fresh, trial_rng(0, 9).random(4))

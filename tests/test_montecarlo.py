"""Estimation sample sizes, attenuation arithmetic, and stream derivation."""

import logging
import math

import numpy as np
import pytest

from sparsepack.errors import DomainError
from sparsepack.montecarlo import (EstimationSpec, attenuation_keep_prob,
                                   binomial_stderr, required_samples,
                                   trial_rng)


def test_required_samples_known_values():
    # 3/(c eps^2) ln(1/delta): both cases chosen to be hand-checkable.
    assert required_samples(EstimationSpec(c=1.0, epsilon=1.0,
                                           delta=math.exp(-1.0))) == 3
    assert required_samples(EstimationSpec(c=1.0, epsilon=0.1, delta=1e-4)) == 2764


def test_required_samples_scales_inversely_with_floor():
    lo = required_samples(EstimationSpec(c=0.01))
    hi = required_samples(EstimationSpec(c=0.1))
    assert lo == pytest.approx(10 * hi, rel=1e-6)


@pytest.mark.parametrize("kwargs", [
    dict(c=0.0), dict(c=1.5), dict(c=0.5, epsilon=0.0),
    dict(c=0.5, epsilon=1.5), dict(c=0.5, delta=0.0), dict(c=0.5, delta=1.0),
])
def test_estimation_spec_domain(kwargs):
    with pytest.raises(DomainError):
        EstimationSpec(**kwargs)


def test_attenuation_keep_prob_flattens():
    assert attenuation_keep_prob(0.8, 0.2) == pytest.approx(0.25)
    assert attenuation_keep_prob(0.2, 0.2) == 1.0
    assert attenuation_keep_prob(0.5, 0.0) == 0.0


def test_attenuation_keep_prob_clamps_and_warns(caplog):
    with caplog.at_level(logging.WARNING, logger="sparsepack.montecarlo"):
        assert attenuation_keep_prob(0.1, 0.2) == 1.0
    assert any("underflow" in r.message for r in caplog.records)


def test_attenuation_keep_prob_domain():
    with pytest.raises(DomainError):
        attenuation_keep_prob(0.5, -0.1)
    with pytest.raises(DomainError):
        attenuation_keep_prob(0.0, 0.2)


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

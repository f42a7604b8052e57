"""Monte Carlo estimation and simulation-based attenuation.

Several pipelines need the probability of an acceptance event only to
divide by it: keeping an accepted element with probability c/estimate
flattens its acceptance rate to (almost exactly) c.  A multiplicative
Chernoff bound says

    n = ceil( 3 / (c eps^2) * ln(1/delta) )

independent trials put the relative error of the estimate within eps of
truth with probability at least 1 - delta whenever the true probability
is at least c, which bounds the attenuated rate within [c/(1+eps), c].
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

log = logging.getLogger(__name__)

# The sksp set-up pools draw each block of uniforms, and simulate their
# runs, in run slices of at most this many elements, so no float array
# of a pool grows with its simulation count.
_SLAB = 1 << 18


def run_slices(runs, width):
    """Consecutive slices of range(runs), each of at most _SLAB // width
    runs (at least one), so a (slice, width) block holds at most _SLAB
    elements.  A Generator fills a block in row-major order, so drawing
    one slice at a time takes the same uniforms as drawing it whole."""
    step = max(1, _SLAB // max(1, width))
    return [slice(a, min(a + step, runs)) for a in range(0, runs, step)]


@dataclass(frozen=True)
class EstimationSpec:
    """Target floor c, relative error eps, failure probability delta."""

    c: float
    epsilon: float = 1e-3
    delta: float = 1e-4

    def __post_init__(self):
        if not (0.0 < self.c <= 1.0):
            raise DomainError(f"c={self.c} must be in (0,1]")
        if not (0.0 < self.epsilon <= 1.0):
            raise DomainError(f"epsilon={self.epsilon} must be in (0,1]")
        if not (0.0 < self.delta < 1.0):
            raise DomainError(f"delta={self.delta} must be in (0,1)")


def required_samples(spec):
    """Trial count ceil(3/(c eps^2) ln(1/delta)) for the given spec."""
    return math.ceil(3.0 / (spec.c * spec.epsilon**2) * math.log(1.0 / spec.delta))


def attenuation_keep_prob(estimate, c):
    """min(1, c/estimate), the keep probability that flattens an
    acceptance rate of `estimate` down to c.

    estimate <= c means the event is already at or below the target;
    the result is clamped to 1 and a warning is logged, since a true
    rate below c cannot be raised by attenuation.
    """
    if c < 0.0:
        raise DomainError(f"target c={c} negative")
    if c == 0.0:
        return 0.0
    if estimate <= 0.0:
        raise DomainError("estimated probability is zero with positive target")
    if estimate <= c:
        if estimate < c:
            log.warning(
                "attenuation underflow: estimate %.6g below target %.6g",
                estimate, c,
            )
        return 1.0
    return c / estimate


def binomial_stderr(freq, n):
    """Standard error sqrt(p(1-p)/n) of an empirical frequency."""
    return math.sqrt(max(freq * (1.0 - freq), 0.0) / n)


def trial_rng(seed, trial, module=0):
    """Independent per-trial generator, derived from (seed, module, trial).

    Counter-style derivation: the same (seed, trial) pair always yields
    the same stream, so any single trial can be replayed in isolation
    and fanning trials across workers cannot change results.
    """
    return np.random.default_rng(np.random.SeedSequence((seed, module, trial)))

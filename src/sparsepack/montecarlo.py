"""Monte Carlo estimation and simulation-based attenuation.

Several pipelines need the probability of an acceptance event only to
divide by it: keeping an accepted element with probability c/estimate
flattens its acceptance rate to (almost exactly) c.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import DomainError

log = logging.getLogger(__name__)

# sksp draws and simulates the runs of its pools and of `chance_tally`
# in run slices of at most this many uniforms, so no float array grows
# with the run count.
_SLAB = 1 << 18


def run_slices(runs, width):
    """Consecutive slices of range(runs), each of at most _SLAB // width
    runs (at least one), so a (slice, width) block holds at most _SLAB
    elements.  A Generator fills a block in row-major order, so drawing
    one slice at a time takes the same uniforms as drawing it whole."""
    step = max(1, _SLAB // max(1, width))
    return [slice(a, min(a + step, runs)) for a in range(0, runs, step)]


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

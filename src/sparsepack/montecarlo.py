"""Monte Carlo plumbing: counter-derived trial streams, the standard
error of an empirical frequency, and the run slices that bound the
memory of sksp's dense simulation blocks.
"""

from __future__ import annotations

import math

import numpy as np

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

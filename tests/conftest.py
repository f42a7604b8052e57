"""Shared fixtures and small hand-built instances.

The tiny instances here are chosen so that every interesting predicate
(big/medium/tiny entries, blocking events, conflicting arcs) fires on
at least one of them while staying small enough for exhaustive checks.
"""

import hashlib
import json

import numpy as np
import pytest

from sparsepack.core import make_instance, require_valid


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def report_digests():
    """sha256 of a --json report file, and of the same report without
    its objective_std_err, serialised as the harness writes reports."""
    def digests(path):
        raw = path.read_bytes()
        report = json.loads(raw)
        del report["objective_std_err"]
        rest = json.dumps(report, indent=1, sort_keys=True) + "\n"
        return (hashlib.sha256(raw).hexdigest(),
                hashlib.sha256(rest.encode()).hexdigest())
    return digests


@pytest.fixture
def tiny_instance():
    """Three items, two rows, mixed coefficient classes.

    Item 0 is big on row 0 (0.9); item 1 is medium on row 0 (0.4) and
    big on row 1 (0.6); item 2 is tiny on row 0 (0.01).
    """
    return require_valid(make_instance(
        capacities=[1.0, 1.0],
        weights=[1.0, 2.0, 3.0],
        columns=[
            [(0, 0.9)],
            [(0, 0.4), (1, 0.6)],
            [(0, 0.01)],
        ],
        k=2,
    ))


@pytest.fixture
def unit_conflict_instance():
    """Four items on three rows, all coefficients 1; any two items that
    share a row exclude each other."""
    return require_valid(make_instance(
        capacities=[1.0, 1.0, 1.0],
        weights=[1.0, 1.0, 1.0, 1.0],
        columns=[
            [(0, 1.0)],
            [(0, 1.0), (1, 1.0)],
            [(1, 1.0), (2, 1.0)],
            [(2, 1.0)],
        ],
        k=2,
    ))

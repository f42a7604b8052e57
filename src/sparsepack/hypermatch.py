"""Hypergraph matching by marked-edge sweeps with non-uniform attenuation.

Given a fractional matching x (sum of x_e over edges touching any vertex
at most 1), mark each edge independently with probability g(x_e), give
every marked edge an independent uniform key, and sweep the marked edges
in increasing key order, adding an edge iff all of its vertices are
still unmatched.  The concave mark rate

    g(x) = x (1 - x/2)

trades a little mass on heavy edges for much better survival, and the
per-edge guarantee relative to x_e is

    (1 - exp(-k_e)) / k_e

where k_e counts the vertices of e (`theoretical_bound`).  The linear
variant g(x) = alpha x is also provided for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ValidationReport, read_json, require_clean, write_json
from .errors import DomainError, ValidationError


@dataclass(frozen=True)
class Hypergraph:
    """m vertices; edges[j] = (vertex tuple, weight)."""

    m: int
    edges: tuple

    @property
    def n(self):
        return len(self.edges)

    @cached_property
    def validation(self):
        """The structural check of `validate_hypergraph`, made once per
        hypergraph: it is frozen, and every `HmRounder` asks again."""
        v = []
        if self.m < 1:
            v.append(f"m={self.m} below 1")
        for j, (vs, w) in enumerate(self.edges):
            if not vs:
                v.append(f"edge {j} is empty")
            if len(set(vs)) != len(vs):
                v.append(f"edge {j} repeats a vertex")
            for u in vs:
                if not (0 <= u < self.m):
                    v.append(f"edge {j} vertex {u} out of range")
            if not (w >= 0):
                v.append(f"edge {j} weight {w} negative")
        return ValidationReport(tuple(v))


def make_hypergraph(m, edges):
    return Hypergraph(
        m=int(m),
        edges=tuple((tuple(int(v) for v in vs), float(w)) for vs, w in edges),
    )


def validate_hypergraph(h):
    return h.validation


def require_valid_hypergraph(h):
    return require_clean(validate_hypergraph, h)


def attenuation_g(x):
    """Concave mark rate x(1 - x/2); domain [0,1]."""
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"x={x} outside [0,1]")
    return x * (1.0 - x / 2.0)


def theoretical_bound(k_e):
    """Per-edge floor (1 - e^{-k_e})/k_e for an edge on k_e vertices."""
    if k_e < 1:
        raise DomainError(f"k_e={k_e} below 1")
    return (1.0 - math.exp(-float(k_e))) / float(k_e)


def is_matching(h, edge_ids):
    seen = set()
    for j in edge_ids:
        vs = h.edges[j][0]
        if any(u in seen for u in vs):
            return False
        seen.update(vs)
    return True


def _sweep(h, marked, keys):
    """Greedy pass over marked edges by (key, edge index)."""
    order = sorted(zip(keys, marked))
    matched_vertices = set()
    picked = []
    for _, j in order:
        vs = h.edges[j][0]
        if all(u not in matched_vertices for u in vs):
            picked.append(j)
            matched_vertices.update(vs)
    return frozenset(picked)


class HmRounder:
    """Marked-edge sweep with the mark rates g(x_e) fixed up front.

    The constructor checks the hypergraph, the shape of x, and that
    every rate lies in [0, 1]; `trial` then draws one matching.
    """

    def __init__(self, h, x, g):
        require_valid_hypergraph(h)
        x = np.asarray(x, dtype=float)
        if x.shape != (h.n,):
            raise ValidationError(f"x has shape {x.shape}, expected ({h.n},)")
        rates = np.array([g(v) for v in x])
        if np.any(rates < 0) or np.any(rates > 1):
            raise DomainError("mark rates outside [0,1]")
        self.h = h
        self.rates = rates

    def trial(self, rng):
        """Mark with probability g(x_e), sweep by uniform keys (drawn only
        for marked edges; unmarked edges can never affect the outcome),
        tie-break by edge index."""
        marked = np.nonzero(rng.random(self.h.n) < self.rates)[0].tolist()
        keys = rng.random(len(marked))
        return _sweep(self.h, marked, keys)


def round_matching(h, x, g, rng):
    """One randomized matching at mark rates g(x_e)."""
    return HmRounder(h, x, g).trial(rng)


def round_matching_linear(h, x, alpha, rng):
    """Linear mark rate min(1, alpha x_e)."""
    if alpha < 0:
        raise DomainError(f"alpha={alpha} negative")
    return round_matching(h, x, lambda v: min(1.0, alpha * v), rng)


def matching_weight(h, edge_ids):
    return float(sum(h.edges[j][1] for j in edge_ids))


# ---------------------------------------------------------------------------
# JSON interchange

def hypergraph_to_dict(h):
    return {
        "m": h.m,
        "edges": [{"vertices": list(vs), "weight": w} for vs, w in h.edges],
    }


def hypergraph_from_dict(d):
    try:
        h = make_hypergraph(
            d["m"], [(e["vertices"], e["weight"]) for e in d["edges"]]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed hypergraph JSON: {exc}") from exc
    return require_valid_hypergraph(h)


def save_hypergraph(h, path):
    write_json(hypergraph_to_dict(h), path)


def load_hypergraph(path):
    return hypergraph_from_dict(read_json(path))

"""Hypergraph matching by marked-edge sweeps with non-uniform attenuation.

Given a fractional matching x (sum of x_e over edges touching any vertex
at most 1), mark each edge independently with probability g(x_e), give
every marked edge an independent uniform key, and sweep the marked edges
in increasing key order, adding an edge iff all of its vertices are
still unmatched.  The concave mark rate

    g(x) = x (1 - x/2)

trades a little mass on heavy edges for much better survival.  The
paper's bound relative to x_e is

    (1 - exp(-k_e)) / k_e

where k_e counts the vertices of e (`theoretical_bound`).  It is not a
per-edge guarantee at this mark rate: it fails near x_e = 1, where a lone
edge with x_e = 1 is matched with probability g(1) = 1/2 < 1 - 1/e.
`exact_match_probabilities` gives the exact per-edge matching
probabilities on hypergraphs of at most EXACT_EDGE_CAP edges.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ValidationReport, read_json, require_clean, write_json
from .errors import DomainError, SizeError, ValidationError

EXACT_EDGE_CAP = 7


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
            elif not math.isfinite(w):
                v.append(f"edge {j} weight {w} not finite")
        return ValidationReport(tuple(v))

    @cached_property
    def vertex_array(self):
        """(n, max edge size) int array of each edge's vertices, padded
        with the sentinel m; the sweep's clash count reads it."""
        width = max((len(vs) for vs, _ in self.edges), default=0)
        rows = np.full((self.n, width), self.m, dtype=np.intp)
        for j, (vs, _) in enumerate(self.edges):
            rows[j, :len(vs)] = vs
        return rows


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
    """The paper's bound (1 - e^{-k_e})/k_e for an edge on k_e vertices;
    not a per-edge floor near x_e = 1 (see the module docstring)."""
    if k_e < 1:
        raise DomainError(f"k_e={k_e} below 1")
    return (1.0 - math.exp(-float(k_e))) / float(k_e)


def is_matching(h, edge_ids):
    """True iff the edges are pairwise disjoint: their vertex union has
    as many elements as their sizes sum to (a repeated edge fails)."""
    vertex_sets = [h.edges[j][0] for j in edge_ids]
    return len(set().union(*vertex_sets)) == sum(map(len, vertex_sets))


def _sweep(h, marked, keys):
    """Greedy pass over marked edges by (key, edge index).

    A marked edge that shares no vertex with another marked edge is
    accepted whatever the order, so the greedy loop walks only the
    clashing ones.  The result is built in key order, as the full sweep
    would add the edges."""
    if len(marked) < 2:
        return frozenset(marked)
    marked = np.asarray(marked, dtype=np.intp)
    order = marked[np.lexsort((marked, keys))]
    rows = h.vertex_array[order]
    hits = np.bincount(rows.ravel(), minlength=h.m + 1)
    hits[h.m] = 0
    clash = (hits[rows] > 1).any(axis=1)
    accept = ~clash
    edges = h.edges
    matched_vertices = set()
    for i in np.flatnonzero(clash).tolist():
        vs = edges[order[i]][0]
        if matched_vertices.isdisjoint(vs):
            accept[i] = True
            matched_vertices.update(vs)
    return frozenset(order[accept].tolist())


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
        rates = [g(v) for v in x.tolist()]
        if not all(0.0 <= r <= 1.0 for r in rates):
            raise DomainError("mark rates outside [0,1]")
        self.h = h
        self.rates = np.array(rates)

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


def exact_match_probabilities(h, x, g):
    """Exact Pr[e matched] for every edge, as a float array.

    A mark set M has weight prod_{e in M} g(x_e) prod_{e not in M}
    (1 - g(x_e)), and its edges' keys are distinct almost surely, so
    each of the |M|! orders comes with equal chance.  The greedy pass
    runs over every (mark set, order) pair: 13,700 of them at
    EXACT_EDGE_CAP = 7 edges, which is the limit.
    """
    if h.n > EXACT_EDGE_CAP:
        raise SizeError(f"{h.n} edges exceed the exact cap {EXACT_EDGE_CAP}")
    rates = HmRounder(h, x, g).rates.tolist()
    p = [0.0] * h.n
    for mask in range(1 << h.n):
        marked = [j for j in range(h.n) if mask >> j & 1]
        weight = math.prod(r if mask >> j & 1 else 1.0 - r
                           for j, r in enumerate(rates))
        share = weight / math.factorial(len(marked))
        for order in itertools.permutations(marked):
            taken = set()
            for j in order:
                vs = h.edges[j][0]
                if taken.isdisjoint(vs):
                    taken.update(vs)
                    p[j] += share
    return np.array(p)


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

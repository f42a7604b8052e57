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

`HmRounder.trial` draws one matching; `HmRounder.trials` draws a block
of them in one vectorised sweep, from the same draws and with the same
matchings as that many `trial` calls.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (ValidationReport, make_instance, read_json, require_clean,
                   require_fractional, write_json)
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
        """(max edge size, n) int array whose column j lists edge j's
        vertices, padded with the sentinel m; the sweeps' clash counts
        read it.  Edges run along the rows, so a sweep reduces over the
        short axis 0 in a few vectorised passes."""
        width = max((len(vs) for vs, _ in self.edges), default=0)
        cols = np.full((width, self.n), self.m, dtype=np.intp)
        for j, (vs, _) in enumerate(self.edges):
            cols[:len(vs), j] = vs
        return cols

    @cached_property
    def weights(self):
        """Edge weights by edge index."""
        return tuple(w for _, w in self.edges)


def make_hypergraph(m, edges):
    return Hypergraph(
        m=int(m),
        edges=tuple((tuple(int(v) for v in vs), float(w)) for vs, w in edges),
    )


def validate_hypergraph(h):
    return h.validation


def require_valid_hypergraph(h):
    return require_clean(validate_hypergraph, h)


def hypergraph_lp_instance(h):
    """Fractional matching polytope of a hypergraph as a packing
    instance, once the hypergraph is validated: one unit-capacity row
    per vertex, coefficient 1 per incidence."""
    require_valid_hypergraph(h)
    columns = [[(v, 1.0) for v in vs] for vs, _ in h.edges]
    return make_instance([1.0] * h.m, h.weights, columns)


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
    cols = h.vertex_array[:, order]
    hits = np.bincount(cols.ravel(), minlength=h.m + 1)
    hits[h.m] = 0
    clash = (hits[cols] > 1).any(axis=0)
    accept = ~clash
    edges = h.edges
    matched_vertices = set()
    for i in np.flatnonzero(clash).tolist():
        vs = edges[order[i]][0]
        if matched_vertices.isdisjoint(vs):
            accept[i] = True
            matched_vertices.update(vs)
    return frozenset(order[accept].tolist())


def _block_sweep(h, size, trial, edge, key):
    """`_sweep` of `size` trials at once, as a mask over the marked
    (trial, edge) pairs with their keys: True where the trial's greedy
    pass by (key, edge index) accepts the edge.

    A pair that shares no vertex with another pair of its trial is
    accepted outright.  The clashing pairs are resolved in rounds: accept
    every live pair whose priority is the smallest at each of its
    vertices, then drop the live pairs that touch a matched vertex.  Each
    round settles at least the first live pair of every trial, and the
    result is the sequential greedy's, ties included (Blelloch, Fineman
    and Shun, SPAA 2012).  Arrays are O(size m + pairs)."""
    width = h.m + 1
    verts = h.vertex_array.take(edge, axis=1)
    slots = verts + trial * width         # (trial, vertex) slots, (width, pairs)
    hits = np.bincount(slots.ravel(), minlength=size * width)
    hits[h.m::width] = 0                  # each trial's padding sentinel
    accept = (hits.take(slots) <= 1).all(axis=0)
    live = np.flatnonzero(~accept)
    if live.size == 0:
        return accept
    # A padded entry repeats the edge's first vertex, which changes no
    # minimum and no match.
    slots = np.where(verts[:, live] == h.m, slots[0, live], slots[:, live])
    rank = np.empty(live.size, dtype=np.intp)
    rank[np.lexsort((edge[live], key[live], trial[live]))] = np.arange(live.size)
    best = np.empty(hits.size, dtype=np.intp)
    matched = np.zeros(hits.size, dtype=bool)
    todo = np.arange(live.size)
    while todo.size:
        s, r = slots[:, todo], rank[todo]
        best[s] = live.size
        np.minimum.at(best, s, np.broadcast_to(r, s.shape))
        won = (best[s] == r).all(axis=0)
        accept[live[todo[won]]] = True
        matched[s[:, won]] = True
        todo = todo[~matched[s].any(axis=0)]
    return accept


class HmRounder:
    """Marked-edge sweep with the mark rates g(x_e) fixed up front.

    The constructor checks the hypergraph and x (`require_fractional`),
    and that every rate lies in [0, 1]; `trial` then draws one matching,
    and `trials` a block of them.
    """

    def __init__(self, h, x, g):
        require_valid_hypergraph(h)
        rates = [g(v) for v in require_fractional(x, h.n).tolist()]
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

    def trials(self, rng, size):
        """`size` calls of `trial` in one sweep: the same draws from rng,
        in the same order, and the same matchings.

        Returns the matchings as two int arrays of (trial, edge) pairs,
        sorted by trial, then by edge.  Memory grows with size times the
        vertex count, so callers sweep long runs in blocks."""
        n, rates = self.h.n, self.rates
        marked, keys = [], []
        for _ in range(size):
            mine = np.flatnonzero(rng.random(n) < rates)
            marked.append(mine)
            keys.append(rng.random(mine.size))
        trial = np.repeat(np.arange(size), [e.size for e in marked])
        edge = np.concatenate(marked) if marked else trial
        accept = _block_sweep(self.h, size, trial, edge,
                              np.concatenate(keys) if keys else trial)
        return trial[accept], edge[accept]


_last_rounder = None   # (h, g, x key, rounder) of the latest round_matching


def round_matching(h, x, g, rng):
    """One randomized matching at mark rates g(x_e).

    A call with the same h and g objects as the previous one, and an
    equal x (same shape and float64 bytes), reuses its rounder: on small
    hypergraphs building one costs more than the trial."""
    global _last_rounder
    x = np.asarray(x, dtype=float)
    key = (x.shape, x.tobytes())
    last = _last_rounder
    if last is None or last[0] is not h or last[1] is not g or last[2] != key:
        last = _last_rounder = (h, g, key, HmRounder(h, x, g))
    return last[3].trial(rng)


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
    return float(sum(map(h.weights.__getitem__, edge_ids)))


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

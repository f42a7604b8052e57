"""Proper colorings of bounded-out-degree digraphs.

If every vertex of a digraph has out-degree at most d, the total number
of arcs is at most nd, so some vertex always has total degree
(in plus out) at most 2d.  Peeling minimum-total-degree vertices and
coloring them back greedily in reverse therefore needs at most 2d+1
colors: each vertex sees at most 2d already-colored neighbors when its
turn comes.

`color_directed_graph` is the deterministic version (smallest free
color).  `color_neg_corr` draws each color uniformly among the
ceil(d^(1-eps)) smallest free colors of an enlarged palette of
ceil(2d + d^(1-eps)) colors, which keeps the chance that two vertices
share any fixed color near the independent product while still being
proper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DegreeError, InternalInvariantError, ValidationError


@dataclass(frozen=True)
class DiGraph:
    """Adjacency-list digraph; out[v] lists the out-neighbors of v.

    `neighbours[v]` lists the neighbours of v, direction ignored, once
    per arc between the two: a 2-cycle lists its partner twice.  It is
    built with the graph, unless a maker that has it at hand passes it
    to `from_valid`.  Peeling and coloring share it.
    """

    n: int
    out: tuple

    def __post_init__(self):
        if self.n != len(self.out):
            raise ValidationError("out-list count disagrees with n")
        for v, nbrs in enumerate(self.out):
            if len(nbrs) > 1 and len(set(nbrs)) != len(nbrs):
                raise ValidationError(f"out-list of {v} repeats a vertex")
            for u in nbrs:
                if u == v:
                    raise ValidationError(f"self-loop at {v}")
                if not (0 <= u < self.n):
                    raise ValidationError(f"arc ({v},{u}) out of range")
        self.__dict__["neighbours"] = _neighbours(self.out)

    @classmethod
    def from_valid(cls, n, out, neighbours=None):
        """The digraph (n, out) without the checks, for out-lists that
        are valid by construction; `neighbours`, when given, must be the
        table described above."""
        g = object.__new__(cls)
        if neighbours is None:
            neighbours = _neighbours(out)
        g.__dict__.update(n=n, out=out, neighbours=neighbours)
        return g


def _neighbours(out):
    """The neighbour table of the out-lists `out`: each vertex's
    out-neighbours, then its in-neighbours by index."""
    adj = list(map(list, out))
    for v, nbrs in enumerate(out):
        for u in nbrs:
            adj[u].append(v)
    return adj


def make_digraph(n, arcs):
    out = [[] for _ in range(n)]
    seen = set()
    for v, u in arcs:
        if (v, u) not in seen:
            seen.add((v, u))
            out[v].append(u)
    return DiGraph(n=n, out=tuple(tuple(sorted(ns)) for ns in out))


class Coloring(NamedTuple):
    colors: tuple
    palette: int


def peel_order(g):
    """Vertices in repeated minimum-total-degree removal order.

    Ties break toward the lowest vertex index, so the vertices that
    start isolated come first, in index order.  The rest go through a
    bucket queue: buckets[d] is the bitset of unpeeled vertices of
    current degree d, and its lowest set bit is the lowest such index,
    which is the (degree, index) order of a heap.
    """
    # total degree counts arc multiplicity in both directions
    adj = g.neighbours
    deg = list(map(len, adj))
    order = []
    buckets = [0] * (max(deg, default=0) + 1)
    for v, dv in enumerate(deg):
        if dv:
            buckets[dv] |= 1 << v
        else:
            order.append(v)
    left = g.n - len(order)
    low = 1     # no bucket below this one holds a vertex; 0 never does
    while left:
        bits = buckets[low]
        while not bits:
            low += 1
            bits = buckets[low]
        bit = bits & -bits
        buckets[low] = bits ^ bit
        v = bit.bit_length() - 1
        order.append(v)
        left -= 1
        deg[v] = 0
        for u in adj[v]:
            # an unpeeled neighbour still counts its arcs to v, so
            # du > 0; a peeled one reads 0.  A 2-cycle partner comes
            # by twice and drops two.
            du = deg[u]
            if du:
                bit = 1 << u
                buckets[du] ^= bit
                du -= 1
                deg[u] = du
                if du:
                    buckets[du] |= bit
                    if du < low:
                        low = du
                else:
                    # All of u's arcs were to v, and deg v <= deg u, so
                    # u was v's one neighbour.  Now the only vertex of
                    # degree 0, u is peeled next.
                    order.append(u)
                    left -= 1
    return order


def _check_degree(g, d):
    """Coloring requires max out-degree <= d: the degree argument then
    guarantees enough free colors, so a shortfall later is a broken
    invariant and raises."""
    if g.n and max(map(len, g.out)) > d:
        bad = [v for v, nbrs in enumerate(g.out) if len(nbrs) > d]
        raise DegreeError(f"out-degree above {d} at vertices {bad[:5]}")


def _smallest_free(adj, order, palette):
    """Colors for reverse peel order, each vertex taking the smallest
    color unused by its already-colored neighbors: the lowest clear bit
    of the mask of their colors, in which a neighbor not colored yet
    sets bit `palette`.  The isolated vertices, which `peel_order` puts
    first, all take color 0."""
    colors = [palette] * len(adj)
    for done, v in enumerate(reversed(order)):
        nbrs = adj[v]
        if not nbrs:
            # the isolated block: every color is free
            for u in order[:len(order) - done]:
                colors[u] = 0
            break
        used = 0
        for u in nbrs:
            used |= 1 << colors[u]
        c = (~used & (used + 1)).bit_length() - 1
        if c >= palette:
            raise InternalInvariantError(f"no free color at vertex {v}")
        colors[v] = c
    return colors


def _drawn(adj, order, palette, spread, rng):
    """Colors for reverse peel order, each vertex taking a uniform draw
    among the `spread` smallest colors unused by its already-colored
    neighbors: one draw per vertex, isolated ones included."""
    colors = [-1] * len(adj)
    color_of = colors.__getitem__
    for v in reversed(order):
        if not adj[v]:
            # every color is free: a draw among the `spread` smallest
            colors[v] = int(rng.integers(spread))
            continue
        used = set(map(color_of, adj[v]))   # -1: not colored yet
        avail = []
        for c in range(palette):
            if c not in used:
                avail.append(c)
                if len(avail) == spread:
                    break
        if len(avail) < spread:
            raise InternalInvariantError(
                f"only {len(avail)} free colors at vertex {v}, need {spread}"
            )
        colors[v] = avail[int(rng.integers(spread))]
    return colors


def color_directed_graph(g, d):
    """Deterministic proper coloring with at most 2d+1 colors: each vertex,
    in reverse peel order, takes the smallest free color.  Raises
    DegreeError when an out-degree exceeds d."""
    _check_degree(g, d)
    palette = 2 * d + 1
    colors = _smallest_free(g.neighbours, peel_order(g), palette)
    return Coloring(tuple(colors), palette)


def neg_corr_palette(d, epsilon):
    """(palette size, per-step choice count) for the randomized coloring."""
    spread = d ** (1.0 - epsilon)
    return math.ceil(2 * d + spread), math.ceil(spread)


def color_neg_corr(g, d, epsilon, rng):
    """Randomized proper coloring with near-independent color classes.

    Palette has ceil(2d + d^(1-eps)) colors; each vertex picks uniformly
    among the ceil(d^(1-eps)) smallest colors unused by its
    already-colored neighbors.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValidationError(f"epsilon={epsilon} outside (0,1)")
    palette, spread = neg_corr_palette(d, epsilon)
    _check_degree(g, d)
    colors = _drawn(g.neighbours, peel_order(g), palette, spread, rng)
    return Coloring(tuple(colors), palette)


def verify_coloring(g, coloring):
    """True iff every vertex is colored within the palette and no arc is
    monochromatic."""
    cs = coloring.colors
    if len(cs) != g.n:
        return False
    if any(not (0 <= c < coloring.palette) for c in cs):
        return False
    for v, nbrs in enumerate(g.out):
        for u in nbrs:
            if cs[v] == cs[u]:
                return False
    return True

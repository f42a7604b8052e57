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

import heapq
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DegreeError, InternalInvariantError, ValidationError


@dataclass(frozen=True)
class DiGraph:
    """Adjacency-list digraph; out[v] lists the out-neighbors of v.

    `neighbours[v]` lists the neighbours of v, direction ignored, once
    per arc between the two: a 2-cycle lists its partner twice.  It is
    built on first use, and peeling and coloring share it.
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

    @classmethod
    def from_valid(cls, n, out):
        """The digraph (n, out) without the checks, for out-lists that
        are valid by construction."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, out=out)
        return g

    @cached_property
    def neighbours(self):
        adj = list(map(list, self.out))
        for v, nbrs in enumerate(self.out):
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


@dataclass(frozen=True)
class Coloring:
    colors: tuple
    palette: int


def peel_order(g):
    """Vertices in repeated minimum-total-degree removal order.

    Ties break toward the lowest vertex index, so the vertices that
    start isolated come first, in index order; the rest go through a
    lazy heap whose stale entries are skipped because degrees only
    decrease.
    """
    # total degree counts arc multiplicity in both directions
    deg = list(map(len, g.out))
    for nbrs in g.out:
        for u in nbrs:
            deg[u] += 1
    order = [v for v, dv in enumerate(deg) if not dv]
    if len(order) == g.n:
        return order
    adj = g.neighbours
    heap = [(dv, v) for v, dv in enumerate(deg) if dv]
    heapq.heapify(heap)
    removed = [False] * g.n
    while heap:
        dv, v = heapq.heappop(heap)
        if removed[v] or dv != deg[v]:
            continue
        removed[v] = True
        order.append(v)
        for u in adj[v]:
            if not removed[u]:
                # losing v costs u one degree per arc between them; the
                # first push of a 2-cycle partner goes stale at once
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    return order


def _check_degree(g, d):
    if max(map(len, g.out), default=0) > d:
        bad = [v for v, nbrs in enumerate(g.out) if len(nbrs) > d]
        raise DegreeError(f"out-degree above {d} at vertices {bad[:5]}")


def _greedy_color(g, d, palette, spread, rng):
    """Color in reverse peel order.  Each vertex takes the smallest color
    unused by its already-colored neighbors when rng is None, else a
    uniform draw among the `spread` smallest.  Requires max out-degree
    <= d (DegreeError otherwise); the degree argument guarantees that
    many free colors, so a shortfall is a broken invariant and raises.
    """
    _check_degree(g, d)
    adj = g.neighbours
    colors = [-1] * g.n
    color_of = colors.__getitem__
    for v in reversed(peel_order(g)):
        if not adj[v]:
            # every color is free: the smallest, or a draw among `spread`
            colors[v] = 0 if rng is None else int(rng.integers(spread))
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
        colors[v] = avail[0] if rng is None else avail[int(rng.integers(spread))]
    return Coloring(colors=tuple(colors), palette=palette)


def color_directed_graph(g, d):
    """Deterministic proper coloring with at most 2d+1 colors: each vertex
    takes the smallest free color."""
    return _greedy_color(g, d, 2 * d + 1, 1, None)


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
    return _greedy_color(g, d, palette, spread, rng)


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

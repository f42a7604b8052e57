"""Contention resolution for unit-demand unsplittable flow on trees.

Demands are vertex pairs routed along their unique tree path; every
edge e has an integer capacity u_e >= 1.  Given a fractional solution x
(path loads within capacity), the scheme samples each demand
independently with probability alpha x_i, processes sampled demands in
increasing depth of their path's top vertex (the pair's least common
ancestor; ties by demand index), and routes a demand iff every edge on
its path still has a free unit ("safe").  To make the conditional
acceptance exact, the probability eta_i that demand i is safe at its
turn is estimated by re-simulating the whole pipeline from scratch, and
a safe demand is kept only with probability beta / eta_i, where

    beta = 1 - 2 alpha e / (1 - alpha e),  gamma = alpha beta.

Validity needs alpha e < 1/3 (so gamma e < 1/3 and beta > 0); then each
sampled demand is routed with probability exactly beta, and the
end-to-end per-demand rate is alpha beta x_i.  `optimize_alpha` scans
the published balance objective

    alpha (1 - 2 gamma e / (1 - gamma e))

over the feasible interval; its maximum sits at the right edge and is
about 0.1226, i.e. roughly 1/8.15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (ValidationReport, make_instance, read_json, require_clean,
                   require_fractional, write_json)
from .errors import EstimateError, ParamError, ValidationError
from .montecarlo import attenuation_keep_prob

ALPHA_CAP = 1.0 / (3.0 * math.e)


@dataclass(frozen=True)
class TreeNetwork:
    """Rooted tree as a parent array; edge above vertex v (v != root) has
    capacity edge_capacity[v].  Demands are (source, target, weight)."""

    parent: tuple
    root: int
    edge_capacity: tuple
    demands: tuple

    @property
    def n_vertices(self):
        return len(self.parent)

    @property
    def n_demands(self):
        return len(self.demands)

    @cached_property
    def depth(self):
        depths = [-1] * self.n_vertices
        depths[self.root] = 0
        for v in range(self.n_vertices):
            if depths[v] >= 0:
                continue
            chain = []
            u = v
            while depths[u] < 0:
                chain.append(u)
                u = self.parent[u]
            base = depths[u]
            for w in reversed(chain):
                base += 1
                depths[w] = base
        return tuple(depths)

    @cached_property
    def demand_paths(self):
        """(lca, edge tuple) per demand; edges named by their lower vertex."""
        out = []
        for s, t, _ in self.demands:
            lca, edges = tree_path(self, s, t)
            out.append((lca, tuple(edges)))
        return tuple(out)


def make_tree(parent, root, edge_capacity, demands):
    return TreeNetwork(
        parent=tuple(int(p) for p in parent),
        root=int(root),
        edge_capacity=tuple(int(c) for c in edge_capacity),
        demands=tuple((int(s), int(t), float(w)) for s, t, w in demands),
    )


def validate_tree(net):
    v = []
    n = net.n_vertices
    if not (0 <= net.root < n):
        v.append(f"root {net.root} out of range")
        return ValidationReport(tuple(v))
    if net.parent[net.root] != -1:
        v.append("root parent must be -1")
    if len(net.edge_capacity) != n:
        v.append("edge_capacity length disagrees with vertex count")
    for u in range(n):
        if u == net.root:
            continue
        p = net.parent[u]
        if not (0 <= p < n):
            v.append(f"vertex {u} parent {p} out of range")
        cap = net.edge_capacity[u]
        if not (isinstance(cap, int) and cap >= 1):
            v.append(f"edge capacity above vertex {u} is {cap}, need integer >= 1")
    # acyclicity: every vertex must reach the root within n steps
    for u in range(n):
        w, steps = u, 0
        while w != net.root and steps <= n:
            w = net.parent[w]
            steps += 1
            if not (0 <= w < n):
                break
        if w != net.root:
            v.append(f"vertex {u} does not reach the root")
            break
    for idx, (s, t, w) in enumerate(net.demands):
        if not (0 <= s < n and 0 <= t < n):
            v.append(f"demand {idx} endpoints out of range")
        elif s == t:
            v.append(f"demand {idx} has equal endpoints")
        if not (w >= 0):
            v.append(f"demand {idx} weight {w} negative")
        elif not math.isfinite(w):
            v.append(f"demand {idx} weight {w} not finite")
    return ValidationReport(tuple(v))


def require_valid_tree(net):
    return require_clean(validate_tree, net)


def tree_path(net, s, t):
    """(lca, edge list) of the s-t path; edges named by lower vertex."""
    depth = net.depth
    a, b = s, t
    edges_a, edges_b = [], []
    while depth[a] > depth[b]:
        edges_a.append(a)
        a = net.parent[a]
    while depth[b] > depth[a]:
        edges_b.append(b)
        b = net.parent[b]
    while a != b:
        edges_a.append(a)
        edges_b.append(b)
        a = net.parent[a]
        b = net.parent[b]
    return a, edges_a + list(reversed(edges_b))


def lca_order(net):
    """Demand indices sorted by (depth of path top vertex, index)."""
    depth = net.depth
    keyed = [(depth[net.demand_paths[i][0]], i) for i in range(net.n_demands)]
    return tuple(i for _, i in sorted(keyed))


@dataclass(frozen=True)
class UfpParams:
    """alpha must satisfy alpha e < 1/3; beta is derived."""

    alpha: float
    sim_budget: int = 100_000

    def __post_init__(self):
        if not (0.0 < self.alpha < ALPHA_CAP):
            raise ParamError(f"alpha={self.alpha} outside (0, 1/(3e))")
        if self.sim_budget < 1:
            raise ParamError("sim_budget must be positive")

    @property
    def beta(self):
        ae = self.alpha * math.e
        return 1.0 - 2.0 * ae / (1.0 - ae)


def balance_objective(alpha):
    """alpha (1 - 2 gamma e / (1 - gamma e)) with gamma = alpha beta(alpha)."""
    if alpha == 0.0:
        return 0.0
    ae = alpha * math.e
    beta = 1.0 - 2.0 * ae / (1.0 - ae)
    ge = alpha * beta * math.e
    return alpha * (1.0 - 2.0 * ge / (1.0 - ge))


def optimize_alpha(grid_resolution=1e-6):
    """Grid argmax of the balance objective over (0, 1/(3e)).

    Returns (alpha_star, balance).  The objective rises monotonically
    toward the right endpoint, so the optimum is the last grid point and
    the balance lands within about 1e-4 of 0.1227.
    """
    if not (0.0 < grid_resolution <= 1e-5):
        raise ParamError(f"grid_resolution={grid_resolution} must be in (0, 1e-5]")
    alphas = np.arange(grid_resolution, ALPHA_CAP, grid_resolution)
    ae = alphas * math.e
    beta = 1.0 - 2.0 * ae / (1.0 - ae)
    ge = alphas * beta * math.e
    vals = alphas * (1.0 - 2.0 * ge / (1.0 - ge))
    i = int(np.argmax(vals))
    return float(alphas[i]), float(vals[i])


class UfpCrScheme:
    """Contention-resolution scheme with a precomputed safety table.

    Construction runs the estimation pool: sim_budget simulated
    pipelines advanced demand by demand in processing order, reading
    off eta_i (the frequency of demand i being safe at its turn) just
    before the pool applies demand i's own keep decisions.  Its loads
    are one contiguous row per edge, so safety is an `&` of path rows.
    A table passed as `eta`, one entry in [0, 1] per demand, replaces
    the pool.  Trials then reuse the frozen table.
    """

    def __init__(self, net, x, params, rng, eta=None):
        require_valid_tree(net)
        self.net = net
        self.x = require_fractional(x, net.n_demands)
        self.params = params
        self.order = lca_order(net)
        self.paths = [list(net.demand_paths[i][1]) for i in range(net.n_demands)]
        self.caps = list(net.edge_capacity)
        self.sample_p = (params.alpha * self.x).tolist()
        self.clamped = []
        if eta is not None:
            self.eta = np.asarray(eta, dtype=float)
            if self.eta.shape != (net.n_demands,):
                raise ValidationError(
                    f"eta has shape {self.eta.shape}, need ({net.n_demands},)")
            if not ((self.eta >= 0.0) & (self.eta <= 1.0)).all():
                raise ValidationError("eta entries must be finite and in [0, 1]")
            self.keep = np.array([self._keep_prob(i, float(e))
                                  for i, e in enumerate(self.eta)])
        else:
            self._estimate_pool(rng)
        self._keep = self.keep.tolist()

    def _keep_prob(self, i, eta):
        """Demand i's keep probability at safety rate eta: NaN when eta
        <= 0 (EstimateError surfaces if a trial ever reaches i), else
        min(1, beta/eta), noting i as clamped when eta < beta."""
        if eta <= 0.0:
            return np.nan
        beta = self.params.beta
        if eta < beta:
            self.clamped.append(i)
        return attenuation_keep_prob(eta, beta)

    def _estimate_pool(self, rng):
        B = self.params.sim_budget
        net = self.net
        sampled = rng.random((B, net.n_demands)) < self.sample_p
        coins = rng.random((B, net.n_demands))
        # usage[v] is edge v's load in each simulation; routing needs room
        # on every edge, so usage never exceeds the largest capacity
        usage = np.zeros((net.n_vertices, B),
                         dtype=np.min_scalar_type(max(self.caps)))
        eta = np.zeros(net.n_demands)
        keep = np.zeros(net.n_demands)
        for i in self.order:
            path = self.paths[i]
            safe = usage[path[0]] < self.caps[path[0]]
            for v in path[1:]:
                safe &= usage[v] < self.caps[v]
            eta[i] = np.count_nonzero(safe) / B
            keep[i] = self._keep_prob(i, eta[i])
            # a NaN keep compares False, so such a demand routes nothing
            runs = np.flatnonzero(sampled[:, i] & safe)
            runs = runs[coins[runs, i] < keep[i]]
            if runs.size:
                usage[np.ix_(path, runs)] += 1
        self.eta = eta
        self.keep = keep

    def trial(self, rng):
        """One attenuated pipeline run; returns the routed demand set.
        Its uniforms are one block: the sampling draws, then the coins."""
        n = self.net.n_demands
        u = rng.random(2 * n).tolist()
        sample_p, keep, caps, paths = self.sample_p, self._keep, self.caps, self.paths
        usage = [0] * self.net.n_vertices
        routed = []
        for i in self.order:
            if u[i] >= sample_p[i]:
                continue
            path = paths[i]
            for v in path:
                if usage[v] >= caps[v]:
                    break
            else:
                if math.isnan(keep[i]):
                    raise EstimateError(
                        f"demand {i} is reachable but its safety estimate is "
                        f"zero; raise sim_budget"
                    )
                if u[n + i] < keep[i]:
                    routed.append(i)
                    for v in path:
                        usage[v] += 1
        return frozenset(routed)


def tree_lp_instance(net):
    """Express the fractional routing polytope as a packing instance;
    the tree is validated first.

    Row v (a non-root vertex) is the edge from v to its parent, with the
    edge capacity as its budget and coefficient 1 for every demand whose
    path crosses it.  The root's row is empty and carries a dummy budget
    so a relaxation of this instance yields a feasible routing vector.
    A routed set is feasible iff `check_feasible` accepts it here, and
    `objective_value` gives its weight.
    """
    require_valid_tree(net)
    columns = [
        [(v, 1.0) for v in net.demand_paths[i][1]] for i in range(len(net.demands))
    ]
    capacities = [
        1.0 if v == net.root else float(net.edge_capacity[v])
        for v in range(net.n_vertices)
    ]
    weights = [float(w) for _, _, w in net.demands]
    return make_instance(capacities, weights, columns)


# ---------------------------------------------------------------------------
# JSON interchange

def tree_to_dict(net):
    return {
        "parent": list(net.parent),
        "root": net.root,
        "edgeCapacity": list(net.edge_capacity),
        "demands": [{"s": s, "t": t, "w": w} for s, t, w in net.demands],
    }


def tree_from_dict(d):
    try:
        net = make_tree(
            d["parent"], d["root"], d["edgeCapacity"],
            [(dd["s"], dd["t"], dd["w"]) for dd in d["demands"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed tree JSON: {exc}") from exc
    return require_valid_tree(net)


def save_tree(net, path):
    write_json(tree_to_dict(net), path)


def load_tree(path):
    return tree_from_dict(read_json(path))

"""Randomized alteration rounding for k-column-sparse packing programs.

Pipeline, given a fractional x feasible for the strengthened LP:

  1. sample each item independently with probability min(1, alpha x_j / k);
  2. discard every sampled item that suffers a medium or tiny blocking
     event with respect to the sampled set (all predicates evaluated
     simultaneously against the full sample, no cascade);
  3. on the survivors build the conflict digraph with an arc (j, j')
     whenever some row i has a_ij > 0 and a_ij' > 1/2;
  4. drop vertices whose out-degree in that digraph exceeds d
     (out-degrees measured once, in the graph before any removal);
  5. properly color the remaining digraph and output one uniformly
     chosen color class.

Coefficient classes per row, with threshold ell >= 3:

  big     a_ij > 1/2
  medium  1/ell <= a_ij <= 1/2
  tiny    0 < a_ij < 1/ell

Blocking events for a sampled item j with respect to a set R:

  medium  some row i has j medium and |med(i) & R| >= 3;
  tiny    some row i has j tiny and either |med(i) & R| >= 2 or the
          medium-plus-tiny load of R on i strictly exceeds 1 (this is
          the per-item form sum_{j' != j} a_ij' > 1 - a_ij, which does
          not depend on j);
  big     some row i has a_ij > 0 and another sampled item big on i.

The color-class output makes feasibility unconditional: a color class
never contains both endpoints of an arc, medium items appear at most
two per row, and a surviving tiny item certifies its whole row fits.

`BknsRounder` is the simpler baseline: same sampling and discard step,
then items with a big blocking event with respect to the survivor set
are removed deterministically instead of the digraph machinery.

The classes are decided once.  `PackingInstance.big_rows` holds each
item's big rows and `PackingInstance.bigs_on_row` each row's big items;
`_soft_entries`, built once per rounder, splits each item's other
entries into medium and tiny.  A trial only intersects these tables
with its own item sets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import column_sparsity, require_fractional, require_valid
from .errors import (
    DegreeError,
    InternalInvariantError,
    ParamError,
    SizeError,
    ValidationError,
)
from .graphcolor import (
    DiGraph,
    color_directed_graph,
    color_neg_corr,
    neg_corr_palette,
    peel_order,
)

EXACT_MARGINAL_CAP = 16
EXACT_PAIRWISE_CAP = 10


@dataclass(frozen=True)
class KcsParams:
    """Tuning knobs of the pipeline.

    alpha    sampling boost, sample rate is alpha x_j / k;
    ell      medium/tiny threshold, at least 3;
    d        anomalous out-degree cutoff, at least 1;
    epsilon  when set, switches the final coloring to the randomized
             near-independent variant with its enlarged palette.
    """

    alpha: float
    ell: int
    d: int
    epsilon: float | None = None

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ParamError(f"alpha={self.alpha} must be positive")
        if self.ell < 3:
            raise ParamError(f"ell={self.ell} below 3")
        if self.d < 1:
            raise ParamError(f"d={self.d} below 1")
        if self.epsilon is not None and not (0.0 < self.epsilon < 1.0):
            raise ParamError(f"epsilon={self.epsilon} outside (0,1)")

    @staticmethod
    def defaults(k, epsilon=None):
        """alpha = k^0.4 (clamped to >= 1), ell = max(3, ceil(80 ln(k/alpha))),
        d = ceil(alpha + sqrt(alpha ln alpha)), square root taken as 0
        for alpha < e where the correction has no bite."""
        if k < 1:
            raise ParamError(f"k={k} below 1")
        alpha = max(1.0, float(k) ** 0.4)
        ell = max(3, math.ceil(80.0 * math.log(k / alpha)))
        spread = math.sqrt(alpha * math.log(alpha)) if alpha >= math.e else 0.0
        d = math.ceil(alpha + spread)
        return KcsParams(alpha=alpha, ell=ell, d=max(1, d), epsilon=epsilon)

    def palette_size(self):
        if self.epsilon is None:
            return 2 * self.d + 1
        return neg_corr_palette(self.d, self.epsilon)[0]


def instance_k(inst):
    """Declared sparsity if present, else the measured one, at least 1."""
    k = inst.k if inst.k is not None else column_sparsity(inst)
    return max(1, k)


def sample_probabilities(inst, x, params):
    x = require_fractional(x, inst.n)
    return np.minimum(1.0, params.alpha * x / instance_k(inst))


def _sample(p, rng):
    """One independent Bernoulli draw of the initial set: item j enters
    with probability p_j."""
    return frozenset((rng.random(p.size) < p).nonzero()[0].tolist())


class _Soft(NamedTuple):
    """The medium and tiny entries of every item, split once per rounder."""

    med: tuple          # per item, the rows where it is medium
    tiny: tuple         # per item, the rows where it is tiny
    entries: tuple      # per item, its medium and tiny (row, a) pairs
    tiny_items: frozenset   # the items with a tiny entry
    m: int              # the row count


def _soft_entries(inst, ell):
    """Each item's medium and tiny entries, medium meaning a >= 1/ell;
    entries on the item's big rows are left out.  This is the one place
    the 1/ell threshold is applied."""
    if ell < 3:
        raise ParamError(f"ell={ell} below 3")
    lo = 1.0 / ell
    entries = tuple(
        tuple((i, a) for i, a in col if i not in big)
        for col, big in zip(inst.columns, inst.big_rows)
    )
    med = tuple(tuple(i for i, a in e if a >= lo) for e in entries)
    tiny = tuple(tuple(i for i, a in e if a < lo) for e in entries)
    return _Soft(med, tiny, entries,
                 frozenset(j for j, rows in enumerate(tiny) if rows), inst.m)


def _discard(soft, sampled):
    """Survivors of the simultaneous medium/tiny discard step.

    A row blocks its medium items once it holds three sampled mediums,
    and its tiny items once it holds two, or once its medium-plus-tiny
    load exceeds 1.  Loads are summed only when a tiny item is sampled,
    in the order `sampled` lists its items.
    """
    med, tiny, entries, tiny_items, m = soft
    count = [0] * m
    for j in sampled:
        for i in med[j]:
            count[i] += 1
    blocked = {j for j in sampled for i in med[j] if count[i] >= 3}
    sampled_tiny = tiny_items.intersection(sampled)
    if sampled_tiny:
        load = [0.0] * m
        for j in sampled:
            for i, a in entries[j]:
                load[i] += a
        # sum_{j' != j} a_ij' > 1 - a_ij  <=>  row soft load > 1
        blocked.update([j for j in sampled_tiny for i in tiny[j]
                        if count[i] >= 2 or load[i] > 1.0])
    # Built by adding in `sampled` order: the layout of this frozenset
    # fixes the float order in which bkns's output weights are summed.
    return frozenset({j for j in sampled if j not in blocked})


def _checked_items(inst, items):
    """`items` as a frozenset, once every id in it names an item."""
    items = frozenset(items)
    for j in items:
        if not (0 <= j < inst.n):
            raise ValidationError(f"item {j} out of range")
    return items


def discard_blocked(inst, sampled, ell):
    """Remove sampled items with a medium or tiny blocking event.

    All predicates are evaluated against the full sampled set at once;
    removals never trigger further removals.
    """
    return _discard(_soft_entries(inst, ell), _checked_items(inst, sampled))


def _big_blocked(inst, soft, survivors):
    """Items of `survivors` blocked by another big survivor on a shared row."""
    bigs_on_row = inst.bigs_on_row
    blocked = set()
    for j in survivors:
        # any big survivor blocks j on a row where j is not big itself
        for i, _ in soft.entries[j]:
            if not survivors.isdisjoint(bigs_on_row[i]):
                blocked.add(j)
                break
        else:
            for i in inst.big_rows[j]:
                if len(bigs_on_row[i] & survivors) > 1:
                    blocked.add(j)
                    break
    return frozenset(blocked)


def build_conflict_digraph(inst, survivors):
    """Digraph on sorted(survivors): arc (j, j') iff some row has
    a_ij > 0 and a_ij' > 1/2.  Vertex t stands for the t-th smallest
    surviving item."""
    alive = frozenset(survivors)
    items = sorted(alive)
    index = dict(zip(items, range(len(items))))
    bigs_on_row = inst.bigs_on_row
    columns = inst.columns
    out = []
    for j in items:
        hit = set()
        for i, _ in columns[j]:
            hit |= bigs_on_row[i] & alive
        hit.discard(j)
        if len(hit) > 1:
            out.append(tuple(sorted([index[jp] for jp in hit])))
        else:
            out.append((index[hit.pop()],) if hit else ())
    return DiGraph(n=len(items), out=tuple(out))


def remove_anomalous(g, d):
    """Vertices with out-degree at most d, measured once in g itself."""
    return frozenset([v for v, nbrs in enumerate(g.out) if len(nbrs) <= d])


def _induced(g, keep):
    if len(keep) == g.n:
        return g, range(g.n)
    keep = sorted(keep)
    index = {v: t for t, v in enumerate(keep)}
    out = []
    for v in keep:
        out.append(tuple(index[u] for u in g.out[v] if u in index))
    return DiGraph(n=len(keep), out=tuple(out)), keep


class KcsRounder:
    """Reusable pipeline state for repeated trials on one instance."""

    def __init__(self, inst, x, params):
        require_valid(inst)
        self.inst = inst
        self.params = params
        self.p = sample_probabilities(inst, x, params)
        self.soft = _soft_entries(inst, params.ell)
        self.palette = params.palette_size()

    def survivors(self, sampled):
        """Deterministic mid-pipeline: discard, conflict digraph, anomaly
        removal.  Returns (surviving item ids, induced digraph)."""
        r1 = _discard(self.soft, sampled)
        items = sorted(r1)
        g = build_conflict_digraph(self.inst, r1)
        kept = remove_anomalous(g, self.params.d)
        sub, keep = _induced(g, kept)
        return [items[v] for v in keep], sub

    def _color(self, sub, rng=None):
        """The coloring step: deterministic, or drawn from `rng` on the
        spread palette when epsilon is set and an rng is given.  The
        pipeline guarantees the degree bound, so a DegreeError here is a
        broken invariant."""
        d, epsilon = self.params.d, self.params.epsilon
        try:
            if epsilon is None or rng is None:
                return color_directed_graph(sub, d)
            return color_neg_corr(sub, d, epsilon, rng)
        except DegreeError as exc:
            raise InternalInvariantError(str(exc)) from exc

    def color_classes(self, sampled):
        """Deterministic-coloring color classes (list of item tuples,
        indexed by color).  Only valid when epsilon is unset."""
        items, sub = self.survivors(sampled)
        classes = [[] for _ in range(self.palette)]
        for v, c in enumerate(self._color(sub).colors):
            classes[c].append(items[v])
        return [tuple(cl) for cl in classes]

    def trial(self, rng):
        """One run of the full pipeline; the result always passes
        `check_feasible` by construction."""
        items, sub = self.survivors(_sample(self.p, rng))
        coloring = self._color(sub, rng)
        chosen_color = int(rng.integers(self.palette))
        return frozenset(
            [items[v] for v, c in enumerate(coloring.colors) if c == chosen_color])


class BknsRounder:
    """Baseline rounding: same sampling and discard as the main pipeline,
    then every survivor big-blocked with respect to the survivor set is
    dropped (simultaneously, no cascade)."""

    def __init__(self, inst, x, alpha=1.0, ell=None):
        require_valid(inst)
        if ell is None:
            ell = KcsParams.defaults(instance_k(inst)).ell
        params = KcsParams(alpha=alpha, ell=ell, d=1)
        self.inst = inst
        self.p = sample_probabilities(inst, x, params)
        self.soft = _soft_entries(inst, ell)

    def trial(self, rng):
        survivors = _discard(self.soft, _sample(self.p, rng))
        return survivors - _big_blocked(self.inst, self.soft, survivors)


# ---------------------------------------------------------------------------
# Exact distribution of the pipeline by exhaustive enumeration

def _enumerate_samples(p):
    """(probability, sampled frozenset) over all 2^n sample outcomes."""
    n = len(p)
    for mask in range(1 << n):
        prob = 1.0
        items = []
        for j in range(n):
            if mask >> j & 1:
                prob *= p[j]
                items.append(j)
            else:
                prob *= 1.0 - p[j]
        if prob > 0.0:
            yield prob, frozenset(items)


def exact_inclusion_probabilities(inst, x, params):
    """Pr[item in output] for every item, by enumerating all samples.

    The steps after sampling are deterministic up to the coloring, and
    each surviving vertex lands in the uniformly chosen class with
    probability exactly 1/palette regardless of which proper coloring
    the (possibly randomized) coloring step produced.  So marginals need
    only the survivor sets.  Capped at n = 16.
    """
    if inst.n > EXACT_MARGINAL_CAP:
        raise SizeError(f"n={inst.n} above exact-enumeration cap {EXACT_MARGINAL_CAP}")
    rounder = KcsRounder(inst, x, params)
    probs = np.zeros(inst.n)
    for prob, sampled in _enumerate_samples(rounder.p):
        items, _ = rounder.survivors(sampled)
        for j in items:
            probs[j] += prob
    return probs / rounder.palette


def conditional_inclusion_probabilities(inst, params, sampled):
    """Pr[item in output | sampled set equals the given set].

    Equals 1/palette for items surviving the deterministic middle of the
    pipeline and 0 otherwise.
    """
    sampled = _checked_items(inst, sampled)
    rounder = KcsRounder(inst, np.zeros(inst.n), params)
    items, _ = rounder.survivors(sampled)
    out = np.zeros(inst.n)
    for j in items:
        out[j] = 1.0 / rounder.palette
    return out


def _coloring_distribution(sub, params):
    """All (probability, colors) outcomes of the coloring step on `sub`."""
    if params.epsilon is None:
        coloring = color_directed_graph(sub, params.d)
        return [(1.0, coloring.colors)]
    palette, spread = neg_corr_palette(params.d, params.epsilon)
    adj = sub.neighbours
    order = list(reversed(peel_order(sub)))
    results = []

    def walk(idx, colors, prob):
        if idx == len(order):
            results.append((prob, tuple(colors)))
            return
        v = order[idx]
        used = {colors[u] for u in adj[v] if colors[u] >= 0}
        avail = [c for c in range(palette) if c not in used][:spread]
        if len(avail) < spread:
            raise InternalInvariantError("palette exhausted during enumeration")
        for c in avail:
            colors[v] = c
            walk(idx + 1, colors, prob / spread)
        colors[v] = -1

    walk(0, [-1] * sub.n, 1.0)
    return results


def exact_pairwise_probabilities(inst, x, params):
    """Joint matrix J[u,v] = Pr[u and v both in output], enumerating the
    sample and, when epsilon is set, every per-vertex color draw.  The
    diagonal carries the marginals.  Capped at n = 10."""
    if inst.n > EXACT_PAIRWISE_CAP:
        raise SizeError(f"n={inst.n} above pairwise-enumeration cap {EXACT_PAIRWISE_CAP}")
    rounder = KcsRounder(inst, x, params)
    palette = rounder.palette
    joint = np.zeros((inst.n, inst.n))
    for prob, sampled in _enumerate_samples(rounder.p):
        items, sub = rounder.survivors(sampled)
        if not items:
            continue
        for cprob, colors in _coloring_distribution(sub, params):
            w = prob * cprob / palette
            for a, b in itertools.combinations(range(len(items)), 2):
                if colors[a] == colors[b]:
                    ja, jb = items[a], items[b]
                    joint[ja, jb] += w
                    joint[jb, ja] += w
            for a in range(len(items)):
                joint[items[a], items[a]] += w
    return joint

"""Stochastic k-set packing by multi-chance probing.

Items have random size vectors over a support of at most k rows and
random weights, revealed only when an item is probed; probing is
irrevocable and consumes the realized sizes.  The fractional benchmark
is the LP over expected sizes u_ij = E[S_ij]:

    max { w.x : sum_j u_ij x_j <= b_i, x in [0,1]^n }.

A run makes T passes ("chances") over the items.  In chance t each item
flips a Bernoulli coin Y_tj with mean alpha_t x_j / k; an item becomes
eligible at its first successful chance and is never reconsidered
afterwards, so add events are mutually exclusive across chances.  The
pass visits items in a fresh uniform order and probes an eligible item
iff it is safe, meaning every supporting row has at least one unit of
residual capacity.  Simulation-based attenuation then flattens the add
rate: before chance t the unattenuated add probability ph_tj is
estimated from a pool of fresh pipeline simulations (chances before t
run attenuated, chance t not), and the live pass keeps a would-be add
with probability min(1, beta_t x_j / (k ph_tj)), so each item is added
in chance t with probability beta_t x_j / k up to simulation error.

`compute_schedule` produces the diminishing-returns schedule

    beta*_t = (1 - sum_{t'<t} beta*_{t'})^2 / 2,
    alpha*_t = 1 - sum_{t'<t} beta*_{t'},

whose totals gamma_T = 1/2, 5/8, 89/128, ... increase toward 1, with
the finite-k correction beta_t = beta*_t - alpha*_t (sum_{t'<t}
alpha*_{t'}) / k, clamped at zero.

`_Engine` draws all the randomness of B runs into compact arrays
(first successful chances, orders, kept flags, scenarios), and the
estimation pools and `chance_tally` simulate the runs of a draw
together in a vectorised pass.  A trial takes its single run's
uniforms as one `rng.random(3Tn + n)` block, which is bit for bit the
stream a one-run draw takes, and walks it in plain Python, visiting
only the chances and items that can change its outcome.  So a trial is
exactly the one row of a pass over the same stream.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import (ValidationReport, make_instance, read_json, require_clean,
                   require_fractional, write_json)
from .errors import AttenuationError, ParamError, ValidationError
# perfbench/probe.py's tracer wraps `sksp.solve_packing_lp`, so the name
# stays bound here although this module no longer calls it.
from .lp import solve_packing_lp  # noqa: F401
from .montecarlo import (EstimationSpec, attenuation_keep_prob, required_samples,
                         run_slices)

# A pool draws its runs in chunks of _CHUNK, all four blocks of one chunk
# before the next, so _CHUNK is part of the pool's stream.  Its memory is
# not: a chunk keeps small integers and booleans per run, item and
# chance, and its floats live one run slice at a time.
_CHUNK = 200_000
_ATTEN_REL_TOL = 0.01


@dataclass(frozen=True)
class StochasticItem:
    """Support rows plus a scenario table of (probability, weight, bits).

    bits is a 0/1 vector aligned with `support`: the rows this item
    actually consumes when that scenario is realized.
    """

    support: tuple
    scenarios: tuple

    @cached_property
    def expected_weight(self):
        return sum(p * w for p, w, _ in self.scenarios)

    @cached_property
    def expected_sizes(self):
        """u_ij aligned with support."""
        u = [0.0] * len(self.support)
        for p, _, bits in self.scenarios:
            for t, bit in enumerate(bits):
                u[t] += p * bit
        return tuple(u)


def make_item(support, scenarios):
    return StochasticItem(
        support=tuple(int(i) for i in support),
        scenarios=tuple(
            (float(p), float(w), tuple(int(b) for b in bits))
            for p, w, bits in scenarios
        ),
    )


@dataclass(frozen=True)
class SkspInstance:
    m: int
    capacities: tuple
    items: tuple
    k: int

    @property
    def n(self):
        return len(self.items)


def validate_sksp(inst):
    v = []
    if inst.k < 1:
        v.append(f"k={inst.k} below 1")
    if inst.m != len(inst.capacities):
        v.append(f"m={inst.m} but {len(inst.capacities)} capacities")
    for i, b in enumerate(inst.capacities):
        if not (isinstance(b, int) and b >= 1):
            v.append(f"capacity[{i}]={b} not an integer >= 1")
    for j, item in enumerate(inst.items):
        if len(set(item.support)) != len(item.support):
            v.append(f"item {j} repeats a support row")
        if len(item.support) > inst.k:
            v.append(f"item {j} supports {len(item.support)} rows, k={inst.k}")
        for i in item.support:
            if not (0 <= i < inst.m):
                v.append(f"item {j} support row {i} out of range")
        if not item.scenarios:
            v.append(f"item {j} has no scenarios")
            continue
        total = 0.0
        for s, (p, w, bits) in enumerate(item.scenarios):
            total += p
            if not (p >= 0):
                v.append(f"item {j} scenario {s} probability {p} negative")
            if not (w >= 0):
                v.append(f"item {j} scenario {s} weight {w} negative")
            elif not math.isfinite(w):
                v.append(f"item {j} scenario {s} weight {w} not finite")
            if len(bits) != len(item.support):
                v.append(f"item {j} scenario {s} bit vector length mismatch")
            if any(b not in (0, 1) for b in bits):
                v.append(f"item {j} scenario {s} bits not 0/1")
        if not abs(total - 1.0) <= 1e-9:
            v.append(f"item {j} scenario probabilities sum to {total}")
    return ValidationReport(tuple(v))


def require_valid_sksp(inst):
    return require_clean(validate_sksp, inst)


def expected_size_instance(inst):
    """PackingInstance with columns u_ij, for the expected-size LP; the
    stochastic instance is validated first.

    u_ij is an occupancy probability, so it may exceed 1 only by the
    summation dust validate_sksp tolerates; clamp it for the strict
    packing-side check.
    """
    require_valid_sksp(inst)
    cols = []
    for item in inst.items:
        cols.append([
            (i, min(u, 1.0))
            for i, u in zip(item.support, item.expected_sizes) if u > 0
        ])
    weights = [item.expected_weight for item in inst.items]
    return make_instance(inst.capacities, weights, cols, k=inst.k)


# ---------------------------------------------------------------------------
# Chance schedules

@dataclass(frozen=True)
class ChanceSchedule:
    alphas: tuple
    betas: tuple

    @property
    def T(self):
        return len(self.alphas)

    def __post_init__(self):
        if len(self.alphas) != len(self.betas) or not self.alphas:
            raise ParamError("schedule needs equal, nonempty alpha/beta lists")
        spent = 0.0
        for t, (a, b) in enumerate(zip(self.alphas, self.betas)):
            if not (0.0 <= a <= 1.0):
                raise ParamError(f"alpha[{t}]={a} outside [0,1]")
            cap = a * (1.0 - spent - a / 2.0)
            if not (0.0 <= b <= cap + 1e-9):
                raise ParamError(
                    f"beta[{t}]={b} outside [0, {cap:.6g}] given earlier chances"
                )
            spent += b


def ideal_gamma(T):
    """Prefix totals gamma_1..gamma_T of the uncorrected schedule."""
    gammas = []
    g = 0.0
    for _ in range(T):
        g = g + (1.0 - g) ** 2 / 2.0
        gammas.append(g)
    return gammas


def compute_schedule(T, k):
    """Diminishing-returns schedule with the finite-k correction.

    k may be math.inf for the limiting schedule.  The correction can
    push early-k beta values negative; those clamp to zero (the chance
    is kept but adds nothing, preserving positional semantics).
    """
    if T < 1:
        raise ParamError(f"T={T} below 1")
    if not (k == math.inf or k >= 1):
        raise ParamError(f"k={k} below 1")
    alphas_star, betas_star = [], []
    spent = 0.0
    for _ in range(T):
        a = 1.0 - spent
        b = a * a / 2.0
        alphas_star.append(a)
        betas_star.append(b)
        spent += b
    betas = []
    for t in range(T):
        corr = 0.0 if k == math.inf else alphas_star[t] * sum(alphas_star[:t]) / k
        betas.append(max(0.0, betas_star[t] - corr))
    return ChanceSchedule(alphas=tuple(alphas_star), betas=tuple(betas))


def default_chances(k):
    return max(1, math.ceil(math.log(max(2, k))))


# ---------------------------------------------------------------------------
# Probing engine

class ProbeOutcome(NamedTuple):
    """One trial: per-item chance of addition (-1 if never added),
    realized weight total, and final row usage."""

    added_chance: tuple
    realized_weight: float
    usage: tuple

    @property
    def chosen(self):
        return frozenset(j for j, t in enumerate(self.added_chance) if t >= 0)


class _Engine:
    """Shared simulation core: one array draw, a vectorised pass, a walk.

    `_draw` takes all the randomness of B runs as four blocks of
    uniforms, each drawn one run slice at a time, and keeps compact
    per-run arrays.  `_pass` simulates the runs of those draws together,
    stepping through the order positions of each chance and touching
    only the runs whose item at that position is eligible and kept; the
    estimation pools and `chance_tally` use it.  `_walk` simulates
    the one run of a trial, which the harness calls once per trial: it
    reads the stream a one-run `_draw` reads, in one `rng.random` call,
    and walks it over Python lists, without the per-call numpy cost that
    the draw and the pass pay per array.  It follows a `_plan` built
    once per sampler, which lists only the (chance, item) pairs whose
    hit can change the outcome, and it orders only the items hit and
    kept in a chance.  tests/test_sksp_properties.py pins the walk to
    the pass trial by trial on twin streams.
    """

    def __init__(self, inst, x):
        require_valid_sksp(inst)
        self.inst = inst
        self.x = require_fractional(x, inst.n)
        n, m, k = inst.n, inst.m, inst.k
        # Python tables for the walk
        self.support = [list(item.support) for item in inst.items]
        # per item and scenario, the support rows it consumes a unit of
        self.rows = [[[i for i, bit in zip(item.support, bits) if bit]
                      for _, _, bits in item.scenarios] for item in inst.items]
        self.sweights = [[w for _, w, _ in item.scenarios] for item in inst.items]
        self.caps = [b - 1 for b in inst.capacities]  # safe iff usage <= cap-1
        # Array tables for the pass and the draw.  Supports are padded to
        # k with the sentinel row m, whose room of 1 never binds since
        # its bits are 0.  scum holds each item's cumulative scenario
        # probabilities but the last, padded with inf: the count of
        # entries below a uniform u is the scenario it picks, as
        # min(searchsorted(cumsum, u), S - 1) over the full table.
        n_scen = max((len(item.scenarios) for item in inst.items), default=1)
        self.usage_dtype = np.min_scalar_type(max(inst.capacities, default=1))
        self.room = np.append(np.asarray(inst.capacities, dtype=np.int64), 1)
        self.sup = np.full((n, k), m, dtype=np.int64)
        self.scum = np.full((n, n_scen), np.inf)
        self.bit_tab = np.zeros((n, n_scen, k), dtype=self.usage_dtype)
        self.w_tab = np.zeros((n, n_scen))
        for j, item in enumerate(inst.items):
            s = len(item.scenarios)
            self.sup[j, :len(item.support)] = item.support
            self.scum[j, :s - 1] = np.cumsum([p for p, _, _ in item.scenarios])[:-1]
            for r, (_, w, bits) in enumerate(item.scenarios):
                self.w_tab[j, r] = w
                self.bit_tab[j, r, :len(bits)] = bits
        self.cum = self.scum.tolist()  # the walk's scenario search

    def y_probs(self, alphas):
        k = self.inst.k
        return np.minimum(1.0, np.outer(alphas, self.x) / k)

    def _draw(self, yp, keeps, B, rng):
        """Randomness of B runs of chances 0..T-1: each item's first
        successful chance tau (B, n), T if none succeeds; the per-chance
        visiting orders (B, T, n); kept (B, T, n), whether each keep
        coin falls below its keeps[t] entry (a None row, an unattenuated
        chance, keeps every item); the realized scenarios (B, n).

        The blocks are drawn in that order (hits, order keys, keep
        coins, scenario uniforms), each one run slice at a time, which is
        the stream of one whole-block `rng.random` call per block.  Each
        slice is reduced to bytes at once.
        """
        T, n = yp.shape
        slices = run_slices(B, T * n)
        tau = np.empty((B, n), dtype=np.min_scalar_type(T))
        for s in slices:
            # chance T always succeeds
            hit = np.ones((s.stop - s.start, T + 1, n), dtype=bool)
            np.less(rng.random((s.stop - s.start, T, n)), yp, out=hit[:, :T])
            tau[s] = hit.argmax(axis=1)
        orders = np.empty((B, T, n), dtype=np.min_scalar_type(n))
        for s in slices:
            orders[s] = rng.random((s.stop - s.start, T, n)).argsort(axis=2)
        keep = np.array([np.ones(n) if row is None else row for row in keeps],
                        dtype=float).reshape(T, n)
        kept = np.empty((B, T, n), dtype=bool)
        for s in slices:
            np.less(rng.random((s.stop - s.start, T, n)), keep, out=kept[s])
        scen = np.empty((B, n), dtype=np.min_scalar_type(self.scum.shape[1]))
        for s in slices:
            u = rng.random((s.stop - s.start, n))
            scen[s] = (self.scum < u[:, :, None]).sum(axis=2, dtype=scen.dtype)
        return tau, orders, kept, scen

    def _pass(self, draws):
        """Simulate every run of `draws`.

        Returns added (B, n), the chance at which each item was added or
        -1; usage (B, m); realized weight (B,); and the number of add
        events of each run.
        """
        tau, orders, kept, scen = draws
        B, T, n = orders.shape
        m = self.inst.m
        added = np.full((B, n), -1, dtype=np.min_scalar_type(-T))
        usage = np.zeros((B, m + 1), dtype=self.usage_dtype)
        weight = np.zeros(B)
        events = np.zeros(B, dtype=np.int64)
        for t in range(T):
            items = orders[:, t, :]
            # live.T[p, b]: run b's item at position p is eligible now and
            # kept, so it is added iff it is safe; an eligible item that
            # is not kept changes nothing
            live = np.ascontiguousarray(
                np.take_along_axis((tau == t) & kept[:, t], items, axis=1).T)
            for p in np.flatnonzero(live.any(axis=1)):
                runs = np.flatnonzero(live[p])
                j = items[runs, p]
                sup = self.sup[j]
                ok = (usage[runs[:, None], sup] < self.room[sup]).all(axis=1)
                runs, j, sup = runs[ok], j[ok], sup[ok]
                s = scen[runs, j]
                usage[runs[:, None], sup] += self.bit_tab[j, s]
                weight[runs] += self.w_tab[j, s]
                added[runs, j] = t
                events[runs] += 1
        return added, usage[:, :m], weight, events

    def _plan(self, yp, keeps):
        """The walk's plan for hit rows yp and keep rows keeps (nested
        lists; a None row keeps every item, as 1.0 does): the T of the
        block, then per chance the (item, hit, y, coin, keep, key)
        entries it walks, hit, coin and key indexing the block.

        Item j is listed in chance t iff its hit probability y there is
        positive and some chance from t on may add it (positive y and
        keep); any other hit changes nothing, as a hit marks only j.  So
        a zero keep row in the middle is still walked, and the trailing
        chances that may add nothing (the zero-beta chances of
        `compute_schedule`) are dropped.
        """
        T, n = len(yp), self.inst.n
        tn = T * n
        keeps = [[1.0] * n if row is None else list(row) for row in keeps]
        last = [-1] * n   # the last chance that may add each item
        for t, (yp_t, keep_t) in enumerate(zip(yp, keeps)):
            for j in range(n):
                if yp_t[j] > 0 and keep_t[j] > 0:
                    last[j] = t
        chances = [
            tuple((j, t * n + j, yp_t[j], 2 * tn + t * n + j, keep_t[j],
                   tn + t * n + j)
                  for j in range(n) if yp_t[j] > 0 and last[j] >= t)
            for t, (yp_t, keep_t) in enumerate(zip(yp, keeps))
        ][:max(last, default=-1) + 1]
        return T, tuple(chances)

    def _walk(self, plan, rng):
        """The run of `_draw(yp, keeps, 1, rng)`, simulated as `_pass`
        does, as a ProbeOutcome; plan is `_plan(yp, keeps)`.  Its one
        `rng.random(3Tn + n)` block is that draw's stream (hits, order
        keys and keep coins, each T x n, then scenario uniforms).

        In each chance the items hit there first are marked, and those
        also kept are visited by key, ties by index: an item not kept
        changes nothing but its mark.  That is the draw's argsort order
        unless two float64 keys tie, which happens with probability under
        n^2 2^-53 per trial.  `bisect_left` on an item's
        non-decreasing cumulative row is the draw's scenario count.
        """
        T, chances = plan
        n = self.inst.n
        scens = 3 * T * n
        block = rng.random(scens + n).tolist()
        support, rows, sweights, caps = self.support, self.rows, self.sweights, self.caps
        usage = [0] * self.inst.m
        added = [-1] * n
        hit = [False] * n
        wsum = 0.0
        for t, entries in enumerate(chances):
            visit = []
            for j, h, y, c, keep, key in entries:
                if block[h] < y and not hit[j]:
                    hit[j] = True
                    if block[c] < keep:
                        visit.append((block[key], j))
            visit.sort()
            for _, j in visit:
                for i in support[j]:
                    if usage[i] > caps[i]:
                        break
                else:
                    s = bisect_left(self.cum[j], block[scens + j])
                    for i in rows[j][s]:
                        usage[i] += 1
                    wsum += sweights[j][s]
                    added[j] = t
        return ProbeOutcome(tuple(added), wsum, tuple(usage))


def default_sim_budget(targets):
    """Pool size from the smallest positive per-chance target rate."""
    positive = targets[targets > 0]
    if positive.size == 0:
        return 1000
    return required_samples(EstimationSpec(c=float(positive.min()), epsilon=0.01,
                                           delta=1e-4))


class MultiChanceSampler:
    """Attenuated multi-chance prober with a per-chance estimation barrier.

    Building the sampler runs the estimation pools: for each attenuated
    chance t, sim_budget fresh simulations of chances 0..t (earlier
    chances attenuated with their already-fixed keep probabilities,
    chance t left free) give the per-item unattenuated add frequencies
    ph[t].  Keep probabilities are then min(1, target/ph).  An estimate
    short of its target by more than simulation tolerance raises
    AttenuationError, the signal that the schedule is infeasible here.
    """

    def __init__(self, inst, x, schedule, rng, sim_budget=None,
                 attenuate_last=True):
        self.engine = _Engine(inst, x)
        self.schedule = schedule
        self.T = schedule.T
        n = inst.n
        self.targets = np.outer(schedule.betas, self.engine.x) / inst.k
        self.yp_full = self.engine.y_probs(schedule.alphas)
        if sim_budget is None:
            sim_budget = default_sim_budget(self.targets)
        self.sim_budget = int(sim_budget)
        if self.sim_budget < 1:
            raise ParamError("sim_budget must be positive")
        self.probe_estimates = np.full((self.T, n), np.nan)
        self.underflow = []
        keeps = []
        for t in range(self.T):
            if t == self.T - 1 and not attenuate_last:
                keeps.append(None)
                continue
            if not self.targets[t].any():
                # Nothing may be added here, so no pool is needed; its
                # probe_estimates row stays NaN.  compute_schedule only
                # zeroes a suffix of chances, so skipping shifts no later
                # pool's stream.
                keeps.append([0.0] * n)
                continue
            est = self._estimate_chance(t, keeps, rng)
            self.probe_estimates[t] = est
            keeps.append(self._keep_row(t, est))
        self.keeps = keeps
        self.plan = self.engine._plan(self.yp_full.tolist(), keeps)

    def _estimate_chance(self, t, keeps_prefix, rng):
        engine = self.engine
        counts = np.zeros(engine.inst.n, dtype=np.int64)
        yp = self.yp_full[: t + 1]
        keeps = list(keeps_prefix[:t]) + [None]
        left = self.sim_budget
        while left > 0:
            b = min(left, _CHUNK)
            draws = engine._draw(yp, keeps, b, rng)
            # runs are independent, so a pass over each slice counts the same
            for s in run_slices(b, yp.size):
                added = engine._pass([d[s] for d in draws])[0]
                counts += (added == t).sum(axis=0)
            left -= b
        return counts / self.sim_budget

    def _keep_row(self, t, est):
        row = []
        for j, target in enumerate(self.targets[t]):
            if target <= 0.0:
                row.append(0.0)
                continue
            tol = _ATTEN_REL_TOL * target + 3.0 * math.sqrt(
                max(est[j] * (1 - est[j]), 0.0) / self.sim_budget
            )
            if est[j] < target - tol:
                raise AttenuationError(
                    f"chance {t} item {j}: estimated add rate {est[j]:.6g} "
                    f"below target {target:.6g} beyond tolerance {tol:.3g}"
                )
            if est[j] <= 0.0:
                raise AttenuationError(
                    f"chance {t} item {j}: zero estimate with positive target"
                )
            if est[j] < target:
                self.underflow.append((t, j))
            row.append(attenuation_keep_prob(float(est[j]), float(target)))
        return row

    def trial(self, rng):
        return self.engine._walk(self.plan, rng)

    def chance_tally(self, trials, rng, batch=10_000):
        """Aggregate many trials without keeping them: per-(chance, item)
        add counts, capacity violations, and double-add violations.

        Mutual exclusivity is checked per trial: the pass's count of add
        events must equal the count of distinct items added.
        Returns (counts array of shape (T, n), violations, double_adds).
        """
        if trials < 1 or batch < 1:
            raise ParamError(f"trials={trials} and batch={batch} must be >= 1")
        engine = self.engine
        counts = np.zeros((self.T, engine.inst.n), dtype=np.int64)
        violations = 0
        double_adds = 0
        caps = np.asarray(engine.inst.capacities)
        left = trials
        while left > 0:
            b = min(left, batch)
            added, usage, _, events = engine._pass(
                engine._draw(self.yp_full, self.keeps, b, rng))
            for t in range(self.T):
                counts[t] += (added == t).sum(axis=0)
            double_adds += int((events != (added >= 0).sum(axis=1)).sum())
            violations += int((usage > caps).any(axis=1).sum())
            left -= b
        return counts, violations, double_adds


# ---------------------------------------------------------------------------
# JSON interchange

def sksp_to_dict(inst):
    return {
        "m": inst.m,
        "k": inst.k,
        "capacities": list(inst.capacities),
        "items": [
            {
                "support": list(item.support),
                "scenarios": [[p, w, list(bits)] for p, w, bits in item.scenarios],
            }
            for item in inst.items
        ],
    }


def sksp_from_dict(d):
    try:
        inst = SkspInstance(
            m=int(d["m"]),
            capacities=tuple(int(b) for b in d["capacities"]),
            items=tuple(
                make_item(it["support"], it["scenarios"]) for it in d["items"]
            ),
            k=int(d["k"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed stochastic instance JSON: {exc}") from exc
    return require_valid_sksp(inst)


def save_sksp(inst, path):
    write_json(sksp_to_dict(inst), path)


def load_sksp(path):
    return sksp_from_dict(read_json(path))

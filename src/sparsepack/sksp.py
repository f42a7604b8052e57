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

Every simulated run, of a pool, of `chance_tally` or of a trial, reads
its randomness as one `rng.random(3Tn + n)` block over the T chances
it simulates: hits, order keys and keep coins (each T x n), then
scenario uniforms.  `_Engine` reduces the blocks of B runs to their
live events (per chance, the items first hit there and kept, in
visiting order), and the pools and `chance_tally` simulate those in a
vectorised pass, one run slice at a time.  The draw and the pass skip
two checks that cannot fail (see `_Engine`), so the estimates are those
of the full computation.  A trial walks its one block in plain Python,
visiting only the chances and items that can change its outcome, so it
is exactly the one row of a pass over that stream.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .core import (ValidationReport, json_int, json_number, make_instance,
                   read_json, require_clean, require_fractional, write_json)
from .errors import AttenuationError, ParamError, ValidationError
# perfbench/probe.py's tracer wraps `sksp.solve_packing_lp`, so the name
# stays bound here although this module no longer calls it.
from .lp import solve_packing_lp  # noqa: F401
from .montecarlo import run_slices

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

    @cached_property
    def validation(self):
        """The structural check of `validate_sksp`, made once per
        instance: it is frozen, and the loader, the expected-size LP and
        the sampler each ask."""
        v = []
        if self.k < 1:
            v.append(f"k={self.k} below 1")
        if self.m != len(self.capacities):
            v.append(f"m={self.m} but {len(self.capacities)} capacities")
        for i, b in enumerate(self.capacities):
            if not (isinstance(b, int) and b >= 1):
                v.append(f"capacity[{i}]={b} not an integer >= 1")
        for j, item in enumerate(self.items):
            if len(set(item.support)) != len(item.support):
                v.append(f"item {j} repeats a support row")
            if len(item.support) > self.k:
                v.append(f"item {j} supports {len(item.support)} rows, k={self.k}")
            for i in item.support:
                if not (0 <= i < self.m):
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


def validate_sksp(inst):
    return inst.validation


def expected_size_instance(inst):
    """PackingInstance with columns u_ij, for the expected-size LP; the
    stochastic instance is validated first.

    u_ij is an occupancy probability, so it may exceed 1 only by the
    summation dust validate_sksp tolerates; clamp it for the strict
    packing-side check.
    """
    require_clean(validate_sksp, inst)
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
    return list(accumulate(compute_schedule(T, math.inf).betas))


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

    `_draw` takes the randomness of B runs as one block of uniforms, a
    row per run, and reduces it to the live events of each chance.
    `_passes` simulates B runs one run slice at a time, each slice drawn
    and then simulated together by `_pass`, one rank of live events at a
    time; the estimation pools and `chance_tally` use it.  `_walk`
    simulates the one run of a trial, which the harness calls once per
    trial: it reads one run's row, in one `rng.random` call, and walks
    it over Python lists, without the per-call numpy cost that the draw
    and the pass pay per array.  It follows a `_plan` built once per
    sampler, which lists only the (chance, item) pairs whose hit can
    change the outcome, and it orders only the items hit and kept in a
    chance.  tests/test_sksp_properties.py pins the walk to the pass run
    by run on twin streams.

    Two checks are skipped where their result is fixed.  `_draw`
    compares no keep coins in a chance whose keep row has no entry below
    1, since every uniform is below 1 (NaN is not >= 1, so a row holding
    one is still compared).  `_pass` adds each run's first event of the
    first chance without reading the rows' room, since every row still
    has all of it: capacities are integers >= 1, and the sentinel row's
    room is 1.  The same test file pins both to twins that check all.
    """

    def __init__(self, inst, x):
        require_clean(validate_sksp, inst)
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
        # Array tables for the pass, a column per item j (per scenario s
        # at j * S + s).  Supports are padded to k with the sentinel row
        # m, whose room of 1 never binds since its bits are 0.  scum
        # holds each item's cumulative scenario probabilities but the
        # last, padded with inf.
        n_scen = max((len(item.scenarios) for item in inst.items), default=1)
        self.room = np.array([*inst.capacities, 1], dtype=np.min_scalar_type(
            max(inst.capacities, default=1)))
        self.sup = np.full((k, n), m, dtype=np.intp)
        self.scum = np.full((n_scen, n), np.inf)
        self.bit_tab = np.zeros((k, n * n_scen), dtype=self.room.dtype)
        self.w_tab = np.zeros(n * n_scen)
        for j, item in enumerate(inst.items):
            s = len(item.scenarios)
            self.sup[:len(item.support), j] = item.support
            self.scum[:s - 1, j] = np.cumsum([p for p, _, _ in item.scenarios])[:-1]
            for r, (_, w, bits) in enumerate(item.scenarios):
                self.w_tab[j * n_scen + r] = w
                self.bit_tab[:len(bits), j * n_scen + r] = bits
        self.cum = self.scum.T.tolist()  # the walk's scenario search

    def y_probs(self, alphas):
        k = self.inst.k
        return np.minimum(1.0, np.outer(alphas, self.x) / k)

    def _draw(self, yp, keeps, B, rng):
        """B runs of chances 0..T-1, as B and per chance t the live events
        (runs, items, scenario uniforms): the items first hit at t whose
        keep coin falls below keeps[t] (a row of ones keeps every item),
        run by run and by key within a run; yp and keeps are (T, n).  A
        run is a row of one `rng.random((B, 3Tn + n))` block: hits, order
        keys and keep coins (each T x n), then scenario uniforms, the
        block a `_walk` takes.
        """
        T, n = yp.shape
        tn = T * n
        keeps = np.asarray(keeps)
        u = rng.random((B, 3 * tn + n))
        flat = u.ravel()
        hit = u[:, :tn].reshape(B, T, n) < yp
        coins = u[:, 2 * tn:3 * tn].reshape(B, T, n)
        chances = []
        for t in range(T):
            live = hit[:, t]
            if t:  # hit[:, t - 1] is the running OR of the hits before t
                live = live > hit[:, t - 1]  # hit at t and not before
                hit[:, t] |= hit[:, t - 1]
            if not (keeps[t] >= 1).all():  # else every coin u < 1 keeps
                live = live & (coins[:, t] < keeps[t])
            runs, items = np.divmod(np.flatnonzero(live), n)
            row = runs * u.shape[1]
            # by key, then stably by run (a narrow dtype radix-sorts)
            order = flat[row + tn + t * n + items].argsort()
            items = items[order[runs[order].astype(np.min_scalar_type(B - 1))
                                .argsort(kind="stable")]]
            chances.append((runs, items, flat[row + 3 * tn + items]))
        return B, chances

    def _passes(self, yp, keeps, B, rng):
        """`_pass` of B runs of `_draw(yp, keeps, B, rng)`, drawn and
        simulated one run slice at a time; a Generator fills a block row
        by row, so the slices take the stream of the whole block."""
        for s in run_slices(B, 3 * yp.size + yp.shape[1]):
            yield self._pass(self._draw(yp, keeps, s.stop - s.start, rng))

    def _pass(self, draws):
        """Simulate every run of `draws`: rank r settles the r-th live
        event of every run at once, added iff it is safe.  An added event
        picks its scenario as `_walk`'s `bisect_left` does, the count of
        `scum` entries strictly below its uniform.  Returns added (B, n),
        the chance at which each item was added or -1; usage (B, m);
        realized weight (B,); and the number of add events of each run.
        """
        B, chances = draws
        n, m1, S = self.inst.n, self.room.size, self.scum.shape[0]
        # flat (run, item) and (run, row) cells; free is a row's room left
        added = np.full(B * n, -1, dtype=np.min_scalar_type(-len(chances)))
        free = np.tile(self.room, B)
        weight, events = np.zeros(B), np.zeros(B, dtype=np.int64)
        for t, (runs, items, scen_u) in enumerate(chances):
            # first[b] is run b's first event; active, the runs with an
            # event of the current rank
            per_run = np.bincount(runs, minlength=B)
            first = np.cumsum(per_run) - per_run
            active = np.flatnonzero(per_run)
            for rank in range(per_run.max()):
                e = first[active] + rank
                j = items[e]
                cells = self.sup.take(j, axis=1) + active * m1
                r = active
                if t or rank:  # else each run's first event: all rows have room
                    ok = np.flatnonzero((free[cells] > 0).all(axis=0))
                    r, e, j, cells = active[ok], e[ok], j[ok], cells[:, ok]
                js = j * S + (self.scum.take(j, axis=1) < scen_u[e]).sum(axis=0)
                free[cells] -= self.bit_tab.take(js, axis=1)
                weight[r] += self.w_tab[js]
                added[r * n + j] = t
                events[r] += 1
                active = active[per_run[active] > rank + 1]
        usage = (self.room - free.reshape(B, m1))[:, :-1]
        return added.reshape(B, n), usage, weight, events

    def _plan(self, yp, keeps):
        """The walk's plan for hit rows yp and keep rows keeps (nested
        lists, as `_draw` takes them): the T of the block, then per chance
        the (item, hit, y, coin, keep, key) entries it walks, hit, coin
        and key indexing the block.

        Item j is listed in chance t iff its hit probability y there is
        positive and some chance from t on may add it (positive y and
        keep); any other hit changes nothing, as a hit marks only j.  So
        a zero keep row in the middle is still walked, and the trailing
        chances that may add nothing (the zero-beta chances of
        `compute_schedule`) are dropped.
        """
        T, n = len(yp), self.inst.n
        tn = T * n
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
        changes nothing but its mark.  That is the draw's order unless
        two float64 keys tie, which happens with probability under
        n^2 2^-53 per trial.  `bisect_left` on an item's
        non-decreasing cumulative row is the pass's scenario count.
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
    """Pool size from the smallest positive per-chance target rate c.

    A multiplicative Chernoff bound says ceil(3 / (c eps^2) ln(1/delta))
    runs put an estimate of a rate of at least c within relative error
    eps of the truth with probability at least 1 - delta; here eps =
    0.01 and delta = 1e-4.
    """
    positive = targets[targets > 0]
    if positive.size == 0:
        return 1000
    c = float(positive.min())
    return math.ceil(3.0 / (c * 0.01**2) * math.log(1.0 / 1e-4))


class MultiChanceSampler:
    """Attenuated multi-chance prober with a per-chance estimation barrier.

    Building the sampler runs the estimation pools: for each attenuated
    chance t, sim_budget fresh simulations of chances 0..t (earlier
    chances attenuated with their already-fixed keep probabilities,
    chance t left free) give the per-item unattenuated add frequencies
    ph[t].  Keep probabilities are then min(1, target/ph).  An estimate
    short of its target by more than simulation tolerance raises
    AttenuationError, the signal that the schedule is infeasible here;
    one short within it keeps every hit item and is noted in `underflow`.
    `keeps` holds the rows as a (T, n) array, a free chance (the last
    one under attenuate_last=False) as a row of ones.
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
        self.keeps = np.ones((self.T, n))
        for t in range(self.T if attenuate_last else self.T - 1):
            if not self.targets[t].any():
                # Nothing may be added here, so no pool is needed; its
                # probe_estimates row stays NaN.  compute_schedule only
                # zeroes a suffix of chances, so skipping shifts no later
                # pool's stream.
                self.keeps[t] = 0.0
                continue
            # the pool runs chance t free: its keep row is still ones
            counts = np.zeros(n, dtype=np.int64)
            for added, *_ in self.engine._passes(
                    self.yp_full[:t + 1], self.keeps[:t + 1], self.sim_budget, rng):
                counts += (added == t).sum(axis=0)
            self.probe_estimates[t] = counts / self.sim_budget
            self.keeps[t] = self._keep_row(t, self.probe_estimates[t])
        self.plan = self.engine._plan(self.yp_full.tolist(), self.keeps.tolist())

    def _keep_row(self, t, est):
        """min(1, target/est) per item, 0 where the target is 0.  Raises
        AttenuationError at the first item whose estimate falls short of
        its target by more than the tolerance, and notes each one short
        within it in `underflow`."""
        target = self.targets[t]
        positive = target > 0.0
        tol = _ATTEN_REL_TOL * target + 3.0 * np.sqrt(
            np.maximum(est * (1 - est), 0.0) / self.sim_budget)
        short = np.flatnonzero(positive & (est < target - tol))
        if short.size:
            j = short[0]
            raise AttenuationError(
                f"chance {t} item {j}: estimated add rate {est[j]:.6g} "
                f"below target {target[j]:.6g} beyond tolerance {tol[j]:.3g}"
            )
        self.underflow.extend(
            (t, j) for j in np.flatnonzero(positive & (est < target)).tolist())
        # a zero estimate of a positive target has raised above, since
        # the tolerance is below the target
        return np.minimum(1.0, np.divide(target, est, out=np.zeros(target.size),
                                         where=positive))

    def trial(self, rng):
        return self.engine._walk(self.plan, rng)

    def chance_tally(self, trials, rng):
        """Aggregate many trials without keeping them: per-(chance, item)
        add counts, capacity violations, and double-add violations.  The
        runs take the stream of as many `trial` calls.

        Mutual exclusivity is checked per trial: the pass's count of add
        events must equal the count of distinct items added.
        Returns (counts array of shape (T, n), violations, double_adds).
        """
        if trials < 1:
            raise ParamError(f"trials={trials} must be >= 1")
        engine = self.engine
        counts = np.zeros((self.T, engine.inst.n), dtype=np.int64)
        violations = 0
        double_adds = 0
        caps = np.asarray(engine.inst.capacities)
        for added, usage, _, events in engine._passes(self.yp_full, self.keeps,
                                                      trials, rng):
            for t in range(self.T):
                counts[t] += (added == t).sum(axis=0)
            double_adds += int((events != (added >= 0).sum(axis=1)).sum())
            violations += int((usage > caps).any(axis=1).sum())
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
    """m, k, capacities, support rows and scenario bits must be JSON
    integers, and probabilities and weights JSON numbers."""
    try:
        inst = SkspInstance(
            m=json_int(d["m"], "m"),
            capacities=tuple(json_int(b, "capacity") for b in d["capacities"]),
            items=tuple(
                make_item([json_int(i, "support row") for i in it["support"]],
                          [(json_number(p, "probability"),
                            json_number(w, "weight"),
                            [json_int(b, "scenario bit") for b in bits])
                           for p, w, bits in it["scenarios"]])
                for it in d["items"]
            ),
            k=json_int(d["k"], "k"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed stochastic instance JSON: {exc}") from exc
    return require_clean(validate_sksp, inst)


def save_sksp(inst, path):
    write_json(sksp_to_dict(inst), path)


def load_sksp(path):
    return sksp_from_dict(read_json(path))

"""Instance generators, exact oracles, and the Monte Carlo harness.

The harness answers one question for every rounding scheme in the
package: across many independent trials, is each item's empirical
inclusion frequency at or above its analytic floor?

    kcspip   x_j / (2k)
    bkns     x_j / (e k)
    sksp     (sum_t beta_t) x_j / k
    hm       x_e (1 - exp(-k_e)) / k_e
    ufp      alpha beta x_i

Trials are partitioned into fixed chunks of CHUNK_TRIALS; chunk c draws
its randomness from the counter stream (seed, module, c), where the
module constant identifies the algorithm.  The partition is a property
of (seed, trials) alone, so running with --jobs 8 reproduces the
single-process results bit for bit, and any flagged trial can be
replayed in isolation by rebuilding its chunk's generator and stepping
to the offset.  Reports carry this derivation rule alongside the raw
frequencies, standard errors, floors, and per-item ratios; the
feasibility violation counter must be zero on every run, since all five
schemes are feasible by construction.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from .core import (FEAS_TOL, PackingInstance, check_feasible, load_instance,
                   make_instance, objective_value, require_valid)
from .errors import (InternalInvariantError, ParamError, SizeError,
                     ValidationError)
from .hypermatch import (HmRounder, attenuation_g, hypergraph_lp_instance,
                         load_hypergraph, make_hypergraph, matching_weight,
                         require_valid_hypergraph, theoretical_bound)
from .kcspip import (EXACT_MARGINAL_CAP, BknsRounder, KcsParams, KcsRounder,
                     instance_k)
from .lp import solve_packing_lp
from .montecarlo import binomial_stderr, trial_rng
from .sksp import (MultiChanceSampler, SkspInstance, compute_schedule,
                   default_chances, expected_size_instance, load_sksp,
                   make_item)
from .ufptree import (UfpCrScheme, UfpParams, load_tree, make_tree,
                      optimize_alpha, tree_lp_instance)

BRUTE_FORCE_CAP = 24
CHUNK_TRIALS = 4096
HM_BLOCK = 32   # trials per sweep of the hm chunk entry; sets its memory

# Counter-stream module ids.  0 is the generic montecarlo default;
# 1-5 are trial streams (the `stream` of each SCHEMES entry), 101-105 the
# matching setup pools (attenuation estimation), 11-15 instance
# generators, 21 the memoized oracle path.
_SETUP_STREAM = {"sksp": 103, "ufp": 105}
_GEN_STREAM = {"gap": 11, "kcs": 12, "hyper": 13, "sksp": 14, "tree": 15}
_ORACLE_STREAM = 21


# ---------------------------------------------------------------------------
# Instance generators

def gen_gap_instance(k, eps=None):
    """The tight family: n = m = 2k - 1, unit capacities and weights.

    Column j puts coefficient 1 on row j and a small eps on the k - 1
    rows cyclically preceding j, so every column touches k rows and any
    two columns conflict through some row's unit entry.  eps must stay
    below 1 / (10 n k); the default is half that threshold.
    """
    if k < 2:
        raise ParamError(f"k={k} must be at least 2")
    n = 2 * k - 1
    limit = 1.0 / (10.0 * n * k)
    if eps is None:
        eps = limit / 2.0
    if not (0.0 < eps < limit):
        raise ParamError(f"eps={eps} must be in (0, {limit:.3g})")
    columns = []
    for j in range(n):
        col = [(j, 1.0)]
        col.extend(((j - r) % n, eps) for r in range(1, k))
        columns.append(sorted(col))
    inst = make_instance([1.0] * n, [1.0] * n, columns, k=k)
    return require_valid(inst)


def gen_random_kcs(n, m, k, seed):
    """Random column-sparse instance: every column touches k distinct
    uniform rows with coefficients uniform in (0,1], weights uniform in
    (0,1], all capacities 1."""
    if k < 1 or n < 1 or m < 1:
        raise ParamError("n, m, k must be positive")
    if k > m:
        raise ParamError(f"k={k} exceeds row count m={m}")
    rng = trial_rng(seed, 0, module=_GEN_STREAM["kcs"])
    columns = []
    for _ in range(n):
        rows = sorted(int(i) for i in rng.choice(m, size=k, replace=False))
        columns.append([(i, 1.0 - rng.random()) for i in rows])
    weights = [1.0 - rng.random() for _ in range(n)]
    inst = make_instance([1.0] * m, weights, columns, k=k)
    return require_valid(inst)


def gen_random_hypergraph(n_vertices, n_edges, k, seed):
    """Random weighted hypergraph with edge sizes uniform in 1..k."""
    if n_vertices < 1 or n_edges < 1 or k < 1:
        raise ParamError("n_vertices, n_edges, k must be positive")
    rng = trial_rng(seed, 0, module=_GEN_STREAM["hyper"])
    edges = []
    for _ in range(n_edges):
        size = int(rng.integers(1, min(k, n_vertices) + 1))
        vs = sorted(int(v) for v in rng.choice(n_vertices, size=size, replace=False))
        edges.append((tuple(vs), 1.0 - rng.random()))
    return require_valid_hypergraph(make_hypergraph(n_vertices, edges))


def gen_sksp_instance(n, m, k, scenarios, seed, cap_hi=2):
    """Random stochastic instance: integer capacities, Bernoulli bits,
    normalized scenario probabilities."""
    if n < 1 or m < 1 or k < 1 or scenarios < 1:
        raise ParamError("n, m, k, scenarios must be positive")
    if k > m:
        raise ParamError(f"k={k} exceeds row count m={m}")
    rng = trial_rng(seed, 0, module=_GEN_STREAM["sksp"])
    capacities = tuple(int(c) for c in rng.integers(1, cap_hi + 1, size=m))
    items = []
    for _ in range(n):
        support = sorted(int(i) for i in rng.choice(m, size=k, replace=False))
        raw = rng.random(scenarios) + 0.1
        probs = raw / raw.sum()
        table = []
        for s in range(scenarios):
            bits = [int(b) for b in rng.integers(0, 2, size=k)]
            table.append((float(probs[s]), 1.0 - rng.random(), bits))
        items.append(make_item(support, table))
    return SkspInstance(m=m, capacities=capacities, items=tuple(items), k=k)


def gen_random_tree(n_vertices, n_demands, seed, cap_hi=2):
    """Random rooted tree (vertex 0 is the root) with random demands."""
    if n_vertices < 2 or n_demands < 1:
        raise ParamError("need at least 2 vertices and 1 demand")
    rng = trial_rng(seed, 0, module=_GEN_STREAM["tree"])
    parent = [-1] + [int(rng.integers(0, v)) for v in range(1, n_vertices)]
    caps = [1] + [int(c) for c in rng.integers(1, cap_hi + 1, size=n_vertices - 1)]
    demands = []
    for _ in range(n_demands):
        s = int(rng.integers(0, n_vertices))
        t = int(rng.integers(0, n_vertices - 1))
        if t >= s:
            t += 1
        demands.append((s, t, 1.0 - rng.random()))
    return make_tree(parent, 0, caps, demands)


# ---------------------------------------------------------------------------
# Exact optimum by branch and bound

def brute_force_opt(inst, size_cap=BRUTE_FORCE_CAP):
    """Exact packing optimum via depth-first search with suffix-weight
    pruning.  Returns (value, chosen item set).

    Refuses n > size_cap (default 24, where 2^n with pruning stays
    sub-second).  Callers may raise the cap for instances whose
    structure keeps the search small, such as the tight gap family,
    where any two items conflict and the tree is quadratic."""
    require_valid(inst)
    if inst.n > size_cap:
        raise SizeError(f"n={inst.n} exceeds brute force cap {size_cap}")
    n, m = inst.n, inst.m
    caps = [b + FEAS_TOL for b in inst.capacities]
    suffix = [0.0] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix[j] = suffix[j + 1] + inst.weights[j]
    usage = [0.0] * m
    picked = []
    best_val = 0.0
    best_set = frozenset()

    def walk(j, value):
        nonlocal best_val, best_set
        if value + suffix[j] <= best_val + 1e-12:
            return
        if j == n:
            best_val = value
            best_set = frozenset(picked)
            return
        col = inst.columns[j]
        if all(usage[i] + a <= caps[i] for i, a in col):
            for i, a in col:
                usage[i] += a
            picked.append(j)
            walk(j + 1, value + inst.weights[j])
            picked.pop()
            for i, a in col:
                usage[i] -= a
        walk(j + 1, value)

    walk(0, 0.0)
    return best_val, best_set


# ---------------------------------------------------------------------------
# Experiment specification and reports

@dataclass(frozen=True)
class ItemReport:
    """One row of the comparison table.  ratio is a Python float, or
    None when the floor is zero (an item the fractional solution never
    uses)."""

    index: int
    x: float
    frequency: float
    std_err: float
    floor: float
    ratio: object


@dataclass(frozen=True)
class RoundingReport:
    algorithm: str
    trials: int
    seed: int
    chunk: int
    stream: str
    lp_objective: float
    mean_objective: float
    objective_std_err: float
    feasibility_violations: int
    min_ratio: object
    opt_value: object
    items: tuple
    notes: tuple


@dataclass
class ExperimentSpec:
    """What to run: algorithm name, the instance itself, trial count,
    master seed, process fan-out, per-algorithm parameters, and an
    optional JSON report sink path.

    Recognized params keys:
        kcspip  alpha, ell, d, epsilon (applied over KcsParams.defaults)
        bkns    alpha
        sksp    T, sim_budget, attenuate_last
        ufp     alpha (default: the balance-optimal rate, whose keep
                probability is nearly zero; experiments that want to
                see routing should pass a moderate alpha), sim_budget
        any     compare_opt (packing instances: attach the exact optimum)
    Keys a scheme does not read are ignored."""

    algorithm: str
    instance: object
    trials: int
    seed: int
    jobs: int = 1
    params: dict = field(default_factory=dict)
    sink: object = None

    def __post_init__(self):
        if self.algorithm not in SCHEMES:
            raise ValidationError(
                f"unknown algorithm {self.algorithm!r}; expected one of "
                f"{', '.join(ALGORITHMS)}"
            )
        if self.trials < 1:
            raise ParamError("trials must be positive")
        if self.jobs < 1:
            raise ParamError("jobs must be positive")


def _build_kcspip(inst, x, params, seed):
    k = instance_k(inst)
    kp = KcsParams.defaults(k, epsilon=params.get("epsilon"))
    kp = replace(
        kp, **{key: params[key] for key in ("alpha", "ell", "d") if key in params})
    return KcsRounder(inst, x, kp), [v / (2.0 * k) for v in x], []


def _build_bkns(inst, x, params, seed):
    k = instance_k(inst)
    runner = BknsRounder(inst, x, alpha=params.get("alpha", 1.0))
    return runner, [v / (math.e * k) for v in x], []


def _build_sksp(inst, x, params, seed):
    T = params.get("T")
    if T is None:
        T = default_chances(inst.k)
    schedule = compute_schedule(T, inst.k)
    setup_rng = trial_rng(seed, 0, module=_SETUP_STREAM["sksp"])
    runner = MultiChanceSampler(
        inst, x, schedule, setup_rng,
        sim_budget=params.get("sim_budget"),
        attenuate_last=params.get("attenuate_last", True),
    )
    gamma = sum(schedule.betas)
    notes = []
    if runner.underflow:
        notes.append(
            f"attenuation clamped at {len(runner.underflow)} "
            f"(chance, item) pairs: {sorted(set(runner.underflow))[:10]}"
        )
    return runner, [gamma * v / inst.k for v in x], notes


def _build_hm(h, x, params, seed):
    runner = HmRounder(h, x, attenuation_g)
    floors = [v * theoretical_bound(len(vs)) for (vs, _), v in zip(h.edges, x)]
    return runner, floors, []


def _build_ufp(net, x, params, seed):
    alpha = params.get("alpha")
    if alpha is None:
        alpha = optimize_alpha()[0]
    budget = params.get("sim_budget")
    up = UfpParams(alpha) if budget is None else UfpParams(alpha, budget)
    setup_rng = trial_rng(seed, 0, module=_SETUP_STREAM["ufp"])
    runner = UfpCrScheme(net, x, up, setup_rng)
    notes = []
    if runner.clamped:
        notes.append(f"safety estimates below beta for demands {runner.clamped[:10]}")
    return runner, [up.alpha * up.beta * v for v in x], notes


def _trial_loop(evaluate):
    """The chunk entry of a scheme whose runner draws one trial per
    `runner.trial(rng)` call, which evaluate(view, trial result) turns
    into (chosen, weight, feasible)."""
    def run_chunk(view, runner, rng, size):
        # A list takes `+= 1` about 5x faster than a numpy array does.
        tally = [0] * view.n
        weights = []
        bad = []
        for t in range(size):
            chosen, weight, ok = evaluate(view, runner.trial(rng))
            for j in chosen:
                tally[j] += 1
            weights.append(weight)
            if not ok:
                bad.append(t)
        return np.array(tally, dtype=np.int64), weights, bad
    return run_chunk


def _hm_chunk(view, runner, rng, size):
    """The hm chunk entry: `runner.trials` sweeps of HM_BLOCK trials.

    Feasibility is checked again from the matchings alone, as at most
    one matched edge per (trial, vertex).  Each trial is weighed by one
    `matching_weight` call with its edge ids in ascending order."""
    h = runner.h
    counts = np.zeros(view.n, dtype=np.int64)
    weights = []
    bad = []
    width = h.m + 1
    for lo in range(0, size, HM_BLOCK):
        b = min(HM_BLOCK, size - lo)
        trial, edge = runner.trials(rng, b)
        counts += np.bincount(edge, minlength=view.n)
        slots = h.vertex_array.take(edge, axis=1) + trial * width
        loads = np.bincount(slots.ravel(), minlength=b * width)
        loads[h.m::width] = 0
        bad.extend((lo + np.unique(np.flatnonzero(loads > 1) // width)).tolist())
        ids = edge.tolist()
        start = 0
        for end in np.bincount(trial, minlength=b).cumsum().tolist():
            weights.append(matching_weight(h, tuple(ids[start:end])))
            start = end
    return counts, weights, bad


def _evaluate_packing(view, chosen):
    return chosen, objective_value(view, chosen), check_feasible(view, chosen)


def _evaluate_sksp(view, outcome):
    ok = all(u <= b for u, b in zip(outcome.usage, view.capacities))
    return outcome.chosen, outcome.realized_weight, ok


@dataclass(frozen=True)
class Scheme:
    """Everything the harness and the CLI know about one algorithm.

    stream     counter-stream module id of its trial chunks
    load       reads an instance file of its format
    packing    instance -> the packing instance the scheme rounds, once
               the input is validated: the instance itself, or its
               expected-size, matching or path LP.  This view gives the
               item weights and count, its LP solution is the default
               x, and kcspip, bkns and ufp trials are checked against it
               (`check_feasible`), sksp outcomes against its capacities
    strengthen whether that LP is solved with the big-item rows
    build      (instance, x, params, seed) -> (runner, floors, notes)
    run_chunk  (view, runner, rng, size) -> (counts, per-trial weights,
               infeasible trial offsets) for `size` trials drawn from
               rng, where view is the packing instance.  hm sweeps
               blocks of trials (`_hm_chunk`); the other schemes call
               runner.trial(rng) once per trial (`_trial_loop`).
    """

    stream: int
    load: Callable
    packing: Callable
    strengthen: bool
    build: Callable
    run_chunk: Callable


_packing_chunk = _trial_loop(_evaluate_packing)

SCHEMES = {
    "kcspip": Scheme(1, load_instance, require_valid, True, _build_kcspip,
                     _packing_chunk),
    "bkns": Scheme(2, load_instance, require_valid, True, _build_bkns,
                   _packing_chunk),
    "sksp": Scheme(3, load_sksp, expected_size_instance, False, _build_sksp,
                   _trial_loop(_evaluate_sksp)),
    "hm": Scheme(4, load_hypergraph, hypergraph_lp_instance, False, _build_hm,
                 _hm_chunk),
    "ufp": Scheme(5, load_tree, tree_lp_instance, False, _build_ufp,
                  _packing_chunk),
}
ALGORITHMS = tuple(sorted(SCHEMES))


def _run_chunks(payload):
    """Worker: run a list of trial chunks and return partial tallies.

    The payload names the algorithm rather than carrying its SCHEMES
    entry, whose functions need not pickle."""
    alg, runner, view, seed, trials, chunk_ids = payload
    scheme = SCHEMES[alg]
    tally = np.zeros(view.n, dtype=np.int64)
    violations = 0
    flagged = []
    obj_parts = []
    for c in chunk_ids:
        rng = trial_rng(seed, c, module=scheme.stream)
        lo = c * CHUNK_TRIALS
        size = min(trials, lo + CHUNK_TRIALS) - lo
        counts, weights, bad = scheme.run_chunk(view, runner, rng, size)
        tally += counts
        violations += len(bad)
        flagged.extend((c, off) for off in bad[:10 - len(flagged)])
        total = sum(weights)
        mean = total / size
        obj_parts.append(
            (c, size, total, math.fsum([(w - mean) ** 2 for w in weights])))
    return tally, violations, obj_parts, flagged


def empirical_ratio(spec, x=None):
    """Run the experiment and return a RoundingReport.

    x defaults to the LP solution of the scheme's packing view
    (strengthened for kcspip and bkns).  Floors and per-item ratios
    follow the table in the module docstring; `min_ratio` is the worst
    ratio over items with a positive floor, the single number a
    guarantee check cares about.  When spec.sink is set, the JSON report
    is also written there.
    """
    alg = spec.algorithm
    scheme = SCHEMES[alg]
    instance = spec.instance
    view = scheme.packing(instance)
    if x is None:
        x = solve_packing_lp(view, strengthen=scheme.strengthen).x
    x = [float(v) for v in x]
    if len(x) != view.n:
        raise ValidationError(f"x has length {len(x)}, expected {view.n}")
    runner, floors, notes = scheme.build(instance, x, spec.params, spec.seed)

    n_chunks = (spec.trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    payloads = []
    jobs = min(spec.jobs, n_chunks)
    for w in range(jobs):
        ids = list(range(w, n_chunks, jobs))
        if ids:
            payloads.append(
                (alg, runner, view, spec.seed, spec.trials, ids)
            )
    if jobs <= 1:
        parts = [_run_chunks(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_run_chunks, payloads))

    counts = np.zeros(view.n, dtype=np.int64)
    violations = 0
    obj_parts = []
    flagged = []
    for pc, pv, po, pf in parts:
        counts += pc
        violations += pv
        obj_parts.extend(po)
        flagged.extend(pf)
    for c, off in sorted(flagged)[:10]:
        notes.append(f"feasibility violation at chunk {c} offset {off}")

    # Reduce the objective in chunk order; the float association, and
    # with it the report bytes, must not depend on the worker count.
    # Each chunk's centred sum of squares m2 is merged into the running
    # one (Chan, Golub and LeVeque), which avoids the cancellation of
    # E[w^2] - E[w]^2.
    obj_sum = 0.0
    m2 = 0.0
    seen = 0
    for _, size, part_sum, part_m2 in sorted(obj_parts):
        delta = part_sum / size - (obj_sum / seen if seen else 0.0)
        m2 += part_m2 + delta * delta * seen * size / (seen + size)
        obj_sum += part_sum
        seen += size

    trials = spec.trials
    mean_obj = obj_sum / trials
    var_obj = m2 / trials
    items = []
    ratios = []
    for j in range(view.n):
        freq = int(counts[j]) / trials
        floor = floors[j]
        ratio = freq / floor if floor > 0.0 else None
        if ratio is not None:
            ratios.append(ratio)
        items.append(ItemReport(
            index=j,
            x=x[j],
            frequency=freq,
            std_err=binomial_stderr(freq, trials),
            floor=float(floor),
            ratio=ratio,
        ))

    opt_value = None
    if spec.params.get("compare_opt") and isinstance(instance, PackingInstance):
        opt_value = brute_force_opt(instance)[0]

    stream = (
        f"chunk c holds trials [{CHUNK_TRIALS}c, {CHUNK_TRIALS}(c+1)) and uses "
        f"SeedSequence((seed, {scheme.stream}, c)); setup pools use module "
        f"ids {sorted(_SETUP_STREAM.values())}"
    )
    lp_obj = float(np.dot(view.weights, x))
    report = RoundingReport(
        algorithm=alg,
        trials=trials,
        seed=spec.seed,
        chunk=CHUNK_TRIALS,
        stream=stream,
        lp_objective=lp_obj,
        mean_objective=float(mean_obj),
        objective_std_err=float(math.sqrt(var_obj / trials)),
        feasibility_violations=int(violations),
        min_ratio=min(ratios) if ratios else None,
        opt_value=opt_value,
        items=tuple(items),
        notes=tuple(notes),
    )
    if spec.sink is not None:
        write_report_json(report, spec.sink)
    return report


# ---------------------------------------------------------------------------
# Report serialization

def report_to_dict(r):
    d = asdict(r)
    d["items"] = list(d["items"])
    d["notes"] = list(d["notes"])
    return d


def report_to_json(r):
    return json.dumps(report_to_dict(r), indent=1, sort_keys=True) + "\n"


def write_report_json(r, path):
    with open(path, "w") as fh:
        fh.write(report_to_json(r))


def write_report_csv(r, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "x", "frequency", "std_err", "analytic_floor",
                         "ratio"])
        for it in r.items:
            writer.writerow([
                it.index, repr(it.x), repr(it.frequency), repr(it.std_err),
                repr(it.floor), "" if it.ratio is None else repr(it.ratio),
            ])


def format_report(r):
    """Human-readable block for terminal output."""
    lines = [
        f"algorithm={r.algorithm} trials={r.trials} seed={r.seed} "
        f"violations={r.feasibility_violations}",
        f"lp_objective={r.lp_objective:.6g} mean_objective={r.mean_objective:.6g} "
        f"(stderr {r.objective_std_err:.3g})",
    ]
    if r.min_ratio is not None:
        lines.append(f"min_ratio={r.min_ratio:.4f}")
    if r.opt_value is not None:
        lines.append(f"opt_value={r.opt_value:.6g}")
    lines.append(f"{'index':>5} {'x':>9} {'freq':>9} {'stderr':>9} "
                 f"{'floor':>9} {'ratio':>8}")
    for it in r.items:
        ratio = f"{it.ratio:8.4f}" if it.ratio is not None else "       -"
        lines.append(
            f"{it.index:>5} {it.x:9.5f} {it.frequency:9.5f} {it.std_err:9.5f} "
            f"{it.floor:9.5f} {ratio}"
        )
    lines.extend(f"note: {s}" for s in r.notes)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Memoized Monte Carlo for small instances

def mc_inclusion_kcspip(inst, x, params, trials, seed):
    """Per-item inclusion counts over many pipeline trials, fast.

    Everything after the independent sampling step is deterministic
    when epsilon is unset, so the trial law factors through the sampled
    mask: draw masks in bulk, memoize mask -> color classes, then pick
    a uniform class.  The joint law (Bernoulli mask, pipeline, uniform
    color) is identical to `round_kcspip`; only the stream layout
    differs.  Every memoized class is checked feasible, so a violation
    anywhere in the support would raise instead of being sampled over.
    Requires n <= 16.  Returns an int64 count vector of length n.
    """
    require_valid(inst)
    if inst.n > EXACT_MARGINAL_CAP:
        raise SizeError(f"n={inst.n} exceeds memoized cap {EXACT_MARGINAL_CAP}")
    if params.epsilon is not None:
        raise ValidationError("memoized path needs the deterministic coloring")
    if trials < 1:
        raise ParamError("trials must be positive")
    rounder = KcsRounder(inst, x, params)
    palette = rounder.palette
    n = inst.n
    table = np.full((1 << n, palette), -1, dtype=np.int64)
    known = np.zeros(1 << n, dtype=bool)

    def memoize(mask):
        sampled = frozenset(j for j in range(n) if (mask >> j) & 1)
        classes = rounder.color_classes(sampled)
        row = np.zeros(palette, dtype=np.int64)
        for color, members in enumerate(classes):
            if not check_feasible(inst, members):
                raise InternalInvariantError(
                    f"infeasible color class {members} for mask {mask:#x}"
                )
            bm = 0
            for j in members:
                bm |= 1 << j
            row[color] = bm
        table[mask] = row
        known[mask] = True

    powers = (1 << np.arange(n)).astype(np.int64)
    p = rounder.p
    counts = np.zeros(n, dtype=np.int64)
    chunk = 1 << 15
    n_chunks = (trials + chunk - 1) // chunk
    for c in range(n_chunks):
        b = min(chunk, trials - c * chunk)
        rng = trial_rng(seed, c, module=_ORACLE_STREAM)
        masks = ((rng.random((b, n)) < p) @ powers).astype(np.int64)
        colors = rng.integers(palette, size=b)
        for mask in np.unique(masks):
            if not known[mask]:
                memoize(int(mask))
        outcome = table[masks, colors]
        for j in range(n):
            counts[j] += int(((outcome >> j) & 1).sum())
    return counts


def kcspip_ratio_trend(ks=(5, 10, 20, 40), trials=20_000, seed=0, jobs=1):
    """Worst per-item ratio on the tight family at increasing k.

    Returns one dict per k with the instance shape, the pipeline
    parameters actually used, and the achieved min and mean ratios.
    The floors use the universal constant 1/(2k); the trend across k is
    the quantity of interest, not a fixed threshold.
    """
    rows = []
    for k in ks:
        inst = gen_gap_instance(k)
        x = solve_packing_lp(inst, strengthen=True).x
        spec = ExperimentSpec("kcspip", inst, trials, seed, jobs=jobs)
        rep = empirical_ratio(spec, x=x)
        ratios = [it.ratio for it in rep.items if it.ratio is not None]
        kp = KcsParams.defaults(k)
        rows.append({
            "k": k,
            "n": inst.n,
            "alpha": kp.alpha,
            "d": kp.d,
            "trials": trials,
            "min_ratio": rep.min_ratio,
            "mean_ratio": sum(ratios) / len(ratios) if ratios else None,
            "violations": rep.feasibility_violations,
        })
    return rows

"""Checks of the program's outputs, made apart from the program.

Every relaxation, bound and load here is rebuilt from the instance file
with this file's own arithmetic; nothing is imported from sparsepack.
Each check returns a list of failure messages, empty when the output
passed.

Frequencies carry trial error, and the sksp and ufp ones also carry the
error of the simulation pool the program estimated its attenuation
from.  A frequency fails when it is more than Z standard errors outside
its bound.  One run makes about 10^4 such comparisons, and comparing
two commits takes a few hundred runs, so Z = 6 keeps a false alarm
below one in 10^3 such comparisons.
"""

from __future__ import annotations

import math
import re

import numpy as np

Z = 6.0
LP_REL_TOL = 1e-6     # objective against HiGHS, relative to max(1, |opt|)
ROW_TOL = 1e-7        # the simplex promises rows within this
FEAS_TOL = 1e-9       # additive slack when checking an integral output
MAX_MESSAGES = 5


# ---------------------------------------------------------------------------
# Relaxations as (c, A, b): max c.x subject to A x <= b, 0 <= x <= 1

def kcs_matrix(d):
    A = np.zeros((len(d["capacities"]), len(d["columns"])))
    for j, col in enumerate(d["columns"]):
        for i, a in col:
            A[int(i), j] = a
    return A, np.asarray(d["capacities"], dtype=float)


def kcs_relaxation(d):
    """The strengthened packing LP: A x <= b, and for every row holding
    a coefficient above 1/2, those items' x sum to at most 1."""
    A, b = kcs_matrix(d)
    big = (A > 0.5)[(A > 0.5).any(axis=1)].astype(float)
    return (np.asarray(d["weights"], dtype=float), np.vstack([A, big]),
            np.concatenate([b, np.ones(len(big))]))


def hyper_relaxation(d):
    """Fractional matching: each vertex is covered at most once."""
    edges = d["edges"]
    A = np.zeros((d["m"], len(edges)))
    for j, e in enumerate(edges):
        A[e["vertices"], j] = 1.0
    return np.array([e["weight"] for e in edges], dtype=float), A, np.ones(d["m"])


def sksp_relaxation(d):
    """The expected-size LP: u_ij = E[S_ij], capped at 1."""
    items = d["items"]
    A = np.zeros((d["m"], len(items)))
    for j, item in enumerate(items):
        u = sum(p * np.asarray(bits, dtype=float) for p, _, bits in item["scenarios"])
        A[item["support"], j] = np.minimum(u, 1.0)
    c = np.array([sum(p * w for p, w, _ in item["scenarios"]) for item in items])
    return c, A, np.asarray(d["capacities"], dtype=float)


def tree_paths(d):
    """The edges on each demand's path, each named by its lower vertex."""
    parent = d["parent"]

    def to_root(v):
        chain = [v]
        while parent[chain[-1]] != -1:
            chain.append(parent[chain[-1]])
        return chain

    paths = []
    for demand in d["demands"]:
        a, b = to_root(demand["s"]), to_root(demand["t"])
        shared = set(a) & set(b)
        paths.append([v for v in a + b if v not in shared])
    return paths


def tree_relaxation(d):
    """Fractional routing: each edge carries at most its capacity."""
    A = np.zeros((len(d["parent"]), len(d["demands"])))
    for i, path in enumerate(tree_paths(d)):
        A[path, i] = 1.0
    c = np.array([demand["w"] for demand in d["demands"]], dtype=float)
    b = np.asarray(d["edgeCapacity"], dtype=float)
    b[d["root"]] = max(b[d["root"]], 1.0)   # the root has no edge above it
    return c, A, b


RELAXATIONS = {"kcs": kcs_relaxation, "hyper": hyper_relaxation,
               "sksp": sksp_relaxation, "tree": tree_relaxation}


def check_lp(relaxation, x, objective):
    """Optimal against HiGHS, equal to w.x, and inside every row and box."""
    from scipy.optimize import linprog

    c, A, b = relaxation
    x = np.asarray(x, dtype=float)
    if x.shape != c.shape:
        return [f"x has {x.size} entries, the relaxation has {c.size} columns"]
    msgs = []
    ref = linprog(-c, A_ub=A, b_ub=b, bounds=(0.0, 1.0), method="highs")
    if ref.status != 0:
        msgs.append(f"reference solver failed: {ref.message}")
    elif abs(objective + ref.fun) > LP_REL_TOL * max(1.0, abs(ref.fun)):
        msgs.append(f"objective {objective!r}, HiGHS optimum {-ref.fun!r}")
    if abs(float(c @ x) - objective) > 1e-9 * max(1.0, abs(objective)):
        msgs.append(f"objective {objective!r} is not w.x = {float(c @ x)!r}")
    if x.min() < -FEAS_TOL or x.max() > 1.0 + FEAS_TOL:
        msgs.append("x leaves [0, 1]")
    excess = float((A @ x - b).max(initial=0.0))
    if excess > ROW_TOL:
        msgs.append(f"x exceeds a row by {excess:.3g}")
    return msgs


# ---------------------------------------------------------------------------
# Per-item frequency bounds

def _sigma(p, trials):
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def kcs_sparsity(d):
    return d.get("k") or max(len(col) for col in d["columns"])


def kcspip_bounds(d, x):
    """min(1, alpha x_j / k) / palette under the pipeline's default
    parameters: alpha = max(1, k^0.4), d = ceil(alpha + sqrt(alpha ln alpha))
    with the root taken as 0 below e, palette 2d + 1.  An item is output
    only if sampled and then in the one uniformly chosen colour."""
    k = kcs_sparsity(d)
    alpha = max(1.0, k ** 0.4)
    spread = math.sqrt(alpha * math.log(alpha)) if alpha >= math.e else 0.0
    palette = 2 * max(1, math.ceil(alpha + spread)) + 1
    return [min(1.0, alpha * v / k) / palette for v in x]


def bkns_bounds(d, x):
    """min(1, x_j / k): the baseline samples at x_j / k and only discards."""
    k = kcs_sparsity(d)
    return [min(1.0, v / k) for v in x]


def sksp_gamma(chances, k):
    """Sum of beta_t over the multi-chance schedule:
    alpha*_t = 1 - sum_{t'<t} beta*_t', beta*_t = alpha*_t^2 / 2, and
    beta_t = max(0, beta*_t - alpha*_t sum_{t'<t} alpha*_t' / k)."""
    spent, alphas, gamma = 0.0, [], 0.0
    for _ in range(chances):
        a = 1.0 - spent
        gamma += max(0.0, a * a / 2.0 - a * sum(alphas) / k)
        alphas.append(a)
        spent += a * a / 2.0
    return gamma


def ufp_beta(alpha):
    ae = alpha * math.e
    return 1.0 - 2.0 * ae / (1.0 - ae)


def hm_bounds(d, x):
    """(lower, upper) per edge with g(x) = x (1 - x/2).  An edge is
    output only if marked, so at most g(x_e); it is surely output if
    marked with key u and no neighbour is marked with a smaller key, so
    at least g(x_e) * integral_0^1 prod_{f ~ e} (1 - g(x_f) u) du."""
    g = np.array([v * (1.0 - v / 2.0) for v in x])
    edges = [e["vertices"] for e in d["edges"]]
    at_vertex = [[] for _ in range(d["m"])]
    for j, vs in enumerate(edges):
        for v in vs:
            at_vertex[v].append(j)
    nodes, weights = np.polynomial.legendre.leggauss(64)   # exact to degree 127
    u, w = (nodes + 1.0) / 2.0, weights / 2.0
    lower = []
    for j, vs in enumerate(edges):
        nbrs = {f for v in vs for f in at_vertex[v]} - {j}
        survive = np.ones_like(u)
        for f in nbrs:
            survive *= 1.0 - g[f] * u
        lower.append(g[j] * float(w @ survive))
    return lower, list(g)


def check_frequencies(report, lower=None, upper=None, equal=None, pool_sd=None,
                      skip=()):
    """Frequencies against per-item bounds, Z standard errors of slack.

    `equal` targets are two-sided; `pool_sd(target)` adds the pool's
    error.  Items in `skip` are held to their target from above only.
    """
    n = report["trials"]
    msgs = []
    for pos, item in enumerate(report["items"]):
        f, j = item["frequency"], item["index"]
        if equal is not None:
            t = equal[pos]
            sd = math.hypot(_sigma(t, n), pool_sd(t) if pool_sd else 0.0)
            if f > t + Z * sd or (j not in skip and f < t - Z * sd):
                msgs.append(f"item {j}: frequency {f:.6g}, target {t:.6g} "
                            f"+- {Z * sd:.3g}")
        if upper is not None and f > upper[pos] + Z * _sigma(upper[pos], n):
            msgs.append(f"item {j}: frequency {f:.6g} above {upper[pos]:.6g}")
        if lower is not None and f < lower[pos] - Z * _sigma(lower[pos], n):
            msgs.append(f"item {j}: frequency {f:.6g} below {lower[pos]:.6g}")
    return msgs[:MAX_MESSAGES]


def noted_clamps(alg, notes, n_items):
    """Items the report says were clamped; every item if the note is cut short."""
    for note in notes:
        if alg == "sksp" and note.startswith("attenuation clamped at"):
            pairs = re.findall(r"\((\d+), (\d+)\)", note)
            total = int(re.match(r"attenuation clamped at (\d+)", note).group(1))
            return set(range(n_items)) if total > len(pairs) else {int(j) for _, j in pairs}
        if alg == "ufp" and note.startswith("safety estimates below beta"):
            listed = [int(v) for v in re.findall(r"\d+", note.split("[", 1)[1])]
            return set(range(n_items)) if len(listed) >= 10 else set(listed)
    return set()


def check_report(alg, d, report, trials, params):
    """Everything a `round` report must satisfy, for each algorithm."""
    msgs = []
    if report["feasibility_violations"] != 0:
        msgs.append(f"{report['feasibility_violations']} feasibility violations")
    if report["trials"] != trials:
        msgs.append(f"report covers {report['trials']} trials, {trials} asked")
    x = [item["x"] for item in report["items"]]
    if alg == "kcspip":
        msgs += check_frequencies(report, upper=kcspip_bounds(d, x))
    elif alg == "bkns":
        msgs += check_frequencies(report, upper=bkns_bounds(d, x))
    elif alg == "hm":
        lower, upper = hm_bounds(d, x)
        msgs += check_frequencies(report, lower=lower, upper=upper)
    elif alg == "sksp":
        k, budget = d["k"], params["sim_budget"]
        gamma = sksp_gamma(params["chances"], k)
        msgs += check_frequencies(
            report, equal=[gamma * v / k for v in x],
            # the pool's add-rate estimate is at least the target t
            pool_sd=lambda t: math.sqrt(t * (1.0 - t) / budget),
            skip=noted_clamps(alg, report["notes"], len(x)))
    elif alg == "ufp":
        alpha, budget = params["alpha"], params["sim_budget"]
        beta = ufp_beta(alpha)
        # the pool's safety estimate is at least beta, relative sd below this
        rel = math.sqrt((1.0 - beta) / (beta * budget))
        msgs += check_frequencies(
            report, equal=[alpha * beta * v for v in x],
            pool_sd=lambda t: t * rel,
            skip=noted_clamps(alg, report["notes"], len(x)))
    else:
        raise ValueError(f"no check for {alg!r}")
    return msgs


# ---------------------------------------------------------------------------
# Feasibility of single trial outputs

def kcs_overloads(d, chosen_sets):
    A, b = kcs_matrix(d)
    msgs = []
    for chosen in set(chosen_sets):
        load = A[:, sorted(chosen)].sum(axis=1)
        if (load > b + FEAS_TOL).any():
            msgs.append(f"items {sorted(chosen)} overload row "
                        f"{int(np.argmax(load - b))}")
    return msgs[:MAX_MESSAGES]


def matching_conflicts(d, edge_sets):
    msgs = []
    for edges in set(edge_sets):
        seen = set()
        for j in edges:
            vs = d["edges"][j]["vertices"]
            if seen.intersection(vs):
                msgs.append(f"edges {sorted(edges)} share a vertex")
                break
            seen.update(vs)
    return msgs[:MAX_MESSAGES]


def sksp_overloads(d, outcomes):
    """Final usage within capacity, and no row used more often than the
    added items touching it (each adds at most one unit per row)."""
    caps = d["capacities"]
    supports = [item["support"] for item in d["items"]]
    msgs = []
    for added, usage in {(o.added_chance, o.usage) for o in outcomes}:
        touching = [0] * d["m"]
        for j, t in enumerate(added):
            if t >= 0:
                for i in supports[j]:
                    touching[i] += 1
        if any(u > c or u > n for u, c, n in zip(usage, caps, touching)):
            msgs.append(f"usage {list(usage)} for adds {list(added)}")
    return msgs[:MAX_MESSAGES]


def routing_overloads(d, routed_sets):
    paths = tree_paths(d)
    caps = d["edgeCapacity"]
    msgs = []
    for routed in set(routed_sets):
        load = [0] * len(caps)
        for i in routed:
            for v in paths[i]:
                load[v] += 1
        if any(load[v] > caps[v] for v in range(len(caps)) if v != d["root"]):
            msgs.append(f"demands {sorted(routed)} overload an edge")
    return msgs[:MAX_MESSAGES]


TRIAL_FEASIBILITY = {"kcspip": kcs_overloads, "bkns": kcs_overloads,
                     "hm": matching_conflicts, "sksp": sksp_overloads,
                     "ufp": routing_overloads}

"""LP relaxations of packing programs, solved by a bounded-variable simplex.

Two relaxations are used throughout:

  plain         max { w.x : A x <= b, 0 <= x <= 1 }
  strengthened  additionally sum_{j in big(i)} x_j <= 1 for every row i,
                where big(i) = { j : a_ij > 1/2 }.

The strengthened form closes the factor-2 integrality gap that single
big items cause; its optimum is never above the plain optimum, and the
two coincide when no coefficient exceeds 1/2.

The solver is a from-scratch primal simplex on the slack form.  It
prices by the largest coefficient (Dantzig) and falls back to Bland's
lowest-index rule after a degenerate step, until a step of positive
length is taken; ties go to the lowest index, so the returned vertex is
deterministic.  The box x_j <= 1 is a variable bound, met by bound
flips rather than by rows, and the all-slack basis is feasible, so no
phase-1 is needed.  Each pivot is one rank-1 update over the tableau
rows where the entering column is nonzero.  Desk-scale only.
"""

from __future__ import annotations

import numpy as np

from .core import FractionalSolution, require_valid
from .errors import InternalInvariantError, UnboundedError

PIVOT_TOL = 1e-9
TIE_TOL = 1e-12   # ratios this close tie; a step this short is degenerate
BOX_TOL = 1e-7    # a solved x may leave [0, 1] or a row by this much


def simplex_maximize(c, D, f, upper=None):
    """max c.x s.t. D x <= f, 0 <= x <= upper, with f >= 0 componentwise.

    `upper` is one bound for every variable or one per variable; None
    leaves x unbounded above.  Returns (x, objective) at an optimal
    vertex.  x is not clipped, so it may sit float dust outside its
    bounds.

    A nonbasic variable at its upper bound u_j is complemented, x_j =
    u_j - x'_j, so every nonbasic tableau variable sits at zero.

    Entering: the column with the largest reduced profit enters, the
    lowest index among ties.  After a step of length at most TIE_TOL
    (a degenerate pivot or flip), the lowest-index column with positive
    reduced profit enters instead (Bland), until a step of positive
    length is taken.  Leaving: among ratio ties, the row whose basic
    variable has the lowest index leaves, whether that variable falls
    to 0 or rises to its bound; a tie with the entering variable's own
    bound goes to the flip, which pivots nothing.

    Termination: a step of positive length strictly raises the
    objective, so no basis repeats across one.  A cycle would thus be
    made of degenerate steps only, and every step of such a stretch but
    its first follows Bland's rule, which cannot cycle.
    """
    c = np.asarray(c, dtype=float)
    D = np.asarray(D, dtype=float)
    f = np.asarray(f, dtype=float)
    r, n = D.shape
    if np.any(f < 0):
        raise InternalInvariantError("simplex requires nonnegative rhs")
    ub = np.full(n + r, np.inf)
    if upper is not None:
        ub[:n] = upper
    if not np.all(ub >= 0):
        raise InternalInvariantError("simplex requires nonnegative bounds")

    # tableau rows: [D | I | f]; bottom row: [-c | 0 | 0].  A complemented
    # variable's column is negated, and the last column holds the basic
    # variables' values.
    T = np.zeros((r + 1, n + r + 1))
    T[:r, :n] = D
    T[:r, n : n + r] = np.eye(r)
    T[:r, -1] = f
    T[r, :n] = -c
    basis = np.arange(n, n + r)
    flipped = np.zeros(n + r, dtype=bool)

    max_iters = 50 * (n + r) + 1000
    degenerate = False
    for _ in range(max_iters):
        candidates = np.flatnonzero(T[r, :-1] < -PIVOT_TOL)
        if candidates.size == 0:
            x = np.zeros(n + r)
            x[basis] = T[:r, -1]
            x = np.where(flipped, ub - x, x)[:n]
            return x, float(c @ x)
        if degenerate:
            enter = int(candidates[0])  # Bland: smallest index
        else:
            enter = int(candidates[np.argmin(T[r, candidates])])
        col, rhs = T[:r, enter], T[:r, -1]
        # Raising the entering variable by t moves basic row i by -t col[i]:
        # down to 0 where col > 0, up to its bound where col < 0.
        down = col > PIVOT_TOL
        up = (col < -PIVOT_TOL) & np.isfinite(ub[basis])
        rows = np.flatnonzero(down | up)
        ratios = (np.where(down[rows], rhs[rows], ub[basis[rows]] - rhs[rows])
                  / np.abs(col[rows]))
        best = min(ratios.min(initial=np.inf), ub[enter])
        if best == np.inf:
            raise UnboundedError("LP unbounded along column %d" % enter)
        degenerate = best <= TIE_TOL
        if ub[enter] <= best + TIE_TOL:
            T[:, -1] -= ub[enter] * T[:, enter]
            T[:, enter] *= -1.0
            flipped[enter] ^= True
            continue
        tied = rows[ratios <= best + TIE_TOL]
        leave = tied[np.argmin(basis[tied])]  # Bland on basic index
        if not down[leave]:
            # The leaving variable stops at its bound: complement it, which
            # keeps its column a unit vector and makes the pivot positive.
            out = basis[leave]
            T[leave] *= -1.0
            T[leave, out] = 1.0
            T[leave, -1] += ub[out]
            flipped[out] ^= True
        T[leave] /= T[leave, enter]
        nz = np.flatnonzero(T[:, enter])
        nz = nz[nz != leave]
        T[nz] -= np.outer(T[nz, enter], T[leave])
        basis[leave] = enter
    raise InternalInvariantError("simplex failed to converge")


def build_relaxation(inst, strengthen):
    """Assemble (c, D, f) for the chosen relaxation; the box 0 <= x <= 1
    is left to the solver's variable bounds.  Strengthening adds one row
    per row of A that has a big entry, in row order."""
    n, m = inst.n, inst.m
    big_rows = inst.big_rows if strengthen else ((),) * n
    extra = {i: m + r
             for r, i in enumerate(sorted({i for rows in big_rows for i in rows}))}
    D = np.zeros((m + len(extra), n))
    f = np.ones(m + len(extra))
    f[:m] = inst.capacities
    for j, col in enumerate(inst.columns):
        for i, a in col:
            D[i, j] = a
        for i in big_rows[j]:
            D[extra[i], j] = 1.0
    return np.asarray(inst.weights, dtype=float), D, f


def solve_packing_lp(inst, strengthen=True):
    """Optimal vertex of the (optionally strengthened) relaxation.

    Deterministic for a fixed instance; the objective is exact to well
    under 1e-7 at desk scale.
    """
    require_valid(inst)
    c, D, f = build_relaxation(inst, strengthen)
    x, _ = simplex_maximize(c, D, f, upper=1.0)
    if np.any(x < -BOX_TOL) or np.any(x > 1.0 + BOX_TOL):
        raise InternalInvariantError("simplex returned a point outside [0, 1]")
    x = np.clip(x, 0.0, 1.0)
    slack = D @ x - f
    if slack.max(initial=0.0) > BOX_TOL:
        raise InternalInvariantError("simplex returned an infeasible point")
    return FractionalSolution(x=tuple(float(v) for v in x),
                              objective=float(c @ x))

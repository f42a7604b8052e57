"""The simplex against brute-force vertex enumeration on small random
LPs (hypothesis).  Zeros in the right-hand side make the origin a
degenerate vertex, where largest-coefficient pricing hands over to
Bland's rule; `upper` is absent, one bound for all, or one per variable.

The solver is also held to `reference_simplex`, a copy of the loop as it
stood before each pivot's update was restricted to the nonzero columns
of the pivot row: both must return the same x bytes and objective, or
raise the same error.  A cell the restricted update skips could only
have lost a zero product, which can at most turn a -0.0 into +0.0, and
no pivot decision reads the sign of a zero.  x reads it, though, where
a zero reaches the right-hand side column; the loops' zeros there agree
unless f or upper holds a -0.0, so neither is drawn with one.  (No LP
the program builds has one: capacities are at least 1, bounds are 1.)
"""

import numpy as np
import pytest

from sparsepack.errors import InternalInvariantError, UnboundedError
from sparsepack.hypermatch import hypergraph_lp_instance, make_hypergraph
from sparsepack.lp import PIVOT_TOL, TIE_TOL, build_relaxation, simplex_maximize
from test_lp import vertex_enumeration_opt

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ENTRIES = st.sampled_from([-1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def lps(draw):
    n = draw(st.integers(1, 4))
    r = draw(st.integers(1, 3))
    c = np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0, 2.0, 3.0]),
                               min_size=n, max_size=n)))
    D = np.array(draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n),
                               min_size=r, max_size=r)))
    f = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0]),
                               min_size=r, max_size=r)))
    upper = draw(st.one_of(
        st.none(),
        st.sampled_from([0.0, 0.5, 1.0, 3.0]),
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=n,
                 max_size=n)))
    if upper is None:
        # one row of ones keeps the LP bounded
        D = np.vstack([D, np.ones(n)])
        f = np.append(f, draw(st.sampled_from([0.0, 1.0, 2.5])))
    return c, D, f, upper


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(lps())
def test_simplex_matches_vertex_enumeration(lp):
    c, D, f, upper = lp
    n = len(c)
    x, obj = simplex_maximize(c, D, f, upper=upper)
    if upper is None:
        rows, rhs = D, f
    else:
        rows = np.vstack([D, np.eye(n)])
        rhs = np.concatenate([f, np.broadcast_to(upper, (n,))])
    assert obj == pytest.approx(vertex_enumeration_opt(c, rows, rhs), abs=1e-9)
    assert obj == pytest.approx(float(np.dot(c, x)), abs=1e-12)
    assert np.all(x >= -1e-9)
    assert np.all(rows @ x <= rhs + 1e-9)


def reference_simplex(c, D, f, upper=None):
    """The full-row simplex loop: each pivot subtracts the whole outer
    product of the entering column and the pivot row over the rows where
    that column is nonzero.  Same pricing, ratio test and flips."""
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
    T = np.zeros((r + 1, n + r + 1))
    T[:r, :n] = D
    T[:r, n : n + r] = np.eye(r)
    T[:r, -1] = f
    T[r, :n] = -c
    basis = np.arange(n, n + r)
    flipped = np.zeros(n + r, dtype=bool)
    degenerate = False
    for _ in range(50 * (n + r) + 1000):
        candidates = np.flatnonzero(T[r, :-1] < -PIVOT_TOL)
        if candidates.size == 0:
            x = np.zeros(n + r)
            x[basis] = T[:r, -1]
            x = np.where(flipped, ub - x, x)[:n]
            return x, float(c @ x)
        if degenerate:
            enter = int(candidates[0])
        else:
            enter = int(candidates[np.argmin(T[r, candidates])])
        col, rhs = T[:r, enter], T[:r, -1]
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
        leave = tied[np.argmin(basis[tied])]
        if not down[leave]:
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


def outcome(solver, c, D, f, upper):
    try:
        x, obj = solver(c, D, f, upper=upper)
    except (InternalInvariantError, UnboundedError) as exc:
        return type(exc)
    return x.tobytes(), repr(obj)


SPARSE = st.sampled_from([0.0, 0.0, 0.0, 0.0, -0.0, 0.25, 0.5, 0.6, 1.0, 2.0,
                          -0.5])
BOUNDS = st.sampled_from([0.0, 0.5, 1.0, 3.0])


@st.composite
def sparse_lps(draw):
    """Sparse LPs of up to 12 columns and 8 rows, some of them unbounded
    when `upper` is None."""
    n = draw(st.integers(1, 12))
    r = draw(st.integers(1, 8))
    c = np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0, 2.0, 0.3]),
                               min_size=n, max_size=n)))
    D = np.array(draw(st.lists(st.lists(SPARSE, min_size=n, max_size=n),
                               min_size=r, max_size=r)))
    f = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 1.0, 1.5]),
                               min_size=r, max_size=r)))
    upper = draw(st.none() | BOUNDS | st.lists(BOUNDS, min_size=n, max_size=n))
    return c, D, f, upper


@st.composite
def hypergraph_lps(draw):
    """Matching LPs of random hypergraphs: 0/1 rows, unit right-hand
    sides and many equal weights, so ratio ties and degenerate pivots
    are common."""
    m = draw(st.integers(1, 10))
    edges = draw(st.lists(
        st.tuples(st.lists(st.integers(0, m - 1), min_size=1,
                           max_size=min(m, 4), unique=True),
                  st.sampled_from([1.0, 1.0, 2.0, 0.5])),
        min_size=1, max_size=20))
    inst = hypergraph_lp_instance(make_hypergraph(m, edges))
    c, D, f = build_relaxation(inst, strengthen=False)
    upper = draw(st.sampled_from([1.0, None]) |
                 st.lists(BOUNDS, min_size=len(c), max_size=len(c)))
    return c, D, f, upper


BEALE = ([0.75, -150.0, 1.0 / 50.0, -6.0],
         [[0.25, -60.0, -1.0 / 25.0, 9.0], [0.5, -90.0, -1.0 / 50.0, 3.0],
          [0.0, 0.0, 1.0, 0.0]],
         [0.0, 0.0, 1.0], None)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(lps() | sparse_lps() | hypergraph_lps())
@hypothesis.example(BEALE)
def test_simplex_matches_the_full_row_loop_byte_for_byte(lp):
    c, D, f, upper = lp
    assert outcome(simplex_maximize, c, D, f, upper) == outcome(
        reference_simplex, c, D, f, upper)

"""The simplex against brute-force vertex enumeration on small random
LPs (hypothesis).  Zeros in the right-hand side make the origin a
degenerate vertex, where largest-coefficient pricing hands over to
Bland's rule; `upper` is absent, one bound for all, or one per variable.
"""

import numpy as np
import pytest

from sparsepack.lp import simplex_maximize
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

"""Property tests of the supported W1 distance over generated measure pairs.

The distance is the dual norm of m1 - m2 over 1-Lipschitz functions that
vanish at 0 and 1, so it is symmetric, satisfies the triangle inequality and
is positively homogeneous; an affine blow-up of a dyadic cell I scales it by
|I|.  Each side is a sum of a few dozen closed-form segment integrals of
CDFs of mass at most 4, so the two sides of an identity may differ by
roundoff only: TOL per unit of the masses involved.
"""

import numpy as np
import pytest

from sqfnlab.measure import Measure, blowup, cdf_difference, scale
from sqfnlab.transport import w1_rows, w1_supported

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

TOL = 1e-12
SETTINGS = hypothesis.settings(max_examples=40, derandomize=True,
                               deadline=None, database=None)

_weights = st.floats(0.05, 1.0)


@st.composite
def measures(draw):
    """Atoms anywhere in [0, 1] plus a histogram on 2^n equal cells, one
    part possibly empty, scaled to a total mass in [1/4, 4]."""
    atoms = draw(st.lists(st.tuples(st.floats(0.0, 1.0), _weights),
                          max_size=6))
    n = draw(st.sampled_from([0, 1, 2, 4, 8, 16] if atoms else [1, 2, 4, 8]))
    cells = draw(st.lists(_weights, min_size=n, max_size=n))
    edges = np.arange(n + 1) / max(n, 1)
    m = Measure.from_arrays([x for x, _ in atoms], [w for _, w in atoms],
                            edges[:-1], edges[1:], cells)
    return scale(m, draw(st.floats(0.25, 4.0)) / m.total)


def _w1(m1, m2):
    return w1_supported(m1, m2).value


def _local_w1(m1, m2, a, b):
    """min_c of int_a^b |G - c| dx: the graph of G = F1 - F2 cut to [a, b]
    and sent through the kernel as one row."""
    x0, x1, g0, g1 = cdf_difference(m1, m2)
    keep = (x1 > a) & (x0 < b)
    x0, x1, g0, g1 = x0[keep], x1[keep], g0[keep], g1[keep]
    slope = (g1 - g0) / (x1 - x0)
    lo, hi = np.maximum(x0, a), np.minimum(x1, b)
    g0, g1 = (np.where(lo == x0, g0, g0 + slope * (lo - x0)),
              np.where(hi == x1, g1, g0 + slope * (hi - x0)))
    return float(w1_rows(lo[None], hi[None], g0[None], g1[None])[1][0])


@SETTINGS
@hypothesis.given(measures(), measures())
def test_symmetric_and_nonnegative(m1, m2):
    d = _w1(m1, m2)
    assert d >= 0.0
    assert abs(d - _w1(m2, m1)) <= TOL * (m1.total + m2.total)


@SETTINGS
@hypothesis.given(measures(), measures(), measures())
def test_triangle_inequality(m1, m2, m3):
    slack = TOL * (m1.total + 2 * m2.total + m3.total)
    assert _w1(m1, m3) <= _w1(m1, m2) + _w1(m2, m3) + slack


@SETTINGS
@hypothesis.given(measures(), measures(), st.floats(0.125, 8.0))
def test_positive_homogeneity(m1, m2, t):
    scaled = _w1(scale(m1, t), scale(m2, t))
    assert abs(scaled - t * _w1(m1, m2)) <= TOL * t * (m1.total + m2.total)


@SETTINGS
@hypothesis.given(measures(), measures(), st.integers(1, 5), st.data())
def test_affine_blowup_scales_by_the_cell_length(m1, m2, j, data):
    # test functions on I = [a, b) vanishing at a and b are |I| phi((x-a)/|I|)
    # with phi admissible on [0, 1], so W_I(m1, m2) = |I| W(m1_I, m2_I)
    k = data.draw(st.integers(0, (1 << j) - 1))
    a, b = k / (1 << j), (k + 1) / (1 << j)
    local = _local_w1(m1, m2, a, b)
    blown = _w1(blowup(m1, a, b), blowup(m2, a, b))
    assert abs(local - (b - a) * blown) <= TOL * (m1.total + m2.total)

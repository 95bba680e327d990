import numpy as np
import pytest

from sqfnlab.cli import _random_measure
from sqfnlab.measure import (
    ZERO,
    Measure,
    _histogram,
    cdf_difference,
    cdf_left_values,
    generate,
)
from sqfnlab.transport import (
    _MIDS,
    _STACK,
    _abs_integral,
    _bisect,
    _grid_cdf,
    w1_oracle,
    w1_rows,
    w1_supported,
    w1_unrestricted,
    w1_values,
)


def test_endpoint_deltas_split():
    d0 = Measure.make(atoms=[(0.0, 1.0)])
    d1 = Measure.make(atoms=[(1.0, 1.0)])
    assert w1_supported(d0, d1).value == 0.0
    assert w1_unrestricted(d0, d1).value == 1.0


def test_unrestricted_needs_equal_mass():
    m1 = Measure.make(atoms=[(0.3, 1.0)])
    m2 = Measure.make(atoms=[(0.7, 0.5)])
    with pytest.raises(ValueError):
        w1_unrestricted(m1, m2)
    # the supported variant accepts the same pair
    assert w1_supported(m1, m2).value > 0.0


def test_lebesgue_vs_center_atom():
    leb = generate({"type": "lebesgue"})
    d = Measure.make(atoms=[(0.5, 1.0)])
    assert w1_unrestricted(leb, d).value == pytest.approx(0.25, abs=1e-15)


def test_translated_atoms_supported_distance():
    # both atoms interior: transport cannot leak through the endpoints,
    # so the supported and unrestricted variants agree
    m1 = Measure.make(atoms=[(0.3, 1.0)])
    m2 = Measure.make(atoms=[(0.45, 1.0)])
    assert w1_supported(m1, m2).value == pytest.approx(0.15, abs=1e-14)
    assert w1_unrestricted(m1, m2).value == pytest.approx(0.15, abs=1e-14)


def _agreeing_histograms(rng):
    """Two histograms on one dyadic grid that differ on two cells only: some
    of one cell's mass moves to the other.  The masses are multiples of
    2^-10, so every CDF value is exact and G = 0 exactly off the cells from
    the first of the two to the second."""
    n = 1 << int(rng.integers(1, 6))
    m = rng.integers(1, 64, n)
    w = m.copy()
    i, j = rng.choice(n, 2, replace=False)
    move = rng.integers(0, m[i] + 1)
    w[i] -= move
    w[j] += move
    return tuple(Measure.make(pieces=[(k / n, (k + 1) / n, x / 1024)
                                      for k, x in enumerate(v.tolist())])
                 for v in (m, w))


def _rounded_agreeing_histograms(rng):
    """Two histograms of 2 to 32 cells that differ on two cells only, with
    float masses: off those cells the CDFs agree only up to rounding, so
    G - c takes rounding-level signs, and flat stretches of G rounding-level
    slopes, over whole runs of segments."""
    n = int(rng.integers(2, 33))
    m = rng.uniform(0.05, 1.0, n)
    m /= m.sum()
    w = m.copy()
    i, j = rng.choice(n, 2, replace=False)
    move = rng.uniform(0.0, m[i])
    w[i] -= move
    w[j] += move
    return tuple(Measure.make(pieces=[(k / n, (k + 1) / n, float(x))
                                      for k, x in enumerate(v)])
                 for v in (m, w))


def test_witness_is_admissible_and_attains_value():
    from sqfnlab.measure import integrate
    rng = np.random.default_rng(3)
    pairs = [(_random_measure(rng), _random_measure(rng)) for _ in range(25)]
    # pairs equal on some cells, where G = c on a set of positive length,
    # exactly or up to rounding, and a depth-12 cascade against Lebesgue
    # (4,096 segments)
    pairs += [_agreeing_histograms(rng) for _ in range(40)]
    pairs += [_rounded_agreeing_histograms(rng) for _ in range(500)]
    pairs.append((generate({"type": "cascade", "p": 0.7, "depth": 12}),
                  generate({"type": "lebesgue"})))
    level_sets = 0
    for m1, m2 in pairs:
        res = w1_supported(m1, m2, want_witness=True)
        psi = res.witness
        assert abs(psi(0.0)) <= 1e-12 and abs(psi(1.0)) <= 1e-12
        assert psi.lipschitz_constant() <= 1.0 + 1e-9
        pairing = integrate(m1, psi) - integrate(m2, psi)
        assert pairing == pytest.approx(res.value, abs=1e-10)
        _, _, g0, g1 = cdf_difference(m1, m2)
        c = res.optimal_shift
        level_sets += bool(np.any((g0 == c) & (g1 == c)))
    assert psi.breakpoints.size > 4096 and level_sets >= 10


def test_oracle_agreement_sweep():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        m1, m2 = _random_measure(rng), _random_measure(rng)
        got = w1_supported(m1, m2).value
        ref = w1_oracle(m1, m2)
        worst = max(worst, abs(got - ref))
    assert worst <= 2.0 ** -12


def test_value_is_symmetric_and_nonnegative():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m1, m2 = _random_measure(rng), _random_measure(rng)
        v12 = w1_supported(m1, m2).value
        v21 = w1_supported(m2, m1).value
        assert v12 >= 0.0
        assert v12 == pytest.approx(v21, abs=1e-12)


def test_identical_measures_give_zero():
    m = generate({"type": "cascade", "p": 0.6, "depth": 8})
    assert w1_supported(m, m).value == 0.0
    assert w1_unrestricted(m, m).value == 0.0


def _value_median(x0, x1, g0, g1):
    """Weighted median of the value distribution of the segment graph.

    Each segment contributes its length as weight, spread uniformly between
    its endpoint values (a point mass when flat).  Any c with
    weight{G <= c} >= total/2 and weight{G >= c} >= total/2 minimizes
    int |G - c|; ties are broken by the midpoint of the median interval.
    """
    L = x1 - x0
    total = L.sum()
    half = total / 2.0
    lo = np.minimum(g0, g1)
    hi = np.maximum(g0, g1)
    span = hi - lo
    flat = span == 0.0
    vals = np.unique(np.concatenate([lo, hi]))
    if vals.size == 1:
        return float(vals[0])
    tol = 1e-12 * max(total, 1.0)

    # event sweep: point masses at flat-segment values, plus a piecewise
    # constant density from sloped segments, accumulated over the sorted
    # candidate values in one pass
    point = np.zeros(vals.size)
    if np.any(flat):
        np.add.at(point, np.searchsorted(vals, lo[flat]), L[flat])
    dens = np.zeros(vals.size)
    if np.any(~flat):
        d = L[~flat] / span[~flat]
        np.add.at(dens, np.searchsorted(vals, lo[~flat]), d)
        np.add.at(dens, np.searchsorted(vals, hi[~flat]), -d)
    dens_cum = np.cumsum(dens)
    slope_mass = np.concatenate(
        [[0.0], np.cumsum(dens_cum[:-1] * np.diff(vals))])
    wle = slope_mass + np.cumsum(point)
    wlt = wle - point

    # lower end: smallest c with weight{G <= c} >= half
    i = int(np.searchsorted(wle, half - tol))
    i = min(i, vals.size - 1)
    c_lo = vals[i]
    if i > 0 and wle[i - 1] < half - tol:
        # between vals[i-1] and vals[i] the weight grows linearly from
        # wle[i-1] to wlt[i]; the quantile may sit strictly inside
        rise = wlt[i] - wle[i - 1]
        if rise > tol and wlt[i] >= half - tol:
            c_lo = vals[i - 1] + (half - wle[i - 1]) / rise * (vals[i] - vals[i - 1])
            c_lo = min(c_lo, vals[i])

    # upper end: largest c with weight{G < c} <= half
    j = int(np.searchsorted(wlt, half + tol, side="right")) - 1
    j = max(j, 0)
    c_hi = vals[j]
    if j + 1 < vals.size:
        rise = wlt[j + 1] - wle[j]
        if rise > tol and wle[j] < half - tol:
            c_hi = vals[j] + (half - wle[j]) / rise * (vals[j + 1] - vals[j])
            c_hi = min(c_hi, vals[j + 1])
        elif rise <= tol and wle[j] <= half + tol and wlt[j + 1] <= half + tol:
            c_hi = vals[j + 1]
    c_hi = max(c_hi, c_lo)
    return float(0.5 * (c_lo + c_hi))


def _reference(graph):
    """(c*, value) of one graph by the scalar median above."""
    c = _value_median(*graph)
    return c, float(_abs_integral(*graph, c))


def test_w1_rows_lockstep_with_w1_supported():
    # one row at a time, then every segment count's rows stacked in one
    # call, against the scalar median
    rng = np.random.default_rng(12)
    by_length = {}
    for _ in range(1000):
        m1, m2 = _random_measure(rng), _random_measure(rng)
        graph = cdf_difference(m1, m2)
        want = _reference(graph)
        got = w1_supported(m1, m2)
        assert (got.optimal_shift, got.value) == want
        c, value = w1_rows(*(v[None] for v in graph))
        assert (c[0], value[0]) == want
        by_length.setdefault(graph[0].size, []).append((graph, want))
    stacked = 0
    for rows in by_length.values():
        c, value = w1_rows(*(np.stack(v) for v in zip(*(g for g, _ in rows))))
        assert c.tolist() == [w[0] for _, w in rows]
        assert value.tolist() == [w[1] for _, w in rows]
        stacked += len(rows) > 1
    assert stacked > 10


def test_w1_values_lockstep_with_w1_supported():
    # segment counts mixed in input order, one of them held by one graph,
    # and one count held by more graphs than one stack takes
    rng = np.random.default_rng(16)
    pairs = [(_random_measure(rng), _random_measure(rng)) for _ in range(300)]
    pairs.append((Measure.make(atoms=[(k / 200, 0.005) for k in range(200)]),
                  generate({"type": "lebesgue"})))
    pairs += [(_histogram(rng.uniform(0.05, 1.0, 64)),
               generate({"type": "lebesgue"})) for _ in range(200)]
    graphs = [cdf_difference(m1, m2) for m1, m2 in pairs]
    counts = [g[0].size for g in graphs]
    assert counts.count(counts[300]) == 1 and len(set(counts)) > 10
    assert counts.count(64) * 64 > _STACK
    got = w1_values(graphs)
    want = [_reference(g) for g in graphs]
    assert got.tolist() == [w[1] for w in want]
    for (m1, m2), w in zip(pairs, want):
        res = w1_supported(m1, m2)
        assert (res.optimal_shift, res.value) == w
    assert w1_values([]).tolist() == []


def _lp_w1(m1, m2):
    """The supported distance of two atomic measures as a linear program.

    Maximise sum psi(t_i) d_i over the values psi(t_i) at the sorted atom
    positions plus 0 and 1, where d_i is m1's minus m2's mass at t_i,
    subject to |psi_{i+1} - psi_i| <= t_{i+1} - t_i and psi(0) = psi(1) = 0.
    """
    linprog = pytest.importorskip("scipy.optimize").linprog
    t = np.unique(np.concatenate([[0.0, 1.0], m1.atom_x, m2.atom_x]))
    d = np.zeros(t.size)
    np.add.at(d, np.searchsorted(t, m1.atom_x), m1.atom_w)
    np.subtract.at(d, np.searchsorted(t, m2.atom_x), m2.atom_w)
    step = np.diff(np.eye(t.size), axis=0)  # row i: psi_{i+1} - psi_i
    gaps = np.diff(t)
    bounds = [(0.0, 0.0)] + [(None, None)] * (t.size - 2) + [(0.0, 0.0)]
    res = linprog(-d, A_ub=np.vstack([step, -step]),
                  b_ub=np.concatenate([gaps, gaps]), bounds=bounds,
                  method="highs")
    assert res.status == 0, res.message
    return -res.fun


def test_atomic_pairs_match_an_exact_linear_program():
    # unequal total masses, and atoms at 0 and 1 in a third of the pairs
    rng = np.random.default_rng(17)
    pairs = []
    for i in range(300):
        sides = []
        for _ in range(2):
            xs = rng.uniform(0.0, 1.0, int(rng.integers(1, 12)))
            if i % 3 == 0:
                xs[:2] = rng.choice([0.0, 1.0], min(2, xs.size))
            ws = rng.uniform(0.05, 1.0, xs.size) * rng.uniform(0.2, 2.0)
            sides.append(Measure.make(atoms=list(zip(xs, ws))))
        pairs.append(tuple(sides))
    want = np.array([_lp_w1(m1, m2) for m1, m2 in pairs])
    closed = np.array([w1_supported(m1, m2).value for m1, m2 in pairs])
    batched = w1_values([cdf_difference(m1, m2) for m1, m2 in pairs])
    assert np.max(np.abs(closed - want)) <= 1e-12
    assert np.max(np.abs(batched - want)) <= 1e-12


def test_row_bisection_follows_searchsorted_where_weights_dip():
    # sorted integers with dips of 1e-3; rows padded past their length and
    # searched one at a time and 50 at once
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = rng.integers(1, 30, 50)
        arrs = [np.sort(rng.integers(0, 10, m)) - rng.choice([0, 0, 1e-3], m)
                for m in n.tolist()]
        keys = rng.integers(-1, 11, 50) + rng.choice([0.0, 0.5], 50)
        padded = np.full((50, 34), 99.0)
        for r, arr in enumerate(arrs):
            padded[r, :arr.size] = arr
        for side in ("left", "right"):
            want = [np.searchsorted(arr, key, side=side)
                    for arr, key in zip(arrs, keys)]
            got = _bisect(padded, n, keys, right=side == "right")
            assert got.tolist() == want
            assert [_bisect(padded[r:r + 1], n[r:r + 1], keys[r:r + 1],
                            right=side == "right")[0]
                    for r in range(50)] == want


def _mixed_measure(rng):
    """A random measure with both atoms and pieces."""
    cells = rng.uniform(0.05, 1.0, 8)
    atoms = rng.uniform(0.0, 1.0, int(rng.integers(1, 6)))
    return Measure.make(
        atoms=[(float(x), 0.1) for x in atoms],
        pieces=[(k / 8, (k + 1) / 8, float(w)) for k, w in enumerate(cells)])


def test_grid_cdf_lockstep_with_cdf_left_values():
    rng = np.random.default_rng(14)
    mids = _MIDS
    measures = [_random_measure(rng) for _ in range(2000)]
    measures += [_mixed_measure(rng) for _ in range(100)]
    measures += [
        Measure.make(atoms=[(0.3, 0.2), (mids[7], 0.1)],
                     pieces=[(0.0, 0.5, 0.4), (0.5, 1.0, 0.3)]),
        Measure.make(atoms=[(mids[0], 0.5), (mids[9], 0.2), (mids[9], 0.3)]),
        Measure.make(atoms=[(0.0, 0.25), (1.0, 0.75)]),
        Measure.make(pieces=[(0.25, 0.75, 1.0)]),
        # pieces overlapping by roundoff around a midpoint: np.interp's path
        Measure.make(pieces=[(0.0, mids[50] + 4e-16, 0.5),
                             (mids[50] - 4e-16, 1.0, 0.5)]),
        ZERO,
    ]
    for m in measures:
        assert np.array_equal(_grid_cdf(m), cdf_left_values(m, mids)), m


def _oracle_sampled(m1, m2):
    # the oracle as first written: both CDFs sampled point by point
    h = 1.0 / (1 << 14)
    mids = (np.arange(1 << 14) + 0.5) * h
    G = cdf_left_values(m1, mids) - cdf_left_values(m2, mids)
    c = float(np.median(G))
    return float(np.sum(np.abs(G - c)) * h)


def test_oracle_equals_the_sampled_formula():
    rng = np.random.default_rng(15)
    for i in range(1000):
        pick = _mixed_measure if i % 4 == 0 else _random_measure
        m1, m2 = pick(rng), _random_measure(rng)
        assert w1_oracle(m1, m2) == _oracle_sampled(m1, m2)


def _median_positions(m1, m2):
    """The two middle values of the sorted grid samples of G."""
    G = np.sort(cdf_left_values(m1, _MIDS) - cdf_left_values(m2, _MIDS))
    return G[(1 << 13) - 1], G[1 << 13]


def test_oracle_median_edge_cases():
    mixed = _mixed_measure(np.random.default_rng(16))
    hist = _histogram(np.array([0.1, 0.4, 0.2, 0.3]))
    atoms = Measure.make(atoms=[(0.2, 0.5), (_MIDS[9000], 0.25), (1.0, 0.25)])
    a = [Measure.make(atoms=[(x, 1.0)]) for x in (0.1, 0.25, 0.75, 0.8)]
    # G = 1 on [0.1, 0.8): a flat run across both middle positions
    lo, hi = _median_positions(a[0], a[3])
    assert lo == hi == 1.0
    # G = 1 on [0.25, 0.75): the middle values are 0 and 1, so c = 0.5
    lo, hi = _median_positions(a[1], a[2])
    assert (lo, hi) == (0.0, 1.0)
    assert w1_oracle(a[1], a[2]) == _oracle_sampled(a[1], a[2]) == 0.5
    pairs = [(mixed, mixed), (hist, hist), (a[0], a[3]), (atoms, ZERO),
             (ZERO, atoms), (hist, ZERO), (ZERO, hist), (ZERO, ZERO)]
    for m1, m2 in pairs:
        assert w1_oracle(m1, m2) == _oracle_sampled(m1, m2), (m1, m2)
    assert w1_oracle(mixed, mixed) == 0.0


def test_from_arrays_drops_an_all_zero_part():
    # zero-weight atoms and no pieces, zero-mass pieces and no atoms: each
    # part filters down to nothing, as for the empty measure
    for m in (Measure.from_arrays([0.7, 0.2], [0.0, 0.0], [], [], []),
              Measure.from_arrays([], [], [0.5, 0.0], [1.0, 0.5], [0.0, 0.0]),
              ZERO):
        for arr in (m.atom_x, m.atom_w, m.piece_l, m.piece_r, m.piece_m):
            assert arr.shape == (0,) and arr.dtype == float
            assert not arr.flags.writeable
        assert m.total == 0.0
        assert np.array_equal(_grid_cdf(m), np.zeros(_MIDS.size))
    # a zero entry next to nonzero ones is dropped, the rest sorted
    m = Measure.from_arrays([0.7, 0.2, 0.4], [0.5, 0.0, 0.5],
                            [0.5, 0.0], [1.0, 0.5], [0.0, 1.0])
    assert m.atom_x.tolist() == [0.4, 0.7] and m.atom_w.tolist() == [0.5, 0.5]
    assert (m.piece_l.tolist(), m.piece_r.tolist(), m.piece_m.tolist()) == \
        ([0.0], [0.5], [1.0])

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


def test_witness_is_admissible_and_attains_value():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m1, m2 = _random_measure(rng), _random_measure(rng)
        res = w1_supported(m1, m2, want_witness=True)
        psi = res.witness
        assert abs(psi(0.0)) <= 1e-12 and abs(psi(1.0)) <= 1e-12
        assert psi.lipschitz_constant() <= 1.0 + 1e-9
        from sqfnlab.measure import integrate
        pairing = integrate(m1, psi) - integrate(m2, psi)
        assert pairing == pytest.approx(res.value, abs=1e-10)


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

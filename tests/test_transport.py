import numpy as np
import pytest

from sqfnlab import transport
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
    _bisect,
    _grid_cdf,
    _middle_pair,
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


def _abs_integral_by_segment(x0, x1, g0, g1, c):
    """int |G - c| dx, one segment at a time in Python floats, summed as the
    kernel sums a row: with a = g0 - c and b = g1 - c, a segment whose ends
    share a sign (a * b >= 0) gives L (|a| + |b|) / 2, any other
    L (a^2 + b^2) / (2 |b - a|)."""
    parts = []
    for left, right, u, v in zip(*(w.tolist() for w in (x0, x1, g0, g1))):
        L, a, b = right - left, u - c, v - c
        if a * b >= 0.0:
            parts.append(L * (abs(a) + abs(b)) / 2.0)
        else:
            span = abs(b - a)
            parts.append(L * (a * a + b * b) / (2.0 * (span if span > 0
                                                       else 1.0)))
    return float(np.array(parts).sum())


def _reference(graph):
    """(c*, value) of one graph by the scalar median and integral above."""
    c = _value_median(*graph)
    return c, _abs_integral_by_segment(*graph, c)


def test_w1_rows_lockstep_with_w1_supported():
    # one row at a time, then every segment count's rows stacked in one
    # call, against the scalar median and integral; the unrestricted value
    # of equal masses against the integral at c = 0
    rng = np.random.default_rng(12)
    by_length, unrestricted = {}, 0
    for _ in range(1000):
        m1, m2 = _random_measure(rng), _random_measure(rng)
        graph = cdf_difference(m1, m2)
        want = _reference(graph)
        got = w1_supported(m1, m2)
        assert (got.optimal_shift, got.value) == want
        c, value = w1_rows(*(v[None] for v in graph))
        assert (c[0], value[0]) == want
        if abs(m1.total - m2.total) <= 1e-9:
            unrestricted += 1
            assert w1_unrestricted(m1, m2).value == _abs_integral_by_segment(
                *graph, 0.0)
        by_length.setdefault(graph[0].size, []).append((graph, want))
    stacked = 0
    for rows in by_length.values():
        c, value = w1_rows(*(np.stack(v) for v in zip(*(g for g, _ in rows))))
        assert c.tolist() == [w[0] for _, w in rows]
        assert value.tolist() == [w[1] for _, w in rows]
        stacked += len(rows) > 1
    assert stacked > 10 and unrestricted > 500


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


def _node_widths(monkeypatch):
    """The node count of each _row_values call from here on."""
    widths = []
    rank = transport._row_values

    def spy(g0, g1, joined):
        widths.append(g0.shape[1] + (1 if joined else g1.shape[1]))
        return rank(g0, g1, joined)

    monkeypatch.setattr(transport, "_row_values", spy)
    return widths


def _stack(x, nodes):
    """A stack of continuous graphs: row r has breakpoints x[r] and takes
    the values nodes[r] there, g1[:, :-1] being g0[:, 1:] bit for bit."""
    nodes = np.atleast_2d(nodes)
    x = np.broadcast_to(x, nodes.shape)
    return x[:, :-1], x[:, 1:], nodes[:, :-1], nodes[:, 1:]


def _with_jump(stack):
    """The stack and one more row whose G jumps at each inner node: all its
    rows take the 2S layout."""
    x0, x1, g0, g1 = stack
    return (np.vstack([x0, x0[:1]]), np.vstack([x1, x1[:1]]),
            np.vstack([g0, g0[:1]]), np.vstack([g1, g1[:1] + 1.0]))


def _continuous_stacks():
    """(name, stack) of continuous stacks with flat spans, spans at G's
    rounding level, tied values, signed zeros, one segment, histogram pairs
    and a 2^16-segment cascade row."""
    rng = np.random.default_rng(22)
    v = 0.1 + 0.2  # a CDF difference off by rounding
    ulp = np.spacing(v)
    flat = np.array([[0.0, 0.25, 0.25, 0.25, 0.5, 0.5, 0.0],
                     [0.0, -0.5, -0.5, 0.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    tilted = np.array([[0.0, v, v + ulp, v - ulp, v + 2 * ulp, v, 0.0],
                       [0.0, v, v + 3 * ulp, v + 9 * ulp, v, -v, 0.0]])
    tied = rng.choice([-0.25, 0.0, 0.125, 0.25], (16, 9))
    tied[:, [0, -1]] = 0.0
    grid = np.array([np.append(np.sort(rng.permutation(64)[:8]), 64) / 64
                     for _ in range(16)])
    # zeros of either sign, -0.0 where G sits at 0 for most of the length
    signed = np.array([[-0.0, -0.0, 1.0], [0.0, -0.0, 1.0], [-0.0, 0.0, 1.0],
                       [0.5, -0.0, 0.0], [-0.0, -0.0, -0.0]])
    x3 = np.array([0.0, 0.75, 1.0])
    casc = generate({"type": "cascade", "p": 0.7, "depth": 16})
    lebesgue = generate({"type": "lebesgue"})
    x0, _, g0, g1 = cdf_difference(casc, lebesgue)
    assert x0.size == 1 << 16 and np.array_equal(g1[:-1], g0[1:])
    hists = [cdf_difference(_histogram(rng.uniform(0.05, 1.0, 32)),
                            _histogram(rng.uniform(0.05, 1.0, 32)))
             for _ in range(40)]
    return [
        ("flat spans", _stack(np.linspace(0.0, 1.0, 7), flat)),
        ("rounding-level spans", _stack(np.linspace(0.0, 1.0, 7), tilted)),
        ("tied values", _stack(grid, tied)),
        ("signed zeros", _stack(x3, signed)),
        ("one segment", _stack([[0.0, 1.0]] * 3,
                               [[0.0, 0.5], [-0.0, 0.0], [0.25, 0.25]])),
        ("histogram pairs", tuple(np.stack(v) for v in zip(*hists))),
        ("2^16-segment cascade row",
         _stack(np.append(x0, 1.0), np.append(g0, g1[-1]))),
    ]


def test_continuous_stacks_rank_their_nodes_with_the_same_bits(monkeypatch):
    # S + 1 nodes against the 2S layout that a jump row forces on the same
    # rows (a row's result does not depend on the rows stacked with it)
    widths = _node_widths(monkeypatch)
    for name, stack in _continuous_stacks():
        k, S = stack[0].shape
        got = w1_rows(*stack)
        want = [v[:k] for v in w1_rows(*_with_jump(stack))]
        assert widths[-2:] == [S + 1, 2 * S], name
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes(), name
    # the signed zeros give a c* of -0.0 where G is 0 over 3/4 of [0, 1]
    c, _ = w1_rows(*_stack([0.0, 0.75, 1.0], [-0.0, -0.0, 1.0]))
    assert np.signbit(c).tolist() == [True]


def test_a_jump_in_the_stack_takes_two_nodes_per_segment(monkeypatch):
    # one row with a jump sends its whole stack through the 2S layout; a
    # -0.0 meeting +0.0 is a jump, as the two layouts would give this row
    # c* of -0.0 and +0.0
    widths = _node_widths(monkeypatch)
    x = np.array([0.0, 0.75, 1.0])
    x0, x1 = _stack(x, np.zeros((2, 3)))[:2]
    g0, g1 = np.array([[0.0, 0.0], [-0.0, 0.0]]), np.array([[0.0, 0.0],
                                                            [-0.0, 1.0]])
    c, value = w1_rows(x0, x1, g0, g1)
    assert widths == [4]
    assert np.signbit(c).tolist() == [False, True]
    assert value.tolist() == [0.0, 0.125]
    graph = cdf_difference(Measure.make(atoms=[(0.3, 0.5), (0.6, 0.5)]),
                           generate({"type": "lebesgue"}))
    widths.clear()
    w1_rows(*(v[None] for v in graph))
    assert widths == [2 * graph[0].size]


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


def _partition_pair(G):
    h = G.size // 2
    W = np.partition(G, h - 1)
    return W[h - 1], W[h:].min()


def _bits(pair):
    return np.array(pair).view(np.int64).tolist()


def _spied_middle_pair(monkeypatch, G):
    """_middle_pair(G) and, for each array it partitioned, whether that
    array was G itself: the whole partition of a miss."""
    whole = []

    def spy(a, kth):
        whole.append(a is G)
        return partition(a, kth)

    partition = np.partition
    with monkeypatch.context() as mp:
        mp.setattr(np, "partition", spy)
        return _middle_pair(G), whole


def _with_sample(sample, rng):
    """A permutation of 0, ..., 2^14 - 1 whose every 64th value, from the
    first, runs through sample in a random order."""
    G = np.empty(_MIDS.size)
    G[::64] = rng.permutation(sample)
    rest = np.setdiff1d(np.arange(_MIDS.size, dtype=float), sample)
    G[np.arange(G.size) % 64 != 0] = rng.permutation(rest)
    return G


def test_middle_pair_takes_the_bracket_or_the_whole(monkeypatch):
    rng = np.random.default_rng(17)
    n, h = _MIDS.size, _MIDS.size // 2
    low, high = np.arange(120.0), 16000.0 + np.arange(135.0)
    cases = [
        # every 64th value 1 and the rest 0: the bracket [1, 1] misses
        (np.where(np.arange(n) % 64 == 0, 1.0, 0.0), False),
        # a flat run across both middle positions
        (rng.permutation(np.r_[np.arange(7000.0), np.full(2000, 0.25) + 7e3,
                               np.arange(7384.0) + 1e4]), True),
        # all equal, ZERO against ZERO: every value is bracketed
        (_grid_cdf(ZERO) - _grid_cdf(ZERO), True),
        # +0.0 and -0.0 at both middle positions
        (rng.permutation(np.r_[np.full(4192, -1.0), np.full(4000, -0.0),
                               np.full(4000, 0.0), np.full(4192, 1.0)]), True),
        # lo is the (h-1)-th value, so k = 0; lo the h-th: a miss
        (_with_sample(np.r_[low, h - 1.0, high], rng), True),
        (_with_sample(np.r_[low, h, high], rng), False),
        # hi is the h-th value; hi the (h-1)-th: a miss
        (_with_sample(np.r_[np.arange(135.0), h, high[:120]], rng), True),
        (_with_sample(np.r_[np.arange(135.0), h - 1.0, high[:120]], rng),
         False),
    ]
    for G, bracketed in cases:
        got, whole = _spied_middle_pair(monkeypatch, G)
        want = _partition_pair(G)
        assert got == want
        if 0.0 not in want:
            assert _bits(got) == _bits(want)
        assert whole == [not bracketed]
        c = float((got[0] + got[1]) / 2)
        assert np.abs(G - c).sum() == np.abs(G - float(sum(want) / 2)).sum()


def test_random_pairs_never_take_the_whole_partition(monkeypatch):
    rng = np.random.default_rng(18)
    for _ in range(1000):
        m1, m2 = _random_measure(rng), _random_measure(rng)
        G = _grid_cdf(m1) - _grid_cdf(m2)
        got, whole = _spied_middle_pair(monkeypatch, G)
        assert whole == [False], (m1, m2)
        assert _bits(got) == _bits(_partition_pair(G))
        assert w1_oracle(m1, m2) == _oracle_sampled(m1, m2)


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

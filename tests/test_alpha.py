import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

import sqfnlab.alpha as alpha_module
import sqfnlab.transport as transport_module
from sqfnlab.alpha import (
    AlphaTable,
    Ball,
    _interval_bounds,
    alpha,
    alpha_smooth,
    alpha_table,
    epsilon_for_doubling,
    fill_levels,
    smooth_bounds_check,
)
from sqfnlab.cli import _random_measure
from sqfnlab.dyadic import STANDARD, doubling_constant, shifted_systems
from sqfnlab.measure import (
    ZERO,
    Measure,
    blowup,
    cdf_difference,
    generate,
    integrate,
    mass,
    phi_tent,
    scale,
)
from sqfnlab.squarefn import buckley_ratio
from sqfnlab.transport import _STACK, w1_rows, w1_supported
from sqfnlab.tree import stopping_forest


LEB = generate({"type": "lebesgue"})


def test_alpha_example22_exact():
    for n in (3, 8, 12):
        mu = generate({"type": "example22", "n": n})
        assert alpha(mu, LEB, STANDARD.root()) == pytest.approx(
            2.0 ** (-2 * n - 1), abs=1e-15)


def test_alpha_zero_for_identical_and_null():
    casc = generate({"type": "cascade", "p": 0.7, "depth": 10})
    assert alpha(casc, casc, STANDARD.root()) == 0.0
    # zero measure on the interval gives zero by convention
    cantor = generate({"type": "cantor", "depth": 8})
    assert alpha(cantor, LEB, (0.3, 0.7)) >= 0.0
    assert alpha(cantor, cantor, (0.26, 0.74)) == 0.0


def test_alpha_is_scale_invariant_for_cascade():
    # blow-ups of the cascade reproduce the cascade: same alpha at all cells
    # a level-j blow-up of the depth-16 generator is a depth-(16-j) cascade
    casc = generate({"type": "cascade", "p": 0.7, "depth": 16})
    for (j, k) in [(1, 0), (3, 5), (6, 40)]:
        ref = generate({"type": "cascade", "p": 0.7, "depth": 16 - j})
        assert alpha(casc, LEB, STANDARD.interval(j, k)) == pytest.approx(
            alpha(ref, LEB, STANDARD.root()), rel=1e-11)


def test_alpha_smooth_example53_left_half():
    mu = generate({"type": "example53", "eps": 0.01, "role": "mu"})
    nu = generate({"type": "example53", "eps": 0.01, "role": "nu"})
    assert alpha_smooth(mu, nu, (0.0, 0.5, True)) == pytest.approx(
        1.0, abs=1e-12)


def test_alpha_smooth_example53_enclosing_window():
    # over the window [-1, 1] the smooth alpha collapses to ~4 eps
    eps = 0.01
    mu = generate({"type": "example53", "eps": eps, "role": "mu"})
    nu = generate({"type": "example53", "eps": eps, "role": "nu"})
    val = alpha_smooth(mu, nu, (-1.0, 1.0, True))
    assert val == pytest.approx(4.0 * eps, rel=0.05)


def test_smooth_bounds_hold_on_random_sweep():
    rng = np.random.default_rng(2)
    for _ in range(30):
        cells = rng.uniform(0.05, 1.0, 16)
        cells /= cells.sum()
        mu = generate({"type": "histogram", "cells": cells.tolist()})
        rep = smooth_bounds_check(mu, LEB, (0.0, 1.0))
        assert rep.ok


def test_stability_bound_example52():
    # the plain alpha of the enclosing interval is tiny while the inner
    # one is not
    mu = generate({"type": "example52", "n": 6})
    inner = (0.5 - 2.0 ** -6, 0.5 + 2.0 ** -6)
    outer = (0.0, 1.0)
    a_inner = alpha(mu, LEB, inner)
    a_outer = alpha(mu, LEB, outer)
    # plain alpha is unstable: the inner value dwarfs the outer one
    assert a_inner > 10 * a_outer


def test_epsilon_for_doubling_values():
    eps, C = epsilon_for_doubling(2.0)
    assert eps == pytest.approx(1.0 / 128.0)
    assert C == pytest.approx(16.0)
    eps1, C1 = epsilon_for_doubling(1.0)
    assert (eps1, C1) == (1.0 / 16.0, 2.0)
    with pytest.raises(ValueError):
        epsilon_for_doubling(0.5)


def test_small_alpha_forces_comparable_children():
    # randomized sweep of the doubling implication
    rng = np.random.default_rng(4)
    nu_cells = rng.uniform(0.2, 1.0, 16)
    nu_cells /= nu_cells.sum()
    nu = generate({"type": "histogram", "cells": nu_cells.tolist()})
    D = doubling_constant(nu, depth=6).constant
    eps, C = epsilon_for_doubling(D)
    hits = 0
    for _ in range(200):
        pert = nu_cells * rng.uniform(1 - 1e-3, 1 + 1e-3, 16)
        pert /= pert.sum()
        mu = generate({"type": "histogram", "cells": pert.tolist()})
        j = int(rng.integers(0, 3))
        k = int(rng.integers(0, 1 << j))
        I = STANDARD.interval(j, k)
        if alpha(mu, nu, I) < eps:
            hits += 1
            mid = 0.5 * (I.a + I.b)
            small = min(mass(mu, I.a, mid), mass(mu, mid, I.b))
            assert mass(mu, I.a, I.b) <= C * small + 1e-12
    assert hits > 100


def _count_rows(monkeypatch):
    """The row counts of the W1 kernel's calls from alpha and transport."""
    rows = []

    def counted(x0, x1, g0, g1):
        rows.append(x0.shape[0])
        return w1_rows(x0, x1, g0, g1)

    monkeypatch.setattr(alpha_module, "w1_rows", counted)
    monkeypatch.setattr(transport_module, "w1_rows", counted)
    return rows


def _with_atoms(m, xs):
    """m with an atom of weight 0.1 at each x of xs."""
    return Measure.from_arrays(xs, [0.1] * len(xs), m.piece_l, m.piece_r,
                               m.piece_m)


def _entry(mu, nu, I):
    """The entry a fresh table computes for I alone, as a tuple read."""
    a, b, closed = _interval_bounds(I)
    return AlphaTable(mu, nu).entry((a, b, closed))


def test_alpha_table_memoizes(monkeypatch):
    casc = generate({"type": "cascade", "p": 0.7, "depth": 10})
    leb = generate({"type": "lebesgue"})
    table = alpha_table(casc, leb)
    I = STANDARD.interval(2, 1)
    v1 = table.alpha(I)
    n = len(table)
    v2 = table.alpha(I)
    assert v1 == v2 and len(table) == n
    # one table per pair, kept on mu; another nu gets its own
    assert alpha_table(casc, leb) is table
    assert alpha_table(casc, generate({"type": "lebesgue"})) is not table

    # every interval a forest visits is memoized for later readers
    stopping_forest(casc, leb, 1.0 / 128.0, max_depth=8)
    n = len(table)
    alpha(casc, leb, STANDARD.root())
    buckley_ratio(casc, leb, 8, which="alpha")
    assert len(table) == n

    # a plain read of a new non-uniform interval hands one row to the W1
    # kernel and reads no tent mass
    rows = _count_rows(monkeypatch)
    tents = []

    def counted(integral):
        def count(*args):
            tents.append(1)
            return integral(*args)
        return count

    monkeypatch.setattr(alpha_module, "integrate", counted(integrate))
    monkeypatch.setattr(alpha_module, "_integrate_parts",
                        counted(alpha_module._integrate_parts))
    alpha(casc, leb, (0.1, 0.7))
    assert rows == [1] and len(table) == n + 1
    assert tents == []
    monkeypatch.undo()

    # where both measures are uniform, a read is +0.0 with no kernel row: a
    # cell of an unfilled level (an atom at 1/2 sits on its edges), a
    # half-open tuple and a smooth read
    bumps = _with_atoms(generate({"type": "example22", "n": 8}), [0.5])
    fresh = alpha_table(bumps, leb)
    rows = _count_rows(monkeypatch)
    got = [fresh.alpha(STANDARD.interval(3, 1)), fresh.alpha((0.1, 0.3)),
           alpha_smooth(bumps, leb, (0.6, 0.9))]
    assert rows == [] and fresh.level(3) is None and len(fresh) == 3
    assert got == [0.0] * 3 and not np.signbit(got).any()
    monkeypatch.undo()

    # the smooth variant is W1 of the tent-normalized blow-ups
    phi = phi_tent()
    for I in [Ball(0.3, 0.2), Ball(0.5, 0.75), (0.1, 0.7), (0.0, 0.5, True),
              STANDARD.interval(3, 2)]:
        a, b, closed = _interval_bounds(I)
        bu = blowup(casc, a, b, closed_right=closed)
        bv = blowup(leb, a, b, closed_right=closed)
        want = w1_supported(scale(bu, 1.0 / integrate(bu, phi)),
                            scale(bv, 1.0 / integrate(bv, phi))).value
        assert want > 0.0
        assert alpha_smooth(casc, leb, I) == want

    # the tables hold mu weakly, so mu goes with its last reference
    ref = weakref.ref(casc)
    del casc, table
    assert ref() is None


def _graph_reference(mu, nu, a, b, closed, tent):
    """_graph through Measures: cdf_difference of the scaled blow-ups."""
    if alpha_module._uniform_densities(mu, nu, a, b, closed) is not None:
        return None, False
    bu, bv = (blowup(m, a, b, closed_right=closed) for m in (mu, nu))
    norms = [integrate(bm, phi_tent()) if tent else bm.total
             for bm in (bu, bv)]
    null = [bm.piece_l.size == 0 and bool(np.all(
        (bm.atom_x == 0.0) | (bm.atom_x == 1.0))) for bm in (bu, bv)]
    flag = bu.total > 0 and bv.total > 0 and null[0] != null[1]
    return cdf_difference(*(scale(bm, 1.0 / c) if c > 0 else ZERO
                            for bm, c in zip((bu, bv), norms))), flag


def test_graph_equals_the_scaled_blowups():
    # the graph is built from arrays with no Measure between; it is byte
    # for byte the cdf_difference of the scaled blow-ups, with their flag
    measures = {
        "atoms at a, b and 1": Measure.make(
            atoms=[(0.25, 0.2), (0.5, 0.3), (1.0, 0.1), (0.375, 0.4)]),
        # a blow-up keeps the sign of a zero atom
        "atom at -0.0": Measure.make(atoms=[(-0.0, 0.5), (0.75, 0.5)]),
        "two atoms at one x": Measure.make(
            atoms=[(0.3, 0.25), (0.3, 0.25)], pieces=[(0.5, 1.0, 0.5)]),
        "atoms on pieces": Measure.make(
            atoms=[(0.0, 0.1), (0.5, 0.2)],
            pieces=[(0.0, 0.25, 0.3), (0.5, 0.75, 0.4)]),
        # gaps: (0.25, 0.5) and (0.3, 0.3 + 2^-20) hold no mass
        "cantor": generate({"type": "cantor", "depth": 6}),
        "zero-mass cells": generate({"type": "histogram",
                                     "cells": [0.3, 0.0, 0.0, 0.7]}),
        "overlap 1e-15": Measure.make(pieces=[(0.0, 0.5 + 1e-15, 0.5),
                                              (0.5, 1.0, 0.5)]),
        "cascade": generate({"type": "cascade", "p": 0.7, "depth": 6}),
        "lebesgue": LEB,
    }
    shifted = shifted_systems(2)[1]
    intervals = [STANDARD.root(), STANDARD.interval(2, 1),
                 STANDARD.interval(3, 5), shifted.interval(1, 0),
                 shifted.interval(2, 3), (0.25, 0.5), (0.25, 0.5, True),
                 (0.3, 0.3 + 2.0 ** -20), (0.5, 1.0, True), Ball(0.5, 0.25),
                 Ball(0.3, 0.05), Ball(0.9, 0.4), (-0.5, 1.5, True)]
    kinds = set()
    for mu in measures.values():
        for nu in measures.values():
            for I in intervals:
                bounds = _interval_bounds(I)
                for tent in (False, True):
                    got = alpha_module._graph(mu, nu, *bounds, tent=tent)
                    want = _graph_reference(mu, nu, *bounds, tent)
                    assert got[1] == want[1], (I, tent)
                    if want[0] is None:
                        assert got[0] is None, (I, tent)
                        kinds.add("uniform")
                        continue
                    assert [v.tobytes() for v in got[0]] == [
                        v.tobytes() for v in want[0]], (I, tent)
                    kinds.add("flagged" if got[1] else "graph")
    assert kinds == {"uniform", "flagged", "graph"}
    # alpha_smooth reads the tent-normalized graph
    mu = measures["atoms on pieces"]
    for I in [Ball(0.3, 0.2), (0.0, 0.5, True), STANDARD.interval(1, 1)]:
        graph, _ = _graph_reference(mu, LEB, *_interval_bounds(I), True)
        assert alpha_smooth(mu, LEB, I) == transport_module.w1_values(
            [graph])[0]


def test_one_sided_zero_flagging():
    # mu charges the interval, nu charges only the far edge region where
    # the tent vanishes relative to mu: engineered via an atom at the edge
    mu = Measure.make(atoms=[(0.25, 1.0)])
    nu = Measure.make(atoms=[(0.0, 1.0)])
    table = AlphaTable(mu, nu)
    table.entry((0.0, 0.5))
    assert table.flagged() == [(0.0, 0.5, False)]

    # the flag equals a tent-mass reference: atoms at a, at b, at both ends
    # and inside, with and without pieces, on closed and half-open intervals
    measures = [
        Measure.make(atoms=[(0.25, 1.0)]),
        Measure.make(atoms=[(0.5, 1.0)]),
        Measure.make(atoms=[(0.25, 0.5), (0.5, 0.5)]),
        Measure.make(atoms=[(0.375, 1.0)]),
        Measure.make(atoms=[(0.0, 0.5), (1.0, 0.5)]),
        Measure.make(atoms=[(0.25, 0.5)], pieces=[(0.5, 1.0, 0.5)]),
        Measure.make(atoms=[(0.5, 0.5)], pieces=[(0.25, 0.5, 0.5)]),
        LEB,
    ]
    intervals = [(0.25, 0.5), (0.25, 0.5, True), (0.0, 0.25, True),
                 (0.0, 1.0), (0.0, 1.0, True), (0.25, 0.375), (0.5, 1.0),
                 Ball(0.5, 0.25)]
    phi = phi_tent()
    hits = 0
    for mu in measures:
        for nu in measures:
            table = AlphaTable(mu, nu)
            want = []
            for I in intervals:
                table.entry(I)
                a, b, closed = _interval_bounds(I)
                bu = blowup(mu, a, b, closed_right=closed)
                bv = blowup(nu, a, b, closed_right=closed)
                if (bu.total > 0 and bv.total > 0 and (integrate(bu, phi) == 0)
                        != (integrate(bv, phi) == 0)):
                    want.append((a, b, closed))
            assert table.flagged() == want
            hits += len(want)
    assert hits > 0

    # a smooth read flags its interval too
    mu = generate({"type": "example53", "eps": 0.01, "role": "mu"})
    nu = generate({"type": "example53", "eps": 0.01, "role": "nu"})
    alpha_smooth(mu, nu, Ball(0.25, 0.25))
    assert alpha_table(mu, nu).flagged() == [(0.0, 0.5, True)]


def _histogram(cells):
    cells = np.asarray(cells, dtype=float)
    return generate({"type": "histogram", "cells": (cells / cells.sum())
                     .tolist()})


# the example53 atoms sit on dyadic boundaries by construction
@pytest.mark.filterwarnings("ignore::sqfnlab.measure.BoundaryAtomWarning")
def test_level_fill_equals_the_entries():
    # every cell of every level a forest fills is == the per-entry alpha;
    # only the levels with an atom on a cell edge stay per entry
    rng = np.random.default_rng(8)
    depth = 10
    every = set(range(depth + 1))
    fleet = [(_histogram(rng.uniform(0.05, 1.0, 32)),
              _histogram(rng.uniform(0.05, 1.0, 16))) for _ in range(3)]
    # random-histogram-fleet's atomic measures against its 16-cell
    # histograms, drawn as the scenario draws them
    fleet_rng, atomic = np.random.default_rng(0), []
    while len(atomic) < 3:
        m1, m2 = _random_measure(fleet_rng), _histogram(
            fleet_rng.uniform(0.05, 1.0, 16))
        fleet_rng.integers(0, 4)
        if m1.atom_x.size:
            atomic.append((m1, m2))
    cells = np.random.default_rng(9).uniform(0.05, 1.0, (3, 2, 64))
    same_grid = [(_histogram(u[:n]), _histogram(v[:n]))
                 for n, (u, v) in zip((16, 16, 64), cells)]
    mixed = Measure(
        np.array([np.nextafter(0.125, 1.0), 0.3, 0.55]),
        np.array([0.05, 0.2, 0.1]), np.array([0.0, 0.0625, 0.3, 0.5, 0.75]),
        np.array([0.0625, 0.125, 0.3 + 2.0 ** -12, 0.625, 0.875]),
        np.array([0.25, 0.05, 0.1, 0.25, 0.0]), 1.0)
    # pieces ending at 1/3 and 0.7, which are no cell's edges
    thirds = Measure.make(pieces=[(0.0, 1.0 / 3.0, 0.2), (1.0 / 3.0, 0.7, 0.5),
                                  (0.7, 1.0, 0.3)])
    pairs = [
        ("cascade-16", generate({"type": "cascade", "p": 0.7, "depth": 16}),
         LEB, every),  # rows of 2^16 and 2^15 segments: one chunk each
        ("finite-haar", generate({"type": "finite-haar"}), LEB, every),
        ("ac-density 5", generate({"type": "ac-density", "seed": 5}), LEB,
         every),
        ("ac-density 1", generate({"type": "ac-density", "seed": 1,
                                   "cells": 256}), LEB, every),
        ("identity", generate({"type": "lebesgue"}), LEB, every),
        # both sides hold several pieces per cell down to level 3, on
        # grids whose union each row takes
        *[(f"histograms {i}", mu, nu, every)
          for i, (mu, nu) in enumerate(fleet)],
        # atoms strictly inside every cell
        *[(f"fleet atoms {i}", mu, nu, every)
          for i, (mu, nu) in enumerate(atomic)],
        ("atoms 1 ulp inside edges", Measure.make(atoms=[
            (np.nextafter(0.25, 1.0), 0.5), (np.nextafter(0.75, 0.0), 0.3),
            (0.6, 0.2)]), LEB, every),
        # an atom on an edge of level 2 and below stays per entry there
        ("atom on an edge", Measure.make(atoms=[(0.25, 0.5), (0.6, 0.5)]),
         LEB, {0, 1}),
        # atoms and pieces on one side: pieces that share an end, a gap, a
        # zero-mass piece (kept, as from_arrays would drop it) and an atom
        # on a piece's end
        ("atoms and pieces", mixed, LEB, every),
        ("atoms and pieces / 16 cells", mixed, fleet[0][1], every),
        # both sides split each cell on one grid, down to level 3 (16
        # cells) or level 5 (64 cells)
        *[(f"same-grid histograms {i}", mu, nu, every)
          for i, (mu, nu) in enumerate(same_grid)],
        # density bumps of width 2^-n on either side of 1/2: runs of 4 and
        # 2 whole pieces on levels 0-1, pieces clipped at the edges of the
        # cells beside 1/2 on levels 2 to n - 1, cells inside one piece
        # from level n
        *[(f"example22 n={n}", generate({"type": "example22", "n": n}), LEB,
           every) for n in (8, 9)],
        ("example52", generate({"type": "example52", "n": 6}), LEB, every),
        # pieces across edges on every level, clipped on both sides
        *[(f"thirds / {name}", thirds, nu, every)
          for name, nu in (("lebesgue", LEB),
                           ("finite-haar", generate({"type": "finite-haar"})))],
        # atoms strictly inside cells, beside pieces across edges
        ("atoms and clipped pieces", Measure.make(
            atoms=[(0.3, 0.1), (0.55, 0.05), (0.9, 0.05)],
            pieces=[(0.1, 0.45, 0.3), (0.45, 0.5, 0.2), (0.6, 0.95, 0.3)]),
         LEB, every),
        # pieces with gaps, and cells with no mass
        ("cantor 8", generate({"type": "cantor", "depth": 8}), LEB, every),
        ("cantor 14", generate({"type": "cantor", "depth": 14}), LEB,
         every),
        # atoms at 1/4 and 1/2 + 0.01: 1/4 is an edge from level 2
        ("example53 atoms", generate({"type": "example53", "eps": 0.01,
                                      "role": "nu"}), LEB, {0, 1}),
        # a cell inside a piece of width 3/4 carries a rounded mass; at
        # level 1 that piece is clipped at the edge 1/2
        ("cascade-10 / 3:1", generate({"type": "cascade", "p": 0.7,
                                       "depth": 10}),
         Measure.make(pieces=[(0.0, 0.75, 0.6), (0.75, 1.0, 0.4)]), every),
        # densities 1e-13 apart are not uniform to is_uniform_on
        ("near-uniform", _histogram(1.0 + 1e-13 * rng.uniform(size=64)),
         LEB, every),
        # runs whose first two densities agree: the extremes of the run
        # decide, and the right half is uniform
        ("runs of equal densities", _histogram([1, 1, 1, 2, 1, 1, 1, 1]),
         LEB, every),
        ("zero-mass cell", _histogram([0.3, 0.0, 0.2, 0.5]), LEB, every),
        # the zero-mass piece from_arrays would drop: its cells act as ZERO
        ("zero-mass piece", Measure(
            np.zeros(0), np.zeros(0), np.arange(4) / 4, np.arange(1, 5) / 4,
            np.array([0.3, 0.0, 0.2, 0.5]), 1.0), LEB, every),
    ]
    for name, mu, nu, filled in pairs:
        stopping_forest(mu, nu, 1.0 / 128.0, max_depth=depth)
        levels = alpha_table(mu, nu)._levels
        got = {j for j, alphas in levels.items() if alphas is not None}
        assert set(levels) == every and got == filled, name
        for j in got:
            want = [_entry(mu, nu, STANDARD.interval(j, k)).alpha
                    for k in range(1 << j)]
            assert np.array_equal(levels[j], want), (name, j)
    # reads through the table take the filled value of the right cell
    mu, nu = fleet[0]
    for j in range(6):
        for k in range(1 << j):
            I = STANDARD.interval(j, k)
            assert alpha(mu, nu, I) == _entry(mu, nu, I).alpha


@pytest.mark.filterwarnings("ignore::sqfnlab.measure.BoundaryAtomWarning")
def test_level_fill_computes_each_distinct_row_once(monkeypatch):
    rows = _count_rows(monkeypatch)
    # the cascade's blow-ups onto one level's cells are few distinct rows,
    # and no level is read per entry
    casc = generate({"type": "cascade", "p": 0.7, "depth": 16})
    stopping_forest(casc, LEB, 1.0 / 128.0, max_depth=12)
    assert sum(rows) < 100 and len(alpha_table(casc, LEB)._entries) == 0
    # nor on a fleet atomic pair, nor on the cantor scenario's measure,
    # whose cells of one level are a few translated copies
    rng = np.random.default_rng(0)
    mu, nu = _random_measure(rng), _histogram(rng.uniform(0.05, 1.0, 16))
    assert mu.atom_x.size
    stopping_forest(mu, nu, 1.0 / 64.0, max_depth=6)
    assert len(alpha_table(mu, nu)._entries) == 0
    cantor = generate({"type": "cantor", "depth": 14})
    del rows[:]
    stopping_forest(cantor, LEB, 1.0 / 16.0, max_depth=10)
    assert len(alpha_table(cantor, LEB)._entries) == 0 and sum(rows) < 40

    # halves that differ by one rounding step in one mass are two rows,
    # and each gets its own alpha; equal quarters are one row
    half = [0.1, 0.15, 0.05, 0.2]
    masses = half + [np.nextafter(half[0], 1.0)] + half[1:]
    mu = Measure.make(pieces=[(k / 8, (k + 1) / 8, m)
                              for k, m in enumerate(masses)])
    table = alpha_table(mu, LEB)
    for j, count in enumerate([1, 2, 3]):
        monkeypatch.undo()
        want = [_entry(mu, LEB, STANDARD.interval(j, k)).alpha
                for k in range(1 << j)]
        rows = _count_rows(monkeypatch)
        assert np.array_equal(table.level(j), want) and rows == [count], j


@pytest.mark.filterwarnings("ignore::sqfnlab.measure.BoundaryAtomWarning")
def test_filling_many_tables_equals_filling_each_alone():
    # one fill_levels pass over many tables pools their rows in the kernel's
    # stacks; every level is the one-table fill's, bit for bit, or None
    pairs = []
    for seed in range(10):  # random-histogram-fleet's pairs, as it draws
        rng = np.random.default_rng(seed)
        for _ in range(10):
            m1 = _random_measure(rng)
            pairs.append((m1, _histogram(rng.uniform(0.05, 1.0, 16))))
            rng.integers(0, 4)
    mixed = Measure(  # atoms and pieces on one side: rows that jump
        np.array([np.nextafter(0.125, 1.0), 0.3, 0.55]),
        np.array([0.05, 0.2, 0.1]), np.array([0.0, 0.0625, 0.3, 0.5, 0.75]),
        np.array([0.0625, 0.125, 0.3 + 2.0 ** -12, 0.625, 0.875]),
        np.array([0.25, 0.05, 0.1, 0.25, 0.0]), 1.0)
    cascade = {"type": "cascade", "p": 0.7, "depth": 10}
    bumps = {"type": "example22", "n": 5}
    pairs += [
        (mixed, LEB), (mixed, pairs[0][1]),
        (generate({"type": "cantor", "depth": 8}), LEB),  # gaps, no mass
        (generate({"type": "lebesgue"}), LEB),  # uniform cells
        # equal measures of two tables: rows that repeat across pairs
        (generate(cascade), LEB), (generate(cascade), LEB),
        # an atom on an edge from level 2: per entry there
        (Measure.make(atoms=[(0.25, 0.5), (0.6, 0.5)]), LEB),
        # pieces clipped at cell edges fill; an atom at 3/8 as well keeps
        # the levels from 3 on per entry
        (generate(bumps), LEB), (_with_atoms(generate(bumps), [0.375]), LEB),
    ]
    per_entry = {len(pairs) - 3: range(2, 9), len(pairs) - 1: range(3, 9)}
    js = range(9)
    alone = [AlphaTable(mu, nu).levels(js) for mu, nu in pairs]
    tables = [AlphaTable(mu, nu) for mu, nu in pairs]
    held = {i: tables[i].levels([1, 4]) for i in (0, 7, 100, 104, 106)}
    fill_levels(tables, js)
    for i, (table, want) in enumerate(zip(tables, alone)):
        assert [j for j in js if want[j] is None] == list(
            per_entry.get(i, [])), i
        for j in js:
            got = table._levels[j]
            if want[j] is None:
                assert got is None, (i, j)
            else:
                assert np.array_equal(got.view(np.int64),
                                      want[j].view(np.int64)), (i, j)
        if i in held:  # a level held already is not filled again
            assert all(table._levels[j] is a for j, a in zip((1, 4), held[i]))


# bytes of one float64 row of a depth-16 cascade's level-0 fill
_ROW_BYTES = 8 << 16


def test_a_wide_level_fill_holds_few_rows_at_once():
    # level 0 of a depth-16 cascade is one row of 65,536 segments: the fill
    # and the kernel hold about 10 row-sized arrays at once (tracemalloc
    # counts numpy's data), and 23 when they keep each temporary alive
    alpha_module._alpha_levels([(generate({"type": "cascade", "p": 0.7,
                                          "depth": 4}), LEB)], [[0]])  # warm
    casc = generate({"type": "cascade", "p": 0.7, "depth": 16})
    tracemalloc.start()
    try:
        out = alpha_module._alpha_levels([(casc, LEB)], [[0]])[0][0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.tolist() == [_entry(casc, LEB, STANDARD.root()).alpha]
    assert peak <= 12 * _ROW_BYTES, peak / _ROW_BYTES


# the example53 atoms sit on dyadic boundaries by construction
@pytest.mark.filterwarnings("ignore::sqfnlab.measure.BoundaryAtomWarning")
def test_unfilled_level_reads_batch_by_segment_count(monkeypatch):
    # one alphas(j, k) read of an unfilled level sends the graph of each
    # cell it has not read through the kernel once, in one call per
    # distinct segment count (per stack of _STACK segments); each value,
    # flag and the order of flagged() are those of one read at a time
    rng = np.random.default_rng(9)
    xs, ws = rng.uniform(0.0, 1.0, 24), rng.uniform(0.1, 1.0, 24)
    # an atom at 0 sits on an edge of every level, which keeps it per entry
    cantor = generate({"type": "cantor", "depth": 14})
    pairs = [
        ("cantor-14 and an atom at 0", Measure.from_arrays(
            [0.0], [0.01], cantor.piece_l, cantor.piece_r, cantor.piece_m),
         LEB, range(7)),
        ("atoms-24 and one at 0", Measure.from_arrays(
            np.append(xs, 0.0), np.append(ws, 0.5) / (ws.sum() + 0.5), (), (),
            ()), generate({"type": "histogram", "cells": [0.25] * 4}),
         range(7)),
        # atoms at 1/4 and 1/2 sit on edges from levels 2 and 1
        ("example53", generate({"type": "example53", "eps": 0.01,
                                "role": "mu"}),
         generate({"type": "example53", "eps": 0.01, "role": "nu"}),
         range(1, 7)),
        # an atom at 1/2 keeps the bumps per entry, and 6 of the 8 cells
        # are uniform: they read 0.0 with no kernel row
        ("example22 and an atom at 1/2", _with_atoms(
            generate({"type": "example22", "n": 8}), [0.5]), LEB, [3]),
    ]
    batched, flagged, uniform = set(), 0, 0
    for name, mu, nu, levels in pairs:
        table, single = AlphaTable(mu, nu), AlphaTable(mu, nu)
        for j in levels:
            assert table.level(j) is None, (name, j)
            # every cell, some twice, in a scrambled order
            k = np.concatenate([rng.permutation(1 << j), [0, (1 << j) - 1]])
            monkeypatch.undo()
            want = [single.entry((c / (1 << j), (c + 1) / (1 << j))).alpha
                    for c in k.tolist()]
            cells = list(dict.fromkeys(k.tolist()))
            graphs = [alpha_module._graph(mu, nu, c / (1 << j),
                                          (c + 1) / (1 << j), False)[0]
                      for c in cells]
            zeros = [c for c, g in zip(cells, graphs) if g is None]
            graphs = [g for g in graphs if g is not None]
            sizes = Counter(g[0].size for g in graphs)
            calls = sum(-(-n // max(_STACK // size, 1))
                        for size, n in sizes.items())
            rows = _count_rows(monkeypatch)
            got = table.alphas(j, k)
            assert got.tolist() == want, (name, j)
            at_zero = got[np.isin(k, zeros)]
            assert np.all(at_zero == 0.0) and not np.signbit(at_zero).any()
            uniform += len(zeros)
            assert len(rows) == calls, (name, j)
            assert sum(rows) == len(graphs), (name, j)
            batched.add(max(rows, default=0) > 1)
            # a second read computes nothing
            table.alphas(j, k)
            assert len(rows) == calls, (name, j)
        assert table.flagged() == single.flagged(), name
        assert table._entries == single._entries, name
        flagged += len(table.flagged())
    assert batched == {False, True} and flagged > 0 and uniform == 6

import numpy as np
import pytest

from sqfnlab.measure import (
    BoundaryAtomWarning,
    Measure,
    PiecewiseLinearFn,
    blowup,
    cdf_difference,
    cdf_left_values,
    combine,
    dyadic_cell_masses,
    generate,
    integrate,
    is_uniform_on,
    mass,
    normalized_blowup,
    phi_tent,
    restrict,
    scale,
    validate_spec,
)
from sqfnlab.cli import _random_measure


def test_make_sorts_and_drops_zero_weights():
    m = Measure.make(atoms=[(0.7, 0.2), (0.3, 0.0), (0.1, 0.5)])
    assert m.atom_x.tolist() == [0.1, 0.7]
    assert m.total == pytest.approx(0.7, abs=1e-15)


def test_non_finite_input_is_rejected():
    nan, inf = float("nan"), float("inf")
    for atoms, pieces in [
        ([(nan, 1.0)], ()),
        ([(0.5, nan)], ()),
        ([(0.5, inf)], ()),
        ((), [(0.0, 1.0, nan)]),
        ((), [(0.0, 1.0, inf)]),
        ((), [(nan, 1.0, 1.0)]),
        ((), [(0.0, nan, 1.0)]),
    ]:
        with pytest.raises(ValueError):
            Measure.make(atoms=atoms, pieces=pieces)
    for spec in [
        {"type": "histogram", "cells": [0.5, nan]},
        {"type": "histogram", "cells": [inf, 0.5]},
        {"type": "atomic", "atoms": [(0.3, nan)]},
        {"type": "atomic", "atoms": [(0.3, inf)]},
    ]:
        with pytest.raises(ValueError):
            validate_spec(spec)
        with pytest.raises(ValueError):
            generate(spec)
    for bx, vy in [
        ([0.0, nan, 1.0], [0.0, 1.0, 0.0]),
        ([0.0, 0.5, inf], [0.0, 1.0, 0.0]),
        ([0.0, 0.5, 1.0], [0.0, nan, 0.0]),
        ([0.0, 0.5, 1.0], [0.0, -inf, 0.0]),
    ]:
        with pytest.raises(ValueError):
            PiecewiseLinearFn.make(bx, vy)


def test_mass_half_open_vs_closed():
    m = Measure.make(atoms=[(0.5, 1.0)])
    assert mass(m, 0.0, 0.5) == 0.0
    assert mass(m, 0.0, 0.5, closed_right=True) == 1.0
    assert mass(m, 0.5, 1.0) == 1.0


def test_atom_at_one_counts_in_closed_unit_interval():
    m = Measure.make(atoms=[(1.0, 0.25)], pieces=[(0.0, 1.0, 0.75)])
    assert mass(m, 0.0, 1.0) == pytest.approx(0.75, abs=1e-15)
    assert mass(m, 0.0, 1.0, closed_right=True) == pytest.approx(1.0, abs=1e-15)
    cells = dyadic_cell_masses(m, 3)
    # the atom at 1 lands in the last cell, so the cells sum to the total
    assert cells[-1] == mass(m, 7 / 8, 1.0, closed_right=True)
    assert cells.sum() == pytest.approx(m.total, abs=1e-15)


def test_cell_masses_equal_scalar_mass_on_every_cell():
    rng = np.random.default_rng(3)
    atoms = list(zip(rng.uniform(0.0, 1.0, 40), rng.uniform(0.1, 1.0, 40)))
    for m in [
        generate({"type": "lebesgue"}),
        generate({"type": "cascade", "p": 0.7, "depth": 16}),
        generate({"type": "cantor", "depth": 14}),
        generate({"type": "example22", "n": 8}),
        generate({"type": "finite-haar", "seed": 0, "levels": 5}),
        Measure.make(atoms=atoms),
    ]:
        for j in range(13):
            cells = dyadic_cell_masses(m, j)
            n = 1 << j
            scalar = [mass(m, k / n, (k + 1) / n) for k in range(n)]
            assert cells.tolist() == scalar, (m, j)


def test_cdf_left_values_piecewise():
    m = generate({"type": "lebesgue"})
    xs = np.array([0.0, 0.25, 1.0, 1.5])
    np.testing.assert_allclose(cdf_left_values(m, xs), [0.0, 0.25, 1.0, 1.0])


def _cdf_left_clamped(m, xs):
    # cdf_left_values with its former clamps at the ends of the breakpoints
    xs = np.asarray(xs, dtype=float)
    acum, bx, bv = m._tables
    cont = np.interp(xs, bx, bv)
    cont = np.where(xs <= bx[0], 0.0, np.where(xs >= bx[-1], bv[-1], cont))
    if m.atom_x.size:
        cont = cont + acum[np.searchsorted(m.atom_x, xs, side="left")]
    return cont


def test_cdf_left_values_needs_no_clamp():
    xs = np.array([-1.0, -0.0, 0.0, 0.5, 1.0, 1 + 5e-16, 1 + 1e-15, 2.0,
                   np.nan])
    for m in [generate({"type": "lebesgue"}),
              generate({"type": "histogram", "cells": [0.1, 0.2, 0.3, 0.4]}),
              Measure.make(atoms=[(0.0, 0.2), (0.5, 0.3), (1.0, 0.5)]),
              Measure.make(pieces=[(0.25, 0.5, 0.6), (0.625, 0.75, 0.4)]),
              Measure.make(pieces=[(0.0, 1 + 1e-15, 1.0)])]:
        got = cdf_left_values(m, xs)
        assert np.array_equal(got, _cdf_left_clamped(m, xs), equal_nan=True)
        assert np.isnan(got[-1])


def test_cascade_cell_masses():
    m = generate({"type": "cascade", "p": 0.7, "depth": 2})
    cells = dyadic_cell_masses(m, 2)
    np.testing.assert_allclose(cells, [0.49, 0.21, 0.21, 0.09], atol=1e-15)
    assert m.total == pytest.approx(1.0, abs=1e-12)
    # memoized on the measure and read-only
    assert dyadic_cell_masses(m, 2) is cells
    with pytest.raises(ValueError):
        cells[0] = 1.0


def test_cantor_middle_half_support():
    m = generate({"type": "cantor", "depth": 3})
    assert m.total == pytest.approx(1.0, abs=1e-12)
    # the middle half of [0, 1] carries no mass
    assert mass(m, 0.25, 0.75) == pytest.approx(0.0, abs=1e-15)
    assert mass(m, 0.0, 0.25) == pytest.approx(0.5, abs=1e-15)


def test_example22_masses():
    n = 5
    m = generate({"type": "example22", "n": n})
    h = 2.0 ** -n
    assert m.total == pytest.approx(1.0, abs=1e-15)
    assert mass(m, 0.5 - h, 0.5) == pytest.approx(0.5 * h, abs=1e-15)
    assert mass(m, 0.5, 0.5 + h) == pytest.approx(1.5 * h, abs=1e-15)


def test_blowup_self_similarity_of_cascade():
    m = generate({"type": "cascade", "p": 0.7, "depth": 8})
    left = blowup(m, 0.0, 0.5)
    # left half blown up is p times the depth-7 cascade
    ref = generate({"type": "cascade", "p": 0.7, "depth": 7})
    xs = np.linspace(0.05, 0.95, 37)
    got = cdf_left_values(left, xs)
    np.testing.assert_allclose(got, 0.7 * cdf_left_values(ref, xs),
                               atol=1e-14)


def test_normalized_blowup_is_probability():
    m = generate({"type": "cascade", "p": 0.6, "depth": 6})
    nb = normalized_blowup(m, 0.25, 0.5)
    assert nb.total == pytest.approx(1.0, abs=1e-12)


def test_restrict_scale_combine_roundtrip():
    m = generate({"type": "histogram", "cells": [0.1, 0.2, 0.3, 0.4]})
    parts = [restrict(m, 0.0, 0.5), restrict(m, 0.5, 1.0)]
    back = combine(parts)
    xs = np.linspace(0, 1, 41)
    np.testing.assert_allclose(cdf_left_values(back, xs),
                               cdf_left_values(m, xs), atol=1e-15)
    assert scale(m, 2.0).total == pytest.approx(2.0, abs=1e-15)
    assert scale(m, 0.0).total == 0.0 and scale(m, 0.0).piece_l.size == 0
    for c in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            scale(m, c)


def test_is_uniform_on_detects_density():
    m = generate({"type": "histogram", "cells": [0.25, 0.25, 0.3, 0.2]})
    assert is_uniform_on(m, 0.0, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert is_uniform_on(m, 0.5, 1.0) is None
    a = Measure.make(atoms=[(0.3, 1.0)])
    assert is_uniform_on(a, 0.25, 0.5) is None
    assert is_uniform_on(a, 0.5, 1.0) == 0.0


def test_integrate_tent_against_lebesgue():
    leb = generate({"type": "lebesgue"})
    phi = phi_tent()
    assert integrate(leb, phi) == pytest.approx(0.25, abs=1e-15)
    d = Measure.make(atoms=[(0.5, 2.0)])
    assert integrate(d, phi) == pytest.approx(1.0, abs=1e-15)


def test_piece_right_ends_must_be_sorted():
    # within the 1e-15 overlap the disjointness check tolerates, a short
    # second piece would end before the first one and break binary search
    with pytest.raises(ValueError):
        Measure.make(pieces=[(0.0, 0.5, 0.5),
                             (0.5 - 2.0 ** -53, 0.5 - 2.0 ** -54, 0.1)])


def test_nan_bounds_raise_and_reversed_bounds_stay_empty():
    nan = float("nan")
    m = generate({"type": "cascade", "p": 0.7, "depth": 4})
    leb = generate({"type": "lebesgue"})
    assert is_uniform_on(m, 0.5, 0.25) == 0.0
    assert is_uniform_on(leb, 0.5, 0.25) == 0.0
    with pytest.raises(ValueError):
        is_uniform_on(m, nan, 0.5)
    for a, b in [(0.25, nan), (nan, 0.5)]:
        with pytest.raises(ValueError):
            restrict(m, a, b)
    for a, b in [(0.25, nan), (nan, 0.5), (nan, nan)]:
        with pytest.raises(ValueError):
            mass(m, a, b)


def _restrict_scan(m, a, b, closed_right=False):
    """restrict as a masked scan over every atom and piece (reference)."""
    ax = aw = np.empty(0)
    if m.atom_x.size:
        sel = (m.atom_x >= a) & ((m.atom_x <= b) if closed_right
                                 else (m.atom_x < b))
        ax, aw = m.atom_x[sel], m.atom_w[sel]
    pl = pr = pm = np.empty(0)
    if m.piece_l.size:
        lo = np.maximum(m.piece_l, a)
        hi = np.minimum(m.piece_r, b)
        sel = hi > lo
        dens = m.piece_m[sel] / (m.piece_r[sel] - m.piece_l[sel])
        pl, pr, pm = lo[sel], hi[sel], dens * (hi[sel] - lo[sel])
    return Measure.from_arrays(ax, aw, pl, pr, pm)


def _rebuilt(m):
    """m passed through from_arrays again (reference)."""
    return Measure.from_arrays(m.atom_x, m.atom_w, m.piece_l, m.piece_r,
                               m.piece_m)


def _is_uniform_on_scan(m, a, b):
    """is_uniform_on as a masked scan over every atom and piece (reference)."""
    if m.atom_x.size:
        if np.any((m.atom_x >= a) & (m.atom_x < b)):
            return None
    if not m.piece_l.size:
        return 0.0
    lo = np.maximum(m.piece_l, a)
    hi = np.minimum(m.piece_r, b)
    sel = hi > lo
    if not np.any(sel):
        return 0.0
    dens = m.piece_m[sel] / (m.piece_r[sel] - m.piece_l[sel])
    d0 = dens[0]
    if np.any(np.abs(dens - d0) > 1e-15 * max(1.0, abs(d0))):
        return None
    lo, hi = lo[sel], hi[sel]
    if lo[0] > a or hi[-1] < b:
        return None
    if np.any(lo[1:] > hi[:-1]):
        return None
    return float(d0)


def _integrate_two_calls(m, f):
    """integrate with one antiderivative call per end array (reference)."""
    out = 0.0
    if m.atom_x.size:
        out += float(np.dot(m.atom_w, f(m.atom_x)))
    if m.piece_l.size:
        dens = m.piece_m / (m.piece_r - m.piece_l)
        out += float(np.dot(dens, f.antiderivative_values(m.piece_r)
                            - f.antiderivative_values(m.piece_l)))
    return out


def test_sliced_queries_equal_the_full_scans():
    rng = np.random.default_rng(20170)
    gapped = Measure.make(
        atoms=[(0.1, 0.2), (0.3125, 0.1), (0.5, 0.05), (0.8, 0.15)],
        pieces=[(0.0, 0.25, 0.2), (0.3125, 0.5, 0.1), (0.5, 0.625, 0.1),
                (0.75, 1.0, 0.1)])
    measures = [_random_measure(rng) for _ in range(8)] + [
        generate({"type": "cascade", "p": 0.7, "depth": 12}),
        generate({"type": "cantor", "depth": 10}),
        gapped,
    ]
    for m in measures:
        # bounds on piece ends and atoms, outside [0, 1] as balls give, and
        # a few anywhere
        pts = np.unique(np.concatenate([
            m.piece_l, m.piece_r, m.atom_x, [-0.25, -1e-3, 0.0, 1.0, 1.25],
            rng.uniform(-0.2, 1.2, 8)]))
        pairs = [(pts[i], pts[i + k]) for i in rng.integers(0, pts.size, 60)
                 for k in (1, 2, 7) if i + k < pts.size]
        pairs += [tuple(rng.choice(pts, 2, replace=False)) for _ in range(60)]
        for a, b in pairs:
            a, b = min(a, b), max(a, b)
            for closed in (False, True):
                # blow-ups and their scalings come out as from_arrays would
                # sort, filter and check the same arrays
                bm = blowup(m, a, b, closed_right=closed)
                for got, want in [
                        (restrict(m, a, b, closed_right=closed),
                         _restrict_scan(m, a, b, closed_right=closed)),
                        (bm, _rebuilt(bm)),
                        (scale(bm, 0.375), _rebuilt(scale(bm, 0.375)))]:
                    for name in ("atom_x", "atom_w", "piece_l", "piece_r",
                                 "piece_m"):
                        assert np.array_equal(getattr(got, name),
                                              getattr(want, name))
                    assert got.total == want.total
            for u, v in ((a, b), (b, a), (a, a)):
                assert is_uniform_on(m, u, v) == _is_uniform_on_scan(m, u, v)
    casc = generate({"type": "cascade", "p": 0.7, "depth": 14})
    phi = phi_tent()
    for j in range(13):
        for k in range(1 << j):
            bm = blowup(casc, k / 2 ** j, (k + 1) / 2 ** j)
            assert integrate(bm, phi) == _integrate_two_calls(bm, phi)


def test_cdf_difference_tracks_jumps():
    m1 = Measure.make(atoms=[(0.5, 1.0)])
    m2 = generate({"type": "lebesgue"})
    x0, x1, g0, g1 = cdf_difference(m1, m2)
    assert x0[0] == 0.0 and x1[-1] == 1.0 and np.all(x1 > x0)
    # G = -x on [0, 1/2), 1 - x on [1/2, 1)
    i = np.searchsorted(x0, 0.5)
    assert g0[i] == pytest.approx(0.5, abs=1e-15)
    assert g1[i - 1] == pytest.approx(-0.5, abs=1e-15)


def test_validate_spec_flags_boundary_atoms():
    notes = validate_spec({"type": "atomic", "atoms": [(0.5, 1.0)]})
    assert any("boundary" in n for n in notes)
    with pytest.raises(ValueError):
        validate_spec({"type": "histogram", "cells": [0.5, 0.2, 0.3]})
    with pytest.raises(ValueError):
        validate_spec({"type": "cascade", "p": 1.5, "depth": 4})


# every generator type with a valid value of each parameter, and whether
# the parameter is required
GENERATOR_PARAMS = {
    "lebesgue": {},
    "atomic": {"atoms": ([[0.3, 1.0]], True)},
    "histogram": {"cells": ([0.5, 0.5], True)},
    "cascade": {"p": (0.7, True), "depth": (4, True)},
    "cantor": {"depth": (4, True), "ratios": ([0.5, 0.5], False)},
    "example22": {"n": (8, True)},
    "example52": {"n": (6, True)},
    "example53": {"eps": (0.01, True), "role": ("nu", False)},
    "finite-haar": {"seed": (0, False), "levels": (5, False)},
    "ac-density": {"seed": (5, False), "cells": (64, False)},
}


@pytest.mark.parametrize("kind", sorted(GENERATOR_PARAMS))
def test_malformed_parameters_are_named(kind):
    params = GENERATOR_PARAMS[kind]
    spec = {"type": kind, **{k: v for k, (v, _) in params.items()}}
    validate_spec(spec)
    generate(spec)
    bad = [({**spec, "levles": 3}, "levles")]
    for name, (_, required) in params.items():
        if required:
            bad.append(({k: v for k, v in spec.items() if k != name}, name))
        for value in (True, "0.5", float("nan")):
            bad.append(({**spec, name: value}, name))
    for malformed, name in bad:
        for check in (validate_spec, generate):
            with pytest.raises(ValueError, match=rf"\b{name}\b"):
                check(malformed)


# specs of the generators that build through _histogram, each malformed
MALFORMED_HISTOGRAM_SPECS = [
    {"type": "histogram", "cells": cells} for cells in (
        [], [0.5, 0.2, 0.3], [0.5, -0.5], [0.5, float("nan")],
        [0.5, float("inf")], [0.5, "0.5"], [0.5, True], [0.5, None], 0.5,
        [[0.5], [0.5]], [1e308, 1e308], [0.5, 10 ** 400])
] + [
    {"type": "cascade", "p": p, "depth": depth} for p, depth in (
        (0.0, 4), (1.0, 4), (-0.3, 4), (float("nan"), 4), (0.7, 0),
        (0.7, 31), (0.7, 4.0))
] + [
    {"type": "finite-haar", **params} for params in (
        {"levels": 0}, {"levels": 31}, {"levels": 2.0}, {"seed": -1},
        {"seed": 1.5})
] + [
    {"type": "ac-density", **params} for params in (
        {"cells": 0}, {"cells": 3}, {"cells": 1 << 31}, {"cells": 64.0},
        {"seed": -2})
]


@pytest.mark.parametrize("spec", MALFORMED_HISTOGRAM_SPECS, ids=repr)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_malformed_histogram_specs_raise(spec):
    # _histogram trusts its cells, so _plan must reject every bad one; one
    # histogram has finite cells whose total overflows, and one an integer
    # cell too large for a float
    with pytest.raises(ValueError):
        generate(spec)


def test_dyadic_cell_masses_warns_on_boundary_atom():
    m = Measure.make(atoms=[(0.25, 1.0)])
    with pytest.warns(BoundaryAtomWarning):
        dyadic_cell_masses(m, 4)


def test_generator_total_mass_is_one():
    rng = np.random.default_rng(0)
    for spec in [
        {"type": "lebesgue"},
        {"type": "cascade", "p": 0.55, "depth": 10},
        {"type": "cantor", "depth": 8},
        {"type": "example22", "n": 6},
        {"type": "example52", "n": 4},
        {"type": "finite-haar", "seed": 3, "levels": 6},
        {"type": "ac-density", "seed": 5, "cells": 32},
    ]:
        m = generate(spec)
        assert m.total == pytest.approx(1.0, abs=1e-12), spec
    for _ in range(20):
        cells = rng.uniform(0.0, 1.0, 8)
        cells /= cells.sum()
        m = generate({"type": "histogram", "cells": cells.tolist()})
        assert m.total == pytest.approx(1.0, abs=1e-12)

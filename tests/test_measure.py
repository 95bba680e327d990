import json

import numpy as np
import pytest

from sqfnlab.measure import (
    BoundaryAtomWarning,
    Measure,
    blowup,
    cdf_difference,
    cdf_left_values,
    combine,
    dyadic_cell_masses,
    generate,
    integrate,
    is_uniform_on,
    mass,
    measure_from_json,
    measure_to_json,
    normalized_blowup,
    phi_tent,
    restrict,
    scale,
    validate_spec,
)


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


def test_cdf_difference_tracks_jumps():
    m1 = Measure.make(atoms=[(0.5, 1.0)])
    m2 = generate({"type": "lebesgue"})
    g = cdf_difference(m1, m2)
    x0, x1, g0, g1 = g.segments()
    # G = -x on [0, 1/2), 1 - x on [1/2, 1)
    i = np.searchsorted(x0, 0.5)
    assert g0[i] == pytest.approx(0.5, abs=1e-15)
    assert g1[i - 1] == pytest.approx(-0.5, abs=1e-15)


def test_json_roundtrip():
    m = Measure.make(atoms=[(0.3, 0.4)], pieces=[(0.0, 0.5, 0.6)])
    m2 = measure_from_json(json.loads(json.dumps(measure_to_json(m))))
    xs = np.linspace(0, 1, 17)
    np.testing.assert_allclose(cdf_left_values(m2, xs),
                               cdf_left_values(m, xs), atol=0)


def test_validate_spec_flags_boundary_atoms():
    notes = validate_spec({"type": "atomic", "atoms": [(0.5, 1.0)]})
    assert any("boundary" in n for n in notes)
    with pytest.raises(ValueError):
        validate_spec({"type": "histogram", "cells": [0.5, 0.2, 0.3]})
    with pytest.raises(ValueError):
        validate_spec({"type": "cascade", "p": 1.5, "depth": 4})


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

import math

import pytest

from sqfnlab.dyadic import (
    STANDARD,
    containing_interval,
    delta,
    doubling_constant,
    navigate,
    shifted_systems,
)
from sqfnlab.measure import generate


def test_interval_geometry_and_text_roundtrip():
    I = STANDARD.interval(3, 5)
    assert I.bounds() == (0.625, 0.75)


def test_navigation():
    I = STANDARD.interval(2, 1)
    assert navigate(I, "parent").bounds() == (0.0, 0.5)
    assert navigate(I, "left").bounds() == (0.25, 0.375)
    assert navigate(I, "right").bounds() == (0.375, 0.5)
    with pytest.raises(ValueError):
        navigate(STANDARD.root(), "parent")


def test_shifted_systems_partition_axioms():
    # every cell of every grid splits into exactly its two children
    for system in shifted_systems(3):
        for j in range(8):
            for k in range(-1, (1 << j) + 1):
                I = system.interval(j, k)
                L, R = navigate(I, "left"), navigate(I, "right")
                assert (L.a, L.b, R.b) == (I.a, R.a, I.b), (system.name, j, k)


def test_containing_interval_in_shifted_grid():
    third = shifted_systems(2)[1]
    I = containing_interval(third, 0.1, 2)
    assert I.a <= 0.1 < I.b
    assert I.length == 0.25


def test_delta_example22_exact():
    leb = generate({"type": "lebesgue"})
    for n in (3, 7, 12):
        mu = generate({"type": "example22", "n": n})
        assert delta(mu, leb, STANDARD.root()) == pytest.approx(
            2.0 ** (-n - 1), abs=1e-15)


def test_delta_zero_on_null_interval():
    mu = generate({"type": "cantor", "depth": 6})
    leb = generate({"type": "lebesgue"})
    assert delta(mu, mu, (0.25, 0.75)) == 0.0
    assert delta(mu, leb, STANDARD.root()) >= 0.0


def test_doubling_constants():
    leb = generate({"type": "lebesgue"})
    assert doubling_constant(leb, depth=8).constant == pytest.approx(2.0)
    casc = generate({"type": "cascade", "p": 0.7, "depth": 12})
    rep = doubling_constant(casc, depth=8)
    assert rep.constant == pytest.approx(1.0 / 0.3, rel=1e-9)
    cantor = generate({"type": "cantor", "depth": 10})
    assert not math.isfinite(doubling_constant(cantor, depth=4).constant)

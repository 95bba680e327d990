import math

import numpy as np
import pytest

from sqfnlab.dyadic import (
    STANDARD,
    DyadicSystem,
    check_partition_properties,
    containing_interval,
    covering_interval,
    delta,
    doubling_constant,
    navigate,
    parse_interval,
    shifted_systems,
    tail_tip,
)
from sqfnlab.measure import generate


def test_interval_geometry_and_text_roundtrip():
    I = STANDARD.interval(3, 5)
    assert I.bounds() == (0.625, 0.75)
    assert parse_interval(I.text()).bounds() == I.bounds()


def test_navigation():
    I = STANDARD.interval(2, 1)
    assert navigate(I, "parent").bounds() == (0.0, 0.5)
    assert navigate(I, "left").bounds() == (0.25, 0.375)
    assert navigate(I, "right").bounds() == (0.375, 0.5)
    assert navigate(I, "minus_chain", 3).length == I.length / 8
    with pytest.raises(ValueError):
        navigate(STANDARD.root(), "parent")


def test_shifted_systems_partition_axioms():
    for system in shifted_systems(3):
        assert check_partition_properties(system, depth=8)
    # a per-level shift table that breaks nesting is rejected
    bad = DyadicSystem("bad", level_shifts=(0.0, 0.1, 0.0, 0.0))
    with pytest.raises(ValueError):
        check_partition_properties(bad, depth=3)


def test_containing_interval_in_shifted_grid():
    third = shifted_systems(2)[1]
    I = containing_interval(third, 0.1, 2)
    assert I.contains_point(0.1)
    assert I.length == 0.25


def test_covering_interval_size_bound():
    systems = shifted_systems(2)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(500):
        x = rng.uniform(0.0, 1.0)
        r = 2.0 ** rng.uniform(-20, -3)
        J = covering_interval(systems, x, r)
        assert J.a <= x - r and x + r <= J.b
        worst = max(worst, J.length / (2 * r))
    assert worst <= 8.0


def test_covering_interval_rejects_large_radius():
    with pytest.raises(ValueError):
        covering_interval(shifted_systems(2), 0.5, 0.2)


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


def test_tail_tip_basic_shape():
    I = STANDARD.root()
    tt = tail_tip(I, 1, 0)
    tails = [J.bounds() for J in tt.tail]
    assert (0.0, 1.0) in tails and (0.0, 0.5) in tails
    assert (0.25, 0.5) in tails
    tips = sorted(J.bounds() for J in tt.tip)
    assert tips == [(0.0, 0.25), (0.375, 0.5)]


def test_tail_tip_degenerate_case():
    tt = tail_tip(STANDARD.root(), 0, -1)
    assert [J.bounds() for J in tt.tail] == [(0.0, 1.0)]
    assert [J.bounds() for J in tt.tip] == [(0.0, 0.5)]
    with pytest.raises(ValueError):
        tail_tip(STANDARD.root(), 1, -1)


def test_tail_tip_infinite_truncates():
    tt = tail_tip(STANDARD.root(), math.inf, math.inf)
    assert tt.truncated
    assert tt.tip == ()
    deepest = max(J.j for J in tt.tail)
    assert deepest <= STANDARD.max_level


def test_tail_chains_are_nested_with_tips_cutting_them():
    tt = tail_tip(STANDARD.interval(2, 1), 2, 1)
    for chain in (tt.tail_minus, tt.tail_plus):
        for J, K in zip(chain, chain[1:]):
            assert J.contains(K) and K.length == J.length / 2
    # each tip piece continues its chain one level further
    assert tt.tail_minus[-1].contains(tt.tip[0])
    assert tt.tail_plus[-1].contains(tt.tip[1])
    assert tt.tip[0].length == tt.tail_minus[-1].length / 2

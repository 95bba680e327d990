import numpy as np
import pytest

from sqfnlab.cli import _random_measure
from sqfnlab.measure import Measure, generate
from sqfnlab.transport import w1_oracle, w1_supported, w1_unrestricted


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

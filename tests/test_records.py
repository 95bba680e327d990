"""The package's classes built without dataclasses keep a frozen
dataclass's behaviour: read-only fields, defaults, validation, equality and
hashing by field, and an __init__ that a subclass can extend."""

import weakref

import numpy as np
import pytest

from sqfnlab.alpha import AlphaEntry, Ball
from sqfnlab.dyadic import MAX_LEVEL, STANDARD, DyadicInterval, DyadicSystem
from sqfnlab.measure import Measure, generate, phi_tent
from sqfnlab.transport import W1Result, w1_supported
from sqfnlab.tree import Tree

LEB = generate({"type": "lebesgue"})
TREE = Tree(STANDARD.interval(1, 0), frozenset({(1, 0)}), ((1, 0),), 3)


@pytest.mark.parametrize("record, name", [
    (LEB, "total"), (LEB, "atom_x"), (phi_tent(), "values"),
    (STANDARD.interval(2, 1), "j"), (TREE, "members"), (TREE, "lazy_full"),
], ids=["Measure.total", "Measure.atom_x", "PiecewiseLinearFn.values",
        "DyadicInterval.j", "Tree.members", "Tree.lazy_full"])
def test_public_fields_are_read_only(record, name):
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is value


def test_a_measure_is_weakly_referenced_and_keeps_memos():
    m = generate({"type": "cascade", "p": 0.7, "depth": 4})
    ref = weakref.ref(m)
    assert ref() is m
    assert m._memo("_probe") is m._memo("_probe")  # set past the guard
    del m
    assert ref() is None


def test_dyadic_interval_validates_and_compares_by_value():
    for j in (-1, MAX_LEVEL + 1):
        with pytest.raises(ValueError, match=f"level {j} outside"):
            DyadicInterval(STANDARD, j, 0)
    # a system equal to STANDARD but not the same object
    a, b = STANDARD.interval(3, 5), DyadicInterval(DyadicSystem("std"), 3, 5)
    assert a == b and hash(a) == hash(b) == hash((STANDARD, 3, 5))
    assert len({a, b, STANDARD.interval(3, 4)}) == 2
    assert a != DyadicInterval(DyadicSystem("std", 0.5), 3, 5)
    assert a != (STANDARD, 3, 5)


def test_defaults_still_apply():
    assert W1Result(0.5, 0.0).witness is None
    assert w1_supported(LEB, LEB).witness is None
    assert Tree(STANDARD.root(), None, (), 2).lazy_full is False
    assert DyadicSystem("s").shift == 0.0
    empty = np.empty(0)
    assert Measure(empty, empty, empty, empty, empty).total == 0.0


def test_records_print_as_dataclasses_did():
    assert repr(DyadicSystem("std")) == "DyadicSystem(name='std', shift=0.0)"
    assert repr(Ball(0.5, 0.25)) == "Ball(x=0.5, r=0.25)"
    assert repr(AlphaEntry(0.5, True)) == (
        "AlphaEntry(alpha=0.5, one_sided_zero=True)")


def test_an_alpha_entry_subclass_extends_init():
    # the bench tracer counts every entry built through such a subclass
    built = []

    class Counted(AlphaEntry):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    entry = Counted(0.25, one_sided_zero=True)
    assert (entry.alpha, entry.one_sided_zero, built) == (0.25, True, [(0.25,)])
    assert entry == Counted(0.25, True) and entry != AlphaEntry(0.25, True)
    with pytest.raises(AttributeError):
        entry.alpha = 0.0

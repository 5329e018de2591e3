"""The package's records are tuples (collections.namedtuple, or a plain
tuple subclass for an E-monomial): immutable, without a per-instance dict,
and with the checks, reprs and defaults they had as dataclasses."""

import pytest

from hhkt.algebra import Monomial
from hhkt.bar import BarWord
from hhkt.bigraded import DegreeWindow, WindowError
from hhkt.fields import FieldError, PrimeField
from hhkt.koszul_tate import EMono


def test_prime_field_rejects_a_composite():
    with pytest.raises(FieldError, match=r"^characteristic 4 is not prime$"):
        PrimeField(4)


@pytest.mark.parametrize("args, message", [
    ((-1, 0, 0), "max filtration must be >= 0"),
    ((0, 1, 0), "empty internal degree range"),
])
def test_degree_window_rejects_bad_bounds(args, message):
    with pytest.raises(WindowError) as err:
        DegreeWindow(*args)
    assert str(err.value) == message


@pytest.mark.parametrize("record, field", [
    (PrimeField(3), "p"),
    (DegreeWindow(4, -24, 24), "q_min"),
    (Monomial(0, (1,)), "mask"),
])
def test_fields_cannot_be_set(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)


@pytest.mark.parametrize("record", [
    Monomial(1, (0, 2)),
    EMono((1, 0, 2)),
    BarWord(Monomial(0, ()), (Monomial(1, ()),), Monomial(0, ())),
])
def test_hot_records_have_no_instance_dict(record):
    assert not hasattr(record, "__dict__")


def test_degree_window_repr():
    assert repr(DegreeWindow(4, -24, 24)) == \
        "DegreeWindow(max_p=4, q_min=-24, q_max=24)"

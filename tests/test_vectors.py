from fractions import Fraction

import pytest

from padicops.errors import PrecisionExhausted
from padicops.scalars import Padic, ValuationBound
from padicops.vectors import (PadicVector, PairingValue, fractional_part,
                              pairing)


def vec(p, table):
    return PadicVector(p, {i: Padic.from_fraction(Fraction(v), p)
                           for i, v in table.items()})


def test_vector_drops_zero_entries():
    v = PadicVector(3, {0: Padic.one(3), 1: Padic.zero(3)})
    assert v.support == [0]
    assert v.get(1).is_zero


def test_vector_arithmetic():
    v = vec(3, {0: 1, 2: 3})
    w = vec(3, {0: -1, 1: 5})
    s = v + w
    assert s.support == [1, 2]
    assert (v - v).entries == {}
    scaled = v.scale(Padic.from_int(3, 3))
    assert scaled.get(2).valuation == 2
    assert (-v).get(0).residue(2) == 8


def test_vector_norm_and_depth():
    v = vec(3, {0: Fraction(1, 3), 1: 9})
    assert v.norm() == ValuationBound(-1)
    assert PadicVector(3, {}).norm().is_zero


def test_basis_vector():
    d = PadicVector.basis(5, 7)
    assert d.support == [7]
    assert d.get(7).residue(3) == 1


def test_fractional_part_values():
    assert fractional_part(Padic.from_int(6, 3)).is_zero
    assert fractional_part(Padic.zero(3)).is_zero
    got = fractional_part(Padic.from_fraction(Fraction(5, 9), 3))
    assert (got.numerator, got.exponent) == (5, 2)
    assert str(got) == "5/3^2"
    assert str(PairingValue(3, 0, 0)) == "0"
    # only the digits below the integer part survive
    wrapped = fractional_part(Padic.from_fraction(Fraction(10, 3), 3))
    assert (wrapped.numerator, wrapped.exponent) == (1, 1)


def test_fractional_part_needs_digits():
    shallow = Padic.from_fraction(Fraction(1, 27), 3, 2)
    with pytest.raises(PrecisionExhausted):
        fractional_part(shallow)


def test_pairing_examples():
    xi = vec(3, {0: Fraction(1, 3), 1: 1})
    eta = vec(3, {0: 1, 1: Fraction(1, 9)})
    got = pairing(xi, eta)
    # 1/3 + 1/9 = 4/9
    assert (got.numerator, got.exponent) == (4, 2)
    assert pairing(xi, vec(3, {2: Fraction(1, 3)})).is_zero
    with pytest.raises(ValueError):
        pairing(xi, vec(5, {0: 1}))


def test_pairing_is_symmetric(rng):
    p = 3
    for _ in range(20):
        xi = vec(p, {i: Fraction(rng.randrange(-6, 7), p**rng.randrange(3))
                     for i in rng.sample(range(5), 3)})
        eta = vec(p, {i: Fraction(rng.randrange(-6, 7), p**rng.randrange(3))
                      for i in rng.sample(range(5), 3)})
        assert pairing(xi, eta) == pairing(eta, xi)

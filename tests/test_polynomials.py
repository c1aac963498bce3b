from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicops.polynomials import IntPolynomial

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=8)


def test_trailing_zeros_trimmed():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial(()).degree == -1
    assert IntPolynomial((0,)).degree == -1


@given(coeff_lists, coeff_lists, st.integers(min_value=-20, max_value=20))
def test_ring_ops_agree_with_evaluation(a, b, x):
    f, g = IntPolynomial(tuple(a)), IntPolynomial(tuple(b))
    assert (f + g)(x) == f(x) + g(x)
    assert (f - g)(x) == f(x) - g(x)
    assert (f * g)(x) == f(x) * g(x)


def test_evaluation_keeps_fractions_exact():
    f = IntPolynomial((1, 0, 3))
    assert f(Fraction(1, 2)) == Fraction(7, 4)


def test_derivative():
    f = IntPolynomial((5, 1, 0, 2))
    assert f.derivative().coeffs == (1, 0, 6)
    assert IntPolynomial((7,)).derivative().degree == -1


def test_power_matches_repeated_product():
    f = IntPolynomial((1, 1))
    cube = f * f * f
    assert f**3 == cube
    assert (f**0).coeffs == (1,)


def test_divides_into():
    x2_minus_x = IntPolynomial((0, -1, 1))
    x3_minus_x = IntPolynomial((0, -1, 0, 1))
    q = x2_minus_x.divides_into(x3_minus_x)
    assert q is not None and q.coeffs == (1, 1)
    assert x2_minus_x.divides_into(IntPolynomial((1, 1))) is None
    with pytest.raises(ValueError):
        IntPolynomial((0, 2)).divides_into(x3_minus_x)


@given(coeff_lists, coeff_lists)
def test_division_undoes_multiplication(a, b):
    f = IntPolynomial(tuple(a) + (1,))  # force monic
    g = IntPolynomial(tuple(b))
    q = f.divides_into(f * g)
    assert q == g

import copy
import dataclasses
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicops.errors import DivisionByZero, PrecisionExhausted
from padicops.scalars import (DEFAULT_PRECISION, Padic, ValuationBound,
                              binomial_padic, digit_sum, factorial_valuation,
                              norm_max, teichmuller, vandermonde_coefficients)
from test_products import _oracle_entry, _triple, entries

primes = st.sampled_from([2, 3, 5])
small_ints = st.integers(min_value=-10**9, max_value=10**9)


def test_from_int_normalizes_valuation():
    x = Padic.from_int(12, 3)
    assert x.valuation == 1 and x.unit == 4
    assert Padic.from_int(0, 3).is_zero
    assert Padic.from_int(-9, 3).valuation == 2


def _from_unit_oracle(p, v, u, n):
    """p^v * u to n digits, by plain ints: u reduced mod p^n, then its
    p-power factor moved into the valuation."""
    r = u % p**n
    if r == 0:
        return Padic.zero(p, v + n)
    j = 0
    while r % p == 0:
        r //= p
        j += 1
    return Padic(p, v + j, r, n - j)


@given(primes, st.integers(min_value=-3, max_value=3),
       st.one_of(small_ints, st.integers(min_value=1, max_value=10**6).map(lambda k: k * 3**8)),
       st.integers(min_value=1, max_value=20))
def test_from_unit_reduces_and_splits_off_p(p, v, u, n):
    """from_unit is the plain-int rule for any int, with or without the
    modulus handed in, and a nonzero result keeps 0 < unit < p^precision.
    A zero certified to no positive depth is refused."""
    if u % p**n == 0 and v + n <= 0:
        for modulus in (None, p**n):
            with pytest.raises(PrecisionExhausted):
                Padic.from_unit(p, v, u, n, modulus)
        return
    x = _from_unit_oracle(p, v, u, n)
    assert Padic.from_unit(p, v, u, n) == Padic.from_unit(p, v, u, n, p**n) == x
    if x.unit is not None:
        assert 0 < x.unit < p**x.precision and x.unit % p


def test_certified_zero_bookkeeping():
    x = Padic.from_int(7, 5, 10)
    z = x - x
    assert z.is_zero and z.precision == 10
    assert z.vanishes_to(10) and not z.vanishes_to(11)
    with pytest.raises(PrecisionExhausted):
        Padic.zero(5, 0)


def test_from_fraction_residue():
    x = Padic.from_fraction(Fraction(5, 7), 3, 4)
    assert x.residue(4) == 47  # 5 * 7^(-1) mod 81
    y = Padic.from_fraction(Fraction(1, 3), 3)
    assert y.valuation == -1


@given(primes, small_ints, small_ints)
def test_ultrametric_inequality(p, a, b):
    x, y = Padic.from_int(a, p), Padic.from_int(b, p)
    s = x + y
    assert s.norm <= norm_max([x.norm, y.norm])
    if x.norm != y.norm:
        assert s.norm == norm_max([x.norm, y.norm])


@given(primes, small_ints, small_ints, small_ints)
def test_ring_laws_on_integers(p, a, b, c):
    x, y, z = (Padic.from_int(n, p) for n in (a, b, c))
    assert ((x + y) + z - (x + (y + z))).is_zero
    assert ((x * y) * z - (x * (y * z))).is_zero
    assert (x * (y + z) - (x * y + x * z)).is_zero
    assert (x * y - y * x).is_zero


@given(primes, small_ints, small_ints)
def test_division_inverts_multiplication(p, a, b):
    if b == 0:
        return
    x, y = Padic.from_int(a, p), Padic.from_int(b, p)
    assert (x / y * y - x).is_zero


def test_product_of_certified_zeros_adds_their_bounds():
    # O(p^a) * O(p^b) = O(p^(a+b)), not O(p^min(a, b))
    assert Padic.zero(3, 4) * Padic.zero(3, 7) == Padic.zero(3, 11)
    assert Padic.zero(3, 4) * Padic.zero(3) == Padic.zero(3)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scalar_arithmetic_matches_plain_int_oracle(data):
    """x + y, x - y and x * y on scalars, certified zeros and exact zeros
    against the oracle of test_products, which calls no padicops
    arithmetic.  A sum that vanishes only to a depth <= 0 has no
    certified digit and raises."""
    p = data.draw(primes)
    operands = st.one_of(entries(p), st.just(Padic.zero(p)))
    x, y = data.draw(operands), data.draw(operands)
    for op, terms in ((operator.add, [(x,), (y,)]), (operator.sub, [(x,), (-1, y)]),
                      (operator.mul, [(x, y)])):
        want = _oracle_entry(p, terms)
        if want[1] is None and want[2] is not None and want[2] <= 0:
            with pytest.raises(PrecisionExhausted):
                op(x, y)
        else:
            assert _triple(op(x, y)) == want


def test_division_by_zero_raises():
    with pytest.raises(DivisionByZero):
        Padic.one(3) / Padic.zero(3)


@given(primes, small_ints)
def test_arithmetic_matches_integers(p, a):
    # the embedding of Z is a ring homomorphism on residues
    x = Padic.from_int(a, p)
    sq = x * x
    depth = 12
    if a != 0 and sq.valuation + sq.precision >= depth and a * a >= 0:
        assert sq.residue(depth) == (a * a) % p**depth


def test_cap_absolute_folds_tail():
    x = Padic.from_int(1 + 3**5, 3, 40)
    capped = x.cap_absolute(5)
    assert capped.residue(5) == 1 and capped.absolute_precision == 5
    deep = Padic.from_int(3**7, 3, 40)
    assert deep.cap_absolute(5).is_zero


def test_valuation_bound_order():
    zero = ValuationBound.zero()
    assert zero < ValuationBound(3) < ValuationBound(1) < ValuationBound(0)
    assert ValuationBound(0) < ValuationBound(-2)
    assert str(ValuationBound(2)) == "p^-2"
    assert str(zero) == "0"


def test_digit_sum_and_factorial_valuation():
    assert digit_sum(100, 3) == 4
    assert factorial_valuation(100, 3) == 48
    assert factorial_valuation(10, 2) == 8
    for p in (2, 3, 5, 7):
        for n in range(0, 200):
            legendre, q = 0, p
            while q <= n:
                legendre += n // q
                q *= p
            assert factorial_valuation(n, p) == legendre


@given(primes, st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=12))
def test_binomial_is_integral(p, a, k):
    b = binomial_padic(Padic.from_int(a, p), k)
    assert b.is_integral


def test_binomial_matches_combinatorics():
    b = binomial_padic(Padic.from_int(7, 3), 3)
    assert (b - Padic.from_int(35, 3)).vanishes_to(30)
    assert (binomial_padic(Padic.from_int(9, 5), 0) - Padic.one(5)).is_zero


def test_vandermonde_frozen_tables():
    assert vandermonde_coefficients(1, 1) == {1: 1, 2: 2}
    assert vandermonde_coefficients(1, 2) == {2: 2, 3: 3}
    assert vandermonde_coefficients(0, 4) == {4: 1}
    # coefficient formula: l! / ((m+n-l)! (l-m)! (l-n)!)
    table = vandermonde_coefficients(3, 2)
    assert table == {l: math.factorial(l)
                     // (math.factorial(5 - l) * math.factorial(l - 3) * math.factorial(l - 2))
                     for l in range(3, 6)}


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8),
       st.integers(min_value=0, max_value=400))
def test_vandermonde_identity_pointwise(m, n, a):
    # binom(a,m) binom(a,n) = sum_l c_l binom(a,l) over plain integers
    lhs = math.comb(a, m) * math.comb(a, n)
    rhs = sum(c * math.comb(a, l) for l, c in vandermonde_coefficients(m, n).items())
    assert lhs == rhs


def test_teichmuller_values():
    t = teichmuller(Padic.from_int(2, 5))
    assert t.residue(1) == 2
    assert t.residue(2) == 7
    assert (t * t * t * t - Padic.one(5)).vanishes_to(39)
    assert teichmuller(Padic.from_int(10, 5)).is_zero
    one = teichmuller(Padic.one(7))
    assert (one - Padic.one(7)).vanishes_to(39)


def test_teichmuller_matches_iterated_pth_power():
    # the oracle iterates y -> y^p mod p^N in plain ints to its fixed point
    rng = random.Random(1904)
    checked = 0
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(1, 201, 3):
            mod = p**n
            for _ in range(2):
                unit = rng.randrange(1, mod)
                while unit % p == 0:
                    unit = rng.randrange(1, mod)
                y = unit
                while pow(y, p, mod) != y:
                    y = pow(y, p, mod)
                assert teichmuller(Padic(p, 0, unit, n)) == Padic(p, 0, y, n)
                checked += 1
    assert checked == 6 * 67 * 2


def test_default_precision_is_forty():
    assert DEFAULT_PRECISION == 40
    assert Padic.from_int(1, 3).precision == 40


def test_padic_is_a_frozen_slots_value():
    """Padic makes its fields through its own __init__, and stays a
    frozen slots dataclass: values are shared, so none can be changed,
    and equality, hash, repr, replace and deepcopy go by the fields."""
    x = Padic(3, 1, 5, 40)
    assert dataclasses.is_dataclass(x) and not hasattr(x, "__dict__")
    assert [f.name for f in dataclasses.fields(Padic)] == ["prime", "valuation", "unit", "precision"]
    for name, value in (("prime", 5), ("valuation", 0), ("unit", 7), ("precision", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del x.unit
    assert x == Padic(prime=3, valuation=1, unit=5, precision=40)
    assert hash(x) == hash(Padic(3, 1, 5, 40))
    assert x != Padic(3, 1, 5, 39) and x != Padic(3, 1, 7, 40)
    assert len({x, Padic(3, 1, 5, 40), Padic.zero(3), Padic.zero(3, 4)}) == 3
    assert repr(x) == "Padic(prime=3, valuation=1, unit=5, precision=40)"
    assert repr(Padic.zero(3, 4)) == "Padic(prime=3, valuation=None, unit=None, precision=4)"
    assert dataclasses.replace(x, unit=7) == Padic(3, 1, 7, 40)
    assert x.unit == 5
    for v in (x, Padic.zero(3, 4), Padic.zero(3)):
        back = copy.deepcopy(v)
        assert back == v and back.unit == v.unit and back.precision == v.precision
    with pytest.raises(TypeError):
        Padic(3, 1, 5)

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicops.errors import NonIntegral, PrecisionExhausted
from padicops.mahler import MahlerFunction, mahler_eval, mahler_expand, mahler_sup_norm
from padicops.scalars import Padic, ValuationBound, binomial_padic


def samples_of(f, p, count):
    return [Padic.from_int(f(n), p) for n in range(count)]


def test_expand_square_function():
    fn = mahler_expand(samples_of(lambda n: n * n, 3, 5))
    assert len(fn.coefficients) == 5
    c = fn.coefficients
    assert c[0].is_zero
    assert c[1].residue(10) == 1
    assert c[2].residue(10) == 2
    # forward differences of exact samples vanish from order 3 on, but
    # the inputs carry finite precision, so the zeros stay certified
    # rather than exact and are not trimmed away
    assert c[3].is_zero and c[3].precision is not None
    assert c[4].is_zero and c[4].precision is not None


def test_expand_trims_exact_zero_tail():
    zeros = [Padic.from_int(0, 3) for _ in range(4)]
    assert mahler_expand(zeros).coefficients == ()
    ones = [Padic.from_int(1, 3) for _ in range(3)]
    fn = mahler_expand(ones)
    # certified (finite precision) zero differences survive the trim
    assert len(fn.coefficients) == 3
    assert fn.coefficients[0].residue(5) == 1
    assert fn.coefficients[1].is_zero and fn.coefficients[1].precision is not None


def test_eval_reproduces_samples():
    fn = mahler_expand(samples_of(lambda n: n * n, 3, 5))
    for n in range(7):
        got = mahler_eval(fn, Padic.from_int(n, 3))
        assert (got - Padic.from_int(n * n, 3)).vanishes_to(30)


def test_linear_function_round_trip():
    fn = mahler_expand(samples_of(lambda n: 3 * n + 1, 5, 4))
    got = mahler_eval(fn, Padic.from_int(100, 5))
    assert (got - Padic.from_int(301, 5)).vanishes_to(30)


def test_sup_norm_is_max_coefficient_norm():
    fn = mahler_expand(samples_of(lambda n: n * n, 3, 5))
    assert mahler_sup_norm(fn) == ValuationBound(0)
    scaled = mahler_expand([Padic.from_int(9 * n, 3) for n in range(3)])
    assert mahler_sup_norm(scaled) == ValuationBound(2)


def test_tail_bound_caps_evaluation():
    fn = MahlerFunction(3, (Padic.one(3),), ValuationBound(5))
    got = mahler_eval(fn, Padic.from_int(4, 3))
    assert got.absolute_precision == 5
    assert got.residue(5) == 1
    assert mahler_sup_norm(fn) == ValuationBound(0)


def test_tail_bound_can_dominate_norm():
    fn = MahlerFunction(3, (Padic.from_int(9, 3),), ValuationBound(1))
    assert mahler_sup_norm(fn) == ValuationBound(1)


def test_integrality_enforced():
    bad = Padic.one(3) / Padic.from_int(3, 3)
    with pytest.raises(NonIntegral):
        mahler_expand([bad])
    with pytest.raises(NonIntegral):
        MahlerFunction(3, (bad,), ValuationBound.zero())
    with pytest.raises(NonIntegral):
        MahlerFunction(3, (), ValuationBound(-1))
    with pytest.raises(NonIntegral):
        mahler_eval(MahlerFunction(3, (), ValuationBound.zero()), bad)


def test_empty_expansion_is_zero_function():
    fn = mahler_expand([], prime=7)
    assert fn.coefficients == ()
    assert mahler_eval(fn, Padic.from_int(3, 7)).is_zero
    assert mahler_sup_norm(fn).is_zero


def test_eval_at_zero_keeps_coefficient_precision():
    # binom(0, 0) = 1 exactly: T_0 is returned with all its digits
    t0 = Padic.from_int(7, 3, 80)
    fn = MahlerFunction(3, (t0, Padic.from_int(2, 3, 80)), ValuationBound.zero())
    assert mahler_eval(fn, Padic.zero(3)) == t0


def test_eval_keeps_certified_zero_coefficient_bound():
    # f(0) = 1 and f(1) = 1 + O(3^5) give T_1 = O(3^5), so f(1) is known
    # to 5 digits only: the sum once skipped T_1 and returned 40
    one = Padic.one(3, 40)
    fn = mahler_expand([one, Padic.from_unit(3, 0, 1, 5)])
    assert fn.coefficients[1] == Padic.zero(3, 5)
    value = mahler_eval(fn, one)
    assert value == Padic.one(3, 5) and value.absolute_precision == 5
    # binom(x, n) is integral, so O(3^5) at any x adds O(3^5)
    assert mahler_eval(fn, Padic.from_int(7, 3)).absolute_precision == 5
    # an exact zero coefficient adds nothing
    exact = MahlerFunction(3, (one, Padic.zero(3)), ValuationBound.zero())
    assert mahler_eval(exact, one) == one


def _eval_term_by_term(fn, x):
    """The sum of T_n binom(x, n), each binomial formed afresh."""
    total = Padic.zero(fn.prime)
    for n, t in enumerate(fn.coefficients):
        if not t.is_exact_zero:
            total = total + (t if n == 0 or t.is_zero else t * binomial_padic(x, n))
    if not fn.tail_bound.is_zero:
        total = total.cap_absolute(fn.tail_bound.exponent)
    return total


def _scalars(p):
    """Exact and finite-precision scalars of Z_p, certified zeros included."""
    exact = st.tuples(st.integers(0, p**12), st.integers(0, 4)).map(
        lambda t: Padic.from_int(t[0] * p ** t[1], p))
    finite = st.tuples(st.integers(0, p**12), st.integers(0, 4), st.integers(1, 60)).map(
        lambda t: Padic.from_int(t[0] * p ** t[1], p, t[2]))
    zero = st.integers(1, 40).map(lambda n: Padic.zero(p, n))
    return st.one_of(exact, finite, zero, st.just(Padic.zero(p)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(_scalars(p), max_size=12), _scalars(p),
                        st.one_of(st.none(), st.integers(0, 50)))))
def test_eval_walk_rounds_as_each_binomial(case):
    """One falling-product walk gives the value and the precision of
    summing binomial_padic(x, n) term by term, or the same refusal."""
    p, coefficients, x, tail = case
    fn = MahlerFunction(p, tuple(coefficients),
                        ValuationBound.zero() if tail is None else ValuationBound(tail))

    def outcome(evaluate):
        try:
            y = evaluate(fn, x)
        except PrecisionExhausted as exc:  # a tail bound that leaves no digit
            return str(exc)
        return y.valuation, y.unit, y.precision

    assert outcome(mahler_eval) == outcome(_eval_term_by_term)

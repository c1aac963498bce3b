"""One rounding per elimination update.

``scalars.add_product(x, c, y)`` sums the terms x and c * y in one
``_round``.  Its value and precision are those of x + (c * y), where
that is defined, so the three callers (the row updates of
``eliminate_full_pivot`` and ``reduce_columns`` and the accumulation of
``mahler_eval``) answer what the two-step sums answered.  The references
below are those two-step loops as they were, less their comments.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicops.errors import PrecisionExhausted
from padicops.linalg import eliminate_full_pivot, reduce_columns
from padicops.mahler import MahlerFunction, mahler_eval
from padicops.scalars import Padic, ValuationBound, add_product, precision_of

primes = st.sampled_from([2, 3, 5, 7])


@st.composite
def nonzero(draw, p):
    """A small or a huge valuation, a unit and 1 to 20 digits."""
    val = draw(st.one_of(st.integers(-4, 6), st.integers(10**6, 10**6 + 3)))
    prec = draw(st.integers(1, 20))
    unit = draw(st.integers(1, p**prec - 1).filter(lambda u: u % p))
    return Padic(p, val, unit, prec)


def scalars(p):
    """A nonzero scalar, a zero certified to a positive depth, or an
    exact zero."""
    return st.one_of(nonzero(p), st.integers(1, 30).map(lambda d: Padic.zero(p, d)),
                     st.just(Padic.zero(p)))


def _triple(x: Padic) -> tuple:
    return x.valuation, x.unit, x.precision


def _outcome(f, *args):
    """f(*args), or the type of the exception it raised."""
    try:
        return f(*args)
    except PrecisionExhausted as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_add_product_is_x_plus_c_times_y(data):
    """add_product(x, c, y) gives the value and precision of x + (c * y),
    and add_product(x, -c, y) those of x - c * y, the form the row
    updates take.  When c * y alone vanishes to no positive depth, the
    two-step sum refuses it; the fused sum then refuses too, or keeps
    only the digits of x below a depth <= 0."""
    p = data.draw(primes)
    x, c, y = (data.draw(scalars(p)) for _ in range(3))
    for factor, two_step in ((c, lambda: x + (c * y)), (-c, lambda: x - c * y)):
        try:
            factor * y
        except PrecisionExhausted:
            got = _outcome(add_product, x, factor, y)
            assert got is PrecisionExhausted or got.absolute_precision <= 0
            continue
        want = _outcome(two_step)
        got = _outcome(add_product, x, factor, y)
        if want is PrecisionExhausted:
            assert got is PrecisionExhausted
        else:
            assert _triple(got) == _triple(want)


def test_add_product_refuses_mixed_primes():
    with pytest.raises(ValueError):
        add_product(Padic.one(3), Padic.one(3), Padic.one(5))


# -- the two-rounding loops, as they were before the fused update ----------


def _two_step_reduce_columns(columns):
    cols = [{i: v for i, v in c.items() if not v.is_zero} for c in columns]
    out = [None] * len(cols)
    for k, col in enumerate(cols):
        if not col:
            continue
        row = min(col, key=lambda i: (col[i].valuation, i))
        pivot = col[row]
        zero = Padic.zero(pivot.prime)
        cols[k] = {i: v / pivot for i, v in col.items()}
        out[k] = (row, cols[k])
        for j in range(len(cols)):
            if j == k or row not in cols[j]:
                continue
            factor = cols[j][row]
            for i, v in cols[k].items():
                cur = cols[j].get(i, zero) - factor * v
                if cur.is_zero:
                    cols[j].pop(i, None)
                else:
                    cols[j][i] = cur
    return out


def _two_step_eliminate(rows, prime):
    work = [row[:] for row in rows]
    n = len(work)
    det = None
    sign = 1
    valuations = []
    for k in range(n):
        best = None
        for i in range(k, n):
            for j in range(k, n):
                v = work[i][j]
                if not v.is_zero and (best is None or v.valuation < best[0]):
                    best = (v.valuation, i, j)
        if best is None:
            return valuations, Padic.zero(prime)
        _, pi, pj = best
        if pi != k:
            work[k], work[pi] = work[pi], work[k]
            sign = -sign
        if pj != k:
            for row in work[k:]:
                row[k], row[pj] = row[pj], row[k]
            sign = -sign
        pivot = work[k][k]
        valuations.append(pivot.valuation)
        det = pivot if det is None else det * pivot
        for i in range(k + 1, n):
            if work[i][k].is_zero:
                continue
            factor = work[i][k] / pivot
            for j in range(k + 1, n):
                work[i][j] = work[i][j] - factor * work[k][j]
    if det is None:
        return valuations, Padic.one(prime)
    return valuations, det if sign > 0 else -det


def _two_step_mahler_eval(fn, x):
    p, width = fn.prime, precision_of(x)
    total = Padic.zero(p)
    falling, factorial = Padic.one(p, width), 1
    for n, t in enumerate(fn.coefficients):
        if n:
            falling = falling * (x - Padic.from_int(n - 1, p, width))
            factorial *= n
        if t.is_exact_zero:
            continue
        if n == 0 or t.is_zero:
            total = total + t
        else:
            binom = falling / Padic.from_int(factorial, p, width) if n >= 2 else falling
            total = total + t * binom
    if not fn.tail_bound.is_zero:
        total = total.cap_absolute(fn.tail_bound.exponent)
    return total


@st.composite
def blocks(draw, p):
    """An n x n block, n = 1..6: nonzero scalars, certified and exact
    zeros, a whole row of zeros now and then, and with some chance a
    last row that repeats the first, so elimination meets a dependent
    row."""
    n = draw(st.integers(1, 6))
    rows = [[draw(scalars(p)) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        rows[-1] = rows[0][:]
    if draw(st.integers(0, 4)) == 0:
        rows[draw(st.integers(0, n - 1))] = [Padic.zero(p)] * n
    return rows


def _eliminated(eliminate, rows, prime):
    valuations, det = eliminate(rows, prime)
    return valuations, _triple(det)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_eliminate_full_pivot_matches_two_rounding_loop(data):
    """The same pivot valuations and determinant, or the same refusal."""
    p = data.draw(primes)
    rows = data.draw(blocks(p))
    want = _outcome(_eliminated, _two_step_eliminate, rows, p)
    assert _outcome(_eliminated, eliminate_full_pivot, rows, p) == want


def _columns(reduce, columns):
    return [None if r is None else (r[0], {i: _triple(v) for i, v in r[1].items()})
            for r in reduce(columns)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reduce_columns_matches_two_rounding_loop(data):
    """The same pivot rows and reduced columns (which keep only entries
    that are not zero, certified zeros dropped as before), or the same
    refusal."""
    p = data.draw(primes)
    rows = data.draw(blocks(p))
    columns = [{i: row[j] for i, row in enumerate(rows)} for j in range(len(rows))]
    want = _outcome(_columns, _two_step_reduce_columns, columns)
    assert _outcome(_columns, reduce_columns, columns) == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mahler_eval_matches_two_rounding_sum(data):
    p = data.draw(primes)
    coeffs = data.draw(st.lists(scalars(p), max_size=8))
    coeffs = tuple(c if c.is_integral else Padic(p, 0, c.unit, c.precision) for c in coeffs)
    tail = data.draw(st.one_of(st.none(), st.integers(0, 30)))
    fn = MahlerFunction(p, coeffs, ValuationBound(tail))
    x = data.draw(st.one_of(nonzero(p).filter(lambda v: v.is_integral),
                            st.just(Padic.zero(p))))
    want = _outcome(_two_step_mahler_eval, fn, x)
    got = _outcome(mahler_eval, fn, x)
    assert (got if got is PrecisionExhausted else _triple(got)) == \
        (want if want is PrecisionExhausted else _triple(want))

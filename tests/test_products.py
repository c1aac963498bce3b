"""NormalForm.mul and NormalForm.apply round each entry of a product once.

The oracle below works on plain (valuation, unit, precision) triples and
never calls Padic arithmetic: per entry it takes the least absolute
precision over the entry's terms and reduces their exact sum modulo
p^that.  The walk of vanishes_to and norm over a form's positions is
checked against a scan of every entry of a window.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padicops import operators
from padicops.errors import PrecisionExhausted
from padicops.operators import FiniteMatrix, NormalForm, _Tail, normalize
from padicops.scalars import Padic, norm_max
from padicops.vectors import PadicVector


def _up_tail(prime: int, coeff: dict[int, Padic], default: Padic) -> _Tail:
    """Columns j -> coeff(j) * delta_{j+1}, with its inverse certificate."""
    return _Tail(lambda j: j + 1, lambda i: i - 1 if i > 0 else None,
                 coeff, default, True)


def test_cancelled_partial_sum_keeps_its_bound():
    # (5 + O(3^10)) + (-5 + O(3^40)) + 7 is 7 + O(3^10): the cancellation
    # of the first two terms must not drop the bound of the first
    p = 3
    row = FiniteMatrix(p, {(0, 0): Padic.from_int(5, p, 10),
                           (0, 1): Padic.from_int(-5, p, 40),
                           (0, 2): Padic.from_int(7, p, 40)})
    ones = FiniteMatrix(p, {(k, 0): Padic.one(p, 40) for k in range(3)})
    entry = normalize(row).mul(normalize(ones)).head[(0, 0)]
    assert entry == Padic.from_int(7, p, 10)
    assert entry.absolute_precision == 10
    # the same row applied to a vector of three 1 + O(3^40)
    applied = normalize(row).apply(PadicVector(p, {k: Padic.one(p, 40) for k in range(3)}))
    assert applied.entries == {0: Padic.from_int(7, p, 10)}


def test_diagonal_product_makes_one_scalar_product_per_entry(monkeypatch):
    # each entry of a product of diagonals has one term; a loop over all
    # row/column pairs would make n^2 of them
    p, n = 3, 12
    a = normalize(FiniteMatrix(p, {(i, i): Padic.from_int(i + 1, p) for i in range(n)}))
    b = normalize(FiniteMatrix(p, {(i, i): Padic.from_int(2 * i + 1, p) for i in range(n)}))
    seen = {"dot": 0, "terms": 0, "mul": 0}
    dot, mul = operators._dot, Padic.__mul__

    def counting_dot(pairs):
        seen["dot"] += 1
        seen["terms"] += len(pairs)
        return dot(pairs)

    def counting_mul(x, y):
        seen["mul"] += 1
        return mul(x, y)

    monkeypatch.setattr(operators, "_dot", counting_dot)
    monkeypatch.setattr(Padic, "__mul__", counting_mul)
    c = a.mul(b)
    assert seen == {"dot": n, "terms": n, "mul": n + 1}  # and the shifts' product
    assert c.head == {(i, i): Padic.from_int((i + 1) * (2 * i + 1), p) for i in range(n)}


# -- property: NormalForm.mul and apply against a plain-int oracle -------------------

HUGE = 10**6


@st.composite
def scalars(draw, p):
    """A nonzero scalar: a small (possibly negative) or a huge valuation,
    a unit and a relative precision of 1 to 40 digits."""
    val = draw(st.one_of(st.integers(-5, 5), st.integers(HUGE, HUGE + 5)))
    prec = draw(st.integers(1, 40))
    unit = draw(st.integers(1, p**prec - 1).filter(lambda u: u % p))
    return Padic(p, val, unit, prec)


@st.composite
def forms(draw, p, n, with_shift, with_tail):
    """A normal form whose head lives on the n x n window."""
    cells = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         min_size=1, max_size=n * n))
    head = {cell: draw(scalars(p)) for cell in sorted(cells)}
    shift = draw(scalars(p)) if with_shift else Padic.zero(p)
    tail = None
    if with_tail:
        # a coefficient may be a certified zero: no digits, but a bound,
        # deep enough that a factor of valuation -5 leaves it positive
        coeff_values = st.one_of(scalars(p), st.integers(6, 50).map(lambda c: Padic.zero(p, c)))
        coeff = draw(st.dictionaries(st.integers(0, n), coeff_values, max_size=n))
        tail = _up_tail(p, coeff, draw(scalars(p)))
    return NormalForm(p, shift, tail, head)


def _entry_terms(a: NormalForm, b: NormalForm, n: int):
    """Every term of every head entry of a.b, as pairs of scalars, by
    position.  Every index pair of a window past both heads is visited."""
    span = range(n + 2)
    terms: dict[tuple[int, int], list[tuple[Padic, Padic]]] = {}

    def add(i, j, x, y):
        terms.setdefault((i, j), []).append((x, y))

    for i in span:
        for j in span:
            for k in span:
                if (i, k) in a.head and (k, j) in b.head:
                    add(i, j, a.head[(i, k)], b.head[(k, j)])
            if (i, j) in b.head and not a.shift.is_zero:
                add(i, j, a.shift, b.head[(i, j)])
            if (i, j) in a.head and not b.shift.is_zero:
                add(i, j, a.head[(i, j)], b.shift)
            if a.tail is not None and (i - 1, j) in b.head:
                add(i, j, a.tail.coeff_at(i - 1), b.head[(i - 1, j)])
            if b.tail is not None and (i, j + 1) in a.head:
                add(i, j, a.head[(i, j + 1)], b.tail.coeff_at(j))
    return terms


def _oracle_entry(p: int, pairs) -> tuple:
    """(valuation, unit, precision) of the sum of the products, or
    (None, None, bound) when it vanishes to its bound (None: exactly)."""
    known = []  # (valuation, unit) of each product with digits
    bound = None
    for x, y in pairs:
        if x.valuation is None or y.valuation is None:  # a certified zero factor
            zero, other = (x, y) if x.valuation is None else (y, x)
            top = zero.precision + other.valuation
        else:
            top = x.valuation + y.valuation + min(x.precision, y.precision)
            known.append((x.valuation + y.valuation, x.unit * y.unit))
        bound = top if bound is None else min(bound, top)
    if not known:
        return None, None, bound
    low = min(v for v, _ in known)
    if bound <= low:
        return None, None, bound
    mod = p ** (bound - low)
    total = sum(u * pow(p, v - low, mod) for v, u in known if v - low < bound - low) % mod
    if total == 0:
        return None, None, bound
    shift = 0
    while total % p == 0:
        total //= p
        shift += 1
    val = low + shift
    return val, total % p ** (bound - val), bound - val


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mul_matches_plain_int_oracle(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 4))
    a_tail, b_tail = data.draw(st.booleans()), data.draw(st.booleans())
    # a product of two tails needs both shifts zero
    shifts = not (a_tail and b_tail)
    a = data.draw(forms(p, n, shifts and data.draw(st.booleans()), a_tail))
    b = data.draw(forms(p, n, shifts and data.draw(st.booleans()), b_tail))
    want, exhausted = {}, False
    for key, pairs in _entry_terms(a, b, n).items():
        val, unit, prec = _oracle_entry(p, pairs)
        if unit is not None:
            want[key] = val, unit, prec
        elif prec is not None and prec <= 0:
            exhausted = True
    if exhausted:
        # an entry that vanishes only to a depth <= 0 has no certified
        # digit, and the product refuses it as a scalar sum does
        with pytest.raises(PrecisionExhausted):
            a.mul(b)
        return
    got = {key: (v.valuation, v.unit, v.precision) for key, v in a.mul(b).head.items()}
    assert got == want


def _apply_terms(a: NormalForm, x: dict[int, Padic], n: int):
    """Every term of every entry of a.x, as pairs of scalars, by index."""
    terms: dict[int, list[tuple[Padic, Padic]]] = {}
    for i in range(n + 2):
        for j, xj in x.items():
            if (i, j) in a.head:
                terms.setdefault(i, []).append((a.head[(i, j)], xj))
            if i == j and not a.shift.is_zero:
                terms.setdefault(i, []).append((a.shift, xj))
            if a.tail is not None and i == j + 1:
                terms.setdefault(i, []).append((a.tail.coeff_at(j), xj))
    return terms


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_apply_matches_plain_int_oracle(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 4))
    a = data.draw(forms(p, n, data.draw(st.booleans()), data.draw(st.booleans())))
    x = data.draw(st.dictionaries(st.integers(0, n), scalars(p), min_size=1, max_size=n + 1))
    want, exhausted = {}, False
    for i, pairs in _apply_terms(a, x, n).items():
        val, unit, prec = _oracle_entry(p, pairs)
        if unit is not None:
            want[i] = val, unit, prec
        elif prec is not None and prec <= 0:
            exhausted = True
    if exhausted:
        with pytest.raises(PrecisionExhausted):
            a.apply(PadicVector(p, x))
        return
    got = {i: (v.valuation, v.unit, v.precision)
           for i, v in a.apply(PadicVector(p, x)).entries.items()}
    assert got == want


# -- property: the position walk of vanishes_to and norm ---------------------------


def _scan(form: NormalForm, n: int) -> list[Padic] | None:
    """entry(i, j) at every position of the (n + 2) x (n + 2) window, which
    holds the head and every tail override, or None when an entry has no
    certified digit."""
    try:
        return [form.entry(i, j) for i in range(n + 2) for j in range(n + 2)]
    except PrecisionExhausted:
        return None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_position_walk_matches_entry_scan(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 4))
    a = data.draw(forms(p, n, data.draw(st.booleans()), True))
    # an override outside the head is a position only the tail walk reaches
    assume(any((j + 1, j) not in a.head for j in a.tail.coeff))
    depth = data.draw(st.integers(-6, 60))
    # beyond the window every entry is the shift or the tail default
    entries = _scan(a, n)
    if entries is not None:
        want = (a.shift.vanishes_to(depth) and a.tail.default.vanishes_to(depth)
                and all(v.vanishes_to(depth) for v in entries))
        assert a.vanishes_to(depth) == want
    # with no shift and no tail default the norm is the window's
    finite = NormalForm(p, Padic.zero(p), _up_tail(p, a.tail.coeff, Padic.zero(p)), a.head)
    entries = _scan(finite, n)
    if entries is None:
        with pytest.raises(PrecisionExhausted):
            finite.norm()
    else:
        assert finite.norm() == norm_max(v.norm for v in entries)

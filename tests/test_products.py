"""NormalForm.mul, NormalForm.combine and NormalForm.apply round each
entry of a product, of a linear combination and of a fused multiply-add
once.

The oracle below works on plain (valuation, unit, precision) triples and
never calls Padic arithmetic: per entry it takes the least absolute
precision over the entry's terms and reduces their exact sum modulo
p^that.  A term is a product of scalars and exact int coefficients.
vanishes_to and norm, which walk a form's head, are checked against a
scan of every entry of a window.  A structured tail has one coefficient;
an index map's exceptions are head entries.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padicops import operators
from padicops.errors import PrecisionExhausted, StructureError
from padicops.operators import FiniteMatrix, IndexMap, NormalForm, _Tail, normalize
from padicops.scalars import Padic, norm_max, precision_of
from padicops.vectors import PadicVector


def _up_tail(prime: int, default: Padic) -> _Tail:
    """Columns j -> default * delta_{j+1}, with its inverse certificate."""
    return _Tail(lambda j: j + 1, lambda i: i - 1 if i > 0 else None, default, True)


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


def test_cancelled_partial_sum_of_forms_keeps_its_bound():
    # the same sum as one combine of three forms: summing (5 + O(3^10))
    # - (5 + O(3^40)) first once dropped the cancelled entry, bound and all
    p = 3

    def form(n, prec):
        return normalize(FiniteMatrix(p, {(0, 0): Padic.from_int(n, p, prec)}))

    entry = NormalForm.combine([(1, form(5, 10)), (-1, form(5, 40)), (1, form(7, 40))]).head[(0, 0)]
    assert entry == Padic.from_int(7, p, 10)
    assert entry.absolute_precision == 10


@pytest.mark.parametrize("dense, n, rounds, terms", [(False, 12, 12 + 1, 12), (True, 6, 6 * 6 + 1, 6**3)],
                         ids=["diagonal", "dense"])
def test_diagonal_product_makes_one_scalar_product_per_entry(monkeypatch, dense, n, rounds, terms):
    # each entry of a product of diagonals has one term; a loop over all
    # row/column pairs would make n^2 of them.  A dense n x n head has n
    # terms an entry.  The terms are int triples, the shifts' product
    # among them, so no scalar product is made.
    p = 3
    cells = [(i, k) for i in range(n) for k in range(n) if dense or i == k]
    a = normalize(FiniteMatrix(p, {(i, k): Padic.from_int(i + k + 1, p) for i, k in cells}))
    b = normalize(FiniteMatrix(p, {(k, j): Padic.from_int(2 * k + j + 1, p) for k, j in cells}))
    seen = {"round": 0, "terms": 0, "mul": 0}
    rnd, mul = operators._round, Padic.__mul__

    def counting_round(prime, terms, *args):
        seen["round"] += 1
        seen["terms"] += len(terms)
        return rnd(prime, terms, *args)

    def counting_mul(x, y):
        seen["mul"] += 1
        return mul(x, y)

    monkeypatch.setattr(operators, "_round", counting_round)
    monkeypatch.setattr(Padic, "__mul__", counting_mul)
    c = a.mul(b)
    # the head's entries and the shift, a sum of no term
    assert seen == {"round": rounds, "terms": terms, "mul": 0}
    assert {key: _triple(v) for key, v in c.head.items()} == _want(p, _entry_terms(a, b, n))


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


def entries(p):
    """A scalar or a certified zero: no digits, but a bound, deep enough
    that a factor of valuation -5 leaves it positive."""
    return st.one_of(scalars(p), st.integers(6, 50).map(lambda c: Padic.zero(p, c)))


@st.composite
def forms(draw, p, n, with_shift, with_tail):
    """A normal form whose head lives on the n x n window.  A head entry
    may be a certified zero.  With a tail, the head also holds exceptions
    at (j + 1, j), where the tail puts its coefficient, as the form of an
    index map with exceptional coefficients does."""
    cells = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         min_size=1, max_size=n * n))
    head = {cell: draw(entries(p)) for cell in sorted(cells)}
    shift = draw(scalars(p)) if with_shift else Padic.zero(p)
    tail = None
    if with_tail:
        for j, v in draw(st.dictionaries(st.integers(0, n), entries(p), max_size=n)).items():
            head[(j + 1, j)] = v
        tail = _up_tail(p, draw(scalars(p)))
    return NormalForm(p, shift, tail, head)


def ints(p):
    """An exact coefficient: zero, a unit or a multiple of p, either sign."""
    return st.one_of(st.sampled_from([0, 1, -1, p, -p * p]), st.integers(-4 * p * p, 4 * p * p))


def coefficients(p):
    """A coefficient of combine: an exact int, a scalar, or a zero,
    certified or exact."""
    return st.one_of(ints(p), entries(p), st.just(Padic.zero(p)))


def _entry_terms(a: NormalForm, b: NormalForm, n: int):
    """Every term of every head entry of a.b, as pairs of scalars, by
    position.  Every index pair of a window past both heads is visited:
    a head reaches (n + 1, n), and a tail moves it one row down."""
    span = range(n + 3)
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
                add(i, j, a.tail.default, b.head[(i - 1, j)])
            if b.tail is not None and (i, j + 1) in a.head:
                add(i, j, a.head[(i, j + 1)], b.tail.default)
    return terms


def _factor(x, p: int) -> tuple:
    """(valuation, unit, absolute precision) of a factor.  An int is
    exact: precision None.  A zero has valuation None."""
    if isinstance(x, int):
        j = 0
        while x % p == 0:
            x //= p
            j += 1
        return j, x, None
    return x.valuation, x.unit, x.absolute_precision


def _oracle_entry(p: int, terms) -> tuple:
    """(valuation, unit, precision) of the sum of the terms, each a tuple
    of factors (scalars or nonzero ints), or (None, None, bound) when it
    vanishes to its bound (None: exactly)."""
    known = []  # (valuation, unit) of each term with digits
    bound = None
    for term in terms:
        factors = [_factor(x, p) for x in term]
        zeros = [a for v, _, a in factors if v is None]
        if zeros:
            if None in zeros:  # an exact zero factor: no term at all
                continue
            # the certified zeros' bounds, shifted by the other nonzero
            # factors: O(p^a) * O(p^b) = O(p^(a+b))
            rest = sum(v for v, _, _ in factors if v is not None)
            top = sum(zeros) + rest
        else:
            val = sum(v for v, _, _ in factors)
            unit = 1
            for _, u, _ in factors:
                unit *= u
            tops = [a + val - v for v, _, a in factors if a is not None]
            top = min(tops)
            known.append((val, unit))
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


def _want(p: int, terms: dict):
    """The oracle's head: {position: triple} of the positions whose sum
    has digits, or None when one vanishes only to a depth <= 0, which
    has no certified digit and makes the form refuse, as a scalar sum
    does."""
    want = {}
    for key, pairs in terms.items():
        val, unit, prec = _oracle_entry(p, pairs)
        if unit is not None:
            want[key] = val, unit, prec
        elif prec is not None and prec <= 0:
            return None
    return want


def _triple(x: Padic) -> tuple:
    return x.valuation, x.unit, x.precision


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
    want = _want(p, _entry_terms(a, b, n))
    if want is None:
        with pytest.raises(PrecisionExhausted):
            a.mul(b)
        return
    got = {key: _triple(v) for key, v in a.mul(b).head.items()}
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
                terms.setdefault(i, []).append((a.tail.default, xj))
    return terms


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_apply_matches_plain_int_oracle(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 4))
    a = data.draw(forms(p, n, data.draw(st.booleans()), data.draw(st.booleans())))
    x = data.draw(st.dictionaries(st.integers(0, n), scalars(p), min_size=1, max_size=n + 1))
    want = _want(p, _apply_terms(a, x, n))
    if want is None:
        with pytest.raises(PrecisionExhausted):
            a.apply(PadicVector(p, x))
        return
    got = {i: _triple(v) for i, v in a.apply(PadicVector(p, x)).entries.items()}
    assert got == want


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_column_is_apply_of_a_basis_vector(data):
    """A column read off the form equals the form applied to the basis
    vector at precision_of(form), in value and precision, shift, tail
    and certified zeros included; where that product has no digit, the
    read has none either."""
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 4))
    a = data.draw(forms(p, n, data.draw(st.booleans()), data.draw(st.booleans())))
    for j in range(n + 2):
        try:
            want = a.apply(PadicVector.basis(p, j, precision_of(a)))
        except PrecisionExhausted:
            with pytest.raises(PrecisionExhausted):
                a.column(j)
            continue
        assert a.column(j) == want


# -- property: combine and fused mul against the same oracle ---------------------


def _is_exact_zero(k) -> bool:
    return k == 0 if isinstance(k, int) else k.is_exact_zero


def _linear_terms(addend, terms=None, shifts=None):
    """Add the terms k * x of each head entry and shift x of each (k, F)
    of the addend to the position lists and the shift list."""
    terms = {} if terms is None else terms
    shifts = [] if shifts is None else shifts
    for k, form in addend:
        if _is_exact_zero(k):
            continue
        for key, x in form.head.items():
            terms.setdefault(key, []).append((k, x))
        if not form.shift.is_exact_zero:
            shifts.append((k, form.shift))
    return terms, shifts


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_combine_matches_plain_int_oracle(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 4))
    size = data.draw(st.integers(1, 3))
    tailed = data.draw(st.integers(-1, size - 1))  # the one form with a tail, if any
    terms = [(data.draw(coefficients(p)),
              data.draw(forms(p, n, data.draw(st.booleans()), i == tailed)))
             for i in range(size)]
    head_terms, shift_terms = _linear_terms(terms)
    want = _want(p, head_terms)
    if want is None:
        with pytest.raises(PrecisionExhausted):
            NormalForm.combine(terms)
        return
    got = NormalForm.combine(terms)
    assert {key: _triple(v) for key, v in got.head.items()} == want
    assert _triple(got.shift) == _oracle_entry(p, shift_terms)
    k, tailed_form = terms[tailed] if tailed >= 0 else (0, None)
    if tailed_form is None or _is_exact_zero(k):
        assert got.tail is None
    else:
        assert _triple(got.tail.default) == _oracle_entry(p, [(k, tailed_form.tail.default)])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fused_mul_matches_plain_int_oracle(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 4))
    a = data.draw(forms(p, n, data.draw(st.booleans()), False))
    b = data.draw(forms(p, n, data.draw(st.booleans()), False))
    addend = [(data.draw(ints(p)), data.draw(forms(p, n, data.draw(st.booleans()), False)))
              for _ in range(data.draw(st.integers(0, 2)))]
    shifts = [] if a.shift.is_zero or b.shift.is_zero else [(a.shift, b.shift)]
    head_terms, shift_terms = _linear_terms(addend, _entry_terms(a, b, n), shifts)
    want = _want(p, head_terms)
    if want is None:
        with pytest.raises(PrecisionExhausted):
            a.mul(b, addend)
        return
    got = a.mul(b, addend)
    assert {key: _triple(v) for key, v in got.head.items()} == want
    assert _triple(got.shift) == _oracle_entry(p, shift_terms)


def _entries(form: NormalForm, keys):
    try:
        return {key: form.entry(*key) for key in keys}
    except PrecisionExhausted:
        return None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fused_mul_with_a_tail_is_mul_then_combine(data):
    """With a structured tail in an operand or in the addend, the fused
    product is the product followed by a combine, entry for entry.  Where
    an entry of the plain product a.b vanishes, the two-step sum drops it
    and its bound (hole A), so the case is left to the oracle tests."""
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 4))
    where = data.draw(st.sampled_from(["a", "b", "addend"]))
    a = data.draw(forms(p, n, data.draw(st.booleans()), where == "a"))
    b = data.draw(forms(p, n, data.draw(st.booleans()), where == "b"))
    f = data.draw(forms(p, n, data.draw(st.booleans()), where == "addend"))
    k = data.draw(ints(p))
    if any(_oracle_entry(p, pairs)[1] is None for pairs in _entry_terms(a, b, n).values()):
        return
    try:
        fused = a.mul(b, [(k, f)])
        two_step = NormalForm.combine([(1, a.mul(b)), (k, f)])
    except PrecisionExhausted:
        return
    keys = set(fused.head) | set(two_step.head)
    got, want = _entries(fused, keys), _entries(two_step, keys)
    if got is None or want is None:
        return
    assert got == want
    assert fused.shift == two_step.shift
    assert (fused.tail is None) == (two_step.tail is None)
    if fused.tail is not None:
        assert fused.tail.default == two_step.tail.default


def test_two_tails_in_a_sum_have_no_normal_form():
    p = 3
    one = Padic.one(p)
    tailed = NormalForm(p, Padic.zero(p), _up_tail(p, one), {})
    with pytest.raises(StructureError):
        NormalForm.combine([(1, tailed), (2, tailed)])
    with pytest.raises(StructureError):
        # the product's tail and the addend's
        tailed.mul(NormalForm.constant(p, one), addend=[(1, tailed)])
    # an exact zero coefficient drops its form, tail and all
    assert NormalForm.combine([(1, tailed), (0, tailed)]).tail is tailed.tail


# -- property: vanishes_to and norm against an entry scan ------------------------


def _scan(form: NormalForm, n: int) -> list[Padic] | None:
    """entry(i, j) at every position of the (n + 2) x (n + 2) window, which
    holds the head, or None when an entry has no certified digit."""
    try:
        return [form.entry(i, j) for i in range(n + 2) for j in range(n + 2)]
    except PrecisionExhausted:
        return None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_norm_and_vanishes_to_match_entry_scan(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 4))
    a = data.draw(forms(p, n, data.draw(st.booleans()), True))
    depth = data.draw(st.integers(-6, 60))
    # beyond the window every entry is the shift or the tail default
    entries = _scan(a, n)
    if entries is not None:
        want = (a.shift.vanishes_to(depth) and a.tail.default.vanishes_to(depth)
                and all(v.vanishes_to(depth) for v in entries))
        assert a.vanishes_to(depth) == want
    # with no shift and no tail default the norm is the window's
    finite = NormalForm(p, Padic.zero(p), _up_tail(p, Padic.zero(p)), a.head)
    entries = _scan(finite, n)
    if entries is None:
        with pytest.raises(PrecisionExhausted):
            finite.norm()
    else:
        assert finite.norm() == norm_max(v.norm for v in entries)


# -- an index map's exceptional coefficients live in the head ----------------------


# (dest, inv) of two injective callable index maps
MAPS = [(lambda j: j + 1, lambda i: i - 1 if i > 0 else None),
        (lambda j: 2 * j, lambda i: i // 2 if i % 2 == 0 else None)]


def integral_entries(p):
    """A coefficient of an index map: an integral scalar or a certified zero."""
    return entries(p).filter(lambda x: x.is_integral)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_index_map_exceptions_read_back_at_their_positions(data):
    """normalize(IndexMap(callable, coeff)) has coeff_at(j) at (dest(j), j):
    the default where j has no exception, else the exception known to the
    lesser of its precision and the default's; and 0 elsewhere on the
    window."""
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 5))
    dest, inv = data.draw(st.sampled_from(MAPS))
    coeff = data.draw(st.dictionaries(st.integers(0, n), integral_entries(p), max_size=n + 1))
    op = IndexMap(p, dest, coeff, data.draw(integral_entries(p)), inv, True)
    nf = normalize(op)
    for j in range(n + 1):
        for i in range(2 * n + 2):
            got = nf.entry(i, j)
            if i != dest(j):
                assert got.is_exact_zero
                continue
            want = op.coeff_at(j)
            if j not in coeff:
                assert got == want
            top = min(x.absolute_precision for x in (want, op.default_coeff))
            assert got.absolute_precision == top
            assert (got - want).vanishes_to(top)


def test_a_certified_zero_exception_keeps_its_bound():
    """An exception 1 + O(3^5) under a default 1 + O(3^80) differs from it
    by O(3^5): the head keeps that certified zero, so the entry reads back
    known to 5 digits, not as the default's 80."""
    p = 3
    dest, inv = MAPS[0]
    op = IndexMap(p, dest, {0: Padic.from_int(1, p, 5)}, Padic.from_int(1, p, 80), inv, True)
    nf = normalize(op)
    assert nf.head == {(1, 0): Padic.zero(p, 5)}
    assert nf.entry(1, 0).absolute_precision == 5
    assert nf.entry(2, 1).absolute_precision == 80

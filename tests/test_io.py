import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicops.errors import ParseError
from padicops.io import (exponent_str, file_header, mahler_from_obj,
                         mahler_to_obj, operator_from_json, operator_to_obj,
                         scalar_from_text, scalar_to_text, tsv_table)
from padicops.mahler import mahler_expand
from padicops.operators import (Adjoint, Diagonal, FiniteMatrix, Identity,
                                IndexMap, Product, ScalarMul, Sum, op_agree)
from padicops.mahler import MahlerFunction
from padicops.scalars import Padic, ValuationBound, precision_of


def test_scalar_text_examples():
    assert scalar_to_text(Padic.from_int(28, 3)) == "3^0*1001"
    assert scalar_to_text(Padic.from_int(45, 3)) == "3^2*21"
    assert scalar_to_text(Padic.zero(3)) == "0"
    assert scalar_to_text(Padic.from_fraction(1, 3) / Padic.from_int(9, 3)) == "3^-2*1"
    # dot-separated digits past base 9
    assert scalar_to_text(Padic.from_int(14, 11)) == "11^0*3.1"


@given(st.sampled_from([2, 3, 5, 11]), st.integers(min_value=-10**7, max_value=10**7))
def test_scalar_text_round_trip(p, n):
    if n == 0:
        return
    x = Padic.from_int(n, p)
    assert scalar_from_text(scalar_to_text(x), p) == x


def _digit_loop_text(x):
    """scalar_to_text as a digit loop: one divmod per base-p digit."""
    digits = []
    u = x.unit
    while u:
        u, r = divmod(u, x.prime)
        digits.append(r)
    sep = "" if x.prime < 10 else "."
    return f"{x.prime}^{x.valuation}*{sep.join(str(d) for d in digits)}"


def _digit_loop_unit(body, p):
    """The unit that scalar_from_text reads from a body, by a digit loop."""
    digits = [int(d) for d in (body if p < 10 else body.split("."))]
    unit = 0
    for d in reversed(digits):
        unit = unit * p + d
    return unit


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(-5, 5),
       st.one_of(st.integers(1, 60), st.integers(600, 1500)), st.data())
def test_scalar_text_is_the_digit_loop(p, val, precision, data):
    """Chunked digits out and int() in give the digit loops' text and
    unit, from one digit to past int()'s limit on str-to-int digits."""
    unit = data.draw(st.one_of(st.integers(1, p**precision - 1), st.just(p**precision - 1),
                               st.sampled_from([1, p + 1, p**(precision // 2) + 1]))
                     .filter(lambda u: 0 < u < p**precision and u % p))
    x = Padic(p, val, unit, precision)
    text = scalar_to_text(x)
    assert text == _digit_loop_text(x)
    assert _digit_loop_unit(text.split("*")[1], p) == unit
    assert scalar_from_text(text, p, precision) == x


def test_scalar_parse_rejects_garbage():
    for text in ("3^0", "3^0*", "x", "3^0*9", "3^0*1.2", "3^0*3", "3^0*0"):
        with pytest.raises(ParseError):
            scalar_from_text(text, 3)
    with pytest.raises(ParseError):
        scalar_from_text("5^0*1", 3)  # prime mismatch
    with pytest.raises(ParseError):
        scalar_from_text("3^0*" + "1" * 45, 3)  # wider than the window


@pytest.mark.parametrize("body, message", [
    ("9", "digit out of range for base 3"),
    ("1.2", "dot-separated digits need p >= 10"),
    ("12.9", "dot-separated digits need p >= 10"),
    ("1" * 700 + "5", "digit out of range for base 3"),
    ("1" * 700 + ".1", "dot-separated digits need p >= 10"),
    ("01", "unit part must be a p-adic unit"),
])
def test_scalar_parse_names_the_bad_digit(body, message):
    """At p < 10 a dot is reported before a digit out of range, in the
    first int() chunk or past it."""
    with pytest.raises(ParseError, match=message):
        scalar_from_text(f"3^0*{body}", 3, 1000)


def test_scalar_parse_accepts_whitespace_and_zero():
    assert scalar_from_text(" 0 ", 7).is_zero
    assert scalar_from_text("7^-1*3", 7).valuation == -1


def test_operator_json_round_trip():
    ops = [
        FiniteMatrix(3, {(0, 1): Padic.from_int(5, 3), (2, 2): Padic.from_int(-1, 3)}),
        Diagonal(3, {0: Padic.from_int(9, 3)}, Padic.one(3)),
        Identity(3),
        IndexMap(3, {0: 3, 1: 0}, {0: Padic.from_int(2, 3)}),
        Sum([Identity(3), ScalarMul(Padic.from_int(2, 3), FiniteMatrix(3, {(1, 0): Padic.one(3)}))]),
        Product([Identity(3), Adjoint(FiniteMatrix(3, {(0, 2): Padic.from_int(7, 3)}))]),
    ]
    for op in ops:
        text = json.dumps(operator_to_obj(op))
        back = operator_from_json(text)
        assert type(back) is type(op)
        assert op_agree(back, op, 39)
        # serialization is canonical: entries sorted, stable text
        assert json.dumps(operator_to_obj(back)) == text


def test_operator_json_header_and_errors():
    obj = operator_to_obj(Identity(5), precision=12)
    assert obj == {"p": 5, "precision": 12, "kind": "identity"}
    with pytest.raises(ParseError):
        operator_from_json("{not json")
    with pytest.raises(ParseError):
        operator_from_json(json.dumps({"kind": "identity"}))
    with pytest.raises(ParseError):
        operator_from_json(json.dumps({"p": 3, "precision": 0, "kind": "identity"}))
    with pytest.raises(ParseError):
        operator_from_json(json.dumps({"p": 3, "precision": 40, "kind": "mystery"}))
    with pytest.raises(ParseError):
        operator_from_json(json.dumps({"p": 3, "precision": 40, "kind": "sum"}))


def test_header_precision_is_precision_of():
    """The writer reads the header precision off the scalars it writes;
    for every node kind that is precision_of(op, default=fallback), the
    fallback included when op holds no nonzero scalar."""
    p = 3
    x20, x30, x80 = (Padic.from_int(2, p, k) for k in (20, 30, 80))
    finite = FiniteMatrix(p, {(0, 1): x20, (2, 2): x30})
    ops = [
        finite,
        FiniteMatrix(p, {}),
        Diagonal(p, {0: x20, 1: Padic.zero(p, 60)}, Padic.zero(p, 90)),
        Diagonal(p, {0: Padic.zero(p), 1: Padic.zero(p, 50)}),
        Diagonal(p, {0: Padic.zero(p)}, x30),
        Identity(p, 80),
        Identity(p, 12),
        IndexMap(p, {0: 3, 1: 0}, {0: x20, 1: Padic.zero(p, 70)}, x30),
        IndexMap(p, {0: 3}, {}, Padic.zero(p, 30)),
        Sum([finite, Identity(p, 80)]),
        Sum([FiniteMatrix(p, {}), Diagonal(p, {0: Padic.zero(p, 9)})]),
        Product([Identity(p, 12), Adjoint(finite)]),
        ScalarMul(x80, Identity(p, 12)),
        ScalarMul(Padic.zero(p, 99), finite),
        ScalarMul(Padic.zero(p), FiniteMatrix(p, {})),
        Adjoint(Diagonal(p, {}, x80)),
        Adjoint(FiniteMatrix(p, {})),
    ]
    for op in ops:
        for fallback in (40, 80, 7):
            obj = operator_to_obj(op, fallback=fallback)
            assert obj["precision"] == precision_of(op, default=fallback), (op, fallback)
            assert operator_to_obj(op, 55, fallback)["precision"] == 55
    for coefficients in ((), (Padic.zero(p),), (Padic.zero(p, 60), x20), (x30, Padic.zero(p), x80)):
        fn = MahlerFunction(p, coefficients, ValuationBound.zero())
        for fallback in (40, 80):
            assert mahler_to_obj(fn, p, fallback)["precision"] == precision_of(fn, default=fallback)


def test_file_header_takes_only_json_integers():
    assert file_header({"p": 3, "precision": 40}) == (3, 40, None)
    assert file_header({"p": 3, "precision": 40, "tail_exponent": -2}) == (3, 40, -2)
    for bad in ({"p": 3.7, "precision": 40}, {"p": 3, "precision": 40.9},
                {"p": 3.0, "precision": 40}, {"p": 3, "precision": True},
                {"p": True, "precision": 40}, {"p": "3", "precision": 40},
                {"p": 3, "precision": "40"}, {"p": 3},
                {"p": 3, "precision": 40, "tail_exponent": 1.5},
                {"p": 3, "precision": 40, "tail_exponent": True},
                {"p": 3, "precision": 40, "tail_exponent": "4"}):
        with pytest.raises(ParseError):
            file_header(bad)


def test_callable_index_map_has_no_file_form():
    m = IndexMap(3, lambda x: x + 1, inv=lambda x: x - 1 if x else None,
                 infinite_domain=True)
    with pytest.raises(ParseError):
        operator_to_obj(m)


def test_mahler_round_trip():
    fn = mahler_expand([Padic.from_int(n * n, 3) for n in range(5)])
    obj = mahler_to_obj(fn, 3)
    assert obj["kind"] == "mahler" and obj["tail_exponent"] is None
    back = mahler_from_obj(obj)
    assert back.prime == 3
    assert len(back.coefficients) == len(fn.coefficients)
    for mine, theirs in zip(fn.coefficients, back.coefficients):
        assert (mine - theirs).vanishes_to(39)
    bounded = mahler_from_obj({"p": 3, "precision": 40, "coefficients": ["3^1*1"],
                               "tail_exponent": 4})
    assert bounded.tail_bound == ValuationBound(4)


def test_mahler_obj_errors():
    with pytest.raises(ParseError):
        mahler_from_obj({"p": 3, "coefficients": []})
    with pytest.raises(ParseError):
        mahler_from_obj({"p": 3, "precision": 40, "coefficients": ["junk"]})


def test_tsv_table_layout():
    out = tsv_table(["n", "value"], [[0, "a"], [1, "b"]])
    assert out == "n\tvalue\n0\ta\n1\tb\n"


def test_exponent_str():
    assert exponent_str(ValuationBound(3)) == "3"
    assert exponent_str(ValuationBound(-2)) == "-2"
    assert exponent_str(ValuationBound.zero()) == "inf"

from fractions import Fraction

import pytest

from padicops.errors import NonIntegral, StructureError, Undecidable
from padicops.idempotents import sum_ring_generators
from padicops.operators import (Adjoint, Diagonal, FiniteMatrix, Identity,
                                IndexMap, NormalForm, Product, ScalarMul, Sum, is_compact,
                                nf_polynomial, normalize, op_agree, op_apply,
                                op_column, op_norm, truncate,
                                weighted_shift_matrix)
from padicops.mahler import MahlerFunction
from padicops.scalars import (DEFAULT_PRECISION, Padic, ValuationBound,
                              precision_of)
from padicops.vectors import PadicVector, pairing


def fm(p, table):
    return FiniteMatrix(p, {k: Padic.from_int(v, p) for k, v in table.items()})


def up_shift(p):
    return IndexMap(p, lambda x: x + 1,
                    inv=lambda x: x - 1 if x > 0 else None, infinite_domain=True)


def test_finite_matrix_normal_form():
    a = fm(3, {(0, 1): 2, (2, 0): 9})
    nf = normalize(a)
    assert nf.entry(0, 1).residue(5) == 2
    assert nf.entry(2, 0).valuation == 2
    assert nf.entry(1, 1).is_zero
    assert nf.column(0).support == [2]


def test_diagonal_entries_and_norm():
    d = Diagonal(3, {1: Padic.from_int(3, 3)}, Padic.one(3))
    nf = normalize(d)
    assert nf.entry(0, 0).residue(5) == 1
    assert nf.entry(1, 1).residue(5) == 3
    assert nf.entry(7, 7).residue(5) == 1
    assert op_norm(d) == ValuationBound(0)
    loud = Diagonal(3, {0: Padic.one(3) / Padic.from_int(3, 3)}, Padic.one(3))
    assert op_norm(loud) == ValuationBound(-1)


def test_identity_norm_and_entries():
    i = Identity(5)
    assert op_norm(i) == ValuationBound(0)
    assert normalize(i).entry(11, 11).residue(3) == 1
    assert not is_compact(i)


def test_index_map_finite_dict():
    m = IndexMap(3, {0: 2, 1: 3}, {0: Padic.from_int(2, 3)})
    assert op_column(m, 0).entries == {2: Padic.from_int(2, 3)}
    assert op_column(m, 1).get(3).residue(4) == 1
    assert op_column(m, 5).entries == {}
    t = normalize(Adjoint(m))
    assert t.entry(0, 2).residue(4) == 2
    assert t.entry(1, 3).residue(4) == 1
    assert op_column(Adjoint(m), 2).entries == {0: Padic.from_int(2, 3)}


def test_index_map_non_injective_adjoint():
    m = IndexMap(3, {0: 4, 1: 4})
    t = normalize(Adjoint(m))
    assert t.entry(0, 4).residue(3) == 1
    assert t.entry(1, 4).residue(3) == 1
    assert op_column(Adjoint(m), 4).support == [0, 1]


def test_sum_and_product_match_dense_oracle(rng):
    p, size = 5, 4
    for _ in range(10):
        at = {(rng.randrange(size), rng.randrange(size)): rng.randrange(-20, 20)
              for _ in range(6)}
        bt = {(rng.randrange(size), rng.randrange(size)): rng.randrange(-20, 20)
              for _ in range(6)}
        a, b = fm(p, at), fm(p, bt)
        prod = normalize(Product([a, b]))
        tot = normalize(Sum([a, b]))
        for i in range(size):
            for j in range(size):
                want_p = sum(at.get((i, k), 0) * bt.get((k, j), 0) for k in range(size))
                want_s = at.get((i, j), 0) + bt.get((i, j), 0)
                assert (prod.entry(i, j) - Padic.from_int(want_p, p)).vanishes_to(30)
                assert (tot.entry(i, j) - Padic.from_int(want_s, p)).vanishes_to(30)


def test_product_applies_right_factor_first():
    a = fm(3, {(0, 1): 1})
    b = fm(3, {(0, 0): 1})
    delta1 = PadicVector.basis(3, 1)
    assert op_apply(Product([b, a]), delta1).support == [0]
    assert op_apply(Product([a, b]), delta1).support == []


def test_operator_sugar():
    a = fm(3, {(0, 0): 2})
    diff = a - a
    assert op_agree(diff, fm(3, {}), 38)
    assert op_agree(a + a, fm(3, {(0, 0): 4}), 38)
    neg = -a
    assert normalize(neg).entry(0, 0).residue(4) == 81 - 2


def test_scalar_action_stays_integral():
    with pytest.raises(NonIntegral):
        ScalarMul(Padic.one(3) / Padic.from_int(3, 3), Identity(3))
    half = ScalarMul(Padic.from_fraction(Fraction(1, 2), 3), Identity(3))
    assert op_norm(half) == ValuationBound(0)


def test_adjoint_pairing_compatibility(rng):
    p = 3
    for _ in range(20):
        a = fm(p, {(rng.randrange(4), rng.randrange(4)): rng.randrange(-9, 9)
                   for _ in range(5)})
        xi = PadicVector(p, {i: Padic.from_fraction(
            Fraction(rng.choice([1, 2, 4, 5]), p**rng.randrange(3)), p)
            for i in rng.sample(range(4), 2)})
        eta = PadicVector(p, {i: Padic.from_fraction(
            Fraction(rng.choice([1, 2, 7]), p**rng.randrange(3)), p)
            for i in rng.sample(range(4), 2)})
        assert pairing(op_apply(a, xi), eta) == pairing(xi, op_apply(Adjoint(a), eta))


def test_adjoint_involution():
    a = fm(3, {(0, 2): 5, (1, 1): 3})
    assert op_agree(Adjoint(Adjoint(a)), a, 38)
    u = up_shift(3)
    for j in (0, 1, 7):
        delta = PadicVector.basis(3, j)
        assert op_apply(Adjoint(Adjoint(u)), delta) == op_apply(u, delta)


def test_agree_of_two_tails_is_undecidable():
    # a - b has no normal form when both carry a structured tail, even for
    # a = b: op_agree says so as op_norm does, not with a StructureError
    up = sum_ring_generators(3).up
    with pytest.raises(Undecidable):
        op_agree(Adjoint(Adjoint(up)), up, 38)


def test_shift_head_cancellation():
    # identity minus its own (0,0) corner: entry certified zero, norm
    # still decided by the untouched off-window diagonal
    a = Sum([Identity(3), fm(3, {(0, 0): -1})])
    nf = normalize(a)
    assert nf.entry(0, 0).is_zero
    assert op_norm(a) == ValuationBound(0)
    assert not is_compact(a)


def test_callable_tail_certificates():
    u = up_shift(3)
    assert op_norm(u) == ValuationBound(0)
    assert not is_compact(u)
    bare = IndexMap(3, lambda x: x + 1)
    with pytest.raises(Undecidable):
        op_norm(bare)
    with pytest.raises(Undecidable):
        is_compact(bare)


def test_callable_tail_apply_and_adjoint():
    u = up_shift(3)
    assert op_apply(u, PadicVector.basis(3, 4)).support == [5]
    down = Adjoint(u)
    assert op_apply(down, PadicVector.basis(3, 5)).support == [4]
    assert op_apply(down, PadicVector.basis(3, 0)).support == []
    # u* u = 1 but u u* kills delta_0
    for j in (0, 1, 7):
        got = op_apply(Product([down, u]), PadicVector.basis(3, j))
        assert (got - PadicVector.basis(3, j)).entries == {}
    assert op_apply(Product([u, down]), PadicVector.basis(3, 0)).support == []


def test_sum_of_two_tails_falls_back_to_tree_apply():
    u = up_shift(3)
    w = IndexMap(3, lambda x: x + 2,
                 inv=lambda x: x - 2 if x > 1 else None, infinite_domain=True)
    s = Sum([u, w])
    with pytest.raises(StructureError):
        normalize(s)
    got = op_apply(s, PadicVector.basis(3, 3))
    assert got.support == [4, 5]
    with pytest.raises(Undecidable):
        op_norm(s)


def test_empty_combinators_rejected():
    with pytest.raises(ValueError):
        Sum([])
    with pytest.raises(ValueError):
        Product([])


def test_compactness_decisions():
    p = 3
    assert is_compact(fm(p, {(0, 0): 1}))
    assert is_compact(Diagonal(p, {0: Padic.one(p)}))
    assert not is_compact(Diagonal(p, {}, Padic.from_int(3, p)))
    assert is_compact(ScalarMul(Padic.zero(p), Identity(p)))
    assert not is_compact(Sum([fm(p, {(0, 0): 1}), Identity(p)]))
    assert is_compact(Product([Identity(p), fm(p, {(1, 1): 1}), Identity(p)]))
    assert is_compact(Adjoint(fm(p, {(0, 1): 1})))


def test_truncate_window():
    a = weighted_shift_matrix(3, 6)
    t = truncate(a, 3)
    assert set(t.entries) == {(1, 1), (2, 2), (1, 0), (2, 1)}
    assert t.entries[(2, 1)].residue(4) == 2
    assert truncate(Identity(3), 2).entries[(0, 0)].residue(2) == 1


def test_truncate_normalizes_once(monkeypatch):
    # truncating a product multiplies once, not once per column
    p, size = 3, 5
    op = Product([weighted_shift_matrix(p, 6), fm(p, {(i, j): i + 2 * j + 1
                                                      for i in range(6) for j in range(6)})])
    calls = []
    mul = NormalForm.mul

    def counted(self, other, *args, **kwargs):
        calls.append(1)
        return mul(self, other, *args, **kwargs)

    monkeypatch.setattr(NormalForm, "mul", counted)
    t = truncate(op, size)
    monkeypatch.undo()
    assert len(calls) == 1
    assert t.entries == {(i, j): v for j in range(size)
                         for i, v in op_column(op, j).entries.items() if i < size}


def test_truncate_without_a_normal_form_applies_the_tree():
    # two shifted tails have no normal form as a product, so each column
    # is the tree applied to a basis vector
    p = 3
    s = Sum([up_shift(p), Identity(p)])
    op = Product([s, s])
    with pytest.raises(StructureError):
        normalize(op)
    t = truncate(op, 3)
    # (1 + S)^2 sends delta_j to delta_j + 2 delta_{j+1} + delta_{j+2}
    assert {k: v.residue(5) for k, v in t.entries.items()} == {
        (0, 0): 1, (1, 1): 1, (2, 2): 1, (1, 0): 2, (2, 1): 2, (2, 0): 1}


def test_weighted_shift_entries():
    a = weighted_shift_matrix(5, 4)
    nf = normalize(a)
    for n in range(4):
        for m in range(4):
            want = n if (m == n and n > 0) else (n + 1 if m == n + 1 else 0)
            assert (nf.entry(m, n) - Padic.from_int(want, 5)).vanishes_to(35)


def test_op_agree_depth_sensitivity():
    a = fm(3, {(0, 0): 1})
    b = Sum([a, fm(3, {(0, 0): 3**35})])
    assert op_agree(a, b, 30)
    assert not op_agree(a, b, 36)


def test_scaling_by_a_certified_zero_keeps_its_bound():
    # O(3^5) * I is zero only to depth 5: only an exact zero may drop
    # the scaled form, as it once did for a certified one
    scaled = ScalarMul(Padic.zero(3, 5), Identity(3))
    assert op_agree(scaled, FiniteMatrix(3, {}), 5)
    assert not op_agree(scaled, FiniteMatrix(3, {}), 6)
    assert op_agree(ScalarMul(Padic.zero(3), Identity(3)), FiniteMatrix(3, {}), 10**6)


def test_nf_sub_keeps_operand_precision():
    # negation is exact, so precision-80 operands give a precision-80
    # difference (a product with a precision-40 -1 once cut it to 40)
    p, prec = 3, 80

    def x(n):
        return Padic.from_int(n, p, prec)

    a = normalize(Diagonal(p, {0: x(5), 1: x(7)}, x(2)))
    b = normalize(FiniteMatrix(p, {(0, 0): x(1), (0, 1): x(4)}))
    tail = normalize(IndexMap(p, lambda j: j + 1, {0: x(2)}, x(-1),
                              inv=lambda i: i - 1 if i > 0 else None,
                              infinite_domain=True))
    for d in (a.sub(b), b.sub(a), a.sub(tail), tail.sub(b)):
        values = [d.shift, *d.head.values()]
        if d.tail is not None:
            values += [d.tail.default, *d.tail.coeff.values()]
        assert all(v.absolute_precision == prec for v in values if not v.is_zero)
    assert a.sub(b).entry(0, 1) == x(-4) and a.sub(b).entry(0, 0) == x(4)
    assert tail.sub(b).entry(1, 0) == x(2) and tail.sub(b).entry(2, 1) == x(-1)
    assert a.sub(tail).entry(1, 0) == x(-2) and a.sub(tail).shift == x(2)
    assert a.sub(a).vanishes_to(prec) and not a.sub(b).vanishes_to(1)
    with pytest.raises(StructureError):
        tail.sub(tail)


def test_nf_polynomial_matches_explicit_sum():
    p = 3
    a = weighted_shift_matrix(p, 4)
    coeffs = [Padic.from_int(2, p), Padic.from_int(-1, p), Padic.from_int(3, p)]
    got = nf_polynomial(normalize(a), coeffs)
    direct = Sum([ScalarMul(coeffs[0], Identity(p)),
                  ScalarMul(coeffs[1], a),
                  ScalarMul(coeffs[2], Product([a, a]))])
    want = normalize(direct)
    for i in range(5):
        for j in range(5):
            assert (got.entry(i, j) - want.entry(i, j)).vanishes_to(30)


def test_nf_polynomial_annihilates_idempotent():
    e = fm(3, {(0, 0): 1})
    out = nf_polynomial(normalize(e), [Padic.zero(3), Padic.from_int(-1, 3), Padic.one(3)])
    assert out.vanishes_to(38)


def test_to_operator_round_trip():
    d = Diagonal(3, {2: Padic.from_int(5, 3)}, Padic.one(3))
    back = normalize(d).to_operator()
    assert isinstance(back, Diagonal)
    assert op_agree(back, d, 38)
    f = fm(3, {(0, 1): 7})
    assert isinstance(normalize(f).to_operator(), FiniteMatrix)
    with pytest.raises(StructureError):
        normalize(up_shift(3)).to_operator()


def test_precision_of_reads_the_largest_relative_precision():
    p = 3
    x80, x20 = Padic.from_int(5, p, 80), Padic.from_int(9, p, 20)
    assert precision_of(x80, x20) == 80
    assert precision_of(FiniteMatrix(p, {(0, 0): x20})) == 20
    # operators, normal forms, vectors and Mahler functions are walked
    assert precision_of(Sum([fm(p, {(0, 0): 1}), ScalarMul(x80, Identity(p, 20))])) == 80
    assert precision_of(normalize(Diagonal(p, {0: x20}, x80))) == 80
    assert precision_of(normalize(IndexMap(p, lambda j: j + 1, {}, x80))) == 80
    assert precision_of(PadicVector(p, {4: x20})) == 20
    assert precision_of(MahlerFunction(p, (Padic.zero(p), x20), ValuationBound.zero())) == 20
    # an Identity stands for 1 at the precision it carries
    assert precision_of(Adjoint(Identity(p, 80))) == 80
    # certified and exact zeros carry no digits; exact data gets the default
    assert precision_of(Padic.zero(p, 90), x20) == 20
    assert precision_of(FiniteMatrix(p, {}), Padic.zero(p)) == DEFAULT_PRECISION
    assert precision_of() == DEFAULT_PRECISION


def test_operator_difference_keeps_operand_precision():
    # the -1 of a - b and of -a is written at the operands' precision,
    # not at 40, so precision-80 operands give precision-80 entries
    p, prec = 3, 80

    def x(n):
        return Padic.from_int(n, p, prec)

    a = Diagonal(p, {0: x(5), 1: x(7)}, x(2))
    b = FiniteMatrix(p, {(0, 0): x(1), (0, 1): x(4)})
    for op, want in ((a - b, {(0, 0): 4, (0, 1): -4, (1, 1): 7, (5, 5): 2}),
                     (a - Identity(p, prec), {(0, 0): 4, (1, 1): 6, (5, 5): 1}),
                     (-a, {(0, 0): -5, (1, 1): -7, (5, 5): -2})):
        nf = normalize(op)
        for (i, j), n in want.items():
            assert nf.entry(i, j).residue(prec) == n % p**prec
            assert nf.entry(i, j).absolute_precision == prec


def test_op_column_keeps_operand_precision():
    p, prec = 3, 80
    m = FiniteMatrix(p, {(0, 0): Padic.from_int(2, p, prec),
                         (1, 0): Padic.from_int(3, p, prec)})
    col = op_column(m, 0)
    assert col.entries == {0: Padic.from_int(2, p, prec), 1: Padic.from_int(3, p, prec)}
    assert col.get(0).absolute_precision == prec and col.get(1).absolute_precision == prec + 1
    assert op_column(Identity(p, prec), 7).get(7) == Padic.one(p, prec)

from fractions import Fraction

import pytest

from padicops.errors import (DependentBasis, NoConvergence, PreconditionFailed,
                             SearchExhausted)
from padicops.idempotents import (BlockScheme, _independent_prefix,
                                  cantor_pair, cantor_unpair,
                                  column_projection, finite_rank_reduce,
                                  idempotent_equivalence, idempotent_lift,
                                  idempotent_refine, idempotent_split,
                                  infinite_sum, k0_trivialize, matrix_rank,
                                  near_idempotent_equivalence,
                                  refinement_polynomial, sum_ring_generators)
from padicops.operators import (Diagonal, FiniteMatrix, Identity, Product,
                                ScalarMul, Sum, is_compact, normalize,
                                op_agree, op_apply, op_norm)
from padicops.polynomials import IntPolynomial
from padicops.scalars import Padic, ValuationBound, teichmuller
from padicops.vectors import PadicVector


def fm(p, table):
    out = {}
    for k, v in table.items():
        out[k] = Padic.from_fraction(Fraction(v), p)
    return FiniteMatrix(p, out)


def diag(p, values):
    return Diagonal(p, {i: Padic.from_int(v, p) for i, v in enumerate(values)})


def rank_one(p, v, w):
    # v (x) w with <w, v> = 1 is idempotent
    assert sum(a * b for a, b in zip(v, w)) == 1
    return fm(p, {(i, j): v[i] * w[j] for i in range(len(v)) for j in range(len(w))})


# -- refinement polynomials ----------------------------------------------


def test_refinement_polynomial_frozen_coefficients():
    assert refinement_polynomial(1).coeffs == (0, 1)
    assert refinement_polynomial(2).coeffs == (0, 0, 3, -2)
    assert refinement_polynomial(3).coeffs == (0, 0, 0, 10, -15, 6)
    with pytest.raises(ValueError):
        refinement_polynomial(0)


def test_refinement_polynomial_flatness():
    for m in (1, 2, 3, 4, 5):
        poly = refinement_polynomial(m)
        assert poly.degree == 2 * m - 1
        assert poly(0) == 0 and poly(1) == 1
        d = poly
        for _ in range(m - 1):
            d = d.derivative()
            assert d(0) == 0 and d(1) == 0


def test_refinement_polynomial_successive_divisibility():
    x2_minus_x = IntPolynomial((0, -1, 1))
    for m in (1, 2, 3, 4):
        gap = refinement_polynomial(m + 1) - refinement_polynomial(m)
        assert (x2_minus_x**m).divides_into(gap) is not None
        assert (x2_minus_x ** (m + 1)).divides_into(gap) is None


# -- refinement ------------------------------------------------------------


def test_refine_diagonal_example():
    a = diag(3, [28, 27])
    e = idempotent_refine(a)
    assert op_agree(e, fm(3, {(0, 0): 1}), 30)
    assert op_agree(Product([e, e]), e, 30)
    assert op_norm(a - e) == ValuationBound(3)


def test_refine_small_norm_input_goes_to_zero():
    e = idempotent_refine(fm(3, {(0, 0): Fraction(3)}))
    assert isinstance(e, FiniteMatrix) and e.entries == {}
    assert idempotent_refine(FiniteMatrix(3, {})).entries == {}


def test_refine_rejects_large_defect():
    with pytest.raises(PreconditionFailed):
        idempotent_refine(diag(3, [2]))


def test_refine_budget_exhaustion():
    with pytest.raises(NoConvergence) as info:
        idempotent_refine(diag(3, [4]), budget=1)
    assert info.value.iterations == 1


def test_refine_off_diagonal_defect(rng):
    p = 3
    for _ in range(5):
        noise = {(rng.randrange(3), rng.randrange(3)): 27 * rng.randrange(1, 9)
                 for _ in range(3)}
        a = Sum([diag(p, [1, 1, 0]), fm(p, noise)])
        e = idempotent_refine(a)
        assert op_agree(Product([e, e]), e, 30)
        assert op_norm(a - e) < ValuationBound.one()


# -- equivalence -----------------------------------------------------------


def test_equivalence_conjugates_e_to_f():
    e = fm(3, {(0, 0): 1})
    f = fm(3, {(0, 0): 1, (0, 1): -9})
    w = idempotent_equivalence(e, f)
    assert op_agree(Product([w.u, w.u_inv]), Identity(3), 30)
    assert op_agree(Product([w.u_inv, w.u]), Identity(3), 30)
    assert op_agree(Product([w.u, e, w.u_inv]), f, 30)


def test_equivalence_preconditions():
    e = fm(3, {(0, 0): 1})
    with pytest.raises(PreconditionFailed):
        idempotent_equivalence(FiniteMatrix(3, {}), e)
    with pytest.raises(PreconditionFailed):
        idempotent_equivalence(e, diag(3, [2]))
    # distance 1 is out of reach
    with pytest.raises(PreconditionFailed):
        idempotent_equivalence(e, fm(3, {(1, 1): 1}))


def test_near_idempotent_equivalence():
    e = fm(3, {(0, 0): 1})
    a = Sum([e, fm(3, {(1, 1): 27})])
    e_a, w = near_idempotent_equivalence(e, a)
    assert op_agree(Product([e_a, e_a]), e_a, 30)
    assert op_agree(Product([w.u, e, w.u_inv]), e_a, 30)
    far = fm(3, {(0, 0): 1, (1, 1): 1})
    with pytest.raises(PreconditionFailed):
        near_idempotent_equivalence(e, far)


# -- projections and splitting ----------------------------------------------


def test_column_projection_single_vector():
    p = 3
    v = PadicVector(p, {0: Padic.one(p), 1: Padic.from_int(3, p)})
    ambient = fm(p, {(0, 0): 1, (1, 1): 1})
    proj = column_projection([v], ambient)
    assert op_agree(Product([proj, proj]), proj, 30)
    image = op_apply(proj, v)
    assert (image - v).entries == {}


def test_column_projection_reduces_pair():
    p = 3
    v1 = PadicVector(p, {0: Padic.one(p), 1: Padic.one(p)})
    v2 = PadicVector(p, {1: Padic.one(p)})
    ambient = fm(p, {(0, 0): 1, (1, 1): 1})
    proj = column_projection([v1, v2], ambient)
    assert op_agree(proj, ambient, 30)


def test_column_projection_failures():
    p = 3
    v = PadicVector(p, {0: Padic.one(p)})
    with pytest.raises(DependentBasis):
        column_projection([], fm(p, {(0, 0): 1}))
    with pytest.raises(DependentBasis):
        column_projection([v, v], fm(p, {(0, 0): 1}))
    with pytest.raises(PreconditionFailed):
        column_projection([v], FiniteMatrix(p, {}))


def test_independent_prefix_skips_a_dependent_middle_column():
    p = 3
    v1 = PadicVector(p, {0: Padic.one(p), 1: Padic.from_fraction(Fraction(1, 3), p)})
    v2 = PadicVector(p, {0: Padic.from_int(9, p), 1: Padic.from_int(3, p)})  # 9 * v1
    v3 = PadicVector(p, {0: Padic.one(p), 2: Padic.one(p)})
    kept = _independent_prefix([v1, v2, v3])
    assert len(kept) == 2 and kept[0] is v1 and kept[1] is v3
    entries = {(i, j): x for j, v in enumerate([v1, v2, v3]) for i, x in v.entries.items()}
    assert matrix_rank(entries) == 2


def test_split_integral_idempotent_has_no_finite_part():
    e = fm(3, {(0, 0): 1, (1, 1): 1})
    s = idempotent_split(e)
    assert normalize(s.f).head == {}
    assert op_agree(s.g, e, 30)
    assert op_norm(s.g) == ValuationBound(0)


def test_split_exceptional_rank_one():
    # v (x) w with one non-integral column
    e = rank_one(3, [1, 9], [4, Fraction(1 - 4, 9)])
    s = idempotent_split(e)
    assert op_agree(e, Sum([s.f, s.g]), 30)
    assert op_agree(s.f, e, 30)
    assert op_norm(s.g).is_zero or op_norm(s.g) <= ValuationBound(30)
    assert finite_rank_reduce(s.f) == 1


def test_split_mixed_block():
    p = 3
    table = {(0, 0): Fraction(1, 3), (0, 1): Fraction(2, 3),
             (1, 0): Fraction(1, 3), (1, 1): Fraction(2, 3), (2, 2): 1}
    e = fm(p, table)
    s = idempotent_split(e)
    assert op_agree(Sum([s.f, s.g]), e, 30)
    assert op_agree(Product([s.f, s.g]), FiniteMatrix(p, {}), 30)
    assert op_agree(Product([s.g, s.f]), FiniteMatrix(p, {}), 30)
    assert op_norm(s.g) == ValuationBound(0)
    g_head = normalize(s.g).head
    assert all(v.is_integral for v in g_head.values())
    assert (normalize(s.g).entry(2, 2) - Padic.one(p)).vanishes_to(30)
    assert finite_rank_reduce(s.f) == 1


def test_split_rejects_non_idempotent():
    with pytest.raises(PreconditionFailed):
        idempotent_split(diag(3, [2]))


# -- rank --------------------------------------------------------------------


def test_matrix_rank_cases():
    p = 3
    assert matrix_rank({}) == 0
    assert matrix_rank(fm(p, {(0, 0): 1, (1, 1): 1, (2, 2): 1}).entries) == 3
    assert matrix_rank(rank_one(p, [1, 9], [4, Fraction(-1, 3)]).entries) == 1
    dependent = fm(p, {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 6})
    assert matrix_rank(dependent.entries) == 1


def test_finite_rank_reduce():
    p = 3
    assert finite_rank_reduce(FiniteMatrix(p, {})) == 0
    assert finite_rank_reduce(fm(p, {(0, 0): 1, (1, 1): 1})) == 2
    assert finite_rank_reduce(fm(p, {(0, 0): 1, (0, 1): 27})) == 1
    with pytest.raises(PreconditionFailed):
        finite_rank_reduce(Identity(p))


# -- sum ring ------------------------------------------------------------------


def test_cantor_pairing_bijection():
    seen = set()
    for block in range(10):
        for offset in range(10):
            x = cantor_pair(block, offset)
            assert cantor_unpair(x) == (block, offset)
            seen.add(x)
    assert len(seen) == 100
    assert sorted(x for x in seen if x < 55) == list(range(55))
    assert BlockScheme().block_of(cantor_pair(7, 2)) == 7


def test_sum_ring_generator_relations():
    gens = sum_ring_generators(3)
    for x in range(40):
        delta = PadicVector.basis(3, x)
        back = op_apply(gens.first_to_all, op_apply(gens.all_to_first, delta))
        assert (back - delta).entries == {}
        shifted = op_apply(gens.down, op_apply(gens.up, delta))
        assert (shifted - delta).entries == {}
        both = (op_apply(gens.all_to_first, op_apply(gens.first_to_all, delta))
                + op_apply(gens.up, op_apply(gens.down, delta)))
        assert (both - delta).entries == {}
    # the spread-out copy lands outside the zeroth block
    moved = op_apply(gens.up, PadicVector.basis(3, 0))
    assert op_apply(gens.first_to_all, moved).entries == {}


def test_infinite_sum_finite_input():
    p = 3
    a = fm(p, {(0, 0): 1, (0, 1): 2})
    out = infinite_sum(a, 2)
    assert isinstance(out, FiniteMatrix)
    want = {}
    for n in range(3):
        want[(cantor_pair(n, 0), cantor_pair(n, 0))] = 1
        want[(cantor_pair(n, 0), cantor_pair(n, 1))] = 2
    assert {k: v.residue(5) for k, v in out.entries.items()} == want


def test_infinite_sum_structural_input():
    spread = infinite_sum(Diagonal(3, {}, Padic.one(3)), 3)
    assert isinstance(spread, Sum)
    for block, offset in ((0, 0), (2, 1), (3, 4)):
        x = cantor_pair(block, offset)
        got = op_apply(spread, PadicVector.basis(3, x))
        assert (got - PadicVector.basis(3, x)).entries == {}
    outside = cantor_pair(4, 0)
    assert op_apply(spread, PadicVector.basis(3, outside)).entries == {}


def test_infinite_sum_norm_gate():
    with pytest.raises(PreconditionFailed):
        infinite_sum(fm(3, {(0, 0): Fraction(1, 3)}), 2)


# -- trivialization ------------------------------------------------------------


def test_k0_transcript_zero_input():
    out = k0_trivialize(FiniteMatrix(3, {}))
    assert out == {"zero_input": True, "classes": {"finite_rank": 0, "contractive": 0}}


def test_k0_transcript_integral_idempotent():
    out = k0_trivialize(fm(3, {(0, 0): 1}))
    assert out["zero_input"] is False
    assert out["split"]["finite_part_rank"] == 0
    assert out["classes"] == {"finite_rank": 0, "contractive": 0}
    rel = out["contractive_part"]["sum_ring_relations_on_prefix"]
    assert rel == {"left_inverse_first": True, "left_inverse_shift": True,
                   "partition_of_identity": True}
    assert out["contractive_part"]["repeat_equation_on_prefix"] is True


def test_k0_transcript_exceptional_idempotent():
    e = rank_one(3, [1, 9], [4, Fraction(1 - 4, 9)])
    out = k0_trivialize(e)
    assert out["classes"]["finite_rank"] == 1
    assert out["finite_part"]["diagonal_form"] == [[0, 0, "1"]]
    assert out["split"]["contractive_part_norm_exponent"] == "inf"


def test_k0_transcript_identity_component():
    out = k0_trivialize(Diagonal(3, {}, Padic.one(3)))
    assert out["zero_input"] is False
    assert out["classes"] == {"finite_rank": 0, "contractive": 0}
    assert out["contractive_part"]["repeat_equation_on_prefix"] is True
    assert out["contractive_part"]["spread_depth"] >= 1


# -- lifting ---------------------------------------------------------------------


def test_lift_near_idempotent_diagonal():
    a = Diagonal(3, {0: Padic.from_int(28, 3)})
    e = idempotent_lift(a)
    assert op_agree(Product([e, e]), e, 30)
    assert is_compact(e - a)
    assert (normalize(e).entry(0, 0) - Padic.one(3)).vanishes_to(30)


def test_lift_identity_is_own_lift():
    e = idempotent_lift(Identity(3))
    assert op_agree(e, Identity(3), 30)


def test_lift_preconditions_and_budget():
    with pytest.raises(PreconditionFailed):
        idempotent_lift(fm(3, {(0, 0): Fraction(1, 3)}))
    # 2I has defect 2I, which is nowhere near compact
    with pytest.raises(PreconditionFailed):
        idempotent_lift(ScalarMul(Padic.from_int(2, 3), Identity(3)))
    t = teichmuller(Padic.from_int(2, 5))
    with pytest.raises(SearchExhausted) as info:
        idempotent_lift(Diagonal(5, {0: t}), budget=2)
    assert info.value.budget == 2

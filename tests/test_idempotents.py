import random
from fractions import Fraction

import pytest

from padicops.errors import (DependentBasis, PreconditionFailed, SearchExhausted,
                             Undecidable)
from padicops.idempotents import (_independent_prefix, _newton_schulz_inverse,
                                  _refine_form, cantor_pair, cantor_unpair,
                                  column_projection, finite_rank_reduce,
                                  idempotent_equivalence, idempotent_lift,
                                  idempotent_refine, idempotent_split,
                                  infinite_sum, k0_trivialize, matrix_rank,
                                  refinement_polynomial, sum_ring_generators)
from padicops.operators import (Diagonal, FiniteMatrix, Identity, IndexMap,
                                NormalForm, Product, ScalarMul, Sum,
                                is_compact, normalize, op_agree, op_apply,
                                op_norm)
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


def test_refine_steps_follow_the_target():
    # the defect's valuation runs 1, 3, 7, ..., 511, so target 300 takes
    # nine steps, one more than a fixed cap of eight would allow
    p, prec, target = 3, 400, 300
    a = Diagonal(p, {0: Padic.from_int(4, p, prec), 1: Padic.from_int(3, p, prec)})
    e = idempotent_refine(a, target)
    assert normalize(e).head == {(0, 0): Padic.one(p, prec)}
    assert op_agree(Product([e, e]), e, target)


def test_refine_off_diagonal_defect(rng):
    p = 3
    for _ in range(5):
        noise = {(rng.randrange(3), rng.randrange(3)): 27 * rng.randrange(1, 9)
                 for _ in range(3)}
        a = Sum([diag(p, [1, 1, 0]), fm(p, noise)])
        e = idempotent_refine(a)
        assert op_agree(Product([e, e]), e, 30)
        assert op_norm(a - e) < ValuationBound.one()


# -- refinement against integer oracles --------------------------------------


def _int_matmul(x, y, mod=None):
    n = len(x)
    out = [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return out if mod is None else [[v % mod for v in row] for row in out]


def _unimodular(rng, n):
    """u and u^-1 over Z, from random elementary column operations."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for r in range(n):  # u <- u (1 + c E_ij)
            u[r][j] += c * u[r][i]
        for k in range(n):  # u^-1 <- (1 - c E_ij) u^-1
            u_inv[i][k] -= c * u_inv[j][k]
    assert _int_matmul(u, u_inv) == [[int(i == j) for j in range(n)] for i in range(n)]
    return u, u_inv


def _near_idempotent(rng, n, s, p=3):
    """u diag(1..1, 0..0) u^-1 + p^s * noise, as an integer matrix."""
    u, u_inv = _unimodular(rng, n)
    r = rng.randint(1, n - 1)
    d = [[int(i == j and i < r) for j in range(n)] for i in range(n)]
    a = _int_matmul(_int_matmul(u, d), u_inv)
    for _ in range(n + 2):
        i, j = rng.randrange(n), rng.randrange(n)
        a[i][j] += rng.choice([1, 2, 4, 5, 7, 8]) * p**s
    return a


def _int_operator(a, p=3):
    return FiniteMatrix(p, {(i, j): Padic.from_int(v, p)
                            for i, row in enumerate(a) for j, v in enumerate(row) if v})


def _residues(op, n, depth, p=3):
    """Entries of op mod p^depth as ints, read from the stored digits."""
    nf = normalize(op)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            x = nf.entry(i, j)
            if x.is_zero:
                assert x.precision is None or x.precision >= depth
                row.append(0)
            else:
                assert x.valuation >= 0 and x.valuation + x.precision >= depth
                row.append(x.unit * p**x.valuation % p**depth)
        out.append(row)
    return out


def test_refine_matches_integer_horner_oracle():
    """P_64(a) mod 3^40 by Horner in plain ints is the idempotent near a
    mod 3^40, since (a^2 - a)^64 divides P_64(a) - e."""
    p, mod, depth = 3, 3**40, 30
    coeffs = refinement_polynomial(64).coeffs
    rng = random.Random(2024)
    cases = [(5, s) for s in (1, 2, 3) for _ in range(6)] + [(8, s) for s in (1, 2, 3) for _ in range(4)]
    for n, s in cases:
        a = _near_idempotent(rng, n, s, p)
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        oracle = [[coeffs[-1] * v for v in row] for row in ident]
        for c in reversed(coeffs[:-1]):
            oracle = _int_matmul(oracle, a)
            oracle = [[(v + c * ident[i][j]) % mod for j, v in enumerate(row)]
                      for i, row in enumerate(oracle)]
        e = _residues(idempotent_refine(_int_operator(a, p), depth), n, depth, p)
        assert e == [[v % p**depth for v in row] for row in oracle], (n, s)
        assert _int_matmul(e, a, p**depth) == _int_matmul(a, e, p**depth), (n, s)


def test_refine_operator_products(monkeypatch):
    """Iterating 3e^2 - 2e^3 takes two products a step; evaluating
    P_1, P_2, ..., P_64 from scratch by Horner took 122 here."""
    calls = []
    original = NormalForm.mul

    def counted(self, other, *args, **kwargs):
        calls.append(1)
        return original(self, other, *args, **kwargs)

    a = _int_operator(_near_idempotent(random.Random(7), 5, 3))
    monkeypatch.setattr(NormalForm, "mul", counted)
    e = idempotent_refine(a)
    monkeypatch.undo()
    assert op_agree(Product([e, e]), e, 30)
    assert len(calls) <= 16


def test_refine_step_makes_one_sum_outside_its_fused_products(monkeypatch):
    """A step is two fused products and no sum of its own: the update
    e + d(1 - 2e) is one fused product.  With the step formed first, e +
    step was one combine a step; as two products and four linear passes
    (scale, sub, add, sub) a step made four combines."""
    counts = {"mul": 0, "combine": 0}
    mul, combine = NormalForm.mul, NormalForm.combine

    def counted_mul(self, other, *args, **kwargs):
        counts["mul"] += 1
        return mul(self, other, *args, **kwargs)

    def counted_combine(terms):
        counts["combine"] += 1
        return combine(terms)

    nf = normalize(_int_operator(_near_idempotent(random.Random(7), 5, 3)))
    monkeypatch.setattr(NormalForm, "mul", counted_mul)
    monkeypatch.setattr(NormalForm, "combine", staticmethod(counted_combine))
    e, defects = _refine_form(nf, 30)
    monkeypatch.undo()
    steps = len(defects)
    assert steps >= 2 and e.mul(e, addend=[(-1, e)]).vanishes_to(30)
    # the first defect is one more product, the distance check the one sum
    assert counts == {"mul": 2 * steps + 1, "combine": 1}


def _two_pass_refine(nf: NormalForm, target: int) -> tuple[list, int | None]:
    """The refinement with the step d.e.(-2) + d formed, then added to e:
    for each of its target.bit_length() + 1 updates, the fused update
    from the same e and d beside the two-pass one; and the number of
    updates after which the step and the new defect first vanish to the
    target (None if they never do)."""
    e, d = nf, nf.mul(nf, addend=[(-1, nf)])
    pairs, stop = [], None
    for n in range(target.bit_length() + 1):
        step = d.mul(e, -2, addend=[(1, d)])
        pairs.append((d.mul(e, -2, addend=[(1, d), (1, e)]), e.add(step)))
        e = pairs[-1][1]
        d = e.mul(e, addend=[(-1, e)])
        if stop is None and step.vanishes_to(target) and d.vanishes_to(target):
            stop = n + 1
    return pairs, stop


def _fraction_form(p: int, table: dict) -> NormalForm:
    return normalize(FiniteMatrix(p, {k: Padic.from_fraction(v, p) for k, v in table.items()}))


def test_fused_refine_update_matches_two_pass_reference():
    """The update e' = d.e.(-2) + d + e, one fused product, gives the same
    e, digits and precision of every entry, as forming the step
    d.e.(-2) + d first and adding it to e.  The refinement never forms
    the step: it stops where the two-pass one does when ||a|| <= 1, on 24
    seeded 5x5 and 8x8 near-idempotents.  With ||a|| = p, d must vanish
    one digit past the target, since ||d(1 - 2e)|| <= p ||d||: where that
    bound is strict the refinement may take one step more, and where it
    is attained it stops where the two-pass one does."""
    p = 3
    rng = random.Random(12)
    cases = [(normalize(_int_operator(_near_idempotent(rng, n, s))), [30])
             for n in (5, 8) for s in (1, 2, 3) for _ in range(4)]
    # e = [[1, -1/3], [0, 0]] (+) [1] and noise; every target, so that
    # some target equals the valuation of a defect
    e = {(0, 0): Fraction(1), (0, 1): Fraction(-1, 3), (2, 2): Fraction(1)}
    strict = _fraction_form(p, {**e, (3, 1): Fraction(2 * 3**4), (1, 4): Fraction(3**4)})
    attained = _fraction_form(p, {**e, (2, 1): Fraction(4 * 3**4), (0, 2): Fraction(4 * 3**4),
                                  (1, 0): Fraction(2 * 3**5)})
    for wide in (strict, attained):
        assert wide.norm() == ValuationBound(-1)
        cases.append((wide, range(2, 41)))
    step_more = False
    for n, (nf, targets) in enumerate(cases):
        for target in targets:
            pairs, stop = _two_pass_refine(nf, target)
            assert all(fused == two_pass for fused, two_pass in pairs), (n, target)
            e, defects = _refine_form(nf, target)
            steps = len(defects)
            step_more |= steps == stop + 1
            assert steps == stop or (nf is strict and steps == stop + 1), (n, target)
            assert e == pairs[steps - 1][1], (n, target)
    assert step_more  # the strict case takes it at some target


def _fraction_inverse(m):
    n = len(m)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def _vp_fraction(q, p):
    if q == 0:
        return None
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


@pytest.mark.parametrize("target", [1, 16, 30, 32])
def test_newton_schulz_inverse_at_the_contraction_edge(target):
    """||1 - u|| = p^-1 is the largest norm the equivalence allows and
    the slowest start for the residual, which squares at each step."""
    p, n = 3, 4
    rng = random.Random(target)
    m = [[rng.randrange(p**3) for _ in range(n)] for _ in range(n)]
    m[0][0] = 1
    w = normalize(_int_operator([[p * v for v in row] for row in m], p))
    assert w.norm() == ValuationBound(1)
    u = NormalForm.constant(p, Padic.one(p)).sub(w)
    x, residual = _newton_schulz_inverse(u, target)
    assert residual.vanishes_to(target)
    exact_u = [[Fraction(int(i == j) - p * m[i][j]) for j in range(n)] for i in range(n)]
    exact_inv = _fraction_inverse(exact_u)
    x_mat = [[Fraction(v) for v in row] for row in _residues(x.to_operator(), n, target, p)]
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for prod in (_int_matmul(exact_u, x_mat), _int_matmul(x_mat, exact_u)):
        for i in range(n):
            for j in range(n):
                v = _vp_fraction(prod[i][j] - ident[i][j], p)
                assert v is None or v >= target
    for i in range(n):
        for j in range(n):
            v = _vp_fraction(x_mat[i][j] - exact_inv[i][j], p)
            assert v is None or v >= target


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
    assert cantor_unpair(cantor_pair(7, 2))[0] == 7


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


def test_lift_whose_defect_has_no_normal_form_is_undecidable():
    # a tail with an override but no inverse certificate: a.a has no
    # normal form, which once escaped the search as a StructureError
    a = IndexMap(3, lambda j: j + 1, {0: Padic.from_int(3, 3)}, Padic.zero(3),
                 infinite_domain=True)
    with pytest.raises(Undecidable):
        idempotent_lift(a)


def test_refine_and_equivalence_at_target_60():
    # a target above 40 is met on precision-80 inputs: no constant of
    # the iterations is written at 40
    p, prec, target = 3, 80, 60
    a = Diagonal(p, {0: Padic.from_int(28, p, prec), 1: Padic.from_int(27, p, prec)})
    e = idempotent_refine(a, target)
    assert normalize(e).entry(0, 0) == Padic.one(p, prec)
    assert op_agree(Product([e, e]), e, target)
    e = FiniteMatrix(p, {(0, 0): Padic.one(p, prec)})
    f = FiniteMatrix(p, {(0, 0): Padic.one(p, prec), (0, 1): Padic.from_int(-9, p, prec)})
    witness = idempotent_equivalence(e, f, target)
    assert op_agree(Product([witness.u, e, witness.u_inv]), f, target)
    assert op_agree(Product([witness.u, witness.u_inv]), Identity(p, prec), target)

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padicops.calculus import (binomial_series, certify_normal_contraction,
                               functional_calculus, teichmuller_idempotent)
from padicops.errors import (CertificationFailed, PrecisionExhausted,
                             PreconditionFailed)
from padicops.idempotents import sum_ring_generators
from padicops.mahler import MahlerFunction, mahler_expand
from padicops.operators import (Diagonal, FiniteMatrix, Identity, Product, Sum,
                                normalize, op_agree, weighted_shift_matrix)
from padicops.scalars import (Padic, ValuationBound, binomial_padic,
                              factorial_valuation, precision_of)
from test_products import HUGE, forms


def diag(p, values):
    return Diagonal(p, {i: Padic.from_int(v, p) for i, v in enumerate(values)})


def jordan_block(p):
    return FiniteMatrix(p, {(0, 0): Padic.one(p), (0, 1): Padic.one(p), (1, 1): Padic.one(p)})


def test_certificate_weighted_shift():
    a = weighted_shift_matrix(3, 8)
    rows = certify_normal_contraction(a, 10)
    assert [n for n, _ in rows] == list(range(1, 11))
    for n, achieved in rows:
        assert achieved <= ValuationBound(factorial_valuation(n, 3))
    assert certify_normal_contraction(a, 0) == []


def test_certificate_structural_for_integral_diagonal():
    # binom(a, n) is integral for every integral a, so a contractive
    # diagonal passes at every depth and admits a nonzero tail bound
    a = diag(3, [1, 4, 9])
    assert len(certify_normal_contraction(a, 30)) == 30
    fn = mahler_expand([Padic.from_int(n, 3) for n in range(2)], ValuationBound(2))
    assert functional_calculus(a, fn)[1] == ValuationBound(2)


def test_certificate_frozen_exponents():
    # diag(28, 27) at p=3: valuations of the falling products
    a = diag(3, [28, 27])
    got = [(n, b.exponent) for n, b in certify_normal_contraction(a, 6)]
    assert got == [(1, 0), (2, 3), (3, 3), (4, 3), (5, 4), (6, 4)]


def test_certification_failure_reports_depth():
    # ||A|| <= 1 is the walk's first step, checked even where no product
    # is formed: at depth 0, and for a constant or an empty function
    bad = FiniteMatrix(3, {(0, 0): Padic.one(3) / Padic.from_int(3, 3)})
    for call in (lambda: certify_normal_contraction(bad, 3),
                 lambda: certify_normal_contraction(bad, 0),
                 lambda: functional_calculus(bad, MahlerFunction(3, (Padic.one(3),), ValuationBound.zero())),
                 lambda: functional_calculus(bad, MahlerFunction(3, (), ValuationBound.zero()))):
        with pytest.raises(CertificationFailed) as info:
            call()
        assert info.value.depth == 1


def one_hot(p, n):
    """The Mahler function binom(x, n)."""
    coeffs = (Padic.zero(p),) * n + (Padic.one(p),)
    return MahlerFunction(p, coeffs, ValuationBound.zero())


def test_binom_operator_diagonal_oracle():
    # binom(A, n) is the functional calculus of the one-hot function
    values = [0, 1, 5, 28]
    a = diag(3, values)
    for n in range(5):
        b, err = functional_calculus(a, one_hot(3, n))
        assert err.is_zero
        nf = normalize(b)
        for i, v in enumerate(values):
            want = binomial_padic(Padic.from_int(v, 3), n)
            assert (nf.entry(i, i) - want).vanishes_to(30)
    # each certificate row is the norm exponent of binom(A, n) plus v_p(n!)
    shift = weighted_shift_matrix(3, 8)
    for n, bound in certify_normal_contraction(shift, 7):
        b, _ = functional_calculus(shift, one_hot(3, n))
        assert normalize(b).norm().exponent + factorial_valuation(n, 3) == bound.exponent


def test_functional_calculus_matches_pointwise_values():
    # evaluating the square function at a diagonal squares each entry
    p = 3
    fn = mahler_expand([Padic.from_int(n * n, p) for n in range(5)])
    values = [0, 1, 2, 9, 13]
    a = diag(p, values)
    out, err = functional_calculus(a, fn)
    assert err.is_zero
    nf = normalize(out)
    for i, v in enumerate(values):
        assert (nf.entry(i, i) - Padic.from_int(v * v, p)).vanishes_to(30)


def test_functional_calculus_is_multiplicative_on_shift():
    p, size = 3, 8
    a = weighted_shift_matrix(p, size)

    def expand(f):
        return mahler_expand([Padic.from_int(f(n), p) for n in range(7)])

    f = lambda n: n * n + 1
    g = lambda n: 2 * n + 3
    pf, _ = functional_calculus(a, expand(f))
    pg, _ = functional_calculus(a, expand(g))
    pfg, _ = functional_calculus(a, expand(lambda n: f(n) * g(n)))
    # truncation size keeps the product window exact: entries live on
    # i in {j, j+1}, so indices stay inside the head
    assert op_agree(Product([pf, pg]), pfg, 30)


def test_functional_calculus_needs_cover():
    # A = 1 + N with N = e_01 fails at n = 5 at p = 5: the walk certifies
    # exactly the terms it sums, T_0..T_4 but not T_5
    p = 5
    a = jordan_block(p)
    with pytest.raises(CertificationFailed) as info:
        certify_normal_contraction(a, 5)
    assert info.value.depth == 5

    def square(length):
        # x^2 = binom(x, 1) + 2 binom(x, 2), padded with exact zeros
        coeffs = (Padic.zero(p), Padic.one(p), Padic.from_int(2, p))
        return MahlerFunction(p, coeffs + (Padic.zero(p),) * (length - 3), ValuationBound.zero())

    out, err = functional_calculus(a, square(5))
    assert err.is_zero and op_agree(out, Product([a, a]), 30)
    with pytest.raises(CertificationFailed) as info:
        functional_calculus(a, square(6))
    assert info.value.depth == 5


def test_binomial_series_diagonal_oracle():
    p, depth = 3, 8
    values = [0, 1, 4, 10]
    a = diag(p, values)
    z = Padic.from_int(3, p)
    out, err = binomial_series(a, z, depth)
    assert err == ValuationBound(depth + 1)
    nf = normalize(out)
    for i, v in enumerate(values):
        want, zn = Padic.zero(p, 40), Padic.one(p)
        for n in range(depth + 1):
            want = want + zn * binomial_padic(Padic.from_int(v - 1, p), n)
            zn = zn * z
        assert (nf.entry(i, i) - want).vanishes_to(depth + 1)


def test_binomial_series_z_zero_is_identity():
    a = diag(3, [1, 4])
    out, err = binomial_series(a, Padic.zero(3), 4)
    assert err.is_zero
    assert op_agree(out, Identity(3), 30)


def test_binomial_series_certified_zero_z_keeps_its_bound():
    # z = O(3^5) stands for every z in 3^5 Z_3: the series and its error
    # bound must hold for the lift z = 3^5, so the result is 1 + O(3^5),
    # not the identity to 40 digits with a zero error bound
    p = 3
    a = weighted_shift_matrix(p, 4, 40)
    out, err = binomial_series(a, Padic.zero(p, 5), 8)
    lifted, lifted_err = binomial_series(a, Padic.from_int(p**5, p), 8)
    assert err == lifted_err == ValuationBound(41)
    assert op_agree(out, lifted, 5)
    assert not op_agree(out, Identity(p, 40), 6)
    assert normalize(out).shift.absolute_precision == 5


def test_binomial_series_norm_gate():
    a = diag(3, [1, 4])
    with pytest.raises(PreconditionFailed):
        binomial_series(a, Padic.one(3), 4)


def test_binomial_series_error_under_finite_certificate():
    # A = 1 + N with N = e_01 certifies only to depth 4 at p = 5, so the
    # discarded terms are bounded through 5^n / n!, not by |z|^5.  With
    # N^2 = 0, binom(N, n) has (0, 1) entry (-1)^(n-1)/n, so the tail of
    # the (0, 1) entry is the sum over n >= 5 of (-1)^(n-1) 5^n / n, whose
    # n = 5 term 5^4 dominates: valuation 4, not 5.
    p = 5
    a = jordan_block(p)
    with pytest.raises(CertificationFailed):
        certify_normal_contraction(a, 5)
    _, err = binomial_series(a, Padic.from_int(p, p), 4)
    tail = [Fraction(p**n, n) for n in range(5, 60)]
    assert min(Padic.from_fraction(t, p).valuation for t in tail) == 4
    assert err == ValuationBound(4)
    # summing binom(A - 1, 5) fails where A does
    with pytest.raises(CertificationFailed) as info:
        binomial_series(a, Padic.from_int(p, p), 5)
    assert info.value.depth == 5
    # a contractive diagonal keeps |z|^(depth+1)
    d = diag(p, [1, 6])
    _, err = binomial_series(d, Padic.from_int(p, p), 4)
    assert err == ValuationBound(5)
    # the error bound needs ||A|| <= 1 even where no term is summed: the
    # n = 1 term of diag(3^-2) alone has norm 3
    big = Diagonal(3, {0: Padic.one(3) / Padic.from_int(9, 3)})
    with pytest.raises(CertificationFailed) as info:
        binomial_series(big, Padic.from_int(3, 3), 0)
    assert info.value.depth == 1


def test_functional_calculus_refuses_tail_under_finite_certificate():
    # on the same A, the admissible function with T_5 = 5^3 differs from the
    # 4-term truncation by 5^3 binom(A, 5) = -(25/4) N, of norm 5^-2: a
    # finite certificate backs no tail bound
    p = 5
    a = jordan_block(p)
    fn = mahler_expand([Padic.from_int(n * n, p) for n in range(4)], ValuationBound(3))
    with pytest.raises(PreconditionFailed, match="tail bound"):
        functional_calculus(a, fn)
    d = diag(p, [1, 6])
    _, err = functional_calculus(d, fn)
    assert err == ValuationBound(3)


def test_certificate_transfers_to_a_minus_one():
    # Pascal's rule: binom(A - 1, n) is a signed sum of binom(A, k), k <= n,
    # so A - 1 certifies to every depth A does
    rng = random.Random(1904)
    certified = 0
    for trial in range(60):
        p = (2, 3, 5)[trial % 3]
        n = rng.randint(1, 3)
        a = FiniteMatrix(p, {(i, j): Padic.from_int(rng.randrange(-p**2, p**2) * p ** rng.choice((0, 1)), p)
                             for i in range(n) for j in range(n)})
        try:
            certify_normal_contraction(a, 8)
            depth = 8
        except CertificationFailed as exc:
            depth = exc.depth - 1
        certified += depth > 0
        certify_normal_contraction(a - Identity(p), depth)
        # and binomial_series, which sums binom(A - 1, n), fails where A does
        if depth < 8:
            with pytest.raises(CertificationFailed) as info:
                binomial_series(a, Padic.from_int(p, p), depth + 1)
            assert info.value.depth == depth + 1
    assert certified > 30


def test_certificate_refuses_structured_tails():
    # a structured tail has no residue window, so the walk refuses it at
    # every depth, as teich does, before it forms any product
    up = sum_ring_generators(3).up
    for depth in range(4):
        with pytest.raises(PreconditionFailed, match="structured tail"):
            certify_normal_contraction(up, depth)
    with pytest.raises(PreconditionFailed, match="structured tail"):
        functional_calculus(up, one_hot(3, 1))
    with pytest.raises(PreconditionFailed, match="structured tail"):
        binomial_series(up, Padic.from_int(3, 3), 2)


def test_certificate_refuses_a_depth_past_the_window():
    # diag(1, 3) at p = 2: every falling product from n = 4 on is 0, but
    # the window holds it only mod 2^40, so its rows read 2^-40, not the
    # zero norm (for the lift diag(1 + 2^40, 3), F_4 has exponent 41); and
    # v_2(n!) = n - s_2(n) first passes 40 at n = 44
    a = diag(2, [1, 3])
    rows = certify_normal_contraction(a, 43)
    assert len(rows) == 43 and all(norm == ValuationBound(40) for _, norm in rows[3:])
    with pytest.raises(PrecisionExhausted, match="step 44"):
        certify_normal_contraction(a, 50)
    assert factorial_valuation(43, 2) <= 40 < factorial_valuation(44, 2)


def test_teichmuller_idempotent_diagonal():
    p = 5
    values = [1, 7, 5, 0, 25, 3]
    a = diag(p, values)
    e, trace = teichmuller_idempotent(a, target=20)
    nf = normalize(e)
    # the limit indicates the topologically nilpotent coordinates
    for i, v in enumerate(values):
        want = 1 if v % p == 0 else 0
        assert (nf.entry(i, i) - Padic.from_int(want, p)).vanishes_to(20)
    assert op_agree(Product([e, e]), e, 20)
    # P(A) is already idempotent mod p on a diagonal, so phase 1 stops at
    # k = 0; each refinement step then at least doubles the defect's depth,
    # up to the window's depth N, the least absolute precision of A
    assert trace[0] == [1, 0, "1"]
    refine = [row for row in trace if row[0] == 2]
    assert len(refine) == len(trace) - 1 >= 2
    assert [row[1] for row in refine] == list(range(1, len(refine) + 1))
    n = min(x.absolute_precision for x in a.entries.values() if not x.is_exact_zero)
    depths = [int(d) for _, _, d in refine]
    assert depths[-1] == n
    assert all(min(2 * d, n) <= nxt for d, nxt in zip([1] + depths, depths))


def test_teichmuller_idempotent_jordan_block():
    # P(A) = 1 - A^2 is not idempotent mod 3 on a Jordan block, P(A^3) is:
    # the 2 x 2 window caps phase 1 at k = 1, where it succeeds
    p = 3
    a = jordan_block(p)
    e, trace = teichmuller_idempotent(a, target=30)
    assert [row[:2] for row in trace if row[0] == 1] == [[1, 0], [1, 1]]
    # A^(3^k) tends to 1 on the block, where P vanishes; P(0) = 1 past it
    assert op_agree(e, Diagonal(p, {0: Padic.zero(p), 1: Padic.zero(p)}, Padic.one(p)), 30)


def test_teichmuller_idempotent_refuses_eigenvalue_outside_fp():
    # [[0, 2], [1, 0]] squares to 2 I: its eigenvalues mod 3 are the square
    # roots of -1, outside F_3.  The 2 x 2 window caps phase 1 at k = 1.
    p = 3
    a = FiniteMatrix(p, {(0, 1): Padic.from_int(2, p), (1, 0): Padic.one(p)})
    with pytest.raises(PreconditionFailed, match=r"eigenvalue outside F_p \(k = 0\.\.1\)"):
        teichmuller_idempotent(a)


def _far_block(p, rows, at):
    """rows on the indices at, at + 1, ...: a window far from 0."""
    return FiniteMatrix(p, {(at + i, at + j): Padic.from_int(v, p) for i, row in enumerate(rows)
                            for j, v in enumerate(row) if v})


def test_teichmuller_cap_counts_the_indices_that_occur():
    # two indices occur, however large they are, so 3^1 >= 2 caps
    # phase 1 at k = 1
    p, at = 3, 10**4
    with pytest.raises(PreconditionFailed, match=r"eigenvalue outside F_p \(k = 0\.\.1\)"):
        teichmuller_idempotent(_far_block(p, [[0, 2], [1, 0]], at))
    e, trace = teichmuller_idempotent(_far_block(p, [[1, 1], [0, 1]], at))
    assert [row[:2] for row in trace if row[0] == 1] == [[1, 0], [1, 1]]
    zeros = {at: Padic.zero(p), at + 1: Padic.zero(p)}
    assert op_agree(e, Diagonal(p, zeros, Padic.one(p)), 30)


def test_teichmuller_idempotent_refuses_structured_tail():
    up = sum_ring_generators(3).up
    with pytest.raises(PreconditionFailed, match="structured tail"):
        teichmuller_idempotent(up)


def _charpoly(m):
    """Coefficients, constant first, of det(x I - m) over Z by
    Faddeev-LeVerrier; the divisions are exact."""
    n = len(m)
    coeffs = [0] * n + [1]
    acc = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        acc = [[sum(m[i][t] * acc[t][j] for t in range(n)) + (coeffs[n - k + 1] if i == j else 0)
                for j in range(n)] for i in range(n)]
        trace = sum(sum(m[i][t] * acc[t][i] for t in range(n)) for i in range(n))
        assert trace % k == 0
        coeffs[n - k] = -trace // k
    return coeffs


def _roots_mod_p(coeffs, p):
    """The number of roots in F_p of a monic integer polynomial, counted
    with multiplicity, by repeated synthetic division mod p."""
    poly = [c % p for c in coeffs]
    count = 0
    for r in range(p):
        while len(poly) > 1:
            # poly = (x - r) q + poly(r), Horner from the top
            q, carry = [], 0
            for c in reversed(poly):
                carry = (carry * r + c) % p
                q.append(carry)
            if q.pop():
                break
            poly = q[::-1]
            count += 1
    return count


def test_teichmuller_idempotent_converges_iff_charpoly_splits():
    # the phase-1 cap is exact: teich refines exactly when every eigenvalue
    # of A mod p lies in F_p, that is, when det(x I - A) splits mod p
    rng = random.Random(104)
    outcomes = set()
    for trial in range(150):
        p = (2, 3, 5)[trial % 3]
        n = rng.randint(1, 4)
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        a = FiniteMatrix(p, {(i, j): Padic.from_int(x, p) for i, row in enumerate(rows)
                             for j, x in enumerate(row) if x})
        splits = _roots_mod_p(_charpoly(rows), p) == n
        try:
            e, _ = teichmuller_idempotent(a, target=10)
        except PreconditionFailed:
            converged = False
        else:
            converged = op_agree(Product([e, e]), e, 10)
        assert converged == splits, (p, rows)
        outcomes.add(splits)
    assert outcomes == {True, False}


def _int_mat_mul(x, y, mod=None):
    n = len(x)
    out = [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return out if mod is None else [[v % mod for v in row] for row in out]


def _unimodular(rng, n):
    """u and u^-1 over Z, as a product of elementary row operations."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        # u <- (1 + c e_ij) u, u^-1 <- u^-1 (1 - c e_ij)
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        for row in inv:
            row[j] -= c * row[i]
    return u, inv


def test_teichmuller_idempotent_matches_integer_iteration():
    # A = u J u^-1 with J a Jordan form over Z: diagonal, or with blocks
    # that make P(A) fail to be idempotent mod p.  The oracle takes the
    # limit of P(A^(p^k)) in plain ints mod p^target, with P built from
    # Teichmuller representatives pow(i, p^(t-1), p^t); past the n x n
    # block A is 0 and the limit is 1.
    rng = random.Random(20191)
    target, prec = 30, 40
    later_k = 0
    for trial in range(30):
        p = (3, 5, 7)[trial % 3]
        n = rng.randint(2, 6)
        mod = p**target
        j = [[0] * n for _ in range(n)]
        for i in range(n):
            j[i][i] = rng.randrange(1, p**3) * p ** rng.choice((0, 0, 1, 2))
            if i and trial % 3 == 1 and rng.random() < 0.6:
                j[i][i] = j[i - 1][i - 1]
                j[i - 1][i] = 1
        u, u_inv = _unimodular(rng, n)
        a_int = _int_mat_mul(_int_mat_mul(u, j), u_inv)
        coeffs = [1]  # prod (X - t) / prod(-t), constant term first
        denom = 1
        for i in range(1, p):
            t = pow(i, p ** (target - 1), mod)
            coeffs = [((coeffs[k - 1] if k else 0) - t * (coeffs[k] if k < len(coeffs) else 0)) % mod
                      for k in range(len(coeffs) + 1)]
            denom = denom * -t % mod
        coeffs = [c * pow(denom, -1, mod) % mod for c in coeffs]
        ident = [[int(r == c) for c in range(n)] for r in range(n)]
        power = [[x % mod for x in row] for row in a_int]
        values = []
        for _ in range(target + 2 * n):
            acc = [[0] * n for _ in range(n)]
            for c in reversed(coeffs):  # Horner
                acc = _int_mat_mul(acc, power, mod)
                acc = [[(x + c * ident[r][col]) % mod for col, x in enumerate(row)]
                       for r, row in enumerate(acc)]
            values.append(acc)
            step = power  # power <- power^p
            for _ in range(p - 1):
                step = _int_mat_mul(step, power, mod)
            power = step
        want = values[-1]
        assert values[-2] == want  # the oracle's own iteration has settled
        a = FiniteMatrix(p, {(r, c): Padic.from_int(x, p, prec)
                             for r, row in enumerate(a_int) for c, x in enumerate(row) if x})
        e, trace = teichmuller_idempotent(a, target=target)
        later_k = max(later_k, max(k for phase, k, _ in trace if phase == 1))
        nf = normalize(e)
        for r in range(n + 2):
            for c in range(n + 2):
                x = nf.entry(r, c)
                assert x.absolute_precision is None or x.absolute_precision >= target
                expect = want[r][c] if r < n and c < n else int(r == c)
                assert x.residue(target) == expect % mod, (trial, r, c)
    assert later_k >= 1  # some inputs needed more than P(A) in phase 1


def test_teichmuller_idempotent_refuses_non_contraction():
    # ||A|| = 3 fails step 1, which teich checks itself
    p = 3
    bad = FiniteMatrix(p, {(0, 0): Padic.one(p) / Padic.from_int(p, p)})
    with pytest.raises(CertificationFailed) as info:
        teichmuller_idempotent(bad)
    assert info.value.depth == 1
    e, _ = teichmuller_idempotent(diag(p, [1]), target=10)
    assert op_agree(e, Diagonal(p, {0: Padic.zero(p)}, Padic.one(p)), 10)


def test_calculus_keeps_operand_precision():
    # the 1s and the divisors are written at the operands' precision and
    # the -j are exact, so a precision-80 input keeps 80 digits (40 once)
    p, prec = 3, 80
    half = Padic.from_fraction(Fraction(1, 2), p, prec)
    a = Diagonal(p, {0: half, 1: Padic.from_int(5, p, prec)})
    identity_fn = mahler_expand([Padic.zero(p), Padic.one(p, prec)])
    result, _ = functional_calculus(a, identity_fn)
    nf = normalize(result)
    assert nf.entry(0, 0) == half and nf.entry(1, 1) == Padic.from_int(5, p, prec)
    # z = 0 leaves the constant term 1 of the binomial series
    one, _ = binomial_series(a, Padic.zero(p), 3)
    assert normalize(one).entry(7, 7) == Padic.one(p, prec)


def test_certified_zero_coefficient_keeps_its_bound():
    # T = (1, O(3^5)) at A = 3 I is 1 + O(3^5) * 3 = 1 + O(3^6): the walk
    # once skipped the certified zero and returned 1 + O(3^40)
    p = 3
    a = Diagonal(p, {}, Padic.from_int(3, p))
    fn = MahlerFunction(p, (Padic.one(p), Padic.zero(p, 5)), ValuationBound.zero())
    result, error = functional_calculus(a, fn)
    assert error.is_zero
    assert normalize(result).shift == Padic.one(p, 6)


def test_a_sum_that_vanishes_keeps_its_depth():
    # binom(A, 2) at A = 1 + O(3) is A(A - 1)/2, which vanishes mod 3 but
    # not exactly: the answer is O(3) I, where the public operator once
    # dropped every certified zero and read as exact 0
    p = 3
    a = FiniteMatrix(p, {(0, 0): Padic.from_int(1, p, 1)})
    result, _ = functional_calculus(a, one_hot(p, 2))
    nf = normalize(result)
    assert nf.shift.is_zero and nf.shift.absolute_precision == 1
    assert not nf.vanishes_to(2)
    # 1 + z binom(A - 1, 1): the 1 is exact and z (A - 1) is known to
    # v(z) + 1 = 2, so the sum is 1 + O(3^2)
    series, _ = binomial_series(a, Padic.from_int(3, p, 1), 1)
    assert normalize(series).entry(0, 0).absolute_precision == 2


# -- property: the walk on A's window against plain ints on a lift ------------


def _integral(x):
    """p^5 x, so that the forms strategy's valuations, from -5 on, are
    integral; a certified zero's bound moves by 5 too."""
    if x.is_zero:
        return x if x.precision is None else Padic.zero(x.prime, x.precision + 5)
    return Padic(x.prime, x.valuation + 5, x.unit, x.precision)


def _lift(rng, x, depth):
    """A random point of the ball of x mod p^depth: x's digits, then random
    digits past its absolute precision; an exact zero stays 0."""
    p, top = x.prime, x.absolute_precision
    if top is None:
        return 0
    base = 0 if x.is_zero or x.valuation >= depth else x.unit * p**x.valuation
    return (base + (p**top * rng.randrange(p ** (depth - top)) if top < depth else 0)) % p**depth


def _int_binomials(rows, count, p, depth):
    """binom(X, n) mod p^depth for n < count of an integer matrix X known
    mod p^depth past every digit asked of it: F_n(X) / p^j times the
    inverse of u, n! = p^j u, and the first n where F_n(X) does not vanish
    mod p^j, where binom(X, n) is not integral (None: no such n)."""
    size = len(rows)
    product = [[int(i == j) for j in range(size)] for i in range(size)]
    out = []
    for n in range(count):
        if n:
            product = [[sum(product[i][k] * (rows[k][j] - (n - 1) * (k == j)) for k in range(size))
                        for j in range(size)] for i in range(size)]
        j = factorial_valuation(n, p)
        if any(x % p**j for row in product for x in row):
            return out, n
        inverse = pow(factorial(n) // p**j, -1, p**depth)
        out.append([[x // p**j * inverse for x in row] for row in product])
    return out, None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_binomial_sums_hold_on_the_precision_ball(data):
    """functional_calculus and binomial_series on integral tail-free forms
    with uneven precision and a shift that may be a certified zero, and
    random integral coefficients, certified zeros among them.  For a random lift of every scalar, the plain-int sum of
    c_n binom(lift, n) agrees with every entry of the answer mod the depth
    it is certified to, and that depth is one N for all of them.  A
    refusal must be one the lift shows: a binom(A, n) that is not
    integral, or v_p(n!) or no digit left past the least input depth.

    Draws whose every scalar has one of the strategy's huge valuations are
    left out: their window depth N is about 10^6, and a window product on
    ints of 10^6 digits takes seconds."""
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 3))
    drawn = data.draw(forms(p, n, data.draw(st.booleans()), False))
    a = Sum([FiniteMatrix(p, {k: _integral(v) for k, v in drawn.head.items()}),
             Diagonal(p, {}, _integral(drawn.shift))])
    # the ball is that of the form the library reads: a public operator
    # keeps a certified zero in its shift, not in its head (ROADMAP item 2)
    nf = normalize(a)
    tops = [x.absolute_precision for x in [nf.shift, *nf.head.values()]]
    assume(min(filter(None, tops), default=0) < HUGE)
    rng = data.draw(st.randoms(use_true_random=False))
    K = 100  # past every depth an answer is certified to
    series = data.draw(st.booleans())
    if series:
        units = st.integers(1, p**3).filter(lambda u: u % p)
        z = data.draw(st.one_of(st.just(Padic.zero(p)), st.integers(1, 30).map(lambda d: Padic.zero(p, d)),
                                st.builds(lambda v, u: Padic.from_int(u * p**v, p, 30), st.integers(1, 3), units)))
        length = data.draw(st.integers(0, 4))
        lifted = _lift(rng, z, K)
        coeffs = [1] + ([] if z.is_exact_zero else [lifted**k for k in range(1, length + 1)])
        call, operand = lambda: binomial_series(a, z, length), z
    else:
        drawn_coeffs = data.draw(st.lists(st.builds(lambda v, u, prec: Padic.from_int(u * p**v, p, prec),
                                                    st.integers(0, 3), st.integers(0, p**4),
                                                    st.integers(1, 40)), min_size=1, max_size=5))
        coeffs = [_lift(rng, c, K) for c in drawn_coeffs]
        fn = MahlerFunction(p, tuple(drawn_coeffs), ValuationBound.zero())
        call, operand = lambda: functional_calculus(a, fn), fn
    # an exact A reads at the precision of the constants of its operands
    depth = min(filter(None, tops), default=precision_of(a, operand))
    shift = _lift(rng, nf.shift, K) - series
    rows = [[shift if i == j else 0 for j in range(n)] for i in range(n)]
    for (i, j), x in nf.head.items():
        rows[i][j] += _lift(rng, x, K)
    binoms, failed = _int_binomials(rows, len(coeffs), p, K)
    scalars, _ = _int_binomials([[shift]], len(coeffs), p, K)
    try:
        out, _ = call()
    except CertificationFailed as exc:
        assert failed == exc.depth
        return
    except PrecisionExhausted:
        assert depth <= factorial_valuation(len(coeffs) - 1, p)
        return
    assert failed is None
    got = normalize(out)
    values = [(got.entry(i, j), sum(c * b[i][j] for c, b in zip(coeffs, binoms)))
              for i in range(n) for j in range(n)]
    values.append((got.shift, sum(c * b[0][0] for c, b in zip(coeffs, scalars))))
    certified = {x.absolute_precision for x, _ in values} - {None}
    assert len(certified) <= 1
    for x, want in values:
        # a certified zero the public operator dropped reads as exact
        top = x.absolute_precision or min(certified, default=K)
        assert (want - (0 if x.is_zero else x.unit * p**x.valuation)) % p**top == 0

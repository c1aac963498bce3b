from fractions import Fraction
from itertools import combinations

import pytest

from padicops.operators import Diagonal, FiniteMatrix, Identity
from padicops.scale import (ScaleValue, determinant, scale_minor_probe,
                            scale_transpose_check, willis_scale_finite)
from padicops.scalars import Padic


def fm(p, table):
    return FiniteMatrix(p, {k: Padic.from_fraction(Fraction(v), p)
                            for k, v in table.items()})


def dense(p, rows):
    return [[Padic.from_fraction(Fraction(v), p) for v in row] for row in rows]


def test_determinant_small_cases():
    p = 3
    assert determinant([], p).residue(4) == 1
    assert determinant(dense(p, [[7]]), p).residue(4) == 7
    d = determinant(dense(p, [[1, 2], [3, 4]]), p)
    assert (d - Padic.from_int(-2, p)).vanishes_to(35)
    singular = determinant(dense(p, [[1, 2], [2, 4]]), p)
    assert singular.is_zero


def test_determinant_keeps_operand_precision():
    # the product starts from the first pivot, not from a 1 written at
    # 40; [[2, 1], [1, 5]] once came out with absolute precision 42
    p, prec = 3, 80
    for rows, det in (([[2, 1], [1, 5]], 9),    # no swap
                      ([[3, 1], [1, 1]], 2),    # a column swap
                      ([[9, 3], [3, 2]], 9)):   # a row and a column swap
        d = determinant([[Padic.from_int(v, p, prec) for v in row] for row in rows], p)
        assert d.residue(prec) == det and d.absolute_precision >= prec



def test_determinant_elimination_path(rng):
    # above 4x4 the elimination routine takes over; cross-check the two
    p = 5
    for _ in range(5):
        rows = [[rng.randrange(-9, 9) for _ in range(5)] for _ in range(5)]
        got = determinant(dense(p, rows), p)
        expect = _int_det(rows)
        assert (got - Padic.from_int(expect, p)).vanishes_to(25)


def _int_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _int_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(n))


def test_scale_of_identity_window():
    a = fm(3, {(0, 0): 1, (1, 1): 1})
    assert willis_scale_finite(a, 2) == ScaleValue(0)
    assert str(ScaleValue(0)) == "p^0"


def test_scale_diagonal_example():
    a = fm(3, {(0, 0): Fraction(1, 3), (1, 1): 3, (2, 2): 1})
    got = willis_scale_finite(a, 3)
    assert got == ScaleValue(1)
    assert str(got) == "p^1"


def test_scale_collects_negative_powers():
    a = fm(3, {(0, 0): Fraction(1, 9), (1, 1): Fraction(1, 3)})
    assert willis_scale_finite(a, 2) == ScaleValue(3)


def test_scale_floors_at_one():
    a = fm(3, {(0, 0): 9, (1, 1): 27})
    assert willis_scale_finite(a, 2) == ScaleValue(0)
    assert willis_scale_finite(FiniteMatrix(3, {}), 3) == ScaleValue(0)


def test_scale_sees_non_principal_minors():
    a = fm(3, {(0, 1): Fraction(1, 3)})
    assert willis_scale_finite(a, 2) == ScaleValue(1)


def test_scale_refuses_large_windows():
    # windows above 8x8 are answered; only entries outside the window are refused
    assert willis_scale_finite(FiniteMatrix(3, {}), 9) == ScaleValue(0)
    with pytest.raises(ValueError):
        willis_scale_finite(fm(3, {(5, 5): 1}), 2)
    with pytest.raises(ValueError):
        ScaleValue(-1)


def test_transpose_invariance(rng):
    p = 3
    for _ in range(10):
        table = {}
        for _ in range(rng.randrange(1, 7)):
            i, j = rng.randrange(4), rng.randrange(4)
            table[(i, j)] = Fraction(rng.randrange(-8, 9), p**rng.randrange(0, 3))
        a = fm(p, table)
        assert scale_transpose_check(a)
    assert scale_transpose_check(FiniteMatrix(p, {}), 2)


def test_minor_probe_on_structural_operators():
    probe = scale_minor_probe(Identity(3), [1, 2, 4])
    assert probe == [(1, ScaleValue(0)), (2, ScaleValue(0)), (4, ScaleValue(0))]
    d = Diagonal(3, {0: Padic.one(3) / Padic.from_int(3, 3)})
    probe = scale_minor_probe(d, [1, 3])
    assert probe == [(1, ScaleValue(1)), (3, ScaleValue(1))]


# -- oracles that do not use padicops ------------------------------------------


def _vp(q, p):
    """Valuation of a nonzero rational."""
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _fraction_det(rows):
    work = [r[:] for r in rows]
    n = len(work)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if work[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            work[k], work[pivot] = work[pivot], work[k]
            det = -det
        det *= work[k][k]
        for i in range(k + 1, n):
            f = work[i][k] / work[k][k]
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[k])]
    return det


def _minor_scale(rows, p):
    """Scale exponent as the largest |det| over all C(n,k)^2 square minors."""
    n = len(rows)
    best = 0
    for k in range(1, n + 1):
        for rsel in combinations(range(n), k):
            for csel in combinations(range(n), k):
                det = _fraction_det([[rows[i][j] for j in csel] for i in rsel])
                if det:
                    best = max(best, -_vp(det, p))
    return best


def _random_rows(rng, p, n, kind):
    def entry():
        return Fraction(rng.randrange(-p**3, p**3 + 1)) * Fraction(p) ** rng.randint(-3, 3)

    if kind == "sparse":
        rows = [[Fraction(0)] * n for _ in range(n)]
        for _ in range(rng.randint(1, n + 1)):
            rows[rng.randrange(n)][rng.randrange(n)] = entry()
        return rows
    rows = [[entry() for _ in range(n)] for _ in range(n)]
    if kind == "integral":
        rows = [[Fraction(rng.randrange(-p**3, p**3 + 1)) for _ in range(n)] for _ in range(n)]
    if kind == "singular" and n > 1:
        # last row: a rational combination of two others
        a, b = rng.randrange(n - 1), rng.randrange(n - 1)
        c = Fraction(rng.randrange(1, p**2)) * Fraction(p) ** rng.randint(-2, 2)
        rows[-1] = [c * x + y for x, y in zip(rows[a], rows[b])]
    return rows


def test_scale_matches_minor_enumeration(rng):
    checked = 0
    for p in (2, 3, 5):
        for kind in ("dense", "sparse", "singular", "integral"):
            for trial in range(18):
                n = 1 + trial % 6
                rows = _random_rows(rng, p, n, kind)
                a = fm(p, {(i, j): v for i, row in enumerate(rows)
                           for j, v in enumerate(row) if v})
                assert willis_scale_finite(a, n) == ScaleValue(_minor_scale(rows, p)), (p, kind, rows)
                checked += 1
    assert checked >= 200


@pytest.mark.parametrize("n", [9, 16, 40])
def test_scale_of_large_conjugated_windows(rng, n):
    # u D u^-1 with u unimodular over Z: the scale is the product of the
    # eigenvalue norms above 1.  Conjugating by one elementary move at a
    # time keeps the arithmetic exact without forming u^-1.
    p = 3
    exps = [rng.randint(-3, 2) for _ in range(n)]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, e in enumerate(exps):
        rows[i][i] = Fraction(rng.choice([1, 2, 4, 5, 7, 8])) * Fraction(p) ** e
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]  # E * A
        for row in rows:  # A * E^-1
            row[j] -= c * row[i]
    a = fm(p, {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v})
    assert willis_scale_finite(a, n) == ScaleValue(sum(max(0, -e) for e in exps))

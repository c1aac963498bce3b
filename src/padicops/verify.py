"""Acceptance suite: every check pairs the library's computation with
an independent oracle (symbolic rational algebra, combinatorial
formulas, or per-coordinate scalar limits) and demands exact agreement
at the declared depths.  `run_all` prints one line per criterion.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .calculus import functional_calculus, teichmuller_idempotent
from .config import ExperimentConfig
from .idempotents import (cantor_unpair, idempotent_equivalence,
                          idempotent_lift, idempotent_refine,
                          idempotent_split, infinite_sum, finite_rank_reduce,
                          refinement_polynomial, sum_ring_generators)
from .mahler import mahler_expand, mahler_eval, mahler_sup_norm
from .operators import (Diagonal, FiniteMatrix, NormalForm, Operator, Product,
                        is_compact, normalize, op_agree, op_apply, op_norm,
                        weighted_shift_matrix)
from .polynomials import IntPolynomial
from .scale import determinant, scale_transpose_check, willis_scale_finite
from .scalars import (Padic, ValuationBound, binomial_padic,
                      factorial_valuation, norm_max, vandermonde_coefficients)
from .vectors import PadicVector


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


# -- rational-arithmetic helpers ----------------------------------------


def _poly_trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1 or 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_acc(acc: list[Fraction], poly: list[Fraction], scale: Fraction) -> list[Fraction]:
    if len(poly) > len(acc):
        acc = acc + [Fraction(0)] * (len(poly) - len(acc))
    for i, c in enumerate(poly):
        acc[i] += scale * c
    return acc


def _binom_poly(k: int) -> list[Fraction]:
    """x(x-1)...(x-k+1)/k! with exact rational coefficients."""
    coeffs = [Fraction(1)]
    for j in range(k):
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d + 1] += c
            nxt[d] -= c * j
        coeffs = nxt
    fact = math.factorial(k)
    return [c / fact for c in coeffs]


def _fraction_solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    n = len(rows)
    aug = [rows[i][:] + [rhs[i]] for i in range(n)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if aug[i][k] != 0)
        aug[k], aug[pivot] = aug[pivot], aug[k]
        inv = 1 / aug[k][k]
        aug[k] = [c * inv for c in aug[k]]
        for i in range(n):
            if i != k and aug[i][k] != 0:
                f = aug[i][k]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[k])]
    return [aug[i][n] for i in range(n)]


def _fraction_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(rows)
    cols = []
    for j in range(n):
        rhs = [Fraction(1 if i == j else 0) for i in range(n)]
        cols.append(_fraction_solve(rows, rhs))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _fraction_det(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    work = [r[:] for r in rows]
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
            work[i] = [a - f * b for a, b in zip(work[i], work[k])]
    return det


def _unimodular(rng: random.Random, n: int, steps: int = 14) -> list[list[int]]:
    """Random integer matrix with determinant +-1 (elementary moves)."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        if rng.random() < 0.2:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            c = rng.choice([-2, -1, 1, 2])
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def _matrix_op(rows: list[list[Fraction]], prime: int, precision: int) -> FiniteMatrix:
    entries = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v != 0:
                entries[(i, j)] = Padic.from_fraction(v, prime, precision)
    return FiniteMatrix(prime, entries)


def _mat_mul_frac(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def _conjugated_idempotent(rng: random.Random, size: int, rank: int,
                           prime: int, precision: int) -> FiniteMatrix:
    u = [[Fraction(c) for c in row] for row in _unimodular(rng, size)]
    u_inv = _fraction_inverse(u)
    d = [[Fraction(1 if i == j and i < rank else 0) for j in range(size)] for i in range(size)]
    e = _mat_mul_frac(_mat_mul_frac(u, d), u_inv)
    return _matrix_op(e, prime, precision)


def _minor_rank(op: Operator, size: int, prime: int, threshold: int) -> int:
    """Independent rank oracle for idempotents: the largest k whose
    principal k x k minors do not all vanish past the threshold.

    Sound because the principal k-minors of a rank-r idempotent sum to
    binom(r, k): at k = r the sum is 1, so some minor is a unit, and at
    k > r every minor is zero up to the working precision.
    """
    nf = normalize(op)
    rows = [[nf.entry(i, j) for j in range(size)] for i in range(size)]
    from itertools import combinations
    for k in range(size, 0, -1):
        for sel in combinations(range(size), k):
            block = [[rows[i][j] for j in sel] for i in sel]
            if not determinant(block, prime).vanishes_to(threshold):
                return k
    return 0


def _certified_depth(e: Operator, target: int) -> int:
    """The least absolute precision among e's entries and shift: the depth
    e's own digits claim (the target for exact data, such as 0)."""
    nf = normalize(e)
    tops = [x.absolute_precision for x in (nf.shift, *nf.head.values())]
    return min((top for top in tops if top is not None), default=target)


def _idempotent_to_its_digits(e: Operator, target: int) -> bool:
    """Whether e.e agrees with e to the depth e's digits claim."""
    return op_agree(Product([e, e]), e, _certified_depth(e, target))


def _sparse_noise(rng: random.Random, size: int, scale: int,
                  prime: int, precision: int) -> dict[tuple[int, int], Padic]:
    out = {}
    for _ in range(size + 2):
        i, j = rng.randrange(size), rng.randrange(size)
        c = rng.randrange(1, prime ** 3)
        out[(i, j)] = Padic.from_int(c * prime ** scale, prime, precision)
    return out


def _add_entries(a: FiniteMatrix, noise: dict[tuple[int, int], Padic]) -> FiniteMatrix:
    entries = dict(a.entries)
    for key, v in noise.items():
        entries[key] = entries.get(key, Padic.zero(a.prime)) + v
    return FiniteMatrix(a.prime, entries)


# -- criteria ------------------------------------------------------------


def _c01_binomial_identities(cfg: ExperimentConfig) -> tuple[bool, str]:
    p, prec = cfg.prime, cfg.precision
    rng = random.Random(cfg.seed + 101)
    # symbolic oracle over Q: the product identity and the recurrence
    for m in range(9):
        for n in range(9):
            lhs = _poly_mul(_binom_poly(m), _binom_poly(n))
            rhs: list[Fraction] = []
            for l, c in vandermonde_coefficients(m, n).items():
                rhs = _poly_acc(rhs, _binom_poly(l), Fraction(c))
            if _poly_trim(lhs) != _poly_trim(rhs):
                return False, f"symbolic product identity fails at m={m}, n={n}"
    for n in range(9):
        lhs = _poly_mul([Fraction(0), Fraction(1)], _binom_poly(n))
        rhs = _poly_acc([], _binom_poly(n), Fraction(n))
        rhs = _poly_acc(rhs, _binom_poly(n + 1), Fraction(n + 1))
        if _poly_trim(lhs) != _poly_trim(rhs):
            return False, f"symbolic recurrence fails at n={n}"
    # randomized p-adic evaluations
    for _ in range(100):
        x = Padic.from_int(rng.randrange(p ** prec), p, prec)
        binoms = [binomial_padic(x, k) for k in range(18)]
        for m in range(9):
            for n in range(9):
                depth = prec - factorial_valuation(m + n, p)
                lhs = binoms[m] * binoms[n]
                rhs = Padic.zero(p)
                for l, c in vandermonde_coefficients(m, n).items():
                    rhs = rhs + binoms[l].scale_int(c)
                if not (lhs - rhs).vanishes_to(depth):
                    return False, f"product identity fails at m={m}, n={n}"
        for n in range(9):
            depth = prec - factorial_valuation(n + 1, p)
            gap = x * binoms[n] - binoms[n].scale_int(n) - binoms[n + 1].scale_int(n + 1)
            if not gap.vanishes_to(depth):
                return False, f"recurrence fails at n={n}"
    return True, "symbolic oracle and 100 points, m,n <= 8"


def _c02_factorial_valuation(cfg: ExperimentConfig) -> tuple[bool, str]:
    for p in (2, 3, 5, 7):
        for n in range(1001):
            total, q = 0, p
            while q <= n:
                total += n // q
                q *= p
            if factorial_valuation(n, p) != total:
                return False, f"mismatch at n={n}, p={p}"
    return True, "digit formula equals Legendre sums, n <= 1000, p in {2,3,5,7}"


def _c03_mahler_round_trip(cfg: ExperimentConfig) -> tuple[bool, str]:
    p, prec, target = cfg.prime, cfg.precision, cfg.target_valuation
    rng = random.Random(cfg.seed + 103)
    window = 12
    for _ in range(50):
        deg = rng.randint(0, 10)
        poly = IntPolynomial(tuple(rng.randrange(-p ** 4, p ** 4) for _ in range(deg + 1)))
        samples = [Padic.from_int(poly(k), p, prec) for k in range(window + 1)]
        fn = mahler_expand(samples)
        for k, sample in enumerate(samples):
            diff = mahler_eval(fn, Padic.from_int(k, p, prec)) - sample
            if not (diff.is_zero and diff.vanishes_to(target)):
                return False, f"round trip fails at k={k} (degree {deg})"
        if mahler_sup_norm(fn) != norm_max(s.norm for s in samples):
            return False, f"sup-norm identity fails (degree {deg})"
    return True, "50 random polynomials of degree <= 10, exact round trip and sup norm"


def _sampled(poly: IntPolynomial, count: int, prime: int, precision: int):
    return mahler_expand([Padic.from_int(poly(k), prime, precision) for k in range(count + 1)])


def _c04_calculus_homomorphism(cfg: ExperimentConfig) -> tuple[bool, str]:
    p, prec, target = cfg.prime, cfg.precision, cfg.target_valuation
    rng = random.Random(cfg.seed + 104)
    diag_entries = {i: Padic.from_int(rng.randrange(1, p ** 5) * p ** rng.choice((0, 0, 1)), p, prec)
                    for i in range(6)}
    instances: list[Operator] = [
        Diagonal(p, diag_entries),
        weighted_shift_matrix(p, 8, prec),
    ]
    identity_fn = _sampled(IntPolynomial((0, 1)), 1, p, prec)
    for a in instances:
        pi_id, _ = functional_calculus(a, identity_fn)
        if not op_agree(pi_id, a, target):
            return False, "calculus does not send the identity function to A"
        for _ in range(6):
            f = IntPolynomial(tuple(rng.randrange(-p ** 3, p ** 3) for _ in range(rng.randint(1, 7))))
            g = IntPolynomial(tuple(rng.randrange(-p ** 3, p ** 3) for _ in range(rng.randint(1, 7))))
            pf, _ = functional_calculus(a, _sampled(f, 6, p, prec))
            pg, _ = functional_calculus(a, _sampled(g, 6, p, prec))
            pfg, _ = functional_calculus(a, _sampled(f * g, 12, p, prec))
            if not op_agree(Product([pf, pg]), pfg, target):
                return False, "product of images differs from image of product"
    return True, "identity and products match on a diagonal and the weighted shift"


def _c05_falling_product_rows(cfg: ExperimentConfig) -> tuple[bool, str]:
    p, prec, target = cfg.prime, cfg.precision, cfg.target_valuation
    a = weighted_shift_matrix(p, 8, prec)
    nf = normalize(a)
    product = nf
    for k in range(6):
        if k > 0:
            step = NormalForm(p, Padic.from_int(-k, p, prec), None, {})
            product = product.mul(nf.add(step))
        for row in range(6):
            for col in range(6):
                d = row - col
                expected = 0
                if 0 <= d:
                    expected = (math.comb(k + 1, d) * math.comb(row, k + 1)
                                * math.factorial(k + 1))
                diff = product.entry(row, col) - Padic.from_int(expected, p, prec)
                if not (diff.is_zero and diff.vanishes_to(target)):
                    return False, f"entry ({row},{col}) of step k={k} mismatches"
    return True, "row formula exact for n,k <= 5 on the truncated shift"


def _c06_teichmuller_idempotent(cfg: ExperimentConfig) -> tuple[bool, str]:
    p, prec, target = 5, cfg.precision, cfg.target_valuation
    rng = random.Random(cfg.seed + 106)
    entries = {}
    for i in range(12):
        unit = rng.randrange(1, p ** 4)
        if unit % p == 0:
            unit += 1
        entries[i] = Padic.from_int(unit * p ** rng.choice((0, 0, 1, 2)), p, prec)
    a = Diagonal(p, entries)
    e, trace = teichmuller_idempotent(a, target=target)
    evaluations = sum(1 for row in trace if row[0] == 1)
    steps = len(trace) - evaluations
    if evaluations != 1:
        return False, f"{evaluations} evaluations of P(A^(p^k)); a diagonal needs one"
    nfe = normalize(e)
    one, zero = Padic.one(p, prec), Padic.zero(p)
    for i, v in entries.items():
        expected = one if v.valuation >= 1 else zero
        if not (nfe.entry(i, i) - expected).vanishes_to(target):
            return False, f"coordinate {i} disagrees with the scalar limit"
    if not (nfe.entry(100, 100) - one).vanishes_to(target):
        return False, "default coordinate should converge to 1"
    if not op_agree(Product([e, e]), e, target):
        return False, "result is not idempotent at the target"
    return True, (f"converged in {evaluations} evaluation(s) of P(A^(p^k)) and {steps} "
                  f"refinement steps on a 12-entry diagonal (p=5)")


def _refinement_system_oracle(m: int) -> list[Fraction]:
    """Coefficients a_m..a_{2m-1} from the flatness linear system."""
    rows = []
    rhs = []
    for k in range(m):
        row = []
        for i in range(m, 2 * m):
            ff = Fraction(1)
            for t in range(k):
                ff *= i - t
            row.append(ff)
        rows.append(row)
        rhs.append(Fraction(1 if k == 0 else 0))
    return _fraction_solve(rows, rhs)


def _c07_idempotent_refinement(cfg: ExperimentConfig) -> tuple[bool, str]:
    p, prec, target = cfg.prime, cfg.precision, cfg.target_valuation
    rng = random.Random(cfg.seed + 107)
    for m in range(1, 7):
        pm, pm1 = refinement_polynomial(m), refinement_polynomial(m + 1)
        step = IntPolynomial((0, -1, 1)) ** m
        if step.divides_into(pm1 - pm) is None:
            return False, f"(x^2-x)^{m} does not divide the refinement step"
        oracle = _refinement_system_oracle(m)
        if [Fraction(c) for c in pm.coeffs[m:]] != oracle:
            return False, f"coefficient formula disagrees with the linear system at m={m}"
    for trial in range(100):
        size, rank = 5, rng.randint(1, 4)
        e = _conjugated_idempotent(rng, size, rank, p, prec)
        a = _add_entries(e, _sparse_noise(rng, size, 3, p, prec))
        if op_norm(a) != ValuationBound.one():
            return False, f"instance {trial} is not of norm 1"
        refined = idempotent_refine(a, target)
        if not op_agree(Product([refined, refined]), refined, target):
            return False, f"refinement output not idempotent (trial {trial})"
        if not _idempotent_to_its_digits(refined, target):
            return False, f"refinement output not idempotent to its certified depth (trial {trial})"
        if not op_norm(a - refined) < ValuationBound.one():
            return False, f"refinement strayed too far (trial {trial})"
    # ||a|| = p: conjugates of [[1, u/p], [0, 0]] (+) diag(1, 0, 0) plus
    # noise of valuation >= 4, so v(d) >= 3 > 2; each agrees with a
    # Fraction refinement of its exact rows to its certified depth
    for trial in range(20):
        u = [[Fraction(c) for c in row] for row in _unimodular(rng, 5)]
        rows = [[Fraction(int(i == j and i in (0, 2))) for j in range(5)] for i in range(5)]
        rows[0][1] = Fraction(rng.choice([c for c in range(1, p * p) if c % p]), p)
        rows = _mat_mul_frac(_mat_mul_frac(u, rows), _fraction_inverse(u))
        for _ in range(7):
            rows[rng.randrange(5)][rng.randrange(5)] += rng.randrange(1, p ** 3) * p ** 4
        a = _matrix_op(rows, p, prec)
        refined = idempotent_refine(a, target)
        exact = _matrix_op(_fraction_idempotent(rows, p, prec + 40), p, prec + 40)
        if not (op_norm(a) == ValuationBound(-1) and op_agree(Product([refined, refined]), refined, target)
                and op_norm(a - refined) < ValuationBound(1)
                and op_agree(refined, exact, _certified_depth(refined, target))):
            return False, f"norm-p instance {trial} fails e^2 = e, ||a - e|| < 1/p or its Fraction oracle"
    # per-coordinate scalar oracle on a diagonal instance
    d = {0: Padic.from_int(1 + p ** 3, p, prec), 1: Padic.from_int(p ** 3, p, prec)}
    refined = idempotent_refine(Diagonal(p, d), target)
    nfr = normalize(refined)
    ok = ((nfr.entry(0, 0) - Padic.one(p, prec)).vanishes_to(target)
          and nfr.entry(1, 1).vanishes_to(target))
    if not ok:
        return False, "diagonal instance disagrees with the scalar limits"
    return True, ("symbolic checks for m <= 6, 100 random near-idempotents and 20 of "
                  "norm p against a Fraction refinement")


def _fraction_idempotent(rows: list[list[Fraction]], prime: int,
                         depth: int) -> list[list[Fraction]]:
    """Eight steps of e <- 3e^2 - 2e^3 from rows, whose entries have
    p-power denominators, each entry cut mod p^depth after each step: a
    cut grows by at most ||rows||^2 a step, and eight steps take a defect
    of valuation 1 past 2^8."""
    for _ in range(8):
        sq = _mat_mul_frac(rows, rows)
        rows = [[(3 * x - 2 * y) % prime**depth for x, y in zip(r, q)]
                for r, q in zip(sq, _mat_mul_frac(sq, rows))]
    return rows


def _c08_equivalence_witnesses(cfg: ExperimentConfig) -> tuple[bool, str]:
    p, prec, target = cfg.prime, cfg.precision, cfg.target_valuation
    rng = random.Random(cfg.seed + 108)
    for trial in range(50):
        size, rank = 4, rng.randint(1, 3)
        e = _conjugated_idempotent(rng, size, rank, p, prec)
        a = _add_entries(e, _sparse_noise(rng, size, 2, p, prec))
        f = idempotent_refine(a, target)
        witness = idempotent_equivalence(e, f, target)
        conj = Product([witness.u, e, witness.u_inv])
        if not op_agree(conj, f, target):
            return False, f"witness conjugation fails (trial {trial})"
        if _minor_rank(e, size, p, target // 2) != rank:
            return False, f"input rank oracle disagrees (trial {trial})"
        if _minor_rank(f, size, p, target // 2) != rank:
            return False, f"rank not preserved (trial {trial})"
    return True, "50 witnesses verified with the minor-rank oracle"


def _rank_one_piece(rng: random.Random, kind: int, i: int, j: int,
                    prime: int) -> dict[tuple[int, int], Fraction]:
    """A rank-1 idempotent v (x) w with <w, v> = 1 on coordinates {i, j}.

    kind 0: integral entries; kind 1: column j non-integral, column i
    integral; kind 2: both columns non-integral.
    """
    p = Fraction(prime)
    if kind == 0:
        c, t = rng.randrange(1, prime ** 2), rng.randrange(1, prime)
        v = {i: Fraction(1), j: Fraction(c)}
        w = {i: 1 - c * p * t, j: p * t}
    elif kind == 1:
        a = rng.randint(1, 2)
        u = 1 + prime * rng.randrange(1, prime)  # forces v_p(1 - u) = 1
        v = {i: p ** (-2 * a), j: Fraction(1)}
        w = {i: p ** (2 * a) * u, j: 1 - Fraction(u)}
    else:
        a = rng.randint(1, 2)
        v = {i: p ** -a, j: p ** -a}
        w = {i: Fraction(1), j: p ** a - 1}
    assert sum(v[x] * w[x] for x in (i, j)) == 1
    return {(r, c): v[r] * w[c] for r in (i, j) for c in (i, j) if v[r] * w[c] != 0}


def _pieced_idempotent(rng: random.Random, size: int, prime: int,
                       precision: int) -> FiniteMatrix:
    """Direct sum of rank-1 pieces on disjoint pairs, with a total of
    one to three non-integral columns."""
    pieces = rng.randint(1, 3)
    coords = rng.sample(range(size), 2 * pieces)
    entries: dict[tuple[int, int], Fraction] = {}
    budget = 3
    for k in range(pieces):
        if k == 0:
            kind = rng.choice([1, 2])
        else:
            kind = rng.choice([0, 1, 2] if budget >= 2 else [0, 1] if budget else [0])
        budget -= kind if kind else 0
        entries.update(_rank_one_piece(rng, kind, coords[2 * k], coords[2 * k + 1], prime))
    rows = [[entries.get((i, j), Fraction(0)) for j in range(size)] for i in range(size)]
    return _matrix_op(rows, prime, precision)


def _c09_idempotent_splitting(cfg: ExperimentConfig) -> tuple[bool, str]:
    p, prec, target = cfg.prime, cfg.precision, cfg.target_valuation
    rng = random.Random(cfg.seed + 109)
    for _ in range(12):
        e = _pieced_idempotent(rng, 8, p, prec)
        split = idempotent_split(e, target)
        if not op_agree(split.f + split.g, e, target):
            return False, "split parts do not sum to the input"
        for left, right in ((split.f, split.g), (split.g, split.f)):
            if not normalize(Product([left, right])).vanishes_to(target):
                return False, "split parts do not annihilate each other"
        if not op_norm(split.g) <= ValuationBound.one():
            return False, "contractive part has norm above 1"
        if any(not v.is_integral for v in normalize(split.g).head.values()):
            return False, "contractive part kept a non-integral entry"
    return True, "12 split instances with 1-3 exceptional columns verified"


def _c10_sum_ring(cfg: ExperimentConfig) -> tuple[bool, str]:
    p, prec, target = cfg.prime, cfg.precision, cfg.target_valuation
    rng = random.Random(cfg.seed + 110)
    gens = sum_ring_generators(p)
    for x in range(256):
        delta = PadicVector.basis(p, x, prec)
        pairs = [
            op_apply(gens.first_to_all, op_apply(gens.all_to_first, delta)),
            op_apply(gens.down, op_apply(gens.up, delta)),
            op_apply(gens.all_to_first, op_apply(gens.first_to_all, delta))
            + op_apply(gens.up, op_apply(gens.down, delta)),
        ]
        if any((v - delta).entries for v in pairs):
            return False, f"generator relations fail at basis index {x}"
    depth = max(cantor_unpair(x)[0] for x in range(64)) + 1
    for trial in range(20):
        entries = {(i, j): Padic.from_int(rng.randrange(p ** 4), p, prec)
                   for i in range(4) for j in range(4)}
        a = FiniteMatrix(p, entries)
        spread = infinite_sum(a, depth)
        for x in range(64):
            if cantor_unpair(x)[0] >= depth:
                continue
            delta = PadicVector.basis(p, x, prec)
            lhs = (op_apply(gens.all_to_first, op_apply(a, op_apply(gens.first_to_all, delta)))
                   + op_apply(gens.up, op_apply(spread, op_apply(gens.down, delta))))
            gap = lhs - op_apply(spread, delta)
            if gap.entries:
                return False, f"repeat equation fails at x={x} (trial {trial})"
    return True, "relations exact on 256 basis vectors; repeat equation on 64 x 20 blocks"


def _fitting_idempotent_mod_p(rows: list[list[int]], p: int) -> list[list[int]]:
    """The Fitting idempotent of an int matrix M mod p, in plain ints:
    the one idempotent among the powers of M mod p.  The powers repeat,
    M^k = M^i for a first k > i, and M^j is idempotent for each multiple
    j of k - i with j >= i."""
    powers = [tuple(tuple(v % p for v in row) for row in rows)]
    while powers[-1] not in powers[:-1]:
        power = _mat_mul_frac(powers[-1], powers[0])
        powers.append(tuple(tuple(v % p for v in row) for row in power))
    start = powers.index(powers[-1]) + 1
    gap = len(powers) - start
    return [list(row) for row in powers[-(-start // gap) * gap - 1]]


def _non_idempotent_window(rng: random.Random, outside: bool, p: int) -> list[list[int]]:
    """u (b (+) c) u^-1 + p r on a 4 x 4 window, c and r random, b the
    companion of x^2 (nilpotent) or, when outside, of an x^2 + sx + t
    with no root in F_p: either way not idempotent mod p."""
    rootless = [(s, t) for s in range(p) for t in range(p)
                if all((x * x + s * x + t) % p for x in range(p))]
    s, t = rng.choice(rootless) if outside else (0, 0)
    c = [rng.randrange(-4, 5) for _ in range(4)]
    block = [[0, -t, 0, 0], [1, -s, 0, 0], [0, 0, c[0], c[1]], [0, 0, c[2], c[3]]]
    u = [[Fraction(v) for v in row] for row in _unimodular(rng, 4)]
    conj = _mat_mul_frac(_mat_mul_frac(u, block), _fraction_inverse(u))
    return [[int(v) + p * rng.randrange(-4, 5) for v in row] for row in conj]


def _c11_idempotent_lifting(cfg: ExperimentConfig) -> tuple[bool, str]:
    p, prec, target = cfg.prime, cfg.precision, cfg.target_valuation
    rng = random.Random(cfg.seed + 111)
    trials = []
    for _ in range(50):
        size, rank = 8, rng.randint(1, 3)
        e = _conjugated_idempotent(rng, size, rank, p, prec)
        trials.append((_add_entries(e, _sparse_noise(rng, size, 2, p, prec)), None))
    for k in range(10):
        rows = _non_idempotent_window(rng, k % 2 == 1, p)
        trials.append((_matrix_op(rows, p, prec), rows))
    for trial, (a, rows) in enumerate(trials):
        lifted = idempotent_lift(a, target=target)
        if not op_agree(Product([lifted, lifted]), lifted, target):
            return False, f"lift not idempotent (trial {trial})"
        if not _idempotent_to_its_digits(lifted, target):
            return False, f"lift not idempotent to its certified depth (trial {trial})"
        if not is_compact(lifted - a):
            return False, f"lift defect not compact (trial {trial})"
        if rows is None:
            continue
        nf = normalize(lifted)
        if [[nf.entry(i, j).residue(1) for j in range(4)] for i in range(4)] != (
                _fitting_idempotent_mod_p(rows, p)):
            return False, f"lift is not the Fitting idempotent mod p (trial {trial})"
    return True, ("50 lifts of perturbed finite idempotents and 10 of windows not "
                  "idempotent mod p, all certified")


def _c12_rank_invariance(cfg: ExperimentConfig) -> tuple[bool, str]:
    p, prec = cfg.prime, cfg.precision
    rng = random.Random(cfg.seed + 112)
    for trial in range(50):
        size, rank = 5, rng.randint(0, 4)
        while True:
            u = [[Fraction(rng.randrange(-6, 7)) for _ in range(size)] for _ in range(size)]
            if _fraction_det(u) != 0:
                break
        d = [[Fraction(1 if i == j and i < rank else 0) for j in range(size)] for i in range(size)]
        e = _matrix_op(_mat_mul_frac(_mat_mul_frac(u, d), _fraction_inverse(u)), p, prec)
        if finite_rank_reduce(e) != rank:
            return False, f"rank mismatch (trial {trial}, rank {rank})"
    return True, "50 conjugated projections, ranks recovered exactly"


def _c13_willis_scale(cfg: ExperimentConfig) -> tuple[bool, str]:
    p, prec = cfg.prime, cfg.precision
    rng = random.Random(cfg.seed + 113)
    for trial in range(50):
        size = rng.randint(2, 4)
        exps = [rng.randint(-3, 2) for _ in range(size)]
        units = []
        for _ in range(size):
            u = rng.randrange(1, p ** 3)
            if u % p == 0:
                u += 1
            units.append(u)
        eigs = [Fraction(u) * Fraction(p) ** e for u, e in zip(units, exps)]
        u = [[Fraction(c) for c in row] for row in _unimodular(rng, size)]
        d = [[eigs[i] if i == j else Fraction(0) for j in range(size)] for i in range(size)]
        a = _matrix_op(_mat_mul_frac(_mat_mul_frac(u, d), _fraction_inverse(u)), p, prec)
        expected = sum(max(0, -e) for e in exps)
        got = willis_scale_finite(a, size).exponent
        if got != expected:
            return False, f"scale {got} != eigenvalue oracle {expected} (trial {trial})"
    for trial in range(100):
        size = rng.choice([2, 3, 3, 4, 4, 5, 6])
        entries = {}
        for _ in range(size * size // 2 + 1):
            i, j = rng.randrange(size), rng.randrange(size)
            entries[(i, j)] = Padic.from_fraction(
                Fraction(rng.randrange(-p ** 3, p ** 3)) * Fraction(p) ** rng.randint(-2, 2),
                p, prec)
        if not scale_transpose_check(FiniteMatrix(p, entries), size):
            return False, f"transpose invariance fails (trial {trial})"
    return True, "eigenvalue oracle on 50 matrices; transpose invariance on 100"


_CRITERIA: list[tuple[int, str, Callable[[ExperimentConfig], tuple[bool, str]]]] = [
    (1, "binomial product identities", _c01_binomial_identities),
    (2, "factorial valuation vs Legendre", _c02_factorial_valuation),
    (3, "Mahler round trip and sup norm", _c03_mahler_round_trip),
    (4, "functional calculus homomorphism", _c04_calculus_homomorphism),
    (5, "falling-product row formula", _c05_falling_product_rows),
    (6, "Teichmuller idempotents on diagonals", _c06_teichmuller_idempotent),
    (7, "idempotent refinement", _c07_idempotent_refinement),
    (8, "equivalence witnesses and rank", _c08_equivalence_witnesses),
    (9, "idempotent splitting", _c09_idempotent_splitting),
    (10, "sum-ring relations and spreading", _c10_sum_ring),
    (11, "idempotent lifting modulo compacts", _c11_idempotent_lifting),
    (12, "finite-rank class invariance", _c12_rank_invariance),
    (13, "Willis scale", _c13_willis_scale),
]


def run_all(cfg: ExperimentConfig | None = None,
            echo: Callable[[str], None] | None = print) -> list[CriterionResult]:
    if cfg is None:
        cfg = ExperimentConfig()
    results = []
    for number, name, fn in _CRITERIA:
        try:
            passed, detail = fn(cfg)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CriterionResult(number, name, passed, detail))
        if echo is not None:
            status = "PASS" if passed else "FAIL"
            echo(f"[{status}] criterion {number:2d} {name}: {detail}")
    return results

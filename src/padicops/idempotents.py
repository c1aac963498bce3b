"""Idempotent machinery: refinement, equivalence, splitting, rank,
sum-ring generators and lifting modulo compact operators.

Everything here certifies what it returns.  Norm preconditions are
exact valuation comparisons, final identities are re-checked at the
target depth, and searches fail loudly when their budget runs out
instead of returning a best guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (CertificationFailed, DependentBasis, NoConvergence,
                     PreconditionFailed, SearchExhausted, StructureError,
                     Undecidable)
from .io import exponent_str
from .linalg import reduce_columns
from .operators import (FiniteMatrix, IndexMap, NormalForm, Operator,
                        Product, Sum, normalize, op_apply, op_norm)
from .polynomials import IntPolynomial
from .scalars import Padic, ValuationBound, precision_of
from .vectors import PadicVector


# -- refinement polynomials ---------------------------------------------


def refinement_polynomial(m: int) -> IntPolynomial:
    """The unique polynomial of degree < 2m fixing 0 and 1 to order m.

    Coefficient of x^k (for m <= k <= 2m-1) is
    sum over i of (-1)^(i+1) C(m,i) C(m-1+k-i, k-i), i = k-m+1 .. m.
    The defining conditions are re-verified symbolically before return.
    """
    if m < 1:
        raise ValueError("m must be positive")
    coeffs = [0] * (2 * m)
    for k in range(m, 2 * m):
        total = 0
        for i in range(k - m + 1, m + 1):
            total += (-1) ** (i + 1) * math.comb(m, i) * math.comb(m - 1 + k - i, k - i)
        coeffs[k] = total
    poly = IntPolynomial(tuple(coeffs))
    assert poly.degree <= 2 * m - 1
    assert poly(0) == 0 and poly(1) == 1
    d = poly
    for _ in range(1, m):
        d = d.derivative()
        assert d(0) == 0 and d(1) == 0
    return poly


# -- refinement ----------------------------------------------------------


def idempotent_refine(a: Operator, target: int = 30) -> Operator:
    """Nearest idempotent to an almost-idempotent a.

    Requires ||a^2 - a|| < 1 / ||a||^2.  Iterates refinement_polynomial(2),
    e <- 3e^2 - 2e^3 = e + d(1 - 2e) with d = e^2 - e: two products a
    step, and the defect squares, so k steps reach the order of
    refinement_polynomial(2^k).  Stops once the step and the new defect
    vanish below p^(-target); the output e is checked to satisfy
    ||a - e|| < min(1/||a||, 1).
    """
    e, _ = _refine_form(normalize(a), target)
    return e.to_operator()


def _refine_form(nf: NormalForm, target: int, defect: NormalForm | None = None,
                 ) -> tuple[NormalForm, list[NormalForm]]:
    """idempotent_refine on a normal form.  Also returns the defect
    e^2 - e after each step.  ``defect`` is nf^2 - nf when the caller
    has already formed it.

    A step is two fused products, each entry rounded once:
    e' = d.e.(-2) + d + e and d' = e'.e' - e'.  The step e' - e = d(1 - 2e)
    is never formed: its norm is at most ||d|| max(1, ||e||), so it
    vanishes to the target once d does, past it by the valuation of e
    when ||e|| > 1.

    A step sends d to d^2(4d - 3), so the defect's valuation, at least 1
    by the precondition, at least doubles a step: target.bit_length() + 1
    steps take it, and the step that follows it, past the target.  More
    steps would not help, so NoConvergence after them means the digits
    ran out.
    """
    p = nf.prime
    norm_a = nf.norm()
    if norm_a < ValuationBound.one():
        # covers a = 0: anything of norm < 1 refines to the zero idempotent
        return NormalForm.constant(p, Padic.zero(p)), []
    if defect is None:
        defect = nf.mul(nf, addend=[(-1, nf)])
    gap = defect.norm()
    limit = ValuationBound(-2 * norm_a.exponent)
    if not gap < limit:
        raise PreconditionFailed(
            f"defect norm exponent {exponent_str(gap)} must exceed "
            f"{limit.exponent} (norm of a: exponent {norm_a.exponent})")
    e = nf
    defects: list[NormalForm] = []
    steps = target.bit_length() + 1
    for _ in range(steps):
        settled = _step_vanishes(defect, e, target)
        e = defect.mul(e, -2, addend=[(1, defect), (1, e)])
        defect = e.mul(e, addend=[(-1, e)])
        defects.append(defect)
        if settled and defect.vanishes_to(target):
            _check_refinement_distance(nf, e, norm_a)
            return e, defects
    raise NoConvergence(steps, "refinement steps never met the target depth")


def _step_vanishes(defect: NormalForm, e: NormalForm, target: int) -> bool:
    """Whether the step d(1 - 2e) of a refinement vanishes to the target:
    each of its entries is a sum of terms of valuation at least that of
    an entry of d plus min(0, v), with p^-v the norm of e."""
    if not defect.vanishes_to(target):
        return False
    v = e.norm().exponent
    return v is None or v >= 0 or defect.vanishes_to(target - v)


def _check_refinement_distance(nf_a: NormalForm, nf_e: NormalForm,
                               norm_a: ValuationBound) -> None:
    dist = nf_a.sub(nf_e).norm()
    # min(1/||a||, 1) with ||a|| >= 1 on this path
    if not dist < ValuationBound(-norm_a.exponent):
        raise CertificationFailed(
            0, f"refined idempotent too far from input: exponent {exponent_str(dist)}")


# -- equivalence ---------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceWitness:
    u: Operator
    u_inv: Operator
    e: Operator
    f: Operator


def idempotent_equivalence(e: Operator, f: Operator,
                           target: int = 30) -> EquivalenceWitness:
    """Invertible u with u e u^-1 = f, for idempotents at distance
    below 1/||e||.  u = 1 - f - e + 2fe; its inverse comes from a
    Newton-Schulz iteration, which converges because the distance bound
    makes 1 - u a contraction."""
    p = e.prime
    nfe, nff = normalize(e), normalize(f)
    norm_e = nfe.norm()
    if norm_e.is_zero:
        raise PreconditionFailed("e must be a nonzero idempotent")
    for name, nf in (("e", nfe), ("f", nff)):
        if not nf.mul(nf, addend=[(-1, nf)]).vanishes_to(target):
            raise PreconditionFailed(f"{name} is not idempotent at the target depth")
    dist = nfe.sub(nff).norm()
    if not dist < ValuationBound(-norm_e.exponent):
        raise PreconditionFailed(
            f"distance exponent {exponent_str(dist)} must exceed {-norm_e.exponent}")
    one = NormalForm.constant(p, Padic.one(p, precision_of(nfe, nff)))
    nfu = nff.mul(nfe, 2, addend=[(1, one), (-1, nff), (-1, nfe)])
    if not one.sub(nfu).norm() < ValuationBound.one():
        raise PreconditionFailed("1 - u fails to be a contraction; inputs are not close enough")
    inv, residual = _newton_schulz_inverse(nfu, target)
    for gap in (residual, inv.mul(nfu, addend=[(-1, one)])):
        if not gap.vanishes_to(target):
            raise CertificationFailed(target, "inverse verification failed")
    if not nfu.mul(nfe).mul(inv, addend=[(-1, nff)]).vanishes_to(target):
        raise CertificationFailed(target, "conjugation does not carry e to f at the target depth")
    return EquivalenceWitness(nfu.to_operator(), inv.to_operator(), e, f)


def _newton_schulz_inverse(u: NormalForm, target: int) -> tuple[NormalForm, NormalForm]:
    """Right inverse x of u, for ||1 - u|| < 1, and its residual r = 1 - u x.
    From x = 1, the fused products x' = x.r + x and r = -u.x' + 1, each
    entry rounded once, square the residual at each step, so
    bit_length(target) steps reach p^(-target) unless precision runs out."""
    one = NormalForm.constant(u.prime, Padic.one(u.prime, precision_of(u)))
    x, residual = one, one.sub(u)
    for _ in range(target.bit_length()):
        if residual.vanishes_to(target):
            break
        x = x.mul(residual, addend=[(1, x)])
        residual = u.mul(x, -1, addend=[(1, one)])
    return x, residual


# -- column projections and splitting ------------------------------------


def column_projection(basis: list[PadicVector], ambient_idempotent: Operator,
                      target: int = 30) -> FiniteMatrix:
    """Contractive idempotent onto the span of the basis vectors.

    Column-reduces the basis to vectors v_k of norm 1 with pivot rows
    a_k satisfying v_i(a_k) = delta_ik, then returns sum of v_k (x) delta_{a_k}.
    """
    if not basis:
        raise DependentBasis("empty basis")
    p = basis[0].prime
    for v in basis:
        image_gap = op_apply(ambient_idempotent, v) - v
        if not all(x.vanishes_to(target) for x in image_gap.entries.values()):
            raise PreconditionFailed("basis vector is not fixed by the ambient idempotent")
    reduced = reduce_columns([v.entries for v in basis])
    for k, col in enumerate(reduced):
        if col is None:
            raise DependentBasis(f"column {k} reduced to zero")
    entries = {(i, row): v for row, col in reduced for i, v in col.items()}
    return FiniteMatrix(p, entries)


@dataclass(frozen=True)
class SplitResult:
    f: Operator
    g: Operator


def idempotent_split(e: Operator, target: int = 30) -> SplitResult:
    """Split an idempotent as e = f + g with f finite-rank carrying all
    the non-integral columns and g a contractive idempotent, fg = gf = 0."""
    p = e.prime
    nfe = normalize(e)
    if not nfe.mul(nfe, addend=[(-1, nfe)]).vanishes_to(target):
        raise PreconditionFailed("input is not idempotent at the target depth")
    exceptional = [j for (_, j), v in nfe.head.items() if not v.is_integral]
    if not exceptional:
        return _verified_split(nfe, NormalForm.constant(p, Padic.zero(p)), nfe, target)
    n = max(exceptional)
    basis = _independent_prefix([nfe.column(j) for j in range(n + 1)])
    if not basis:
        return _verified_split(nfe, NormalForm.constant(p, Padic.zero(p)), nfe, target)
    f_tilde = column_projection(basis, e, target)
    nff = normalize(f_tilde).mul(nfe)
    nfg = nfe.sub(nff)
    return _verified_split(nfe, nff, nfg, target)


def _independent_prefix(columns: list[PadicVector]) -> list[PadicVector]:
    reduced = reduce_columns([v.entries for v in columns])
    return [v for v, col in zip(columns, reduced) if col is not None]


def _verified_split(nfe: NormalForm, nff: NormalForm, nfg: NormalForm,
                    target: int) -> SplitResult:
    checks = {
        "f idempotent": nff.mul(nff, addend=[(-1, nff)]),
        "g idempotent": nfg.mul(nfg, addend=[(-1, nfg)]),
        "fg zero": nff.mul(nfg),
        "gf zero": nfg.mul(nff),
        "ef = f": nfe.mul(nff, addend=[(-1, nff)]),
        "fe = f": nff.mul(nfe, addend=[(-1, nff)]),
    }
    for name, diff in checks.items():
        if not diff.vanishes_to(target):
            raise CertificationFailed(target, f"split verification failed: {name}")
    if not nfg.norm() <= ValuationBound.one():
        raise CertificationFailed(target, "contractive part has norm above 1")
    return SplitResult(nff.to_operator(), nfg.to_operator())


# -- rank ----------------------------------------------------------------


def matrix_rank(entries: dict[tuple[int, int], Padic]) -> int:
    """Rank over Q_p by exact column reduction with max-norm pivoting."""
    cols: dict[int, dict[int, Padic]] = {}
    for (i, j), v in entries.items():
        cols.setdefault(j, {})[i] = v
    reduced = reduce_columns([cols[j] for j in sorted(cols)])
    return sum(col is not None for col in reduced)


def finite_rank_reduce(f: Operator, target: int = 30) -> int:
    """K0 integer of a finite-rank idempotent: its rank over Q_p."""
    nf = normalize(f)
    if not nf.shift.is_zero:
        raise PreconditionFailed("operator has an identity component; not finite rank")
    if nf.tail is not None and not nf.tail.default.is_zero:
        raise PreconditionFailed("structured tail with nonzero default; not finite rank")
    head = {(i, j): nf.entry(i, j) for i, j in nf.positions()}
    if not head:
        return 0
    refined = idempotent_refine(FiniteMatrix(f.prime, head), target)
    return matrix_rank(normalize(refined).head)


# -- sum-ring generators --------------------------------------------------


def cantor_pair(block: int, offset: int) -> int:
    s = block + offset
    return s * (s + 1) // 2 + offset


def cantor_unpair(x: int) -> tuple[int, int]:
    w = (math.isqrt(8 * x + 1) - 1) // 2
    offset = x - w * (w + 1) // 2
    return w - offset, offset


@dataclass(frozen=True)
class SumRingGenerators:
    prime: int
    first_to_all: IndexMap   # kills every block but the zeroth, which it spreads over N
    all_to_first: IndexMap   # embeds N as the zeroth block
    up: IndexMap             # block n -> block n+1
    down: IndexMap           # block n -> block n-1, kills block 0


def sum_ring_generators(prime: int) -> SumRingGenerators:
    """Four norm-1 index maps with first_to_all.all_to_first = down.up = 1
    and all_to_first.first_to_all + up.down = 1, on the blocks of the
    Cantor pairing."""

    def fta_dest(x: int) -> int | None:
        n, i = cantor_unpair(x)
        return i if n == 0 else None

    def atf_dest(i: int) -> int:
        return cantor_pair(0, i)

    def up_dest(x: int) -> int:
        n, i = cantor_unpair(x)
        return cantor_pair(n + 1, i)

    def up_inv(x: int) -> int | None:
        n, i = cantor_unpair(x)
        return cantor_pair(n - 1, i) if n >= 1 else None

    first_to_all = IndexMap(prime, fta_dest, inv=atf_dest, infinite_domain=True)
    all_to_first = IndexMap(prime, atf_dest, inv=fta_dest, infinite_domain=True)
    up = IndexMap(prime, up_dest, inv=up_inv, infinite_domain=True)
    down = IndexMap(prime, up_inv, inv=up_dest, infinite_domain=True)
    return SumRingGenerators(prime, first_to_all, all_to_first, up, down)


def infinite_sum(a: Operator, depth: int) -> Operator:
    """Partial sum of the block-diagonal spreading of a: copies of a on
    blocks 0..depth.  Finite inputs are materialized; structural ones
    stay lazy expression trees over the sum-ring generators."""
    if not op_norm(a) <= ValuationBound.one():
        raise PreconditionFailed("spreading requires norm <= 1")
    nf = normalize(a)
    if nf.tail is None and nf.shift.is_zero:
        entries: dict[tuple[int, int], Padic] = {}
        for n in range(depth + 1):
            for (i, j), v in nf.head.items():
                entries[(cantor_pair(n, i), cantor_pair(n, j))] = v
        return FiniteMatrix(a.prime, entries)
    gens = sum_ring_generators(a.prime)
    terms: list[Operator] = []
    for n in range(depth + 1):
        factors: list[Operator] = [gens.up] * n
        factors += [gens.all_to_first, a, gens.first_to_all]
        factors += [gens.down] * n
        terms.append(Product(factors))
    return Sum(terms)


# -- trivialization -------------------------------------------------------


def k0_trivialize(e: Operator, target: int = 30, prefix: int = 16) -> dict:
    """Machine-checkable transcript that the class of e collapses:
    the finite-rank part is conjugate to a 0/1 diagonal, and the
    contractive part spreads into the sum ring where its class absorbs."""
    p = e.prime
    nfe = normalize(e)
    if nfe.shift.is_zero and nfe.tail is None and not nfe.head:
        return {
            "zero_input": True,
            "classes": {"finite_rank": 0, "contractive": 0},
        }
    split = idempotent_split(e, target)
    rank = finite_rank_reduce(split.f, target)
    gens = sum_ring_generators(p)
    relations = _relation_checks(gens, prefix)
    depth = max(cantor_unpair(x)[0] for x in range(prefix)) + 1
    g_inf = infinite_sum(split.g, depth)
    repeat_ok = _repeat_equation_ok(split.g, g_inf, gens, prefix, depth, target)
    return {
        "zero_input": False,
        "split": {
            "finite_part_rank": rank,
            "contractive_part_norm_exponent": exponent_str(op_norm(split.g)),
        },
        "finite_part": {
            "rank": rank,
            "diagonal_form": [[k, k, "1"] for k in range(rank)],
        },
        "contractive_part": {
            "sum_ring_relations_on_prefix": relations,
            "spread_depth": depth,
            "repeat_equation_on_prefix": repeat_ok,
        },
        "classes": {"finite_rank": rank, "contractive": 0},
    }


def _relation_checks(gens: SumRingGenerators, prefix: int) -> dict[str, bool]:
    p = gens.prime
    out = {"left_inverse_first": True, "left_inverse_shift": True, "partition_of_identity": True}
    for x in range(prefix):
        delta = PadicVector.basis(p, x)
        if (op_apply(gens.first_to_all, op_apply(gens.all_to_first, delta)) - delta).entries:
            out["left_inverse_first"] = False
        if (op_apply(gens.down, op_apply(gens.up, delta)) - delta).entries:
            out["left_inverse_shift"] = False
        recombined = (op_apply(gens.all_to_first, op_apply(gens.first_to_all, delta))
                      + op_apply(gens.up, op_apply(gens.down, delta)))
        if (recombined - delta).entries:
            out["partition_of_identity"] = False
    return out


def _repeat_equation_ok(g: Operator, g_inf: Operator, gens: SumRingGenerators,
                        prefix: int, depth: int, target: int) -> bool:
    prec = precision_of(g)
    for x in range(prefix):
        if cantor_unpair(x)[0] >= depth:
            continue
        delta = PadicVector.basis(g.prime, x, prec)
        lhs = (op_apply(gens.all_to_first, op_apply(g, op_apply(gens.first_to_all, delta)))
               + op_apply(gens.up, op_apply(g_inf, op_apply(gens.down, delta))))
        rhs = op_apply(g_inf, delta)
        gap = lhs - rhs
        if any(not v.vanishes_to(target) for v in gap.entries.values()):
            return False
    return True


# -- lifting modulo compacts ----------------------------------------------


def idempotent_lift(a: Operator, target: int = 30, budget: int = 64) -> Operator:
    """Idempotent e with e - a compact, for a contraction a whose defect
    a^2 - a is compact.  Searches powers for ||a^m - a^n|| < 1 (gap-first
    breadth order), then refines a suitable power.  The defect, one fused
    product, is also the difference of the first pair (n, m) = (1, 2)."""
    try:
        nf = normalize(a)
        if not nf.norm() <= ValuationBound.one():
            raise PreconditionFailed("lift input must be a contraction")
        defect = nf.mul(nf, addend=[(-1, nf)])
    except StructureError as exc:
        raise Undecidable(f"expression has no closed structured form: {exc}") from exc
    if not defect.is_compact():
        raise PreconditionFailed("defect a^2 - a is not certified compact")
    powers = [nf]  # a^1, a^2, ...

    def power(k: int) -> NormalForm:
        while len(powers) < k:
            powers.append(powers[-1].mul(nf))
        return powers[k - 1]

    for gap in range(1, budget):
        for n in range(1, budget + 1 - gap):
            m = n + gap
            diff = defect if m == 2 else power(m).sub(power(n))
            if not diff.norm() < ValuationBound.one():
                continue
            k = n // gap + 1
            e = idempotent_refine(power(k * gap).to_operator(), target)
            if not normalize(e).sub(nf).is_compact():
                raise CertificationFailed(target, "lifted idempotent does not agree with a modulo compacts")
            return e
    raise SearchExhausted(budget, "no power pair with ||a^m - a^n|| < 1 within the budget")

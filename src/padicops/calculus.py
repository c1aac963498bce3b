"""Binomial functional calculus for normal contractions.

An operator A is a normal contraction when every binom(A, n) has norm at
most 1, that is when each falling product A(A-1)...(A-(n-1)) = n! binom(A, n)
has norm at most p^(-v_p(n!)).  One walk forms those products and checks
that bound on each one it forms, so every routine here certifies exactly
the terms it uses; contractive diagonals satisfy it for all n.  On top of
that walk sit evaluation of a coefficient sequence at A (a sum of divided
binomial powers), the geometric-style series in binom(A-1, n), and the
limit of indicator polynomials along A, A^p, A^{p^2}, ...
"""

from __future__ import annotations

from itertools import accumulate, count, islice, repeat, takewhile
from math import factorial
from operator import mul
from typing import Iterable, Iterator

from .errors import (CertificationFailed, PreconditionFailed, StructureError,
                     Undecidable)
from .idempotents import _frobenius_cap, _refine_form
from .io import exponent_str
from .mahler import MahlerFunction
from .operators import Diagonal, NormalForm, Operator, normalize
from .residues import Window
from .scalars import Padic, ValuationBound, factorial_valuation, precision_of


def _check_product(n: int, product: NormalForm) -> ValuationBound:
    """The norm of the falling product n! binom(A, n), or
    CertificationFailed(n) when it exceeds p^(-v_p(n!)), that is when
    ||binom(A, n)|| > 1."""
    achieved = product.norm()
    required = ValuationBound(factorial_valuation(n, product.prime))
    if achieved > required:
        raise CertificationFailed(
            n, f"step {n}: norm exponent {exponent_str(achieved)}, "
               f"need at least {required.exponent}")
    return achieved


def _falling_products(nf_a: NormalForm, prec: int) -> Iterator[tuple[NormalForm, ValuationBound]]:
    """A(A-1)...(A-(n-1)) = n! binom(A, n) and its norm for n = 0, 1, 2,
    ..., the one loop that forms the binomial terms, each as the fused
    product F.A - (n-1) F of the one before.  Each is checked by
    _check_product; a product with no closed structured form raises
    Undecidable."""
    p = nf_a.prime
    product = NormalForm.constant(p, Padic.one(p, prec))
    yield product, ValuationBound.one()
    for n in count(1):
        try:
            product = product.mul(nf_a, addend=[(1 - n, product)])
        except StructureError as exc:
            raise Undecidable(f"step {n}: {exc}") from exc
        yield product, _check_product(n, product)


def certify_normal_contraction(a: Operator, depth: int) -> list[tuple[int, ValuationBound]]:
    """Check ||A(A-1)...(A-(n-1))|| <= p^(-v_p(n!)), that is
    ||binom(A, n)|| <= 1, for every n <= depth.

    Returns the rows (n, norm of the falling product).  A failing n
    raises CertificationFailed(n); a product with no closed structured
    form raises Undecidable.
    """
    nf = normalize(a)
    products = islice(_falling_products(nf, precision_of(nf)), 1, depth + 1)
    return [(n, norm) for n, (_, norm) in enumerate(products, 1)]


def _binomial_walk(nf_a: NormalForm, coefficients: Iterable[Padic], prec: int) -> NormalForm:
    """Sum of c_n * binom(A, n), forming and checking the falling products
    only up to the last coefficient.  Only an exact zero c_n is skipped:
    a certified one adds its bound."""
    p = nf_a.prime
    acc = NormalForm.constant(p, Padic.zero(p))
    # coefficients first: zip stops there without forming one more product
    for n, (c, (product, _)) in enumerate(zip(coefficients, _falling_products(nf_a, prec))):
        if not c.is_exact_zero:
            term = product.divide_entries(Padic.from_int(factorial(n), p, prec))
            acc = NormalForm.combine([(1, acc), (c, term)])
    return acc


def _contractive_diagonal(a: Operator) -> bool:
    """A diagonal with integral entries: binom(a, n) lies in Z_p for
    every integral a, so ||binom(A, n)|| <= 1 for every n."""
    return isinstance(a, Diagonal) and all(v.is_integral for v in a.entries.values())


def functional_calculus(a: Operator, fn: MahlerFunction) -> tuple[Operator, ValuationBound]:
    """Evaluate a coefficient sequence at A: sum of T_n * binom(A, n).

    Returns the truncated series and its error bound, the function's
    tail bound.  The walk checks ||binom(A, n)|| <= 1 for each n it sums
    (CertificationFailed(n) otherwise).  The tail bound needs it for
    every discarded n as well, so only a contractive diagonal admits a
    nonzero tail bound.
    """
    if not (fn.tail_bound.is_zero or _contractive_diagonal(a)):
        raise PreconditionFailed("a nonzero tail bound needs a contractive diagonal")
    nf_a = normalize(a)
    acc = _binomial_walk(nf_a, fn.coefficients, precision_of(nf_a, fn))
    return acc.to_operator(), fn.tail_bound


def binomial_series(a: Operator, z: Padic, depth: int) -> tuple[Operator, ValuationBound]:
    """Truncation of the series sum over n of z^n * binom(A - 1, n).

    Requires |z| <= 1/p and ||A|| <= 1, which the error bound needs
    (CertificationFailed(1) otherwise); the walk checks each
    binom(A - 1, n) it sums.  The terms stop at the first exactly zero
    power of z: a certified zero z^n adds its bound.
    """
    if z.norm > ValuationBound(1):
        raise PreconditionFailed("series parameter needs norm <= 1/p")
    p = a.prime
    prec = precision_of(a, z)
    nf_a = normalize(a)
    _check_product(1, nf_a)
    nf = nf_a.sub(NormalForm.constant(p, Padic.one(p, prec)))
    powers = accumulate(repeat(z, depth), mul, initial=Padic.one(p, prec))
    acc = _binomial_walk(nf, takewhile(lambda zpow: not zpow.is_exact_zero, powers), prec)
    return acc.to_operator(), _series_error(z, depth, _contractive_diagonal(a))


def _series_error(z: Padic, depth: int, structural: bool) -> ValuationBound:
    """Bound on the discarded terms z^n * binom(A - 1, n), n > depth.

    A certified zero z = O(p^N) is bounded by |z| <= p^-N.  On a
    contractive diagonal each binom(A - 1, n) has norm at most 1.
    Otherwise only ||A|| <= 1 is known, so n! * binom(A - 1, n) is
    integral: the exponent is the least n v(z) - v_p(n!), and
    v_p(n!) <= (n-1)/(p-1) ends the scan."""
    if z.is_exact_zero:
        return ValuationBound.zero()
    p = z.prime
    v = z.absolute_precision if z.is_zero else z.valuation
    if structural:
        return ValuationBound(v * (depth + 1))
    n = depth + 1
    best = n * v - factorial_valuation(n, p)
    while (n * v - best) * (p - 1) < n - 1:
        n += 1
        best = min(best, n * v - factorial_valuation(n, p))
    return ValuationBound(best)


def teichmuller_idempotent(a: Operator, target: int = 30) -> tuple[Operator, list[list]]:
    """Limit e of x_k = P(A^{p^k}), k = 0, 1, ..., where P = 1 - X^(p-1)
    is 1 at 0 and 0 at each nonzero Teichmuller representative, the roots
    of X^(p-1) - 1.  A needs ||A|| <= 1, checked here
    (CertificationFailed(1) otherwise).

    Phase 1 evaluates x_0, ..., x_K and stops at the first x_k that is
    idempotent mod p: ||x_k^2 - x_k|| < 1.  Phase 2 refines that x_k by
    e <- 3e^2 - 2e^3 as idempotent_refine does, which doubles the known
    digits a step where x_k itself gains one digit per k.  The refined
    e is certified as refinement certifies: idempotent at the target
    depth and at distance < 1 from x_k.

    Both phases run on A's residue window mod p^N, N the least absolute
    precision of A: x_k and e are integer polynomials in A, so e is
    certified to exactly N at every entry (residues.Window), unless x_k
    vanishes mod p and e is the exact zero (_refine_form).

    The cap: a structured tail is refused, and K = _frobenius_cap(A),
    from which on A^{p^k} = S^(p^k) mod p, S the semisimple part of A.
    There x_k = 1 - S^(p^k (p-1)) mod p, idempotent exactly when every
    eigenvalue of A mod p lies in F_p, whatever k is; so a failure at K
    is final: PreconditionFailed.

    It is the limit.  Mod p, with X = A^{p^k} and y = X^(p-1) = 1 - x_k
    idempotent mod p, x_{k+1} = 1 - y^p = x_k mod p, and every later
    x_j agrees with x_k mod p.  The limit f and e are idempotents of the
    closed commutative algebra generated by A and agree mod p.
    Commuting idempotents satisfy (e - f)^3 = e - f, so
    ||e - f|| <= ||e - f||^3, and ||e - f|| < 1 forces e = f.

    Returns e and a trace of rows [phase, k, defect norm exponent]: one
    per x_k (phase 1, its ||x_k^2 - x_k||) and one per refinement step
    (phase 2, k = 1, 2, ..., the defect after step k).
    """
    p = a.prime
    nf = normalize(a)
    if nf.tail is not None:
        raise PreconditionFailed("a structured tail has no finite window to bound phase 1")
    _check_product(1, nf)
    (b,) = Window.read([nf])
    one = b.constant(1)
    cap = _frobenius_cap(b)
    trace: list[list] = []
    for k in range(cap + 1):
        if k:
            b = b.power(p)
        x = one.sub(b.power(p - 1))
        defect = x.defect()
        gap = defect.norm()
        trace.append([1, k, exponent_str(gap)])
        if gap < ValuationBound.one():
            e, defects = _refine_form(x, target, defect)
            trace += [[2, i, exponent_str(d.norm())] for i, d in enumerate(defects, 1)]
            return e.to_operator(), trace
    raise PreconditionFailed(f"A mod p has an eigenvalue outside F_p (k = 0..{cap})")

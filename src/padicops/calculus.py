"""Binomial functional calculus for normal contractions.

An operator A is admitted once the norms of the falling products
A(A-1)...(A-(n-1)) are certified against the factorial valuation, either
explicitly up to a finite depth or structurally (contractive diagonals).
On top of that sit evaluation of a coefficient sequence at A (a sum of
divided binomial powers), the geometric-style series in binom(A-1, n),
and the limit of indicator polynomials along A, A^p, A^{p^2}, ...
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, count, repeat, takewhile
from operator import mul
from typing import Iterable

from .errors import (CertificationFailed, PreconditionFailed, StructureError,
                     Undecidable)
from .idempotents import _refine_form
from .io import exponent_str
from .mahler import MahlerFunction
from .operators import (Diagonal, Identity, NormalForm, Operator,
                        nf_polynomial, normalize)
from .scalars import (DEFAULT_PRECISION, Padic, ValuationBound,
                      factorial_valuation, precision_of)


@dataclass(frozen=True)
class ContractionCertificate:
    operator: Operator
    depth: int
    checked: tuple[tuple[int, ValuationBound], ...]
    structural: bool = False

    def covers(self, n: int) -> bool:
        return self.structural or n <= self.depth


def _check_issued_for(cert: ContractionCertificate, a: Operator) -> None:
    if cert.operator != a:
        raise PreconditionFailed("the certificate was issued for another operator")


def _falling_step(nf_a: NormalForm, product: NormalForm, j: int) -> NormalForm:
    """product * (A - j), as the fused product.A - j.product."""
    return product.mul(nf_a, addend=[(-j, product)])


def certify_normal_contraction(a: Operator, depth: int) -> ContractionCertificate:
    """Check ||A(A-1)...(A-(n-1))|| <= p^(-v_p(n!)) for every n <= depth.

    Contractive diagonals get a structural certificate covering all n.
    A product with no closed structured form raises Undecidable.
    """
    structural = isinstance(a, Diagonal) and all(
        v.is_integral for v in a.entries.values())
    nf = normalize(a)
    prec = precision_of(nf)
    product = NormalForm.constant(a.prime, Padic.one(a.prime, prec))
    checked: list[tuple[int, ValuationBound]] = []
    for n in range(1, depth + 1):
        try:
            product = _falling_step(nf, product, n - 1)
        except StructureError as exc:
            raise Undecidable(f"step {n}: {exc}") from exc
        achieved = product.norm()
        required = ValuationBound(factorial_valuation(n, a.prime))
        if achieved > required:
            raise CertificationFailed(
                n, f"step {n}: norm exponent {exponent_str(achieved)}, "
                   f"need at least {required.exponent}")
        checked.append((n, achieved))
    return ContractionCertificate(a, depth, tuple(checked), structural)


def _binomial_walk(nf_a: NormalForm, coefficients: Iterable[Padic], prec: int) -> NormalForm:
    """Sum of c_n * binom(A, n), with binom(A, n) = binom(A, n-1) * (A - (n-1)) / n.
    Only an exact zero c_n is skipped: a certified one adds its bound."""
    p = nf_a.prime
    term = NormalForm.constant(p, Padic.one(p, prec))
    acc = NormalForm.constant(p, Padic.zero(p))
    for n, c in enumerate(coefficients):
        if n > 0:
            term = _falling_step(nf_a, term, n - 1)
            term = term.divide_entries(Padic.from_int(n, p, prec))
        if not c.is_exact_zero:
            acc = NormalForm.combine([(1, acc), (c, term)])
    return acc


def functional_calculus(a: Operator, fn: MahlerFunction,
                        cert: ContractionCertificate) -> tuple[Operator, ValuationBound]:
    """Evaluate a coefficient sequence at A: sum of T_n * binom(A, n).

    Returns the truncated series and its error bound, the function's
    tail bound.  It needs ||binom(A, n)|| <= 1 for every discarded n, so
    only a structural certificate admits a nonzero tail bound.
    """
    _check_issued_for(cert, a)
    if not cert.covers(len(fn.coefficients)):
        raise PreconditionFailed(
            f"certificate depth {cert.depth} below series length {len(fn.coefficients)}")
    if not (cert.structural or fn.tail_bound.is_zero):
        raise PreconditionFailed("a nonzero tail bound needs a structural certificate")
    nf_a = normalize(a)
    acc = _binomial_walk(nf_a, fn.coefficients, precision_of(nf_a, fn))
    return acc.to_operator(), fn.tail_bound


def binomial_series(a: Operator, z: Padic, cert: ContractionCertificate,
                    depth: int) -> tuple[Operator, ValuationBound]:
    """Truncation of the series sum over n of z^n * binom(A - 1, n).

    Requires |z| <= 1/p and a certificate covering n = 1 and the depth.
    A's certificate covers A - 1: binom(A - 1, n) is the sum over k <= n
    of (-1)^(n-k) binom(A, k), so its norm is at most 1 where A's are.
    The terms stop at the first zero power of z.
    """
    if z.norm > ValuationBound(1):
        raise PreconditionFailed("series parameter needs norm <= 1/p")
    _check_issued_for(cert, a)
    if not cert.covers(max(depth, 1)):
        raise PreconditionFailed(f"certificate depth {cert.depth} below {max(depth, 1)}")
    p = a.prime
    prec = precision_of(a, z)
    nf = normalize(a - Identity(p, prec))
    powers = accumulate(repeat(z, depth), mul, initial=Padic.one(p, prec))
    acc = _binomial_walk(nf, takewhile(lambda zpow: not zpow.is_zero, powers), prec)
    return acc.to_operator(), _series_error(z, depth, cert.structural)


def _series_error(z: Padic, depth: int, structural: bool) -> ValuationBound:
    """Bound on the discarded terms z^n * binom(A - 1, n), n > depth.

    A structural certificate bounds each binom(A - 1, n) by 1.  Otherwise
    only ||A|| <= 1 is known, so n! * binom(A - 1, n) is integral: the
    exponent is the least n v(z) - v_p(n!), and v_p(n!) <= (n-1)/(p-1)
    ends the scan."""
    if z.is_zero:
        return ValuationBound.zero()
    v, p = z.norm.exponent, z.prime
    if structural:
        return ValuationBound(v * (depth + 1))
    n = depth + 1
    best = n * v - factorial_valuation(n, p)
    while (n * v - best) * (p - 1) < n - 1:
        n += 1
        best = min(best, n * v - factorial_valuation(n, p))
    return ValuationBound(best)


def zero_indicator_polynomial(prime: int, precision: int = DEFAULT_PRECISION) -> tuple[Padic, ...]:
    """Coefficients, constant first, of the P that is 1 at 0 and 0 at each
    nonzero Teichmuller representative t: those t are the roots of
    X^(p-1) - 1, so P = prod(X - t) / prod(-t) = 1 - X^(p-1) exactly."""
    return (Padic.one(prime, precision), *[Padic.zero(prime)] * (prime - 2),
            Padic.from_int(-1, prime, precision))


def teichmuller_idempotent(a: Operator, cert: ContractionCertificate,
                           target: int = 30) -> tuple[Operator, list[list]]:
    """Limit e of x_k = P(A^{p^k}), k = 0, 1, ..., where P is the
    zero-indicator polynomial.

    Phase 1 evaluates x_0, ..., x_K and stops at the first x_k that is
    idempotent mod p: ||x_k^2 - x_k|| < 1.  Phase 2 refines that x_k by
    e <- 3e^2 - 2e^3 as idempotent_refine does, which doubles the known
    digits a step where x_k itself gains one digit per k.  The refined
    e is certified as refinement certifies: idempotent at the target
    depth and at distance < 1 from x_k.

    The cap: n is 1 + the largest index in A's head (1 for an empty
    head), a structured tail is refused, and K is the least k with
    p^K >= n.  Mod p, A is s*I off the window and S + N on it, with S
    semisimple, N nilpotent and SN = NS, so (S + N)^(p^k) = S^(p^k) +
    N^(p^k) and N^(p^k) = 0 from k = K on.  There x_k = 1 - S^(p^k (p-1))
    mod p, idempotent exactly when every eigenvalue of A mod p lies in
    F_p, whatever k is; so a failure at K is final: PreconditionFailed.

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
    _check_issued_for(cert, a)
    if not cert.covers(1):
        raise PreconditionFailed("a contraction certificate is required")
    b = normalize(a)
    if b.tail is not None:
        raise PreconditionFailed("a structured tail has no finite window to bound phase 1")
    window = 1 + max((max(ij) for ij in b.head), default=0)
    cap = next(k for k in count() if p**k >= window)
    coeffs = zero_indicator_polynomial(p, precision_of(b))
    trace: list[list] = []
    for k in range(cap + 1):
        if k:
            b = _nf_power(b, p)
        x = nf_polynomial(b, coeffs)
        defect = x.mul(x, addend=[(-1, x)])
        gap = defect.norm()
        trace.append([1, k, exponent_str(gap)])
        if gap < ValuationBound.one():
            e, defects = _refine_form(x, target, defect=defect)
            trace += [[2, i, exponent_str(d.norm())] for i, d in enumerate(defects, 1)]
            return e.to_operator(), trace
    raise PreconditionFailed(f"A mod p has an eigenvalue outside F_p (k = 0..{cap})")


def _nf_power(nf: NormalForm, n: int) -> NormalForm:
    """nf^n for n >= 1, by binary powering."""
    out, base = None, nf
    while n:
        if n & 1:
            out = base if out is None else out.mul(base)
        n >>= 1
        if n:
            base = base.mul(base)
    return out

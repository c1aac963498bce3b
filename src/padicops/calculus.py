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

from .errors import CertificationFailed, NoConvergence, PreconditionFailed
from .idempotents import _refine_form
from .io import exponent_str
from .mahler import MahlerFunction
from .operators import (Diagonal, Identity, NormalForm, Operator,
                        nf_polynomial, normalize)
from .scalars import (DEFAULT_PRECISION, Padic, ValuationBound,
                      factorial_valuation, precision_of, teichmuller)


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


def _falling_step(nf_a: NormalForm, product: NormalForm, j: int, prec: int) -> NormalForm:
    """product * (A - j), with j written at the working precision."""
    step = nf_a.add(NormalForm.constant(nf_a.prime, Padic.from_int(-j, nf_a.prime, prec)))
    return product.mul(step)


def certify_normal_contraction(a: Operator, depth: int) -> ContractionCertificate:
    """Check ||A(A-1)...(A-(n-1))|| <= p^(-v_p(n!)) for every n <= depth.

    Contractive diagonals get a structural certificate covering all n.
    """
    structural = isinstance(a, Diagonal) and all(
        v.is_integral for v in a.entries.values())
    nf = normalize(a)
    prec = precision_of(nf)
    product = NormalForm.constant(a.prime, Padic.one(a.prime, prec))
    checked: list[tuple[int, ValuationBound]] = []
    for n in range(1, depth + 1):
        product = _falling_step(nf, product, n - 1, prec)
        achieved = product.norm()
        required = ValuationBound(factorial_valuation(n, a.prime))
        if achieved > required:
            raise CertificationFailed(
                n, f"step {n}: norm exponent {exponent_str(achieved)}, "
                   f"need at least {required.exponent}")
        checked.append((n, achieved))
    return ContractionCertificate(a, depth, tuple(checked), structural)


def functional_calculus(a: Operator, fn: MahlerFunction,
                        cert: ContractionCertificate) -> tuple[Operator, ValuationBound]:
    """Evaluate a coefficient sequence at A: sum of T_n * binom(A, n).

    Returns the truncated series and its error bound (the function's
    tail bound; the discarded terms have norms below it).
    """
    _check_issued_for(cert, a)
    if not cert.covers(len(fn.coefficients)):
        raise PreconditionFailed(
            f"certificate depth {cert.depth} below series length {len(fn.coefficients)}")
    nf_a = normalize(a)
    prec = precision_of(nf_a, fn)
    term = NormalForm.constant(a.prime, Padic.one(a.prime, prec))
    acc = NormalForm.constant(a.prime, Padic.zero(a.prime))
    for n, t in enumerate(fn.coefficients):
        if n > 0:
            term = _falling_step(nf_a, term, n - 1, prec)
            term = term.divide_entries(Padic.from_int(n, a.prime, prec))
        if not t.is_zero:
            acc = acc.add(term.scale(t))
    return acc.to_operator(), fn.tail_bound


def binomial_series(a: Operator, z: Padic, cert: ContractionCertificate,
                    depth: int) -> tuple[Operator, ValuationBound]:
    """Truncation of the series sum over n of z^n * binom(A - 1, n).

    Requires |z| <= 1/p.  The certificate for A does not transfer to
    A - 1 on finite evidence, so A - 1 is re-certified here to the
    requested depth.  Error bound: |z|^(depth+1).
    """
    if z.norm > ValuationBound(1):
        raise PreconditionFailed("series parameter needs norm <= 1/p")
    _check_issued_for(cert, a)
    if not cert.covers(depth):
        raise PreconditionFailed(f"certificate depth {cert.depth} below requested depth {depth}")
    p = a.prime
    prec = precision_of(a, z)
    shifted = a - Identity(p, prec)
    certify_normal_contraction(shifted, depth)
    nf = normalize(shifted)
    term = NormalForm.constant(p, Padic.one(p, prec))
    acc = term
    zpow = Padic.one(p, prec)
    for n in range(1, depth + 1):
        term = _falling_step(nf, term, n - 1, prec)
        term = term.divide_entries(Padic.from_int(n, p, prec))
        zpow = zpow * z
        if zpow.is_zero:
            break
        acc = acc.add(term.scale(zpow))
    if z.is_zero:
        error = ValuationBound.zero()
    else:
        error = ValuationBound(z.norm.exponent * (depth + 1))
    return acc.to_operator(), error


def zero_indicator_polynomial(prime: int, precision: int = DEFAULT_PRECISION) -> tuple[Padic, ...]:
    """Coefficients, constant first, of the polynomial that is 1 at 0 and
    0 at every nonzero Teichmuller representative: product of (X - t_i)
    over i = 1..p-1, normalized by (-1)^(p-1) times the product of the
    representatives."""
    reps = [teichmuller(Padic.from_int(i, prime, precision)) for i in range(1, prime)]
    coeffs: list[Padic] = [Padic.one(prime, precision)]
    for t in reps:
        nxt = [Padic.zero(prime)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] = nxt[k + 1] + c
            nxt[k] = nxt[k] + c * (-t)
        coeffs = nxt
    denom = Padic.from_int((-1) ** (prime - 1), prime, precision)
    for t in reps:
        denom = denom * t
    return tuple(c / denom for c in coeffs)


def teichmuller_idempotent(a: Operator, cert: ContractionCertificate,
                           target: int = 30, budget: int = 40,
                           ) -> tuple[Operator, list[list]]:
    """Limit e of x_k = P(A^{p^k}), k = 0, 1, ..., where P is the
    zero-indicator polynomial.

    Phase 1 evaluates x_k, at most ``budget`` times, until it is
    idempotent mod p: ||x_k^2 - x_k|| < 1.  Phase 2 refines that x_k by
    e <- 3e^2 - 2e^3 as idempotent_refine does, which doubles the known
    digits a step where x_k itself gains one digit per k.  The refined
    e is certified as refinement certifies: idempotent at the target
    depth and at distance < 1 from x_k.

    It is the limit.  Mod p, P(X) = 1 - X^(p-1), so with X = A^{p^k}
    and y = X^(p-1) = 1 - x_k idempotent mod p, x_{k+1} = 1 - y^p = x_k
    mod p, and every later x_j agrees with x_k mod p.  The limit f and
    e are idempotents of the closed commutative algebra generated by A
    and agree mod p.  Commuting idempotents satisfy (e - f)^3 = e - f,
    so ||e - f|| <= ||e - f||^3, and ||e - f|| < 1 forces e = f.

    Returns e and a trace of rows [phase, k, defect norm exponent]: one
    per x_k (phase 1, its ||x_k^2 - x_k||) and one per refinement step
    (phase 2, k = 1, 2, ..., the defect after step k).  Raises
    NoConvergence(budget) when no evaluated x_k is idempotent mod p.
    """
    p = a.prime
    _check_issued_for(cert, a)
    if not cert.covers(1):
        raise PreconditionFailed("a contraction certificate is required")
    b = normalize(a)
    coeffs = zero_indicator_polynomial(p, precision_of(b))
    trace: list[list] = []
    for k in range(budget):
        if k:
            b = _nf_power(b, p)
        x = nf_polynomial(b, coeffs)
        defect = x.mul(x).sub(x)
        gap = defect.norm()
        trace.append([1, k, exponent_str(gap)])
        if gap < ValuationBound.one():
            e, defects = _refine_form(x, target, defect=defect)
            trace += [[2, i, exponent_str(d.norm())] for i, d in enumerate(defects, 1)]
            return e.to_operator(), trace
    raise NoConvergence(budget, "no P(A^(p^k)) was idempotent mod p")


def _nf_power(nf: NormalForm, n: int) -> NormalForm:
    out: NormalForm | None = None
    base = nf
    k = n
    while k:
        if k & 1:
            out = base if out is None else out.mul(base)
        k >>= 1
        if k:
            base = base.mul(base)
    assert out is not None
    return out

"""Binomial functional calculus for normal contractions.

An operator A is admitted once the norms of the falling products
A(A-1)...(A-(n-1)) are certified against the factorial valuation, either
explicitly up to a finite depth or structurally (contractive diagonals).
On top of that sit the divided binomial powers, evaluation of a
coefficient sequence at A, the geometric-style series in binom(A-1, n),
and the limit of indicator polynomials along A, A^p, A^{p^2}, ...
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificationFailed, NoConvergence, PreconditionFailed
from .io import exponent_str
from .mahler import MahlerFunction
from .operators import (Diagonal, Identity, NormalForm, Operator,
                        nf_polynomial, normalize)
from .polynomials import PadicPolynomial
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


def binom_operator(a: Operator, n: int, cert: ContractionCertificate) -> Operator:
    """Exact A(A-1)...(A-(n-1)) / n!."""
    if not cert.covers(n):
        raise PreconditionFailed(f"certificate depth {cert.depth} does not cover n={n}")
    nf = _binom_nf(normalize(a), n)
    return nf.to_operator()


def _binom_nf(nf_a: NormalForm, n: int) -> NormalForm:
    prec = precision_of(nf_a)
    out = NormalForm.constant(nf_a.prime, Padic.one(nf_a.prime, prec))
    for j in range(n):
        out = _falling_step(nf_a, out, j, prec)
        out = out.divide_entries(Padic.from_int(j + 1, nf_a.prime, prec))
    return out


def functional_calculus(a: Operator, fn: MahlerFunction,
                        cert: ContractionCertificate) -> tuple[Operator, ValuationBound]:
    """Evaluate a coefficient sequence at A: sum of T_n * binom(A, n).

    Returns the truncated series and its error bound (the function's
    tail bound; the discarded terms have norms below it).
    """
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


def zero_indicator_polynomial(prime: int, precision: int = DEFAULT_PRECISION) -> PadicPolynomial:
    """The polynomial that is 1 at 0 and 0 at every nonzero Teichmuller
    representative: product of (X - t_i) over i = 1..p-1, normalized by
    (-1)^(p-1) times the product of the representatives."""
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
    return PadicPolynomial(tuple(c / denom for c in coeffs))


def teichmuller_idempotent(a: Operator, cert: ContractionCertificate,
                           target: int = 30, budget: int = 40,
                           ) -> tuple[Operator, list[list]]:
    """Limit of P(A^{p^k}) where P is the zero-indicator polynomial.

    Iterates, at most ``budget`` times, until two successive values agree
    below p^(-target) and the result is idempotent to the same depth.
    Returns the idempotent and a per-iteration trace [k, difference norm
    exponent].
    """
    p = a.prime
    if not cert.covers(1):
        raise PreconditionFailed("a contraction certificate is required")
    b = normalize(a)
    poly = zero_indicator_polynomial(p, precision_of(b))
    prev: NormalForm | None = None
    trace: list[list] = []
    for k in range(budget):
        current = nf_polynomial(b, poly.coeffs)
        if prev is not None:
            diff = current.sub(prev)
            trace.append([k, exponent_str(diff.norm())])
            if diff.vanishes_to(target):
                idem_gap = current.mul(current).sub(current)
                if not idem_gap.vanishes_to(target):
                    raise NoConvergence(k, "stabilized value is not idempotent at target depth")
                return current.to_operator(), trace
        prev = current
        b = _nf_power(b, p)
    raise NoConvergence(budget, "successive values never met the target depth")


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

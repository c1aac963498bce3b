"""Binomial functional calculus for normal contractions.

An operator A is a normal contraction when every binom(A, n) has norm at
most 1, that is when each falling product A(A-1)...(A-(n-1)) = n! binom(A, n)
vanishes mod p^(v_p(n!)).  One walk forms them on A's residue window
(residues.Window) and checks that bound on each, so every routine here
certifies exactly the terms it uses; contractive diagonals satisfy it for
all n.  On top of that walk sit evaluation of a coefficient sequence at A
(a sum of divided falling products), the geometric-style series in
binom(A-1, n), and the limit of indicator polynomials along A, A^p, ...
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate, chain, count, islice, repeat, takewhile
from math import factorial
from operator import mul
from typing import Iterable, Iterator

from .errors import CertificationFailed, NonIntegral, PrecisionExhausted, PreconditionFailed
from .idempotents import _frobenius_cap, _refine_form
from .io import exponent_str
from .mahler import MahlerFunction
from .operators import Diagonal, FiniteMatrix, Operator, normalize
from .residues import Window
from .scalars import Padic, ValuationBound, _linear_term, _split, factorial_valuation, precision_of


def _contraction_window(a: Operator, *operands) -> Window:
    """A's residue window mod p^N, or PreconditionFailed for a structured
    tail and CertificationFailed(1) for ||A|| > 1: an entry of A is
    outside Z_p exactly when a head value or the shift is, which is when
    the read raises NonIntegral.  An exact A reads at
    precision_of(A, *operands), as a constant written for them would;
    read uses it only when A holds no nonzero scalar, so it is
    precision_of(*operands), and A is not walked for it."""
    nf = normalize(a)
    if nf.tail is not None:
        raise PreconditionFailed("a structured tail has no finite window")
    try:
        return Window.read([nf], exact=precision_of(*operands))[0]
    except NonIntegral:
        raise CertificationFailed(1, f"step 1: norm exponent {exponent_str(nf.norm())}, need at least 0") from None


def _check_product(n: int, product: Window) -> ValuationBound:
    """The norm of the falling product n! binom(A, n) once it vanishes
    mod p^(v_p(n!)), that is ||binom(A, n)|| <= 1: CertificationFailed(n)
    when it does not, PrecisionExhausted when v_p(n!) is past N.  With
    v_p(n!) at most N, the product vanishes to it exactly when its norm
    exponent (Window.norm) reaches it."""
    required = factorial_valuation(n, product.prime)
    if required > product.depth:
        raise PrecisionExhausted(f"step {n}: v_p(n!) = {required} is past the depth {product.depth} of A")
    achieved = product.norm()
    if achieved.exponent < required:
        raise CertificationFailed(n, f"step {n}: norm exponent {exponent_str(achieved)}, need at least {required}")
    return achieved


def _falling_products(w: Window) -> Iterator[tuple[Window, ValuationBound]]:
    """A(A-1)...(A-(n-1)) = n! binom(A, n) on A's window w and its norm for
    n = 0, 1, 2, ..., checked by _check_product: F_0 = 1, F_1 = w itself
    (1.w + 0.1 would repeat its residues), then F_n = F_(n-1).w -
    (n-1) F_(n-1) as one fused product, so F_n costs n - 1 products."""
    yield w.constant(1), ValuationBound.one()
    product = w
    for n in count(1):
        yield product, _check_product(n, product)
        product = product.mul(w, addend=[(-n, product)])


def certify_normal_contraction(a: Operator, depth: int) -> list[tuple[int, ValuationBound]]:
    """The rows (n, norm of A(A-1)...(A-(n-1))) for n = 1..depth, each
    checked: ||binom(A, n)|| <= 1, else CertificationFailed(n).  See
    _contraction_window and _check_product for the other refusals."""
    products = islice(_falling_products(_contraction_window(a)), 1, depth + 1)
    return [(n, norm) for n, (_, norm) in enumerate(products, 1)]


def _binomial_sum(w: Window, coefficients: Iterable) -> Operator:
    """Sum of c_n * binom(A, n) on A's window w, each c_n a term (val, unit,
    top) as scalars._round sums them, top None for an exact c_n, or None
    for an exact zero.  binom(A, 0) = I is exact, so c_0 I is known to
    top.  For n >= 1, with n! = p^j u, binom(A, n) = u^-1 F_n / p^j is
    known mod p^(N - j) and has norm p^-b at most, b = e - j for the norm
    p^-e of F_n that the walk read (Window.norm), so c_n binom(A, n) is
    known to min(val + N - j, top + b).  The sum is known to the least
    of these, D, or to N when no term bounds it.

    It divides once: with k_n = p^val unit u^-1 (u^-1 mod p^N), j_n = j
    and J the largest j_n, it returns S / p^J for S = sum k_n p^(J - j_n)
    F_n mod p^(D + J).  The walk checked that p^(j_n) divides F_n, so
    that is sum k_n (F_n / p^(j_n)) mod p^D, the digits of dividing each
    F_n first; u^-1 mod p^N, not p^(N - j), moves a term by a multiple
    of p^(val + N - j), past D."""
    p, depth, terms = w.prime, None, []
    # coefficients first: zip stops there without forming one more product
    for n, (c, (product, norm)) in enumerate(zip(coefficients, _falling_products(w))):
        if c is None:
            continue
        val, unit, top = c
        j, u = _split(factorial(n), p)
        known = min(val + w.depth - j, top + norm.exponent - j) if n else top
        if known is not None:
            depth = known if depth is None else min(depth, known)
        terms.append((j, p**val * unit * pow(u, -1, w.modulus), product))
    if not terms:
        return FiniteMatrix(p, {})
    depth = w.depth if depth is None else depth
    j_max = terms[-1][0]  # v_p(n!) does not fall as n grows
    acc = Window.combine([(k * p**(j_max - j), f) for j, k, f in terms], depth + j_max).divide(j_max)
    # a sum that vanishes to its depth is O(p^depth) I: the public operator drops zeros
    if acc.vanishes_to(acc.depth):
        return Diagonal(p, {}, Padic.zero(p, acc.depth))
    return acc.form().to_operator()


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
    acc = _binomial_sum(_contraction_window(a, fn), (_linear_term(1, c) for c in fn.coefficients))
    return acc, fn.tail_bound


def binomial_series(a: Operator, z: Padic, depth: int) -> tuple[Operator, ValuationBound]:
    """Truncation of the series sum over n of z^n * binom(A - 1, n).

    Requires |z| <= 1/p and ||A|| <= 1, which the error bound needs
    (CertificationFailed(1) otherwise); the walk checks each
    binom(A - 1, n) it sums.  The terms stop at the first exactly zero
    power of z: a certified zero z^n adds its bound.
    """
    if z.norm > ValuationBound(1):
        raise PreconditionFailed("series parameter needs norm <= 1/p")
    w = _contraction_window(a, z)
    powers = map(partial(_linear_term, 1), islice(accumulate(repeat(z), mul), depth))
    # z^0 binom(A - 1, 0) = 1, exact
    terms = chain([(0, 1, None)], takewhile(lambda term: term is not None, powers))
    acc = _binomial_sum(w.sub(w.constant(1)), terms)
    return acc, _series_error(z, depth, _contractive_diagonal(a))


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
    e is certified as refinement certifies: idempotent to the window's
    depth, and at distance < 1 from x_k, as each step is a multiple of
    a defect of norm < 1.

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
    per x_k (phase 1, its ||x_k^2 - x_k||, formed) and one per
    refinement step (phase 2, k = 1, 2, ..., the defect after step k).
    The last phase-2 defect is derived, not formed, whenever an
    identity settles it: a step sends the defect d to d^2(4d - 3), so
    once twice the valuation of the defect it steps from reaches N, the
    next vanishes mod p^N, and its row prints N, the exponent
    Window.norm reads off a window that vanishes (_refine).
    """
    b = _contraction_window(a)
    p, one = b.prime, b.constant(1)
    cap = _frobenius_cap(b)
    trace: list[list] = []
    for k in range(cap + 1):
        if k:
            b = b.power(p)
        x = one.sub(b.power(p - 1))
        defect = x.defect()
        gap = defect.norm().exponent
        trace.append([1, k, str(gap)])
        if gap > 0:
            e, valuations = _refine_form(x, target, (defect, gap))
            trace += [[2, i, str(v)] for i, v in enumerate(valuations, 1)]
            return e.to_operator(), trace
    raise PreconditionFailed(f"A mod p has an eigenvalue outside F_p (k = 0..{cap})")

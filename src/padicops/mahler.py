"""Continuous Z_p -> Z_p functions as binomial-basis coefficient sequences.

A function is stored as finitely many coefficients T_0..T_M plus an
asserted bound on every coefficient past M.  Finite samples cannot
certify decay, so the tail bound is the caller's claim, not ours; it
defaults to an exactly-zero tail, which makes the stored data a
polynomial in the binomial basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import NonIntegral
from .scalars import Padic, ValuationBound, add_product, norm_max, precision_of


@dataclass(frozen=True)
class MahlerFunction:
    prime: int
    coefficients: tuple[Padic, ...]
    tail_bound: ValuationBound

    def __post_init__(self):
        for c in self.coefficients:
            if not c.is_integral:
                raise NonIntegral("coefficients must lie in Z_p")
        if self.tail_bound > ValuationBound.one():
            raise NonIntegral("tail bound must not exceed 1")


def mahler_expand(samples: Sequence[Padic], tail_bound: ValuationBound | None = None,
                  prime: int = 2) -> MahlerFunction:
    """Coefficients from the values f(0..M), by forward differences at 0.

    ``prime`` is consulted only for an empty sample list, which yields
    the zero function.
    """
    if tail_bound is None:
        tail_bound = ValuationBound.zero()
    if not samples:
        return MahlerFunction(prime, (), tail_bound)
    prime = samples[0].prime
    for s in samples:
        if not s.is_integral:
            raise NonIntegral("samples must lie in Z_p")
    coeffs: list[Padic] = []
    row = list(samples)
    while row:
        coeffs.append(row[0])
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
    while coeffs and coeffs[-1].is_zero and coeffs[-1].precision is None:
        coeffs.pop()
    return MahlerFunction(prime, tuple(coeffs), tail_bound)


def mahler_eval(fn: MahlerFunction, x: Padic) -> Padic:
    """The sum of T_n binom(x, n).  One walk forms the falling products
    x(x-1)...(x-n+1), one scalar product per n, each rounded as
    scalars.binomial_padic rounds it, so binom(x, n) is the walk's
    product divided by n!, the value binomial_padic gives."""
    if not x.is_integral:
        raise NonIntegral("evaluation points must lie in Z_p")
    p, width = fn.prime, precision_of(x)
    total = Padic.zero(p)
    falling, factorial = Padic.one(p, width), 1
    for n, t in enumerate(fn.coefficients):
        if n:
            falling = falling * (x - Padic.from_int(n - 1, p, width))
            factorial *= n
        if t.is_exact_zero:
            continue
        # binom(x, 0) is 1 exactly, whatever the precision of x, and
        # binom(x, n) lies in Z_p, so a certified zero O(p^N) adds O(p^N)
        if n == 0 or t.is_zero:
            total = total + t
        else:
            binom = falling / Padic.from_int(factorial, p, width) if n >= 2 else falling
            total = add_product(total, t, binom)
    if not fn.tail_bound.is_zero:
        # unseen coefficients contribute at most the tail bound
        total = total.cap_absolute(fn.tail_bound.exponent)
    return total


def mahler_sup_norm(fn: MahlerFunction) -> ValuationBound:
    return norm_max([c.norm for c in fn.coefficients] + [fn.tail_bound])

"""Dense polynomials over Z.

Coefficient order is constant-first.  Arithmetic is exact and supports
the divisibility checks the idempotent machinery relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _trim(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


@dataclass(frozen=True)
class IntPolynomial:
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(tuple(self.coeffs)))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __call__(self, x):
        out = 0 if not isinstance(x, Fraction) else Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return IntPolynomial(tuple(merged))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not self.coeffs or not other.coeffs:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def __pow__(self, k: int) -> "IntPolynomial":
        out = IntPolynomial((1,))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def divides_into(self, other: "IntPolynomial") -> "IntPolynomial | None":
        """Exact quotient other/self when self is monic and divides; else None."""
        if not self.coeffs or self.coeffs[-1] != 1:
            raise ValueError("divisor must be monic")
        rem = list(other.coeffs)
        d = self.degree
        quot = [0] * max(0, len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            quot[i - d] = c
            for j, a in enumerate(self.coeffs):
                rem[i - d + j] -= c * a
        if any(rem):
            return None
        return IntPolynomial(tuple(quot))

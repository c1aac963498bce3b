"""Exact p-adic scalars with valuation-based norms.

A value is stored as prime, valuation and unit digit string, never as a
float.  Arithmetic is exact modulo p^(valuation + precision); precision
is tracked per value so cancellation is visible to callers.  The zero
element has valuation +infinity, encoded as ``valuation is None``; a
zero produced by cancellation additionally remembers the absolute depth
to which the vanishing is certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero, NonIntegral, PrecisionExhausted

DEFAULT_PRECISION = 40


def precision_of(*operands, default: int = DEFAULT_PRECISION) -> int:
    """The working precision of a computation on the operands.

    This is the largest relative precision of a nonzero scalar among
    them.  Operands are scalars, or containers of scalars: operators,
    normal forms, vectors and Mahler functions (dataclasses, walked
    field by field), dicts, lists and tuples.  An ``Identity`` holds no
    scalar but a ``precision`` field, and stands for 1 at it.  Operands
    holding no nonzero scalar get ``default``: exact data have no
    precision of their own.

    A sum, product or quotient of such scalars carries at most this many
    relative digits, so multiplying it by a constant written at this
    precision loses none of them.
    """
    best = 0
    stack = list(operands)
    while stack:
        x = stack.pop()
        if isinstance(x, Padic):
            if x.valuation is not None:
                best = max(best, x.precision)
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        elif hasattr(x, "__dataclass_fields__"):
            if "precision" in x.__dataclass_fields__:  # an Identity's 1s
                best = max(best, x.precision)
            else:
                stack.extend(getattr(x, name) for name in x.__dataclass_fields__)
    return best or default


def _split(k: int, p: int) -> tuple[int, int]:
    """(j, u) with k = p^j * u and u prime to p, for an int k != 0."""
    j = 0
    while k % p == 0:
        k //= p
        j += 1
    return j, k


# -- terms: the one shape in which a scalar enters a sum ---------------------

# A term is an int triple (val, unit, top): the scalar p^val * unit, known to
# the absolute precision top.  A nonzero x = p^v * u + O(p^(v+N)) is the term
# (v, u, v + N), and a zero certified to depth d is (d, 0, d); an exact zero
# adds no term, written None.  The product of two terms is
# (v1 + v2, u1 * u2, min(t1 + v2, t2 + v1)), so O(p^a) * O(p^b) = O(p^(a+b)).


def _product_term(v: "Padic", w: "Padic"):
    """The term v * w."""
    vv, wv = v.valuation, w.valuation
    if vv is not None and wv is not None:
        val = vv + wv
        return val, v.unit * w.unit, val + min(v.precision, w.precision)
    # a zero factor (d, 0, d) has top = val, so the product's top is its val
    if v.precision is None and vv is None or w.precision is None and wv is None:
        return None
    val = (v.precision if vv is None else vv) + (w.precision if wv is None else wv)
    return val, 0, val


def _linear_term(k: int, x: "Padic"):
    """The term k * x for an exact int k != 0."""
    j, u = _split(k, x.prime)
    val = x.valuation
    if val is None:
        return None if x.precision is None else (x.precision + j, 0, x.precision + j)
    val += j
    return val, x.unit * u, val + x.precision


def _round(p: int, terms: list[tuple[int, int, int]]) -> "Padic":
    """The sum of the terms, rounded once.

    The sum's absolute precision is the least top over its terms.  Its
    digits are those of the exact int sum of the terms, reduced mod p to
    that depth.  No partial sum is rounded or dropped on its own, so a
    cancellation between terms cannot hide a term's bound.  Only the
    powers p^(val - base) of terms inside the window are formed, so huge
    valuations cost nothing.  With no term the sum is an exact zero.
    """
    if not terms:
        return Padic.zero(p)
    base, _, top = terms[0]
    for val, _, t in terms:
        if val < base:
            base = val
        if t < top:
            top = t
    if top <= base:
        return Padic.zero(p, top)
    window = top - base
    total = 0
    for val, unit, _ in terms:
        d = val - base
        if d == 0:
            total += unit
        elif d < window:
            total += unit * p ** d
    return Padic.from_unit(p, base, total, window)


def add_product(x: "Padic", c: "Padic", y: "Padic") -> "Padic":
    """x + c * y, rounded once: the terms x and c * y summed by _round,
    so the product is not rounded on its own first.  Its value and
    precision are those of x + (c * y)."""
    if not x.prime == c.prime == y.prime:
        raise ValueError(f"mixed primes {x.prime}, {c.prime} and {y.prime}")
    return _round(x.prime, [t for t in (_linear_term(1, x), _product_term(c, y))
                            if t is not None])


@dataclass(frozen=True, slots=True)
class ValuationBound:
    """The exact norm value p^(-exponent).

    ``exponent is None`` encodes the zero norm.  Comparisons follow the
    norm order, so a larger exponent means a smaller bound.
    """

    exponent: int | None

    @classmethod
    def zero(cls) -> "ValuationBound":
        return cls(None)

    @classmethod
    def one(cls) -> "ValuationBound":
        return cls(0)

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def _key(self) -> tuple[int, int]:
        # (finite?, -exponent): zero norm sorts below everything
        if self.exponent is None:
            return (0, 0)
        return (1, -self.exponent)

    def __lt__(self, other: "ValuationBound") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "ValuationBound") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "ValuationBound") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "ValuationBound") -> bool:
        return self._key() >= other._key()

    def __str__(self) -> str:
        return "0" if self.exponent is None else f"p^{-self.exponent}"


def norm_max(bounds) -> ValuationBound:
    out = ValuationBound.zero()
    for b in bounds:
        if b > out:
            out = b
    return out


@dataclass(frozen=True, slots=True, init=False)
class Padic:
    """One p-adic scalar.

    Nonzero: ``unit`` is coprime to ``prime``, ``0 < unit < p**precision``,
    and the value is p^valuation * unit, exact modulo
    p^(valuation + precision).

    Zero: ``valuation`` and ``unit`` are None.  ``precision`` then holds
    the absolute depth to which the vanishing is certified (None when
    the zero is exact by construction).
    """

    prime: int
    valuation: int | None
    unit: int | None
    precision: int | None

    def __init__(self, prime: int, valuation: int | None, unit: int | None,
                 precision: int | None) -> None:
        # A frozen dataclass's own __init__ stores each field through
        # object.__setattr__, a generic lookup that costs more than the
        # rest of making a scalar; the slot descriptors' setters store
        # directly, and every Padic the library makes passes here.
        _set_prime(self, prime)
        _set_valuation(self, valuation)
        _set_unit(self, unit)
        _set_precision(self, precision)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, prime: int, certified: int | None = None) -> "Padic":
        if certified is not None and certified <= 0:
            raise PrecisionExhausted("zero with no certified digits")
        return cls(prime, None, None, certified)

    @classmethod
    def from_unit(cls, prime: int, valuation: int, unit: int, precision: int,
                  modulus: int | None = None) -> "Padic":
        """p^valuation * unit to the relative precision given, its digits
        reduced and a p-power factor of unit moved into the valuation.
        ``modulus`` is prime**precision, for a caller that holds it."""
        if precision <= 0:
            raise PrecisionExhausted("no significant digits left")
        unit %= prime**precision if modulus is None else modulus
        if unit % prime:
            return cls(prime, valuation, unit, precision)
        if unit == 0:
            # all stored digits cancelled; vanishing certified to here
            return cls.zero(prime, valuation + precision)
        # caller passed a non-unit; renormalize, precision shrinks
        shift, u = _split(unit, prime)
        if shift >= precision:
            return cls.zero(prime, valuation + precision)
        return cls(prime, valuation + shift, u, precision - shift)

    @classmethod
    def from_int(cls, n: int, prime: int, precision: int = DEFAULT_PRECISION) -> "Padic":
        if n == 0:
            return cls.zero(prime)
        return cls.from_unit(prime, *_split(n, prime), precision)

    @classmethod
    def from_fraction(cls, q: Fraction | int, prime: int, precision: int = DEFAULT_PRECISION) -> "Padic":
        q = Fraction(q)
        if q == 0:
            return cls.zero(prime)
        vn, num = _split(q.numerator, prime)
        vd, den = _split(q.denominator, prime)
        mod = prime**precision
        unit = num * pow(den, -1, mod) % mod
        return cls(prime, vn - vd, unit, precision)

    @classmethod
    def one(cls, prime: int, precision: int = DEFAULT_PRECISION) -> "Padic":
        return cls(prime, 0, 1, precision)

    # -- predicates and views -----------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.valuation is None

    @property
    def is_exact_zero(self) -> bool:
        """Zero by construction: unlike a certified zero it carries no
        bound, so a sum may drop it."""
        return self.valuation is None and self.precision is None

    @property
    def is_integral(self) -> bool:
        return self.is_zero or self.valuation >= 0

    @property
    def norm(self) -> ValuationBound:
        """Exact norm for nonzero values; for certified zeros this is
        the zero bound (the true value is below every tracked digit)."""
        return ValuationBound(self.valuation)

    def vanishes_to(self, depth: int) -> bool:
        """True when the value is certified to be 0 modulo p^depth."""
        if self.is_zero:
            return self.precision is None or self.precision >= depth
        return self.valuation >= depth

    @property
    def absolute_precision(self) -> int | None:
        """Depth to which digits are known; None means exact."""
        if self.is_zero:
            return self.precision
        return self.valuation + self.precision

    def residue(self, depth: int) -> int:
        """The integer value mod p^depth.  Requires valuation >= 0
        on the tracked digits and enough absolute precision."""
        if self.is_zero:
            if self.precision is not None and self.precision < depth:
                raise PrecisionExhausted(f"zero certified only to depth {self.precision}")
            return 0
        if self.valuation < 0:
            raise NonIntegral("negative valuation has no integer residue")
        if self.valuation + self.precision < depth:
            raise PrecisionExhausted("not enough digits for the requested residue")
        if self.valuation >= depth:
            return 0
        return self.unit * self.prime**self.valuation % self.prime**depth

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "Padic") -> None:
        if self.prime != other.prime:
            raise ValueError(f"mixed primes {self.prime} and {other.prime}")

    def __add__(self, other: "Padic") -> "Padic":
        self._check(other)
        return _round(self.prime, [t for t in (_linear_term(1, self), _linear_term(1, other))
                                   if t is not None])

    def __neg__(self) -> "Padic":
        if self.is_zero:
            return self
        mod = self.prime**self.precision
        return Padic(self.prime, self.valuation, (-self.unit) % mod, self.precision)

    def __sub__(self, other: "Padic") -> "Padic":
        self._check(other)
        return _round(self.prime, [t for t in (_linear_term(1, self), _linear_term(-1, other))
                                   if t is not None])

    def __mul__(self, other: "Padic") -> "Padic":
        self._check(other)
        term = _product_term(self, other)
        return _round(self.prime, [] if term is None else [term])

    def __truediv__(self, other: "Padic") -> "Padic":
        self._check(other)
        if other.is_zero:
            raise DivisionByZero("division by zero scalar")
        p = self.prime
        if self.is_zero:
            if self.precision is None:
                return Padic.zero(p)
            return Padic.zero(p, self.precision - other.valuation)
        prec = min(self.precision, other.precision)
        mod = p**prec
        unit = self.unit * pow(other.unit, -1, mod) % mod
        return Padic.from_unit(p, self.valuation - other.valuation, unit, prec)

    def scale_int(self, n: int) -> "Padic":
        """n * self for an exact int n: the term n * self, rounded."""
        term = _linear_term(n, self) if n else None
        return _round(self.prime, [] if term is None else [term])

    def cap_absolute(self, depth: int) -> "Padic":
        """Forget digits past absolute depth (used to fold in error bounds)."""
        if self.is_zero:
            cert = depth if self.precision is None else min(self.precision, depth)
            return Padic.zero(self.prime, cert)
        if self.valuation >= depth:
            return Padic.zero(self.prime, depth)
        if self.valuation + self.precision <= depth:
            return self
        return Padic.from_unit(self.prime, self.valuation, self.unit, depth - self.valuation)

    def __str__(self) -> str:
        from .io import scalar_to_text

        return scalar_to_text(self)


_set_prime, _set_valuation, _set_unit, _set_precision = (
    Padic.__dict__[name].__set__ for name in ("prime", "valuation", "unit", "precision"))


# -- combinatorial helpers --------------------------------------------


def digit_sum(n: int, p: int) -> int:
    """Sum of the base-p digits of a nonnegative integer."""
    if n < 0:
        raise ValueError("digit_sum needs n >= 0")
    s = 0
    while n:
        n, r = divmod(n, p)
        s += r
    return s


def factorial_valuation(n: int, p: int) -> int:
    """v_p(n!) via the digit-sum form (n - s_p(n)) / (p - 1)."""
    if n < 0:
        raise ValueError("factorial_valuation needs n >= 0")
    q, r = divmod(n - digit_sum(n, p), p - 1)
    assert r == 0
    return q


def binomial_padic(x: Padic, k: int) -> Padic:
    """The binomial coefficient function x(x-1)...(x-k+1)/k! at x in Z_p.

    The result lies in Z_p; its guaranteed absolute precision drops by
    factorial_valuation(k) because of the division.
    """
    if k < 0:
        raise ValueError("binomial_padic needs k >= 0")
    if not x.is_integral:
        raise NonIntegral("binomial_padic needs |x| <= 1")
    p = x.prime
    width = precision_of(x)
    acc = Padic.one(p, width)
    for j in range(k):
        acc = acc * (x - Padic.from_int(j, p, width))
    if k >= 2:
        acc = acc / Padic.from_int(math.factorial(k), p, width)
    return acc


def vandermonde_coefficients(m: int, n: int) -> dict[int, int]:
    """Integer coefficients expanding binom(x,m)binom(x,n) over binom(x,l).

    Returns {l: l! / ((m+n-l)! (l-m)! (l-n)!)} for max(m,n) <= l <= m+n.
    """
    if m < 0 or n < 0:
        raise ValueError("need m, n >= 0")
    out: dict[int, int] = {}
    for l in range(max(m, n), m + n + 1):
        num = math.factorial(l)
        den = math.factorial(m + n - l) * math.factorial(l - m) * math.factorial(l - n)
        q, r = divmod(num, den)
        assert r == 0
        out[l] = q
    return out


def teichmuller(x: Padic) -> Padic:
    """The Teichmuller representative of x in Z_p.

    It is the unique root of unity congruent to x mod p, or exactly 0
    when |x| < 1.  For a unit u known mod p^N, u^(p^(N-1)) mod p^N is
    that root: the limit of x -> x^p, which is fixed mod p^N from the
    (N-1)-th step on.
    """
    if not x.is_integral:
        raise NonIntegral("teichmuller needs |x| <= 1")
    if x.is_zero or x.valuation >= 1:
        return Padic.zero(x.prime)
    p, n = x.prime, x.precision
    return Padic.from_unit(p, 0, pow(x.unit, p ** (n - 1), p**n), n)

"""Finitely supported vectors over Q_p and the mod-Z_p pairing."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PrecisionExhausted
from .scalars import DEFAULT_PRECISION, Padic, ValuationBound, norm_max


@dataclass
class PadicVector:
    """A finitely supported element of Q_p(X), X = N.

    The support map never stores zeros; treat instances as immutable.
    """

    prime: int
    entries: dict[int, Padic] = field(default_factory=dict)

    def __post_init__(self):
        self.entries = {i: v for i, v in self.entries.items() if not v.is_zero}

    @classmethod
    def basis(cls, prime: int, i: int, precision: int = DEFAULT_PRECISION) -> "PadicVector":
        return cls(prime, {i: Padic.one(prime, precision)})

    @property
    def support(self) -> list[int]:
        return sorted(self.entries)

    def get(self, i: int) -> Padic:
        return self.entries.get(i, Padic.zero(self.prime))

    def norm(self) -> ValuationBound:
        return norm_max(v.norm for v in self.entries.values())

    def __add__(self, other: "PadicVector") -> "PadicVector":
        if self.prime != other.prime:
            raise ValueError("mixed primes")
        merged = dict(self.entries)
        for i, v in other.entries.items():
            merged[i] = merged[i] + v if i in merged else v
        return PadicVector(self.prime, merged)

    def __neg__(self) -> "PadicVector":
        return PadicVector(self.prime, {i: -v for i, v in self.entries.items()})

    def __sub__(self, other: "PadicVector") -> "PadicVector":
        return self + (-other)

    def scale(self, c: Padic) -> "PadicVector":
        return PadicVector(self.prime, {i: v * c for i, v in self.entries.items()})


@dataclass(frozen=True)
class PairingValue:
    """An element of Q_p/Z_p in lowest terms: numerator / p^exponent.

    Invariants: 0 <= numerator < p^exponent, and the numerator is
    coprime to p unless it is 0 (then exponent = 0).
    """

    prime: int
    numerator: int
    exponent: int

    @property
    def is_zero(self) -> bool:
        return self.numerator == 0

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return f"{self.numerator}/{self.prime}^{self.exponent}"


def fractional_part(x: Padic) -> PairingValue:
    """Class of a scalar in Q_p/Z_p."""
    if x.is_zero or x.valuation >= 0:
        return PairingValue(x.prime, 0, 0)
    k = -x.valuation
    if x.precision < k:
        raise PrecisionExhausted("not enough digits to read the fractional part")
    num = x.unit % x.prime**k
    # the unit is coprime to p, hence so is its residue
    return PairingValue(x.prime, num, k)


def pairing(xi: PadicVector, eta: PadicVector) -> PairingValue:
    """<xi, eta> = fractional part of sum_i xi(i) eta(i)."""
    if xi.prime != eta.prime:
        raise ValueError("mixed primes")
    total = Padic.zero(xi.prime)
    for i, v in xi.entries.items():
        w = eta.entries.get(i)
        if w is not None:
            total = total + v * w
    return fractional_part(total)

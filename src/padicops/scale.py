"""Willis scale of finite p-adic matrices, plus a truncation probe.

The scale is the largest norm of any square minor, floored at 1.  It is
read off the negative Smith invariants, which full-pivot elimination
yields first, in at most one O(n^3) pass, so windows of any size are
answered exactly.  The scale stops the walk at its first integral pivot
and forms no product of pivots; determinants come from the same walk,
taken to its end.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import eliminate_full_pivot
from .operators import FiniteMatrix, Operator, truncate
from .scalars import Padic


@dataclass(frozen=True)
class ScaleValue:
    exponent: int

    def __post_init__(self):
        if self.exponent < 0:
            raise ValueError("scale exponents are nonnegative")

    def __str__(self) -> str:
        return f"p^{self.exponent}"


def _dense(a: FiniteMatrix, dim: int) -> list[list[Padic]]:
    zero = Padic.zero(a.prime)
    rows = [[zero] * dim for _ in range(dim)]
    for (i, j), v in a.entries.items():
        if i >= dim or j >= dim:
            raise ValueError(f"entry at ({i}, {j}) falls outside the declared {dim}x{dim} window")
        rows[i][j] = v
    return rows


def determinant(rows: list[list[Padic]], prime: int) -> Padic:
    """The signed product of every pivot, multiplied in the order they
    come; an exact zero when they run out before the last row."""
    if not rows:
        return Padic.one(prime)
    det, sign, rank = None, 1, 0
    for rank, (pivot, sign) in enumerate(eliminate_full_pivot(rows), 1):
        det = pivot if det is None else det * pivot
    if rank < len(rows):
        return Padic.zero(prime)
    return det if sign > 0 else -det


def willis_scale_finite(a: FiniteMatrix, dim: int) -> ScaleValue:
    """Largest minor norm over all square minors, floored at 1.

    The largest k x k minor norm is p^-(v_1 + ... + v_k) for the Smith
    invariants v_1 <= v_2 <= ..., so the scale exponent is the sum of
    the negative invariants, negated.  They come first, so the walk
    stops at the first pivot of valuation >= 0."""
    exponent = 0
    for pivot, _ in eliminate_full_pivot(_dense(a, dim)):
        if pivot.valuation >= 0:
            break
        exponent -= pivot.valuation
    return ScaleValue(exponent)


def scale_transpose_check(a: FiniteMatrix, dim: int | None = None) -> bool:
    if dim is None:
        dim = 1 + max((max(i, j) for i, j in a.entries), default=-1)
    forward = willis_scale_finite(a, dim)
    transpose = FiniteMatrix(a.prime, {(j, i): v for (i, j), v in a.entries.items()})
    backward = willis_scale_finite(transpose, dim)
    return forward == backward


def scale_minor_probe(a: Operator, bounds: list[int]) -> list[tuple[int, ScaleValue]]:
    """Scales of upper-left truncations.  Data only: whether these
    converge to anything for infinite operators is an open question."""
    return [(k, willis_scale_finite(truncate(a, k), k)) for k in bounds]

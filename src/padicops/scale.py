"""Willis scale of finite p-adic matrices, plus a truncation probe.

The scale is the largest norm of any square minor, floored at 1.  It is
read off the Smith invariants, which full-pivot elimination yields in
one O(n^3) pass, so windows of any size are answered exactly.
Determinants come from the same elimination.
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
    return eliminate_full_pivot(rows, prime)[1]


def willis_scale_finite(a: FiniteMatrix, dim: int) -> ScaleValue:
    """Largest minor norm over all square minors, floored at 1.

    The largest k x k minor norm is p^-(v_1 + ... + v_k) for the Smith
    invariants v_1 <= v_2 <= ..., so the scale exponent is the sum of
    the negative invariants, negated."""
    valuations, _ = eliminate_full_pivot(_dense(a, dim), a.prime)
    return ScaleValue(-sum(min(0, v) for v in valuations))


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

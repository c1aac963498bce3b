"""Exact integer helpers shared by input generation and the oracles.

Nothing here imports padicops: the oracles must stay independent of the
code they check.  Matrices are lists of rows of ints (or Fractions where
a construction has p-power denominators).
"""

from __future__ import annotations

import random
import re
from fractions import Fraction


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list[list], b: list[list]) -> list[list]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def unimodular(rng: random.Random, n: int, steps: int) -> tuple[list[list[int]], list[list[int]]]:
    """A random integer matrix of determinant +-1 and its integer inverse.

    Each elementary row move on u is mirrored by the inverse column move
    on u_inv, so u @ u_inv stays the identity without any division.
    """
    u, u_inv = identity(n), identity(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        if rng.random() < 0.2:
            u[i], u[j] = u[j], u[i]
            for row in u_inv:
                row[i], row[j] = row[j], row[i]
        else:
            c = rng.choice([-2, -1, 1, 2])
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
            for row in u_inv:
                row[j] -= c * row[i]
    return u, u_inv


def vp(n: int, p: int) -> int:
    """Valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def legendre(n: int, p: int) -> int:
    """v_p(n!) as Legendre's sum of floor(n / p^i)."""
    total, q = 0, p
    while q <= n:
        total += n // q
        q *= p
    return total


def rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q by exact elimination."""
    work = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            if work[i][c] != 0:
                f = work[i][c] / work[r][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


# -- scalars as (valuation, unit, relative precision) --------------------
#
# This is the field layout of a padicops Padic, so library answers are read
# straight from their fields and printed answers are parsed into the same
# triple.  (None, None, None) is an exact zero; (None, None, d) a zero
# certified to absolute depth d.

_TEXT_RE = re.compile(r"^(\d+)\^(-?\d+)\*([0-9.]+)$")


def encode(q: Fraction | int, p: int, precision: int) -> str:
    """Scalar text p^v*digits (little-endian base-p unit digits)."""
    q = Fraction(q)
    if q == 0:
        return "0"
    v = vp(q.numerator, p) - vp(q.denominator, p)
    num = q.numerator // p ** max(v, 0)
    den = q.denominator // p ** max(-v, 0)
    mod = p ** precision
    unit = num * pow(den, -1, mod) % mod
    digits = []
    while unit:
        unit, d = divmod(unit, p)
        digits.append(str(d))
    return f"{p}^{v}*" + ("".join(digits) if p < 10 else ".".join(digits))


def parse_text(text: str, p: int, precision: int) -> tuple:
    text = text.strip()
    if text == "0":
        return (None, None, None)
    m = _TEXT_RE.match(text)
    if not m or int(m.group(1)) != p:
        raise ValueError(f"unreadable scalar {text!r}")
    body = m.group(3)
    digits = [int(ch) for ch in body] if p < 10 else [int(x) for x in body.split(".")]
    unit = 0
    for d in reversed(digits):
        unit = unit * p + d
    return (int(m.group(2)), unit, precision)


class Unverifiable(ValueError):
    """An answer entry does not carry enough digits to be checked."""


def residue(x: tuple, p: int, depth: int, scale: int = 0) -> int:
    """p^scale * x modulo p^depth, refusing digits the value does not carry."""
    v, unit, prec = x
    if v is None:
        if prec is not None and prec + scale < depth:
            raise Unverifiable(f"zero certified only to depth {prec}")
        return 0
    v += scale
    if v < 0:
        raise Unverifiable("entry is not integral at this scale")
    if v + prec < depth:
        raise Unverifiable(f"entry known only to depth {v + prec - scale}")
    return unit * p ** v % p ** depth


def margin(x: tuple, target: int) -> int | None:
    """Absolute precision minus target; None for an exact zero."""
    v, _, prec = x
    if prec is None:
        return None
    return prec - target if v is None else v + prec - target

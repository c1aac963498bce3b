"""Textual scalar form, operator JSON files, and TSV tables.

The scalar form is ``p^v*d`` with v the decimal valuation and d the
unit's base-p digits, little-endian; digits are packed for p < 10 and
dot-separated otherwise.  Zero prints as ``0``.  Printing then parsing
reproduces the stored value bit for bit, with the file-level precision
applying to all scalars inside an operator file.
"""

from __future__ import annotations

import json
import re
from functools import cache, lru_cache
from typing import Any

from .config import require_int, require_prime
from .errors import ParseError
from .scalars import DEFAULT_PRECISION, Padic

_SCALAR_RE = re.compile(r"^(\d+)\^(-?\d+)\*([0-9.]+)$")
# digits per int() call: the least limit the interpreter allows on the
# digits of a str-to-int conversion (sys.set_int_max_str_digits)
_INT_DIGITS = 640


@cache
def _digit_chunks(p: int) -> tuple[int, tuple[str, ...]]:
    """p^k and the k little-endian base-p digits of each r < p^k, for
    p < 10: k = 6 for p <= 3 and 4 otherwise, a few hundred strings a
    prime."""
    k = 6 if p <= 3 else 4
    digits, table = [str(d) for d in range(p)], [""]
    for _ in range(k):
        # r = d + p r': the digit d, then the digits of r'
        table = [d + rest for rest in table for d in digits]
    return p**k, tuple(table)


@lru_cache(maxsize=64)
def _unit_bound(p: int, precision: int) -> int:
    """p^precision, which a file's units stay below: formed once per
    prime and precision, not once per scalar."""
    return p**precision


def scalar_to_text(x: Padic) -> str:
    if x.is_zero:
        return "0"
    p = x.prime
    u = x.unit
    if p < 10:
        # k digits a step; the padding of the last chunk is trailing zeros,
        # and the unit's top digit is not 0
        base, table = _digit_chunks(p)
        chunks = []
        while u:
            u, r = divmod(u, base)
            chunks.append(table[r])
        return f"{p}^{x.valuation}*{''.join(chunks).rstrip('0')}"
    digits = []
    while u:
        u, r = divmod(u, p)
        digits.append(r)
    return f"{p}^{x.valuation}*{'.'.join(str(d) for d in digits)}"


def scalar_from_text(text: str, prime: int, precision: int = DEFAULT_PRECISION) -> Padic:
    if not isinstance(text, str):
        raise ParseError(f"scalar must be text, not {text!r}")
    text = text.strip()
    if text == "0":
        return Padic.zero(prime)
    m = _SCALAR_RE.match(text)
    if not m:
        raise ParseError(f"bad scalar text {text!r}")
    p = int(m.group(1))
    if p != prime:
        raise ParseError(f"scalar prime {p} does not match file prime {prime}")
    val = int(m.group(2))
    body = m.group(3)
    if p < 10:
        # big-endian for int(); past int()'s digit limit, a chunk at a time.
        # Of the characters the pattern admits, int() refuses a dot and a
        # digit >= p, so its ValueError is one of those two errors
        unit, rev = 0, body[::-1]
        try:
            for start in range(0, len(rev), _INT_DIGITS):
                chunk = rev[start:start + _INT_DIGITS]
                unit = unit * p ** len(chunk) + int(chunk, p)
        except ValueError:
            if "." in body:
                raise ParseError(f"dot-separated digits need p >= 10: {text!r}") from None
            raise ParseError(f"digit out of range for base {p}: {text!r}") from None
    else:
        parts = body.split(".")
        if not all(parts):
            raise ParseError(f"empty digit between dots: {text!r}")
        digits = [int(part) for part in parts]
        if any(d >= p for d in digits):
            raise ParseError(f"digit out of range for base {p}: {text!r}")
        unit = 0
        for d in reversed(digits):
            unit = unit * p + d
    if unit == 0 or unit % p == 0:
        raise ParseError(f"unit part must be a p-adic unit: {text!r}")
    if unit >= _unit_bound(p, precision):
        raise ParseError(f"unit exceeds the file precision window: {text!r}")
    return Padic(prime, val, unit, precision)


# -- operator files ----------------------------------------------------


def _text(x: Padic, tops: list[int]) -> str:
    """scalar_to_text(x), adding the precision of a nonzero x to tops."""
    if x.valuation is not None:
        tops.append(x.precision)
    return scalar_to_text(x)


def _node_to_obj(op, tops: list[int]) -> dict[str, Any]:
    """The file form of op without its header.  tops gets the precision
    of each Identity and of each nonzero scalar written, which are the
    values precision_of(op) takes the largest of."""
    from . import operators as ops

    if isinstance(op, ops.FiniteMatrix):
        entries = sorted(op.entries.items())
        return {"kind": "finite", "entries": [[i, j, _text(v, tops)] for (i, j), v in entries]}
    if isinstance(op, ops.Diagonal):
        return {
            "kind": "diagonal",
            "entries": [[i, _text(v, tops)] for i, v in sorted(op.entries.items())],
            "default": _text(op.default, tops),
        }
    if isinstance(op, ops.Identity):
        tops.append(op.precision)
        return {"kind": "identity"}
    if isinstance(op, ops.IndexMap):
        if callable(op.dest):
            raise ParseError("callable-backed index maps have no file form")
        return {
            "kind": "indexmap",
            "dest": [[j, d] for j, d in sorted(op.dest.items())],
            "coeff": [[j, _text(v, tops)] for j, v in sorted(op.coeff.items())],
            "default_coeff": _text(op.default_coeff, tops),
        }
    if isinstance(op, ops.Sum):
        return {"kind": "sum", "terms": [_node_to_obj(t, tops) for t in op.terms]}
    if isinstance(op, ops.Product):
        return {"kind": "product", "factors": [_node_to_obj(f, tops) for f in op.factors]}
    if isinstance(op, ops.ScalarMul):
        return {"kind": "scalar", "scalar": _text(op.scalar, tops), "operand": _node_to_obj(op.operand, tops)}
    if isinstance(op, ops.Adjoint):
        return {"kind": "adjoint", "operand": _node_to_obj(op.operand, tops)}
    raise ParseError(f"cannot serialize operator of type {type(op).__name__}")


def operator_to_obj(op, precision: int | None = None,
                    fallback: int = DEFAULT_PRECISION) -> dict[str, Any]:
    """The file form of op.  The header precision defaults to the
    precision op carries, precision_of(op) as _node_to_obj reads it off
    the scalars it writes, and to fallback when op holds no nonzero
    scalar."""
    tops: list[int] = []
    obj = {"p": op.prime, "precision": precision}
    obj.update(_node_to_obj(op, tops))
    if precision is None:
        obj["precision"] = max(tops, default=0) or fallback
    return obj


def _obj_to_node(obj: dict[str, Any], prime: int, precision: int):
    from . import operators as ops

    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("operator node must be an object with a 'kind'")
    kind = obj["kind"]
    try:
        if kind == "finite":
            entries = {}
            for i, j, text in obj.get("entries", []):
                entries[(int(i), int(j))] = scalar_from_text(text, prime, precision)
            return ops.FiniteMatrix(prime, entries)
        if kind == "diagonal":
            entries = {int(i): scalar_from_text(text, prime, precision) for i, text in obj.get("entries", [])}
            default = scalar_from_text(obj.get("default", "0"), prime, precision)
            return ops.Diagonal(prime, entries, default)
        if kind == "identity":
            return ops.Identity(prime, precision)
        if kind == "indexmap":
            dest = {int(j): int(d) for j, d in obj.get("dest", [])}
            coeff = {int(j): scalar_from_text(text, prime, precision) for j, text in obj.get("coeff", [])}
            default = scalar_from_text(obj.get("default_coeff", "0"), prime, precision)
            return ops.IndexMap(prime, dest, coeff, default)
        if kind == "sum":
            return ops.Sum([_obj_to_node(t, prime, precision) for t in obj["terms"]])
        if kind == "product":
            return ops.Product([_obj_to_node(f, prime, precision) for f in obj["factors"]])
        if kind == "scalar":
            return ops.ScalarMul(scalar_from_text(obj["scalar"], prime, precision), _obj_to_node(obj["operand"], prime, precision))
        if kind == "adjoint":
            return ops.Adjoint(_obj_to_node(obj["operand"], prime, precision))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed {kind!r} node: {exc}") from exc
    raise ParseError(f"unknown operator kind {kind!r}")


def file_header(obj: Any) -> tuple[int, int, int | None]:
    """The p, precision and optional tail_exponent fields of an input file."""
    if not isinstance(obj, dict):
        raise ParseError("input file must hold a JSON object")
    prime, precision, tail = obj.get("p"), obj.get("precision"), obj.get("tail_exponent")
    require_int("header p", prime)
    require_int("header precision", precision)
    if tail is not None:
        require_int("header tail_exponent", tail)
    if precision <= 0:
        raise ParseError("precision must be positive")
    require_prime(prime)
    return prime, precision, tail


def operator_from_obj(obj: dict[str, Any]):
    prime, precision, _ = file_header(obj)
    return _obj_to_node(obj, prime, precision)


def operator_from_json(text: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return operator_from_obj(obj)


# -- Mahler expansions -------------------------------------------------


def mahler_to_obj(fn, prime: int, fallback: int = DEFAULT_PRECISION) -> dict[str, Any]:
    """The file form of fn, with the precision fn carries in its header,
    read off the coefficients as they are written, or fallback when fn
    holds no nonzero scalar."""
    tops: list[int] = []
    coefficients = [_text(c, tops) for c in fn.coefficients]
    return {
        "p": prime,
        "precision": max(tops, default=0) or fallback,
        "kind": "mahler",
        "coefficients": coefficients,
        "tail_exponent": fn.tail_bound.exponent,
    }


def mahler_from_obj(obj: dict[str, Any]):
    from .mahler import MahlerFunction
    from .scalars import ValuationBound

    prime, precision, tail = file_header(obj)
    try:
        coeffs = tuple(scalar_from_text(t, prime, precision) for t in obj["coefficients"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed mahler object: {exc}") from exc
    return MahlerFunction(prime, coeffs, ValuationBound(tail))


# -- tables ------------------------------------------------------------


def tsv_table(header: list[str], rows: list[list[Any]]) -> str:
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


def exponent_str(bound) -> str:
    """Norm exponent for tables: integer, or 'inf' for the zero norm."""
    return "inf" if bound.exponent is None else str(bound.exponent)

"""Independent checks of every benchmark answer.

Answers are read straight from Padic fields (valuation, unit, precision)
or parsed from the CLI's printed text, then checked with plain int
arithmetic modulo p^target against what the seeded construction says
must hold.  Nothing here calls padicops.

Operators are compared in window form: an n x n integer block plus a
scalar ``shift`` acting as shift * I on every index past the window.
All operators the workloads produce have this shape, and products of
window forms are again window forms.

Each ``check_*`` returns the answer's certified margin (smallest
absolute precision minus target over its p-adic entries, None when it
has none) and raises ``Mismatch`` on a wrong answer, or
``intmath.Unverifiable`` when an entry lacks the digits a check needs.
"""

from __future__ import annotations

import json

from intmath import legendre, margin, parse_text, residue, vp

EXACT_ZERO = (None, None, None)


class Mismatch(AssertionError):
    """The answer disagrees with the oracle."""


# -- reading answers -----------------------------------------------------


def _fields(x) -> tuple:
    return (x.valuation, x.unit, x.precision)


def library_terms(op) -> list[tuple[dict, tuple]]:
    """Window terms of a padicops operator, read from its dataclass fields."""
    kind = type(op).__name__
    if kind == "FiniteMatrix":
        return [({k: _fields(v) for k, v in op.entries.items()}, EXACT_ZERO)]
    if kind == "Diagonal":
        return [({(i, i): _fields(v) for i, v in op.entries.items()}, _fields(op.default))]
    if kind == "Sum":
        return [t for term in op.terms for t in library_terms(term)]
    raise Mismatch(f"unexpected operator node {kind}")


def json_terms(obj: dict, p: int, precision: int) -> list[tuple[dict, tuple]]:
    """Window terms of a printed operator object."""
    kind = obj["kind"]
    if kind == "finite":
        return [({(i, j): parse_text(t, p, precision) for i, j, t in obj["entries"]}, EXACT_ZERO)]
    if kind == "diagonal":
        return [({(i, i): parse_text(t, p, precision) for i, t in obj["entries"]},
                 parse_text(obj["default"], p, precision))]
    if kind == "identity":
        return [({}, (0, 1, precision))]
    if kind == "sum":
        return [t for term in obj["terms"] for t in json_terms(term, p, precision)]
    raise Mismatch(f"unexpected operator node {kind!r}")


def _min_margin(values) -> int | None:
    found = [m for m in values if m is not None]
    return min(found) if found else None


def terms_margin(terms, target: int) -> int | None:
    return _min_margin(margin(x, target) for entries, shift in terms
                       for x in list(entries.values()) + [shift])


def window(terms, n: int, p: int, depth: int, scale: int = 0) -> tuple[list[list[int]], int]:
    """p^scale times the operator, modulo p^depth, on an n x n window."""
    mod = p ** depth
    rows = [[0] * n for _ in range(n)]
    shift_total = 0
    for entries, shift in terms:
        s = residue(shift, p, depth, scale)
        shift_total += s
        for i in range(n):
            if (i, i) not in entries:
                rows[i][i] += s
        for (i, j), x in entries.items():
            if i >= n or j >= n:
                raise Mismatch(f"entry ({i}, {j}) outside the {n}x{n} window")
            rows[i][j] += residue(x, p, depth, scale)
    return [[x % mod for x in row] for row in rows], shift_total % mod


# -- window-form algebra ---------------------------------------------------


def w_int(rows: list[list[int]], shift: int = 0) -> tuple[list[list[int]], int]:
    return [list(r) for r in rows], shift


def w_mul(a, b, mod: int | None = None):
    (ra, sa), (rb, sb) = a, b
    cols = list(zip(*rb))
    rows = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in ra]
    if mod is None:
        return rows, sa * sb
    return [[x % mod for x in r] for r in rows], sa * sb % mod


def w_lin(a, b, ca: int = 1, cb: int = 1):
    (ra, sa), (rb, sb) = a, b
    return ([[ca * x + cb * y for x, y in zip(r, q)] for r, q in zip(ra, rb)], ca * sa + cb * sb)


def w_scalar(n: int, c: int):
    """c times the identity."""
    return [[c if i == j else 0 for j in range(n)] for i in range(n)], c


def _expect_equal(a, b, mod: int, what: str) -> None:
    (ra, sa), (rb, sb) = a, b
    if (sa - sb) % mod:
        raise Mismatch(f"{what}: differs past the window")
    for i, (r, q) in enumerate(zip(ra, rb)):
        for j, (x, y) in enumerate(zip(r, q)):
            if (x - y) % mod:
                raise Mismatch(f"{what}: entry ({i}, {j}) differs")


def _expect_rank(w, rank: int, mod: int, what: str) -> None:
    rows, shift = w
    if shift % mod:
        raise Mismatch(f"{what}: has an identity component")
    if (sum(rows[i][i] for i in range(len(rows))) - rank) % mod:
        raise Mismatch(f"{what}: trace is not the rank {rank}")


# -- library answers ------------------------------------------------------


def check_idempotent(op, n: int, p: int, target: int, rank: int,
                     near: list[list[int]] | None = None) -> int | None:
    """e^2 = e and trace(e) = rank mod p^target; e = near mod p if given."""
    terms = library_terms(op)
    mod = p ** target
    e = window(terms, n, p, target)
    _expect_equal(w_mul(e, e, mod), e, mod, "e^2 = e")
    _expect_rank(e, rank, mod, "idempotent")
    if near is not None:
        _expect_equal(e, w_int(near), p, "e = a mod p")
    return terms_margin(terms, target)


def check_equivalence(witness, e_rows: list[list[int]], f_op, n: int, p: int,
                      target: int) -> int | None:
    """u u^-1 = 1 and u e u^-1 = f mod p^target."""
    mod = p ** target
    u_terms, v_terms = library_terms(witness.u), library_terms(witness.u_inv)
    u, v = window(u_terms, n, p, target), window(v_terms, n, p, target)
    f = window(library_terms(f_op), n, p, target)
    _expect_equal(w_mul(u, v, mod), w_scalar(n, 1), mod, "u u^-1 = 1")
    _expect_equal(w_mul(w_mul(u, w_int(e_rows), mod), v, mod), f, mod, "u e u^-1 = f")
    return _min_margin([terms_margin(u_terms, target), terms_margin(v_terms, target)])


def check_scale(value, expected: int) -> None:
    if value.exponent != expected:
        raise Mismatch(f"scale exponent {value.exponent}, construction says {expected}")


# -- printed answers --------------------------------------------------------


def forward_differences(samples: list[int]) -> list[int]:
    out, row = [], list(samples)
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


def check_mahler_expand(stdout: str, samples: list[int], p: int, target: int) -> int | None:
    obj = json.loads(stdout)
    prec = obj["precision"]
    got = [parse_text(t, p, prec) for t in obj["coefficients"]]
    want = forward_differences(samples)
    if len(got) > len(want):
        raise Mismatch("more coefficients than samples")
    mod = p ** target
    for k, w in enumerate(want):
        g = residue(got[k], p, target) if k < len(got) else 0
        if (g - w) % mod:
            raise Mismatch(f"coefficient {k} differs from the forward difference")
    return _min_margin(margin(x, target) for x in got)


def check_mahler_eval(stdout: str, value: int, p: int, precision: int, target: int) -> int | None:
    got = parse_text(stdout, p, precision)
    if (residue(got, p, target) - value) % p ** target:
        raise Mismatch("f(x) differs from the polynomial value")
    return margin(got, target)


def check_certify(stdout: str, depth: int, p: int) -> None:
    lines = stdout.strip().split("\n")
    if lines[0].split("\t") != ["n", "norm_exponent"] or len(lines) != depth + 1:
        raise Mismatch("certificate table has the wrong shape")
    for n, line in enumerate(lines[1:], start=1):
        k, exp = line.split("\t")
        if int(k) != n:
            raise Mismatch(f"row {n} is numbered {k}")
        if exp != "inf" and int(exp) < legendre(n, p):
            raise Mismatch(f"row {n}: exponent {exp} below v_p({n}!) = {legendre(n, p)}")


def _printed_operator(obj: dict, n: int, p: int, precision: int, target: int, scale: int = 0):
    terms = json_terms(obj, p, precision)
    return window(terms, n, p, target, scale), terms_margin(terms, target)


def check_apply(stdout: str, a, poly: list[int], p: int, target: int) -> int | None:
    """f(A) against integer Horner evaluation of the sampled polynomial."""
    obj = json.loads(stdout)
    n = len(a[0])
    got, m = _printed_operator(obj["result"], n, p, obj["result"]["precision"], target)
    mod = p ** target
    acc = w_scalar(n, poly[-1])
    for c in reversed(poly[:-1]):
        acc = w_lin(w_mul(acc, a, mod), w_scalar(n, c))
    _expect_equal(got, acc, mod, "f(A)")
    return m


def binomial_windows(b, depth: int, p: int, mod: int) -> list:
    """binom(B, k) for k = 0..depth, exactly, reduced mod p^target.

    The falling product is integral; dividing by k! = p^a * m needs p^a to
    divide every entry, which is what a contraction certificate promises.
    """
    n = len(b[0])
    out, falling, fact = [], w_scalar(n, 1), 1
    for k in range(depth + 1):
        if k:
            falling = w_mul(falling, w_lin(b, w_scalar(n, 1 - k)))
            fact *= k
        a = vp(fact, p)
        rows, shift = falling
        if any(x % p ** a for r in rows for x in r) or shift % p ** a:
            raise Mismatch(f"falling product {k} is not divisible by p^{a}")
        inv = pow(fact // p ** a, -1, mod)
        out.append(([[x // p ** a * inv % mod for x in r] for r in rows],
                    shift // p ** a * inv % mod))
    return out


def check_fz(stdout: str, a, z: int, depth: int, p: int, target: int) -> int | None:
    """sum_{k <= depth} z^k binom(A - 1, k), by exact integer arithmetic."""
    obj = json.loads(stdout)
    n = len(a[0])
    got, m = _printed_operator(obj["result"], n, p, obj["result"]["precision"], target)
    mod = p ** target
    b = w_lin(a, w_scalar(n, -1))
    acc = w_scalar(n, 0)
    for k, term in enumerate(binomial_windows(b, depth, p, mod)):
        acc = w_lin(acc, term, 1, pow(z, k, mod))
    _expect_equal(got, acc, mod, "f_z(A)")
    return m


def check_teich(stdout: str, valuations: list[int], p: int, target: int) -> int | None:
    """Per coordinate the limit is 1 where v >= 1 and 0 where v = 0; the
    default coordinate (an exact 0) goes to 1."""
    obj = json.loads(stdout)
    n = len(valuations)
    got, m = _printed_operator(obj["e"], n, p, obj["e"]["precision"], target)
    want = ([[int(i == j and valuations[i] >= 1) for j in range(n)] for i in range(n)], 1)
    _expect_equal(got, want, p ** target, "Teichmuller limit")
    if obj["iterations"] < 1:
        raise Mismatch("no iterations reported")
    return m


def _denominator_exponent(terms, e_rows, p: int) -> int:
    vals = [x[0] for entries, shift in terms for x in list(entries.values()) + [shift]
            if x[0] is not None]
    vals += [vp(q.numerator, p) - vp(q.denominator, p) for r in e_rows for q in r if q]
    return max([0] + [-v for v in vals])


def check_split(stdout: str, e_rows, p: int, target: int) -> int | None:
    """f + g = e, f and g idempotent, fg = gf = 0, and g integral.

    Entries of f may have denominators p^s, so every matrix is scaled by
    p^s; an identity X^2 = X then reads (p^s X)^2 = p^s (p^s X)."""
    obj = json.loads(stdout)
    n = len(e_rows)
    f_terms = json_terms(obj["f"], p, obj["f"]["precision"])
    g_terms = json_terms(obj["g"], p, obj["g"]["precision"])
    if any(x[0] is not None and x[0] < 0 for entries, shift in g_terms
           for x in list(entries.values()) + [shift]):
        raise Mismatch("contractive part has a non-integral entry")
    s = _denominator_exponent(f_terms + g_terms, e_rows, p)
    mod, wide = p ** (target + s), p ** (target + 2 * s)
    f = window(f_terms, n, p, target + 2 * s, s)
    g = window(g_terms, n, p, target + 2 * s, s)
    e = w_int([[int(q * p ** s) for q in r] for r in e_rows])
    _expect_equal(w_lin(f, g), e, mod, "f + g = e")
    for name, x in (("f", f), ("g", g)):
        _expect_equal(w_mul(x, x, wide), w_lin(x, x, p ** s, 0), wide, f"{name}^2 = {name}")
    zero = w_scalar(n, 0)
    _expect_equal(w_mul(f, g, wide), zero, wide, "fg = 0")
    _expect_equal(w_mul(g, f, wide), zero, wide, "gf = 0")
    return _min_margin([terms_margin(f_terms, target), terms_margin(g_terms, target)])


def check_trivialize(stdout: str, rank: int) -> None:
    obj = json.loads(stdout)
    if obj.get("zero_input") or obj["classes"] != {"finite_rank": rank, "contractive": 0}:
        raise Mismatch(f"classes {obj.get('classes')}, construction says rank {rank}")
    part = obj["contractive_part"]
    if not (all(part["sum_ring_relations_on_prefix"].values()) and part["repeat_equation_on_prefix"]):
        raise Mismatch("sum-ring relations or repeat equation reported false")


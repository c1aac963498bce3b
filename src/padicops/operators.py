"""Bounded operators on Q_p(X) for X = N, as immutable expression trees.

Leaves are FiniteMatrix, Diagonal, Identity and IndexMap; Sum, Product,
ScalarMul and Adjoint combine them.  Exact questions (norms, entries,
compactness) are answered through an internal normal form

    shift * I  +  structured tail  +  finite sparse head

which is closed under every combination the pipelines construct.  The
structured tail is an injective index map backed by callables and is
only trusted through its explicit certificates (inverse map, infinite
domain flag); nothing is ever decided by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from .errors import NonIntegral, StructureError, Undecidable
from .scalars import (DEFAULT_PRECISION, Padic, ValuationBound, norm_max,
                      precision_of)
from .vectors import PadicVector

Dest = Callable[[int], "int | None"]


# -- normal form -------------------------------------------------------


@dataclass
class _Tail:
    """Columns j -> coeff(j) * delta_{dest(j)} with finitely many
    coefficient overrides.  dest must be injective where defined."""

    dest: Dest
    inv: Dest | None
    coeff: dict[int, Padic]
    default: Padic
    infinite_domain: bool

    def coeff_at(self, j: int) -> Padic:
        return self.coeff.get(j, self.default)

    def map(self, f: Callable[[Padic], Padic]) -> "_Tail":
        """The same index map with f applied to every coefficient."""
        return _Tail(self.dest, self.inv, {j: f(v) for j, v in self.coeff.items()},
                     f(self.default), self.infinite_domain)

    def preimage(self, i: int) -> int | None:
        if self.inv is None:
            raise StructureError("structured tail has no inverse certificate")
        j = self.inv(i)
        if j is not None and self.dest(j) != i:
            raise StructureError("inverse certificate disagrees with dest")
        return j


def _compose_tails(a: _Tail, b: _Tail) -> _Tail:
    """Tail of the product a.b (apply b first)."""

    def dest(j: int) -> int | None:
        d = b.dest(j)
        return None if d is None else a.dest(d)

    inv = None
    if a.inv is not None and b.inv is not None:
        a_inv, b_inv = a.inv, b.inv

        def inv(i: int) -> int | None:
            k = a_inv(i)
            return None if k is None else b_inv(k)

    keys = set(b.coeff)
    if a.coeff:
        if b.inv is None:
            raise StructureError("composition needs an inverse to pull back overrides")
        for k in a.coeff:
            j = b.inv(k)
            if j is not None and b.dest(j) == k:
                keys.add(j)
    overrides = {}
    for j in keys:
        d = b.dest(j)
        if d is None or a.dest(d) is None:
            continue
        overrides[j] = b.coeff_at(j) * a.coeff_at(d)
    return _Tail(dest, inv, overrides, a.default * b.default, False)


def _nonzero(entries) -> dict:
    """The (key, value) pairs whose value is not zero, as a dict.  The
    one place where an entry that vanished, certified or exactly, is not
    stored (hole A, ROADMAP item 2)."""
    return {key: v for key, v in entries if not v.is_zero}


def _split(k: int, p: int) -> tuple[int, int]:
    """(j, u) with k = p^j * u and u prime to p, for an int k != 0."""
    j = 0
    while k % p == 0:
        k //= p
        j += 1
    return j, k


def _dot(pairs: list[tuple[Padic | int, Padic]], c: int = 1) -> Padic:
    """c times the sum of the product terms, plus the linear terms,
    rounded once.

    A pair (v, w) of scalars is the product term v * w, and c scales it.
    A pair (k, x) whose k is an int is the linear term k * x, which c
    does not scale.  The ints c and k are exact coefficients: p^j * u
    multiplies a term's unit by u and adds j to its valuation and to its
    absolute precision, so it costs no digit.

    The sum's absolute precision is the least over the terms of that of
    the term: min(a1 + v2, a2 + v1) for v * w and a + j for k * x, with a
    an absolute precision and v a valuation.  Its digits are those of
    the exact integer sum of the terms' units.  No partial sum is
    rounded or dropped on its own, so a cancellation between terms
    cannot hide a term's bound.  Only the powers p^(val - base) of terms
    inside the window are formed, so huge valuations cost nothing.
    """
    p = pairs[0][1].prime
    if len(pairs) == 1 and c == 1:
        v, w = pairs[0]
        if v.__class__ is not int:
            return v * w
        if v == 1:
            return w
    jc, uc = _split(c, p)
    bound = base = None
    products = []
    for v, w in pairs:
        if v.__class__ is int:
            j, u = _split(v, p)
            if w.valuation is None:
                # an exact zero adds nothing, a certified one its bound
                val, top = None, None if w.precision is None else w.precision + j
            else:
                val = w.valuation + j
                top, unit = val + w.precision, w.unit * u
        elif v.valuation is None or w.valuation is None:
            zero = v * w
            val, top = None, None if zero.precision is None else zero.precision + jc
        else:
            val = v.valuation + w.valuation + jc
            top, unit = val + min(v.precision, w.precision), v.unit * w.unit * uc
        if top is not None and (bound is None or top < bound):
            bound = top
        if val is not None:
            if base is None or val < base:
                base = val
            products.append((val, unit))
    if base is None or bound <= base:
        return Padic.zero(p, bound)
    window = bound - base
    total = 0
    for val, unit in products:
        if val - base < window:
            total += unit * p ** (val - base)
    return Padic.from_unit(p, base, total, window)


def _assemble(prime: int, terms: dict, shifts: list, tail: "_Tail | None", c: int,
              addend) -> "NormalForm":
    """The form with, at each head position, c times the product terms
    gathered in terms plus k times the entry of F, and as shift the
    linear terms in shifts plus k times the shift of F, for each pair
    (k, F) of the addend; each is summed once by _dot.  k is an exact
    int or a Padic, and only an exact zero drops its term.  Of tail and
    the tails of the Fs, at most one may be present."""
    for k, form in addend:
        if isinstance(k, Padic):
            if k.is_exact_zero:
                continue
            # k * x has the digits and bound of the product term (k, x), so
            # it joins as the linear term 1 * (k * x), which c does not scale
            form, k = NormalForm(prime, k * form.shift, form.tail and form.tail.map(k.__mul__),
                                 {key: k * x for key, x in form.head.items()}), 1
        elif k == 0:
            continue
        if form.tail is not None:
            if tail is not None:
                raise StructureError("sum of two structured tails has no normal form")
            tail = form.tail if k == 1 else form.tail.map(lambda v: _dot([(k, v)]))
        if not form.shift.is_exact_zero:
            shifts.append((k, form.shift))
        for key, x in form.head.items():
            terms.setdefault(key, []).append((k, x))
    head = _nonzero((key, _dot(pairs, c)) for key, pairs in terms.items())
    shift = _dot(shifts) if shifts else Padic.zero(prime)
    return NormalForm(prime, shift, tail, head)


@dataclass
class NormalForm:
    prime: int
    shift: Padic
    tail: _Tail | None
    head: dict[tuple[int, int], Padic]

    @classmethod
    def constant(cls, prime: int, value: Padic) -> "NormalForm":
        """The form of value * I."""
        return cls(prime, value, None, {})

    # entries ----------------------------------------------------------

    def entry(self, i: int, j: int) -> Padic:
        total = self.head.get((i, j), Padic.zero(self.prime))
        if i == j and not self.shift.is_zero:
            total = total + self.shift
        if self.tail is not None and self.tail.dest(j) == i:
            total = total + self.tail.coeff_at(j)
        return total

    def positions(self) -> Iterator[tuple[int, int]]:
        """The positions (i, j) where an entry can differ from the shift
        and the tail default: the head keys, then each tail override
        (dest(j), j) outside the head.  Lazy, so a caller that stops early
        computes no further position."""
        yield from self.head
        if self.tail is not None:
            for j in self.tail.coeff:
                d = self.tail.dest(j)
                if d is not None and (d, j) not in self.head:
                    yield d, j

    def column(self, j: int) -> PadicVector:
        return self.apply(PadicVector.basis(self.prime, j, precision_of(self)))

    def apply(self, vec: PadicVector) -> PadicVector:
        """The form times vec.  As in mul, the terms of each output entry
        are gathered, in the order they are first reached, and summed
        once by _dot, so a partial sum that cancels keeps its bound."""
        cols: dict[int, list[tuple[int, Padic]]] = {}
        for (i, j), v in self.head.items():
            cols.setdefault(j, []).append((i, v))
        terms: dict[int, list[tuple[Padic, Padic]]] = {}
        for j, x in vec.entries.items():
            for i, v in cols.get(j, ()):
                terms.setdefault(i, []).append((v, x))
            if not self.shift.is_zero:
                terms.setdefault(j, []).append((self.shift, x))
            if self.tail is not None:
                d = self.tail.dest(j)
                if d is not None:
                    terms.setdefault(d, []).append((self.tail.coeff_at(j), x))
        return PadicVector(self.prime, {i: _dot(pairs) for i, pairs in terms.items()})

    # algebra ----------------------------------------------------------

    @staticmethod
    def combine(terms: list[tuple["int | Padic", "NormalForm"]]) -> "NormalForm":
        """The sum of k * F over the pairs (k, F), k an exact int or a
        Padic.  Each head position and the shift are summed once by
        _dot, so a sum of three forms is rounded once, not twice.  Only
        an exact zero k drops its term; a certified zero keeps its bound.
        At most one F may carry a structured tail."""
        return _assemble(terms[0][1].prime, {}, [], None, 1, terms)

    def add(self, other: "NormalForm") -> "NormalForm":
        return NormalForm.combine([(1, self), (1, other)])

    def sub(self, other: "NormalForm") -> "NormalForm":
        return NormalForm.combine([(1, self), (-1, other)])

    def scale(self, c: Padic) -> "NormalForm":
        return NormalForm.combine([(c, self)])

    def mul(self, other: "NormalForm", c: int = 1,
            addend: list[tuple[int, "NormalForm"]] = ()) -> "NormalForm":
        """c * self * other + the sum of k * F over the addend's pairs
        (k, F), for an exact int c != 0 and k as in combine: the contract
        C <- alpha A B + beta C of level-3 BLAS.  The terms of each output
        position, the addend's among them, are gathered in the order they
        are first reached and summed once by _dot."""
        a, b = self, other
        tail: _Tail | None = None
        if a.tail is not None and b.tail is not None:
            if not (a.shift.is_zero and b.shift.is_zero):
                raise StructureError("product of two shifted tailed forms has no normal form")
            tail = _compose_tails(a.tail, b.tail)
        elif b.tail is not None and not a.shift.is_zero:
            tail = b.tail.map(lambda v: v * a.shift)
        elif a.tail is not None and not b.shift.is_zero:
            tail = a.tail.map(lambda v: v * b.shift)
        if tail is not None and c != 1:
            tail = tail.map(lambda v: _dot([(c, v)]))
        terms: dict[tuple[int, int], list[tuple[Padic, Padic]]] = {}
        acols: dict[int, list[tuple[int, Padic]]] = {}
        for (i, k), v in a.head.items():
            acols.setdefault(k, []).append((i, v))
        for (k, j), w in b.head.items():
            for i, v in acols.get(k, ()):
                terms.setdefault((i, j), []).append((v, w))
        if not a.shift.is_zero:
            for key, w in b.head.items():
                terms.setdefault(key, []).append((a.shift, w))
        if not b.shift.is_zero:
            for key, v in a.head.items():
                terms.setdefault(key, []).append((v, b.shift))
        if a.tail is not None and b.head:
            for (k, j), w in b.head.items():
                d = a.tail.dest(k)
                if d is not None:
                    terms.setdefault((d, j), []).append((a.tail.coeff_at(k), w))
        if b.tail is not None and a.head:
            relevant: set[int] = set(b.tail.coeff)
            for k in acols:
                j = b.tail.preimage(k)
                if j is not None:
                    relevant.add(j)
            for j in relevant:
                d = b.tail.dest(j)
                if d is None:
                    continue
                w = b.tail.coeff_at(j)
                for i, v in acols.get(d, ()):
                    terms.setdefault((i, j), []).append((v, w))
        shift = a.shift * b.shift
        shifts = [] if shift.is_exact_zero else [(c, shift)]
        return _assemble(a.prime, terms, shifts, tail, c, addend)

    def adjoint(self) -> "NormalForm":
        head = {(j, i): v for (i, j), v in self.head.items()}
        tail = None
        if self.tail is not None:
            if self.tail.inv is None:
                raise StructureError("adjoint of a structured tail needs an inverse certificate")
            overrides = {}
            for j, c in self.tail.coeff.items():
                d = self.tail.dest(j)
                if d is not None:
                    overrides[d] = c
            tail = _Tail(self.tail.inv, self.tail.dest, overrides,
                         self.tail.default, self.tail.infinite_domain)
        return NormalForm(self.prime, self.shift, tail, head)

    def divide_entries(self, c: Padic) -> "NormalForm":
        # v * (1/c) has the digits and the bound of v / c
        return self.scale(Padic.one(self.prime, c.precision) / c)

    # exact queries ------------------------------------------------------

    def norm(self) -> ValuationBound:
        realized: list[ValuationBound] = []
        for i, j in self.positions():
            total = self.entry(i, j)
            if not total.is_zero:
                realized.append(total.norm)
        s = self.shift.norm
        if self.tail is None or self.tail.default.is_zero:
            # beyond finitely many positions the matrix is shift * I
            if not self.shift.is_zero:
                realized.append(s)
            return norm_max(realized)
        d = self.tail.default.norm
        out = norm_max(realized)
        if not self.tail.infinite_domain:
            unknown = max(s, d)
            if out >= unknown:
                return out
            raise Undecidable("tail default norm matters but the domain size is uncertified")
        if self.shift.is_zero:
            realized.append(d)
            return norm_max(realized)
        if s != d:
            realized.append(max(s, d))
            return norm_max(realized)
        if out >= s:
            return out
        raise Undecidable("shift and tail default have equal norms; diagonal overlap unknown")

    def is_compact(self) -> bool:
        if not self.shift.is_zero:
            return False
        if self.tail is None or self.tail.default.is_zero:
            return True
        if self.tail.infinite_domain:
            return False
        raise Undecidable("tail has a nonzero default but no domain-size certificate")

    def vanishes_to(self, depth: int) -> bool:
        if not self.shift.vanishes_to(depth):
            return False
        if self.tail is not None:
            if not self.tail.default.vanishes_to(depth):
                return False
            if any(not c.vanishes_to(depth) for c in self.tail.coeff.values()):
                return False
        return all(self.entry(i, j).vanishes_to(depth) for i, j in self.positions())

    def to_operator(self) -> "Operator":
        if self.tail is not None:
            raise StructureError("callable-backed tails have no closed public form")
        if self.shift.is_zero:
            return FiniteMatrix(self.prime, dict(self.head))
        if all(i == j for i, j in self.head):
            entries = {i: self.entry(i, i) for (i, _) in self.head}
            return Diagonal(self.prime, entries, self.shift)
        return Sum([FiniteMatrix(self.prime, dict(self.head)),
                    Diagonal(self.prime, {}, self.shift)])


# -- public expression classes -----------------------------------------


class Operator:
    prime: int

    def __add__(self, other: "Operator") -> "Operator":
        return Sum([self, other])

    def __sub__(self, other: "Operator") -> "Operator":
        return Sum([self, -other])

    def __mul__(self, other: "Operator") -> "Operator":
        return Product([self, other])

    def __neg__(self) -> "Operator":
        return ScalarMul(Padic.from_int(-1, self.prime, precision_of(self)), self)


@dataclass
class FiniteMatrix(Operator):
    prime: int
    entries: dict[tuple[int, int], Padic] = field(default_factory=dict)

    def __post_init__(self):
        self.entries = {k: v for k, v in self.entries.items() if not v.is_zero}
        for v in self.entries.values():
            if v.prime != self.prime:
                raise ValueError("entry prime mismatch")


@dataclass
class Diagonal(Operator):
    prime: int
    entries: dict[int, Padic] = field(default_factory=dict)
    default: Padic | None = None

    def __post_init__(self):
        if self.default is None:
            self.default = Padic.zero(self.prime)
        if not self.default.is_integral:
            raise NonIntegral("diagonal default must lie in Z_p")


@dataclass
class Identity(Operator):
    prime: int
    precision: int = DEFAULT_PRECISION


@dataclass
class IndexMap(Operator):
    """Columns j -> coeff(j) * delta_{dest(j)}.

    dest may be a finite dict or a callable on all of N returning None
    where undefined; callable-backed maps must be injective and should
    carry an inverse plus an infinite_domain certificate for exact
    norm and compactness answers.
    """

    prime: int
    dest: dict[int, int] | Dest = field(default_factory=dict)
    coeff: dict[int, Padic] = field(default_factory=dict)
    default_coeff: Padic | None = None
    inv: Dest | None = None
    infinite_domain: bool = False

    def __post_init__(self):
        if self.default_coeff is None:
            self.default_coeff = Padic.one(self.prime)
        for v in list(self.coeff.values()) + [self.default_coeff]:
            if not v.is_integral:
                raise NonIntegral("index map coefficients must lie in Z_p")

    def coeff_at(self, j: int) -> Padic:
        return self.coeff.get(j, self.default_coeff)


@dataclass
class Sum(Operator):
    terms: list[Operator]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("empty sum")
        self.prime = self.terms[0].prime
        if any(t.prime != self.prime for t in self.terms):
            raise ValueError("mixed primes in sum")


@dataclass
class Product(Operator):
    factors: list[Operator]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("empty product")
        self.prime = self.factors[0].prime
        if any(f.prime != self.prime for f in self.factors):
            raise ValueError("mixed primes in product")


@dataclass
class ScalarMul(Operator):
    scalar: Padic
    operand: Operator

    def __post_init__(self):
        if not self.scalar.is_integral:
            raise NonIntegral("operator scaling is a Z_p module structure")
        self.prime = self.operand.prime


@dataclass
class Adjoint(Operator):
    operand: Operator

    def __post_init__(self):
        self.prime = self.operand.prime


# -- normalization -----------------------------------------------------


def normalize(op: Operator) -> NormalForm:
    p = op.prime
    if isinstance(op, FiniteMatrix):
        return NormalForm(p, Padic.zero(p), None, dict(op.entries))
    if isinstance(op, Diagonal):
        head = _nonzero(((i, i), v - op.default) for i, v in op.entries.items())
        return NormalForm(p, op.default, None, head)
    if isinstance(op, Identity):
        return NormalForm.constant(p, Padic.one(p, op.precision))
    if isinstance(op, IndexMap):
        if callable(op.dest):
            tail = _Tail(op.dest, op.inv, dict(op.coeff), op.default_coeff, op.infinite_domain)
            return NormalForm(p, Padic.zero(p), tail, {})
        head = _nonzero(((d, j), op.coeff_at(j)) for j, d in op.dest.items())
        return NormalForm(p, Padic.zero(p), None, head)
    if isinstance(op, Sum):
        return NormalForm.combine([(1, normalize(t)) for t in op.terms])
    if isinstance(op, Product):
        out = normalize(op.factors[0])
        for f in op.factors[1:]:
            out = out.mul(normalize(f))
        return out
    if isinstance(op, ScalarMul):
        return normalize(op.operand).scale(op.scalar)
    if isinstance(op, Adjoint):
        return normalize(op.operand).adjoint()
    raise TypeError(f"not an operator: {type(op).__name__}")


# -- public operations -------------------------------------------------


def op_apply(op: Operator, vec: PadicVector) -> PadicVector:
    try:
        return normalize(op).apply(vec)
    except StructureError:
        return _apply_tree(op, vec)


def _apply_tree(op: Operator, vec: PadicVector) -> PadicVector:
    if isinstance(op, Sum):
        out = _apply_tree(op.terms[0], vec)
        for t in op.terms[1:]:
            out = out + _apply_tree(t, vec)
        return out
    if isinstance(op, Product):
        for f in reversed(op.factors):
            vec = _apply_tree(f, vec)
        return vec
    if isinstance(op, ScalarMul):
        return _apply_tree(op.operand, vec).scale(op.scalar)
    return normalize(op).apply(vec)


def op_column(op: Operator, j: int) -> PadicVector:
    return op_apply(op, PadicVector.basis(op.prime, j, precision_of(op)))


def op_norm(op: Operator) -> ValuationBound:
    try:
        return normalize(op).norm()
    except StructureError as exc:
        raise Undecidable(f"expression has no closed structured form: {exc}") from exc


def is_compact(op: Operator) -> bool:
    """Certificate-driven compactness decision."""
    try:
        return normalize(op).is_compact()
    except StructureError:
        pass
    if isinstance(op, Sum):
        flags = [is_compact(t) for t in op.terms]
        if all(flags):
            return True
        if sum(1 for f in flags if not f) == 1:
            # compacts form an ideal, so one non-compact term decides
            return False
        raise Undecidable("sum of several non-compact terms lacks a decay certificate")
    if isinstance(op, Product):
        if any(is_compact(f) for f in op.factors):
            return True
        raise Undecidable("product of non-compact factors lacks a decay certificate")
    if isinstance(op, ScalarMul):
        return op.scalar.is_zero or is_compact(op.operand)
    if isinstance(op, Adjoint):
        return is_compact(op.operand)
    raise Undecidable("representation lacks a decay certificate")


def truncate(op: Operator, size: int) -> FiniteMatrix:
    """Upper-left size x size minor as a FiniteMatrix."""
    out: dict[tuple[int, int], Padic] = {}
    for j in range(size):
        col = op_column(op, j)
        for i, v in col.entries.items():
            if i < size:
                out[(i, j)] = v
    return FiniteMatrix(op.prime, out)


def op_agree(a: Operator, b: Operator, depth: int) -> bool:
    """True when every entry of a - b is certified zero mod p^depth."""
    try:
        diff = normalize(a).sub(normalize(b))
    except StructureError as exc:
        raise Undecidable(f"difference has no closed structured form: {exc}") from exc
    return diff.vanishes_to(depth)


def nf_polynomial(nf: NormalForm, coeffs) -> NormalForm:
    """Horner evaluation of a polynomial (constant term first) at the form."""
    acc = NormalForm.constant(nf.prime, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc.mul(nf, addend=[(1, NormalForm.constant(nf.prime, c))])
    return acc


# -- benchmark constructor ----------------------------------------------


def weighted_shift_matrix(prime: int, size: int, precision: int = DEFAULT_PRECISION) -> FiniteMatrix:
    """Truncation of the operator sending delta_n to n delta_n + (n+1) delta_{n+1}.

    Entries live on i in {j, j+1}, so products of truncations agree with
    truncations of products on the full window.
    """
    entries: dict[tuple[int, int], Padic] = {}
    for n in range(size):
        if n > 0:
            entries[(n, n)] = Padic.from_int(n, prime, precision)
        if n + 1 < size:
            entries[(n + 1, n)] = Padic.from_int(n + 1, prime, precision)
    return FiniteMatrix(prime, entries)

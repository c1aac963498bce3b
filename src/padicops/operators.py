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
from functools import partial
from operator import itemgetter
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


# A term of a sum is an int triple (val, unit, top): the scalar p^val * unit,
# known to the absolute precision top.  A term with a zero factor has no
# digits and enters a sum as its bound alone: an int, or None when the zero
# is exact and the term adds nothing.

_VAL, _TOP = itemgetter(0), itemgetter(2)


def _product_term(v: Padic, w: Padic, jc: int = 0, uc: int = 1):
    """The term p^jc * uc * v * w: the exact coefficient p^jc * uc adds
    jc to the valuation and to the absolute precision, so it costs no
    digit.  The absolute precision of v * w is min(a1 + v2, a2 + v1), with
    a an absolute precision and v a valuation."""
    if v.valuation is None or w.valuation is None:
        zero = v * w
        return None if zero.precision is None else zero.precision + jc
    val = v.valuation + w.valuation + jc
    return val, v.unit * w.unit * uc, val + min(v.precision, w.precision)


def _linear_term(k: int, x: Padic):
    """The term k * x for an exact int k != 0."""
    j, u = _split(k, x.prime)
    if x.valuation is None:
        return None if x.precision is None else x.precision + j
    val = x.valuation + j
    return val, x.unit * u, val + x.precision


def _put(terms: dict, bounds: dict, key, term) -> None:
    """File a term under its position key: a triple in terms, a bound in
    bounds, where only the least bound of a position counts."""
    if term.__class__ is tuple:
        lst = terms.get(key)
        if lst is None:
            terms[key] = [term]
        else:
            lst.append(term)
    elif term is not None:
        old = bounds.get(key)
        if old is None or term < old:
            bounds[key] = term


def _round(p: int, terms: list[tuple[int, int, int]], bound: int | None = None) -> Padic:
    """The sum of the terms, rounded once; bound is the least bound of
    the position's terms with a zero factor, if any.

    The sum's absolute precision is the least bound over all its terms.
    Its digits are those of the exact int sum of the terms, reduced mod p
    to that depth.  No partial sum is rounded or dropped on its own, so a
    cancellation between terms cannot hide a term's bound.  Only the
    powers p^(val - base) of terms inside the window are formed, so huge
    valuations cost nothing.  With no term and no bound the sum is an
    exact zero.
    """
    if not terms:
        return Padic.zero(p, bound)
    top = min(map(_TOP, terms))
    if bound is None or top < bound:
        bound = top
    base = min(map(_VAL, terms))
    if bound <= base:
        return Padic.zero(p, bound)
    window = bound - base
    total = 0
    for val, unit, _ in terms:
        d = val - base
        if d == 0:
            total += unit
        elif d < window:
            total += unit * p ** d
    return Padic.from_unit(p, base, total, window)


def _sums(p: int, terms: dict, bounds: dict):
    """(key, sum) for each position key that holds a term or a bound."""
    for key, lst in terms.items():
        yield key, _round(p, lst, bounds.get(key))
    for key, bound in bounds.items():
        if key not in terms:
            yield key, Padic.zero(p, bound)


def _times(k: int, x: Padic) -> Padic:
    """k * x for an exact int k != 0."""
    term = _linear_term(k, x)
    if term.__class__ is tuple:
        return _round(x.prime, [term])
    return Padic.zero(x.prime, term)


def _assemble(prime: int, terms: dict, bounds: dict, tail: "_Tail | None",
              addend) -> "NormalForm":
    """The form with, at each head position, the terms gathered in terms
    and bounds plus k times the entry of F, and as shift (key None) the
    terms there plus k times the shift of F, for each pair (k, F) of the
    addend; each position is summed once by _round.  k is an exact int
    or a Padic, and only an exact zero drops its term.  Of tail and the
    tails of the Fs, at most one may be present."""
    for k, form in addend:
        scalar = isinstance(k, Padic)
        if k.is_exact_zero if scalar else k == 0:
            continue
        if form.tail is not None:
            if tail is not None:
                raise StructureError("sum of two structured tails has no normal form")
            tail = (form.tail.map(k.__mul__) if scalar else form.tail if k == 1
                    else form.tail.map(partial(_times, k)))
        if scalar:
            # k * x joins as the product term (k, x)
            if not form.shift.is_exact_zero:
                _put(terms, bounds, None, _product_term(k, form.shift))
            for key, x in form.head.items():
                _put(terms, bounds, key, _product_term(k, x))
            continue
        if not form.shift.is_exact_zero:
            _put(terms, bounds, None, _linear_term(k, form.shift))
        jk, uk = _split(k, prime)
        for key, x in form.head.items():
            val = x.valuation
            if val is None:
                _put(terms, bounds, key, _linear_term(k, x))
                continue
            val += jk
            term = val, x.unit * uk, val + x.precision
            lst = terms.get(key)
            if lst is None:
                terms[key] = [term]
            else:
                lst.append(term)
    shift = _round(prime, terms.pop(None, []), bounds.pop(None, None))
    return NormalForm(prime, shift, tail, _nonzero(_sums(prime, terms, bounds)))


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
        total = self.head.get((i, j))
        if total is None:
            total = Padic.zero(self.prime)
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

    def values(self) -> Iterator[Padic]:
        """The entry at each of positions(), in that order.  Where no
        shift or tail meets a position, that is the head value itself."""
        if self.tail is not None:
            for i, j in self.positions():
                yield self.entry(i, j)
        elif self.shift.is_zero:
            yield from self.head.values()
        else:
            for (i, j), v in self.head.items():
                yield v + self.shift if i == j else v

    def column(self, j: int) -> PadicVector:
        return self.apply(PadicVector.basis(self.prime, j, precision_of(self)))

    def apply(self, vec: PadicVector) -> PadicVector:
        """The form times vec.  As in mul, the terms of each output entry
        are gathered, in the order they are first reached, and summed
        once by _round, so a partial sum that cancels keeps its bound."""
        cols: dict[int, list[tuple[int, Padic]]] = {}
        for (i, j), v in self.head.items():
            cols.setdefault(j, []).append((i, v))
        terms: dict[int, list] = {}
        bounds: dict[int, int] = {}
        for j, x in vec.entries.items():
            for i, v in cols.get(j, ()):
                _put(terms, bounds, i, _product_term(v, x))
            if not self.shift.is_zero:
                _put(terms, bounds, j, _product_term(self.shift, x))
            if self.tail is not None:
                d = self.tail.dest(j)
                if d is not None:
                    _put(terms, bounds, d, _product_term(self.tail.coeff_at(j), x))
        return PadicVector(self.prime, dict(_sums(self.prime, terms, bounds)))

    # algebra ----------------------------------------------------------

    @staticmethod
    def combine(terms: list[tuple["int | Padic", "NormalForm"]]) -> "NormalForm":
        """The sum of k * F over the pairs (k, F), k an exact int or a
        Padic.  Each head position and the shift are summed once by
        _round, so a sum of three forms is rounded once, not twice.  Only
        an exact zero k drops its term; a certified zero keeps its bound.
        At most one F may carry a structured tail."""
        return _assemble(terms[0][1].prime, {}, {}, None, terms)

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
        position, the addend's among them, are gathered as int triples in
        the order they are first reached and summed once by _round.  Each
        head entry's valuation, unit and precision are read once, and c
        is folded into the triples of self."""
        a, b = self, other
        p = a.prime
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
            tail = tail.map(partial(_times, c))
        jc, uc = _split(c, p)
        terms: dict = {}
        bounds: dict = {}
        zeros = False
        # the head of a by column k, as (i, val, unit, top) scaled by c
        acols: dict[int, list[tuple[int, int, int, int]]] = {}
        for (i, k), v in a.head.items():
            val = v.valuation
            if val is None:
                zeros = True
                continue
            val += jc
            row = i, val, v.unit * uc, val + v.precision
            col = acols.get(k)
            if col is None:
                acols[k] = [row]
            else:
                col.append(row)
        # the head of b by column j, as (k, val, unit, top) where a meets k
        bcols: dict[int, list[tuple[int, int, int, int]]] = {}
        for (k, j), w in b.head.items():
            val = w.valuation
            if val is None:
                zeros = True
            elif k in acols:
                row = k, val, w.unit, val + w.precision
                col = bcols.get(j)
                if col is None:
                    bcols[j] = [row]
                else:
                    col.append(row)
        for j, col in bcols.items():
            cells: dict[int, list[tuple[int, int, int]]] = {}
            for k, vb, ub, tb in col:
                for i, va, ua, ta in acols[k]:
                    top = ta + vb
                    if tb + va < top:
                        top = tb + va
                    term = va + vb, ua * ub, top
                    lst = cells.get(i)
                    if lst is None:
                        cells[i] = [term]
                    else:
                        lst.append(term)
            for i, lst in cells.items():
                terms[i, j] = lst
        if zeros:
            # the head-by-head terms with a zero factor, certified or exact
            for (k, j), w in b.head.items():
                for (i, k2), v in a.head.items():
                    if k2 == k and (v.valuation is None or w.valuation is None):
                        _put(terms, bounds, (i, j), _product_term(v, w, jc, uc))
        if not a.shift.is_zero:
            for key, w in b.head.items():
                _put(terms, bounds, key, _product_term(a.shift, w, jc, uc))
        if not b.shift.is_zero:
            for key, v in a.head.items():
                _put(terms, bounds, key, _product_term(v, b.shift, jc, uc))
        if a.tail is not None and b.head:
            for (k, j), w in b.head.items():
                d = a.tail.dest(k)
                if d is not None:
                    _put(terms, bounds, (d, j), _product_term(a.tail.coeff_at(k), w, jc, uc))
        if b.tail is not None and a.head:
            arows: dict[int, list[tuple[int, Padic]]] = {}
            for (i, k), v in a.head.items():
                arows.setdefault(k, []).append((i, v))
            relevant: set[int] = set(b.tail.coeff)
            for k in arows:
                j = b.tail.preimage(k)
                if j is not None:
                    relevant.add(j)
            for j in relevant:
                d = b.tail.dest(j)
                if d is None:
                    continue
                w = b.tail.coeff_at(j)
                for i, v in arows.get(d, ()):
                    _put(terms, bounds, (i, j), _product_term(v, w, jc, uc))
        shift = a.shift * b.shift
        if not shift.is_exact_zero:
            _put(terms, bounds, None, _linear_term(c, shift))
        return _assemble(p, terms, bounds, tail, addend)

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
        realized = [v.norm for v in self.values() if not v.is_zero]
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
        return all(v.vanishes_to(depth) for v in self.values())

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
    """Upper-left size x size minor as a FiniteMatrix.  The operator is
    normalised once; one without a normal form is applied to each basis
    vector as a tree, as op_apply does."""
    try:
        apply = normalize(op).apply
    except StructureError:
        apply = partial(_apply_tree, op)
    prec = precision_of(op)
    out: dict[tuple[int, int], Padic] = {}
    for j in range(size):
        col = apply(PadicVector.basis(op.prime, j, prec))
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

"""Bounded operators on Q_p(X) for X = N, as immutable expression trees.

Leaves are FiniteMatrix, Diagonal, Identity and IndexMap; Sum, Product,
ScalarMul and Adjoint combine them.  Exact questions (norms, entries,
compactness) are answered through an internal normal form

    shift * I  +  structured tail  +  finite sparse head

which is closed under every combination the pipelines construct.  The
structured tail is an injective index map with one coefficient, backed
by callables, and is only trusted through its explicit certificates
(inverse map, infinite domain flag); nothing is ever decided by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Callable, Iterator

from .errors import NonIntegral, StructureError, Undecidable
from .scalars import (DEFAULT_PRECISION, Padic, ValuationBound, _linear_term,
                      _product_term, _round, norm_max, precision_of)
from .vectors import PadicVector

Dest = Callable[[int], "int | None"]


# -- normal form -------------------------------------------------------


@dataclass
class _Tail:
    """Columns j -> default * delta_{dest(j)}: an index map with one
    coefficient.  dest must be injective where defined.  A coefficient
    that differs at finitely many columns is the form's head entry
    c_j - default at (dest(j), j), as a diagonal's entries are."""

    dest: Dest
    inv: Dest | None
    default: Padic
    infinite_domain: bool

    def map(self, f: Callable[[Padic], Padic]) -> "_Tail":
        """The same index map with f applied to its coefficient."""
        return _Tail(self.dest, self.inv, f(self.default), self.infinite_domain)

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

    return _Tail(dest, inv, a.default * b.default, False)


def _nonzero(entries) -> dict:
    """The (key, value) pairs whose value is not zero, as a dict.  The
    one place where an entry that vanished, certified or exactly, is not
    stored (hole A, ROADMAP item 2)."""
    return {key: v for key, v in entries if not v.is_zero}


def _put(terms: dict, key, term) -> None:
    """File a term under its position key; an exact zero's None adds
    nothing."""
    if term is not None:
        lst = terms.get(key)
        if lst is None:
            terms[key] = [term]
        else:
            lst.append(term)


def _assemble(prime: int, terms: dict, tail: "_Tail | None", addend) -> "NormalForm":
    """The form with, at each head position, the terms gathered in terms
    plus k times the entry of F, and as shift (key None) the terms there
    plus k times the shift of F, for each pair (k, F) of the addend; each
    position is summed once by _round.  k is an exact int or a Padic, and
    only an exact zero drops its term.  Of tail and the tails of the Fs,
    at most one may be present."""
    for k, form in addend:
        scalar = isinstance(k, Padic)
        if k.is_exact_zero if scalar else k == 0:
            continue
        if form.tail is not None:
            if tail is not None:
                raise StructureError("sum of two structured tails has no normal form")
            tail = (form.tail.map(k.__mul__) if scalar else form.tail if k == 1
                    else form.tail.map(lambda v: v.scale_int(k)))
        # a scalar k joins k * x as the product term (k, x)
        term = partial(_product_term if scalar else _linear_term, k)
        _put(terms, None, term(form.shift))
        for key, x in form.head.items():
            _put(terms, key, term(x))
    shift = _round(prime, terms.pop(None, []))
    return NormalForm(prime, shift, tail, _nonzero((key, _round(prime, lst))
                                                   for key, lst in terms.items()))


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
            total = total + self.tail.default
        return total

    def values(self) -> Iterator[Padic]:
        """The entry at each head position, lazily: off the head an entry
        is the shift, the tail's one coefficient, their sum or 0."""
        for i, j in self.head:
            yield self.entry(i, j)

    def column(self, j: int) -> PadicVector:
        """Column j, read off: the entries at the head keys in column j,
        at (j, j) when the shift is nonzero and at (dest(j), j) for a
        tail.  It multiplies nothing, so it is apply(basis(j)) at a
        precision no scalar of the form exceeds."""
        rows = dict.fromkeys(i for i, k in self.head if k == j)
        if not self.shift.is_zero:
            rows[j] = None
        if self.tail is not None:
            d = self.tail.dest(j)
            if d is not None:
                rows[d] = None
        return PadicVector(self.prime, {i: self.entry(i, j) for i in rows})

    def apply(self, vec: PadicVector) -> PadicVector:
        """The form times vec: mul by vec's one-column form, read back."""
        col = NormalForm(self.prime, Padic.zero(self.prime), None,
                         {(i, 0): x for i, x in vec.entries.items()})
        return PadicVector(self.prime, {i: v for (i, _), v in self.mul(col).head.items()})

    # algebra ----------------------------------------------------------

    @staticmethod
    def combine(terms: list[tuple["int | Padic", "NormalForm"]]) -> "NormalForm":
        """The sum of k * F over the pairs (k, F), k an exact int or a
        Padic.  Each head position and the shift are summed once by
        _round, so a sum of three forms is rounded once, not twice.  Only
        an exact zero k drops its term; a certified zero keeps its bound.
        At most one F may carry a structured tail."""
        return _assemble(terms[0][1].prime, {}, None, terms)

    def add(self, other: "NormalForm") -> "NormalForm":
        return NormalForm.combine([(1, self), (1, other)])

    def sub(self, other: "NormalForm") -> "NormalForm":
        return NormalForm.combine([(1, self), (-1, other)])

    def scale(self, c: Padic) -> "NormalForm":
        return NormalForm.combine([(c, self)])

    def mul(self, other: "NormalForm",
            addend: list[tuple[int, "NormalForm"]] = ()) -> "NormalForm":
        """self * other + the sum of k * F over the addend's pairs (k, F),
        k as in combine: the contract C <- A B + beta C of level-3 BLAS.
        Each term v * w is formed by _product_term and filed by _put under
        its position; the terms of each position, the addend's among them,
        are summed once by _round."""
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
        terms: dict = {}
        # the head of a by column k, as (i, v)
        acols: dict[int, list[tuple[int, Padic]]] = {}
        for (i, k), v in a.head.items():
            acols.setdefault(k, []).append((i, v))
        for (k, j), w in b.head.items():
            for i, v in acols.get(k, ()):
                _put(terms, (i, j), _product_term(v, w))
        if not a.shift.is_zero:
            for key, w in b.head.items():
                _put(terms, key, _product_term(a.shift, w))
        if not b.shift.is_zero:
            for key, v in a.head.items():
                _put(terms, key, _product_term(v, b.shift))
        if a.tail is not None and b.head:
            for (k, j), w in b.head.items():
                d = a.tail.dest(k)
                if d is not None:
                    _put(terms, (d, j), _product_term(a.tail.default, w))
        if b.tail is not None and a.head:
            for k, col in acols.items():
                j = b.tail.preimage(k)
                if j is not None:
                    for i, v in col:
                        _put(terms, (i, j), _product_term(v, b.tail.default))
        _put(terms, None, _product_term(a.shift, b.shift))
        return _assemble(p, terms, tail, addend)

    def defect(self) -> "NormalForm":
        """self.self - self, one fused product: zero when self is idempotent."""
        return self.mul(self, addend=[(-1, self)])

    def adjoint(self) -> "NormalForm":
        head = {(j, i): v for (i, j), v in self.head.items()}
        tail = None
        if self.tail is not None:
            if self.tail.inv is None:
                raise StructureError("adjoint of a structured tail needs an inverse certificate")
            tail = _Tail(self.tail.inv, self.tail.dest, self.tail.default, self.tail.infinite_domain)
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
        if self.tail is not None and not self.tail.default.vanishes_to(depth):
            return False
        return all(v.vanishes_to(depth) for v in self.values())

    def to_operator(self) -> "Operator":
        if self.tail is not None:
            raise StructureError("callable-backed tails have no closed public form")
        if self.shift.is_zero:
            return FiniteMatrix(self.prime, dict(self.head))
        # a public operator holds no zero entry (FiniteMatrix drops them)
        nonzero = [(i, j) for (i, j), v in self.head.items() if not v.is_zero]
        if all(i == j for i, j in nonzero):
            return Diagonal(self.prime, {i: self.entry(i, i) for i, _ in nonzero}, self.shift)
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
    norm and compactness answers.  Its normal form keeps default_coeff
    in the tail and each coeff[j] as the head entry coeff[j] -
    default_coeff at (dest(j), j), known to the lesser precision.
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
            c = op.default_coeff
            # each exception is a head entry, as a diagonal's; only an exact zero is dropped
            pairs = ((op.dest(j), j, v - c) for j, v in op.coeff.items())
            head = {(i, j): v for i, j, v in pairs if i is not None and not v.is_exact_zero}
            tail = _Tail(op.dest, op.inv, c, op.infinite_domain)
            return NormalForm(p, Padic.zero(p), tail, head)
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
    return _applier(op)(vec)


def _applier(op: Operator) -> Callable[[PadicVector], PadicVector]:
    """op as a function on vectors.  Each node is normalised once, when
    the applier is built: an operator without a normal form is applied
    as a tree of its parts' appliers, each sum in the order of its
    terms.  A leaf or an Adjoint without one raises StructureError."""
    try:
        return normalize(op).apply
    except StructureError:
        if isinstance(op, Sum):
            first, *rest = [_applier(t) for t in op.terms]
            return lambda vec: sum((f(vec) for f in rest), first(vec))
        if isinstance(op, Product):
            factors = [_applier(f) for f in reversed(op.factors)]
            return lambda vec: reduce(lambda v, f: f(v), factors, vec)
        if isinstance(op, ScalarMul):
            inner = _applier(op.operand)
            return lambda vec: inner(vec).scale(op.scalar)
        raise


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
    """Upper-left size x size minor as a FiniteMatrix, from one applier."""
    apply = _applier(op)
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


# -- weighted shift, for criteria c04 and c05 and the tests ------------


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

"""Operators as integer windows modulo p^N: the flat precision model.

A tail-free normal form whose entries are integral is, modulo p^N, an
n x n block of ints and an int shift.  The block is indexed by the n
sorted indices that occur in the head (its window), and holds every entry
there, the shift included on its diagonal; off the window the operator
is shift * I.  Products, sums and powers of forms read on one window are
shift * I off it too, so the block is all they need, however far apart
the indices.  ``Window.read`` takes N to be the least absolute precision
over the entries and shifts it reads.

Why the digits below p^N are certified: by the precision lemma of Caruso,
Roe and Vaccon ("Tracking p-adic precision", 2014), an integer polynomial
P is 1-Lipschitz on the unit ball, since P(a + h) - P(a) is a sum of
words each holding an h.  So every integer polynomial in windows of norm
at most 1, computed on any representatives mod p^N, is known mod p^N at
every entry, zeros included, and ``Window.form`` writes it back certified
to exactly N.  Refinement, the Frobenius powers of a lift, the
Newton-Schulz inverse and the binomial calculus's falling products are
such polynomials.  A product or sum is known to the least depth among
its operands.

The arithmetic follows ``NormalForm``'s where they share an operation
(``mul`` with an addend, ``combine``, ``defect``, ``norm``,
``vanishes_to``); ``Window.mul`` also scales its product by an exact int.

Products pack rows (Kronecker substitution; Dumas, Fousse and Salvy,
"Simultaneous modular reduction and Kronecker substitution for small
finite fields", 2011): a row of n entries becomes one int with entry j in
bits [W j, W (j + 1)), so one product of a small int by a packed row
makes n entry products, and a sum of such terms adds slot by slot.  That
is exact as long as no slot overflows or goes negative: every term is
made nonnegative, and W is wide enough for the largest sum a slot can
hold, (|c| n + T + 1) M^2 for an n x n product with coefficient c and T
addends, M the largest modulus among the operands.  Each slot is then
read off and reduced mod p^N once.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from operator import mul as _times

from .errors import NonIntegral, StructureError
from .operators import NormalForm
from .scalars import DEFAULT_PRECISION, Padic, ValuationBound, _split


class Window:
    """An n x n int block on the sorted indices ``index`` and an int
    shift, both reduced mod p^depth."""

    __slots__ = ("prime", "depth", "modulus", "index", "rows", "shift")

    def __init__(self, prime: int, depth: int, index: tuple[int, ...],
                 rows: list[list[int]], shift: int):
        self.prime, self.depth, self.modulus = prime, depth, prime**depth
        self.index, self.rows, self.shift = index, rows, shift

    @classmethod
    def read(cls, forms: list[NormalForm], scale: int = 0, exact: int = DEFAULT_PRECISION) -> list["Window"]:
        """p^scale times each form, on one window and at one depth: the
        window is the sorted set of row and column indices in the forms'
        heads, and N the least absolute precision, plus scale, over every
        entry and shift of the forms.
        Exact data alone reads at depth exact.  A structured tail
        raises StructureError, an entry of p^scale * form outside Z_p
        NonIntegral."""
        p, depth, seen = forms[0].prime, None, set()
        for nf in forms:
            if nf.tail is not None:
                raise StructureError("a structured tail has no integer window")
            for x in chain((nf.shift,), nf.head.values()):
                top = x.absolute_precision
                if top is None:
                    continue
                if not x.is_zero and x.valuation + scale < 0:
                    raise NonIntegral("a residue window needs integral entries")
                depth = top + scale if depth is None else min(depth, top + scale)
            seen.update(chain.from_iterable(nf.head))
        depth = exact if depth is None else depth
        mod = p**depth
        index = tuple(sorted(seen))
        at = {k: pos for pos, k in enumerate(index)}
        size = len(index)

        def residue(x: Padic) -> int:
            return 0 if x.is_zero else x.unit * pow(p, x.valuation + scale, mod) % mod

        out = []
        for nf in forms:
            shift = residue(nf.shift)
            rows = [[shift if i == j else 0 for j in range(size)] for i in range(size)]
            for (i, j), x in nf.head.items():
                i, j = at[i], at[j]
                rows[i][j] = (rows[i][j] + residue(x)) % mod
            out.append(cls(p, depth, index, rows, shift))
        return out

    def form(self, scale: int = 0) -> NormalForm:
        """The normal form of p^-scale times the window, undoing read's
        scale: every window entry in its head, zeros included, and every
        entry and the shift certified to exactly depth - scale."""
        p, depth, shift = self.prime, self.depth, self.shift
        zero = Padic.zero(p, depth - scale)

        def certified(x: int) -> Padic:
            return Padic.from_unit(p, -scale, x, depth) if x % self.modulus else zero

        index = self.index
        head = {(index[i], index[j]): certified(x - shift if i == j else x)
                for i, row in enumerate(self.rows) for j, x in enumerate(row)}
        return NormalForm(p, certified(shift), None, head)

    def constant(self, c: int) -> "Window":
        """c * I on the same window and at the same depth."""
        c %= self.modulus
        size = len(self.rows)
        rows = [[c if i == j else 0 for j in range(size)] for i in range(size)]
        return Window(self.prime, self.depth, self.index, rows, c)

    # algebra ------------------------------------------------------------

    def mul(self, other: "Window", c: int = 1,
            addend: list[tuple[int, "Window"]] = ()) -> "Window":
        """c * self * other + the sum of k * F over the addend's pairs, for
        exact ints c and k, as NormalForm.mul, on one window.

        Each row of other, and of each F, is packed into one int, entry j
        in the slot of bits [W j, W (j + 1)).  Row i of the result is then
        c sum_k a_ik P_k + sum_t k'_t Q_ti + B, with P_k row k of other,
        Q_ti row i of F_t, k' = k mod p^depth, and B = 0 when c >= 0 or
        else |c| n M^2 in every slot: n + T + 1 products of an int by a
        packed row, T the number of addends.  M is the largest modulus
        among the operands, so every entry is below M and p^depth divides
        M^2.  Then each slot holds a sum in [0, (|c| n + T + 1) M^2), below
        2^W, so no carry or borrow crosses into the next, and it is the
        entry of the plain triple loop plus B's slot, a multiple of
        p^depth.  Each slot is read off and reduced once, so the result is
        that of the plain triple loop, bit for bit, for every n."""
        depth = min(self.depth, other.depth, *(f.depth for _, f in addend))
        mod = self.prime**depth
        n = len(self.rows)
        top = max(self.modulus, other.modulus, *(f.modulus for _, f in addend))
        width = ((abs(c) * n + len(addend) + 1) * top * top).bit_length()
        mask = (1 << width) - 1
        slots = range(0, width * n, width)
        bias = sum([1 << s for s in slots]) * n * top * top * -c if c < 0 else 0
        packed: dict[Window, list[int]] = {}

        def pack(w: Window) -> list[int]:
            if w not in packed:
                packed[w] = []
                for row in w.rows:
                    acc = 0
                    for x in reversed(row):
                        acc = acc << width | x
                    packed[w].append(acc)
            return packed[w]

        cols = pack(other)
        terms = [(k % mod, pack(f)) for k, f in addend]
        rows = []
        for i, row in enumerate(self.rows):
            acc = c * sum(map(_times, row, cols)) + bias
            for k, q in terms:
                acc += k * q[i]
            rows.append([(acc >> s & mask) % mod for s in slots])
        shift = c * self.shift * other.shift + sum(k * f.shift for k, f in addend)
        return Window(self.prime, depth, self.index, rows, shift % mod)

    @staticmethod
    def combine(terms: list[tuple[int, "Window"]], depth: int) -> "Window":
        """The sum of k * W over the pairs (k, W), exact ints k, mod p^depth:
        certified when no W.depth + v_p(k) is below depth."""
        ks, ws = zip(*terms)
        mod = ws[0].prime**depth
        rows = [[sum(map(_times, ks, col)) % mod for col in zip(*row)] for row in zip(*(w.rows for w in ws))]
        shift = sum(map(_times, ks, (w.shift for w in ws))) % mod
        return Window(ws[0].prime, depth, ws[0].index, rows, shift)

    def sub(self, other: "Window") -> "Window":
        depth = min(self.depth, other.depth)
        mod = self.prime**depth
        rows = [[(x - y) % mod for x, y in zip(row, orow)]
                for row, orow in zip(self.rows, other.rows)]
        return Window(self.prime, depth, self.index, rows, (self.shift - other.shift) % mod)

    def defect(self) -> "Window":
        """self.self - self: zero when self is idempotent."""
        return self.mul(self, addend=[(-1, self)])

    def power(self, n: int) -> "Window":
        """self^n for n >= 1, by binary powering."""
        out, base = None, self
        while n:
            if n & 1:
                out = base if out is None else out.mul(base)
            n >>= 1
            if n:
                base = base.mul(base)
        return out

    def divide(self, k: int) -> "Window":
        """self / p^k for a window that vanishes to k: known to depth - k."""
        if not k:
            return self
        q = self.prime**k
        return Window(self.prime, self.depth - k, self.index,
                      [[x // q for x in row] for row in self.rows], self.shift // q)

    # exact queries --------------------------------------------------------

    def norm(self) -> ValuationBound:
        """p^-v for the least valuation v of an entry or the shift; p^-depth
        when they all vanish mod p^depth, the most the window knows."""
        g = gcd(self.modulus, self.shift, *chain.from_iterable(self.rows))
        return ValuationBound(self.depth if g == self.modulus else _split(g, self.prime)[0])

    def vanishes_to(self, depth: int) -> bool:
        """Whether every entry and the shift are certified 0 mod p^depth:
        never past the window's own depth."""
        if depth > self.depth:
            return False
        if depth <= 0:
            return True
        m = self.prime**depth
        return self.shift % m == 0 and all(x % m == 0 for row in self.rows for x in row)

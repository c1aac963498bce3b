"""Operators as integer windows modulo p^N: the flat precision model.

A tail-free normal form whose entries are integral is, modulo p^N, a few
square blocks of ints and an int shift.  The indices that occur in the
head (its window) split into the connected components of the graph whose
edges are the head keys (i, j), whatever their values.  Each component
is one block, indexed by its sorted indices, holding every entry there,
the shift included on its diagonal.  Between two blocks every entry is
an exact zero, and off the window the operator is shift * I.  Forms read
together share one layout, their keys all counting as edges, so each of
them is block-diagonal plus shift * I in every lift: the input is
exactly zero between blocks whatever the lift.  Products, sums, powers
and refinement steps of block-diagonal matrices stay block-diagonal, so
the blocks are all they need, however far apart the indices.  A
diagonal with n entries is n 1 x 1 blocks, and a dense head one block
(block orderings of the support graph: Duff, Erisman and Reid, "Direct
Methods for Sparse Matrices", 1986).  ``Window.read`` takes N to be the
least absolute precision over the entries and shifts it reads, and
reads p^s times the forms for a scale s it is given;
``Window.read_integral`` finds the least s >= 0 that makes them
integral itself, so a form of norm p^s is read without forming its
norm entry by entry: the window's norm, one gcd, gives it.

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

Products run block by block and pack rows (Kronecker substitution;
Dumas, Fousse and Salvy, "Simultaneous modular reduction and Kronecker
substitution for small finite fields", 2011): a row of a block of b
entries becomes one int with entry j in bits [W j, W (j + 1)), so one
product of a small int by a packed row makes b entry products, and a sum
of such terms adds slot by slot.  That is exact as long as no slot
overflows or goes negative: every term is made nonnegative, and W is
wide enough for the largest sum a slot can hold, (|c| n + T + 1) M^2 for
blocks of at most n x n, coefficient c and T addends, M the largest
modulus among the operands.  Each slot is then read off and reduced mod
p^N once.  A 1 x 1 block has nothing to pack and is multiplied directly,
so a diagonal window costs per entry, not per packed row.  W is rounded
up to whole bytes, and W, the slot offsets and the bias that keeps
slots nonnegative for c < 0 are worked out once per shape (the blocks,
M, c and T) and cached; a window keeps its packed rows per width, so
one packed for a product is not packed again for the next at that
width.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import gcd
from operator import mul as _times

from .errors import NonIntegral, StructureError
from .operators import NormalForm
from .scalars import DEFAULT_PRECISION, Padic, ValuationBound, _split


class Window:
    """Int blocks on the sorted indices of each connected component, and
    an int shift, all reduced mod p^depth.

    ``index`` lists the indices block by block, each block sorted, the
    blocks in the order of their least index; ``spans`` holds the
    (start, stop) positions of each block in ``index``.  Row r holds
    the entries of its block's columns, so row r and column
    index[start + j] meet at rows[r][j].  ``packed`` keeps the rows
    packed for a product, by slot width (``mul``); a window's rows are
    not changed once it is made."""

    __slots__ = ("prime", "depth", "modulus", "index", "spans", "rows", "shift", "packed")

    def __init__(self, prime: int, depth: int, index: tuple[int, ...],
                 spans: tuple[tuple[int, int], ...], rows: list[list[int]], shift: int):
        self.prime, self.depth, self.modulus = prime, depth, prime**depth
        self.index, self.spans, self.rows, self.shift = index, spans, rows, shift
        self.packed = None

    @classmethod
    def read(cls, forms: list[NormalForm], scale: int = 0, exact: int = DEFAULT_PRECISION) -> list["Window"]:
        """p^scale times each form, on one layout and at one depth: the
        indices are the row and column indices in the forms' heads, split
        into the connected components of the graph whose edges are the
        head keys (i, j) of all the forms, whatever their values; N is
        the least absolute precision, plus scale, over every entry and
        shift of the forms.
        Exact data alone reads at depth exact.  A structured tail
        raises StructureError, an entry of p^scale * form outside Z_p
        NonIntegral."""
        p, depth, seen = forms[0].prime, None, set()
        for nf in forms:
            if nf.tail is not None:
                raise StructureError("a structured tail has no integer window")
            for x in chain((nf.shift,), nf.head.values()):
                v, top = x.valuation, x.precision
                if v is not None:
                    if v + scale < 0:
                        raise NonIntegral("a residue window needs integral entries")
                    top += v
                elif top is None:
                    continue
                if depth is None or top + scale < depth:
                    depth = top + scale
            seen.update(chain.from_iterable(nf.head))
        depth = exact if depth is None else depth
        mod = p**depth
        # union by size: each index maps to the one list of its component
        block = {k: [k] for k in seen}
        for nf in forms:
            for i, j in nf.head:
                a, b = block[i], block[j]
                if a is not b:
                    if len(a) < len(b):
                        a, b = b, a
                    a += b
                    for k in b:
                        block[k] = a
        blocks = sorted(map(sorted, {id(b): b for b in block.values()}.values()))
        index = tuple(chain.from_iterable(blocks))
        spans, at, col, start = [], {}, {}, 0
        for b in blocks:
            spans.append((start, start + len(b)))
            for c, k in enumerate(b):
                at[k], col[k] = start + c, c
            start += len(b)
        spans = tuple(spans)

        out = []
        for nf in forms:
            rows = [[0] * (stop - start) for start, stop in spans for _ in range(start, stop)]
            # p^(v + scale) is formed only when it is not 1
            for (i, j), x in nf.head.items():
                v = x.valuation
                if v is not None:
                    v += scale
                    rows[at[i]][col[j]] = x.unit * pow(p, v, mod) % mod if v else x.unit % mod
            v = nf.shift.valuation
            if v is None:
                shift = 0
            else:
                v += scale
                shift = nf.shift.unit * pow(p, v, mod) % mod if v else nf.shift.unit % mod
            if shift:
                for start, stop in spans:
                    for r in range(start, stop):
                        row = rows[r]
                        row[r - start] = (row[r - start] + shift) % mod
            out.append(cls(p, depth, index, spans, rows, shift))
        return out

    @classmethod
    def read_integral(cls, forms: list[NormalForm]) -> tuple[list["Window"], int]:
        """read at the least scale s >= 0 that makes every head value and
        shift of the forms integral, found from their valuations, and s."""
        low = min([0] + [x.valuation for nf in forms for x in chain((nf.shift,), nf.head.values())
                         if x.valuation is not None])
        return cls.read(forms, -low), -low

    def form(self, scale: int = 0) -> NormalForm:
        """The normal form of p^-scale times the window, undoing read's
        scale: every block entry in its head, zeros included, in
        row-major order of the indices, and every such entry and the
        shift certified to exactly depth - scale.  An entry between two
        blocks is an exact zero and stays out of the head."""
        p, depth, shift, index, mod = self.prime, self.depth, self.shift, self.index, self.modulus
        certified = Padic.from_unit
        first = [start for start, stop in self.spans for _ in range(start, stop)]
        order = sorted(range(len(index)), key=index.__getitem__)
        head = {(index[r], index[k]): certified(p, -scale, x - shift if r == k else x, depth, mod)
                for r in order for k, x in enumerate(self.rows[r], first[r])}
        return NormalForm(p, certified(p, -scale, shift, depth, mod), None, head)

    def constant(self, c: int) -> "Window":
        """c * I on the same layout and at the same depth."""
        c %= self.modulus
        rows = [[c if j == r else 0 for j in range(stop - start)]
                for start, stop in self.spans for r in range(stop - start)]
        return Window(self.prime, self.depth, self.index, self.spans, rows, c)

    # algebra ------------------------------------------------------------

    def mul(self, other: "Window", c: int = 1,
            addend: list[tuple[int, "Window"]] = ()) -> "Window":
        """c * self * other + the sum of k * F over the addend's pairs, for
        exact ints c and k, as NormalForm.mul, on one layout, block by
        block.

        Each row of other, and of each F, is packed into one int, entry j
        of its block in the slot of bits [W j, W (j + 1)).  Row i of the
        result is then c sum_k a_ik P_k + sum_t k'_t Q_ti + B, k over the
        block of i, with P_k row k of other, Q_ti row i of F_t,
        k' = k mod p^depth, and B = 0 when c >= 0 or else |c| n M^2 in
        every slot of the block, n the size of the largest block: b + T + 1
        products of an int by a packed row, b the size of the block and T
        the number of addends.  M is the largest modulus among the
        operands, so every entry is below M and p^depth divides M^2.  Then
        each slot holds a sum in [0, (|c| n + T + 1) M^2), below 2^W, so
        no carry or borrow crosses into the next, and it is the entry of
        the plain triple loop plus B's slot, a multiple of p^depth.  Each
        slot is read off and reduced once, so the result is that of the
        plain triple loop on the block-diagonal matrix, bit for bit.

        W is rounded up to whole bytes, so products whose bounds differ by
        a bit or two share a width, and a window packed for one of them
        is not packed again for the next (``packed``).  W, the slots and
        B depend on the layout, M, c and T alone and are worked out once
        per such shape (_product_plan).

        A block of one index has nothing to pack: its entry
        c a b + sum_t k'_t f_t is formed from the ints and reduced once,
        the same residue.  Rows are packed only when some block has two
        indices or more."""
        depth, mod, top = self.depth, self.modulus, self.modulus
        for w in (other, *[f for _, f in addend]):
            if w.depth < depth:
                depth, mod = w.depth, w.modulus
            if w.modulus > top:
                top = w.modulus
        width, mask, plan = _product_plan(self.spans, top, c, len(addend))
        terms = [(k % mod, f) for k, f in addend]
        mine, theirs = self.rows, other.rows
        cols = packs = None
        rows = []
        for start, stop, slots, bias in plan:
            if slots is None:  # one index: nothing to pack
                acc = c * mine[start][0] * theirs[start][0]
                for k, f in terms:
                    acc += k * f.rows[start][0]
                rows.append([acc % mod])
                continue
            if cols is None:
                cols, packs = other._packed(width), [(k, f._packed(width)) for k, f in terms]
            block = cols[start:stop]
            for i in range(start, stop):
                acc = c * sum(map(_times, mine[i], block)) + bias
                for k, q in packs:
                    acc += k * q[i]
                rows.append([(acc >> s & mask) % mod for s in slots])
        shift = c * self.shift * other.shift + sum(k * f.shift for k, f in addend)
        return Window(self.prime, depth, self.index, self.spans, rows, shift % mod)

    def _packed(self, width: int) -> list[int]:
        """Each row as one int, entry j in the slot of bits [W j, W (j + 1)),
        W = width: packed once per width and kept."""
        if self.packed is None:
            self.packed = {}
        rows = self.packed.get(width)
        if rows is None:
            rows = self.packed[width] = []
            for row in self.rows:
                acc = 0
                for x in reversed(row):
                    acc = acc << width | x
                rows.append(acc)
        return rows

    @staticmethod
    def combine(terms: list[tuple[int, "Window"]], depth: int) -> "Window":
        """The sum of k * W over the pairs (k, W), exact ints k, mod p^depth:
        certified when no W.depth + v_p(k) is below depth."""
        ks, ws = zip(*terms)
        mod = ws[0].prime**depth
        rows = [[sum(map(_times, ks, col)) % mod for col in zip(*row)] for row in zip(*(w.rows for w in ws))]
        shift = sum(map(_times, ks, (w.shift for w in ws))) % mod
        return Window(ws[0].prime, depth, ws[0].index, ws[0].spans, rows, shift)

    def sub(self, other: "Window") -> "Window":
        depth = min(self.depth, other.depth)
        mod = self.prime**depth
        rows = [[(x - y) % mod for x, y in zip(row, orow)]
                for row, orow in zip(self.rows, other.rows)]
        return Window(self.prime, depth, self.index, self.spans, rows, (self.shift - other.shift) % mod)

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
        return Window(self.prime, self.depth - k, self.index, self.spans,
                      [[x // q for x in row] for row in self.rows], self.shift // q)

    # exact queries --------------------------------------------------------

    def norm(self) -> ValuationBound:
        """p^-v for the least valuation v of an entry or the shift; p^-depth
        when they all vanish mod p^depth, the most the window knows."""
        g = gcd(self.modulus, self.shift, *chain.from_iterable(self.rows))
        return ValuationBound(self.depth if g == self.modulus else _split(g, self.prime)[0])

    def vanishes_to(self, depth: int) -> bool:
        """Whether every entry and the shift are certified 0 mod p^depth:
        never past the window's own depth.  One gcd, as in norm."""
        if depth > self.depth:
            return False
        if depth <= 0:
            return True
        m = self.prime**depth
        return gcd(m, self.shift, *chain.from_iterable(self.rows)) == m


@lru_cache(maxsize=256)
def _product_plan(spans: tuple[tuple[int, int], ...], top: int, c: int,
                  terms: int) -> tuple[int, int, tuple]:
    """The set-up of Window.mul on a layout, for the largest modulus top,
    the coefficient c and the number of addends terms: the slot width W,
    wide enough for (|c| n + terms + 1) top^2 and rounded up to whole
    bytes, n the size of the largest block; its mask; and per block
    (start, stop, slot offsets, B), B the bias that keeps a slot
    nonnegative when c < 0 (Window.mul), the offsets None for a block
    of one index."""
    n = max([stop - start for start, stop in spans], default=0)
    width = -(-((abs(c) * n + terms + 1) * top * top).bit_length() // 8) * 8
    fill = n * top * top * -c if c < 0 else 0
    plan = []
    for start, stop in spans:
        if stop - start == 1:
            plan.append((start, stop, None, 0))
            continue
        slots = range(0, width * (stop - start), width)
        plan.append((start, stop, slots, sum([1 << s for s in slots]) * fill))
    return width, (1 << width) - 1, tuple(plan)

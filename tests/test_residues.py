"""Residue windows: the packed-row product against a plain-int triple
loop, and the block layout that Window.read finds.

The reference below never calls padicops arithmetic: it multiplies the
windows as dense block-diagonal matrices of Python ints and reduces mod
p^depth at the end.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicops.idempotents import _frobenius_cap
from padicops.operators import Diagonal, FiniteMatrix, NormalForm, normalize
from padicops.residues import Window, _product_plan
from padicops.scalars import Padic


def _entry(rng, mod):
    """0, p^N - 1 or a uniform residue: the two ends carry the largest and
    smallest slot sums."""
    return rng.choice([0, mod - 1, mod - 1, rng.randrange(mod)])


def _spans(sizes):
    """The spans of blocks of the given sizes, laid out in order."""
    spans, start = [], 0
    for size in sizes:
        spans.append((start, start + size))
        start += size
    return tuple(spans)


def _window(rng, p, spans, depth):
    mod = p**depth
    rows = [[_entry(rng, mod) for _ in range(stop - start)]
            for start, stop in spans for _ in range(start, stop)]
    return Window(p, depth, tuple(range(len(rows))), spans, rows, _entry(rng, mod))


def _dense(w):
    """The window's blocks as one n x n matrix, 0 between blocks."""
    n = len(w.rows)
    out = [[0] * n for _ in range(n)]
    for start, stop in w.spans:
        for i in range(start, stop):
            out[i][start:stop] = w.rows[i]
    return out


def _plain_mul(a, b, c, addend, p):
    """c a b + sum k F on the dense int matrices, reduced once mod
    p^depth, depth the least among the operands: the block rows, the
    shift, the depth, and whether every entry between blocks is 0."""
    depth = min([a.depth, b.depth] + [f.depth for _, f in addend])
    mod = p**depth
    n = len(a.rows)
    da, db = _dense(a), _dense(b)
    dense = []
    for i in range(n):
        row = []
        for j in range(n):
            x = c * sum(da[i][k] * db[k][j] for k in range(n))
            for k, f in addend:
                x += k * _dense(f)[i][j]
            row.append(x % mod)
        dense.append(row)
    rows = [dense[i][start:stop] for start, stop in a.spans for i in range(start, stop)]
    blocks = sum(sum(dense[i][start:stop]) for start, stop in a.spans for i in range(start, stop))
    between = sum(map(sum, dense)) - blocks
    shift = c * a.shift * b.shift + sum(k * f.shift for k, f in addend)
    return rows, shift % mod, depth, between == 0


def _coefficient(rng, mod):
    """A small int, possibly negative, shifted by a multiple of p^N."""
    return rng.randint(-3, 3) + rng.randint(-2, 2) * mod


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5]),
       st.one_of(st.integers(min_value=0, max_value=13).map(lambda n: [n] if n else []),
                 st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5),
                 # 1 x 1 blocks, multiplied unpacked, beside packed ones
                 st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=3)
                 .flatmap(lambda big: st.permutations(big + [1, 1, 1]))),
       st.lists(st.integers(min_value=1, max_value=100), min_size=5, max_size=5),
       st.integers(min_value=0, max_value=3), st.booleans(),
       st.randoms(use_true_random=False))
@example(3, [1, 4, 1, 1, 3], [40, 38, 12, 25, 40], 3, True, random.Random(0))
@example(5, [1] * 12, [40, 40, 39, 41, 40], 1, True, random.Random(1))
def test_packed_product_is_the_plain_triple_loop(p, sizes, depths, terms, negative, rng):
    """One block of up to 13 x 13, blocks from 1 x 1 to 6 x 6, or 1 x 1
    blocks beside larger ones; operands of unequal depth, entries at 0
    and p^N - 1, coefficients past p^N, c < 0 when negative, and 0-3
    addends, their depths drawn apart from the factors': rows, shift
    and depth are those of the plain loop on the block-diagonal
    matrices, which is 0 between blocks."""
    spans = _spans(sizes)
    a, b, *fs = [_window(rng, p, spans, d) for d in depths[:2 + terms]]
    mod = p ** min(depths[:2 + terms])
    c = _coefficient(rng, mod)
    if negative:
        c = -1 - abs(c)
    addend = [(_coefficient(rng, mod), f) for f in fs]
    out = a.mul(b, c, addend)
    assert (out.rows, out.shift, out.depth, True) == _plain_mul(a, b, c, addend, p)
    assert (out.index, out.spans) == (a.index, a.spans)


def test_packed_product_reads_operands_of_different_depths():
    """u at depth N - 2 times w at depth N, as the equivalence multiplies
    u by the window of e: w's entries past p^(N - 2) are dropped."""
    p, n = 3, 3
    top = p**10
    u = Window(p, 8, (0, 1, 2), ((0, 3),), [[p**8 - 1] * n for _ in range(n)], 1)
    w = Window(p, 10, (0, 1, 2), ((0, 3),), [[top - 1] * n for _ in range(n)], top - 1)
    out = u.mul(w)
    assert out.depth == 8
    assert (out.rows, out.shift) == _plain_mul(u, w, 1, [], p)[:2]
    assert u.mul(w, -2, [(-1, w), (5, u)]).rows == _plain_mul(u, w, -2, [(-1, w), (5, u)], p)[0]


def test_one_pair_multiplied_as_the_shape_changes():
    """One pair of windows, at depths 40 and 33, multiplied in sequence
    with c of both signs and 0 to 3 addends at depths 40, 29 and 35, on
    a 5 x 5, a 1 x 1 and a 3 x 3 block: the set-up (_product_plan) and
    the slot width change from call to call, so other's packed rows are
    reused at a width it was packed at and packed afresh at another.
    Every result is the plain loop's, and every width is whole bytes."""
    rng, p = random.Random(7), 3
    spans = _spans([5, 1, 3])
    a, b = _window(rng, p, spans, 40), _window(rng, p, spans, 33)
    fs = [_window(rng, p, spans, d) for d in (40, 29, 35)]
    reused, fresh = set(), set()
    # widths 136, 144 and 152 bits
    for c, t in [(1, 0), (1, 1), (-2, 2), (1000, 1), (1, 1), (-1, 3), (-10**5, 0),
                 (1000, 2), (-2, 2), (1, 3), (-10**5, 3)]:
        addend = [(_coefficient(rng, p**29), f) for f in fs[:t]]
        width = _product_plan(spans, p**40, c, t)[0]
        assert width % 8 == 0
        before = dict(b.packed or {})
        out = a.mul(b, c, addend)
        assert (out.rows, out.shift, out.depth, True) == _plain_mul(a, b, c, addend, p)
        if width in before:
            assert b.packed[width] is before[width]
            reused.add(width)
        else:
            assert set(b.packed) == set(before) | {width}
            fresh.add(width)
    assert reused == fresh == {136, 144, 152}


def test_a_refinement_step_and_its_defect_share_a_width():
    """At n = 5 and depth 40 a step E' = d.E (-2) + p^s d + E needs 131
    bits a slot and the defect E'.E' - p^s E' 130; rounded to bytes both
    are 136, so the E' packed for its defect is not packed again as the
    next step's factor."""
    spans, top = ((0, 5),), 3**40
    assert ((2 * 5 + 2 + 1) * top * top).bit_length() == 131
    assert ((5 + 1 + 1) * top * top).bit_length() == 130
    assert _product_plan(spans, top, -2, 2)[0] == _product_plan(spans, top, 1, 1)[0] == 136


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
       st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=3),
       st.randoms(use_true_random=False))
def test_form_writes_each_entry_reduced_and_certified(p, sizes, depth, scale, rng):
    """Each block entry of form(scale), a diagonal one less the shift
    (often below zero), is p^-scale times its residue mod p^depth: a
    unit below p^precision after its p-power factor, or a zero
    certified to depth - scale, which scale < depth keeps positive."""
    scale = min(scale, depth - 1)
    spans = _spans(sizes)
    w = _window(rng, p, spans, depth)
    mod = p**depth

    def certified(x):
        x %= mod
        if not x:
            return Padic.zero(p, depth - scale)
        j = 0
        while x % p == 0:
            x //= p
            j += 1
        return Padic(p, j - scale, x, depth - j)

    nf = w.form(scale)
    assert nf.shift == certified(w.shift)
    expected = {(w.index[r], w.index[start + k]): certified(x - w.shift if start + k == r else x)
                for start, stop in spans for r in range(start, stop) for k, x in enumerate(w.rows[r])}
    assert nf.head == expected


def test_product_of_empty_windows():
    w = Window(3, 40, (), (), [], 7)
    out = w.mul(w, -1, [(1, w)])
    assert (out.rows, out.shift, out.depth) == ([], (-49 + 7) % 3**40, 40)


# -- the block layout ------------------------------------------------------


def test_a_diagonal_reads_as_one_by_one_blocks():
    """n diagonal entries are n components: n 1 x 1 blocks, written back
    with no entry between them."""
    p, n = 3, 12
    d = Diagonal(p, {5 * i: Padic.from_int(i + 2, p, 40) for i in range(n)}, Padic.one(p, 40))
    (w,) = Window.read([normalize(d)])
    assert w.spans == _spans([1] * n)
    assert w.index == tuple(5 * i for i in range(n))
    assert (w.rows, w.shift) == ([[i + 2] for i in range(n)], 1)
    assert sorted(w.form().head) == [(5 * i, 5 * i) for i in range(n)]


def test_blocks_are_the_components_of_the_head_keys():
    """(0, 3) and (3, 1) join 0, 1 and 3; 2 is alone.  Blocks come in the
    order of their least index, each sorted, and form() writes the head
    row-major although the blocks interleave."""
    p = 3
    head = {(3, 1): Padic.from_int(2, p), (0, 3): Padic.from_int(4, p), (2, 2): Padic.from_int(5, p)}
    (w,) = Window.read([NormalForm(p, Padic.zero(p), None, head)])
    assert (w.index, w.spans) == ((0, 1, 3, 2), ((0, 3), (3, 4)))
    assert w.rows == [[0, 0, 4], [0, 0, 0], [0, 2, 0], [5]]
    assert list(w.form().head) == [(0, 0), (0, 1), (0, 3), (1, 0), (1, 1), (1, 3),
                                   (2, 2), (3, 0), (3, 1), (3, 3)]


def test_a_certified_zero_head_key_joins_its_indices():
    """A head key counts whatever its value: a zero certified to 30
    digits at (0, 1) makes one 2 x 2 block of two diagonal entries, and
    the keys of all the forms read together are the edges."""
    p = 3
    diag = {(0, 0): Padic.from_int(1, p), (1, 1): Padic.from_int(2, p)}
    (w,) = Window.read([NormalForm(p, Padic.zero(p), None, diag)])
    assert w.spans == ((0, 1), (1, 2))
    joined = {**diag, (0, 1): Padic.zero(p, 30)}
    (w,) = Window.read([NormalForm(p, Padic.zero(p), None, joined)])
    assert (w.spans, w.rows, w.depth) == (((0, 2),), [[1, 0], [0, 2]], 30)
    other = NormalForm(p, Padic.zero(p), None, {(1, 0): Padic.from_int(7, p)})
    a, b = Window.read([NormalForm(p, Padic.zero(p), None, diag), other])
    assert a.spans == b.spans == ((0, 2),)
    assert (a.rows, b.rows) == ([[1, 0], [0, 2]], [[0, 0], [7, 0]])


def test_frobenius_cap_counts_the_largest_block():
    """N^n = 0 on each block, n its size: a window of 1 x 1 blocks needs
    no Frobenius step, and a 2 x 2 Jordan block beside ten 1 x 1 blocks
    one at p = 3, where all twelve indices on one block would need 3."""
    p = 3
    d = Diagonal(p, {i: Padic.from_int(i + 1, p) for i in range(12)})
    (w,) = Window.read([normalize(d)])
    assert _frobenius_cap(w) == 0
    entries = {(i, i): Padic.from_int(i + 1, p) for i in range(12)}
    entries[(10, 11)] = Padic.one(p)
    (w,) = Window.read([normalize(FiniteMatrix(p, entries))])
    assert w.spans == _spans([1] * 10 + [2])
    assert _frobenius_cap(w) == 1

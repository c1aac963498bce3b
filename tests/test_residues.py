"""Residue windows: the packed-row product against a plain-int triple loop.

The reference below never calls padicops arithmetic: it multiplies the
windows' rows as lists of Python ints and reduces mod p^depth at the end.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from padicops.residues import Window


def _entry(rng, mod):
    """0, p^N - 1 or a uniform residue: the two ends carry the largest and
    smallest slot sums."""
    return rng.choice([0, mod - 1, mod - 1, rng.randrange(mod)])


def _window(rng, p, n, depth):
    mod = p**depth
    rows = [[_entry(rng, mod) for _ in range(n)] for _ in range(n)]
    return Window(p, depth, tuple(range(n)), rows, _entry(rng, mod))


def _plain_mul(a, b, c, addend, p):
    """c a b + sum k F on int rows, reduced once mod p^depth, depth the
    least among the operands."""
    depth = min([a.depth, b.depth] + [f.depth for _, f in addend])
    mod = p**depth
    n = len(a.rows)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            x = c * sum(a.rows[i][k] * b.rows[k][j] for k in range(n))
            for k, f in addend:
                x += k * f.rows[i][j]
            row.append(x % mod)
        rows.append(row)
    shift = c * a.shift * b.shift + sum(k * f.shift for k, f in addend)
    return rows, shift % mod, depth


def _coefficient(rng, mod):
    """A small int, possibly negative, shifted by a multiple of p^N."""
    return rng.randint(-3, 3) + rng.randint(-2, 2) * mod


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(min_value=0, max_value=13),
       st.lists(st.integers(min_value=1, max_value=100), min_size=5, max_size=5),
       st.integers(min_value=0, max_value=3), st.randoms(use_true_random=False))
def test_packed_product_is_the_plain_triple_loop(p, n, depths, terms, rng):
    """Operands of unequal depth, entries at 0 and p^N - 1, coefficients
    negative or past p^N, and 0-3 addends: rows, shift and depth are
    those of the plain loop."""
    a, b, *fs = [_window(rng, p, n, d) for d in depths[:2 + terms]]
    mod = p ** min(depths[:2 + terms])
    c = _coefficient(rng, mod)
    addend = [(_coefficient(rng, mod), f) for f in fs]
    out = a.mul(b, c, addend)
    assert (out.rows, out.shift, out.depth) == _plain_mul(a, b, c, addend, p)
    assert out.index == a.index


def test_packed_product_reads_operands_of_different_depths():
    """u at depth N - 2 times w at depth N, as the equivalence multiplies
    u by the window of e: w's entries past p^(N - 2) are dropped."""
    p, n = 3, 3
    top = p**10
    u = Window(p, 8, (0, 1, 2), [[p**8 - 1] * n for _ in range(n)], 1)
    w = Window(p, 10, (0, 1, 2), [[top - 1] * n for _ in range(n)], top - 1)
    out = u.mul(w)
    assert out.depth == 8
    assert (out.rows, out.shift) == _plain_mul(u, w, 1, [], p)[:2]
    assert u.mul(w, -2, [(-1, w), (5, u)]).rows == _plain_mul(u, w, -2, [(-1, w), (5, u)], p)[0]


def test_product_of_empty_windows():
    w = Window(3, 40, (), [], 7)
    out = w.mul(w, -1, [(1, w)])
    assert (out.rows, out.shift, out.depth) == ([], (-49 + 7) % 3**40, 40)

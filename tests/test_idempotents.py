import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicops import idempotents, linalg, operators
from padicops.config import ExperimentConfig
from padicops.errors import (CertificationFailed, NoConvergence, NonIntegral,
                             PrecisionExhausted, PreconditionFailed, StructureError,
                             Undecidable)
from padicops.idempotents import (_form_rank, _frobenius_cap, _newton_schulz_inverse,
                                  _refine_form, _relation_checks, cantor_pair,
                                  cantor_unpair, column_projection,
                                  finite_rank_reduce,
                                  idempotent_equivalence, idempotent_lift,
                                  idempotent_refine, idempotent_split,
                                  infinite_sum, k0_trivialize, matrix_rank,
                                  refinement_polynomial, sum_ring_generators)
from padicops.operators import (Diagonal, FiniteMatrix, Identity, IndexMap,
                                NormalForm, Product, ScalarMul, Sum,
                                is_compact, normalize, op_agree, op_apply,
                                op_norm)
from padicops.polynomials import IntPolynomial
from padicops.residues import Window
from padicops.scalars import Padic, ValuationBound, teichmuller
from padicops.verify import _c12_rank_invariance, _fitting_idempotent_mod_p
from padicops.vectors import PadicVector
from test_products import forms


def fm(p, table):
    out = {}
    for k, v in table.items():
        out[k] = Padic.from_fraction(Fraction(v), p)
    return FiniteMatrix(p, out)


def diag(p, values):
    return Diagonal(p, {i: Padic.from_int(v, p) for i, v in enumerate(values)})


def rank_one(p, v, w):
    # v (x) w with <w, v> = 1 is idempotent
    assert sum(a * b for a, b in zip(v, w)) == 1
    return fm(p, {(i, j): v[i] * w[j] for i in range(len(v)) for j in range(len(w))})


# -- refinement polynomials ----------------------------------------------


def test_refinement_polynomial_frozen_coefficients():
    assert refinement_polynomial(1).coeffs == (0, 1)
    assert refinement_polynomial(2).coeffs == (0, 0, 3, -2)
    assert refinement_polynomial(3).coeffs == (0, 0, 0, 10, -15, 6)
    with pytest.raises(ValueError):
        refinement_polynomial(0)


def test_refinement_polynomial_flatness():
    for m in (1, 2, 3, 4, 5):
        poly = refinement_polynomial(m)
        assert poly.degree == 2 * m - 1
        assert poly(0) == 0 and poly(1) == 1
        d = poly
        for _ in range(m - 1):
            d = d.derivative()
            assert d(0) == 0 and d(1) == 0


def test_refinement_polynomial_successive_divisibility():
    x2_minus_x = IntPolynomial((0, -1, 1))
    for m in (1, 2, 3, 4):
        gap = refinement_polynomial(m + 1) - refinement_polynomial(m)
        assert (x2_minus_x**m).divides_into(gap) is not None
        assert (x2_minus_x ** (m + 1)).divides_into(gap) is None


# -- refinement ------------------------------------------------------------


def test_refine_diagonal_example():
    a = diag(3, [28, 27])
    e = idempotent_refine(a)
    assert op_agree(e, fm(3, {(0, 0): 1}), 30)
    assert op_agree(Product([e, e]), e, 30)
    assert op_norm(a - e) == ValuationBound(3)


def test_refine_small_norm_input_goes_to_zero():
    e = idempotent_refine(fm(3, {(0, 0): Fraction(3)}))
    assert isinstance(e, FiniteMatrix) and e.entries == {}
    assert idempotent_refine(FiniteMatrix(3, {})).entries == {}


def test_refine_rejects_large_defect():
    with pytest.raises(PreconditionFailed):
        idempotent_refine(diag(3, [2]))


def test_refine_steps_follow_the_target():
    # the defect's valuation runs 1, 3, 7, ..., 511, so target 300 takes
    # nine steps, one more than a fixed cap of eight would allow
    p, prec, target = 3, 400, 300
    a = Diagonal(p, {0: Padic.from_int(4, p, prec), 1: Padic.from_int(3, p, prec)})
    e = idempotent_refine(a, target)
    assert normalize(e).head == {(0, 0): Padic.one(p, prec)}
    assert op_agree(Product([e, e]), e, target)


def test_refine_off_diagonal_defect(rng):
    p = 3
    for _ in range(5):
        noise = {(rng.randrange(3), rng.randrange(3)): 27 * rng.randrange(1, 9)
                 for _ in range(3)}
        a = Sum([diag(p, [1, 1, 0]), fm(p, noise)])
        e = idempotent_refine(a)
        assert op_agree(Product([e, e]), e, 30)
        assert op_norm(a - e) < ValuationBound.one()


# -- refinement against integer oracles --------------------------------------


def _int_matmul(x, y, mod=None):
    n = len(x)
    out = [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return out if mod is None else [[v % mod for v in row] for row in out]


def _unimodular(rng, n):
    """u and u^-1 over Z, from random elementary column operations."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for r in range(n):  # u <- u (1 + c E_ij)
            u[r][j] += c * u[r][i]
        for k in range(n):  # u^-1 <- (1 - c E_ij) u^-1
            u_inv[i][k] -= c * u_inv[j][k]
    assert _int_matmul(u, u_inv) == [[int(i == j) for j in range(n)] for i in range(n)]
    return u, u_inv


def _near_idempotent(rng, n, s, p=3):
    """u diag(1..1, 0..0) u^-1 + p^s * noise, as an integer matrix."""
    u, u_inv = _unimodular(rng, n)
    r = rng.randint(1, n - 1)
    d = [[int(i == j and i < r) for j in range(n)] for i in range(n)]
    a = _int_matmul(_int_matmul(u, d), u_inv)
    for _ in range(n + 2):
        i, j = rng.randrange(n), rng.randrange(n)
        a[i][j] += rng.choice([1, 2, 4, 5, 7, 8]) * p**s
    return a


def _int_operator(a, p=3):
    return FiniteMatrix(p, {(i, j): Padic.from_int(v, p)
                            for i, row in enumerate(a) for j, v in enumerate(row) if v})


def _residues(op, n, depth, p=3):
    """Entries of op mod p^depth as ints, read from the stored digits."""
    nf = normalize(op)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            x = nf.entry(i, j)
            if x.is_zero:
                assert x.precision is None or x.precision >= depth
                row.append(0)
            else:
                assert x.valuation >= 0 and x.valuation + x.precision >= depth
                row.append(x.unit * p**x.valuation % p**depth)
        out.append(row)
    return out


def test_refine_matches_integer_horner_oracle():
    """P_64(a) mod 3^40 by Horner in plain ints is the idempotent near a
    mod 3^40, since (a^2 - a)^64 divides P_64(a) - e."""
    p, mod, depth = 3, 3**40, 30
    coeffs = refinement_polynomial(64).coeffs
    rng = random.Random(2024)
    cases = [(5, s) for s in (1, 2, 3) for _ in range(6)] + [(8, s) for s in (1, 2, 3) for _ in range(4)]
    for n, s in cases:
        a = _near_idempotent(rng, n, s, p)
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        oracle = [[coeffs[-1] * v for v in row] for row in ident]
        for c in reversed(coeffs[:-1]):
            oracle = _int_matmul(oracle, a)
            oracle = [[(v + c * ident[i][j]) % mod for j, v in enumerate(row)]
                      for i, row in enumerate(oracle)]
        e = _residues(idempotent_refine(_int_operator(a, p), depth), n, depth, p)
        assert e == [[v % p**depth for v in row] for row in oracle], (n, s)
        assert _int_matmul(e, a, p**depth) == _int_matmul(a, e, p**depth), (n, s)


def test_refine_operator_products(monkeypatch):
    """Iterating 3e^2 - 2e^3 takes two products a step; evaluating
    P_1, P_2, ..., P_64 from scratch by Horner took 122 here.  A
    contraction refines on its residue window, with no tracked product."""
    calls = {NormalForm: [], Window: []}
    for cls in calls:
        def counted(self, other, *args, _mul=cls.mul, _calls=calls[cls], **kwargs):
            _calls.append(1)
            return _mul(self, other, *args, **kwargs)

        monkeypatch.setattr(cls, "mul", counted)
    a = _int_operator(_near_idempotent(random.Random(7), 5, 3))
    e = idempotent_refine(a)
    monkeypatch.undo()
    assert op_agree(Product([e, e]), e, 30)
    assert len(calls[Window]) <= 16 and not calls[NormalForm]


def _count_window_products(monkeypatch, fn, *args):
    """fn(*args) and the number of Window.mul calls it made."""
    calls = []

    def counted(self, other, *rest, _mul=Window.mul, **kwargs):
        calls.append(1)
        return _mul(self, other, *rest, **kwargs)

    monkeypatch.setattr(Window, "mul", counted)
    out = fn(*args)
    monkeypatch.undo()
    return out, len(calls)


def test_window_products_per_answer(monkeypatch):
    """At depth 40 and target 30.  Refine: the defect, then four steps of
    two products, the defect's valuation running 3, 7, 15, 31, 63; the
    fourth defect is not formed, as 2 * 31 >= 40 and a step sends d to
    d^2(4d - 3).  Lift: its fused defect a^2 - a is the refinement's
    first defect, and the valuations 2, 5, 11, 23, 47 take four steps
    to the fixed point mod 3^40, the fourth defect again derived from
    2 * 23 >= 40 (refining a^2 took 12 products: a^2, its defect and
    five steps).  Equivalence: the two idempotency defects, 1 - u, and
    Newton-Schulz from 2 - u, its residual's valuation running 4, 8, 16,
    32: four residuals and four updates, the last residual and the left
    gap x u - 1, both -r^2, not formed, and u e u^-1 - f bounded by the
    defects rather than formed (15 before).  The identities the counts
    leave out are recomputed here: e^2 = e, u u^-1 = u^-1 u = 1 and
    u e u^-1 = f."""
    rng = random.Random(0)
    a = _int_operator(_near_idempotent(rng, 5, 3))
    e, count = _count_window_products(monkeypatch, idempotent_refine, a)
    assert count == 8 and op_agree(Product([e, e]), e, 40)
    a = _int_operator(_near_idempotent(rng, 8, 2))
    e, count = _count_window_products(monkeypatch, idempotent_lift, a)
    assert count == 8 and op_agree(Product([e, e]), e, 40)
    u, u_inv = _unimodular(rng, 4)
    d = [[int(i == j and i < 2) for j in range(4)] for i in range(4)]
    e = _int_matmul(_int_matmul(u, d), u_inv)
    near = [row[:] for row in e]
    near[0][1] += 9
    near[2][3] += 18
    f = idempotent_refine(_int_operator(near))
    w, count = _count_window_products(monkeypatch, idempotent_equivalence, _int_operator(e), f)
    assert count == 11
    assert op_agree(Product([w.u, w.u_inv]), Identity(3), 40)
    assert op_agree(Product([w.u_inv, w.u]), Identity(3), 40)
    assert op_agree(Product([w.u, _int_operator(e), w.u_inv]), f, 30)


def test_an_idempotent_window_refines_in_no_steps(monkeypatch):
    """A window already idempotent mod p^N is its own fixed point: the
    one product is its defect."""
    p = 3
    e = rank_one(p, [1, 2, 0], [1, 0, 5])
    (w,) = Window.read([normalize(e)])
    (out, defects), count = _count_window_products(monkeypatch, _refine_form, w, 30)
    assert defects == [] and count == 1
    assert out.head == w.form().head


def test_refinement_runs_to_the_depth_it_certifies():
    """A 5 x 5 near-idempotent read at precision 100, target 30: e is
    certified to 100, so e^2 - e must vanish mod 3^100.  Stopping at the
    target left it at 3^-63."""
    p = 3
    rows = _near_idempotent(random.Random(3), 5, 3)
    a = FiniteMatrix(p, {(i, j): Padic.from_int(v, p, 100)
                         for i, row in enumerate(rows) for j, v in enumerate(row) if v})
    (w,) = Window.read([normalize(idempotent_refine(a, 30))])
    assert w.depth == 100
    assert w.defect().norm() == ValuationBound(100)


# -- refinement above norm 1: the window of p^s a ----------------------------


def _outcome(fn):
    """fn's value, or the type and text of what it raised."""
    try:
        return fn()
    except Exception as exc:  # both sides are compared, whatever they raise
        return type(exc), str(exc)


def _window_fields(read):
    if not isinstance(read, tuple) or not isinstance(read[0], Window):
        return read
    w, s = read
    return w.depth, w.index, w.spans, w.rows, w.shift, s


def _unit_window_by_norm(nf):
    """The window of p^s a with s from NormalForm.norm, read at s."""
    norm = nf.norm()
    if norm < ValuationBound.one():
        return None
    s = -norm.exponent
    return Window.read([nf], s)[0], s


def _refine_by_norm(nf, target):
    """_refine_form with the scale taken from NormalForm.norm."""
    read = _unit_window_by_norm(nf)
    if read is None:
        return NormalForm.constant(nf.prime, Padic.zero(nf.prime))
    w, s = read
    return idempotents._refine(w, s, target)[0].form(s)


def _form_fields(out):
    if not isinstance(out, NormalForm):
        return out
    return out.shift, list(out.head.items())


@st.composite
def _tail_free_forms(draw):
    """Tail-free forms on up to four indices: values of valuation -3 to 3
    and relative precision 1 to 12, certified and exact zeros in the head
    and in the shift, empty heads, and, when the shift is nonzero, a
    diagonal head value that cancels it to some digits.  A third are
    near-idempotents p^s [[1, x], [0, 0]] (an idempotent for every x),
    x of valuation -s, with noise of valuation 5 to 12: they refine."""
    p = draw(st.sampled_from([2, 3, 5]))

    def unit(prec):
        return draw(st.integers(min_value=1, max_value=p**prec - 1).filter(lambda u: u % p))

    def scalar():
        kind = draw(st.sampled_from(["value", "value", "value", "certified", "exact"]))
        if kind == "exact":
            return Padic.zero(p)
        if kind == "certified":
            return Padic.zero(p, draw(st.integers(min_value=1, max_value=12)))
        prec = draw(st.integers(min_value=1, max_value=12))
        return Padic(p, draw(st.integers(min_value=-3, max_value=3)), unit(prec), prec)

    if draw(st.integers(min_value=0, max_value=2)) == 0:
        s, prec = draw(st.integers(min_value=0, max_value=3)), draw(st.sampled_from([20, 40]))
        head = {(0, 0): Padic.one(p, prec), (0, 1): Padic(p, -s, unit(prec), prec)}
        for key in draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=3)):
            noise = Padic(p, draw(st.integers(min_value=5, max_value=12)), unit(prec), prec)
            head[key] = head.get(key, Padic.zero(p)) + noise
        return NormalForm(p, Padic.zero(p), None, head)
    n = draw(st.integers(min_value=0, max_value=4))
    keys = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=n * n))
    head = {key: scalar() for key in keys}
    shift = scalar() if draw(st.booleans()) else Padic.zero(p)
    if shift.valuation is not None and draw(st.booleans()):
        i, prec = draw(st.integers(0, 3)), draw(st.integers(min_value=1, max_value=12))
        head[(i, i)] = Padic(p, shift.valuation, -shift.unit % p**prec, prec)
    return NormalForm(p, shift, None, head)


@settings(max_examples=400, deadline=None)
@given(_tail_free_forms(), st.sampled_from([1, 3, 10]))
def test_the_scale_read_is_the_read_at_the_norm(nf, target):
    """The window and s that _unit_window reads (at the least integral
    scale, then divided by p^k for the window's norm p^-k) are
    Window.read([nf], s) with s from NormalForm.norm, or None for a norm
    below 1; _refine_form returns the same form, or the same refusal,
    as refining that window."""
    want = _outcome(lambda: _unit_window_by_norm(nf))
    assert _window_fields(_outcome(lambda: idempotents._unit_window(nf))) == _window_fields(want)
    want = _outcome(lambda: _refine_by_norm(nf, target))
    assert _form_fields(_outcome(lambda: _refine_form(nf, target)[0])) == _form_fields(want)


def _fraction_value(x: Padic) -> Fraction:
    return Fraction(0) if x.is_zero else x.unit * Fraction(x.prime) ** x.valuation


def test_a_norm_three_input_is_certified_to_its_scaled_window():
    """[[1, 1/3], [3^4, 0]] at p = 3, precision 40, target 10: ||a|| = 3,
    so refinement runs on the window of 3a, 40 digits deep.  Four steps
    of 2 digits leave 32, and the last defect, d = 3^31 * unit, takes
    min(32, max(30, 62)) = 32, so e is certified to 31 at every entry,
    and each agrees with the Fraction idempotent of a there.  (The
    tracked refinement claimed 39 to 44 digits, and each entry had a
    wrong digit at some p^k, 30 <= k <= 35.)"""
    p = 3
    rows = [[Fraction(1), Fraction(1, 3)], [Fraction(81), Fraction(0)]]
    a = FiniteMatrix(p, {(i, j): Padic.from_fraction(v, p, 40)
                         for i, row in enumerate(rows) for j, v in enumerate(row) if v})
    out, defects = _refine_form(normalize(a), 10)
    assert len(defects) == 4
    exact = rows
    for _ in range(6):
        sq = _int_matmul(exact, exact)
        exact = [[3 * x - 2 * y for x, y in zip(r, q)] for r, q in zip(sq, _int_matmul(sq, exact))]
    sq = _int_matmul(exact, exact)
    assert all(x == y or _vp_fraction(x - y, p) > 100 for r, q in zip(sq, exact) for x, y in zip(r, q))
    for i in range(2):
        for j in range(2):
            x, y = out.entry(i, j), exact[i][j]
            assert x.absolute_precision == 31
            assert _fraction_value(x) == y or _vp_fraction(_fraction_value(x) - y, p) >= 31


def _noisy_projection(data, p, n, s, prec, past):
    """The rank r of g [[1, X], [0, 0]] g^-1 (r x r identity), of norm
    p^s > 1, g unimodular and X a block with a denominator p^s; its rows
    as Fractions; its head at precision prec plus noise from the forms
    strategy scaled by p^past; and that noise."""
    r = data.draw(st.integers(1, n - 1))
    units = st.integers(1, p**3).filter(lambda u: u % p)
    block = [[Fraction(data.draw(units), p ** data.draw(st.integers(0, s)))
              for _ in range(n - r)] for _ in range(r)]
    block[0][0] = Fraction(data.draw(units), p**s)
    rows = [[Fraction(int(i == j)) for j in range(r)] + block[i] if i < r else [Fraction(0)] * n
            for i in range(n)]
    g, g_inv = _unimodular(data.draw(st.randoms(use_true_random=False)), n)
    rows = _int_matmul(_int_matmul(g, rows), g_inv)
    noise = {pos: _scaled(v, past) for pos, v in data.draw(forms(p, n, False, False)).head.items()}
    head = {}
    for i in range(n):
        for j in range(n):
            v = Padic.from_fraction(rows[i][j], p, prec)
            if (i, j) in noise:
                v = v + noise[(i, j)]
            if not v.is_exact_zero:
                head[(i, j)] = v
    return r, rows, head, noise


def _scaled_int_idempotent(rows, s, p, depth):
    """p^s e for the idempotent e that e <- 3e^2 - 2e^3 reaches from
    rows / p^s, in plain ints: E <- (3 p^s E^2 - 2 E^3) / p^2s, with E
    known mod p^depth and 2s digits fewer after each of 8 steps, which
    take a defect of valuation 1 past 2^8.  Returns E and its depth."""
    for _ in range(8):
        sq = _int_matmul(rows, rows)
        rows = [[(3 * p**s * x - 2 * y) % p**depth // p ** (2 * s) for x, y in zip(r, q)]
                for r, q in zip(sq, _int_matmul(sq, rows))]
        depth -= 2 * s
    return rows, depth


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_refine_above_norm_one_holds_on_the_precision_ball(data):
    """_refine_form on the conjugated projections of norm p^s > 1 of
    test_rank_matches_a_fraction_rank_oracle, plus noise past valuation
    2s, at precision 4s + 1 to 40.  For a random lift of the input, the
    idempotent that refinement reaches from it, in plain ints, agrees
    with the returned form mod each entry's certified depth (the form,
    since the public operator drops certified zeros).  NoConvergence
    comes only where that depth, read at target 1, is below the target,
    and PreconditionFailed only where the lift has v(d) <= 2s."""
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(2, 5))
    s = data.draw(st.integers(1, 3))
    prec = data.draw(st.integers(4 * s + 1, 40))
    target = data.draw(st.integers(1, 30))
    _, _, head, _ = _noisy_projection(data, p, n, s, prec, 2 * s + 6)
    nf = NormalForm(p, Padic.zero(p), None, head)
    assert nf.norm() == ValuationBound(-s)
    depth = min(x.absolute_precision for x in head.values())
    K = depth + 20 * s + 5
    mod, rnd = p**K, data.draw(st.randoms(use_true_random=False))
    lift = [[0] * n for _ in range(n)]  # p^s times a random lift, mod p^K
    for (i, j), x in head.items():
        base = 0 if x.is_zero else x.unit * pow(p, x.valuation + s, mod)
        lift[i][j] = (base + pow(p, x.absolute_precision + s, mod) * rnd.randrange(mod)) % mod
    sq = _int_matmul(lift, lift)
    defect = [[x - p**s * y for x, y in zip(r, q)] for r, q in zip(sq, lift)]  # p^2s d
    try:
        out, _ = _refine_form(nf, target)
    except PreconditionFailed:
        assert _vanishing_depth(defect, 0, p, K) <= 4 * s
        return
    except NoConvergence:
        try:
            out, _ = _refine_form(nf, 1)
        except NoConvergence:
            return
        assert min(x.absolute_precision for x in out.head.values()) < target
    want, top = _scaled_int_idempotent(lift, s, p, K)
    for i in range(n):
        for j in range(n):
            x = out.entry(i, j)
            got = 0 if x.is_zero else x.unit * p ** (x.valuation + s)
            m = p ** (top if x.absolute_precision is None else x.absolute_precision + s)
            assert (got - want[i][j]) % m == 0, (i, j)


def test_refine_refuses_a_tail_and_an_input_short_of_the_target():
    """A structured tail has no residue window, so refinement raises
    StructureError, as teich refuses one.  [[1, 1/3], [0, 0]] at
    precision 30 knows its 1/3 to 29 absolute digits: target 30 is out
    of reach before any step, and target 20 is met."""
    p = 3
    up = IndexMap(p, lambda j: j + 1, inv=lambda i: i - 1 if i else None, infinite_domain=True)
    with pytest.raises(StructureError):
        idempotent_refine(Sum([up, FiniteMatrix(p, {(0, 0): Padic.one(p)})]))
    a = FiniteMatrix(p, {(0, 0): Padic.one(p, 30), (0, 1): Padic.from_fraction(Fraction(1, 3), p, 30)})
    with pytest.raises(NoConvergence, match="certifies 29 digits"):
        idempotent_refine(a, 30)
    assert op_agree(idempotent_refine(a, 20), a, 20)


def _fraction_inverse(m):
    n = len(m)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def _vp_fraction(q, p):
    if q == 0:
        return None
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


@pytest.mark.parametrize("depth", [1, 16, 30, 32])
def test_newton_schulz_inverse_at_the_contraction_edge(depth):
    """||1 - u|| = p^-1 is the largest norm the equivalence allows and
    the slowest start for the residual, which squares at each step until
    it vanishes to the window's depth."""
    p, n = 3, 4
    rng = random.Random(depth)
    m = [[rng.randrange(p**3) for _ in range(n)] for _ in range(n)]
    m[0][0] = 1
    head = {(i, j): _ball(p, p * v, depth) for i, row in enumerate(m) for j, v in enumerate(row)}
    (window,) = Window.read([NormalForm(p, Padic.zero(p), None, head)])
    u = window.constant(1).sub(window)
    assert u.depth == depth
    x, certified = _newton_schulz_inverse(u)
    assert certified == u.depth
    # the residual 1 - u x that the loop no longer forms
    assert u.mul(x, -1, addend=[(1, u.constant(1))]).vanishes_to(u.depth)
    exact_u = [[Fraction(int(i == j) - p * m[i][j]) for j in range(n)] for i in range(n)]
    exact_inv = _fraction_inverse(exact_u)
    x_mat = [[Fraction(v) for v in row] for row in _residues(x.form().to_operator(), n, depth, p)]
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for prod in (_int_matmul(exact_u, x_mat), _int_matmul(x_mat, exact_u)):
        for i in range(n):
            for j in range(n):
                v = _vp_fraction(prod[i][j] - ident[i][j], p)
                assert v is None or v >= depth
    for i in range(n):
        for j in range(n):
            v = _vp_fraction(x_mat[i][j] - exact_inv[i][j], p)
            assert v is None or v >= depth


# -- equivalence -----------------------------------------------------------


def test_equivalence_conjugates_e_to_f():
    e = fm(3, {(0, 0): 1})
    f = fm(3, {(0, 0): 1, (0, 1): -9})
    w = idempotent_equivalence(e, f)
    assert op_agree(Product([w.u, w.u_inv]), Identity(3), 30)
    assert op_agree(Product([w.u_inv, w.u]), Identity(3), 30)
    assert op_agree(Product([w.u, e, w.u_inv]), f, 30)


def test_equivalence_preconditions():
    e = fm(3, {(0, 0): 1})
    with pytest.raises(PreconditionFailed):
        idempotent_equivalence(FiniteMatrix(3, {}), e)
    with pytest.raises(PreconditionFailed):
        idempotent_equivalence(e, diag(3, [2]))
    # distance 1 is out of reach
    with pytest.raises(PreconditionFailed):
        idempotent_equivalence(e, fm(3, {(1, 1): 1}))


def test_the_form_decides_a_norm_its_window_cannot_read():
    """A zero e reads as a window whose entries all vanish, and a tail has
    no window: there the form's norm decides, in the order it did before
    the window was read first.  A zero e, with or without a tail, is
    refused as zero; a tail of norm below 1 refines to the zero
    idempotent, and a tail of norm 1 raises StructureError."""
    p = 3
    e = fm(p, {(0, 0): 1})
    up = IndexMap(p, lambda j: j + 1, inv=lambda i: i - 1 if i else None, infinite_domain=True)
    zero_up = dataclasses.replace(up, default_coeff=Padic.zero(p))
    for zero in (FiniteMatrix(p, {}), zero_up):
        with pytest.raises(PreconditionFailed, match="e must be a nonzero idempotent"):
            idempotent_equivalence(zero, e)
    with pytest.raises(StructureError):
        idempotent_equivalence(up, e)
    assert idempotent_refine(ScalarMul(Padic.from_int(3, p), up)).entries == {}
    with pytest.raises(StructureError):
        idempotent_refine(up)


# -- projections and splitting ----------------------------------------------


def test_column_projection_single_vector():
    p = 3
    v = PadicVector(p, {0: Padic.one(p), 1: Padic.from_int(3, p)})
    ambient = fm(p, {(0, 0): 1, (1, 1): 1})
    proj = column_projection([v], ambient)
    assert op_agree(Product([proj, proj]), proj, 30)
    image = op_apply(proj, v)
    assert (image - v).entries == {}


def test_column_projection_reduces_pair():
    p = 3
    v1 = PadicVector(p, {0: Padic.one(p), 1: Padic.one(p)})
    v2 = PadicVector(p, {1: Padic.one(p)})
    ambient = fm(p, {(0, 0): 1, (1, 1): 1})
    proj = column_projection([v1, v2], ambient)
    assert op_agree(proj, ambient, 30)


def test_column_projection_failures():
    p = 3
    v = PadicVector(p, {0: Padic.one(p)})
    with pytest.raises(PreconditionFailed):
        column_projection([v], FiniteMatrix(p, {}))


def test_column_projection_spans_past_a_dependent_middle_column():
    p = 3
    v1 = PadicVector(p, {0: Padic.one(p), 1: Padic.from_fraction(Fraction(1, 3), p)})
    v2 = PadicVector(p, {0: Padic.from_int(9, p), 1: Padic.from_int(3, p)})  # 9 * v1
    v3 = PadicVector(p, {0: Padic.one(p), 2: Padic.one(p)})
    ambient = Diagonal(p, {}, Padic.one(p))
    assert column_projection([v1, v2, v3], ambient).entries == \
        column_projection([v1, v3], ambient).entries
    assert column_projection([], ambient).entries == {}
    entries = {(i, j): x for j, v in enumerate([v1, v2, v3]) for i, x in v.entries.items()}
    assert matrix_rank(entries) == 2


def test_split_integral_idempotent_has_no_finite_part():
    e = fm(3, {(0, 0): 1, (1, 1): 1})
    s = idempotent_split(e)
    assert normalize(s.f).head == {}
    assert op_agree(s.g, e, 30)
    assert op_norm(s.g) == ValuationBound(0)


def test_split_exceptional_rank_one():
    # v (x) w with one non-integral column
    e = rank_one(3, [1, 9], [4, Fraction(1 - 4, 9)])
    s = idempotent_split(e)
    assert op_agree(e, Sum([s.f, s.g]), 30)
    assert op_agree(s.f, e, 30)
    assert op_norm(s.g).is_zero or op_norm(s.g) <= ValuationBound(30)
    assert finite_rank_reduce(s.f) == 1


def test_split_mixed_block():
    p = 3
    table = {(0, 0): Fraction(1, 3), (0, 1): Fraction(2, 3),
             (1, 0): Fraction(1, 3), (1, 1): Fraction(2, 3), (2, 2): 1}
    e = fm(p, table)
    s = idempotent_split(e)
    assert op_agree(Sum([s.f, s.g]), e, 30)
    assert op_agree(Product([s.f, s.g]), FiniteMatrix(p, {}), 30)
    assert op_agree(Product([s.g, s.f]), FiniteMatrix(p, {}), 30)
    assert op_norm(s.g) == ValuationBound(0)
    g_head = normalize(s.g).head
    assert all(v.is_integral for v in g_head.values())
    assert (normalize(s.g).entry(2, 2) - Padic.one(p)).vanishes_to(30)
    assert finite_rank_reduce(s.f) == 1


def test_split_rejects_non_idempotent():
    with pytest.raises(PreconditionFailed):
        idempotent_split(diag(3, [2]))


def test_split_reduces_its_columns_once(monkeypatch):
    """The projection's column reduction also finds the independent
    columns; a second reduction of the same columns picked them first.
    And e is normalised once: the projection is built on e's form, with
    no second normalisation to check that e fixes its columns."""
    calls = {"reduce": 0, "normalize": 0}
    reduce_columns, normalize_op = linalg.reduce_columns, operators.normalize

    def counted_reduce(columns):
        calls["reduce"] += 1
        return reduce_columns(columns)

    def counted_normalize(op):
        calls["normalize"] += 1
        return normalize_op(op)

    monkeypatch.setattr(idempotents, "reduce_columns", counted_reduce)
    monkeypatch.setattr(idempotents, "normalize", counted_normalize)
    monkeypatch.setattr(operators, "normalize", counted_normalize)
    p = 3
    e = fm(p, {(0, 0): Fraction(1, 3), (0, 1): Fraction(2, 3),
               (1, 0): Fraction(1, 3), (1, 1): Fraction(2, 3), (2, 2): 1})
    s = idempotent_split(e)
    monkeypatch.undo()
    assert op_agree(Sum([s.f, s.g]), e, 30)
    assert calls == {"reduce": 1, "normalize": 1}


# -- rank --------------------------------------------------------------------


def test_matrix_rank_cases():
    p = 3
    assert matrix_rank({}) == 0
    assert matrix_rank(fm(p, {(0, 0): 1, (1, 1): 1, (2, 2): 1}).entries) == 3
    assert matrix_rank(rank_one(p, [1, 9], [4, Fraction(-1, 3)]).entries) == 1
    dependent = fm(p, {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 6})
    assert matrix_rank(dependent.entries) == 1


def test_finite_rank_reduce():
    p = 3
    assert finite_rank_reduce(FiniteMatrix(p, {})) == 0
    assert finite_rank_reduce(fm(p, {(0, 0): 1, (1, 1): 1})) == 2
    assert finite_rank_reduce(fm(p, {(0, 0): 1, (0, 1): 27})) == 1
    with pytest.raises(PreconditionFailed):
        finite_rank_reduce(Identity(p))
    # d = diag(20, 0, 0): the trace 7 is known mod 2^2, and 3 is the one
    # rank in [0, 3] it allows, although 2^2 <= 3
    assert finite_rank_reduce(diag(2, [5, 1, 1])) == 3
    # one more 1 and the trace 8 allows 0 and 4 (refinement sends 5 to 1
    # and answered 4)
    with pytest.raises(PrecisionExhausted, match=r"ranks \[0, 4\]"):
        finite_rank_reduce(diag(2, [5, 1, 1, 1]))
    # ||a|| = 3^2: v(d) = 5 > 2s = 4, so k = v(d) = 5 and the trace
    # 2 + 3^5 is 2 mod 3^5
    a = fm(p, {(0, 0): 1, (0, 1): Fraction(1, 9), (2, 2): 3**5, (3, 3): 1})
    assert finite_rank_reduce(a) == 2
    # refinement's precondition v(d) > 2s: v(d) = 0 at s = 0, and at s = 1
    # [[1, 1/2], [0, 8]] has d = [[0, 4], [0, 56]], so v(d) = 2
    with pytest.raises(PreconditionFailed):
        finite_rank_reduce(diag(3, [2]))
    with pytest.raises(PreconditionFailed, match="valuation 2 must exceed 2"):
        finite_rank_reduce(fm(2, {(0, 0): 1, (0, 1): Fraction(1, 2), (1, 1): 8}))
    assert finite_rank_reduce(fm(2, {(0, 0): 1, (0, 1): Fraction(1, 2), (1, 1): 16})) == 1
    # with I_3 beside it the trace 20 is known mod 2^v(d) = 2^3, which
    # leaves 4 alone; mod 2^(v(d) - s) = 2^2 it allowed 0 and 4
    a = fm(2, {(0, 0): 1, (0, 1): Fraction(1, 2), (1, 1): 16, (2, 2): 1, (3, 3): 1, (4, 4): 1})
    assert finite_rank_reduce(a) == 4
    # a diagonal zero certified to depth bounds the window, so the trace 4
    # is known mod 2^depth (the refined head dropped the zero and answered
    # 4 at depth 2 from 40 digits it did not have)
    def four_ones_and_a_zero(depth):
        head = {(i, i): Padic.one(2) for i in range(4)}
        return NormalForm(2, Padic.zero(2), None, {**head, (4, 4): Padic.zero(2, depth)})

    with pytest.raises(PrecisionExhausted):
        _form_rank(four_ones_and_a_zero(2))
    assert _form_rank(four_ones_and_a_zero(3)) == 4


def test_rank_neither_refines_nor_eliminates(monkeypatch):
    """The K0 rank is a trace on one residue window: c12 and a trivialize
    transcript with non-integral columns run with the refinement loop
    and the column reduction refusing, except for the one reduction of
    the split's column projection."""
    reduce_columns = linalg.reduce_columns

    def refuse(*args, **kwargs):
        raise AssertionError("the rank path refined or eliminated")

    monkeypatch.setattr(idempotents, "_refine", refuse)
    monkeypatch.setattr(linalg, "reduce_columns", refuse)
    monkeypatch.setattr(idempotents, "reduce_columns", refuse)
    assert _c12_rank_invariance(ExperimentConfig()) == (
        True, "50 conjugated projections, ranks recovered exactly")
    calls = []

    def split_only(columns):
        calls.append(1)
        return reduce_columns(columns)

    monkeypatch.setattr(idempotents, "reduce_columns", split_only)
    e = fm(3, {(0, 0): Fraction(1, 3), (0, 1): Fraction(2, 3),
               (1, 0): Fraction(1, 3), (1, 1): Fraction(2, 3), (2, 2): 1})
    assert k0_trivialize(e)["classes"] == {"finite_rank": 1, "contractive": 0}
    assert len(calls) == 1


def _fraction_rank(rows):
    """The rank over Q of a matrix of Fractions, by plain elimination."""
    rows, rank = [row[:] for row in rows], 0
    for c in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _scaled(x, k):
    """p^k x, built directly: a certified zero's bound moves by k too."""
    if x.is_zero:
        return Padic.zero(x.prime, x.precision + k)
    return Padic(x.prime, x.valuation + k, x.unit, x.precision)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rank_matches_a_fraction_rank_oracle(data):
    """finite_rank_reduce on conjugated projections g [[1, X], [0, 0]] g^-1
    of norm p^s > 1, g unimodular and X a block with a denominator p^s, plus
    noise from the forms strategy scaled past valuation 3s: then
    v(d) > 2s, refinement's precondition.  Let q be the least noise
    valuation or absolute precision of an entry, so v(d) >= q - s and the
    trace is known mod p^(q - s) at least.  The rank equals the oracle's,
    and is refused only where p^(q - s) <= n leaves several ranks
    possible."""
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(2, 5))
    s = data.draw(st.integers(1, 3))
    prec = data.draw(st.integers(4 * s + 1, 4 * s + 6))
    r, rows, head, noise = _noisy_projection(data, p, n, s, prec, 3 * s + 6)
    q = min([x.absolute_precision for x in head.values()]
            + [x.precision if x.is_zero else x.valuation for x in noise.values()])
    want = _fraction_rank(rows)
    assert want == r
    for call in (lambda: finite_rank_reduce(FiniteMatrix(p, head)),
                 lambda: _form_rank(NormalForm(p, Padic.zero(p), None, head))):
        try:
            assert call() == want
        except PrecisionExhausted:
            assert p ** (q - s) <= n


# -- sum ring ------------------------------------------------------------------


def test_cantor_pairing_bijection():
    seen = set()
    for block in range(10):
        for offset in range(10):
            x = cantor_pair(block, offset)
            assert cantor_unpair(x) == (block, offset)
            seen.add(x)
    assert len(seen) == 100
    assert sorted(x for x in seen if x < 55) == list(range(55))
    assert cantor_unpair(cantor_pair(7, 2))[0] == 7


def test_sum_ring_generator_relations():
    gens = sum_ring_generators(3)
    for x in range(40):
        delta = PadicVector.basis(3, x)
        back = op_apply(gens.first_to_all, op_apply(gens.all_to_first, delta))
        assert (back - delta).entries == {}
        shifted = op_apply(gens.down, op_apply(gens.up, delta))
        assert (shifted - delta).entries == {}
        both = (op_apply(gens.all_to_first, op_apply(gens.first_to_all, delta))
                + op_apply(gens.up, op_apply(gens.down, delta)))
        assert (both - delta).entries == {}
    # the spread-out copy lands outside the zeroth block
    moved = op_apply(gens.up, PadicVector.basis(3, 0))
    assert op_apply(gens.first_to_all, moved).entries == {}


def test_infinite_sum_finite_input():
    p = 3
    a = fm(p, {(0, 0): 1, (0, 1): 2})
    out = infinite_sum(a, 2)
    assert isinstance(out, FiniteMatrix)
    want = {}
    for n in range(3):
        want[(cantor_pair(n, 0), cantor_pair(n, 0))] = 1
        want[(cantor_pair(n, 0), cantor_pair(n, 1))] = 2
    assert {k: v.residue(5) for k, v in out.entries.items()} == want


def test_infinite_sum_structural_input():
    spread = infinite_sum(Diagonal(3, {}, Padic.one(3)), 3)
    assert isinstance(spread, Sum)
    for block, offset in ((0, 0), (2, 1), (3, 4)):
        x = cantor_pair(block, offset)
        got = op_apply(spread, PadicVector.basis(3, x))
        assert (got - PadicVector.basis(3, x)).entries == {}
    outside = cantor_pair(4, 0)
    assert op_apply(spread, PadicVector.basis(3, outside)).entries == {}


def test_infinite_sum_norm_gate():
    with pytest.raises(PreconditionFailed):
        infinite_sum(fm(3, {(0, 0): Fraction(1, 3)}), 2)


# -- trivialization ------------------------------------------------------------


def test_k0_transcript_zero_input():
    out = k0_trivialize(FiniteMatrix(3, {}))
    assert out == {"zero_input": True, "classes": {"finite_rank": 0, "contractive": 0}}


def test_k0_transcript_integral_idempotent():
    out = k0_trivialize(fm(3, {(0, 0): 1}))
    assert out["zero_input"] is False
    assert out["split"]["finite_part_rank"] == 0
    assert out["classes"] == {"finite_rank": 0, "contractive": 0}
    rel = out["contractive_part"]["sum_ring_relations_on_prefix"]
    assert rel == {"left_inverse_first": True, "left_inverse_shift": True,
                   "partition_of_identity": True}
    assert out["contractive_part"]["repeat_equation_on_prefix"] is True


def test_k0_transcript_exceptional_idempotent():
    e = rank_one(3, [1, 9], [4, Fraction(1 - 4, 9)])
    out = k0_trivialize(e)
    assert out["classes"]["finite_rank"] == 1
    assert out["finite_part"]["diagonal_form"] == [[0, 0, "1"]]
    assert out["split"]["contractive_part_norm_exponent"] == "inf"


def test_k0_normalizes_as_often_at_any_prefix(monkeypatch):
    """Each operator is normalised once however many basis vectors the
    relations and the repeat equation are checked on; normalising at
    every application made 15 calls a prefix vector."""
    e = rank_one(3, [1, 9], [4, Fraction(1 - 4, 9)])
    counts = {}
    for prefix in (4, 16):
        calls = []
        original = operators.normalize

        def counted(op):
            calls.append(1)
            return original(op)

        monkeypatch.setattr(operators, "normalize", counted)
        monkeypatch.setattr(idempotents, "normalize", counted)
        out = k0_trivialize(e, prefix=prefix)
        monkeypatch.undo()
        assert out["contractive_part"]["repeat_equation_on_prefix"] is True
        counts[prefix] = len(calls)
    assert counts[4] == counts[16]


def test_k0_trivialize_normalizes_g_once(monkeypatch):
    """One trivialize answer normalises the input, the split's g once
    (the spread and the repeat check share its form) and the spread:
    normalising g in infinite_sum and again in the repeat check made
    four calls."""
    e = rank_one(3, [1, 9], [4, Fraction(1 - 4, 9)])
    calls = []
    original = operators.normalize

    def counted(node):
        calls.append(node)
        return original(node)

    monkeypatch.setattr(operators, "normalize", counted)
    monkeypatch.setattr(idempotents, "normalize", counted)
    out = k0_trivialize(e)
    monkeypatch.undo()
    g = idempotent_split(e).g
    assert len(calls) == 3 and calls[0] is e
    assert calls[1] == g
    assert calls[2] == infinite_sum(g, out["contractive_part"]["spread_depth"])
    assert out["contractive_part"]["repeat_equation_on_prefix"] is True


def _generators_with(**maps):
    """The sum-ring generators over 3 with some maps replaced."""
    return dataclasses.replace(sum_ring_generators(3), **maps)


def test_relation_checks_read_the_index_maps():
    gens = sum_ring_generators(3)
    assert all(_relation_checks(gens, 16, 30).values())

    def one_block_off(x):
        # down lands in block n - 2, not n - 1
        n, i = cantor_unpair(x)
        return cantor_pair(n - 2, i) if n >= 2 else None

    bad = _generators_with(down=dataclasses.replace(gens.down, dest=one_block_off))
    assert _relation_checks(bad, 16, 30) == {
        "left_inverse_first": True, "left_inverse_shift": False,
        "partition_of_identity": False}
    # a coefficient that differs from 1 at one column is not the identity
    odd = _generators_with(up=dataclasses.replace(gens.up, coeff={0: Padic.from_int(2, 3)}))
    assert _relation_checks(odd, 16, 30) == {
        "left_inverse_first": True, "left_inverse_shift": False,
        "partition_of_identity": False}


def test_relations_state_only_the_digits_the_coefficients_carry(monkeypatch):
    # coefficients 1 + O(3^5) do not agree with 1 to the target 30
    gens = sum_ring_generators(3)
    five = Padic.from_int(1, 3, 5)
    coarse = _generators_with(**{name: dataclasses.replace(getattr(gens, name), default_coeff=five)
                                 for name in ("first_to_all", "all_to_first", "up", "down")})
    monkeypatch.setattr(idempotents, "sum_ring_generators", lambda prime: coarse)
    rel = k0_trivialize(fm(3, {(0, 0): 1}), 30)["contractive_part"]["sum_ring_relations_on_prefix"]
    assert rel == {"left_inverse_first": False, "left_inverse_shift": False,
                   "partition_of_identity": False}


def test_k0_transcript_applies_only_g_and_its_spread(monkeypatch):
    """For a finite g, trivialize applies forms at most twice per prefix
    vector besides the split's column reads, and never a sum-ring
    generator: no applied form has a structured tail."""
    e = rank_one(3, [1, 9], [4, Fraction(1 - 4, 9)])
    applied, columns = [], []
    apply, column = NormalForm.apply, NormalForm.column

    def counted_apply(self, vec):
        applied.append(self)
        return apply(self, vec)

    def counted_column(self, j):
        columns.append(j)
        return column(self, j)

    monkeypatch.setattr(NormalForm, "apply", counted_apply)
    monkeypatch.setattr(NormalForm, "column", counted_column)
    out = k0_trivialize(e, prefix=16)
    assert out["contractive_part"]["repeat_equation_on_prefix"] is True
    assert columns
    assert len(applied) - len(columns) <= 2 * 16
    assert all(nf.tail is None for nf in applied)


def _spread_depth(prefix):
    """The spread depth k0_trivialize takes for a prefix."""
    return max(cantor_unpair(x)[0] for x in range(prefix)) + 1


def _counted_appliers(monkeypatch):
    """The operators the repeat check builds an applier for."""
    built = []
    original = idempotents._applier

    def counted(op):
        built.append(op)
        return original(op)

    monkeypatch.setattr(idempotents, "_applier", counted)
    return built


def test_repeat_check_reads_columns_and_applies_only_a_lazy_spread(monkeypatch):
    """A finite g and its spread are read column by column; a g with a
    shift has a normal form, but its lazy spread has none and is the
    one operator applied to basis vectors."""
    gens, prefix = sum_ring_generators(3), 16
    finite = fm(3, {(0, 0): 3, (1, 0): 9, (1, 1): 6})
    shifted = Diagonal(3, {0: Padic.from_int(3, 3), 2: Padic.from_int(9, 3)}, Padic.from_int(9, 3))
    for g, applied in ((finite, 0), (shifted, 1)):
        built = _counted_appliers(monkeypatch)
        spread = infinite_sum(g, _spread_depth(prefix))
        assert idempotents._repeat_equation_ok(g, spread, gens, prefix, 30, normalize(g)) is True
        assert built == [spread] * applied
        monkeypatch.undo()


def test_repeat_check_refuses_a_spread_with_one_entry_moved(monkeypatch):
    """Moving one entry of the spread to another row breaks the repeat
    equation, on the column path and on the apply path alike."""
    gens, prefix = sum_ring_generators(3), 16
    depth = _spread_depth(prefix)
    # column path: a finite g, the entry at (x, x) of block 1 moved down
    finite = fm(3, {(0, 0): 3, (1, 0): 9, (1, 1): 6})
    entries = dict(infinite_sum(finite, depth).entries)
    x = cantor_pair(1, 0)
    entries[(x + 100, x)] = entries.pop((x, x))
    built = _counted_appliers(monkeypatch)
    assert idempotents._repeat_equation_ok(finite, FiniteMatrix(3, entries), gens, prefix, 30,
                                           normalize(finite)) is False
    assert built == []
    monkeypatch.undo()
    # apply path: a g with a shift, its entry at (0, 0) moved to (1, 0)
    shifted = Diagonal(3, {0: Padic.from_int(3, 3)}, Padic.from_int(9, 3))
    three, spread = Padic.from_int(3, 3), infinite_sum(shifted, depth)
    assert idempotents._repeat_equation_ok(shifted, spread, gens, prefix, 30, normalize(shifted)) is True
    moved = Sum([spread, FiniteMatrix(3, {(0, 0): -three, (1, 0): three})])
    built = _counted_appliers(monkeypatch)
    assert idempotents._repeat_equation_ok(shifted, moved, gens, prefix, 30, normalize(shifted)) is False
    assert built == [moved]


def test_apply_is_one_product(monkeypatch):
    nf = normalize(Sum([fm(3, {(0, 1): 2, (2, 0): 5}), sum_ring_generators(3).up]))
    vec = PadicVector(3, {0: Padic.from_int(7, 3), 1: Padic.from_int(4, 3)})
    calls = []
    mul = NormalForm.mul

    def counted(self, other, *args, **kwargs):
        calls.append(1)
        return mul(self, other, *args, **kwargs)

    monkeypatch.setattr(NormalForm, "mul", counted)
    out = nf.apply(vec)
    assert len(calls) == 1
    up = sum_ring_generators(3).up.dest
    want = {2: 35, 0: 8, up(0): 7, up(1): 4}
    assert {i: v.residue(40) for i, v in out.entries.items()} == want


def test_k0_transcript_identity_component():
    out = k0_trivialize(Diagonal(3, {}, Padic.one(3)))
    assert out["zero_input"] is False
    assert out["classes"] == {"finite_rank": 0, "contractive": 0}
    assert out["contractive_part"]["repeat_equation_on_prefix"] is True
    assert out["contractive_part"]["spread_depth"] >= 1


# -- lifting ---------------------------------------------------------------------


def test_lift_near_idempotent_diagonal():
    a = Diagonal(3, {0: Padic.from_int(28, 3)})
    e = idempotent_lift(a)
    assert op_agree(Product([e, e]), e, 30)
    assert is_compact(e - a)
    assert (normalize(e).entry(0, 0) - Padic.one(3)).vanishes_to(30)


def test_lift_identity_is_own_lift():
    e = idempotent_lift(Identity(3))
    assert op_agree(e, Identity(3), 30)


def test_lift_preconditions_and_budget():
    with pytest.raises(PreconditionFailed):
        idempotent_lift(fm(3, {(0, 0): Fraction(1, 3)}))
    # 2I has defect 2I, which is nowhere near compact
    with pytest.raises(PreconditionFailed):
        idempotent_lift(ScalarMul(Padic.from_int(2, 3), Identity(3)))
    # budget is ignored: the Teichmuller lift of 2 has order 4 mod 5, which
    # a search of two powers missed, and its lift is E_00
    t = teichmuller(Padic.from_int(2, 5))
    e = idempotent_lift(Diagonal(5, {0: t}), budget=2)
    assert op_agree(e, FiniteMatrix(5, {(0, 0): Padic.one(5)}), 30)


def _window(rows, p):
    return FiniteMatrix(p, {(i, j): Padic.from_int(v, p) for i, row in enumerate(rows)
                            for j, v in enumerate(row) if v})


def test_lift_of_a_matrix_of_order_80_is_the_window_identity():
    # the companion of x^4 + x + 2, irreducible mod 3: its reduction has
    # order 3^4 - 1, past any power pair a search of 64 reaches
    rows = [[0, 0, 0, -2], [1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]]
    e = idempotent_lift(_window(rows, 3), 30)
    assert op_agree(e, FiniteMatrix(3, {(i, i): Padic.one(3) for i in range(4)}), 30)


def test_lift_of_a_jordan_block_takes_one_frobenius_step():
    # a^2 - a is a unit off the diagonal, and a mod 3 has a nilpotent part
    # that a^3 = [[1, 3], [0, 1]] has lost
    rows = [[1, 1], [0, 1]]
    (w,) = Window.read([normalize(_window(rows, 3))])
    assert _frobenius_cap(w) == 1
    e = idempotent_lift(_window(rows, 3), 30)
    assert op_agree(e, FiniteMatrix(3, {(0, 0): Padic.one(3), (1, 1): Padic.one(3)}), 30)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(min_value=1, max_value=5), st.data())
def test_lift_is_the_fitting_idempotent_mod_p(p, n, data):
    """Any integral window lifts, to the idempotent among the powers of
    a mod p, which a plain-int cycle search finds."""
    entry = st.integers(min_value=-9, max_value=9)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    a = _window(rows, p)
    e = idempotent_lift(a, 30)
    assert op_agree(Product([e, e]), e, 30)
    assert is_compact(e - a)
    nf = normalize(e)
    assert [[nf.entry(i, j).residue(1) for j in range(n)] for i in range(n)] == (
        _fitting_idempotent_mod_p(rows, p))


def test_lift_whose_defect_has_no_normal_form_is_undecidable():
    # a tail with an override but no inverse certificate: a.a has no
    # normal form, which once escaped the search as a StructureError
    a = IndexMap(3, lambda j: j + 1, {0: Padic.from_int(3, 3)}, Padic.zero(3),
                 infinite_domain=True)
    with pytest.raises(Undecidable):
        idempotent_lift(a)


def test_refine_and_equivalence_at_target_60():
    # a target above 40 is met on precision-80 inputs: no constant of
    # the iterations is written at 40
    p, prec, target = 3, 80, 60
    a = Diagonal(p, {0: Padic.from_int(28, p, prec), 1: Padic.from_int(27, p, prec)})
    e = idempotent_refine(a, target)
    assert normalize(e).entry(0, 0) == Padic.one(p, prec)
    assert op_agree(Product([e, e]), e, target)
    e = FiniteMatrix(p, {(0, 0): Padic.one(p, prec)})
    f = FiniteMatrix(p, {(0, 0): Padic.one(p, prec), (0, 1): Padic.from_int(-9, p, prec)})
    witness = idempotent_equivalence(e, f, target)
    assert op_agree(Product([witness.u, e, witness.u_inv]), f, target)
    assert op_agree(Product([witness.u, witness.u_inv]), Identity(p, prec), target)


# -- the residue path: contractions refine, lift and invert mod p^N ----------


def _ball(p, value, top):
    """value + O(p^top) as a Padic: a zero certified to top when value
    vanishes there."""
    return Padic.from_unit(p, 0, value, top)


def _lift(rng, x, depth):
    """A random point of the ball x mod p^depth: x's digits, then random
    digits past its absolute precision; an exact zero stays 0."""
    top = x.absolute_precision
    if top is None:
        return 0
    base = 0 if x.is_zero else x.unit * x.prime**x.valuation
    return (base + x.prime**top * rng.randrange(x.prime ** (depth - top))) % x.prime**depth


def _window_of(rng, nf, n, depth):
    """A random point of the ball of a tail-free form: its n x n window,
    the shift on the diagonal, and the shift, in plain ints mod p^depth."""
    shift = _lift(rng, nf.shift, depth)
    rows = [[shift if i == j else 0 for j in range(n)] for i in range(n)]
    for (i, j), x in nf.head.items():
        rows[i][j] = (rows[i][j] + _lift(rng, x, depth)) % nf.prime**depth
    return rows, shift


def _int_idempotent(rows, shift, mod):
    """The idempotent that e <- 3e^2 - 2e^3 reaches from (rows, shift),
    iterated in plain ints mod mod until it is fixed."""
    while True:
        sq = _int_matmul(rows, rows)
        new = [[(3 * x - 2 * y) % mod for x, y in zip(r, q)]
               for r, q in zip(sq, _int_matmul(sq, rows))]
        new_shift = (3 * shift**2 - 2 * shift**3) % mod
        if (new, new_shift) == (rows, shift):
            return rows, shift
        rows, shift = new, new_shift


def _int_inverse(rows, shift, mod):
    """u^-1 for u = 1 mod p, by x <- x(2 - ux) in plain ints mod mod."""
    n = len(rows)
    x, xs = [[int(i == j) for j in range(n)] for i in range(n)], 1
    while True:
        ux = _int_matmul(rows, x)
        two = [[(2 * int(i == j) - v) for j, v in enumerate(r)] for i, r in enumerate(ux)]
        new, new_s = _int_matmul(x, two, mod), xs * (2 - shift * xs) % mod
        if (new, new_s) == (x, xs):
            return x, xs
        x, xs = new, new_s


def _certified_window(nf, n, depth, exact_zeros=False):
    """The window and shift of a form mod p^depth, asserting that every
    entry is certified to exactly depth; with exact_zeros, an entry that
    a public operator dropped as zero reads as 0."""
    values = [[nf.entry(i, j) for j in range(n)] for i in range(n)]
    for x in [nf.shift, *(v for row in values for v in row)]:
        if not (exact_zeros and x.is_exact_zero):
            assert x.absolute_precision == depth
    return [[v.residue(depth) for v in row] for row in values], nf.shift.residue(depth)


def _idempotent_rows(rng, p, n):
    """An integer idempotent u diag(1..1, 0..0) u^-1 of rank >= 1."""
    u, u_inv = _unimodular(rng, n)
    r = rng.randint(1, n)
    d = [[int(i == j and i < r) for j in range(n)] for i in range(n)]
    return _int_matmul(_int_matmul(u, d), u_inv)


def _vanishing_depth(rows, shift, p, depth):
    """The least valuation over a window and its shift, at most depth."""
    m = p**depth
    return min([depth] + [_vp_fraction(Fraction(v % m), p) for v in (shift, *sum(rows, []))
                          if v % m])


@settings(max_examples=90, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(min_value=2, max_value=4),
       st.sampled_from(["refine", "lift", "equiv"]), st.integers(min_value=4, max_value=12),
       st.randoms(use_true_random=False))
def test_residue_path_holds_on_the_precision_ball(p, n, routine, target, rng):
    """Refine, lift and equiv on integral inputs whose entries carry
    uneven absolute precision, certified zeros among them.  Every output
    entry is certified to exactly N, the least input precision.  Both
    iterations run to their fixed point mod p^N, so the output's own
    defect e^2 - e (or 1 - u u^-1) vanishes mod p^N, and for a random
    point of the input ball the exact idempotent (or u^-1), iterated in
    plain ints mod p^K with K above every input precision, agrees with
    the output mod p^N.  The equivalence derives u^-1 u = 1 and
    u e u^-1 = f instead of forming them, so both are recomputed here,
    mod p^N in plain ints."""
    e = _idempotent_rows(rng, p, n)
    tops = [[rng.randint(target, target + 8) for _ in range(n)] for _ in range(n)]
    K = target + 20
    mod = p**K

    def near(rows):
        return [[v + p * rng.randrange(-p * p, p * p + 1) for v in row] for row in rows]

    def ball_form(rows, shift_top=None):
        head = {(i, j): _ball(p, v, tops[i][j]) for i, row in enumerate(rows)
                for j, v in enumerate(row)}
        shift = Padic.zero(p) if shift_top is None else Padic.zero(p, shift_top)
        return NormalForm(p, shift, None, head)

    def least_top(*forms):
        return min(x.absolute_precision for nf in forms for x in [nf.shift, *nf.head.values()]
                   if x.absolute_precision is not None)

    shift_top = rng.choice([None, target + 3])
    if routine == "refine":
        # a form-level input keeps its certified zeros in the head
        nf = ball_form(near(e), shift_top)
        out, _ = _refine_form(nf, target)
        depth = least_top(nf)
        got = [_certified_window(out, n, depth)]
        want = [_int_idempotent(*_window_of(rng, nf, n, K), mod)]
    elif routine == "lift":
        # an operator's head drops its zeros; its shift keeps one certified
        a = Sum([FiniteMatrix(p, ball_form(near(e)).head),
                 Diagonal(p, {}, ball_form(e, shift_top).shift)])
        nf = normalize(a)
        depth = least_top(nf)
        got = [_certified_window(normalize(idempotent_lift(a, target)), n, depth, True)]
        want = [_int_idempotent(*_window_of(rng, nf, n, K), mod)]
    else:
        # f = g e g^-1 with g = 1 + p E_ij, so f = e mod p
        i, j = rng.sample(range(n), 2)
        g = [[int(r == c) + p * ((r, c) == (i, j)) for c in range(n)] for r in range(n)]
        g_inv = [[int(r == c) - p * ((r, c) == (i, j)) for c in range(n)] for r in range(n)]
        ops = [FiniteMatrix(p, ball_form(rows).head)
               for rows in (e, _int_matmul(_int_matmul(g, e), g_inv))]
        forms = [normalize(op) for op in ops]
        depth = least_top(*forms)
        witness = idempotent_equivalence(*ops, target)
        got = [_certified_window(normalize(op), n, depth, True) for op in (witness.u, witness.u_inv)]
        (er, _), (fr, _) = (_window_of(rng, nf, n, K) for nf in forms)
        fe = _int_matmul(fr, er)
        u = [[(int(r == c) - fr[r][c] - er[r][c] + 2 * fe[r][c]) % mod for c in range(n)]
             for r in range(n)]
        want = [(u, 1), _int_inverse(u, 1, mod)]
    if routine == "equiv":
        (u, _), (inv, inv_shift) = got
        ident = [[int(r == c) for c in range(n)] for r in range(n)]
        gap = [[x - y for x, y in zip(r, q)] for r, q in zip(_int_matmul(u, inv), ident)]
        v = _vanishing_depth(gap, inv_shift - 1, p, depth)
        # er and fr: the random point of the input ball drawn above
        m = p**depth
        assert _int_matmul(inv, u, m) == _int_matmul(ident, ident, m)
        assert _int_matmul(_int_matmul(u, er), inv, m) == _int_matmul(fr, ident, m)
    else:
        ((rows, shift),) = got
        gap = [[x - y for x, y in zip(r, q)] for r, q in zip(_int_matmul(rows, rows), rows)]
        v = _vanishing_depth(gap, shift**2 - shift, p, depth)
    assert v == depth >= target
    m = p**depth
    for (rows, shift), (want_rows, want_shift) in zip(got, want):
        assert [[x % m for x in row] for row in rows] == [[x % m for x in row] for row in want_rows]
        assert shift % m == want_shift % m


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_equivalence_above_norm_one_holds_on_the_precision_ball(data):
    """idempotent_equivalence on a pair of norm p^s > 1: e = l (e0 + h)
    and f = l f0, f0 = g e0 g^-1, with e0 the conjugated projection of
    _noisy_projection and h its noise, g = 1 + p^(2s+1) E_ij and
    l = 1 + p^c.  Then e^2 - e and f^2 - f have valuation c - s exactly,
    so the defects bound p^s (u e u^-1 - f) by p^(c - 2s), and the
    conjugation is derived when c >= target + 2s and formed when
    target + s <= c < target + 2s (the idempotency checks need
    c >= target + s).  On both sides the answer holds: p^s (ue - fu) =
    p^s (l^2 - l)(f0 - e0 - 2l f0 h) + (2F - p^s)(e^2 - e - (l^2 - l) e0)
    vanishes to target + s.  u and u^-1 are certified to exactly N - s,
    N the least absolute precision of e and f; for a random lift of the
    input, the exact u and its inverse, in plain ints, agree with them
    there, u u^-1 = u^-1 u = 1 mod p^(N - s), and
    p^s (u e u^-1 - f) = 0 mod p^(target + s).  A third side reads the
    pair at N < target + 2s: the bound falls short, and the formed
    product, known only mod p^(N - s), refuses as it always did."""
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(2, 4))
    s = data.draw(st.integers(1, 2))
    target = data.draw(st.integers(4, 12))
    side = data.draw(st.sampled_from(["derived", "formed", "refused"]))
    if side == "derived":
        c = target + 2 * s + data.draw(st.integers(0, 3))
    else:
        c = target + s + data.draw(st.integers(0, s - 1))
    if side == "refused":
        prec = target + 2 * s + data.draw(st.integers(0, s - 1))
    else:
        prec = c + 3 * s + data.draw(st.integers(1, 5))
    # the noise has valuation at least past - 5: above c and target + 2s
    past = max(c + 1, target + 2 * s) + 5 + data.draw(st.integers(0, 3))
    _, rows, _, noise = _noisy_projection(data, p, n, s, prec, past)
    i, j = data.draw(st.permutations(range(n)))[:2]
    t = 2 * s + 1
    g = [[Fraction(int(r == k) + p**t * ((r, k) == (i, j))) for k in range(n)] for r in range(n)]
    g_inv = [[Fraction(int(r == k) - p**t * ((r, k) == (i, j))) for k in range(n)] for r in range(n)]
    lam = 1 + p**c
    heads = [{}, {}]
    for which, table in enumerate((rows, _int_matmul(_int_matmul(g, rows), g_inv))):
        for r in range(n):
            for k in range(n):
                v = Padic.from_fraction(lam * table[r][k], p, prec)
                if which == 0 and (r, k) in noise:
                    v = v + Padic.from_fraction(Fraction(lam), p, prec) * noise[(r, k)]
                if not v.is_exact_zero:
                    heads[which][(r, k)] = v
    ops = [FiniteMatrix(p, head) for head in heads]
    forms = [normalize(op) for op in ops]
    depth = min(x.absolute_precision for nf in forms for x in nf.head.values()) - s
    assert (depth >= target + s) == (side != "refused")

    formed = []
    mul = Window.mul

    def spied(self, other, *args, **kwargs):
        # u E is the only window product with no addend
        formed.append(not args and not kwargs.get("addend"))
        return mul(self, other, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Window, "mul", spied)
        if side == "refused":
            with pytest.raises(CertificationFailed, match="conjugation does not carry e to f"):
                idempotent_equivalence(*ops, target)
            assert any(formed)
            return
        witness = idempotent_equivalence(*ops, target)
    assert any(formed) == (side == "formed")
    (u, _), (inv, _) = (_certified_window(normalize(op), n, depth, True)
                        for op in (witness.u, witness.u_inv))

    K = depth + 2 * s + 20
    mod, rnd = p**K, data.draw(st.randoms(use_true_random=False))

    def scaled_lift(nf):
        # p^s times a random lift of nf, mod p^K
        out = [[0] * n for _ in range(n)]
        for (r, k), x in nf.head.items():
            base = 0 if x.is_zero else x.unit * pow(p, x.valuation + s, mod)
            out[r][k] = (base + pow(p, x.absolute_precision + s, mod) * rnd.randrange(mod)) % mod
        return out

    big_e, big_f = (scaled_lift(nf) for nf in forms)
    fe = _int_matmul(big_f, big_e)
    w = [[p**s * (x + y) - 2 * z for x, y, z in zip(re, rf, rz)]
         for re, rf, rz in zip(big_e, big_f, fe)]  # p^2s (1 - u)
    assert all(x % p ** (2 * s) == 0 for row in w for x in row)
    top = p ** (K - 2 * s)
    exact_u = [[(int(r == k) - w[r][k] // p ** (2 * s)) % top for k in range(n)] for r in range(n)]
    exact_inv, _ = _int_inverse(exact_u, 1, top)
    m = p**depth
    for got, want in ((u, exact_u), (inv, exact_inv)):
        assert [[x % m for x in row] for row in got] == [[x % m for x in row] for row in want]
    ident = [[int(r == k) for k in range(n)] for r in range(n)]
    assert _int_matmul(u, inv, m) == _int_matmul(inv, u, m) == ident
    q = p ** (target + s)
    assert _int_matmul(_int_matmul(u, big_e), inv, q) == [[x % q for x in row] for row in big_f]


def _two_pieces(p, top00):
    """diag(1 + p^3, p^3) with entry (0, 0) at top00 absolute digits."""
    head = {(0, 0): _ball(p, 1 + p**3, top00), (1, 1): Padic.from_int(p**3, p, 40)}
    return NormalForm(p, Padic.zero(p), None, head)


def test_refine_certifies_to_the_least_input_precision():
    """One entry at 25 absolute digits: the whole answer is certified to
    exactly 25 at target 20, zeros and shift included, and target 30 is
    out of reach.  (The tracked path answered target 30 here: each
    defect entry that vanished to 25 was dropped from the head and then
    read as an exact zero, hole A of ROADMAP item 2.)  The input is
    diagonal, so its two entries are two 1 x 1 blocks: the answer holds
    those two, and its cross positions are exact zeros, as they are in
    every lift of the input."""
    p = 3
    e, _ = _refine_form(_two_pieces(p, 25), 20)
    assert list(e.head) == [(0, 0), (1, 1)]
    assert {x.absolute_precision for x in [e.shift, *e.head.values()]} == {25}
    assert e.head[(0, 0)].residue(25) == 1
    with pytest.raises(NoConvergence):
        _refine_form(_two_pieces(p, 25), 30)
    # a 25-digit shift ends the same way
    a = Diagonal(p, {0: Padic.from_int(28, p, 40), 1: Padic.from_int(27, p, 40)},
                 Padic.from_int(1, p, 25))
    assert op_agree(idempotent_refine(a, 20), Diagonal(p, {1: Padic.zero(p)}, Padic.one(p)), 20)
    with pytest.raises(NoConvergence):
        idempotent_refine(a, 30)


def test_residue_path_certifies_nothing_past_its_inputs():
    """Two reproductions of hole A (ROADMAP item 2) that the tracked path
    answered: a precision-40 diagonal refined at target 60, and a lift
    of O(3^5) I + E_00 at target 6.  On residues neither has the digits."""
    d = Diagonal(3, {0: Padic.from_int(28, 3), 1: Padic.from_int(27, 3)})
    with pytest.raises(NoConvergence):
        idempotent_refine(d, 60)
    a = Sum([ScalarMul(Padic.zero(3, 5), Identity(3)), FiniteMatrix(3, {(0, 0): Padic.one(3)})])
    with pytest.raises(NoConvergence):
        idempotent_lift(a, 6)
    e = idempotent_lift(a, 5)
    assert normalize(e).head == {(0, 0): Padic.one(3, 5)}


def test_exact_zero_refines_and_lifts_to_the_zero_idempotent():
    zero = FiniteMatrix(3, {})
    e, defects = _refine_form(normalize(zero), 30)
    assert e.shift.is_exact_zero and e.head == {} and defects == []
    assert idempotent_refine(zero).entries == {}
    assert idempotent_lift(zero).entries == {}


def test_window_reads_and_writes_at_the_least_precision():
    p = 3
    nf = NormalForm(p, Padic.one(p, 30), None,
                    {(0, 1): Padic.from_int(5 * 9, p, 40), (1, 0): Padic.zero(p, 33)})
    (w,) = Window.read([nf])
    assert (w.depth, w.rows, w.shift) == (30, [[1, 45], [0, 1]], 1)
    back = w.form()
    assert back.shift == Padic.one(p, 30)
    assert back.head == {(0, 0): Padic.zero(p, 30), (0, 1): Padic.from_unit(p, 2, 5, 28),
                         (1, 0): Padic.zero(p, 30), (1, 1): Padic.zero(p, 30)}
    # p^1 times a form with a 1/3 entry is integral, and one digit deeper
    half = NormalForm(p, Padic.zero(p), None, {(0, 0): Padic.one(p) / Padic.from_int(3, p)})
    (w,) = Window.read([half], 1)
    assert (w.depth, w.rows) == (40, [[1]])
    with pytest.raises(NonIntegral):
        Window.read([half])


def test_far_indices_read_as_a_small_window(monkeypatch):
    """A window holds only the indices that occur in the heads, so one
    entry at a far index refines and lifts on a 1 x 1 block, and a
    diagonal with two far entries on two of them: off the window every
    form is its shift times I, and between blocks every entry is an
    exact zero, absent from the head."""
    p, far = 3, 10**4
    sizes = []

    def read(forms, scale=0, _read=Window.read):
        out = _read(forms, scale)
        sizes.append(len(out[0].index))
        return out

    monkeypatch.setattr(Window, "read", read)
    a = FiniteMatrix(p, {(far, far): Padic.from_int(4, p, 40)})
    for e in (idempotent_refine(a), idempotent_lift(a)):
        assert normalize(e).head == {(far, far): Padic.one(p, 40)}
    d = Diagonal(p, {far: Padic.from_int(4, p, 40), 2 * far: Padic.from_int(3, p, 40)},
                 Padic.one(p, 40))
    e = idempotent_lift(d)
    assert normalize(e).shift == Padic.one(p, 40)
    assert op_agree(e, Diagonal(p, {2 * far: Padic.zero(p)}, Padic.one(p)), 40)
    monkeypatch.undo()
    assert sizes == [1, 1, 2]
    (w,) = Window.read([normalize(d)])
    assert (w.index, w.spans, w.rows, w.shift) == ((far, 2 * far), ((0, 1), (1, 2)), [[4], [3]], 1)
    assert list(w.form().head) == [(far, far), (2 * far, 2 * far)]


def test_equivalence_of_non_integral_idempotents():
    """e = [[1, 1/3], [0, 0]] has norm 3, so the witness is formed on the
    windows of 3e and 3f.  Its entries are certified to N - 1 = 38
    digits, N = 39 the precision of the 1/3 entry, one fewer than the
    tracked products carried: 3^2 (1 - u) is known mod 3^(N + 1)."""
    p, target = 3, 30
    e = fm(p, {(0, 0): 1, (0, 1): Fraction(1, 3)})
    f = fm(p, {(0, 0): 1, (0, 1): Fraction(1, 3) + 9, (1, 1): 0})
    assert op_agree(Product([f, f]), f, 40)
    w = idempotent_equivalence(e, f, target)
    assert op_agree(Product([w.u, e, w.u_inv]), f, target)
    assert op_agree(Product([w.u, w.u_inv]), Identity(p), target)
    assert op_agree(Product([w.u_inv, w.u]), Identity(p), target)
    for op in (w.u, w.u_inv):
        assert {x.absolute_precision for x in normalize(op).head.values()} == {38}

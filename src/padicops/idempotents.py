"""Idempotent machinery: refinement, equivalence, splitting, rank,
sum-ring generators and lifting modulo compact operators.

Everything here certifies what it returns.  Norm preconditions are
exact valuation comparisons, final identities are re-checked at the
target depth, and an iteration that cannot reach its target raises
instead of returning a best guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count

from .errors import (CertificationFailed, NoConvergence, NonIntegral, PrecisionExhausted,
                     PreconditionFailed, StructureError, Undecidable)
from .io import exponent_str
from .linalg import reduce_columns
from .operators import (FiniteMatrix, IndexMap, NormalForm, Operator,
                        Product, Sum, _applier, normalize)
from .polynomials import IntPolynomial
from .residues import Window
from .scalars import Padic, ValuationBound, precision_of
from .vectors import PadicVector


# -- refinement polynomials ---------------------------------------------


def refinement_polynomial(m: int) -> IntPolynomial:
    """The unique polynomial of degree < 2m fixing 0 and 1 to order m.

    Coefficient of x^k (for m <= k <= 2m-1) is
    sum over i of (-1)^(i+1) C(m,i) C(m-1+k-i, k-i), i = k-m+1 .. m.
    The defining conditions are re-verified symbolically before return.
    """
    if m < 1:
        raise ValueError("m must be positive")
    coeffs = [0] * (2 * m)
    for k in range(m, 2 * m):
        total = 0
        for i in range(k - m + 1, m + 1):
            total += (-1) ** (i + 1) * math.comb(m, i) * math.comb(m - 1 + k - i, k - i)
        coeffs[k] = total
    poly = IntPolynomial(tuple(coeffs))
    assert poly.degree <= 2 * m - 1
    assert poly(0) == 0 and poly(1) == 1
    d = poly
    for _ in range(1, m):
        d = d.derivative()
        assert d(0) == 0 and d(1) == 0
    return poly


# -- refinement ----------------------------------------------------------


def idempotent_refine(a: Operator, target: int = 30) -> Operator:
    """Nearest idempotent to an almost-idempotent a.

    Requires ||a^2 - a|| < 1 / ||a||^2.  Iterates refinement_polynomial(2),
    e <- 3e^2 - 2e^3 = e + d(1 - 2e) with d = e^2 - e: two products a
    step, and the defect squares, so k steps reach the order of
    refinement_polynomial(2^k).  Each step is a multiple of d, so
    ||a - e|| < min(1/||a||, 1).  e is computed on the residue window of
    p^s a, ||a|| = p^s (s = 0 when ||a|| <= 1), and certified to the
    depth that window leaves (_refine); a structured tail has no window
    and raises StructureError.
    """
    e, _ = _refine_form(normalize(a), target)
    return e.to_operator()


def _refine_form(a: NormalForm | Window, target: int,
                 defect: tuple[Window, int] | None = None) -> tuple[NormalForm, list[int]]:
    """idempotent_refine on a normal form or a residue window, and the
    valuations of the defects _refine reached.  A caller that holds the
    defect of a window a and its valuation passes both, so neither is
    formed or read again.  Anything of norm < 1 refines to the zero
    idempotent, exactly: an idempotent e of norm < 1 is 0, since
    e = e^n -> 0.  A form of norm p^s >= 1 is read as the window of
    p^s a (_unit_window) and written back divided by p^s; a window has
    s = 0.
    """
    if isinstance(a, NormalForm):
        read = _unit_window(a)
    else:
        read = None if a.norm() < ValuationBound.one() else (a, 0)
    if read is None:
        # covers a = 0
        return NormalForm.constant(a.prime, Padic.zero(a.prime)), []
    w, s = read
    e, valuations = _refine(w, s, target, defect)
    return e.form(s), valuations


def _unit_window(a: NormalForm) -> tuple[Window, int] | None:
    """(w, s), w the window of p^s a for ||a|| = p^s >= 1, or None when
    ||a|| < 1.  a is read at the least s >= 0 that makes its values
    integral (Window.read_integral), and the window's norm, one gcd,
    tells ||a|| < 1 from ||a|| >= 1 (_form_norm).  In the second case
    ||a|| = p^s: a value of valuation -s < 0 is an entry, the shift, or
    a diagonal value whose shift cancels it and so has its valuation,
    and no entry has a smaller one.  A tail has no window: its form's
    norm decides, as before windows were read first, and refinement
    refuses it (StructureError) unless that norm is below 1."""
    try:
        (w,), s = Window.read_integral([a])
    except StructureError:
        if a.norm() < ValuationBound.one():
            return None
        raise
    if _form_norm(a, w, s) < ValuationBound.one():
        return None
    return w, s


def _form_norm(nf: NormalForm, w: Window, s: int) -> ValuationBound:
    """||nf|| from w, the window of p^s nf: p^(s - k) for the norm p^-k of w,
    one gcd.  That holds when some entry of w is nonzero and every value
    of the forms w was read with is known to a positive absolute
    precision N (s < w.depth = N + s), as then the largest entry of nf,
    of valuation below N, is read with its valuation.  Otherwise (every
    entry of w zero, or N <= 0) NormalForm.norm gives it, and refuses
    as it does."""
    if s < w.depth:
        k = w.norm().exponent
        if k < w.depth:
            return ValuationBound(k - s)
    return nf.norm()


def _refine(w: Window, s: int, target: int,
            defect: tuple[Window, int] | None = None) -> tuple[Window, list[int]]:
    """The refinement E of the window w = p^s a of depth M, ||a|| = p^s,
    from D = w.w - p^s w = p^2s d, d = a^2 - a (formed here unless
    given with its valuation), and the valuation of D after each step.
    A step is E' = E + d(p^s - 2E), p^s times e + d(1 - 2e): one divide
    and two fused products.  d = D / p^2s is integral, as v(d) > 2s and
    a step sends d to d^2(4d - 3), and each step costs 2s digits: every
    lift's d and E' agree with the window's mod p^(M - 2s).  Each D's
    valuation is read once, by one gcd (Window.norm).

    The loop stops at the first D that vanishes mod p^M, M the depth of
    E.  That D is formed only when no identity settles it: as
    D' = p^2s d^2 (4d - 3), a step sends v(D) to at least 2 v(D) - 2s,
    so once that reaches the depth of E', the step is taken and D' is
    known to vanish there without being formed.  Its valuation is
    recorded as that depth, which is what Window.norm reads off a
    formed D' that vanishes.  The steps to come are multiples of a
    lift's d, of valuation at least M - 2s, and at least 2v after a
    step, v = v(D) - 2s of the last defect stepped from, shared by
    every lift.  So E is returned at depth C = min(M, max(M - 2s, 2v)),
    and e = E / p^s is certified to C - s: to N, the least absolute
    precision of a, when s = 0.  v(D) >= 2^j after j steps, so at most
    (M - 1).bit_length() steps are taken.  NoConvergence when N, before
    any step, or C - s, after the last, is below the target.
    """
    ps = w.prime**s
    if defect is None:
        defect = w.mul(w, addend=[(-ps, w)])
        k = defect.norm().exponent
    else:
        defect, k = defect
    _defect_valuation(k, s)
    if w.depth - s < target:
        raise NoConvergence(0, f"the window certifies {w.depth - s} digits, fewer than the target")
    e, valuations, v = w, [], 0
    while k < e.depth:
        v = k - 2 * s
        d = defect.divide(2 * s)
        e = d.mul(e, -2, addend=[(ps, d), (1, e)])
        if 2 * k - 2 * s >= e.depth:
            # D' = p^2s d^2 (4d - 3) vanishes mod p^depth(E')
            valuations.append(e.depth)
            break
        defect = e.mul(e, addend=[(-ps, e)])
        k = defect.norm().exponent
        valuations.append(k)
    depth = min(e.depth, max(e.depth - 2 * s, 2 * v))
    if depth - s < target:
        raise NoConvergence(len(valuations), f"the window certifies {depth - s} digits, fewer than the target")
    if depth < e.depth:
        e = Window.combine([(1, e)], depth)
    return e, valuations


def _defect_valuation(k: int, s: int) -> int:
    """v(d) from k = v(p^2s d), d = a^2 - a; refinement needs v(d) > 2s."""
    v = k - 2 * s
    if v <= 2 * s:
        raise PreconditionFailed(f"defect valuation {v} must exceed {2 * s}")
    return v


# -- equivalence ---------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceWitness:
    u: Operator
    u_inv: Operator


def idempotent_equivalence(e: Operator, f: Operator,
                           target: int = 30) -> EquivalenceWitness:
    """Invertible u with u e u^-1 = f, for idempotents at distance
    below 1/||e||.  u = 1 - f - e + 2fe; its inverse comes from a
    Newton-Schulz iteration, which converges because the distance bound
    makes 1 - u a contraction.

    Everything past normalising runs on residue windows E = p^s e and
    F = p^s f, p^s the least power making both integral (s = 0 when they
    are), ||e|| included, which is read off E (_form_norm).
    p^2s (1 - u) = p^s (E + F) - 2 F E is integral, so u and u^-1 are
    integer polynomials in E and F and are certified to exactly N - s
    at every entry, N the least absolute precision of e and f
    (residues.Window).

    The certificates, each at the target depth:
    - e^2 = e and f^2 = f are formed: D_e = E^2 - p^s E = p^2s (e^2 - e)
      must vanish mod p^(target + 2s), and likewise D_f; each one
      product and one gcd.
    - u u^-1 = 1 and u^-1 u = 1 are derived, to N - s
      (_newton_schulz_inverse): u u^-1 - 1 = -r^2 for the last residual
      r the iteration formed, and u^-1 is a polynomial in u, so
      u^-1 u = u u^-1.  The idempotency checks need N - s >= target.
    - u e u^-1 = f is derived when it can be, and formed otherwise.
      From u = 1 - f - e + 2fe,
      ue - fu = (2f - 1)(e^2 - e) - (f^2 - f)(2e - 1),
      so p^s (u e u^-1 - f) = p^s (ue - fu) u^-1 + F (u u^-1 - 1)
      = ((2F - p^s) D_e - D_f (2E - p^s)) u^-1 / p^2s - F r^2,
      every factor but the defects integral: it vanishes mod
      p^min(v(D_e) - 2s, v(D_f) - 2s, N - s).  When that reaches
      target + s, the bound certifies it, which always happens at s = 0;
      otherwise the two products u E u^-1 - F are formed and must vanish
      to target + s, as before.
    """
    p = e.prime
    nfe, nff = normalize(e), normalize(f)
    try:
        (we, wf), s = Window.read_integral([nfe, nff])
    except StructureError:
        # a tail has no window: e's norm refuses first, as before
        if nfe.norm().is_zero:
            raise PreconditionFailed("e must be a nonzero idempotent") from None
        raise
    norm_e = _form_norm(nfe, we, s)
    if norm_e.is_zero:
        raise PreconditionFailed("e must be a nonzero idempotent")
    ps = p**s
    defects = []
    for name, x in (("e", we), ("f", wf)):
        # p^2s (x^2 - x) = (p^s x)^2 - p^s (p^s x)
        k = x.mul(x, addend=[(-ps, x)]).norm().exponent
        if k < target + 2 * s:
            raise PreconditionFailed(f"{name} is not idempotent at the target depth")
        defects.append(k)
    dist = we.sub(wf).norm()  # of p^s (e - f)
    if not dist < ValuationBound(s - norm_e.exponent):
        raise PreconditionFailed(
            f"distance exponent {dist.exponent - s} must exceed {-norm_e.exponent}")
    w = wf.mul(we, -2, addend=[(ps, wf), (ps, we)])  # p^2s (1 - u)
    if not w.vanishes_to(2 * s + 1):
        raise PreconditionFailed("1 - u fails to be a contraction; inputs are not close enough")
    one = we.constant(1)
    u = one.sub(w.divide(2 * s))
    inv, depth = _newton_schulz_inverse(u)
    if depth < target:
        raise CertificationFailed(target, "inverse verification failed")
    # p^s (u e u^-1 - f), formed only when the defects do not bound it
    if min(*defects, u.depth + 2 * s) - 2 * s < target + s:
        if not u.mul(we).mul(inv, addend=[(-1, wf)]).vanishes_to(target + s):
            raise CertificationFailed(target, "conjugation does not carry e to f at the target depth")
    return EquivalenceWitness(u.form().to_operator(), inv.form().to_operator())


def _newton_schulz_inverse(u: Window) -> tuple[Window, int]:
    """The inverse x of u, for ||1 - u|| < 1, and the depth to which
    u x = x u = 1 is certified: N, the depth of u, once the loop ends.
    From x = 2 - u, the first iterate after 1, each step forms the
    residual r = 1 - u x, reads its valuation (one gcd) and, unless r
    vanishes mod p^N, updates x' = x.r + x: two fused products.  Then
    1 - u x' = r - (1 - r) r = r^2 exactly, so once 2 v(r) >= N the
    update ends the loop, and neither 1 - u x' nor the left gap
    x' u - 1 is formed: x' is a polynomial in u, so x' u - 1 =
    u x' - 1 = -r^2 too.  v(1 - u) >= 1 makes v(r) >= 2 at the start
    and the residual squares each step, so bit_length(N) steps end
    the loop."""
    one, n = u.constant(1), u.depth
    x = u.constant(2).sub(u)
    for _ in range(n.bit_length()):
        residual = u.mul(x, -1, addend=[(1, one)])
        v = residual.norm().exponent
        if v < n:
            x = x.mul(residual, addend=[(1, x)])
        if 2 * v >= n:
            return x, n
    return x, 2 * v


# -- column projections and splitting ------------------------------------


def column_projection(vectors: list[PadicVector], ambient_idempotent: Operator,
                      target: int = 30) -> FiniteMatrix:
    """Contractive idempotent onto the span of the vectors, each fixed
    by the ambient idempotent.

    One column reduction turns each independent vector into a v_k of
    norm 1 with pivot row a_k, v_i(a_k) = delta_ik; a dependent vector
    adds nothing.  Returns sum of v_k (x) delta_{a_k}, the zero matrix
    when there are no vectors.
    """
    apply = _applier(ambient_idempotent)
    for v in vectors:
        image_gap = apply(v) - v
        if not all(x.vanishes_to(target) for x in image_gap.entries.values()):
            raise PreconditionFailed("basis vector is not fixed by the ambient idempotent")
    return FiniteMatrix(ambient_idempotent.prime, _projection_head(vectors))


def _projection_head(vectors: list[PadicVector]) -> dict[tuple[int, int], Padic]:
    """The entries of column_projection, from one column reduction."""
    reduced = reduce_columns([v.entries for v in vectors])
    return {(i, row): v for row, col in filter(None, reduced) for i, v in col.items()}


@dataclass(frozen=True)
class SplitResult:
    f: Operator
    g: Operator


def idempotent_split(e: Operator, target: int = 30) -> SplitResult:
    """Split an idempotent as e = f + g with f finite-rank carrying all
    the non-integral columns and g a contractive idempotent, fg = gf = 0."""
    nff, nfg = _split_forms(normalize(e), target)
    return SplitResult(nff.to_operator(), nfg.to_operator())


def _split_forms(nfe: NormalForm, target: int) -> tuple[NormalForm, NormalForm]:
    """idempotent_split on e's normal form nfe, returning the forms of f
    and g.  f projects e onto the span of its columns 0..n, n the last
    column holding a non-integral entry; column n is nonzero, as e's
    shift is integral.  That e fixes the columns is the defect check."""
    p = nfe.prime
    if not nfe.defect().vanishes_to(target):
        raise PreconditionFailed("input is not idempotent at the target depth")
    exceptional = [j for (_, j), v in nfe.head.items() if not v.is_integral]
    if exceptional:
        columns = [nfe.column(j) for j in range(max(exceptional) + 1)]
        nff = NormalForm(p, Padic.zero(p), None, _projection_head(columns)).mul(nfe)
        nfg = nfe.sub(nff)
    else:
        nff, nfg = NormalForm.constant(p, Padic.zero(p)), nfe
    checks = {
        "f idempotent": nff.defect(),
        "g idempotent": nfg.defect(),
        "fg zero": nff.mul(nfg),
        "gf zero": nfg.mul(nff),
        "ef = f": nfe.mul(nff, addend=[(-1, nff)]),
        "fe = f": nff.mul(nfe, addend=[(-1, nff)]),
    }
    for name, diff in checks.items():
        if not diff.vanishes_to(target):
            raise CertificationFailed(target, f"split verification failed: {name}")
    if not nfg.norm() <= ValuationBound.one():
        raise CertificationFailed(target, "contractive part has norm above 1")
    return nff, nfg


# -- rank ----------------------------------------------------------------


def matrix_rank(entries: dict[tuple[int, int], Padic]) -> int:
    """Rank over Q_p by exact column reduction with max-norm pivoting."""
    cols: dict[int, dict[int, Padic]] = {}
    for (i, j), v in entries.items():
        cols.setdefault(j, {})[i] = v
    reduced = reduce_columns([cols[j] for j in sorted(cols)])
    return sum(col is not None for col in reduced)


def finite_rank_reduce(f: Operator) -> int:
    """K0 integer of a finite-rank idempotent: its rank over Q_p."""
    return _form_rank(normalize(f))


def _form_rank(nf: NormalForm) -> int:
    """finite_rank_reduce on a normal form: the trace of its head a, as an
    idempotent's rank over Q_p is its trace (Hattori, Stallings).  With
    ||a|| = p^s >= 1 and v(d) > 2s, d = a^2 - a, each eigenvalue l of a has
    |l(l - 1)| <= ||d|| < 1, so the e refinement reaches has rank e = trace
    a mod p^v(d).  On w = p^s a mod p^N, certified zeros included, the rank
    is the one r in [0, n] with p^s r = trace w mod p^(min(v(p^2s d), N) - s),
    the trace summed over the diagonals of w's blocks."""
    if not nf.shift.is_zero:
        raise PreconditionFailed("operator has an identity component; not finite rank")
    if nf.tail is not None and not nf.tail.default.is_zero:
        raise PreconditionFailed("structured tail with nonzero default; not finite rank")
    p = nf.prime
    a = NormalForm(p, Padic.zero(p), None, {pos: nf.entry(*pos) for pos in nf.head})
    read = _unit_window(a)
    if read is None:
        return 0
    w, s = read
    k = _defect_valuation(w.mul(w, addend=[(-p**s, w)]).norm().exponent, s)
    trace = sum(w.rows[r][r - start] for start, stop in w.spans for r in range(start, stop))
    ranks = [r for r in range(len(w.index) + 1) if (p**s * r - trace) % p ** max(k + s, 0) == 0]
    if len(ranks) > 1:
        raise PrecisionExhausted(f"the trace is known mod p^{k}: ranks {ranks} all match")
    if not ranks:
        raise CertificationFailed(k, "no rank matches the trace")
    return ranks[0]


# -- sum-ring generators --------------------------------------------------


def cantor_pair(block: int, offset: int) -> int:
    s = block + offset
    return s * (s + 1) // 2 + offset


def cantor_unpair(x: int) -> tuple[int, int]:
    w = (math.isqrt(8 * x + 1) - 1) // 2
    offset = x - w * (w + 1) // 2
    return w - offset, offset


@dataclass(frozen=True)
class SumRingGenerators:
    prime: int
    first_to_all: IndexMap   # kills every block but the zeroth, which it spreads over N
    all_to_first: IndexMap   # embeds N as the zeroth block
    up: IndexMap             # block n -> block n+1
    down: IndexMap           # block n -> block n-1, kills block 0


def sum_ring_generators(prime: int) -> SumRingGenerators:
    """Four norm-1 index maps with first_to_all.all_to_first = down.up = 1
    and all_to_first.first_to_all + up.down = 1, on the blocks of the
    Cantor pairing."""

    def fta_dest(x: int) -> int | None:
        n, i = cantor_unpair(x)
        return i if n == 0 else None

    def atf_dest(i: int) -> int:
        return cantor_pair(0, i)

    def up_dest(x: int) -> int:
        n, i = cantor_unpair(x)
        return cantor_pair(n + 1, i)

    def up_inv(x: int) -> int | None:
        n, i = cantor_unpair(x)
        return cantor_pair(n - 1, i) if n >= 1 else None

    first_to_all = IndexMap(prime, fta_dest, inv=atf_dest, infinite_domain=True)
    all_to_first = IndexMap(prime, atf_dest, inv=fta_dest, infinite_domain=True)
    up = IndexMap(prime, up_dest, inv=up_inv, infinite_domain=True)
    down = IndexMap(prime, up_inv, inv=up_dest, infinite_domain=True)
    return SumRingGenerators(prime, first_to_all, all_to_first, up, down)


def infinite_sum(a: Operator, depth: int) -> Operator:
    """Partial sum of the block-diagonal spreading of a: copies of a on
    blocks 0..depth.  Finite inputs are materialized; structural ones
    stay lazy expression trees over the sum-ring generators."""
    try:
        nf = normalize(a)
    except StructureError as exc:
        raise Undecidable(f"expression has no closed structured form: {exc}") from exc
    return _spread(a, nf, depth)


def _spread(a: Operator, nf: NormalForm, depth: int) -> Operator:
    """infinite_sum on a and its normal form nf."""
    if not nf.norm() <= ValuationBound.one():
        raise PreconditionFailed("spreading requires norm <= 1")
    if nf.tail is None and nf.shift.is_zero:
        entries: dict[tuple[int, int], Padic] = {}
        for n in range(depth + 1):
            for (i, j), v in nf.head.items():
                entries[(cantor_pair(n, i), cantor_pair(n, j))] = v
        return FiniteMatrix(a.prime, entries)
    gens = sum_ring_generators(a.prime)
    terms: list[Operator] = []
    for n in range(depth + 1):
        factors: list[Operator] = [gens.up] * n
        factors += [gens.all_to_first, a, gens.first_to_all]
        factors += [gens.down] * n
        terms.append(Product(factors))
    return Sum(terms)


# -- trivialization -------------------------------------------------------


def k0_trivialize(e: Operator, target: int = 30, prefix: int = 16) -> dict:
    """Machine-checkable transcript that the class of e collapses:
    the finite-rank part is conjugate to a 0/1 diagonal, and the
    contractive part spreads into the sum ring where its class absorbs."""
    p = e.prime
    nfe = normalize(e)
    if nfe.shift.is_zero and nfe.tail is None and not nfe.head:
        return {
            "zero_input": True,
            "classes": {"finite_rank": 0, "contractive": 0},
        }
    nff, nfg = _split_forms(nfe, target)
    g = nfg.to_operator()
    # g is normalised once: the spread and the repeat check share its form
    form_g = normalize(g)
    rank = _form_rank(nff)
    gens = sum_ring_generators(p)
    relations = _relation_checks(gens, prefix, target)
    depth = max(cantor_unpair(x)[0] for x in range(prefix)) + 1
    g_inf = _spread(g, form_g, depth)
    repeat_ok = _repeat_equation_ok(g, g_inf, gens, prefix, target, form_g)
    return {
        "zero_input": False,
        "split": {
            "finite_part_rank": rank,
            "contractive_part_norm_exponent": exponent_str(nfg.norm()),
        },
        "finite_part": {
            "rank": rank,
            "diagonal_form": [[k, k, "1"] for k in range(rank)],
        },
        "contractive_part": {
            "sum_ring_relations_on_prefix": relations,
            "spread_depth": depth,
            "repeat_equation_on_prefix": repeat_ok,
        },
        "classes": {"finite_rank": rank, "contractive": 0},
    }


def _relation_checks(gens: SumRingGenerators, prefix: int, target: int) -> dict[str, bool]:
    """The sum-ring relations on x < prefix, read off the generators'
    index maps, each of which must have one coefficient that agrees with
    1 to the target.  atf.fta + up.down = 1 holds at x when exactly one
    of its two paths is defined there and returns x."""
    fta, atf, up, down = gens.first_to_all, gens.all_to_first, gens.up, gens.down
    one = Padic.one(gens.prime, target)

    def unit(*maps: IndexMap) -> bool:
        return all(not m.coeff and (m.default_coeff - one).vanishes_to(target) for m in maps)

    def path(x: int | None, *maps: IndexMap) -> int | None:
        for m in maps:
            x = None if x is None else m.dest(x)
        return x

    xs = range(prefix)
    return {
        "left_inverse_first": unit(fta, atf) and all(path(x, atf, fta) == x for x in xs),
        "left_inverse_shift": unit(up, down) and all(path(x, up, down) == x for x in xs),
        "partition_of_identity": unit(fta, atf, up, down) and all(
            [y for y in (path(x, fta, atf), path(x, down, up)) if y is not None] == [x]
            for x in xs),
    }


def _repeat_equation_ok(g: Operator, g_inf: Operator, gens: SumRingGenerators,
                        prefix: int, target: int, form_g: NormalForm) -> bool:
    """atf.g.fta + up.g_inf.down = g_inf on x < prefix, each gap entry
    certified zero to the target.  Only g and g_inf are read: the
    generators move indices by their dest maps, at the coefficient 1
    that _relation_checks certifies.  Column x of g is read off form_g,
    its normal form (NormalForm.column), and so is that of g_inf when
    it has one; only a g_inf without, the lazy spread of a g with a
    shift or a tail, is applied to a basis vector."""
    p = g.prime

    column_g = form_g.column
    try:
        column_inf = normalize(g_inf).column
    except StructureError:
        apply, prec = _applier(g_inf), precision_of(g)

        def column_inf(x: int) -> PadicVector:
            return apply(PadicVector.basis(p, x, prec))

    def image(column, x: int | None) -> PadicVector:
        return PadicVector(p) if x is None else column(x)

    def moved(vec: PadicVector, dest) -> PadicVector:
        return PadicVector(p, {dest(i): v for i, v in vec.entries.items()})

    for x in range(prefix):
        gap = (moved(image(column_g, gens.first_to_all.dest(x)), gens.all_to_first.dest)
               + moved(image(column_inf, gens.down.dest(x)), gens.up.dest)
               - image(column_inf, x))
        if any(not v.vanishes_to(target) for v in gap.entries.values()):
            return False
    return True


# -- lifting modulo compacts ----------------------------------------------


def idempotent_lift(a: Operator, target: int = 30, budget: int = 64) -> Operator:
    """Idempotent e with e - a compact, for a contraction a whose defect
    a^2 - a is compact.  ``budget`` is ignored: nothing is searched.

    e refines a power x of a that is, mod p, the Fitting idempotent of
    a: x = a itself when ||a^2 - a|| < 1.  Otherwise b = a^(p^K), K from
    _frobenius_cap, is semisimple mod p, so its eigenvalues lie in the
    field of p^D elements for the least D >= 1 with b^(p^D) = b mod p,
    and x = b^(p^D - 1) sends each nonzero one to 1.

    All of it runs on a's residue window mod p^N, N the least absolute
    precision of a: x and e are integer polynomials in a, so e is
    certified to exactly N at every entry (residues.Window), unless x
    vanishes mod p and e is the exact zero (_refine_form).  The defect
    a^2 - a is formed once, as one fused product, to test ||a^2 - a|| < 1
    and as the refinement's first defect when x = a: refining a^2 instead
    would form (a^2)^2 - a^2 again, and both reach the same fixed point
    mod p^N, the one idempotent of Z/p^N[a] that lifts a mod p.  The
    defect's compactness is read off a's shift at the shift's own
    precision.  A structured tail raises Undecidable: its defect is a
    sum of two tails.
    """
    try:
        nf = normalize(a)
        w = _contraction_window(nf)
    except StructureError as exc:
        raise Undecidable(f"expression has no closed structured form: {exc}") from exc
    if not (nf.shift * nf.shift - nf.shift).is_zero:
        raise PreconditionFailed("defect a^2 - a is not certified compact")
    defect = w.defect()
    x, known = w, (defect, defect.norm().exponent)
    if known[1] <= 0:
        p = nf.prime
        b = w.power(p ** _frobenius_cap(w))
        y, period = b.power(p), 1
        while not y.sub(b).norm() < ValuationBound.one():
            y, period = y.power(p), period + 1
        x, known = b.power(p**period - 1), None
    e, _ = _refine_form(x, target, known)
    if not (e.shift - nf.shift).is_zero:
        raise CertificationFailed(target, "lifted idempotent does not agree with a modulo compacts")
    return e.to_operator()


def _contraction_window(nf: NormalForm) -> Window:
    """The window of nf mod p^N, or PreconditionFailed when ||nf|| > 1.
    For a tail-free form that is when the read raises NonIntegral, as in
    calculus._contraction_window: an entry outside Z_p is a head value
    or the shift outside it.  Then, and for a tail, NormalForm.norm
    decides, and refuses as it does; the read of a tail raises
    StructureError."""
    if nf.tail is None:
        try:
            return Window.read([nf])[0]
        except NonIntegral:
            pass
    if not nf.norm() <= ValuationBound.one():
        raise PreconditionFailed("lift input must be a contraction")
    return Window.read([nf])[0]


def _frobenius_cap(w: Window) -> int:
    """The least K with p^K >= n, n the size of w's largest block.  Mod
    p, w is s*I off its blocks and S + N on each, with S semisimple, N
    nilpotent and SN = NS.  So N^n = 0 on every block and
    (S + N)^(p^K) = S^(p^K) + N^(p^K) = S^(p^K) mod p."""
    n = max([stop - start for start, stop in w.spans], default=0)
    return next(k for k in count() if w.prime ** k >= n)

"""Exact elimination over Q_p: the only place that chooses pivots.

Two routines, one per pivot rule.  Both pick the entry of least
valuation, which over Z_p is the stable choice: every multiplier is then
integral, so no step enlarges the entries it touches.

- ``reduce_columns`` is Gauss-Jordan reduction taking the columns in
  order; each pivot is the least-valuation entry of its own column.
  Column projections and ranks read off it.
- ``eliminate_full_pivot`` searches the whole remaining block for the
  pivot.  Its pivot valuations are the Smith invariants, and their
  signed product is the determinant.

Each update x - f * y is one ``scalars.add_product`` of x, -f and y, so
it is rounded once, not once for the product and again for the sum.
"""

from __future__ import annotations

from .scalars import Padic, add_product

Column = dict[int, Padic]


def reduce_columns(columns: list[Column]) -> list[tuple[int, Column] | None]:
    """Gauss-Jordan reduction of sparse columns, taken in order.

    Entry k of the result is None when column k depends on the columns
    before it.  Otherwise it is (a_k, v_k): v_k has a 1 in its pivot
    row a_k, and every other returned column is 0 in row a_k.
    """
    cols = [{i: v for i, v in c.items() if not v.is_zero} for c in columns]
    out: list[tuple[int, Column] | None] = [None] * len(cols)
    for k, col in enumerate(cols):
        if not col:
            continue
        row = min(col, key=lambda i: (col[i].valuation, i))  # ties: lowest row
        pivot = col[row]
        zero = Padic.zero(pivot.prime)
        cols[k] = {i: v / pivot for i, v in col.items()}
        out[k] = (row, cols[k])
        for j in range(len(cols)):
            if j == k or row not in cols[j]:
                continue
            col = cols[j]
            factor = -col[row]
            for i, v in cols[k].items():
                cur = add_product(col.get(i, zero), factor, v)
                if cur.is_zero:
                    col.pop(i, None)
                else:
                    col[i] = cur
    return out


def eliminate_full_pivot(rows: list[list[Padic]], prime: int) -> tuple[list[int], Padic]:
    """Elimination with the pivot of least valuation in the whole
    remaining block (ties: lowest row, then lowest column).

    Returns the pivot valuations, which are the valuations of the Smith
    invariants in nondecreasing order (as many as the rank), and the
    determinant.
    """
    work = [row[:] for row in rows]
    n = len(work)
    det: Padic | None = None  # the product of the pivots so far
    sign = 1
    valuations: list[int] = []
    for k in range(n):
        best = None
        for i in range(k, n):
            row = work[i]
            for j in range(k, n):
                val = row[j].valuation
                if val is not None and (best is None or val < best[0]):
                    best = (val, i, j)
        if best is None:
            return valuations, Padic.zero(prime)
        _, pi, pj = best
        if pi != k:
            work[k], work[pi] = work[pi], work[k]
            sign = -sign
        if pj != k:
            for row in work[k:]:
                row[k], row[pj] = row[pj], row[k]
            sign = -sign
        pivot = work[k][k]
        valuations.append(pivot.valuation)
        det = pivot if det is None else det * pivot
        negated, pivot_row = -pivot, work[k]
        for i in range(k + 1, n):
            row = work[i]
            if row[k].is_zero:
                continue
            factor = row[k] / negated  # -(row[k] / pivot)
            for j in range(k + 1, n):
                row[j] = add_product(row[j], factor, pivot_row[j])
    if det is None:  # the empty matrix
        return valuations, Padic.one(prime)
    return valuations, det if sign > 0 else -det

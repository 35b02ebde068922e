"""Exact rational linear programming for small dense problems.

Two-phase primal simplex over arbitrary-precision integers: every tableau
row and the cost row of both phases is a primitive integer vector (content
divided out after each pivot), so no rational arithmetic happens between
the scaled input rows and the final vertex.  The entering rule is Dantzig's
(most negative reduced cost) until a run of degenerate pivots suggests
cycling, after which it permanently switches to Bland's rule, which
guarantees termination.  Intended for the tiny systems that arise when
locating chamber points; no sparsity, no large-scale ambitions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from polygonspace.ratpoly import _primitive, _scaled

Row = tuple[Sequence[Fraction | int], Fraction | int]

_STALL_LIMIT = 40


def maximize(
    objective: Sequence[Fraction | int],
    eq_rows: Sequence[Row],
    ge_rows: Sequence[Row],
) -> Optional[tuple[Fraction, tuple[Fraction, ...]]]:
    """Maximize ``objective . x`` subject to ``x >= 0``, equalities and ``>=`` rows.

    ``eq_rows`` and ``ge_rows`` are ``(coefficients, rhs)`` pairs.  Returns
    ``(value, x)`` at an optimal vertex, or ``None`` when the constraints are
    infeasible.  Raises ``ValueError`` if the objective is unbounded above.
    """
    nvars = len(objective)
    neq, nge = len(eq_rows), len(ge_rows)
    width = nvars + nge  # structural + slack columns; artificials appended later
    if any(len(coeffs) != nvars for coeffs, _ in (*eq_rows, *ge_rows)):
        raise ValueError("constraint width does not match the objective")
    # Each row is scaled to integers, its slack column (-1 on a >= row) with it.
    rows: list[list[int]] = []
    for k, (coeffs, rhs) in enumerate((*eq_rows, *ge_rows)):
        scaled, den = _scaled([*coeffs, rhs])
        slack = [0] * nge
        if k >= neq:
            slack[k - neq] = -den
        rows.append(scaled[:-1] + slack + scaled[-1:])
    for row in rows:
        if row[-1] < 0:
            for j in range(len(row)):
                row[j] = -row[j]

    # Initial basis: the slack column of a >= row (a unit column; a negative
    # coefficient is fixed by flipping the row, legal only when the right
    # side is zero), an artificial column otherwise.
    basis: list[int] = []
    artificial: list[int] = []
    for r, row in enumerate(rows):
        col = nvars + r - neq
        if r >= neq and (row[col] > 0 or row[-1] == 0):
            if row[col] < 0:
                for j in range(len(row)):
                    row[j] = -row[j]
            basis.append(col)
            continue
        basis.append(-1)
        artificial.append(r)
    total_width = width + len(artificial)
    for row in rows:
        row[-1:-1] = [0] * len(artificial)
    for k, r in enumerate(artificial):
        rows[r][width + k] = 1
        basis[r] = width + k

    if artificial:
        # Phase one minimizes the sum of the artificials; priced out against
        # their rows (basic coefficient 1) the reduced costs are integers.
        cost = [0] * (total_width + 1)
        for r in artificial:
            cost = [c - v for c, v in zip(cost, rows[r])]
        for k in range(len(artificial)):
            cost[width + k] += 1
        _pivot_to_optimum(rows, cost, basis)
        if any(row[-1] != 0 for r, row in enumerate(rows) if basis[r] >= width):
            return None
        # Drive leftover artificials out of the basis; an all-zero row is
        # redundant and dropped.
        keep: list[int] = []
        for r in range(len(rows)):
            if basis[r] < width:
                keep.append(r)
                continue
            col = next((j for j in range(width) if rows[r][j] != 0), None)
            if col is None:
                continue
            _pivot(rows, None, basis, r, col)
            keep.append(r)
        rows = [rows[r][:width] + rows[r][-1:] for r in keep]
        basis = [basis[r] for r in keep]

    # basic entries d > 0: d·cost − factor·row is a positive multiple of cost − factor·row/d
    cost = _scaled([-c for c in objective])[0] + [0] * (nge + 1)
    for r, row in enumerate(rows):
        factor, d = cost[basis[r]], row[basis[r]]
        if factor:
            cost = _primitive([c * d - factor * v for c, v in zip(cost, row)])
    _pivot_to_optimum(rows, cost, basis)

    point = [Fraction(0)] * nvars
    for r, b in enumerate(basis):
        if b < nvars:
            point[b] = Fraction(rows[r][-1], rows[r][b])
    value = sum((Fraction(c) * x for c, x in zip(objective, point)), Fraction(0))
    return value, tuple(point)


def _pivot_to_optimum(
    rows: list[list[int]], cost: list[int], basis: list[int]
) -> None:
    """Pivot until no reduced cost is negative (minimization form).

    Every row keeps a positive coefficient in its basic column, so the ratio
    test needs only rows with a positive entry in the entering column.
    """
    ncols = len(cost) - 1
    bland = False
    stall = 0
    while True:
        if bland:
            enter = next((j for j in range(ncols) if cost[j] < 0), None)
        else:
            best = min(cost[:ncols])  # Dantzig: the first most negative
            enter = cost.index(best) if best < 0 else None
        if enter is None:
            return
        leave = None
        best_num = best_den = 0  # running minimum ratio rhs/entry
        for r, row in enumerate(rows):
            entry = row[enter]
            if entry <= 0:
                continue
            num, den = row[-1], entry
            if (
                leave is None
                or num * best_den < best_num * den
                or (num * best_den == best_num * den and basis[r] < basis[leave])
            ):
                best_num, best_den = num, den
                leave = r
        if leave is None:
            raise ValueError("objective is unbounded")
        if best_num == 0:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
        else:
            stall = 0
        _pivot(rows, cost, basis, leave, enter)


def _pivot(
    rows: list[list[int]],
    cost: list[int] | None,
    basis: list[int],
    r: int,
    j: int,
) -> None:
    pivot_row = rows[r]
    piv = pivot_row[j]
    if piv < 0:
        pivot_row[:] = [-v for v in pivot_row]
        piv = -piv
    for i, other in enumerate(rows):
        if other is pivot_row or other[j] == 0:
            continue
        f = other[j]
        rows[i] = _primitive([a * piv - b * f for a, b in zip(other, pivot_row)])
    if cost is not None and cost[j] != 0:
        f = cost[j]
        cost[:] = _primitive([a * piv - b * f for a, b in zip(cost, pivot_row)])
    rows[r] = _primitive(pivot_row)
    basis[r] = j
